"""Extensions of a capacity from vertices of the unit cube to score vectors.

A capacity fixes the aggregated value on 0/1 indicator vectors; the
functions here extend it to arbitrary scores. ``choquet`` is the
piecewise-linear extension through sorted scores, ``sipos`` its symmetric
(gains minus losses under the same capacity) variant, ``mle`` the
multilinear polynomial extension with ``smle`` as its symmetric variant,
``sugeno_product`` the max-product form driven by the ordinal
coefficients, and ``cpt`` the two-capacity gains/losses form. Negative
scores are handled by splitting t into its positive and negative parts
t+ = max(t, 0) and t- = max(-t, 0).

``pseudo_product_extension`` generalizes the minimum in the Mobius form of
``choquet`` to any certified commutative associative operator on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import subsets
from .errors import (
    CapacitiesError,
    DimensionMismatch,
    InvalidFormat,
    OutOfDomain,
    UncertifiedOperator,
)
from .set_function import (
    DEFAULT_TOL,
    Capacity,
    MobiusRepr,
    OrdinalMobiusRepr,
    mobius,
    ordinal_mobius,
)

__all__ = [
    "EXTENSION_NAMES",
    "choquet",
    "choquet_mobius",
    "sipos",
    "sipos_closed_form",
    "sipos_mobius",
    "mle",
    "smle",
    "symmetric_max",
    "symmetric_max_fold",
    "sugeno_product",
    "cpt",
    "cpt_compatible",
    "CptCompatibility",
    "OperatorCertificate",
    "PseudoProduct",
    "certify",
    "pseudo_product_extension",
    "Extension",
    "make_extension",
]

# Extension turns an overflowing coefficient form into OutOfDomain, so numpy need not warn.
_quiet = np.errstate(over="ignore", invalid="ignore")


def _scores(t, n: int) -> np.ndarray:
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise DimensionMismatch(
            "score vector must have length %d, got shape %s" % (n, arr.shape)
        )
    if not np.all(np.isfinite(arr)):
        raise OutOfDomain("scores must be finite")
    return arr


def _split(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.maximum(t, 0.0), np.maximum(-t, 0.0)


def _over_subsets(ufunc: np.ufunc, t: np.ndarray, empty: float) -> np.ndarray:
    """table[A] = ``ufunc`` folded over t on A for every mask; ``empty`` at the empty set."""
    out = np.full(1 << t.shape[0], empty)
    for i, lo, hi in subsets.halves(out):
        ufunc(lo, t[i], out=hi)
    return out


def choquet(mu: Capacity, t) -> float:
    """Choquet integral of t against mu, valid for scores of any sign.

    Sorts t ascending (ties broken by criterion index) and accumulates
    t(1) * mu(N) + sum of (t(k) - t(k-1)) * mu({criteria ranked k..n}).
    """
    t = _scores(t, mu.n)
    order = np.argsort(t, kind="stable")
    vals = mu.values
    acc = float(t[order[0]]) * float(vals[-1])
    mask = mu.full_mask
    for k in range(1, mu.n):
        mask ^= 1 << int(order[k - 1])
        acc += (float(t[order[k]]) - float(t[order[k - 1]])) * float(vals[mask])
    return acc


@_quiet
def choquet_mobius(m: MobiusRepr, t) -> float:
    """Choquet integral in coefficient form: sum of m(A) * min of t over A."""
    t = _scores(t, m.n)
    minv = _over_subsets(np.minimum, t, np.inf)
    return float(np.dot(m.coefficients[1:], minv[1:]))


def sipos(mu: Capacity, t) -> float:
    """Symmetric integral: Choquet of the gains minus Choquet of the losses."""
    t = _scores(t, mu.n)
    tp, tn = _split(t)
    return choquet(mu, tp) - choquet(mu, tn)


def sipos_closed_form(mu: Capacity, t) -> float:
    """Single-sort evaluation of :func:`sipos`.

    With t sorted ascending and p strictly negative entries, the negative
    block telescopes through the capacities of the leading subsets and the
    nonnegative block through the trailing ones.
    """
    t = _scores(t, mu.n)
    n = mu.n
    vals = mu.values
    order = np.argsort(t, kind="stable")
    ts = t[order]
    p = int(np.sum(ts < 0.0))
    acc = 0.0
    head = 0
    for k in range(1, p):
        head |= 1 << int(order[k - 1])
        acc += (float(ts[k - 1]) - float(ts[k])) * float(vals[head])
    if p >= 1:
        head |= 1 << int(order[p - 1])
        acc += float(ts[p - 1]) * float(vals[head])
    if p < n:
        tail = 0
        for k in range(p, n):
            tail |= 1 << int(order[k])
        acc += float(ts[p]) * float(vals[tail])
        mask = tail
        for k in range(p + 1, n):
            mask ^= 1 << int(order[k - 1])
            acc += (float(ts[k]) - float(ts[k - 1])) * float(vals[mask])
    return acc


def sipos_mobius(m: MobiusRepr, t) -> float:
    """Coefficient form of :func:`sipos`: sum of m(A) * (min t+ - min t-)."""
    t = _scores(t, m.n)
    tp, tn = _split(t)
    mp = _over_subsets(np.minimum, tp, np.inf)
    mn = _over_subsets(np.minimum, tn, np.inf)
    return float(np.dot(m.coefficients[1:], mp[1:] - mn[1:]))


@_quiet
def mle(m: MobiusRepr, t) -> float:
    """Multilinear extension: sum of m(A) * product of t over A.

    The natural domain is the unit cube; evaluation outside it is allowed
    (and is exactly what makes the extension misbehave there).
    """
    t = _scores(t, m.n)
    prod = _over_subsets(np.multiply, t, 1.0)
    return float(np.dot(m.coefficients[1:], prod[1:]))


@_quiet
def smle(m: MobiusRepr, t) -> float:
    """Symmetric multilinear extension: products of t+ minus products of t-."""
    t = _scores(t, m.n)
    tp, tn = _split(t)
    pp = _over_subsets(np.multiply, tp, 1.0)
    pn = _over_subsets(np.multiply, tn, 1.0)
    return float(np.dot(m.coefficients[1:], pp[1:] - pn[1:]))


def symmetric_max(a: float, b: float) -> float:
    """Largest absolute value wins, keeping its sign; exact opposites give 0.

    Associative only within a sign class, so folds must group positives and
    negatives first (see :func:`symmetric_max_fold`).
    """
    a = float(a)
    b = float(b)
    if abs(a) > abs(b):
        return a
    if b == -a:
        return 0.0
    return b


def symmetric_max_fold(values) -> float:
    """Fold :func:`symmetric_max` over a vector by the two-pass rule.

    Positives fold to their maximum, negatives to their minimum, and the two
    results are combined once. The empty fold is 0.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise OutOfDomain("values must be finite")
    pos = arr[arr > 0.0]
    neg = arr[arr < 0.0]
    hi = float(pos.max()) if pos.size else 0.0
    lo = float(neg.min()) if neg.size else 0.0
    return symmetric_max(hi, lo)


def _sugeno_nonneg(m: OrdinalMobiusRepr, t: np.ndarray) -> float:
    minv = _over_subsets(np.minimum, t, np.inf)
    return float(np.max(m.coefficients[1:] * minv[1:]))


def sugeno_product(m: OrdinalMobiusRepr, t) -> float:
    """Max over nonempty A of m(A) * min of t over A, for nonnegative t.

    Signed scores are handled symmetrically: the values for t+ and t- are
    combined with :func:`symmetric_max`.
    """
    t = _scores(t, m.n)
    if np.all(t >= 0.0):
        return _sugeno_nonneg(m, t)
    tp, tn = _split(t)
    return symmetric_max(_sugeno_nonneg(m, tp), -_sugeno_nonneg(m, tn))


def cpt(m_gains: MobiusRepr, m_losses: MobiusRepr, t) -> float:
    """Two-capacity form in coefficient space.

    Gains (t+) are integrated against the first coefficient set and losses
    (t-) against the second: sum of m1(A) min t+ minus sum of m2(A) min t-.
    """
    if m_gains.n != m_losses.n:
        raise DimensionMismatch(
            "coefficient tables disagree on n: %d vs %d" % (m_gains.n, m_losses.n)
        )
    t = _scores(t, m_gains.n)
    tp, tn = _split(t)
    return choquet_mobius(m_gains, tp) - choquet_mobius(m_losses, tn)


@dataclass(frozen=True)
class CptCompatibility:
    """Whether two capacities agree on every singleton, with the mismatches."""

    compatible: bool
    mismatches: tuple[tuple[int, float, float], ...]

    def __bool__(self) -> bool:
        return self.compatible


def cpt_compatible(
    mu_gains: Capacity, mu_losses: Capacity, tol: float = DEFAULT_TOL
) -> CptCompatibility:
    """Check mu_losses({i}) = mu_gains({i}) for every criterion.

    When this holds the two-capacity form behaves like the one-capacity
    symmetric integrals on vectors supported on a single sign.
    """
    if mu_gains.n != mu_losses.n:
        raise DimensionMismatch(
            "capacities disagree on n: %d vs %d" % (mu_gains.n, mu_losses.n)
        )
    bad = []
    for i in range(mu_gains.n):
        a = float(mu_gains.values[1 << i])
        b = float(mu_losses.values[1 << i])
        if abs(a - b) > tol:
            bad.append((i + 1, a, b))
    return CptCompatibility(not bad, tuple(bad))


@dataclass(frozen=True)
class OperatorCertificate:
    """Sampled evidence that a binary operator is commutative and associative."""

    commutative: bool
    associative: bool
    grid_points: int
    tol: float
    max_commutativity_gap: float
    max_associativity_gap: float


@dataclass(frozen=True)
class PseudoProduct:
    """Binary operator on [0, 1] together with its sampled certificate."""

    op: Callable[[float, float], float]
    name: str = ""
    certificate: OperatorCertificate | None = None

    @property
    def is_certified(self) -> bool:
        c = self.certificate
        return c is not None and c.commutative and c.associative

    def __call__(self, a: float, b: float) -> float:
        return float(self.op(a, b))


_GRID_POINTS = 21


def _grid_table(op: Callable[[float, float], float], grid_points: int):
    """Uniform grid xs on [0, 1] and the table op(xs[i], xs[j])."""
    xs = np.linspace(0.0, 1.0, grid_points)
    table = np.empty((grid_points, grid_points))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            table[i, j] = op(float(x), float(y))
    return xs, table


def _certificate(op, xs: np.ndarray, table: np.ndarray, tol: float) -> OperatorCertificate:
    """Worst commutativity and associativity gaps of ``op`` on its grid table."""
    comm_gap = float(np.max(np.abs(table - table.T)))
    assoc_gap = 0.0
    for i, x in enumerate(xs):
        for j in range(xs.shape[0]):
            for k, z in enumerate(xs):
                left = op(float(table[i, j]), float(z))
                right = op(float(x), float(table[j, k]))
                gap = abs(left - right)
                if gap > assoc_gap:
                    assoc_gap = gap
    return OperatorCertificate(
        commutative=comm_gap <= tol,
        associative=assoc_gap <= tol,
        grid_points=xs.shape[0],
        tol=tol,
        max_commutativity_gap=comm_gap,
        max_associativity_gap=assoc_gap,
    )


def certify(
    op: Callable[[float, float], float],
    name: str = "",
    grid_points: int = _GRID_POINTS,
    tol: float = DEFAULT_TOL,
) -> PseudoProduct:
    """Sample commutativity and associativity of ``op`` on a [0, 1] grid.

    Pairs come from a uniform grid of ``grid_points`` values, triples from
    its cube. The certificate records the worst gaps; the operator counts
    as certified when both stay within ``tol``.
    """
    cert = _certificate(op, *_grid_table(op, grid_points), tol)
    return PseudoProduct(op=op, name=name, certificate=cert)


def pseudo_product_extension(m: MobiusRepr, op: PseudoProduct, t) -> float:
    """Mobius-form extension with ``op`` in place of the minimum, on [0, 1]^n.

    Each coalition contributes m(A) times the left fold of ``op`` over its
    scores in ascending criterion order (the certificate makes the order
    immaterial on the sampled grid).
    """
    if not isinstance(op, PseudoProduct):
        raise UncertifiedOperator("operator must be wrapped by certify() before use")
    if not op.is_certified:
        c = op.certificate
        detail = "no certificate" if c is None else (
            "commutativity gap %.3g, associativity gap %.3g exceed tol %g"
            % (c.max_commutativity_gap, c.max_associativity_gap, c.tol)
        )
        raise UncertifiedOperator(
            "operator %r is not certified (%s)" % (op.name or "<unnamed>", detail)
        )
    t = _scores(t, m.n)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise OutOfDomain("pseudo-product extensions are defined on [0, 1]^n only")
    folded = np.zeros(1 << m.n)
    for i, lo, hi in subsets.halves(folded):
        # Row 0 holds the masks whose highest member is criterion i + 1.
        hi[0, 0] = t[i]
        for k in range(1, 1 << i):
            hi[0, k] = op.op(float(lo[0, k]), float(t[i]))
    return float(np.dot(m.coefficients[1:], folded[1:]))


EXTENSION_NAMES = ("choquet", "sipos", "mle", "smle", "sugeno_product", "cpt")

Aggregator = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class Extension:
    """A named aggregation function built from one or two capacities.

    ``domain`` tags where samplers may draw scores: "reals" for the
    sign-splitting integrals, "unit" for the multilinear ones (which are
    still evaluable anywhere, just not well behaved outside the cube).
    A call raises :class:`OutOfDomain` when the value is not finite.
    """

    name: str
    n: int
    domain: str
    fn: Aggregator

    def __call__(self, t) -> float:
        value = self.fn(t)
        if not math.isfinite(value):
            raise OutOfDomain("%s overflows at these scores (got %r)" % (self.name, value))
        return value


def make_extension(
    name: str, mu: Capacity, mu_losses: Capacity | None = None
) -> Extension:
    """Bind an extension by name, precomputing the coefficients it needs."""
    if name not in EXTENSION_NAMES:
        raise InvalidFormat(
            "unknown extension %r, expected one of %s" % (name, ", ".join(EXTENSION_NAMES))
        )
    if name != "cpt" and mu_losses is not None:
        raise CapacitiesError("only the cpt extension takes a second capacity")
    if name == "choquet":
        return Extension(name, mu.n, "reals", lambda t: choquet(mu, t))
    if name == "sipos":
        return Extension(name, mu.n, "reals", lambda t: sipos(mu, t))
    if name == "mle":
        m = mobius(mu)
        return Extension(name, mu.n, "unit", lambda t: mle(m, t))
    if name == "smle":
        m = mobius(mu)
        return Extension(name, mu.n, "unit", lambda t: smle(m, t))
    if name == "sugeno_product":
        mv = ordinal_mobius(mu)
        return Extension(name, mu.n, "reals", lambda t: sugeno_product(mv, t))
    if mu_losses is None:
        raise CapacitiesError("the cpt extension needs a second capacity for losses")
    m1 = mobius(mu)
    m2 = mobius(mu_losses)
    return Extension(name, mu.n, "reals", lambda t: cpt(m1, m2, t))
