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
The operator runs through ``np.frompyfunc``, one call for the grid, one per side
of its cube of triples, five off the grid and one per criterion of the fold,
warnings off. A certificate runs it 441 times on the grid and 320 times off it;
each side of the cube runs it once per pair of a distinct grid-table value and a
grid value, 21 * u times for u distinct values, and gathers its 9,261 cells from
those: ``certify(min)`` runs it 1,643 times. Each value it returns must be a
number by the rule of :mod:`capacities.subsets`, and so may not be an integer
past a double.

Score vectors and matrices are read by ``subsets._reals``, the arguments of
``symmetric_max`` and of a ``PseudoProduct`` call by ``set_function._number``.
A value table is read by ``set_function._values`` and a coefficient table by
``set_function._coefficients``, which names the class each form takes; the row
kernels take the bare tables. Every scalar integral, like the call of an
:class:`Extension`, returns a finite float or raises :class:`OutOfDomain`.

An :class:`Extension` is its exact row kernel ``fn``, from a (k, n) score
matrix to k values, and the one-vector call is ``fn`` on one row: ``choquet``
and ``sipos`` read the capacity at the upper sets A_(j) of each row's ranking
(O(n log n) per row), ``sugeno_product`` takes max_j t_(j) * nu(A_(j)) with nu
the max-closure of its ordinal coefficients, and the coefficient forms take
the dot product of each row's table over all subsets with the coefficients,
one ``np.vecdot`` per block. ``Extension.many`` may run a faster ``batch``,
equal up to rounding: ``cpt`` as choquet(mu_gains, t+) minus
choquet(mu_losses, t-), ``mle`` and ``smle`` as one matrix product over the
low and high halves of the criteria. Scalar ``sugeno_product``,
``sipos_closed_form`` and ``pseudo_product_extension`` stay as references.
"""

from __future__ import annotations

import functools
import math
import random
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
    _coefficients,
    _number,
    _tol,
    _values,
    mobius,
    ordinal_mobius,
    ordinal_zeta,
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

# A value that overflows is OutOfDomain, a certificate keeps NaN gaps: numpy need not warn.
_quiet = np.errstate(over="ignore", invalid="ignore")


def _scores(t, n: int, ndim: int = 1) -> np.ndarray:
    """``t`` as a finite float score vector of length n, or (k, n) matrix with ``ndim=2``."""
    want = "vector must have length %d" if ndim == 1 else "matrix must have shape (k, %d)"
    arr = subsets._reals(t, ("score " + want + " and hold only numbers") % n)
    if arr.ndim != ndim or arr.shape[-1] != n:
        raise DimensionMismatch(("score " + want + ", got shape %s") % (n, arr.shape))
    if not np.all(np.isfinite(arr)):
        raise OutOfDomain("scores must be finite")
    return arr


def _finite_value(name: str, value) -> float:
    """``value``, a value of ``name``, as a finite float, or :class:`OutOfDomain`."""
    value = float(value)
    if not math.isfinite(value):
        raise OutOfDomain("%s overflows at these scores (got %r)" % (name, value))
    return value


def _split(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.maximum(t, 0.0), np.maximum(-t, 0.0)


def _over_subsets(ufunc: np.ufunc, t: np.ndarray, empty: float) -> np.ndarray:
    """table[..., A] = ``ufunc`` folded over t[..., :] on A, criteria ascending, for
    every mask A (row by row for a matrix t); ``empty`` at the empty set."""
    out = np.full(t.shape[:-1] + (1 << t.shape[-1],), empty)
    for i in range(t.shape[-1]):
        ufunc(out[..., : 1 << i], t[..., i : i + 1], out=out[..., 1 << i : 2 << i])
    return out


def choquet(mu: Capacity, t) -> float:
    """Choquet integral of t against mu, valid for scores of any sign.

    Sorts t ascending (ties broken by criterion index) and accumulates
    t(1) * mu(N) + sum of (t(k) - t(k-1)) * mu({criteria ranked k..n}).
    """
    return _finite_value("choquet", _choquet_rows(_values(mu), _scores(t, mu.n)[None])[0])


def choquet_mobius(m: MobiusRepr, t) -> float:
    """Choquet integral in coefficient form: sum of m(A) * min of t over A."""
    return _finite_value("choquet_mobius", _mobius_rows(
        _coefficients(m, MobiusRepr), np.minimum, np.inf, _scores(t, m.n)[None])[0])


def sipos(mu: Capacity, t) -> float:
    """Symmetric integral: Choquet of the gains minus Choquet of the losses."""
    vals = _values(mu)
    return _finite_value("sipos", _split_choquet_rows(vals, vals, _scores(t, mu.n)[None])[0])


def sipos_closed_form(mu: Capacity, t) -> float:
    """Single-sort evaluation of :func:`sipos`.

    With t sorted ascending and p strictly negative entries, the negative
    block telescopes through the capacities of the leading subsets and the
    nonnegative block through the trailing ones.
    """
    vals = _values(mu)
    t = _scores(t, mu.n)
    n = mu.n
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
    return _finite_value("sipos_closed_form", acc)


def sipos_mobius(m: MobiusRepr, t) -> float:
    """Coefficient form of :func:`sipos`: sum of m(A) * (min t+ - min t-)."""
    return _finite_value("sipos_mobius", _mobius_rows(
        _coefficients(m, MobiusRepr), np.minimum, np.inf, _scores(t, m.n)[None], signed=True)[0])


def mle(m: MobiusRepr, t) -> float:
    """Multilinear extension: sum of m(A) * product of t over A.

    The natural domain is the unit cube; evaluation outside it is allowed
    (and is exactly what makes the extension misbehave there).
    """
    return _finite_value("mle", _mobius_rows(
        _coefficients(m, MobiusRepr), np.multiply, 1.0, _scores(t, m.n)[None])[0])


def smle(m: MobiusRepr, t) -> float:
    """Symmetric multilinear extension: products of t+ minus products of t-."""
    return _finite_value("smle", _mobius_rows(
        _coefficients(m, MobiusRepr), np.multiply, 1.0, _scores(t, m.n)[None], signed=True)[0])


def symmetric_max(a: float, b: float) -> float:
    """Largest absolute value wins, keeping its sign; exact opposites give 0.

    Associative only within a sign class, so folds must group positives and
    negatives first (see :func:`symmetric_max_fold`).
    """
    a, b = (_number(x, "a symmetric_max argument") for x in (a, b))
    if not math.isfinite(a) or not math.isfinite(b):
        raise OutOfDomain("values must be finite")
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
    arr = subsets._reals(values, "values must be an array of numbers")
    if arr.size and not np.all(np.isfinite(arr)):
        raise OutOfDomain("values must be finite")
    pos = arr[arr > 0.0]
    neg = arr[arr < 0.0]
    hi = float(pos.max()) if pos.size else 0.0
    lo = float(neg.min()) if neg.size else 0.0
    return symmetric_max(hi, lo)


def _sugeno_nonneg(coef: np.ndarray, t: np.ndarray) -> float:
    minv = _over_subsets(np.minimum, t, np.inf)
    return float(np.max(coef[1:] * minv[1:]))


@_quiet
def sugeno_product(m: OrdinalMobiusRepr, t) -> float:
    """Max over nonempty A of m(A) * min of t over A, for nonnegative t.

    Signed scores are handled symmetrically: the values for t+ and t- are
    combined with :func:`symmetric_max`.
    """
    coef = _coefficients(m, OrdinalMobiusRepr)
    t = _scores(t, m.n)
    if np.all(t >= 0.0):
        # a zero value is +0.0, as symmetric_max gives
        return _finite_value("sugeno_product", _sugeno_nonneg(coef, t) + 0.0)
    tp, tn = _split(t)
    return symmetric_max(_sugeno_nonneg(coef, tp), -_sugeno_nonneg(coef, tn))


def cpt(m_gains: MobiusRepr, m_losses: MobiusRepr, t) -> float:
    """Two-capacity form in coefficient space.

    Gains (t+) are integrated against the first coefficient set and losses
    (t-) against the second: sum of m1(A) min t+ minus sum of m2(A) min t-.
    """
    gains, losses = (_coefficients(m, MobiusRepr) for m in (m_gains, m_losses))
    if m_gains.n != m_losses.n:
        raise DimensionMismatch(
            "coefficient tables disagree on n: %d vs %d" % (m_gains.n, m_losses.n)
        )
    return _finite_value("cpt", _cpt_rows(gains, losses, _scores(t, m_gains.n)[None])[0])


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
    """Check mu_losses({i}) = mu_gains({i}) within ``tol`` (finite, >= 0) for every criterion.

    When this holds the two-capacity form behaves like the one-capacity
    symmetric integrals on vectors supported on a single sign.
    """
    tol = _tol(tol)
    gains, losses = _values(mu_gains), _values(mu_losses)
    if mu_gains.n != mu_losses.n:
        raise DimensionMismatch(
            "capacities disagree on n: %d vs %d" % (mu_gains.n, mu_losses.n)
        )
    bad = []
    for i in range(mu_gains.n):
        a, b = float(gains[1 << i]), float(losses[1 << i])
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

    @_quiet
    def __call__(self, a: float, b: float) -> float:
        x, y = (_number(v, "a pseudo-product argument") for v in (a, b))
        return _finite_value("op(%g, %g)" % (x, y), _op_values(self.op, [x], [y])[0])


_GRID_POINTS = 21

# Seeded off-grid triples (x, y, z); their (x, y) pairs are the off-grid pairs.
# They keep an operator that agrees with an associative one only on the grid
# from being certified. The stdlib generator spares the import of numpy.random.
_rng = random.Random(2008)
_OFF_GRID = [(_rng.random(), _rng.random(), _rng.random()) for _ in range(64)]
del _rng


def _op_values(op: Callable[[float, float], float], x, y, at=None) -> np.ndarray:
    """``op`` at each pair of ``x`` and ``y`` broadcast together, as the object
    array of what it returns; :class:`InvalidFormat` names the first pair whose
    value is not a real number or is an integer too large for a double. With
    ``at``, a pair of index arrays into the 1-d ``x`` and ``y``, ``op`` runs once
    per pair of their outer product and the result is op(x[at[0]], y[at[1]]),
    gathered from those values: a float64 array when every value is a float.
    An ``op`` that is not callable raises :class:`InvalidFormat`."""
    if not callable(op):
        raise InvalidFormat("expected a callable operator, got %r" % type(op).__name__)
    call = np.frompyfunc(op, 2, 1)
    values = computed = call(x, y) if at is None else call.outer(x, y)
    floats = set(map(type, computed.flat)) == {float}  # a float needs no check
    if at is not None:
        if floats:
            return computed.astype(np.float64)[at]
        values, x, y = computed[at], x[at[0]], y[at[1]]
    if not floats:
        for k, v in enumerate(values.flat):
            try:
                _number(v, "")
            except InvalidFormat:
                a, b = (np.broadcast_to(arg, values.shape).flat[k] for arg in (x, y))
                raise InvalidFormat(
                    "op(%g, %g) = %s is not a real number" % (a, b, subsets._shown(v))
                ) from None
    return values


def _grid_table(op: Callable[[float, float], float]):
    """Uniform grid xs of _GRID_POINTS values on [0, 1], and op(xs[i], xs[j]), all real."""
    xs = np.linspace(0.0, 1.0, _GRID_POINTS)
    return xs, _op_values(op, xs[:, None], xs).astype(np.float64)


def _certificate(op, xs: np.ndarray, table: np.ndarray, tol: float) -> OperatorCertificate:
    """Worst commutativity and associativity gaps of ``op`` on its grid table
    and on the off-grid pairs and triples. A NaN gap is skipped, except a NaN
    commutativity gap on the grid, which leaves the operator uncertified."""
    x, y, z = np.array(_OFF_GRID).T
    xy, yx, yz = (_op_values(op, a, b).astype(np.float64) for a, b in ((x, y), (y, x), (y, z)))
    comm_gap = max(float(np.max(np.abs(table - table.T))),
                   float(np.fmax.reduce(np.abs(xy - yx), initial=0.0)))
    # |op(op(x, y), z) - op(x, op(y, z))| on the cube, at [i, j, k], and at the
    # off-grid triples, in the type op returns. The cube runs op once per distinct
    # table value, told apart by its bits (0.0 and -0.0, NaN payloads), and grid value.
    _, first, inverse = np.unique(table.view(np.uint64).ravel(), return_index=True,
                                  return_inverse=True)
    distinct, cells, grid = table.ravel()[first], inverse.reshape(table.shape), np.arange(xs.size)
    cube = (_op_values(op, distinct, xs, at=(cells[:, :, None], grid))
            - _op_values(op, xs, distinct, at=(grid[:, None, None], cells)))
    off_grid = _op_values(op, xy, z) - _op_values(op, x, yz)
    assoc_gap = max(float(np.fmax.reduce(np.abs(gaps).astype(np.float64), axis=None, initial=0.0))
                    for gaps in (cube, off_grid))
    return OperatorCertificate(
        commutative=comm_gap <= tol,
        associative=assoc_gap <= tol,
        grid_points=xs.shape[0],
        tol=tol,
        max_commutativity_gap=comm_gap,
        max_associativity_gap=assoc_gap,
    )


@_quiet
def certify(
    op: Callable[[float, float], float], name: str = "", tol: float = DEFAULT_TOL
) -> PseudoProduct:
    """Sample commutativity and associativity of ``op`` on a [0, 1] grid.

    Pairs come from a uniform grid of 21 values, triples from its cube,
    plus a fixed seeded set of off-grid pairs and triples. The certificate
    records the worst gaps; the operator counts as certified when both stay
    within ``tol``, which must be finite and >= 0. Both gaps are floats, and
    numpy reports no warning for what ``op`` returns.
    """
    tol = _tol(tol)
    cert = _certificate(op, *_grid_table(op), tol)
    return PseudoProduct(op=op, name=name, certificate=cert)


@_quiet
def pseudo_product_extension(m: MobiusRepr, op: PseudoProduct, t) -> float:
    """Mobius-form extension with ``op`` in place of the minimum, on [0, 1]^n.

    Each coalition contributes m(A) times the left fold of ``op`` over its
    scores in ascending criterion order (the certificate makes the order
    immaterial on the sampled points).
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
    coef = _coefficients(m, MobiusRepr)
    t = _scores(t, m.n)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise OutOfDomain("pseudo-product extensions are defined on [0, 1]^n only")
    folded = np.zeros(1 << m.n)
    for i, lo, hi in subsets.halves(folded):
        # Row 0 holds the masks whose highest member is criterion i + 1.
        hi[0, 0] = t[i]
        hi[0, 1:] = _op_values(op.op, lo[0, 1:], t[i])
    value = float(np.dot(coef[1:], folded[1:]))
    if not math.isfinite(value):  # as is the sum when a fold value is not finite
        raise OutOfDomain("the extension by operator %r is not finite at these scores (got %r)"
                          % (op.name or "<unnamed>", value))
    return value


# -- row and batch kernels: a (k, n) score matrix in, k values out ----------------


def _ranked(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row sorted ascending (ties by criterion index) and, in column j,
    the mask A_(j) of the criteria ranked j..n in that row."""
    order = np.argsort(t, axis=1, kind="stable")
    upper = np.bitwise_or.accumulate(np.left_shift(1, order)[:, ::-1], axis=1)[:, ::-1]
    return np.take_along_axis(t, order, axis=1), upper


@_quiet
def _choquet_rows(vals: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Column by column: np.cumsum along the short last axis loops row by row, slower.
    ts, upper = _ranked(t)
    v = vals[upper]
    acc = ts[:, 0] * v[:, 0]
    for j in range(1, t.shape[1]):
        acc += (ts[:, j] - ts[:, j - 1]) * v[:, j]
    return acc


def _split_choquet_rows(gains: np.ndarray, losses: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Choquet of t+ against the value table ``gains`` minus Choquet of t- against
    ``losses``: :func:`sipos` when the two are one, :func:`cpt` otherwise."""
    tp, tn = _split(t)
    return _choquet_rows(gains, tp) - _choquet_rows(losses, tn)


def _sugeno_upper(nu: np.ndarray, t: np.ndarray) -> np.ndarray:
    ts, upper = _ranked(t)
    return np.max(ts * nu[upper], axis=1)


@_quiet
def _sugeno_rows(nu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """:func:`sugeno_product` per row from the table nu = ordinal_zeta(ordinal_mobius(mu)).

    For nonnegative t, min of t over A is t_(j) with j the lowest rank in A,
    and A lies in A_(j), so the maximum over A of m(A) * min t is
    max_j t_(j) * nu(A_(j)); rounding is monotone, so the two agree exactly.
    """
    tp, tn = _split(t)
    a = _sugeno_upper(nu, tp)
    b = -_sugeno_upper(nu, tn)
    # symmetric_max, elementwise
    return np.where(np.abs(a) > np.abs(b), a, np.where(b == -a, 0.0, b))


_CHUNK = 1 << 18  # rows per matrix product times 2**(n - n // 2): 2 MiB temporaries


@_quiet
def _mle_rows(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sum over A of m(A) * product of t over A, for every row of t.

    With h = n // 2, a mask splits into its low h bits and its high n - h
    bits, and the sum is sum_high P_high * (P_low @ M.T) with M the
    coefficients as a (2**(n-h), 2**h) matrix. Each distinct row is
    evaluated once, so exact duplicates score alike whatever the BLAS
    kernel does at the edges of its tiles or chunks.
    """
    n = t.shape[1]
    h = n // 2
    mat = coef.reshape(1 << (n - h), 1 << h)
    keys = np.ascontiguousarray(t).view(np.dtype((np.void, 8 * n))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rows = t[first]
    out = np.empty(rows.shape[0])
    step = max(1, _CHUNK >> (n - h))
    for s in range(0, rows.shape[0], step):
        r = rows[s : s + step]
        low = _over_subsets(np.multiply, r[:, :h], 1.0) @ mat.T
        out[s : s + step] = np.sum(low * _over_subsets(np.multiply, r[:, h:], 1.0), axis=1)
    return out[inverse]


@_quiet
def _smle_rows(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    k = t.shape[0]
    both = _mle_rows(coef, np.concatenate(_split(t)))
    return both[:k] - both[k:]


@_quiet
def _mobius_rows(coef: np.ndarray, ufunc: np.ufunc, empty: float, t: np.ndarray, signed=False):
    """Per row of t, the dot product of the coefficients ``coef`` with the table of ``ufunc``
    folded over t on each subset, or with ``signed`` over t+ minus that over t-.
    ``np.vecdot`` runs the kernel of a one-row ``np.dot`` on every row, so a row
    of a block has the bits of the same row alone; a one-term dot (n = 1) is the
    product itself, as ``np.dot`` keeps its sign where ``vecdot`` turns -0.0 to +0.0."""
    coef = coef[1:]
    out = np.empty(t.shape[0])
    step = max(1, _CHUNK >> (t.shape[1] + 2))  # tables of 512 KiB
    for s in range(0, t.shape[0], step):
        r = t[s : s + step]
        if signed:
            tp, tn = _split(r)
            table = _over_subsets(ufunc, tp, empty)
            table -= _over_subsets(ufunc, tn, empty)
        else:
            table = _over_subsets(ufunc, r, empty)
        if coef.size == 1:
            out[s : s + step] = table[:, 1] * coef[0]
        else:
            out[s : s + step] = np.vecdot(table[:, 1:], coef)
    return out


@_quiet
def _cpt_rows(m1: np.ndarray, m2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """:func:`cpt` per row, in coefficient form."""
    tp, tn = _split(t)
    return _mobius_rows(m1, np.minimum, np.inf, tp) - _mobius_rows(m2, np.minimum, np.inf, tn)


EXTENSION_NAMES = ("choquet", "sipos", "mle", "smle", "sugeno_product", "cpt")


@dataclass(frozen=True)
class Extension:
    """A named aggregation function built from one or two capacities.

    ``domain`` tags where samplers may draw scores: "reals" for the
    sign-splitting integrals, "unit" for the multilinear ones (which are
    still evaluable anywhere, just not well behaved outside the cube).
    ``fn`` is the row kernel: it maps a finite (k, n) score matrix to k
    values, each exact for its row alone. A call runs it on one row;
    :meth:`_values` runs it on a whole matrix. ``batch`` is what
    :meth:`many` runs, equal to ``fn`` up to rounding; without it,
    :meth:`many` runs ``fn``. A call raises :class:`OutOfDomain` when the
    value is not finite.
    """

    name: str
    n: int
    domain: str
    fn: Callable[[np.ndarray], np.ndarray]
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, t) -> float:
        return _finite_value(self.name, self.fn(_scores(t, self.n)[None])[0])

    def many(self, t) -> np.ndarray:
        """Values at every row of a (k, n) score matrix, as a (k,) array.

        Raises :class:`DimensionMismatch` on a wrong shape and
        :class:`OutOfDomain` on non-finite scores or values.
        """
        t = _scores(t, self.n, ndim=2)
        values = (self.fn if self.batch is None else self.batch)(t)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise OutOfDomain(
                "%s overflows at the scores of row %d (got %r)"
                % (self.name, bad[0], float(values[bad[0]]))
            )
        return values

    def _values(self, t: np.ndarray) -> np.ndarray:
        """``fn`` at every row of a (k, n) matrix, NaN on the rows with a non-finite score."""
        finite = np.isfinite(t).all(axis=1)
        values = self.fn(np.where(finite[:, None], t, 0.0))
        values[~finite] = np.nan
        return values


def make_extension(
    name: str, mu: Capacity, mu_losses: Capacity | None = None
) -> Extension:
    """Bind an extension by name, precomputing the coefficients its two kernels need."""
    if name not in EXTENSION_NAMES:
        raise InvalidFormat(
            "unknown extension %r, expected one of %s" % (name, ", ".join(EXTENSION_NAMES))
        )
    if name != "cpt" and mu_losses is not None:
        raise CapacitiesError("only the cpt extension takes a second capacity")
    vals = _values(mu)
    losses = None if mu_losses is None else _values(mu_losses)
    n = mu.n
    domain = "reals"
    if name == "choquet":
        rows = batch = functools.partial(_choquet_rows, vals)
    elif name == "sipos":
        rows = batch = functools.partial(_split_choquet_rows, vals, vals)
    elif name in ("mle", "smle"):
        coef = mobius(mu).coefficients
        signed = name == "smle"
        rows = functools.partial(_mobius_rows, coef, np.multiply, 1.0, signed=signed)
        batch = functools.partial(_smle_rows if signed else _mle_rows, coef)
        domain = "unit"
    elif name == "sugeno_product":
        rows = batch = functools.partial(_sugeno_rows, ordinal_zeta(ordinal_mobius(mu)).values)
    elif losses is None:
        raise CapacitiesError("the cpt extension needs a second capacity for losses")
    elif mu_losses.n != n:
        raise DimensionMismatch("capacities disagree on n: %d vs %d" % (n, mu_losses.n))
    else:
        rows = functools.partial(_cpt_rows, mobius(mu).coefficients, mobius(mu_losses).coefficients)
        batch = functools.partial(_split_choquet_rows, vals, losses)
    return Extension(name, n, domain, rows, batch)
