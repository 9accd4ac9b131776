"""Interaction indices and Shapley values of a capacity.

The interaction index I(A) of a coalition averages the |A|-fold
alternating differences of the capacity, or in Mobius coefficients m,
I(A) = sum over B >= A of m(B) / (|B - A| + 1) (Grabisch, Marichal and
Roubens 2000). Singletons give the Shapley value (these sum to mu(N) = 1);
pairs are positive when criteria are complementary, negative when they
are redundant, and zero when they act additively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import subsets
from .errors import EmptyCoalition, InvalidFormat, OutOfDomain
from .set_function import DEFAULT_TOL, Capacity, _mobius_table, _number, _tol, _values

__all__ = [
    "interaction_index",
    "shapley",
    "classify",
    "InteractionReport",
    "interaction_report",
]


def interaction_index(mu: Capacity, coalition) -> float:
    """Interaction index I(A) of a nonempty coalition: a comma key such as "1,3",
    a mask int or an iterable of 1-based indices (see :func:`subsets.mask_of`).

    On the table as a (2,) * n array, where criterion i is axis n - i, one
    difference along each member's axis, in ascending order, leaves at every
    superset M of A, in mask order, the alternating difference over K inside
    A of mu((M - A) | K). With B = M - A, they are averaged with the exact
    factorial weights (n - |B| - |A|)! |B|! / (n - |A| + 1)!: each term is
    weighted in place, and the terms, one flat array in mask order, are added
    by numpy's pairwise sum, whose order depends neither on the CPU's kernels
    nor on a thread count, as a BLAS dot's does. A result that is
    not finite, where the table's differences overflow, raises
    :class:`InvalidFormat` naming the coalition.
    """
    d = _values(mu)  # refuse what is not a value table before reading its n
    n = mu.n
    amask = subsets.mask_of(coalition, n)
    if amask == 0:
        raise EmptyCoalition("the interaction index needs a nonempty coalition")
    d, k = d.reshape((2,) * n), n - amask.bit_count()  # k = |N - A|, the most |B| can be
    f = math.factorial
    weights = np.array([f(k - b) * f(b) / f(k + 1) for b in range(k + 1)])
    with np.errstate(over="ignore", invalid="ignore"):  # as in a lattice pass
        for i in subsets.members(amask):
            d = np.diff(d, axis=n - i)
        terms = weights[subsets.popcounts(k)]
        terms *= d.ravel()
        value = float(np.add.reduce(terms))  # inf - inf is NaN
    if not math.isfinite(value):
        _check_finite([amask], [value])
    return value


def _check_finite(masks, values) -> None:
    """Raise :class:`InvalidFormat` at the first of ``masks``, in their order,
    whose interaction index in ``values`` is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise InvalidFormat("the interaction index of {%s} is not finite, got %r"
                            % (subsets.subset_key(int(masks[i])), float(values[i])))


def _all_indices(mu: Capacity, max_order: int, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masks A of size 1..K = min(max(max_order, 2), n), ascending, and I(A) at
    each; ``sizes`` is :func:`subsets.popcounts` of n. For each order k, one
    superset pass over m(B) / max(|B| - k + 1, 1) leaves I(A) at every |A| = k.
    The passes share one scratch table, so the Mobius table is only read. The
    values that :func:`shapley` kept on ``mu`` are those of the order-1 pass,
    byte for byte, so where it has run, they fill the singletons and that
    pass is skipped."""
    top = min(max(max_order, 2), mu.n)
    masks = np.flatnonzero(sizes <= top)[1:]  # without the empty set
    at = sizes[masks]
    values = np.empty(masks.size)
    kept = vars(mu).get("_shapley")
    if kept is not None:
        values[at == 1] = kept  # the singletons, ascending, are bits 0..n-1
    m = _mobius_table(mu)
    t = np.empty_like(m)
    d = np.empty_like(sizes)
    for k in range(1 if kept is None else 2, top + 1):
        np.maximum(sizes, k, out=d)
        d -= k - 1  # max(|B|, k) - (k - 1) = max(|B| - k + 1, 1), exact in uint8
        np.divide(m, d, out=t)
        subsets.lattice(_up, t)
        here = at == k
        values[here] = t[masks[here]]
    return masks, values


def _up(lo, hi):
    np.add(lo, hi, out=lo, order="C")


def shapley(mu: Capacity) -> np.ndarray:
    """Shapley values phi_i = I({i}) = sum over B containing i of m(B) / |B|; they sum to mu(N).

    The order-1 pass of :func:`interaction_report`, with the bytes of its
    ``shapley``. It scales the table of a :func:`mobius` result of ``mu``
    that the caller still holds into a new table, else its own Mobius table
    in place, and holds that table alone through the pass. A finite Mobius
    table can still sum past the largest double: the first criterion whose
    value is not finite raises :class:`InvalidFormat` naming it. Every call
    runs its pass; once the values are checked, a read-only copy of them
    stays on ``mu``, where a later report on ``mu`` takes them for its
    singletons instead of running its own order-1 pass. A copy or a pickle
    of ``mu`` leaves them out."""
    m = _mobius_table(mu)
    sizes = subsets.popcounts(mu.n)
    t = np.divide(m, np.maximum(sizes, 1, out=sizes), out=m if m.flags.writeable else None)
    del sizes  # freed before the pass, so the table alone is held through it
    subsets.lattice(_up, t)
    bits = 1 << np.arange(mu.n)
    phi = t[bits]
    _check_finite(bits, phi)
    kept = phi.copy()  # the caller may write into phi
    kept.flags.writeable = False
    vars(mu)["_shapley"] = kept
    return phi


# A value's label, at (value > tol) + 2 * (value < -tol): the rule of classify.
_LABELS = ("non-interactive", "positive", "negative")


def classify(value: float, tol: float = DEFAULT_TOL) -> str:
    """Label a finite number positive or negative beyond ``tol`` (finite, >= 0), else neither."""
    tol = _tol(tol)
    value = _number(value, "the value to classify")
    if not math.isfinite(value):
        raise OutOfDomain("the value to classify must be finite, got %r" % value)
    return _LABELS[(value > tol) + 2 * (value < -tol)]


@dataclass(frozen=True, eq=False)
class InteractionReport:
    """Shapley vector, pair matrix, and per-coalition interaction values.

    ``pair_matrix`` holds I({i, j}) off the diagonal and the Shapley value
    on it. ``values`` and ``labels`` are keyed by coalition mask and cover
    every nonempty coalition of size up to ``max_order``.
    """

    n: int
    shapley: np.ndarray
    pair_matrix: np.ndarray
    values: dict
    labels: dict
    tol: float
    max_order: int

    def to_dict(self) -> dict:
        keyed_values = {}
        keyed_labels = {}
        for mask in sorted(self.values):
            key = subsets.subset_key(mask)
            keyed_values[key] = self.values[mask]
            keyed_labels[key] = self.labels[mask]
        return {
            "n": self.n,
            "shapley": [float(x) for x in self.shapley],
            "pair_matrix": [[float(x) for x in row] for row in self.pair_matrix],
            "values": keyed_values,
            "labels": keyed_labels,
            "tol": self.tol,
            "max_order": self.max_order,
        }


def interaction_report(
    mu: Capacity, max_order: int | None = None, tol: float = DEFAULT_TOL
) -> InteractionReport:
    """Compute interaction values for every coalition up to ``max_order``.

    Each order 1..max(``max_order``, 2) takes one superset pass of
    O(n * 2**n) work; the default reports up to pairs. ``tol`` is
    the half-width of the non-interactive band and must be finite and >= 0.
    The passes start from the table of a :func:`mobius` result of ``mu``
    that the caller still holds, which they read and never write, or else
    from a Mobius table of their own. After :func:`shapley` on ``mu``, the
    singletons are the values it kept, those of the order-1 pass byte for
    byte, and only orders 2 and up run a pass. Every index computed, the
    pairs of ``pair_matrix`` included when ``max_order`` is 1, must be
    finite: the first coalition in mask order whose index is not raises
    :class:`InvalidFormat` naming it.
    """
    _values(mu)  # refuse what is not a value table before reading its n
    n = mu.n
    if max_order is None:
        max_order = min(n, 2)
    if not subsets._is_int(max_order) or not 1 <= max_order <= n:
        raise InvalidFormat("max_order must be in 1..%d, got %s" % (n, subsets._shown(max_order)))
    tol = _tol(tol)
    sizes = subsets.popcounts(n)
    masks, table = _all_indices(mu, max_order, sizes)
    _check_finite(masks, table)
    shown = sizes[masks] <= max_order
    values = dict(zip(masks[shown].tolist(), table[shown].tolist()))
    kinds = (table[shown] > tol) + 2 * (table[shown] < -tol)
    labels = dict(zip(values, map(_LABELS.__getitem__, kinds.tolist())))
    bits = 1 << np.arange(n)
    pairs = np.searchsorted(masks, bits[:, None] | bits)  # singletons on the diagonal
    return InteractionReport(
        n=n,
        shapley=table[pairs.diagonal()],
        pair_matrix=table[pairs],
        values=values,
        labels=labels,
        tol=tol,
        max_order=int(max_order),
    )
