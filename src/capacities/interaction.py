"""Interaction indices and Shapley values of a capacity.

The interaction index of a coalition A averages, over the subsets B
disjoint from A, the A-fold alternating difference of the capacity at B,
with the usual permutation weights. Singletons give the Shapley value
(these sum to mu(N) = 1); pairs are positive when criteria are
complementary, negative when they are redundant, and zero when they act
additively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import subsets
from .errors import EmptyCoalition, InvalidFormat
from .set_function import DEFAULT_TOL, Capacity

__all__ = [
    "interaction_index",
    "shapley",
    "classify",
    "InteractionReport",
    "interaction_report",
]


def _coalition_mask(coalition, n: int) -> int:
    if isinstance(coalition, int) and not isinstance(coalition, bool):
        if not 0 <= coalition < (1 << n):
            raise InvalidFormat("coalition mask %d out of range for n = %d" % (coalition, n))
        mask = coalition
    else:
        mask = subsets.mask_of(coalition, n)
    if mask == 0:
        raise EmptyCoalition("the interaction index needs a nonempty coalition")
    return mask


def interaction_index(mu: Capacity, coalition) -> float:
    """Interaction index I(A) of a coalition (mask or iterable of indices).

    Runs one restricted Mobius butterfly over the bits of A, leaving at
    every superset M of A the alternating difference over K inside A of
    mu((M - A) | K); those are then averaged with exact factorial weights
    (n - |B| - |A|)! |B|! / (n - |A| + 1)! where B = M - A.
    """
    n = mu.n
    amask = _coalition_mask(coalition, n)
    a = subsets.member_count(amask)
    vals = mu.values.copy()
    for _, lo, hi in subsets.halves(vals, amask):
        hi -= lo
    masks = np.arange(1 << n)
    sel = (masks & amask) == amask
    b_sizes = subsets.popcounts(n)[sel] - a
    den = math.factorial(n - a + 1)
    weights = np.array(
        [math.factorial(n - b - a) * math.factorial(b) / den for b in range(n - a + 1)]
    )
    return float(np.dot(weights[b_sizes], vals[sel]))


def shapley(mu: Capacity) -> np.ndarray:
    """Shapley values phi_i = I({i}) for every criterion; they sum to mu(N)."""
    return np.array([interaction_index(mu, 1 << i) for i in range(mu.n)])


def classify(value: float, tol: float = DEFAULT_TOL) -> str:
    """Label an index value as positive, negative, or non-interactive."""
    if value > tol:
        return "positive"
    if value < -tol:
        return "negative"
    return "non-interactive"


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

    Each coalition costs one pass over the full table, so order k adds
    C(n, k) passes; the default stops at pairs.
    """
    n = mu.n
    if max_order is None:
        max_order = min(n, 2)
    if not 1 <= max_order <= n:
        raise InvalidFormat("max_order must be in 1..%d, got %r" % (n, max_order))
    values = {}
    pc = subsets.popcounts(n)
    for mask in range(1, 1 << n):
        if pc[mask] <= max_order:
            values[int(mask)] = interaction_index(mu, int(mask))
    phi = np.array([values[1 << i] for i in range(n)])
    pairs = np.diag(phi)
    for i in range(n):
        for j in range(i + 1, n):
            mask = (1 << i) | (1 << j)
            val = values.get(mask)
            if val is None:
                val = interaction_index(mu, mask)
            pairs[i, j] = pairs[j, i] = val
    labels = {mask: classify(val, tol) for mask, val in values.items()}
    return InteractionReport(
        n=n,
        shapley=phi,
        pair_matrix=pairs,
        values=values,
        labels=labels,
        tol=tol,
        max_order=max_order,
    )
