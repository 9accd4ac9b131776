"""Naive evaluators the benchmark checks the library against.

They share no code with the package: coalitions are enumerated through
mask arithmetic (``masks & bit``), never through the block-reshaped
butterflies the package uses, and the integrals are written in their
textbook Mobius or sort form. They run outside the timed region.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def close(got, expected, tol: float = TOL) -> bool:
    """|got - expected| <= tol * max(1, |expected|), elementwise, all true."""
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return bool(np.all(np.abs(got - expected) <= tol * np.maximum(1.0, np.abs(expected))))


def max_gap(a: np.ndarray, b: np.ndarray, chunk: int = 1 << 20) -> float:
    """max |a - b| over two long vectors, in chunks to keep memory flat."""
    worst = 0.0
    for lo in range(0, a.shape[0], chunk):
        worst = max(worst, float(np.max(np.abs(a[lo : lo + chunk] - b[lo : lo + chunk]))))
    return worst


def all_masks(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def popcount(masks: np.ndarray, n: int) -> np.ndarray:
    """|B| for every mask B in ``masks`` (all below 2**n)."""
    out = np.zeros(masks.shape[0], dtype=np.int64)
    for i in range(n):
        out += (masks >> i) & 1
    return out


def submasks(mask: int) -> np.ndarray:
    """Every subset of ``mask``, as an int64 array."""
    out = np.zeros(1, dtype=np.int64)
    bit = 1
    while bit <= mask:
        if mask & bit:
            out = np.concatenate([out, out | bit])
        bit <<= 1
    return out


def _parity(masks: np.ndarray) -> np.ndarray:
    """(-1)^|B| for every mask B."""
    ones = np.zeros(masks.shape[0], dtype=np.int64)
    m = masks.copy()
    while np.any(m):
        ones += m & 1
        m >>= 1
    return np.where(ones % 2 == 0, 1.0, -1.0)


# -- transforms at one coalition ------------------------------------------


def mobius_at(v: np.ndarray, mask: int) -> float:
    """m(A) = sum over B in A of (-1)^|A - B| v(B)."""
    sub = submasks(mask)
    return float(np.dot(_parity(mask ^ sub), v[sub]))


def comobius_at(v: np.ndarray, n: int, mask: int) -> float:
    """sum over B in A of (-1)^|B| v(N - B)."""
    sub = submasks(mask)
    return float(np.dot(_parity(sub), v[((1 << n) - 1) ^ sub]))


def ordinal_at(v: np.ndarray, mask: int) -> float:
    """v(A) when removing any member strictly lowers it, else 0."""
    if mask == 0:
        return 0.0
    bit = 1
    while bit <= mask:
        if mask & bit and not v[mask] > v[mask ^ bit]:
            return 0.0
        bit <<= 1
    return float(v[mask])


def conjugate(v: np.ndarray) -> np.ndarray:
    """v(N) - v(N - A) for every A (the complement of A is the reversed index)."""
    return v[-1] - v[::-1]


# -- whole tables -----------------------------------------------------------


def mobius(v: np.ndarray, n: int) -> np.ndarray:
    """Mobius coefficients of a whole table, by gathers on ``masks ^ bit``."""
    a = np.array(v, dtype=np.float64)
    masks = all_masks(n)
    for i in range(n):
        bit = 1 << i
        upper = masks[(masks & bit) != 0]
        a[upper] -= a[upper ^ bit]
    return a


def interaction_at(m: np.ndarray, n: int, mask: int) -> float:
    """I(A) = sum over B containing A of m(B) / (|B - A| + 1)."""
    rest = submasks(((1 << n) - 1) ^ mask)
    extra = popcount(rest, n)
    return float(np.sum(m[rest | mask] / (extra + 1)))


def shapley(m: np.ndarray, n: int) -> np.ndarray:
    masks = all_masks(n)
    card = popcount(masks, n)
    card[0] = 1
    share = m / card
    return np.array([share[(masks >> i) & 1 == 1].sum() for i in range(n)])


# -- integrals at one point -------------------------------------------------


def _fold_over_subsets(t: np.ndarray, op, empty: float) -> np.ndarray:
    """table[A] = op-fold of t over the members of A."""
    n = t.shape[0]
    masks = all_masks(n)
    out = np.full(1 << n, empty)
    for i in range(n):
        inside = (masks >> i) & 1 == 1
        out[inside] = op(out[inside], t[i])
    return out


def min_table(t: np.ndarray) -> np.ndarray:
    return _fold_over_subsets(t, np.minimum, np.inf)


def prod_table(t: np.ndarray) -> np.ndarray:
    return _fold_over_subsets(t, np.multiply, 1.0)


def choquet_mobius(m: np.ndarray, t: np.ndarray) -> float:
    return float(np.dot(m[1:], min_table(t)[1:]))


def choquet_sorted(v: np.ndarray, t: np.ndarray) -> float:
    """Sort form: sum over k of (t_(k) - t_(k+1)) v(top k criteria), descending t."""
    order = np.argsort(-t, kind="stable")
    acc = 0.0
    mask = 0
    for k, i in enumerate(order):
        mask |= 1 << int(i)
        nxt = float(t[order[k + 1]]) if k + 1 < len(order) else 0.0
        acc += (float(t[i]) - nxt) * float(v[mask])
    return acc


def _split(t: np.ndarray):
    return np.maximum(t, 0.0), np.maximum(-t, 0.0)


def sipos_mobius(m: np.ndarray, t: np.ndarray) -> float:
    tp, tn = _split(t)
    return float(np.dot(m[1:], min_table(tp)[1:] - min_table(tn)[1:]))


def mle(m: np.ndarray, t: np.ndarray) -> float:
    return float(np.dot(m[1:], prod_table(t)[1:]))


def smle(m: np.ndarray, t: np.ndarray) -> float:
    tp, tn = _split(t)
    return float(np.dot(m[1:], prod_table(tp)[1:] - prod_table(tn)[1:]))


def _max_min(v: np.ndarray, t: np.ndarray) -> float:
    return float(np.max(v[1:] * min_table(t)[1:]))


def sugeno_product(v: np.ndarray, t: np.ndarray) -> float:
    """max over A of v(A) * min of t over A, split by sign and joined by the
    symmetric maximum (the larger magnitude wins; exact opposites give 0)."""
    tp, tn = _split(t)
    a, b = _max_min(v, tp), -_max_min(v, tn)
    if abs(a) > abs(b):
        return a
    return 0.0 if b == -a else b


def cpt(v_gains: np.ndarray, v_losses: np.ndarray, t: np.ndarray) -> float:
    tp, tn = _split(t)
    return choquet_sorted(v_gains, tp) - choquet_sorted(v_losses, tn)


def lukasiewicz_form(m: np.ndarray, t: np.ndarray) -> float:
    """Mobius form with the Lukasiewicz t-norm max(0, sum t - (|A| - 1))."""
    n = t.shape[0]
    card = popcount(all_masks(n), n)
    sums = _fold_over_subsets(t, np.add, 0.0)
    return float(np.dot(m[1:], np.maximum(0.0, sums - (card - 1))[1:]))


class Reference:
    """The oracle's own view of one capacity: values, Mobius, loss side."""

    def __init__(self, values: np.ndarray, n: int, losses: np.ndarray | None = None):
        self.n = n
        self.v = np.asarray(values, dtype=np.float64)
        self.m = mobius(self.v, n)
        self.losses = None if losses is None else np.asarray(losses, dtype=np.float64)

    def extension(self, name: str, t) -> float:
        t = np.asarray(t, dtype=np.float64)
        if name == "choquet":
            return choquet_mobius(self.m, t)
        if name == "sipos":
            return sipos_mobius(self.m, t)
        if name == "mle":
            return mle(self.m, t)
        if name == "smle":
            return smle(self.m, t)
        if name == "sugeno_product":
            return sugeno_product(self.v, t)
        if name == "cpt":
            return cpt(self.v, self.losses, t)
        raise ValueError(name)


def ranking(scores, tol: float = TOL) -> list:
    """(index, indifferent_to_previous) in rank order for given scores.

    Descending score; adjacent scores within ``tol`` chain into one
    indifference class, which keeps input order and flags all but its first.
    """
    order = sorted(range(len(scores)), key=lambda k: (-scores[k], k))
    groups = []
    for k in order:
        if groups and scores[groups[-1][-1]] - scores[k] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    out = []
    for g in groups:
        out.extend((k, j > 0) for j, k in enumerate(sorted(g)))
    return out

