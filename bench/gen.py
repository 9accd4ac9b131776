"""Seeded input generator for the benchmark.

Every input comes from ``rng(seed, *path)``, so one seed always gives the
same inputs and the program only ever sees the generated values. The
generator uses numpy alone; it never calls the package under test.

Capacity families, each a dense table indexed by bitmask with v(empty) = 0
and v(N) = 1:

* ``distorted``: a power of a positive additive measure. Strictly monotone
  and dense, so every Mobius coefficient is non-zero and ``ordinal_mobius``
  keeps every entry; the typical case for the transforms and integrals.
* ``belief``: a belief function from a few non-negative Mobius masses on
  random focal sets. Its Mobius transform is sparse and known exactly, which
  makes it its own oracle, and its interaction indices are sums of masses.
* ``running_max``: the running maximum of a few levels placed on focal
  sets. Most steps are flat, so ``ordinal_mobius`` drops most entries and
  the Mobius coefficients change sign.
* ``non_monotone``: a distorted table with one entry pushed below a subset
  of it. ``as_capacity`` must reject it with ``NotMonotone``; it keeps the
  error path of validation in the workload.

``positive=True`` puts a strictly positive weight on every singleton, as
``AggregationModel`` requires.
"""

from __future__ import annotations

import numpy as np

VALID_FAMILIES = ("distorted", "belief", "running_max")
FAMILIES = VALID_FAMILIES + ("non_monotone",)

LEVEL_NAMES = ("neutral", "good", "bad", "poor", "fair", "great")


def rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for one named stream of a seed; negative seeds are folded."""
    return np.random.default_rng([seed % (1 << 63), *path])


def _accumulate(a: np.ndarray, n: int, op) -> None:
    """In place: a[A] = op-fold of a over the subsets of A (bit by bit)."""
    for i in range(n):
        bit = 1 << i
        blocks = a.reshape(-1, 2 * bit)
        op(blocks[:, bit:], blocks[:, :bit], out=blocks[:, bit:])


def _random_focal(r: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` random coalitions with sizes spread over 2..n."""
    sizes = r.integers(2, n + 1, count)
    out = np.empty(count, dtype=np.int64)
    for k, size in enumerate(sizes):
        members = r.choice(n, size=int(size), replace=False)
        out[k] = int(np.bitwise_or.reduce(np.left_shift(1, members)))
    return out


def distorted(r: np.random.Generator, n: int, positive: bool = True) -> np.ndarray:
    w = r.uniform(0.2, 1.0, n)
    a = np.zeros(1 << n)
    a[1 << np.arange(n)] = w
    _accumulate(a, n, np.add)
    a /= a[-1]
    a **= r.uniform(0.6, 1.8)
    a[-1] = 1.0
    return a


def belief_masses(r: np.random.Generator, n: int, positive: bool = True) -> np.ndarray:
    """Non-negative Mobius masses on ``2n`` random focal sets and N, summing to 1."""
    a = np.zeros(1 << n)
    focal = _random_focal(r, n, 2 * n)
    np.add.at(a, focal, r.uniform(0.2, 1.0, focal.size))
    a[-1] += 0.3
    singles = 1 << np.arange(n)
    if positive:
        a[singles] += r.uniform(0.05, 0.2, n)
    else:
        a[singles[r.random(n) < 0.5]] += 0.1
    return a / a.sum()


def belief(r: np.random.Generator, n: int, positive: bool = True) -> np.ndarray:
    a = belief_masses(r, n, positive)
    _accumulate(a, n, np.add)
    return a


def running_max(r: np.random.Generator, n: int, positive: bool = True) -> np.ndarray:
    a = np.zeros(1 << n)
    focal = _random_focal(r, n, 3 * n)
    np.maximum.at(a, focal, r.uniform(0.1, 0.9, focal.size))
    singles = 1 << np.arange(n)
    if positive:
        a[singles] = r.uniform(0.01, 0.1, n)
    a[-1] = 1.0
    _accumulate(a, n, np.maximum)
    return a


def non_monotone(r: np.random.Generator, n: int, positive: bool = True) -> np.ndarray:
    a = distorted(r, n)
    members = r.choice(n, size=max(2, n // 2), replace=False)
    mask = int(np.bitwise_or.reduce(np.left_shift(1, members)))
    below = mask ^ (1 << int(members[0]))
    a[mask] = a[below] - r.uniform(0.01, 0.05)
    return a


_MAKERS = {
    "distorted": distorted,
    "belief": belief,
    "running_max": running_max,
    "non_monotone": non_monotone,
}


def capacity(family: str, seed: int, *path: int, n: int, positive: bool = True) -> np.ndarray:
    """Value table of one family member on ``n`` criteria."""
    return _MAKERS[family](rng(seed, *path), n, positive)


def scales(r: np.random.Generator, n: int) -> dict:
    """Custom utility scales keyed by criterion number, as in a model file.

    Besides the pinned neutral (0) and good (1) levels, each criterion gets
    levels below neutral, one between, and one above good.
    """
    out = {}
    for i in range(1, n + 1):
        out[str(i)] = {
            "neutral": 0,
            "good": 1,
            "bad": -round(float(r.uniform(0.5, 1.5)), 3),
            "poor": -round(float(r.uniform(0.05, 0.4)), 3),
            "fair": round(float(r.uniform(0.3, 0.7)), 3),
            "great": round(float(r.uniform(1.2, 2.0)), 3),
        }
    return out


def acts(r: np.random.Generator, n: int, count: int, dup_share: float = 0.15) -> list:
    """Acts file content: level names mixed with raw numbers, with duplicates.

    About ``dup_share`` of the acts repeat an earlier act exactly, so their
    scores tie and ``rank_acts`` has to form indifference chains. Half the
    acts use the object form with a label, half the bare array form.
    """
    out = []
    for k in range(count):
        if out and r.random() < dup_share:
            entries = list(_entries(out[int(r.integers(len(out)))]))
        else:
            entries = []
            for _ in range(n):
                if r.random() < 0.6:
                    entries.append(LEVEL_NAMES[int(r.integers(len(LEVEL_NAMES)))])
                else:
                    entries.append(round(float(r.uniform(-1.5, 2.5)), 3))
        out.append({"entries": entries, "label": "a%d" % k} if k % 2 else entries)
    return out


def _entries(act) -> list:
    return act["entries"] if isinstance(act, dict) else act


def utilities(act, scale: dict) -> np.ndarray:
    """Utility vector of one generated act under generated scales."""
    return np.array(
        [
            float(scale[str(i + 1)][e]) if isinstance(e, str) else float(e)
            for i, e in enumerate(_entries(act))
        ]
    )


def points(r: np.random.Generator, n: int, count: int, lo: float = -2.0, hi: float = 2.0) -> list:
    """Score vectors for ``compare`` and ``eval``, with a few exact ties inside."""
    pts = np.round(r.uniform(lo, hi, (count, n)), 4)
    pts[::3, 0] = pts[::3, -1]
    return pts.tolist()


def table_dict(values: np.ndarray, n: int) -> dict:
    """Capacity file content in the canonical dense form."""
    return {"n": n, "values_by_mask": [float(x) for x in values]}
