"""Bitmask helpers for subsets of the criteria set N = {1, ..., n}.

Subsets are encoded as Python ints: bit i-1 set means criterion i belongs
to the subset, so masks run from 0 (empty set) to 2**n - 1 (all of N).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidFormat

MAX_CRITERIA = 24


def check_n(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidFormat("criteria count n must be an integer, got %r" % (n,))
    if not 1 <= n <= MAX_CRITERIA:
        raise InvalidFormat("criteria count n must be in 1..%d, got %r" % (MAX_CRITERIA, n))
    return n


def full_mask(n: int) -> int:
    return (1 << n) - 1


def member_count(mask: int) -> int:
    return mask.bit_count()


def members(mask: int) -> tuple[int, ...]:
    """1-based criterion indices contained in ``mask``, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mask_of(indices, n: int) -> int:
    """Mask for an iterable of 1-based criterion indices."""
    mask = 0
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= n:
            raise InvalidFormat("criterion index %r out of range 1..%d" % (i, n))
        mask |= 1 << (i - 1)
    return mask


def subset_key(mask: int) -> str:
    """Canonical string key: ascending 1-based indices joined by commas.

    The empty set maps to the empty string.
    """
    return ",".join(str(i) for i in members(mask))


def parse_subset_key(key: str, n: int) -> int:
    if key == "":
        return 0
    mask = 0
    prev = 0
    for part in key.split(","):
        try:
            i = int(part)
        except ValueError:
            raise InvalidFormat("bad subset key %r: %r is not an index" % (key, part)) from None
        if not 1 <= i <= n:
            raise InvalidFormat("bad subset key %r: index %d out of range 1..%d" % (key, i, n))
        if i <= prev:
            raise InvalidFormat("bad subset key %r: indices must be strictly ascending" % key)
        prev = i
        mask |= 1 << (i - 1)
    return mask


def popcounts(n: int) -> np.ndarray:
    """uint8 vector of |A| for every mask A in 0..2**n - 1.

    Built by doubling, |A | bit i| = |A| + 1 for every A below bit i, so no
    table wider than the uint8 result is allocated.
    """
    out = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        np.add(out[: 1 << i], 1, out=out[1 << i : 2 << i])
    return out


def halves(a: np.ndarray, bits: int | None = None):
    """Yield ``(i, lo, hi)`` for each bit i of a bitmask-indexed table ``a``.

    ``lo`` and ``hi`` are views of ``a`` that pair every mask A without bit
    i with A | bit i, element by element. Bits run in ascending order, only
    over the set bits of ``bits`` when it is given. In-place updates of
    ``hi`` from ``lo`` are the O(n * 2**n) subset-lattice butterflies.
    """
    for i in range(a.shape[0].bit_length() - 1):
        if bits is None or bits >> i & 1:
            blocks = a.reshape(-1, 2 << i)
            yield i, blocks[:, : 1 << i], blocks[:, 1 << i :]
