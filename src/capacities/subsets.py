"""Bitmask helpers for subsets of the criteria set N = {1, ..., n}, and the
number rule of the library boundary.

A number is a Python or numpy integer or float and not a bool (``_is_real``).
``_reals`` reads an array argument by that rule: numeric strings and bytes,
bools beside numbers, complex numbers, None, ragged rows and integers past a
double raise :class:`InvalidFormat`, and a float64 array is read without a
copy. Scalars are read by ``set_function._number``, which asks ``_is_real``.

Subsets are encoded as Python ints: bit i-1 set means criterion i belongs
to the subset, so masks run from 0 (empty set) to 2**n - 1 (all of N).

Two passes walk the subset lattice of a table indexed by mask. ``lattice``
calls an elementwise op on each bit's pairs, every mask A without bit i
beside A | bit i, bits in ascending order, on views of a block, of its tiles
or of a chunk of the table; every table transform goes through it. It runs
with a ufunc buffer of ``BUFSIZE`` = 512 entries, and since the buffer size
sets the order in which a buffered reduction adds, ops in the pass are
elementwise or exact reductions such as max; sums run outside it. Ops pass
``order="C"`` to their ufunc, so that a tiled view is walked tile by tile.
``fold`` fills a table by mask, each entry a step folded over the scores of
its subset: the subset tables of the Mobius-form extensions and
``popcounts``, the fold of +1, are built by it alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

import numpy as np

from .errors import InvalidFormat

MAX_CRITERIA = 24


def check_n(n: int) -> int:
    if not _is_int(n):
        raise InvalidFormat("criteria count n must be an integer, got %s" % _shown(n))
    if not 1 <= n <= MAX_CRITERIA:
        raise InvalidFormat("criteria count n must be in 1..%d, got %s" % (MAX_CRITERIA, _shown(n)))
    return int(n)


def _shown(x) -> str:
    """``repr(x)`` for an error text. An int too long for Python to print as
    digits is shown by its bit length, and a container holding one by its type."""
    try:
        return repr(x)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        if isinstance(x, int):
            return "an integer of %d bits" % x.bit_length()
        return "a %s holding an integer too long to print" % type(x).__name__


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


def mask_of(subset, n: int) -> int:
    """Mask of a subset of N = {1, ..., n} given in one of three forms: a comma
    key such as "1,3" (read by :func:`parse_subset_key`), a mask int in
    0..2**n - 1, or an iterable of distinct 1-based indices. Python and numpy
    integers both count as ints; bools do not. Anything else, a repeated index
    included, raises :class:`InvalidFormat`."""
    if isinstance(subset, str):
        return parse_subset_key(subset, n)
    if _is_int(subset):
        if not 0 <= subset < 1 << n:
            raise InvalidFormat("subset mask %s out of range for n = %d" % (_shown(int(subset)), n))
        return int(subset)
    if not isinstance(subset, Iterable) or getattr(subset, "ndim", 1) == 0:  # a 0-d array
        raise InvalidFormat("a subset must be a comma key, a mask or indices, got %r" % (subset,))
    mask = 0
    for i in subset:
        if not _is_int(i) or not 1 <= i <= n:
            raise InvalidFormat("criterion index %s out of range 1..%d" % (_shown(i), n))
        bit = 1 << (int(i) - 1)
        if mask & bit:
            raise InvalidFormat("criterion index %s is repeated" % _shown(i))
        mask |= bit
    return mask


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


# Built once, so a call looks up no numpy type; Python's int and float come first.
_NUMBER_TYPES = (int, float, np.integer, np.floating)
# A list entry reads as its type, or as its dtype if a numpy scalar or 0-d array.
_BOOLS = frozenset((bool, np.dtype(bool)))


def _is_real(x) -> bool:
    return isinstance(x, _NUMBER_TYPES) and not isinstance(x, bool)


def _reals(x, error: str) -> np.ndarray:
    """``x`` as a float array, ``x`` itself if float64; :class:`InvalidFormat` with ``error``."""
    try:
        arr = np.asarray(x)
        kind = arr.dtype.kind
        if kind not in "iufO" or (kind == "O" and not all(map(_is_real, arr.flat))):
            raise TypeError
        if kind != "O" and isinstance(x, (list, tuple)):
            flat = itertools.chain.from_iterable(x) if arr.ndim == 2 else x
            if not _BOOLS.isdisjoint(getattr(e, "dtype", type(e)) for e in flat):
                raise TypeError
        return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):  # also ragged rows, huge integers
        raise InvalidFormat(error) from None


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
            if str(i) != part:  # as " 1", "+1", "01", "1_0" or a non-ASCII digit
                raise ValueError
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
    """uint8 vector of |A| for every mask A in 0..2**n - 1: the :func:`fold` of
    +1, so no table wider than the uint8 result is allocated."""
    return fold(np.add, np.ones(n, np.uint8), 0, np.empty(1 << n, np.uint8))


def fold(step, cols: np.ndarray, empty, table: np.ndarray) -> np.ndarray:
    """``table``, of shape (2**n,) or (2**n, w), filled by mask: table[A] is ``step``
    folded over the scores of the criteria in A, ascending, from ``empty``. ``cols``
    has one row per criterion: a score, or the scores of w score rows. The fold for
    criterion i is one call step(table[:2**i], cols[i], out=table[2**i:2**(i+1)])
    on disjoint slices, so numpy copies no operand; ``out`` goes by keyword, as
    numpy deprecates it as a third positional argument of np.minimum. ``step`` is
    a ufunc or a callable that writes all of ``out``."""
    table[0] = empty
    for i in range(cols.shape[0]):
        step(table[: 1 << i], cols[i], out=table[1 << i : 2 << i])
    return table


# The monotonicity scan of set_function, and the elementwise steps that follow
# a pass there, run over consecutive slices of at most SLICE entries: a scratch
# buffer of a slice stays in the L2 cache, where one of half or all of a large
# table is written out to memory and read back. Tables of up to SLICE entries
# are one slice. lattice runs a table block by block, a block being a slice, so
# each block runs all its bits while it is in the L2 cache, and the bits above
# a block GROUP at a time, over chunks of a slice, so each group reads the table
# from memory once. In a block of TILE entries or more, a bit i below GROUP runs
# tile by tile: its views hold the 2**i columns of each tile of TILE entries
# (32 KiB, in the L1 cache), as numpy walks rows of 2**i entries slowly.
SLICE = 1 << 16
TILE = 1 << 12
GROUP = 4
# lattice's ufunc buffer in entries, not numpy's 8192: numpy copies a 2-D
# strided operand through its buffer when the operand's rows are shorter than
# about half of it. Rows of 64 entries or fewer are copied at either size.
BUFSIZE = 512


def block_bits(n: int) -> int:
    """How many low bits :func:`lattice` runs block by block for a table of 2**n entries."""
    return min(n, SLICE.bit_length() - 1)


def lattice(op, *tables) -> list:
    """Call ``op(lo, hi, lo2, hi2, ...)`` for every bit of equal-length
    bitmask-indexed ``tables``, in ascending bit order; return, for each bit,
    the list of what those calls returned.

    Each ``(lo, hi)`` pairs every mask A without bit i with A | bit i, bits
    in ascending order, and an elementwise ``op`` gets the same results, bit
    for bit, as a loop over the whole table one bit at a time: every entry
    sees its bits in ascending order, and a call's views pair only masks of
    its own block or chunk. A pass over 2**n entries has two phases:

    * Block by block in ascending order, a block being 2**B consecutive
      masks, B = :func:`block_bits`, op is called once for each of the
      block's bits, on views of three dimensions. For a bit i below GROUP
      in a block of TILE entries or more, they are the views
      ``t.reshape(-1, TILE >> (i + 1), 2, 2**i).transpose(0, 2, 3, 1)[:, 0]``
      and ``[:, 1]`` of shape (tiles, 2**i, TILE >> (i + 1)), whose C order
      runs down the columns of one tile at a time; for any other bit, the
      same views with one row a tile, of shape (rows, 2**i, 1), which run in
      mask order.
    * The bits above a block run in groups of GROUP, the last group of the
      1 to GROUP bits left, chunk by chunk in ascending order: a chunk of a
      group of g bits from bit b is 2**g rows, 2**b masks apart, of
      SLICE / 2**g consecutive masks, and op is called once per chunk for
      each of the group's bits, on views of three dimensions.

    Sweeps of the whole table per pass: 1 up to n = 16, 2 at n = 17..20 and
    3 at n = 21..24, where a loop over the whole table makes n. A pass
    allocates no array. Overflow is not reported: callers check their
    results for finiteness. ``op`` runs with a ufunc buffer of BUFSIZE
    entries, so it may only make elementwise updates and exact reductions;
    numpy's buffer size is restored when the pass returns or raises. ``op``
    passes ``order="C"`` to its ufuncs: numpy's default K order walks a
    tiled view row by row, to the same results but 2 to 10 times slower.
    """
    n = tables[0].shape[0].bit_length() - 1
    top = block_bits(n)
    out = [[] for _ in range(n)]
    with np.errstate(over="ignore", invalid="ignore"):  # restores the buffer size too
        np.setbufsize(BUFSIZE)
        for b in range(0, 1 << n, 1 << top):
            _calls(op, [_block(t[b : b + (1 << top)]) for t in tables], out)
        for bit in range(top, n, GROUP):
            _calls(op, [_groups(t, bit) for t in tables], out)
    return out


def _block(a: np.ndarray):
    """Yield ``(i, lo, hi)`` for every bit i of the block ``a``, in ascending
    order, the views pairing each mask A of the block without bit i with
    A | bit i; a bit below GROUP of a block of TILE entries or more on tiles
    of TILE masks."""
    for i in range(a.shape[0].bit_length() - 1):
        rows = TILE >> (i + 1) if i < GROUP and a.shape[0] >= TILE else 1
        pairs = a.reshape(-1, rows, 2, 1 << i).transpose(0, 2, 3, 1)
        yield i, pairs[:, 0], pairs[:, 1]


def _groups(a: np.ndarray, b: int):
    """Yield ``(i, lo, hi)`` for the GROUP bits from b of the table ``a`` that it
    has, the views of bit i pairing each mask A of a chunk without bit i with
    A | bit i, chunk by chunk in ascending order of their first mask and,
    within a chunk, bit by bit in ascending order. A chunk of g bits is 2**g
    rows, 2**b masks apart, of SLICE >> g consecutive masks."""
    g = min(a.shape[0].bit_length() - 1 - b, GROUP)
    width = SLICE >> g
    for rows in a.reshape(-1, 1 << g, 1 << b):
        for c in range(0, 1 << b, width):
            chunk = rows[:, c : c + width]
            for j in range(g):
                pairs = chunk.reshape(-1, 2, 1 << j, width)
                yield b + j, pairs[:, 0], pairs[:, 1]


def _calls(op, pairs, out):
    """``op`` on the views that ``pairs``, one generator of ``(i, lo, hi)`` per
    table, yield in step; the results of bit i go to ``out[i]``."""
    first, *others = pairs
    for i, lo, hi in first:
        views = [lo, hi]
        for other in others:
            views += next(other)[1:]
        out[i].append(op(*views))
