"""Set functions, capacities, and the Mobius-family transforms.

A set function assigns a real value to every subset of the criteria set
N = {1, ..., n} and is stored densely as a float vector of length 2**n
indexed by bitmask (see :mod:`capacities.subsets`). A capacity is a
validated set function: normalized (mu(empty) = 0, mu(N) = 1) and
monotone with respect to set inclusion.

Three coefficient-domain representations are provided, each with its
transform from the value domain:

* ``mobius``: the alternating-sum transform whose inverse ``zeta``
  accumulates coefficients over subsets, so v(A) = sum of m(B) for B
  inside A.
* ``co_mobius``: the complement-based variant, summing v(N - B) with
  alternating signs over B inside A.
* ``ordinal_mobius``: the max-based variant for capacities, keeping
  mu(A) where A is a strict local maximizer and 0 elsewhere, so mu(A)
  is the maximum of the kept coefficients inside A.

All transforms run in O(n * 2**n) as in-place butterflies through
:func:`capacities.subsets.lattice`, whose results are those of the plain
per-bit loop, bit for bit. n is capped at 24 to keep the dense tables
reasonable. Overflow inside a pass is not reported as a numpy warning: an
output that is not finite raises :class:`InvalidFormat`.

Memory: a table holds 8 * 2**n bytes (128 MiB at n = 24). Each transform
allocates its output and no other array of that size. A lattice pass
allocates no array, and the finiteness check of the output reads it slice
by slice through one bool buffer of :data:`subsets.SLICE` entries (64 KiB).
The ordinal transforms run no such check, since their entries are those of
a finite table, 0.0, or maxima of finite coefficients. :func:`ordinal_mobius`
keeps or zeroes each entry after its pass through such a buffer too; on a
strictly monotone :class:`Capacity` it copies the table and runs neither.
The monotonicity scan of the capacity constructors and
:func:`validate` finds each bit's largest drop v(A) - v(A | bit) through one
float buffer of at most a slice (512 KiB), which holds what each call of its
lattice pass compares. The conjugate of a capacity, which inherits its
invariants, is not scanned. Where a bit i's largest drop exceeds tol, a
search names the first offending pair. It takes the table as rows of 2**i
masks without bit i, each beside the 2**i masks with it, from the first
block whose call drops on a bit that the pass runs block by block, one call
a block, or from mask 0 on a bit above. It walks them in mask order, in
pieces of SLICE >> i rows, or of at most a slice of one longer row,
through the same float buffer and a bool buffer of a piece, and stops
at the first piece that drops by more than tol. :func:`validate` reads strict
monotonicity off the same drops and builds one Mobius table. The Shapley
values and interaction reports of :mod:`capacities.interaction` start from
one writable Mobius table, checked as :func:`mobius` checks its output.
``shapley`` scales it in place with one byte per subset, freed before its
order-1 pass, and a report uses one scratch table and two bytes per subset.
While the caller holds the result of ``mobius(v)``, they read its read-only
table instead, found through the weak reference that ``mobius`` leaves on
``v``, which keeps no table alive and which a copy or a pickle of ``v``
leaves out: ``shapley`` scales it into a new table, and a report runs every
order in its scratch table. ``shapley`` also leaves on ``v`` a read-only
copy of its n values, which a copy or a pickle of ``v`` leaves out too; a
later report on ``v`` takes them for its singletons and runs no order-1
pass. A :class:`Capacity` that validation built keeps the largest drop its
scan found, one float, which its copies, pickles and conjugate leave out.
It alone tells ``ordinal_mobius`` that the table is monotone: where the drop
is below 0, every nonempty subset is a strict step, so it returns a copy of
the table with no pass. Where the drop is at most 0 and v(empty) is +0.0,
``ordinal_mobius(v)`` leaves on its result a weak reference to ``v``, which
a copy or a pickle of the result leaves out; while ``v`` lives,
``ordinal_zeta`` of that result returns v's table plus 0.0 and runs no pass,
since those are the bytes of its max-closure. Neither result is scanned
again. Public constructors copy the arrays they are given; tables the
package has just built are wrapped without a copy.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import subsets
from .errors import (
    DimensionMismatch,
    InvalidFormat,
    NonPositiveSingleton,
    NotMonotone,
    NotNormalized,
)

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "SetFunction",
    "Capacity",
    "MobiusRepr",
    "CoMobiusRepr",
    "OrdinalMobiusRepr",
    "ValidationResult",
    "mobius",
    "zeta",
    "co_mobius",
    "ordinal_mobius",
    "ordinal_zeta",
    "conjugate",
    "validate",
    "as_capacity",
    "to_dict",
    "vector_from_dict",
    "set_function_from_dict",
    "capacity_from_dict",
]


def _coerce_vector(n: int, values, what: str) -> np.ndarray:
    """A read-only copy of a caller's vector of numbers of length 2**n."""
    arr = np.array(subsets._reals(values, "%s must be a vector of numbers" % what))
    if arr.ndim != 1:
        raise DimensionMismatch("%s must be a flat vector, got shape %s" % (what, arr.shape))
    if arr.shape[0] != (1 << n):
        raise DimensionMismatch(
            "%s must have length 2**%d = %d, got %d" % (what, n, 1 << n, arr.shape[0])
        )
    return _finite(arr, what)


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` itself, made read-only once it is known to hold only finite numbers."""
    if not _all_finite(arr):
        raise InvalidFormat("%s must contain only finite numbers" % what)
    arr.flags.writeable = False
    return arr


def _all_finite(arr: np.ndarray) -> bool:
    """Whether the flat table ``arr`` holds only finite numbers, read slice by
    slice through one bool buffer."""
    buf = np.empty(min(arr.shape[0], subsets.SLICE), dtype=bool)
    return all(np.isfinite(s, out=buf[: s.shape[0]]).all() for (s,) in _slices(arr))


def _slices(*tables):
    """Consecutive slices of at most :data:`subsets.SLICE` entries of equal-length
    flat tables, one list per slice, in ascending mask order."""
    for start in range(0, tables[0].shape[0], subsets.SLICE):
        yield [t[start : start + subsets.SLICE] for t in tables]


@dataclass(frozen=True, eq=False)
class SetFunction:
    """Real-valued function on subsets of N with v(empty) = 0.

    Also the base of every dense table type: ``values`` is a read-only
    float vector of length 2**n indexed by bitmask. :class:`Capacity`
    validates in its constructor; the coefficient tables differ only in
    the invariant their ``_check`` enforces.
    """

    n: int
    values: np.ndarray

    _what = "values"

    def __post_init__(self):
        n = subsets.check_n(self.n)
        arr = _coerce_vector(n, self.values, self._what)
        self._check(arr)
        vars(self).update(n=n, values=arr)

    @classmethod
    def _own(cls, n: int, arr: np.ndarray, checked: bool = False):
        """Wrap ``arr``, a float table of length 2**n that the package has just
        built and nothing else holds, without copying it; unless ``checked``,
        where the caller has proved it finite and of this type, check it first."""
        if not checked:
            cls._check(_finite(arr, cls._what))
        arr.flags.writeable = False
        table = object.__new__(cls)
        vars(table).update(n=n, values=arr)
        return table

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if arr[0] != 0.0:
            raise NotNormalized("v(empty) must be exactly 0, got %.17g" % arr[0])

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __getitem__(self, mask: int) -> float:
        """v(A) at the mask A, a Python or numpy int (not a bool) in 0..2**n - 1."""
        if subsets._is_int(mask) and 0 <= mask < len(self.values):
            return float(self.values[mask])
        shown = subsets._shown(int(mask) if subsets._is_int(mask) else mask)
        raise InvalidFormat("subset mask %s out of range for n = %d" % (shown, self.n))

    __iter__ = None  # a table is indexed by mask, not walked as a sequence

    def __getstate__(self):
        """A copy or a pickle carries no live Mobius table, no kept Shapley values, no
        value table that :func:`ordinal_zeta` would return and no largest drop."""
        facts = ("_mobius", "_shapley", "_zeta", "_largest_drop")
        return {k: x for k, x in vars(self).items() if k not in facts}


@dataclass(frozen=True, eq=False, init=False)
class Capacity(SetFunction):
    """Normalized monotone set function.

    Construction validates the invariants of the set function ``sf`` and
    raises the matching error (:class:`NotNormalized`, :class:`NotMonotone`,
    or, when ``strictly_positive_singletons`` is set,
    :class:`NonPositiveSingleton`); the capacity shares its read-only table.
    ``tol`` is the absolute slack allowed on normalization and
    monotonicity; it is not stored.

    A capacity built here or by :func:`as_capacity`, :func:`validate` or
    :func:`capacity_from_dict` keeps the largest drop v(A) - v(A | i) that its
    monotonicity scan found, which :func:`ordinal_mobius` reads; a copy, a
    pickle or a :func:`conjugate` keeps none.
    """

    strictly_positive_singletons: bool = False

    def __init__(
        self,
        sf: SetFunction,
        strictly_positive_singletons: bool = False,
        tol: float = DEFAULT_TOL,
    ):
        positive = _flag(strictly_positive_singletons, "strictly_positive_singletons")
        cap = _checked_capacity(_values(sf), sf.n, tol, positive)
        vars(self).update(vars(cap))


def _wrapped_capacity(n: int, values: np.ndarray, positive: bool, drops: np.ndarray) -> Capacity:
    """Wrap a table that satisfies the capacity constraints, without a copy, with
    the largest of its ``drops`` (see :func:`_drops`)."""
    cap = object.__new__(Capacity)
    vars(cap).update(n=n, values=values, strictly_positive_singletons=positive,
                     _largest_drop=float(drops.max()))
    return cap


class _Coefficients(SetFunction):
    """Coefficient-domain table; ``coefficients`` names its ``values``."""

    _what = "coefficients"

    @property
    def coefficients(self) -> np.ndarray:
        return self.values


class MobiusRepr(_Coefficients):
    """Coefficients of the alternating-sum transform; zeta inverts them."""

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if arr[0] != 0.0:
            raise NotNormalized("m(empty) must be exactly 0, got %.17g" % arr[0])


class CoMobiusRepr(_Coefficients):
    """Coefficients of the complement-based transform.

    Unlike the plain Mobius coefficients these need not vanish on the
    empty set: the coefficient at empty equals v(N).
    """

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        pass


class OrdinalMobiusRepr(_Coefficients):
    """Nonnegative coefficients of the max-based transform of a capacity."""

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if arr[0] != 0.0:
            raise NotNormalized("coefficient at empty must be exactly 0, got %.17g" % arr[0])
        if arr.min() < 0.0:
            bad = int(np.argmax(arr < 0.0))
            raise InvalidFormat(
                "ordinal coefficients must be nonnegative, got %.17g at {%s}"
                % (arr[bad], subsets.subset_key(bad))
            )


def _values(v: SetFunction) -> np.ndarray:
    """Value table of a set function; anything else, coefficient tables included,
    raises :class:`InvalidFormat`."""
    if not isinstance(v, SetFunction) or isinstance(v, _Coefficients):
        raise InvalidFormat("expected SetFunction or Capacity, got %r" % type(v).__name__)
    return v.values


def _coefficients(m: _Coefficients, cls: type) -> np.ndarray:
    """Coefficient table of ``m``, which must be a ``cls`` (a coefficient class);
    anything else, another coefficient class or a value table included, raises
    :class:`InvalidFormat`."""
    if not isinstance(m, cls):
        raise InvalidFormat("expected %s, got %r" % (cls.__name__, type(m).__name__))
    return m.values


def _subtract(lo, hi):
    np.subtract(hi, lo, out=hi, order="C")


def _add(lo, hi):
    np.add(hi, lo, out=hi, order="C")


def _maximum(lo, hi):
    np.maximum(hi, lo, out=hi, order="C")


def _live(v: SetFunction, key: str = "_mobius") -> SetFunction | None:
    """The live table that ``v`` refers to weakly under ``key``, else None: by
    default the result of ``mobius(v)``."""
    ref = vars(v).get(key)
    return None if ref is None else ref()


def mobius(v: SetFunction) -> MobiusRepr:
    """Alternating-sum coefficients m(A) = sum over B in A of (-1)^|A-B| v(B).

    While the caller holds the result, :func:`capacities.interaction.shapley`
    and :func:`capacities.interaction.interaction_report` on ``v`` read its
    table, which they never write, instead of building their own."""
    a = _mobius_pass(_values(v))
    m = MobiusRepr._own(v.n, a)
    if _live(v) is None:
        vars(v)["_mobius"] = weakref.ref(m)
    return m


def _mobius_pass(values: np.ndarray) -> np.ndarray:
    """The Mobius coefficients of a value table's ``values`` as a new writable table, unchecked."""
    a = values.copy()
    subsets.lattice(_subtract, a)
    return a


def _mobius_table(v: SetFunction) -> np.ndarray:
    """The Mobius coefficients of a value table, checked as :func:`mobius` checks
    them: the read-only table of the live result of ``mobius(v)`` if the caller
    still holds one, else a new writable table that the caller may scale in place."""
    values = _values(v)  # refuse what is not a value table before the lookup
    m = _live(v)
    if m is not None:
        return m.values
    a = _mobius_pass(values)
    if not _all_finite(a):
        raise InvalidFormat("%s must contain only finite numbers" % MobiusRepr._what)
    return a


def zeta(m: MobiusRepr) -> SetFunction:
    """Inverse of :func:`mobius`: v(A) = sum over B in A of m(B)."""
    a = _coefficients(m, MobiusRepr).copy()
    subsets.lattice(_add, a)
    return SetFunction._own(m.n, a)


def co_mobius(v: SetFunction) -> CoMobiusRepr:
    """Complement-based coefficients sum over B in A of (-1)^|B| v(N - B).

    Computed by reversing the value table (mask of N - B is the bitwise
    complement of B) and reusing the plain Mobius butterfly, which differs
    from the target sum only by the sign (-1)^|A|. With the table as rows
    of 2**min(n, 12) masks, that sign is the parity of the column times the
    parity of the row: two exact multiplications by +-1 apply it, keeping
    the sign of every zero.
    """
    a = _mobius_pass(_values(v)[::-1])
    low = min(v.n, 12)
    cols, rows = (1.0 - 2.0 * (subsets.popcounts(k) & 1) for k in (low, v.n - low))
    grid = a.reshape(-1, 1 << low)  # mask = row * 2**low + column
    grid *= cols
    grid *= rows[:, None]
    return CoMobiusRepr._own(v.n, a)


def _below(lo, _, __, a_hi):
    np.maximum(a_hi, lo, out=a_hi, order="C")


def ordinal_mobius(mu: SetFunction) -> OrdinalMobiusRepr:
    """Max-based coefficients: mu(A) where A is a strict step, else 0.

    A subset keeps its value exactly when removing any single member
    strictly decreases it. Intended for capacities (and more generally
    nonnegative monotone tables), for which the table is recovered as the
    maximum kept coefficient over subsets (:func:`ordinal_zeta`).

    Only the largest drop that a :class:`Capacity` built by validation keeps
    tells whether mu is monotone. Where that drop is below 0, every nonempty
    subset is a strict step, and the result is a copy of mu's table, with no
    pass: the bytes of the pass, whose empty-set entry is mu(empty) too.
    Where it is at most 0, mu is exactly monotone, mu(A) >= mu(A - i) with no
    tolerance, and if mu(empty) is +0.0 too, the result refers weakly to
    ``mu``, and :func:`ordinal_zeta` of it returns ``mu``'s table while ``mu``
    lives. A table that keeps no drop (a bare set function, a copy, a pickle
    or a conjugate) runs the pass and is checked for a negative kept
    coefficient, as is a capacity monotone only within tol; the result refers
    to no table. The entries are mu's or 0.0, so finite.
    """
    vals = _values(mu)
    drop = vars(mu).get("_largest_drop")  # max of mu(A) - mu(A | i), kept by validation
    if drop is not None and drop < 0.0:
        a = vals.copy()
    else:
        a = np.full(1 << mu.n, -np.inf)
        subsets.lattice(_below, vals, a)  # a(A): the largest mu(A - i) over members i
        buf = np.empty(min(a.shape[0], subsets.SLICE), dtype=bool)
        for v, out in _slices(vals, a):
            flat = np.less_equal(v, out, out=buf[: v.shape[0]])  # some member does not raise v
            np.copyto(out, v)
            np.putmask(out, flat, 0.0)
    monotone = drop is not None and drop <= 0.0 and not np.signbit(vals[0])
    if not monotone:
        OrdinalMobiusRepr._check(a)
    om = OrdinalMobiusRepr._own(mu.n, a, checked=True)
    if monotone:
        vars(om)["_zeta"] = weakref.ref(mu)
    return om


def ordinal_zeta(m: OrdinalMobiusRepr) -> SetFunction:
    """Recover the value table: v(A) = max over B in A of the coefficients.

    While the exactly monotone table that ``m`` came from lives (see
    :func:`ordinal_mobius`), this is that table plus 0.0, with no pass: the
    bytes of the pass. Each maximum is reached at a kept coefficient equal to
    v(A), and equal positive doubles share one bit pattern; where v(A) is 0,
    every coefficient below A is the +0.0 that the keep-or-zero loop wrote,
    or v(empty) = +0.0; and adding 0.0 turns only -0.0 into +0.0. Neither
    result is scanned: that sum of a finite table, like each maximum of
    finite coefficients, is finite, and its empty-set entry is 0.
    """
    a = _coefficients(m, OrdinalMobiusRepr)  # refuse another type before the lookup
    mu = _live(m, "_zeta")
    if mu is not None:
        return SetFunction._own(m.n, mu.values + 0.0, checked=True)
    a = a.copy()
    subsets.lattice(_maximum, a)
    return SetFunction._own(m.n, a, checked=True)


def conjugate(v: SetFunction) -> SetFunction:
    """Conjugate set function v(N) - v(N - A); an involution.

    Conjugating a :class:`Capacity` yields a :class:`Capacity`, unscanned, as
    it inherits the invariants the original passed with: conj(empty) = 0
    exactly, conj(N) = v(N), and each drop of the conjugate is a drop of v up
    to one rounding. The strict-singleton flag is not carried over, since it
    is not preserved.
    """
    vals = _values(v)
    with np.errstate(over="ignore", invalid="ignore"):  # _own rejects what overflowed
        table = vals[-1] - vals[::-1]
    return (Capacity if isinstance(v, Capacity) else SetFunction)._own(v.n, table)


def _drops(vals: np.ndarray, tol: float) -> tuple[np.ndarray, tuple[int, int] | None]:
    """For each bit, the largest v(A) - v(A | bit) over the masks A without
    it; and the first (A, bit) pair, by A and then by bit, whose drop exceeds
    tol, or None. A ``tol`` that is not finite and >= 0 raises.

    The table is monotone within tol where the drops are at most tol, and
    strictly monotone where they are below 0: for finite values, lo - hi < 0
    exactly when hi > lo, as a difference of distinct doubles never rounds
    to zero.
    """
    tol = _tol(tol)
    drop = np.empty(min(vals.shape[0] >> 1, subsets.SLICE))

    def diff(lo, hi):
        return np.subtract(lo, hi, out=drop[: lo.size].reshape(lo.shape), order="C")

    n = vals.shape[0].bit_length() - 1
    blocked = subsets.block_bits(n)
    drops, first = [], None
    # Each call of the pass holds at most a slice: the views of a block or of a
    # chunk.
    for i, calls in enumerate(subsets.lattice(lambda lo, hi: diff(lo, hi).max(), vals)):
        drops.append(max(calls))
        if drops[-1] <= tol:
            continue
        # Search the natural layout for the first drop, from the first block
        # whose call drops on a bit that runs block by block, one call a block,
        # or from mask 0 on a bit above. pairs[r, 0] and pairs[r, 1] are a run
        # of masks A without bit i and the masks A | bit i; the search walks
        # them in pieces of at most a slice, in mask order, and stops at the
        # first piece that drops by more than tol.
        start = 0
        if i < blocked:
            start = (1 << blocked) * next(c for c, m in enumerate(calls) if m > tol)
        pairs = vals[start:].reshape(-1, 2, 1 << i)
        rows, cols = max(1, subsets.SLICE >> i), min(1 << i, subsets.SLICE)
        with np.errstate(over="ignore"):
            for r, c in itertools.product(range(0, pairs.shape[0], rows), range(0, 1 << i, cols)):
                piece = pairs[r : r + rows, :, c : c + cols]
                over = diff(piece[:, 0], piece[:, 1]) > tol
                k = int(np.argmax(over))  # row-major, so the smallest A
                if over.flat[k]:
                    break
        mask = start + (r + k // cols) * (2 << i) + c + k % cols
        if first is None or mask < first[0]:
            first = (mask, i)
    return np.array(drops), first


def _first_capacity_violation(
    vals: np.ndarray,
    n: int,
    tol: float,
    require_positive_singletons: bool,
    first_drop: tuple[int, int] | None,
) -> Exception | None:
    """The first violated capacity constraint, or None; ``first_drop`` is the
    pair that :func:`_drops` found."""
    if vals[0] != 0.0:
        return NotNormalized("mu(empty) must be 0, got %.17g" % vals[0])
    if abs(vals[-1] - 1.0) > tol:
        return NotNormalized("mu(N) must be 1 within %g, got %.17g" % (tol, vals[-1]))
    if first_drop is not None:
        mask, i = first_drop
        return NotMonotone(
            subsets.subset_key(mask), i + 1, float(vals[mask]), float(vals[mask | 1 << i])
        )
    return _nonpositive_singleton(vals, n) if require_positive_singletons else None


def _nonpositive_singleton(vals: np.ndarray, n: int) -> NonPositiveSingleton | None:
    """The error naming the first singleton whose value is not > 0, or None."""
    w = vals[1 << np.arange(n)]
    bad = np.flatnonzero(~(w > 0.0))
    return NonPositiveSingleton(int(bad[0]) + 1, float(w[bad[0]])) if bad.size else None


def _checked_capacity(vals: np.ndarray, n: int, tol: float, positive: bool) -> Capacity:
    """``vals``, a finite read-only table of length 2**n, wrapped as a :class:`Capacity`
    without a copy; raises the first violated constraint, with singletons > 0 if
    ``positive``."""
    drops, first_drop = _drops(vals, tol)
    err = _first_capacity_violation(vals, n, tol, positive, first_drop)
    if err is None:
        return _wrapped_capacity(n, vals, positive, drops)
    try:
        raise err
    finally:
        # Left bound, err would tie this frame and its table to the
        # traceback in a cycle that only the garbage collector breaks.
        del err


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of :func:`validate`.

    ``error`` carries the first violated constraint (the exception that
    :func:`as_capacity` would raise), naming the offending subset pair or
    singleton. ``strictly_monotone`` and ``additive`` are informational
    flags, reported whenever the value table itself is well formed.
    """

    ok: bool
    capacity: Capacity | None
    error: Exception | None
    strictly_monotone: bool
    additive: bool


def _value_table(v, n: int | None) -> tuple[int, np.ndarray]:
    """(n, read-only table) of a set function or of a raw vector; a given ``n``
    must be that of the table."""
    if isinstance(v, SetFunction):
        vals = _values(v)
        if n is None or subsets.check_n(n) == v.n:
            return v.n, vals
        v = vals  # over another n: refused below as a raw vector would be
    arr = subsets._reals(v, "values must be a vector of numbers")
    if n is None:
        if arr.ndim != 1 or arr.shape[0] < 2 or arr.shape[0] & (arr.shape[0] - 1):
            raise DimensionMismatch(
                "value table length must be a power of two, got shape %s" % (arr.shape,)
            )
        n = arr.shape[0].bit_length() - 1
    n = subsets.check_n(n)
    return n, _coerce_vector(n, arr, "values")


def validate(
    v,
    n: int | None = None,
    require_positive_singletons: bool = False,
    tol: float = DEFAULT_TOL,
) -> ValidationResult:
    """Check the capacity axioms on a set function or a raw value table.

    Accepts a :class:`SetFunction`, a :class:`Capacity`, or a raw vector of
    length 2**n (``n`` inferred from the length when omitted; a given ``n``
    must be that of the table). Never raises for axiom violations; malformed
    vectors (wrong length, non-finite entries) and a ``tol`` that is not
    finite and >= 0 do raise. The capacity keeps the largest drop of the
    scan that ``strictly_monotone`` is read from, as :class:`Capacity` says.
    """
    n, vals = _value_table(v, n)
    positive = _flag(require_positive_singletons, "require_positive_singletons")
    drops, first_drop = _drops(vals, tol)
    err = _first_capacity_violation(vals, n, tol, positive, first_drop)
    # Additive: every Mobius coefficient of two or more criteria is within tol of 0.
    m = _mobius_pass(vals)
    m[0] = 0.0
    m[1 << np.arange(n)] = 0.0
    additive = bool(np.abs(m, out=m).max() <= tol)
    cap = None if err is not None else _wrapped_capacity(n, vals, positive, drops)
    return ValidationResult(err is None, cap, err, bool(drops.max() < 0.0), additive)


def as_capacity(
    v,
    n: int | None = None,
    require_positive_singletons: bool = False,
    tol: float = DEFAULT_TOL,
) -> Capacity:
    """Like :func:`validate` but raises the first violated constraint."""
    n, vals = _value_table(v, n)
    positive = _flag(require_positive_singletons, "require_positive_singletons")
    return _checked_capacity(vals, n, tol, positive)


# -- JSON schema ---------------------------------------------------------
#
# Canonical form: {"n": 2, "values_by_mask": [0.0, 0.3, 0.6, 1.0]} with
# index = bitmask. The sparse-looking alternative keys every subset by its
# comma-joined member list: {"n": 2, "values": {"": 0.0, "1": 0.3, ...}};
# all 2**n keys are required.


def to_dict(v: SetFunction) -> dict:
    """Canonical JSON-ready dict for any of the table-backed types."""
    if not isinstance(v, SetFunction):
        raise InvalidFormat("expected SetFunction or a subclass, got %r" % type(v).__name__)
    return {"n": v.n, "values_by_mask": v.values.tolist()}


def _number(x, where: str) -> float:
    """A number by :func:`subsets._is_real` (a parsed JSON number, or a numpy
    integer or float scalar) as a float; :class:`InvalidFormat` for anything
    else, bools and integers too large for a double included."""
    if type(x) is float:  # the common case, without a call
        return x
    if not subsets._is_real(x):
        raise InvalidFormat("%s must be a number, got %r" % (where, x))
    try:
        return float(x)
    except OverflowError:
        raise InvalidFormat("%s is an integer too large for a double" % where) from None


def _flag(x, name: str, error: type = InvalidFormat) -> bool:
    """A bool or numpy bool as a Python bool; ``error`` for anything else, which a
    truth test would misread ("no" and 0.0 are not False)."""
    if not isinstance(x, (bool, np.bool_)):
        raise error("expected a bool for %s, got %r" % (name, type(x).__name__))
    return bool(x)


def _tol(tol) -> float:
    """An absolute tolerance, a finite number >= 0, as a float (:class:`InvalidFormat` if not)."""
    value = _number(tol, "tol") if subsets._is_real(tol) else math.nan
    if not 0.0 <= value < math.inf:
        raise InvalidFormat("tol must be finite and >= 0, got %r" % (tol,))
    return value


def vector_from_dict(obj) -> tuple[int, np.ndarray]:
    """Parse ``{"n": ..., "values_by_mask": [...]}`` or the keyed form into n and
    a read-only table of finite numbers."""
    if not isinstance(obj, dict):
        raise InvalidFormat("expected a JSON object, got %r" % type(obj).__name__)
    if "n" not in obj:
        raise InvalidFormat('missing required field "n"')
    n = subsets.check_n(obj["n"])
    size = 1 << n
    dense = obj.get("values_by_mask")
    keyed = obj.get("values")
    if (dense is None) == (keyed is None):
        raise InvalidFormat('give exactly one of "values_by_mask" or "values"')
    if dense is not None:
        if not isinstance(dense, list) or len(dense) != size:
            raise InvalidFormat('"values_by_mask" must be a list of length 2**%d = %d' % (n, size))
        arr = np.array([_number(x, '"values_by_mask" entry') for x in dense])
        return n, _finite(arr, "values")
    if not isinstance(keyed, dict):
        raise InvalidFormat('"values" must be an object keyed by subsets')
    arr = np.empty(size)
    seen = np.zeros(size, dtype=bool)
    for key, val in keyed.items():
        if not isinstance(key, str):
            raise InvalidFormat("subset keys must be strings, got %r" % (key,))
        mask = subsets.parse_subset_key(key, n)  # each subset has one key, so no mask repeats
        seen[mask] = True
        arr[mask] = _number(val, 'value for subset "%s"' % key)
    if not seen.all():
        missing = int(np.argmin(seen))
        raise InvalidFormat(
            'missing value for subset "%s" (all %d subsets are required)'
            % (subsets.subset_key(missing), size)
        )
    return n, _finite(arr, "values")


def set_function_from_dict(obj) -> SetFunction:
    n, arr = vector_from_dict(obj)
    return SetFunction._own(n, arr)


def capacity_from_dict(
    obj, require_positive_singletons: bool = False, tol: float = DEFAULT_TOL
) -> Capacity:
    n, arr = vector_from_dict(obj)
    positive = _flag(require_positive_singletons, "require_positive_singletons")
    return _checked_capacity(arr, n, tol, positive)
