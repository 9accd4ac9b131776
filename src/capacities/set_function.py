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
:func:`capacities.subsets.lattice`, which runs each bit on tiles, columns
or views: the low bits of a table of 2**18 entries or more on a
cache-sized transposed tile, bits 0 to 3 of a table of 2**12 to 2**17
entries on strided columns, and the rest on views of the whole table, with
a small ufunc buffer that spares numpy a copy of each view; the results are
those of the plain per-bit loop, bit for bit. n is capped at
24 to keep the dense tables reasonable. Overflow inside a pass is not
reported as a numpy warning: an output that is not finite raises
:class:`InvalidFormat`.

Memory: a table holds 8 * 2**n bytes (128 MiB at n = 24). Each transform
allocates its output and no other array of that size. Beside it, a pass
holds one lattice tile per table it walks (each at most 1/16 of a table
and 512 KiB), and the finiteness check of the output holds one bool per
subset; :func:`ordinal_mobius` adds one bool table after its pass. The
monotonicity scan of the capacity constructors and :func:`validate`
holds one half-length float buffer and finds each bit's largest drop
v(A) - v(A | bit); the conjugate of a capacity, which inherits its
invariants, is not scanned. Where a bit's largest drop exceeds tol, a
natural-layout search through the same float buffer and a half-length bool
buffer names its first offending pair: over the whole table, or on a tiled
bit over the first block of masks that drops. :func:`validate` reads strict
monotonicity off the same drops and builds one Mobius table. The Shapley
values and interaction reports of :mod:`capacities.interaction` start from
one writable Mobius table, checked as :func:`mobius` checks its output, and
scale it in place: ``shapley`` holds it and one byte per subset, and a
report one scratch table more and two bytes per subset. While the caller
holds the result of ``mobius(v)``, they read its read-only table instead,
found through the weak reference that ``mobius`` leaves on ``v``, which keeps
no table alive and which a copy or a pickle of ``v`` leaves out: ``shapley``
scales it into a new table, and a report runs every order in its scratch
table. Public constructors copy the arrays they are given; tables the
package has just built are wrapped without a copy.
"""

from __future__ import annotations

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
    if not np.isfinite(arr).all():
        raise InvalidFormat("%s must contain only finite numbers" % what)
    arr.flags.writeable = False
    return arr


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
    def _own(cls, n: int, arr: np.ndarray):
        """Wrap ``arr``, a float table of length 2**n that the package has just
        built and nothing else holds, without copying it."""
        cls._check(_finite(arr, cls._what))
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
        return float(self.values[mask])

    def __getstate__(self):
        """A copy or a pickle carries no live Mobius table."""
        return {k: x for k, x in vars(self).items() if k != "_mobius"}


@dataclass(frozen=True, eq=False, init=False)
class Capacity(SetFunction):
    """Normalized monotone set function.

    Construction validates the invariants of the set function ``sf`` and
    raises the matching error (:class:`NotNormalized`, :class:`NotMonotone`,
    or, when ``strictly_positive_singletons`` is set,
    :class:`NonPositiveSingleton`); the capacity shares its read-only table.
    ``tol`` is the absolute slack allowed on normalization and
    monotonicity; it is not stored.
    """

    strictly_positive_singletons: bool = False

    def __init__(
        self,
        sf: SetFunction,
        strictly_positive_singletons: bool = False,
        tol: float = DEFAULT_TOL,
    ):
        cap = _checked_capacity(_values(sf), sf.n, tol, strictly_positive_singletons)
        vars(self).update(vars(cap))


def _wrapped_capacity(n: int, values: np.ndarray, strictly_positive_singletons: bool) -> Capacity:
    """Wrap a table that satisfies the capacity constraints, without a copy."""
    cap = object.__new__(Capacity)
    vars(cap).update(n=n, values=values, strictly_positive_singletons=strictly_positive_singletons)
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
    hi -= lo


def _add(lo, hi):
    hi += lo


def _maximum(lo, hi):
    np.maximum(hi, lo, out=hi)


def _live(v: SetFunction) -> MobiusRepr | None:
    """The live result of ``mobius(v)``, which ``v`` refers to weakly, else None."""
    ref = vars(v).get("_mobius")
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
    if not np.isfinite(a).all():
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
    np.maximum(a_hi, lo, out=a_hi)


def ordinal_mobius(mu: SetFunction) -> OrdinalMobiusRepr:
    """Max-based coefficients: mu(A) where A is a strict step, else 0.

    A subset keeps its value exactly when removing any single member
    strictly decreases it. Intended for capacities (and more generally
    nonnegative monotone tables), for which the table is recovered as the
    maximum kept coefficient over subsets (:func:`ordinal_zeta`).
    """
    vals = _values(mu)
    a = np.full(1 << mu.n, -np.inf)
    subsets.lattice(_below, vals, a)  # a(A): the largest mu(A - i) over members i
    flat = np.less_equal(vals, a)  # some member does not raise the value
    np.copyto(a, vals)
    np.putmask(a, flat, 0.0)
    del flat  # before the finiteness check allocates its own byte per subset
    return OrdinalMobiusRepr._own(mu.n, a)


def ordinal_zeta(m: OrdinalMobiusRepr) -> SetFunction:
    """Recover the value table: v(A) = max over B in A of the coefficients."""
    a = _coefficients(m, OrdinalMobiusRepr).copy()
    subsets.lattice(_maximum, a)
    return SetFunction._own(m.n, a)


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
    drop = np.empty(vals.shape[0] >> 1)

    def largest(lo, hi):
        return np.subtract(lo, hi, out=drop[: lo.size].reshape(lo.shape)).max()

    tiled = subsets.tile_bits(vals.shape[0].bit_length() - 1)
    drops, first = [], None
    for i, calls in enumerate(subsets.lattice(largest, vals)):
        drops.append(max(calls))
        if drops[-1] <= tol:
            continue
        # Search the natural layout for the first drop: the whole table, or on a
        # tiled bit the first block of masks whose call drops.
        start, size = 0, vals.shape[0]
        if i < tiled:
            size //= len(calls)
            start = size * next(b for b, m in enumerate(calls) if m > tol)
        _, lo, hi = next(subsets.halves(vals[start : start + size], 1 << i))
        with np.errstate(over="ignore"):
            d = np.subtract(lo, hi, out=drop[: lo.size].reshape(lo.shape))
        mask = start + _first_over(d, tol)
        if first is None or mask < first[0]:
            first = (mask, i)
    return np.array(drops), first


def _first_over(d: np.ndarray, tol: float) -> int:
    """The first mask A, counted from the start of its block, with d[A] > tol;
    ``d`` is shaped as a :func:`subsets.halves` ``lo`` view of that block."""
    k = int(np.argmax(d > tol))  # row-major, so the smallest A
    return k + k // d.shape[1] * d.shape[1]


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
    err = _first_capacity_violation(vals, n, tol, positive, _drops(vals, tol)[1])
    if err is None:
        return _wrapped_capacity(n, vals, positive)
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
    finite and >= 0 do raise.
    """
    n, vals = _value_table(v, n)
    drops, first_drop = _drops(vals, tol)
    err = _first_capacity_violation(vals, n, tol, require_positive_singletons, first_drop)
    # Additive: every Mobius coefficient of two or more criteria is within tol of 0.
    m = _mobius_pass(vals)
    m[0] = 0.0
    m[1 << np.arange(n)] = 0.0
    additive = bool(np.abs(m, out=m).max() <= tol)
    cap = None if err is not None else _wrapped_capacity(n, vals, require_positive_singletons)
    return ValidationResult(err is None, cap, err, bool(drops.max() < 0.0), additive)


def as_capacity(
    v,
    n: int | None = None,
    require_positive_singletons: bool = False,
    tol: float = DEFAULT_TOL,
) -> Capacity:
    """Like :func:`validate` but raises the first violated constraint."""
    n, vals = _value_table(v, n)
    return _checked_capacity(vals, n, tol, require_positive_singletons)


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
        mask = subsets.parse_subset_key(key, n)
        if seen[mask]:
            raise InvalidFormat("duplicate subset key for {%s}" % subsets.subset_key(mask))
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
    return _checked_capacity(arr, n, tol, require_positive_singletons)
