"""Aggregation of acts described on per-criterion utility scales.

An act gives one entry per criterion: either a named level on that
criterion's scale or a raw number. Scales must pin the two reference
levels, "neutral" at 0 and "good" at 1, which is what ties the utilities
to the capacity: the capacity value of a subset A is by construction the
aggregate of the binary act that is good on A and neutral elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import subsets
from .errors import (
    CapacitiesError,
    DimensionMismatch,
    InvalidFormat,
    UnknownLevel,
)
from .integrals import make_extension
from .set_function import (DEFAULT_TOL, Capacity, _checked_capacity, _finite,
                           _nonpositive_singleton, _number, _tol, _values, capacity_from_dict)

__all__ = [
    "NEUTRAL",
    "GOOD",
    "UtilityScale",
    "default_scale",
    "Act",
    "AggregationModel",
    "RankedAct",
    "capacity_from_binary_acts",
    "evaluate_act",
    "rank_acts",
    "model_from_dict",
    "acts_from_obj",
]

NEUTRAL = "neutral"
GOOD = "good"
# Act entries of exactly these types need no number check.
_PLAIN_ENTRY_TYPES = frozenset((float, str))
# Iterables that are not a sequence of entries, though tuple() reads them.
_NOT_ENTRIES = (str, bytes, dict, set, frozenset)


@dataclass(frozen=True)
class UtilityScale:
    """Named utility levels for one criterion.

    The reference levels are mandatory and pinned: neutral at exactly 0
    and good at exactly 1. Any other finite number (including levels above
    good or below neutral) is free; a level that is not finite raises
    :class:`InvalidFormat`, naming the level and the criterion.
    """

    criterion: int
    levels: dict

    def __post_init__(self):
        if not subsets._is_int(self.criterion) or self.criterion < 1:
            raise InvalidFormat(
                "criterion must be a 1-based index, got %s" % subsets._shown(self.criterion)
            )
        try:
            levels = dict(self.levels)
        except (TypeError, ValueError):
            raise InvalidFormat(
                "levels must be a dict of level names to numbers, got %r"
                % type(self.levels).__name__
            ) from None
        for name, value in levels.items():
            if not isinstance(name, str):
                raise InvalidFormat("level names must be strings, got %r" % (name,))
            levels[name] = _number(value, "level %r" % (name,))
            if not np.isfinite(levels[name]):
                raise InvalidFormat("level %r of criterion %s must be finite, got %r"
                                    % (name, subsets._shown(int(self.criterion)), levels[name]))
        if levels.get(NEUTRAL) != 0.0:
            raise InvalidFormat(
                'scale for criterion %s must map "%s" to 0'
                % (subsets._shown(int(self.criterion)), NEUTRAL)
            )
        if levels.get(GOOD) != 1.0:
            raise InvalidFormat(
                'scale for criterion %s must map "%s" to 1'
                % (subsets._shown(int(self.criterion)), GOOD)
            )
        vars(self).update(criterion=int(self.criterion), levels=levels)

    def utility(self, level: str) -> float:
        try:
            return self.levels[level]
        except KeyError:
            raise UnknownLevel(self.criterion, level) from None


def default_scale(criterion: int) -> UtilityScale:
    return UtilityScale(criterion, {NEUTRAL: 0.0, GOOD: 1.0})


@dataclass(frozen=True)
class Act:
    """One entry per criterion: a level name or a raw utility number.

    ``entries`` is a sequence of them. A str, bytes, dict, set or frozenset
    raises :class:`InvalidFormat`: it would give its characters, bytes or
    keys, or its members in no fixed order, as entries."""

    entries: tuple
    label: str = ""

    def __post_init__(self):
        try:
            if isinstance(self.entries, _NOT_ENTRIES):
                raise TypeError
            entries = tuple(self.entries)
        except TypeError:
            raise InvalidFormat(
                "act entries must be a sequence of level names and numbers, got %r"
                % type(self.entries).__name__
            ) from None
        if not isinstance(self.label, str):
            raise InvalidFormat("expected a string for label, got %r" % type(self.label).__name__)
        _check_entries((entries,))
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _own(cls, entries: tuple, label: str) -> Act:
        """An act of ``entries``, a tuple whose entries are already checked, and
        ``label``, a str, built without the checks of ``__init__``. Each field is
        set as the frozen ``__init__`` sets it, through ``object.__setattr__``."""
        act = object.__new__(cls)
        object.__setattr__(act, "entries", entries)
        object.__setattr__(act, "label", label)
        return act


def _check_entries(rows) -> None:
    """Raise :class:`InvalidFormat` for the first entry of ``rows``, read row by
    row, that is neither a level name nor a number. One type scan covers all
    rows; only when it finds a type other than float and str are the entries
    read one by one."""
    if not _PLAIN_ENTRY_TYPES.issuperset(map(type, chain.from_iterable(rows))):
        for e in chain.from_iterable(rows):
            if not isinstance(e, str):
                _number(e, "an act entry that is not a level name")


@dataclass(frozen=True, eq=False)
class AggregationModel:
    """A capacity, an extension selector, and the per-criterion scales.

    The capacity must give every singleton strictly positive weight,
    otherwise differences on that criterion could never matter and the
    scale construction loses its meaning. Missing scales default to the
    minimal neutral/good scale. The cpt extension takes the loss-side
    capacity in ``capacity_losses``; every other extension must leave it
    unset.
    """

    capacity: Capacity
    extension: str
    scales: tuple = ()
    capacity_losses: Capacity | None = None

    def __post_init__(self):
        vals, n = _values(self.capacity), self.capacity.n
        singleton_error = _nonpositive_singleton(vals, n)
        if singleton_error is not None:
            raise singleton_error
        by_criterion = {}
        try:
            scales = iter(self.scales)
        except TypeError:
            raise InvalidFormat("expected an iterable of UtilityScale objects, got %r"
                                % type(self.scales).__name__) from None
        for scale in scales:
            if not isinstance(scale, UtilityScale):
                raise InvalidFormat("scales must be UtilityScale objects, got %r" % (scale,))
            if scale.criterion > n:
                raise DimensionMismatch(
                    "scale for criterion %s but the capacity has n = %d"
                    % (subsets._shown(scale.criterion), n)
                )
            if scale.criterion in by_criterion:
                raise InvalidFormat("duplicate scale for criterion %d" % scale.criterion)
            by_criterion[scale.criterion] = scale
        full = tuple(
            by_criterion.get(i, default_scale(i)) for i in range(1, n + 1)
        )
        object.__setattr__(self, "scales", full)
        evaluator = make_extension(self.extension, self.capacity, self.capacity_losses)
        object.__setattr__(self, "_evaluator", evaluator)

    @property
    def n(self) -> int:
        return self.capacity.n


def capacity_from_binary_acts(n: int, attractiveness) -> Capacity:
    """Build the capacity from the aggregates of the good-on-A binary acts.

    ``attractiveness`` maps every subset of N, in a form that
    :func:`capacities.subsets.mask_of` reads, to a real value; the empty set
    must map to 0 and N to 1, the map must be monotone, and every singleton
    strictly positive. Raises the matching validation error otherwise.
    """
    n = subsets.check_n(n)
    size = 1 << n
    vals = np.empty(size)
    seen = np.zeros(size, dtype=bool)
    try:
        items = attractiveness.items()
    except AttributeError:
        raise InvalidFormat(
            "attractiveness must be a dict of subsets to numbers, got %r"
            % type(attractiveness).__name__
        ) from None
    for key, value in items:
        mask = subsets.mask_of(key, n)
        if seen[mask]:
            raise InvalidFormat("duplicate entry for subset {%s}" % subsets.subset_key(mask))
        vals[mask] = _number(value, "attractiveness of {%s}" % subsets.subset_key(mask))
        seen[mask] = True
    if not seen.all():
        missing = int(np.argmin(seen))
        raise InvalidFormat(
            "missing attractiveness for subset {%s} (all %d subsets are required)"
            % (subsets.subset_key(missing), size)
        )
    return _checked_capacity(_finite(vals, "values"), n, DEFAULT_TOL, True)


def _utilities(model: AggregationModel, act) -> list:
    if not isinstance(act, Act):
        act = Act(act)
    n = model.n
    if len(act.entries) != n:
        raise DimensionMismatch(
            "act has %d entries but the model has %d criteria" % (len(act.entries), n)
        )
    return [
        model.scales[i].utility(entry) if isinstance(entry, str) else float(entry)
        for i, entry in enumerate(act.entries)
    ]


def _utility_matrix(model: AggregationModel, acts: list) -> np.ndarray:
    """The (k, n) utilities of ``acts``, read one criterion column at a time:
    a level name becomes its value and a number stays as it is. Where the
    columns do not make a real matrix, the per-act reader raises the first
    error (or reads what numpy would not, such as integers past 64 bits)."""
    rows = [a.entries for a in acts]
    if set(map(len, rows)) == {model.n}:
        try:
            # Inferred, not forced, dtype: float64 would parse an unknown level "1.5".
            columns = np.array(
                [list(map(s.levels.get, col, col)) for s, col in zip(model.scales, zip(*rows))]
            )
        except (ValueError, TypeError, OverflowError):
            pass
        else:
            if columns.dtype.kind in "iuf":
                return np.ascontiguousarray(columns.T, dtype=np.float64)
    return np.array([_utilities(model, a) for a in acts], dtype=np.float64)


def _evaluator(model: AggregationModel):
    """The extension of ``model``, which must be an :class:`AggregationModel`."""
    if not isinstance(model, AggregationModel):
        raise InvalidFormat("expected AggregationModel, got %r" % type(model).__name__)
    return model._evaluator


def evaluate_act(model: AggregationModel, act) -> float:
    """Aggregate one act with the model's extension.

    This is the one-vector call, where :func:`rank_acts` scores all acts in
    one batch. At the edge of the double range the call to an mle or smle
    extension can overflow where the batch is finite, so this can refuse
    with :class:`OutOfDomain` an act that ``rank_acts`` ranks.
    """
    return float(_evaluator(model)(_utilities(model, act)))


@dataclass(frozen=True)
class RankedAct:
    position: int
    index: int
    act: Act
    score: float
    indifferent_to_previous: bool

    def to_dict(self) -> dict:
        return {
            "position": self.position,
            "index": self.index,
            "label": self.act.label,
            "entries": list(self.act.entries),
            "score": self.score,
            "indifferent_to_previous": self.indifferent_to_previous,
        }


def rank_acts(model: AggregationModel, acts, tol: float = DEFAULT_TOL) -> list:
    """Rank acts by descending aggregate.

    Adjacent scores within ``tol`` of each other form an indifference
    chain: within a chain acts keep their input order and all but the
    first are flagged. The result is a list of :class:`RankedAct`.

    All acts are scored in one batch (``Extension.many``), while
    :func:`evaluate_act` makes the one-vector call. At the edge of the double
    range an mle or smle batch can be finite where the call overflows, so
    ``rank_acts`` can rank an act that ``evaluate_act`` refuses with
    :class:`OutOfDomain`. One stable sort of the negated scores finds the
    chains. Then one sort of unique integer keys, for k acts each act's chain
    number times k plus its input index, orders the chains and, inside each,
    the acts by input index.
    """
    tol = _tol(tol)
    try:
        items = iter(acts)
    except TypeError:
        raise InvalidFormat("expected an iterable of acts, got %r" % type(acts).__name__) from None
    acts = [a if isinstance(a, Act) else Act(a) for a in items]
    if not acts:
        raise CapacitiesError("no acts to rank")
    scores = _evaluator(model).many(_utility_matrix(model, acts))
    k = len(acts)
    order = (-scores).argsort(kind="stable")
    ranked = scores[order]
    # A drop is a gap > tol between neighbours; an inf gap (near +-1e308) is one, unwarned.
    with np.errstate(over="ignore"):
        drops = ranked[1:] - ranked[:-1] < -tol
    # key = chain id (the drops before the act) * k + input index, unique per act
    key = np.zeros(k, np.intp)
    drops.cumsum(out=key[1:])
    key *= k
    key += order
    key.sort()
    chain, order = np.divmod(key, k)
    order, values = order.tolist(), scores.tolist()
    flags = [False] + (chain[1:] == chain[:-1]).tolist()
    out = []
    # Filled in place: the frozen __init__ sets each field through object.__setattr__.
    for p, k in enumerate(order):
        ranked_act = object.__new__(RankedAct)
        vars(ranked_act).update(position=p + 1, index=k, act=acts[k], score=values[k],
                                indifferent_to_previous=flags[p])
        out.append(ranked_act)
    return out


def model_from_dict(obj) -> AggregationModel:
    """Parse the model schema.

    Required: "capacity" (capacity schema) and "extension" (one of the
    extension names). Optional: "capacity2" for cpt and "scales", an
    object keyed by criterion number whose values map level names to
    utilities. A key is a criterion number as ``str(int)`` writes it:
    "2", not "02", "+2", " 2" or "0_2".
    """
    if not isinstance(obj, dict):
        raise InvalidFormat("model must be a JSON object, got %r" % type(obj).__name__)
    if "capacity" not in obj:
        raise InvalidFormat('model is missing the "capacity" field')
    if "extension" not in obj:
        raise InvalidFormat('model is missing the "extension" field')
    capacity = capacity_from_dict(obj["capacity"], require_positive_singletons=True)
    losses = None
    if obj.get("capacity2") is not None:
        losses = capacity_from_dict(obj["capacity2"])
    scales = []
    raw_scales = obj.get("scales", {})
    if not isinstance(raw_scales, dict):
        raise InvalidFormat('"scales" must be an object keyed by criterion number')
    for key, levels in raw_scales.items():
        try:
            criterion = int(key)
            if str(criterion) != key:  # as "02", "+2", " 2", "0_2" or a non-ASCII digit
                raise ValueError
        except (TypeError, ValueError):
            raise InvalidFormat("scale key %r is not a criterion number" % (key,)) from None
        if not isinstance(levels, dict):
            raise InvalidFormat("scale %r must map level names to numbers" % (key,))
        scales.append(UtilityScale(criterion, levels))
    return AggregationModel(
        capacity=capacity,
        extension=obj["extension"],
        scales=tuple(scales),
        capacity_losses=losses,
    )


def acts_from_obj(obj) -> list:
    """Parse an acts file: a JSON array of acts.

    Each act is either an array of entries or an object with "entries"
    and an optional "label". The entries of all acts are checked in one
    pass, and the error raised is the one an act-by-act reading meets
    first: an act that is not well formed is named only when every entry
    before it is a level name or a number.
    """
    if not isinstance(obj, list):
        raise InvalidFormat("acts must be a JSON array")
    rows, labels, error = [], [], None
    for k, item in enumerate(obj):
        if isinstance(item, list):
            entries, label = item, ""
        elif not isinstance(item, dict):
            error = "act %d must be an array or an object" % k
        elif "entries" not in item:
            error = 'act %d is missing "entries"' % k
        else:
            entries, label = item["entries"], item.get("label", "")
            if not isinstance(entries, list):
                error = 'act %d: "entries" must be an array' % k
            elif not isinstance(label, str):
                error = 'act %d: "label" must be a string' % k
        if error is not None:
            break
        rows.append(entries)
        labels.append(label)
    _check_entries(rows)
    if error is not None:
        raise InvalidFormat(error)
    return list(map(Act._own, map(tuple, rows), labels))
