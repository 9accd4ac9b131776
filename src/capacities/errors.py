"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CapacitiesError",
    "InvalidFormat",
    "NotNormalized",
    "NotMonotone",
    "NonPositiveSingleton",
    "DimensionMismatch",
    "EmptyCoalition",
    "OutOfDomain",
    "UncertifiedOperator",
    "UnknownAxiom",
    "DomainMismatch",
    "UnknownLevel",
]


class CapacitiesError(ValueError):
    """Base class for every domain error raised by this package."""


class InvalidFormat(CapacitiesError):
    """Serialized object does not follow the documented schema."""


class NotNormalized(CapacitiesError):
    """Set function is not normalized: v(empty) must be 0 and v(N) must be 1."""


class NotMonotone(CapacitiesError):
    """Capacity decreases when a criterion is added to some subset."""

    def __init__(self, subset_key: str, criterion: int, lo: float, hi: float):
        self.subset_key = subset_key
        self.criterion = criterion
        super().__init__(
            "not monotone: mu({%s} | {%d}) = %.17g < mu({%s}) = %.17g"
            % (subset_key, criterion, hi, subset_key, lo)
        )


class NonPositiveSingleton(CapacitiesError):
    """A singleton weight is not strictly positive although required to be."""

    def __init__(self, criterion: int, value: float):
        self.criterion = criterion
        super().__init__(
            "singleton weight mu({%d}) = %.17g is not strictly positive" % (criterion, value)
        )


class DimensionMismatch(CapacitiesError):
    """Vector lengths or criteria counts do not agree."""


class EmptyCoalition(CapacitiesError):
    """The empty subset was passed where a nonempty coalition is required."""


class OutOfDomain(CapacitiesError):
    """A score vector lies outside the domain of the requested operation."""


class UncertifiedOperator(CapacitiesError):
    """A binary operator lacking a commutativity/associativity certificate was used."""


class UnknownAxiom(CapacitiesError):
    """Requested axiom name is not one of the supported identifiers."""


class DomainMismatch(CapacitiesError):
    """An axiom check would sample outside the extension's domain without an override."""


class UnknownLevel(CapacitiesError):
    """An act references a utility level that its scale does not define."""

    def __init__(self, criterion: int, level: str):
        self.criterion = criterion
        self.level = level
        super().__init__("criterion %d has no level named %r" % (criterion, level))
