"""Exception types shared across the package."""


class MonolimError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(MonolimError):
    """An exponent vector has the wrong number of coordinates."""


class RingMismatchError(MonolimError):
    """Two operands live in different ambient rings."""


class NotPrimaryError(MonolimError):
    """Ideal is not primary to the maximal monomial ideal."""


class InclusionError(MonolimError):
    """A required ideal inclusion does not hold."""


class NotFiltrationError(MonolimError):
    """Family fails the descending-chain requirement."""


class FamilyRangeError(MonolimError):
    """Table-backed family queried beyond its stored range."""


class NotCoboundedError(MonolimError):
    """Convex region has an unbounded complement in the orthant."""


class GeometryError(MonolimError):
    """Exact geometric operation unavailable for these inputs."""


class SemigroupError(MonolimError):
    """Predicate failed a semigroup requirement (e.g. additivity)."""


class EstimateError(MonolimError):
    """Not enough data for a limit estimate."""


class ConfigError(MonolimError):
    """Bad CLI configuration or arguments: a user's mistake (exit 2)."""


class InputError(ConfigError):
    """Malformed ideal, ring or module text."""


class ZeroIdealError(ConfigError):
    """Operation undefined for the zero ideal (e.g. colon by zero)."""


class FamilySpecError(ConfigError):
    """Malformed family specification."""
