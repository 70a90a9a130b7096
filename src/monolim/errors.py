"""Exception types shared across the package."""


class MonolimError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(MonolimError):
    """An exponent vector has the wrong number of coordinates."""


class RingMismatchError(MonolimError):
    """Two operands live in different ambient rings."""


class InclusionError(MonolimError):
    """A required ideal inclusion does not hold."""


class NotFiltrationError(MonolimError):
    """Family fails the descending-chain requirement."""


class SemigroupError(MonolimError):
    """Predicate failed a semigroup requirement (e.g. additivity)."""


class ConfigError(MonolimError):
    """A user's mistake in the input, its configuration or the arguments:
    the CLI reports it and exits 2."""


class InputError(ConfigError):
    """Malformed ideal, ring or module text."""


class ZeroIdealError(ConfigError):
    """Operation undefined for the zero ideal (e.g. colon by zero)."""


class FamilySpecError(ConfigError):
    """Malformed family specification."""


class NotPrimaryError(ConfigError):
    """Ideal is not primary to the maximal monomial ideal."""


class FamilyRangeError(ConfigError):
    """Table-backed family queried beyond its stored range."""


class NotCoboundedError(ConfigError):
    """Convex region has an unbounded complement in the orthant."""


class GeometryError(ConfigError):
    """Exact geometric operation unavailable for these inputs."""


class EstimateError(ConfigError):
    """Not enough data for a limit estimate."""
