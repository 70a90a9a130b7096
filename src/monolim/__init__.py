"""Exact asymptotic length and multiplicity limits for monomial ideal families."""

__version__ = "0.1.0"

from .asymptotics import (
    EpsilonReport,
    LengthSequence,
    LimitEstimate,
    MultiplicityReport,
    SymbolicReport,
    difference_profile,
    epsilon_ideal,
    epsilon_module,
    estimate_limit,
    exact_multiplicity,
    filtration_difference_bound,
    length_sequence,
    minkowski_family_check,
    monomial_quotient_bound,
    multiplicity,
    symbolic_multiplicity,
    teissier_check,
    volume_equals_multiplicity,
)
from .convex import (
    ConvexRegion,
    covol,
    hull_region,
    kt_check,
    minkowski_sum,
    region,
    scale_region,
)
from .errors import MonolimError
from .families import (
    FamilySpec,
    MaxPowerSpec,
    PowerSpec,
    ProductSpec,
    SaturationSpec,
    SymbolicSpec,
    TableSpec,
    ValuationSpec,
    log_exponent,
    sigma_exponent,
    sigma_multiplier,
    verify_filtration,
    verify_graded,
)
from .lattice import (
    INFINITE,
    AmbientRing,
    MonomialIdeal,
    MonomialModule,
    containment_order,
    format_ideal,
    length_mod_power,
    minimalize,
    parse_ideal,
    rel_length,
)
from .semigroup import (
    SemigroupLevels,
    SemigroupPredicate,
    enumerate_levels,
    lattice_invariants,
    okounkov_body,
    semigroup_limit_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
