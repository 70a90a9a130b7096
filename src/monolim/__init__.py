"""Exact asymptotic length and multiplicity limits for monomial ideal families.

The public names load on first access (PEP 562), each from the submodule
that defines it, so ``import monolim.cli`` or one layer imports no other.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": (
        "EpsilonReport", "LengthSequence", "LimitEstimate", "MultiplicityReport",
        "SymbolicReport", "difference_profile", "epsilon_ideal", "epsilon_module",
        "estimate_limit", "exact_multiplicity", "filtration_difference_bound",
        "length_sequence", "minkowski_family_check", "monomial_quotient_bound",
        "multiplicity", "symbolic_multiplicity", "teissier_check",
        "volume_equals_multiplicity"),
    "convex": (
        "ConvexRegion", "covol", "hull_region", "kt_check", "minkowski_sum",
        "region", "scale_region"),
    "errors": ("MonolimError",),
    "families": (
        "FamilySpec", "MaxPowerSpec", "PowerSpec", "ProductSpec", "SaturationSpec",
        "SymbolicSpec", "TableSpec", "ValuationSpec", "log_exponent",
        "sigma_exponent", "sigma_multiplier", "verify_filtration", "verify_graded"),
    "lattice": (
        "INFINITE", "AmbientRing", "MonomialIdeal", "MonomialModule",
        "containment_order", "format_ideal", "length_mod_power", "minimalize",
        "parse_ideal", "rel_length"),
    "roots": (),
    "semigroup": (
        "SemigroupLevels", "SemigroupPredicate", "enumerate_levels",
        "lattice_invariants", "okounkov_body", "semigroup_limit_check"),
}

# Each public name to the submodule it lives in; the submodules' own names
# are public too.
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
