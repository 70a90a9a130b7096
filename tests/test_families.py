"""Family constructors, exponent sequences, and the graded/filtration checks."""

import itertools
import math
import random
from fractions import Fraction
from math import comb

import pytest
from conftest import (
    oracle_colength,
    oracle_covol,
    oracle_valuation_length,
    oracle_valuation_member,
    timed,
    valuation_specs,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monolim import (
    INFINITE,
    AmbientRing,
    ConvexRegion,
    LengthSequence,
    MaxPowerSpec,
    MonomialIdeal,
    MonomialModule,
    PowerSpec,
    ProductSpec,
    SaturationSpec,
    SymbolicSpec,
    TableSpec,
    ValuationSpec,
    containment_order,
    hull_region,
    length_sequence,
    log_exponent,
    parse_ideal,
    region,
    rel_length,
    sigma_exponent,
    sigma_multiplier,
    verify_filtration,
    verify_graded,
)
from monolim.errors import (
    DimensionMismatchError,
    FamilyRangeError,
    FamilySpecError,
    InclusionError,
    InputError,
    MonolimError,
    RingMismatchError,
)
from monolim.families import FamilySpec, floor_sum
from monolim.reportio import parse_family_spec
from monolim.semigroup import _floor_runs


def test_sigma_multiplier_values():
    assert sigma_multiplier(1) == 2
    assert sigma_multiplier(3) == 2
    assert sigma_multiplier(4) == Fraction(3, 2)
    assert sigma_multiplier(16) == Fraction(5, 4)
    assert sigma_multiplier(255) == Fraction(5, 4)
    assert sigma_multiplier(256) == Fraction(9, 8)
    assert sigma_multiplier(65535) == Fraction(9, 8)
    assert sigma_multiplier(65536) == Fraction(17, 16)


def test_sigma_exponents():
    assert [sigma_exponent(m) for m in range(1, 6)] == [2, 4, 6, 6, 8]
    assert sigma_exponent(15) == 23 and sigma_exponent(16) == 20
    assert sigma_exponent(255) == 319 and sigma_exponent(256) == 288
    assert sigma_exponent(65535) == 73727 and sigma_exponent(65536) == 69632


def test_sigma_multiplier_monotone_in_range():
    values = [sigma_multiplier(m) for m in range(1, 300)]
    assert all(1 <= v <= 2 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_log_exponents():
    assert [log_exponent(n) for n in (2, 4, 8)] == [3, 6, 11]
    assert log_exponent(0) == 0 and log_exponent(1) == 2


def test_log_offset_bracket():
    # floor(log2 n) bracket for n >= 2
    import math
    for n in range(2, 2000):
        a = log_exponent(n) - n
        assert math.log2(n) - 1 <= a <= math.log2(n)


def test_power_family(R2):
    fam = PowerSpec(parse_ideal(R2, "x, y"))
    assert fam.member_ideal(0).is_unit
    assert fam.member_ideal(3) == parse_ideal(R2, "x, y") ** 3
    assert verify_graded(fam, 12).passed
    assert verify_filtration(fam, 12).passed


def test_power_member_example(R2):
    fam = PowerSpec(parse_ideal(R2, "x^2, x*y"))
    assert fam.member_ideal(2) == parse_ideal(R2, "x^4, x^3*y, x^2*y^2")


def test_maxpower_lengths_match_members(R2, R3):
    for ring in (R2, R3):
        fam = MaxPowerSpec(ring, "log")
        for n in (0, 1, 2, 5, 9):
            assert fam.length(n) == fam.member_ideal(n).colength()
        fam = MaxPowerSpec(ring, "sigma")
        for n in (15, 16, 255, 256):
            assert fam.length(n) == fam.member_ideal(n).colength()
        for n in (15, 16):
            assert fam.length(n) == oracle_colength(fam.member_ideal(n))


def test_valuation_member_example(R2):
    fam = ValuationSpec.make(R2, [((2, 1), 2)])
    assert fam.member_ideal(3).gens == ((3, 0), (2, 2), (1, 4), (0, 6))


def test_valuation_length_matches_colength(R2):
    rng = random.Random(55)
    for _ in range(25):
        weights = tuple(Fraction(rng.randint(0, 3)) for _ in range(2))
        if not any(weights):
            weights = (Fraction(1), Fraction(2))
        fam = ValuationSpec.make(
            R2, [(weights, Fraction(rng.randint(1, 3)))])
        for n in (1, 2, 5):
            assert fam.length(n) == fam.member_ideal(n).colength()


def test_valuation_three_dim_member():
    R3 = AmbientRing.default(3)
    fam = ValuationSpec.make(R3, [((1, 1, 1), 1)])
    assert fam.member_ideal(2) == MonomialIdeal.maximal_power(R3, 2)


def test_valuation_is_graded_and_filtration(R2):
    fam = ValuationSpec.make(R2, [((2, 1), 2), ((1, 3), 1)])
    assert verify_graded(fam, 10).passed
    assert verify_filtration(fam, 10).passed


def test_valuation_spec_builds_each_number_once(R2, R3, monkeypatch):
    # parsing makes one Fraction per number; the spec converts none of them
    # again and scales each constraint from numerators and denominators
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    cases = (  # ring, text and its count of numbers, constraints, scaled, label
        (R3, "valuation(2,1,1 >= 2; 1,3,1 >= 1)", 8, [((2, 1, 1), 2), ((1, 3, 1), 1)],
         (((2, 1, 1), 2), ((1, 3, 1), 1)), "valuation((2,1,1)>=2; (1,3,1)>=1)"),
        (R2, "valuation(1/2,1 >= 1; 2/3,3/4 >= 5/6)", 6,
         [((Fraction(1, 2), 1), 1), ((Fraction(2, 3), Fraction(3, 4)), Fraction(5, 6))],
         (((1, 2), 2), ((8, 9), 10)), "valuation((1/2,1)>=1; (2/3,3/4)>=5/6)"),
    )
    for ring, text, count, constraints, scaled, label in cases:
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        made.clear()
        spec = parse_family_spec(ring, text)
        monkeypatch.undo()
        assert len(made) <= count
        assert spec._scaled == scaled
        assert spec.label() == label
        assert spec == ValuationSpec.make(ring, constraints)
        assert hash(spec) == hash(ValuationSpec.make(ring, constraints))


def test_valuation_rejects_bad_weights(R2):
    with pytest.raises(FamilySpecError):
        ValuationSpec.make(R2, [((-1, 2), 1)])
    with pytest.raises(FamilySpecError):
        ValuationSpec.make(R2, [((0, 0), 1)])
    with pytest.raises(FamilySpecError):
        ValuationSpec.make(R2, [((1, 1), -2)])


def test_saturation_family(R2, R3):
    fam = SaturationSpec(parse_ideal(R2, "x^2, x*y"))
    assert fam.label() == "saturation(x*y, x^2)"
    assert fam.member_ideal(5) == parse_ideal(R2, "x^5")
    assert verify_graded(fam, 10).passed
    # x^n (x, y, z)^n saturates to x^n; x*y*z*(x, y, z) to (x*y*z)^n
    for text, member in (("x^2, x*y, x*z", "x^{n}"),
                         ("x^2*y*z, x*y^2*z, x*y*z^2", "x^{n}*y^{n}*z^{n}")):
        fam = SaturationSpec(parse_ideal(R3, text))
        for n in range(1, 6):
            assert fam.member_ideal(n) == parse_ideal(R3, member.format(n=n))
        assert verify_graded(fam, 8).passed
    with pytest.raises(FamilySpecError, match="saturation family needs a nonzero ideal"):
        SaturationSpec(MonomialIdeal.zero(R2))


def test_symbolic_family(R2):
    # x^n(x,y)^n : x^inf saturates all the way to the unit ideal
    fam = SymbolicSpec(parse_ideal(R2, "x^2, x*y"), parse_ideal(R2, "x"))
    assert fam.member_ideal(3).is_unit
    assert verify_graded(fam, 10).passed
    # against a genuinely two-component ideal the x-primary part is stripped
    fam2 = SymbolicSpec(parse_ideal(R2, "x^2, x*y"), parse_ideal(R2, "y"))
    assert fam2.member_ideal(2) == parse_ideal(R2, "x^2")


def test_product_family(R2):
    F = PowerSpec(parse_ideal(R2, "x, y^2"))
    G = PowerSpec(parse_ideal(R2, "x^2, y"))
    fam = ProductSpec(F, G)
    assert fam.member_ideal(1) == parse_ideal(R2, "x^3, x*y, y^3")
    assert verify_graded(fam, 8).passed


def test_table_family(R2):
    fam = TableSpec((MonomialIdeal.unit(R2),
                     parse_ideal(R2, "x"),
                     parse_ideal(R2, "x^3")))
    report = verify_graded(fam, 2)
    assert not report.passed and report.first_violation == (1, 1)
    with pytest.raises(FamilyRangeError):
        fam.member_ideal(3)
    with pytest.raises(FamilySpecError):
        TableSpec((parse_ideal(R2, "x"),))


def test_sigma_family_checks(R2):
    fam = MaxPowerSpec(R2, "sigma")
    assert verify_graded(fam, 64).passed
    report = verify_filtration(fam, 20)
    assert not report.passed and report.first_violation == (15, 16)


def test_log_family_checks(R2):
    fam = MaxPowerSpec(R2, "log")
    assert verify_graded(fam, 64).passed
    assert verify_filtration(fam, 100).passed


def test_builtin_specs_are_graded(R2):
    specs = [
        PowerSpec(parse_ideal(R2, "x^2, x*y")),
        MaxPowerSpec(R2, "sigma"),
        MaxPowerSpec(R2, "log"),
        ValuationSpec.make(R2, [((1, 2), 2)]),
        SymbolicSpec(parse_ideal(R2, "x^2, x*y"), parse_ideal(R2, "x")),
        SaturationSpec(parse_ideal(R2, "x^3, x*y")),
        ProductSpec(PowerSpec(parse_ideal(R2, "x, y")),
                    MaxPowerSpec(R2, "log")),
    ]
    for spec in specs:
        N = 64 if isinstance(spec, MaxPowerSpec) else 10
        assert verify_graded(spec, N).passed, spec.label()


def test_verification_details(R2):
    graded = verify_graded(MaxPowerSpec(R2, "table", (1, 1, 3)), 3)
    assert (graded.passed, graded.first_violation, graded.detail) == \
        (False, (1, 2), "exponent 1+1 < 3")
    filt = verify_filtration(MaxPowerSpec(R2, "table", (2, 1)), 2)
    assert (filt.passed, filt.first_violation, filt.detail) == \
        (False, (1, 2), "exponent drops 2 -> 1")
    fam = MaxPowerSpec(R2, "sigma")
    assert verify_graded(fam, 64).passed
    assert fam._members == {}  # exponents alone decide; no member is built
    fam = ValuationSpec.make(R2, [((2, 1), 2), ((1, 3), 1)])
    assert verify_graded(fam, 64).passed and verify_filtration(fam, 64).passed
    assert fam._members == {}  # linear weights decide; no member is built
    def table(*texts):
        return TableSpec(tuple(parse_ideal(R2, t) for t in texts))

    graded = verify_graded(table("1", "x", "x^3"), 2)
    assert (graded.passed, graded.first_violation, graded.detail) == \
        (False, (1, 1), "generator product (2, 0) escapes I_2")
    filt = verify_filtration(table("1", "x^2", "x"), 2)
    assert (filt.passed, filt.first_violation, filt.detail) == \
        (False, (1, 2), "I_2 is not inside I_1")


def test_the_memo_stays_outside_equality_hash_and_repr(R2):
    I = parse_ideal(R2, "x^3, x*y, y^2")
    used, fresh = PowerSpec(I), PowerSpec(I)
    assert used.length(5) == (I ** 5).colength() and used.member_ideal(5) == I ** 5
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert used._members and not fresh._members


def _values():
    """A builder of one value of each frozen value type, with the repr that
    the generated dataclass methods gave it."""
    R = AmbientRing(2, ("x", "y"))
    m, J = parse_ideal(R, "x, y"), parse_ideal(R, "x^2, y")
    r = "AmbientRing(d=2, var_names=('x', 'y'))"
    rm, rJ = (f"MonomialIdeal(ring={r}, gens={g})"
              for g in ("((0, 1), (1, 0))", "((0, 1), (2, 0))"))
    return [
        (lambda: AmbientRing(2, ("x", "y")), r),
        (lambda: parse_ideal(R, "x, y"), rm),
        (lambda: MonomialModule(R, (m, J)), f"MonomialModule(ring={r}, components=({rm}, {rJ}))"),
        (lambda: region(2, [((2, 1), 2)]),
         "ConvexRegion(dim=2, halfspaces=(((2, 1), Fraction(2, 1)),))"),
        (lambda: LengthSequence(((1, 2), (2, 7)), 2),
         "LengthSequence(entries=((1, 2), (2, 7)), degree=2)"),
        (lambda: PowerSpec(J), f"PowerSpec(ideal={rJ})"),
        (lambda: MaxPowerSpec(R, "sigma"), f"MaxPowerSpec(ring={r}, kind='sigma', table=())"),
        (lambda: ValuationSpec.make(R, [((Fraction(1, 2), 1), 1)]),
         f"ValuationSpec(ring={r}, constraints=(((Fraction(1, 2), Fraction(1, 1)), "
         "Fraction(1, 1)),))"),
        (lambda: SymbolicSpec(J, m), f"SymbolicSpec(ideal={rJ}, aux={rm})"),
        (lambda: SaturationSpec(J), f"SaturationSpec(ideal={rJ}, aux={rm})"),
        (lambda: ProductSpec(PowerSpec(m), PowerSpec(J)),
         f"ProductSpec(left=PowerSpec(ideal={rm}), right=PowerSpec(ideal={rJ}))"),
        (lambda: TableSpec((MonomialIdeal.unit(R), m)),
         f"TableSpec(ideals=(MonomialIdeal(ring={r}, gens=((0, 0),)), {rm}))"),
    ]


def test_values_compare_hash_and_print_by_their_fields_alone():
    for build, text in _values():
        used, fresh = build(), build()
        if isinstance(used, (FamilySpec, MonomialIdeal)):  # memoize on one side
            used.length(1) if isinstance(used, FamilySpec) else used.pure_powers()
            assert len(vars(used)) > len(vars(fresh))
        assert repr(used) == repr(fresh) == text
        assert used == fresh and hash(used) == hash(fresh) and not used != fresh
        field = next(iter(vars(fresh)))  # the first field
        for change in (lambda: setattr(used, field, None),
                       lambda: setattr(used, "new", None),
                       lambda: delattr(used, field)):
            with pytest.raises(AttributeError):
                change()
        assert getattr(used, field) == getattr(fresh, field)
    R = AmbientRing(d=2, var_names=("x", "y"))
    J = parse_ideal(R, "x^2, y")
    # a subclass is never equal to its parent, whatever the fields
    assert SaturationSpec(J) != SymbolicSpec(J, MonomialIdeal.maximal(R))
    assert SymbolicSpec(J, MonomialIdeal.maximal(R)) != SaturationSpec(J)
    # keywords, the class-attribute default, and vertices outside equality
    assert R == AmbientRing(2, ("x", "y")) and MaxPowerSpec(R, "log").table == ()
    assert MonomialIdeal(gens=J.gens, ring=R) == J
    assert MaxPowerSpec(R, kind="table", table=(1, 2)) == MaxPowerSpec(R, "table", (1, 2))
    square = region(2, [((1, 0), 1), ((0, 1), 1)])
    assert square.vertices == ((1, 1),)
    bare = ConvexRegion(dim=2, halfspaces=square.halfspaces, vertices=())
    assert bare == square and hash(bare) == hash(square)
    for bad in (lambda: AmbientRing(2), lambda: AmbientRing(2, ("x", "y"), 3),
                lambda: AmbientRing(2, ("x", "y"), names=()),
                lambda: AmbientRing(2, d=2)):
        with pytest.raises(TypeError):
            bad()


def test_validation_errors_keep_their_class_and_message():
    R, R3 = AmbientRing.default(2), AmbientRing.default(3)
    I, J, x3 = parse_ideal(R, "x^2, y"), parse_ideal(R, "x, y"), parse_ideal(R3, "x")
    zero, unit = MonomialIdeal.zero(R), MonomialIdeal.unit(R)
    cases = [
        (lambda: AmbientRing(0, ()), InputError, "ring dimension must be >= 1"),
        (lambda: AmbientRing(2, ("x",)), InputError, "need exactly one name per variable"),
        (lambda: AmbientRing(2, ("x", "x")), InputError, "variable names must be distinct"),
        (lambda: MonomialModule(R, ()), MonolimError, "module needs at least one free generator"),
        (lambda: MonomialModule(R, (x3,)), RingMismatchError, "component ideal in a different ring"),
        (lambda: LengthSequence(((2, 1), (1, 1)), 2), MonolimError,
         "sample indices must be strictly increasing"),
        (lambda: LengthSequence(((1, 3), (2, 3)), 0), MonolimError,
         "normalization degree must be >= 1"),
        (lambda: PowerSpec(zero), FamilySpecError, "power family needs a nonzero ideal"),
        (lambda: MaxPowerSpec(R, "cube"), FamilySpecError, "unknown exponent sequence 'cube'"),
        (lambda: MaxPowerSpec(R, "table", (1, -1)), FamilySpecError,
         "table exponents must be nonnegative"),
        (lambda: ValuationSpec(R, ()), FamilySpecError,
         "valuation family needs at least one constraint"),
        (lambda: ValuationSpec.make(R, [((1,), 1)]), FamilySpecError,
         "weight vector has wrong length"),
        (lambda: ValuationSpec.make(R, [((0, 0), 1)]), FamilySpecError,
         "weights must be nonnegative and not all zero"),
        (lambda: ValuationSpec.make(R, [((1, -1), 1)]), FamilySpecError,
         "weights must be nonnegative and not all zero"),
        (lambda: ValuationSpec.make(R, [((1, 1), -1)]), FamilySpecError,
         "thresholds must be nonnegative"),
        (lambda: SymbolicSpec(zero, J), FamilySpecError, "symbolic family needs nonzero ideals"),
        (lambda: SymbolicSpec(I, x3), FamilySpecError, "ideals live in different rings"),
        (lambda: SaturationSpec(zero), FamilySpecError, "saturation family needs a nonzero ideal"),
        (lambda: ProductSpec(PowerSpec(I), PowerSpec(x3)), FamilySpecError,
         "factors live in different rings"),
        (lambda: TableSpec(()), FamilySpecError, "table family needs ideals"),
        (lambda: TableSpec((I,)), FamilySpecError, "table entry 0 must be the unit ideal"),
        (lambda: TableSpec((unit, x3)), FamilySpecError, "table entries live in different rings"),
    ]
    for build, cls, message in cases:
        with pytest.raises(MonolimError) as info:
            build()
        assert (type(info.value), str(info.value)) == (cls, message)


def test_power_members_in_order_take_one_power(R2, monkeypatch):
    calls = []
    power = MonomialIdeal.power

    def counting_power(self, k):
        calls.append(k)
        return power(self, k)

    monkeypatch.setattr(MonomialIdeal, "power", counting_power)
    I = parse_ideal(R2, "x^3, x*y, y^2")
    fam = PowerSpec(I)
    members = [fam.member_ideal(n) for n in range(1, 11)]
    # I_1 is I itself and each later member one product: no fresh power
    assert calls == []
    monkeypatch.undo()
    assert members == [I ** n for n in range(1, 11)]


def test_product_of_powers_steps_each_factor_once(R2, monkeypatch):
    I, J = parse_ideal(R2, "x, y^2"), parse_ideal(R2, "x^2, y")
    N = 100
    calls = []
    multiply = MonomialIdeal.multiply

    def counting_multiply(self, other):
        calls.append(1)
        return multiply(self, other)

    monkeypatch.setattr(MonomialIdeal, "multiply", counting_multiply)
    monkeypatch.setattr(MonomialIdeal, "__mul__", counting_multiply)
    fam = ProductSpec(PowerSpec(I), PowerSpec(J))
    lengths = dict(length_sequence(fam, N).entries)
    assert len(calls) <= 3 * N
    monkeypatch.undo()
    for n in (1, 2, 3, 17, 64, N):
        assert lengths[n] == (I.power(n) * J.power(n)).colength()
    for n in range(1, 8):
        assert lengths[n] == oracle_colength(fam.member_ideal(n))


def test_symbolic_and_saturation_powers_step_once(R3, monkeypatch):
    I, J = parse_ideal(R3, "x^2, y^3, z^2, x*y*z"), parse_ideal(R3, "x, y")
    N = 20
    calls = []
    multiply = MonomialIdeal.multiply

    def counting_multiply(self, other):
        calls.append(1)
        return multiply(self, other)

    cases = ((SymbolicSpec(I, J), lambda n: I.power(n).saturate(J)),
             (SaturationSpec(I), lambda n: I.power(n).saturation()))
    for fam, oracle in cases:
        calls.clear()
        monkeypatch.setattr(MonomialIdeal, "multiply", counting_multiply)
        monkeypatch.setattr(MonomialIdeal, "__mul__", counting_multiply)
        lengths = {}
        for n in range(1, N + 1):
            length = fam.length(n)
            member = fam.member_ideal(n)
            lengths[n] = rel_length(member.saturation(), member) \
                if length == INFINITE else length
        assert len(calls) <= N
        monkeypatch.undo()
        for n in range(1, N + 1):
            member = oracle(n)
            assert fam.member_ideal(n) == member
            expected = member.colength()
            if expected == INFINITE:
                expected = rel_length(member.saturation(), member)
            assert lengths[n] == expected


def test_zero_power_family_rejected(R2):
    with pytest.raises(FamilySpecError):
        PowerSpec(MonomialIdeal.zero(R2))


def test_family_length_infinite_for_nonprimary(R2):
    fam = PowerSpec(parse_ideal(R2, "x^2, x*y"))
    assert fam.length(2) == INFINITE
    member = fam.member_ideal(2)
    assert rel_length(member.saturation(), member) == 3


# -- integer valuation kernels against the Fraction oracles ---------------------


@settings(max_examples=180, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(valuation_specs))
# slices past x = 0 drop the first row in d = 3 and d = 4, leaving the
# shared d = 2 count fewer rows than the family has
@example(ValuationSpec.make(AmbientRing.default(3), [((3, 1, 1), 1), ((1, 1, 1), 2)]))
@example(ValuationSpec.make(AmbientRing.default(4),
                            [((2, 1, 1, 1), 1), ((1, Fraction(1, 2), 1, 2), 2)]))
def test_valuation_kernels_match_the_oracles(spec):
    # the d = 3 and d = 4 oracles scan a box of side O(n)
    for n in range({2: 7, 3: 4, 4: 2}[spec.ring.d]):
        assert spec.member(n).gens == oracle_valuation_member(spec, n).gens
        if n:
            assert spec.colength(n) == oracle_valuation_length(spec, n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3, 4]).flatmap(valuation_specs), st.integers(0, 4))
@example(ValuationSpec.make(AmbientRing.default(3), [((0, Fraction(1, 2), 1), Fraction(3, 2)),
                                                    ((1, 0, 0), 0)]), 2)
@example(ValuationSpec.make(AmbientRing.default(4), [((1, 0, 2, 0), 1), ((0, 3, 0, 1), 2)]), 3)
def test_valuation_member_is_the_minimalized_column_floors(spec, n):
    floors = spec.column_floors(n)
    assert spec.member(n) == MonomialIdeal.from_gens(
        spec.ring, [(*col, floor) for col, floor in floors.items()])


@st.composite
def _families(draw):
    """A valuation family (``valuation_specs``) or a power family, in d = 2 or 3."""
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        return draw(valuation_specs(d))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=4))
    return PowerSpec(MonomialIdeal.from_gens(AmbientRing.default(d), gens))


@settings(max_examples=150, deadline=None)
@given(_families(), st.data())
def test_family_contains_matches_the_member(fam, data):
    d = fam.ring.d
    point = st.tuples(*[st.integers(0, 12)] * d)
    for n in range(4):
        member = fam.member_ideal(n)
        # generators and their one-step predecessors sit on the boundary
        near = [g[:k] + (g[k] - 1,) + g[k + 1:]
                for g in member.gens[:6] for k in range(d) if g[k]]
        for a in data.draw(st.lists(point, max_size=10)) + list(member.gens) + near:
            assert fam.contains(a, n) == member.contains(a)
    with pytest.raises(DimensionMismatchError):
        fam.contains((1,) * (d + 1), 1)


def _same_floor_runs(floors, member):
    """Whether a listing of column floors gives the level runs of the
    listing of the member's generators, in a simplex past their box."""
    gens, p = member.gens, member.ring.d - 1
    cap = sum(map(max, zip(*gens))) + 2
    return _floor_runs(floors, p, cap) == _floor_runs({g[:-1]: g[-1] for g in gens}, p, cap)


@st.composite
def _listed_families(draw):
    """A power, valuation, product or table family (entries 0, 1 and 2) in
    d = 1, 2, 3 or 4; exponents are smaller in d = 4."""
    d = draw(st.sampled_from([1, 2, 3, 4]))
    ring = AmbientRing.default(d)
    ideals = st.lists(st.tuples(*[st.integers(0, 2 if d == 4 else 3)] * d),
                      min_size=1, max_size=4).map(lambda g: MonomialIdeal.from_gens(ring, g))
    factor = st.one_of(ideals.map(PowerSpec), valuation_specs(d))
    table = st.tuples(ideals, ideals).map(lambda I: TableSpec((MonomialIdeal.unit(ring), *I)))
    return draw(st.one_of(factor, st.builds(ProductSpec, factor, factor), table))


@settings(max_examples=150, deadline=None)
@given(_listed_families())
def test_column_floors_are_the_least_listed_at_or_below_each_column(fam):
    # over a box two steps past the listing and I_n's generators, the least
    # floor listed at or below a column is the least t with col + (t,) in
    # I_n, or None for an empty column
    for n in range(3):
        floors, member = fam.column_floors(n), fam.member_ideal(n)
        tops = [max(c) for c in zip(*floors, *(g[:-1] for g in member.gens))]
        span = range(max(g[-1] for g in member.gens) + 1)
        for col in itertools.product(*(range(t + 3) for t in tops)):
            listed = [f for key, f in floors.items() if all(map(int.__le__, key, col))]
            assert min(listed, default=None) == \
                next((t for t in span if member.contains(col + (t,))), None)


def test_default_column_floors_list_each_generator_once():
    # one floor per generator of I_n, in d = 3: no box of columns is built
    fam = PowerSpec(parse_ideal(AmbientRing.default(3), "x^4, y^3, z^5, x*y*z"))
    for n in (1, 2, 3):
        gens = fam.member_ideal(n).gens
        assert len(fam.column_floors(n)) == len(gens)
        assert sorted(col + (f,) for col, f in fam.column_floors(n).items()) == sorted(gens)


@settings(max_examples=60, deadline=None)
@given(valuation_specs(4))
def test_valuation_length_matches_colength_4d(fam):
    for n in (1, 2):
        box = oracle_colength(fam.member_ideal(n))
        assert fam.length(n) == fam.member_ideal(n).colength() == \
            (INFINITE if box is None else box)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(1, 30), st.integers(-60, 60),
       st.integers(-60, 60))
def test_floor_sum_matches_the_direct_sum(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def _declared_specs(d):
    """Power, symbolic, saturation and valuation families in d variables, and
    products of two of them: the families that are graded filtrations by
    definition."""
    ideals = st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=3).map(
        lambda gens: MonomialIdeal.from_gens(AmbientRing.default(d), gens))
    factor = st.one_of(ideals.map(PowerSpec), st.builds(SymbolicSpec, ideals, ideals),
                       ideals.map(SaturationSpec), valuation_specs(d))
    return st.one_of(factor, st.builds(ProductSpec, factor, factor))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(_declared_specs), st.integers(0, 6))
def test_declared_families_pass_the_checks_unwalked(spec, N):
    factors = (spec.left, spec.right) if isinstance(spec, ProductSpec) else ()
    assert spec.graded_filtration
    graded, filt = verify_graded(spec, N), verify_filtration(spec, N)
    assert not any(F._members for F in (spec, *factors))
    for report, walk in ((graded, FamilySpec.graded_violation),
                         (filt, FamilySpec.filtration_violation)):
        violation = walk(spec, N)
        assert report == (violation is None, N, *(violation or (None, "")))


def test_graded_filtration_is_a_class_declaration(R2):
    power = PowerSpec(parse_ideal(R2, "x, y"))
    declared = [power, ValuationSpec.make(R2, [((1, 2), 2)]),
                SymbolicSpec(parse_ideal(R2, "x^2, x*y"), parse_ideal(R2, "x")),
                SaturationSpec(parse_ideal(R2, "x^3, x*y")),
                ProductSpec(power, ValuationSpec.make(R2, [((1, 1), 1)]))]
    walked = [MaxPowerSpec(R2, "log"), TableSpec((MonomialIdeal.unit(R2),)),
              ProductSpec(power, MaxPowerSpec(R2, "sigma")),
              ProductSpec(TableSpec((MonomialIdeal.unit(R2),)), power)]
    assert all(F.graded_filtration for F in declared)
    assert not any(F.graded_filtration for F in walked)
    for cls in (FamilySpec, PowerSpec, SymbolicSpec, ValuationSpec, ProductSpec):
        assert "graded_filtration" not in cls._fields
    with pytest.raises(AttributeError):
        power.graded_filtration = False
    with pytest.raises(TypeError):
        PowerSpec(power.ideal, graded_filtration=False)


@st.composite
def _primary_ideals(draw, d=None):
    """A primary ideal in d (by default 1 or 2): pure powers plus up to
    three more generators, integrally closed or not."""
    d = d or draw(st.sampled_from([1, 2]))
    gens = [tuple(draw(st.integers(1, 4)) if k == j else 0 for k in range(d))
            for j in range(d)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), max_size=3))
    return MonomialIdeal.from_gens(AmbientRing.default(d), [g for g in gens if any(g)])


@settings(max_examples=150, deadline=None)
@given(_primary_ideals())
def test_power_lengths_match_the_box_count(I):
    fam = PowerSpec(I)
    for n in range(1, 7):
        assert fam.length(n) == oracle_colength(I ** n)


def test_power_lengths_count_the_newton_polygon_when_integrally_closed(R2):
    R1 = AmbientRing.default(1)
    # closed: lengths, membership and column floors build no member
    for ideal in (parse_ideal(R2, "x^3, x*y, y^2"), parse_ideal(R1, "x^5")):
        fam = PowerSpec(ideal)
        assert [fam.length(n) for n in range(1, 9)] == \
            [(ideal ** n).colength() for n in range(1, 9)]
        floors = fam.column_floors(3)
        assert all(fam.contains(tuple(3 * c for c in g), 3) for g in ideal.gens)
        assert not fam.contains((0,) * ideal.ring.d, 3)
        assert fam.closure is not None and fam.closed_form and not fam._members
        assert _same_floor_runs(floors, fam.member_ideal(3))
    # x*y and x*y^2 lie in the closures.  x^2, y^2 is its own reduction, and
    # x^4, x^2*y, y^3 has reduction number one with no monomial reduction:
    # their lengths come from the closed form, which reads I^2 only.
    # x^4, x^3*y, y^4 has a larger reduction number: each length builds its
    # member
    for text, closed_form in (("x^2, y^2", (4, 4)), ("x^4, x^2*y, y^3", (10, 8))):
        fam = PowerSpec(parse_ideal(R2, text))
        assert fam.length(3) == (fam.ideal ** 3).colength()
        assert fam.closure is None and fam.closed_form == closed_form
        assert list(fam._members) == [2]
    fam = PowerSpec(parse_ideal(R2, "x^4, x^3*y, y^4"))
    assert fam.length(3) == (fam.ideal ** 3).colength()
    assert fam.closure is None and fam.closed_form is None and 3 in fam._members
    # not primary, d = 3, and the unit ideal (whose hull has no facet): the
    # member walk
    for fam in (PowerSpec(parse_ideal(R2, "x^2, x*y")),
                PowerSpec(parse_ideal(AmbientRing.default(3), "x, y, z")),
                PowerSpec(parse_ideal(R2, "1"))):
        assert fam.closure is None
    assert PowerSpec(parse_ideal(R2, "1")).length(4) == 0


def test_power_lengths_at_huge_exponents(R2):
    E = 10 ** 7
    fam = PowerSpec(parse_ideal(R2, f"x^{E}, y^{E}, x*y"))
    assert timed(lambda: [fam.length(n) for n in (1, 2, 3)]) == \
        [2 * E - 1, 6 * E - 2, 12 * E - 3]


def _pure_powers_reduce(I):
    """Whether the pure powers J of a primary I are a reduction (NP(J) =
    NP(I), in fractions) with I^2 = J * I: a monomial reduction of number
    one."""
    pure = I.pure_powers()
    J = MonomialIdeal.from_gens(I.ring, [
        tuple(a if k == j else 0 for k in range(len(pure))) for j, a in enumerate(pure)])
    return all(sum(Fraction(c, a) for c, a in zip(g, pure)) >= 1 for g in I.gens) \
        and I * I == J * I


@st.composite
def _mixed_primary_ideals(draw, d):
    """Pure powers x_j^a_j, 2 <= a_j <= 4 (3 in d >= 4), and one to three
    more generators inside their box, so that no pure power divides them."""
    pure = [draw(st.integers(2, 3 if d > 3 else 4)) for _ in range(d)]
    gens = [tuple(a if k == j else 0 for k in range(d)) for j, a in enumerate(pure)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, a - 1) for a in pure]).filter(any),
                          min_size=1, max_size=3))
    return MonomialIdeal.from_gens(AmbientRing.default(d), gens)


def _reduction_number_one(I):
    """The length identity l(R/I^2) = e + d * l(R/I), on the box counts and
    the Fraction covolume."""
    d = I.ring.d
    e = math.factorial(d) * oracle_covol(hull_region(I))
    return oracle_colength(I * I) == e + d * oracle_colength(I)


def _check_closed_form_lengths(I, N):
    """The closed form exists iff the length identity holds, and lengths
    n < N equal the member walk and the box count."""
    fam = PowerSpec(I)
    assert (fam.closed_form is not None) == _reduction_number_one(I)
    member = I
    for n in range(1, N):
        assert fam.length(n) == member.colength() == oracle_colength(member)
        member = member * I
    return fam


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 5).flatmap(_mixed_primary_ideals))
def test_closed_form_power_lengths_match_the_walk_and_the_box_count(I):
    # the identity holds on most draws, and on every monomial reduction of
    # number one; the rest fall back to the d <= 2 closure or the member walk
    if _pure_powers_reduce(I):
        assert PowerSpec(I).closed_form is not None
    _check_closed_form_lengths(I, {2: 7, 3: 5, 4: 3, 5: 2}[I.ring.d])


@pytest.mark.parametrize("d, text, closed_form", [
    (2, "x^4, x^2*y, y^3", (10, 8)),
    (3, "x^4, y^4, z^4, x*y^2", (48, 40)),
    (4, "w^2, y^2, x*z, z^3, x^4", (28, 24)),
])
def test_closed_form_without_a_monomial_reduction(d, text, closed_form):
    # x^2*y, x*y^2 and x*z lie below the pure powers' simplex, so J is no
    # reduction; I^2 = K * I for a reduction K that is not monomial
    fam = _check_closed_form_lengths(parse_ideal(AmbientRing.default(d), text), 7 - d)
    assert fam.closed_form == closed_form and list(fam._members) == [2]


@st.composite
def _ideals_below_the_simplex(draw, d):
    """Pure powers x_j^a_j, 2 <= a_j <= 4 (3 in d = 4), one generator g with
    sum_j g_j / a_j < 1, so that the pure powers are no reduction, and up to
    two more generators inside their box."""
    pure = [draw(st.integers(2, 3 if d > 3 else 4)) for _ in range(d)]
    box = st.tuples(*[st.integers(0, a - 1) for a in pure]).filter(any)
    below = box.filter(lambda g: sum(Fraction(c, a) for c, a in zip(g, pure)) < 1)
    gens = [tuple(a if k == j else 0 for k in range(d)) for j, a in enumerate(pure)]
    gens += [draw(below), *draw(st.lists(box, max_size=2))]
    return MonomialIdeal.from_gens(AmbientRing.default(d), gens)


@settings(max_examples=90, deadline=None)
@given(st.integers(2, 4).flatmap(_ideals_below_the_simplex))
def test_closed_form_holds_without_a_monomial_reduction(I):
    _check_closed_form_lengths(I, 7 - I.ring.d)


@settings(max_examples=150, deadline=None)
@given(_primary_ideals(2))
def test_closed_power_families_have_the_closed_form(I):
    # integrally closed in d = 2 gives reduction number at most one
    # (Lipman-Teissier)
    fam = PowerSpec(I)
    if fam.closure is not None:
        assert fam.closed_form is not None
        assert [fam.length(n) for n in range(1, 6)] == \
            [fam.closure.length(n) for n in range(1, 6)]
        assert not fam._members


def test_closed_form_declines_above_reduction_number_one(R2, R3):
    for ring, text, builds_square in (
            (R2, "x^4, x^3*y, y^4", True),  # x^6*y^2 is in I^2, not in J * I
            (R3, "x^3, y^3, z^3, x^2*y, x*y*z", True),  # likewise x^3*y^2*z
            (R3, "x^200, y^200, z^200, x*y*z", True),  # no monomial reduction
            (R2, "x^2, x*y", False),  # not primary
            (R3, "x*y, y*z, x*z", False)):
        fam = PowerSpec(parse_ideal(ring, text))
        assert fam.closure is None and fam.closed_form is None
        assert (2 in fam._members) == builds_square
        I = fam.ideal
        assert [fam.length(n) for n in range(1, 5)] == \
            [(I ** n).colength() for n in range(1, 5)]
        if builds_square and max(I.pure_powers()) < 200:
            # boxes of side 6 and 8: the box count agrees too
            assert fam.length(2) == oracle_colength(I ** 2)
        assert (fam.length(3) == INFINITE) == (not I.is_primary)


def test_closed_form_power_lengths_in_budget(R3):
    # N = 200 lengths of the d = 3 ideal took 13.9 s on the member walk (one
    # product per n over about n^2 generators; Python 3.11, 2-core host)
    fam = PowerSpec(parse_ideal(R3, "x^2, y^3, z^2, x*y*z"))
    lengths = timed(lambda: [fam.length(n) for n in range(1, 201)], 0.5)
    I = fam.ideal
    assert lengths[:6] == [(I ** n).colength() for n in range(1, 7)]
    assert lengths[-1] == 16200600 and fam.closed_form == (12, 10)
    # x*y^2 lies below the pure powers' simplex; the walk took 13.6 s
    fam = PowerSpec(parse_ideal(R3, "x^4, y^4, z^4, x*y^2"))
    lengths = timed(lambda: [fam.length(n) for n in range(1, 201)], 0.5)
    I = fam.ideal
    assert lengths[:4] == [(I ** n).colength() for n in range(1, 5)]
    assert lengths[-1] == 64802400 and fam.closed_form == (48, 40)
    # and the test is exponent-free: at E = 10^7 it passes, and the walk agrees
    E = 10 ** 7
    fam = PowerSpec(parse_ideal(R3, f"x^{E}, y^{E}, z^{E}, x^{E // 2}*y^{E // 2}"))
    lengths = timed(lambda: [fam.length(n) for n in range(1, 301)], 0.5)
    I = fam.ideal
    assert lengths[:3] == [(I ** n).colength() for n in range(1, 4)]
    assert lengths[-1] == E ** 3 * comb(302, 3) - E ** 3 // 4 * comb(301, 2)


@pytest.mark.parametrize("text", [
    "power(x^3, x*y, y^2)",  # closed: answers from its valuation family
    "power(x^2, y^2)",
    "valuation(2,1 >= 2; 1,3 >= 1)",
    "product(power(x, y^2); power(x^2, y))",  # closed
    "product(power(x^2, y^2); power(x, y))",
    "maxpower(table:1,2,5)",
])
def test_negative_family_index_is_refused(R2, text):
    fam = parse_family_spec(R2, text)
    for n in (-1, -4):
        for query in (fam.length, fam.column_floors, lambda n: fam.contains((0, 0), n)):
            with pytest.raises(FamilySpecError, match="nonnegative"):
                query(n)
    assert not fam._lengths


def _factors(d):
    """A valuation family or the power family of a primary ideal; about
    three products of them in ten have a closure."""
    return st.one_of(valuation_specs(d), _primary_ideals(d).map(PowerSpec))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(_factors(d), _factors(d))),
       st.data())
def test_product_closure_matches_the_member_walk(factors, data):
    fam = ProductSpec(*factors)
    d = fam.ring.d
    point = st.tuples(*[st.integers(0, 16)] * d)
    for n in range(7):
        member = fam.member_ideal(n)
        assert fam.length(n) == (member.colength() if n else 0)
        assert _same_floor_runs(fam.column_floors(n), member)
        near = [g[:k] + (g[k] - 1,) + g[k + 1:]
                for g in member.gens[:6] for k in range(d) if g[k]]
        for a in data.draw(st.lists(point, max_size=6)) + list(member.gens) + near:
            assert fam.contains(a, n) == member.contains(a)
    if fam.member_ideal(1).is_primary:
        assert fam.containment_order() == containment_order(fam.member_ideal(1))


def test_product_closure_needs_closed_lattice_vertex_factors(R2):
    R1, R3 = AmbientRing.default(1), AmbientRing.default(3)
    closed = [parse_family_spec(ring, text) for ring, text in (
        (R2, "product(power(x^3, x*y, y^2); power(x, y^2))"),
        (R2, "product(valuation(1,1 >= 2); power(x^2, y))"),
        (R2, "product(valuation(2,1 >= 2; 1,3 >= 1); valuation(1,1 >= 1))"),
        (R1, "product(power(x^2); valuation(1 >= 3))"),
    )]
    for fam in closed:
        assert fam.closure is not None
        assert [fam.length(n) for n in range(1, 7)] == \
            [fam.member_ideal(n).colength() for n in range(1, 7)]
    fallbacks = [parse_family_spec(ring, text) for ring, text in (
        # a rational vertex at (3/4, 3/4)
        (R2, "product(valuation(1,3 >= 3; 3,1 >= 3); power(x, y))"),
        # x*y lies in the closure of x^2, y^2
        (R2, "product(power(x^2, y^2); power(x, y))"),
        # closed lattice-vertex factors, but Zariski's theorem needs d <= 2
        (R3, "product(valuation(1,1,1 >= 1); valuation(2,1,1 >= 2))"),
        # factors with no closure
        (R2, "product(symbolic(x^2, x*y; x); power(x, y))"),
        (R2, "product(table(1 | x, y); power(x, y))"),
        (R2, "product(maxpower(table:1,2,3); power(x, y))"),
    )]
    for fam in fallbacks:
        assert fam.closure is None
    assert fallbacks[0].left.closure is not None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(valuation_specs))
def test_valuation_containment_order_matches_member_1(spec):
    member = spec.member_ideal(1)
    if member.is_primary:
        assert spec.containment_order() == containment_order(spec.member_ideal(1))
    else:
        with pytest.raises(InclusionError):
            spec.containment_order()


def test_valuation_lengths_at_huge_n(R2, R3):
    n = 10 ** 9
    fam = ValuationSpec.make(R2, [((2, 1), 2), ((1, 3), 1)])
    # the column floor is 2n - 2x for x < n
    assert timed(lambda: fam.length(n)) == n * n + n
    fam = ValuationSpec.make(R2, [((1, 1), 1)])
    assert timed(lambda: fam.length(n)) == comb(n + 1, 2)
    n = 10 ** 4
    fam = ValuationSpec.make(R3, [((1, 1, 1), 1)])
    assert timed(lambda: fam.length(n)) == comb(n + 2, 3)


def test_valuation_length_sequences_in_budget(R2, R3):
    fam = ValuationSpec.make(R2, [((2, 1), 2), ((1, 3), 1)])
    seq = timed(lambda: length_sequence(fam, 1000), 0.5)
    assert all(v == n * n + n for n, v in seq.entries)
    fam = ValuationSpec.make(R3, [((2, 1, 1), 2), ((1, 3, 1), 1)])
    seq = timed(lambda: length_sequence(fam, 20))
    for n, v in seq.entries[-3:]:
        assert v == fam.member_ideal(n).colength()


def test_d4_power_lengths_in_budget():
    # a d = 4 family that is not normal, but its pure powers are a reduction
    # with I^2 = J * I: its lengths come from the closed form.  The member
    # walk, whose minimal generators come from the last-axis slices, gives
    # the same lengths in budget too
    I = parse_ideal(AmbientRing.default(4), "x^2, y^3, z^2, w^2, x*y*z*w")
    fam = PowerSpec(I)
    expected = [22, 112, 340, 800, 1610, 2912, 4872, 7680, 11550, 16720, 23452,
                32032, 42770, 56000]
    assert timed(lambda: [fam.length(n) for n in range(1, 15)], 0.5) == expected
    assert fam.closed_form == (24, 22)
    assert timed(lambda: [member.colength() for member in
                          itertools.accumulate([I] * 14, MonomialIdeal.multiply)],
                 0.5) == expected


def test_d4_valuation_members_match_the_box_scan():
    spec = ValuationSpec.make(AmbientRing.default(4),
                              [((1, 2, 3, 1), 4), ((3, 2, 1, 2), 5)])
    for n in range(4):
        assert spec.member(n).gens == oracle_valuation_member(spec, n).gens
