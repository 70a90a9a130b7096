"""Length sequences, limits, difference profiles and the inequality checks."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_estimate_limit,
    oracle_module_multiplicity,
    random_primary_ideal,
    timed,
)
from monolim import (
    AmbientRing,
    LengthSequence,
    MaxPowerSpec,
    MonomialIdeal,
    MonomialModule,
    PowerSpec,
    ValuationSpec,
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
    parse_ideal,
    rel_length,
    symbolic_multiplicity,
    teissier_check,
    volume_equals_multiplicity,
)
from monolim import asymptotics, lattice
from monolim.asymptotics import _module_multiplicity
from monolim.errors import EstimateError, InclusionError, MonolimError, NotPrimaryError
from monolim.lattice import quotient_dim


def test_length_sequence_power_of_maximal(R2):
    fam = PowerSpec(parse_ideal(R2, "x, y"))
    seq = length_sequence(fam, 4)
    assert seq.entries == ((1, 1), (2, 3), (3, 6), (4, 10))


def test_length_sequence_example(R2):
    fam = PowerSpec(parse_ideal(R2, "x^3, x*y, y^2"))
    seq = length_sequence(fam, 2)
    assert seq.entries == ((1, 4), (2, 13))


def test_length_sequence_log_closed_form(R2):
    fam = MaxPowerSpec(R2, "log")
    seq = length_sequence(fam, [8])
    assert dict(seq.entries)[8] == 66


def test_length_sequence_nonprimary_raises(R2):
    fam = PowerSpec(parse_ideal(R2, "x^2, x*y"))
    with pytest.raises(NotPrimaryError):
        length_sequence(fam, 3)
    gaps = epsilon_ideal(fam.ideal, 8).samples.entries
    assert gaps == tuple((n, n * (n + 1) // 2) for n in range(1, 9))


def test_estimate_limit_triangle():
    seq = LengthSequence(tuple((n, n * (n + 1) // 2) for n in range(1, 33)), 2)
    est = estimate_limit(seq)
    assert est.point_estimate == Fraction(1, 2)
    assert est.verdict == "CONVERGED"
    assert est.tail_min <= est.point_estimate <= est.tail_max


def test_estimate_limit_constant_degree_one():
    seq = LengthSequence(tuple((n, 5) for n in range(1, 21)), 1)
    est = estimate_limit(seq)
    assert est.point_estimate == 0
    assert est.verdict == "CONVERGED"


def test_estimate_limit_needs_samples():
    with pytest.raises(EstimateError):
        estimate_limit(LengthSequence(((1, 1), (2, 2)), 1))


def test_length_sequence_rejects_a_negative_index():
    with pytest.raises(MonolimError, match="sample indices must be nonnegative"):
        LengthSequence(((-1, 0), (1, 1)), 1)


@pytest.mark.parametrize("degree", [0, -1])
def test_length_sequence_rejects_a_degree_below_one(degree):
    # a degree-0 fit would weigh the sub-leading term by n ** -1, a float
    with pytest.raises(MonolimError, match="normalization degree must be >= 1"):
        LengthSequence(tuple((n, 3) for n in range(1, 13)), degree)


_TOLS = (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10), Fraction(1, 3))


def _random_sequence(rng: random.Random) -> tuple[LengthSequence, Fraction]:
    """d = 1..4 and 8..60 samples, at n = 1..N or at random n in 0..399:
    signed leading and sub-leading terms scaled by 10^0..10^8, maybe a term
    of degree d + 1 or a parity swing of degree d, and signed noise of
    degree 0..d, so that the fit's residual falls on both sides of its
    threshold; with a tol."""
    d, N = rng.randint(1, 4), rng.randint(8, 60)
    ns = range(1, N + 1) if rng.random() < 0.5 else sorted(rng.sample(range(400), N))
    big = 10 ** rng.randint(0, 8)
    lead, sub = big * rng.randint(-6, 6), big * rng.randint(-30, 30)
    grow, swing = rng.choice((0, 0, 1, -1)), rng.choice((0, 0, 1, 3))
    amp, k = rng.choice((0, 1, 50)), rng.randint(0, d)
    entries = tuple(
        (n, (lead + swing * (n % 2)) * n ** d + sub * n ** (d - 1) + grow * n ** (d + 1)
         + rng.randint(-amp, amp) * n ** k) for n in ns)
    return LengthSequence(entries, d), rng.choice(_TOLS)


def _assert_oracle_estimate(S: LengthSequence, tol) -> str:
    got, want = estimate_limit(S, tol), oracle_estimate_limit(S, tol)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    return got.verdict


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_estimate_limit_matches_the_fraction_oracle(rng):
    _assert_oracle_estimate(*_random_sequence(rng))


def test_estimate_limit_matches_the_fraction_oracle_in_every_verdict():
    rng = random.Random(29)
    verdicts = Counter(_assert_oracle_estimate(*_random_sequence(rng))
                       for _ in range(1500))
    assert set(verdicts) == {"CONVERGED", "OSCILLATING", "DIVERGING", "INCONCLUSIVE"}
    for S in (LengthSequence(tuple((n, 0) for n in range(1, 9)), 2),
              LengthSequence(tuple((n, -(n ** 2) - n % 3) for n in range(3, 40)), 2)):
        for tol in _TOLS + (1, 0):
            _assert_oracle_estimate(S, tol)


def test_estimate_limit_on_20000_samples_within_budget():
    S = LengthSequence(tuple((n, n * (n + 1) // 2 + n % 3) for n in range(1, 20001)), 2)
    assert timed(lambda: estimate_limit(S), 0.03) == oracle_estimate_limit(S)


def test_difference_profile_power(R2):
    fam = PowerSpec(parse_ideal(R2, "x, y"))
    rows = difference_profile(length_sequence(fam, 10))
    assert [r.increase for r in rows] == [Fraction(n + 1, n) for n in range(1, 10)]


def test_difference_profile_sigma_jump(R2):
    fam = MaxPowerSpec(R2, "sigma")
    seq = length_sequence(fam, [15, 16])
    row = difference_profile(seq)[0]
    assert row.decrease == Fraction(22, 5)


def test_difference_profile_log_jumps(R2):
    fam = MaxPowerSpec(R2, "log")
    rows = difference_profile(length_sequence(fam, 130))
    by_n = {r.n: r.increase for r in rows}
    assert abs(by_n[127] - 2) < Fraction(2, 10)
    assert abs(by_n[100] - 1) < Fraction(1, 10)


def test_multiplicity_examples(R2):
    assert exact_multiplicity(parse_ideal(R2, "x, y")) == 1
    assert exact_multiplicity(parse_ideal(R2, "x^2, y^3")) == 6
    report = multiplicity(parse_ideal(R2, "x^3, x*y, y^2"), 64)
    assert report.e_exact == 5
    gap = abs(report.e_numeric.point_estimate - 5) / 5
    assert gap < Fraction(5, 100)
    assert report.e_numeric.tail_min <= report.e_exact <= report.e_numeric.tail_max


def test_multiplicity_requires_primary(R2):
    with pytest.raises(NotPrimaryError):
        multiplicity(parse_ideal(R2, "x^2, x*y"), 16)


def test_multiplicity_high_dimension_exact():
    R4 = AmbientRing.default(4)
    diag = MonomialIdeal.from_gens(
        R4, [tuple(2 if j == i else 0 for j in range(4)) for i in range(4)])
    # the exact covolume is available in every dimension; the sequence
    # estimate converges, if slowly, at this window
    report = multiplicity(diag, 16)
    assert report.e_exact == 16
    assert abs(report.e_numeric.point_estimate - 16) / 16 < Fraction(10, 100)


def test_volume_equals_multiplicity_stationary(R2):
    fam = PowerSpec(parse_ideal(R2, "x^2, y^3"))
    report = volume_equals_multiplicity(fam, 64)
    assert report.multiplicity_side == 6
    assert report.rel_gap < 0.02


def test_teissier_examples(R2):
    m = parse_ideal(R2, "x, y")
    report = teissier_check(m, m)
    assert (report.e_left, report.e_right, report.e_product) == (1, 1, 4)
    assert report.holds and report.equality
    report = teissier_check(parse_ideal(R2, "x, y^2"), parse_ideal(R2, "x^2, y"))
    assert (report.e_left, report.e_right, report.e_product) == (2, 2, 6)
    assert report.holds and not report.equality
    report = teissier_check(parse_ideal(R2, "x^2, y^3"), m)
    assert report.holds


def test_minkowski_family_equality_case(R2):
    fam = PowerSpec(parse_ideal(R2, "x, y"))
    report = minkowski_family_check(fam, fam, 24)
    assert (report.limit_left, report.limit_right) == (Fraction(1, 2), Fraction(1, 2))
    assert report.limit_product == 2
    assert report.holds and report.equality


def test_minkowski_product_reuses_the_factor_members(R2, monkeypatch):
    # The product family reads F's and G's memos, so each factor steps
    # once per n, for the factor's own limit and the product's together.
    # x^2, y^2 and x^2, y^3 are not integrally closed, so the product has
    # no closure and walks the members.
    F, G = PowerSpec(parse_ideal(R2, "x^2, y^2")), PowerSpec(parse_ideal(R2, "x^2, y^3"))
    calls = []
    member = PowerSpec.member

    def counting_member(self, n):
        calls.append(n)
        return member(self, n)

    monkeypatch.setattr(PowerSpec, "member", counting_member)
    report = minkowski_family_check(F, G, 40)
    assert len(calls) == 80
    assert (report.limit_left, report.limit_right, report.limit_product) == (2, 3, 9)
    # Closed factors: the factors and their product answer from closures,
    # and no member is built.
    calls.clear()
    F, G = PowerSpec(parse_ideal(R2, "x, y^2")), PowerSpec(parse_ideal(R2, "x^2, y"))
    report = minkowski_family_check(F, G, 40)
    assert calls == []
    assert (report.limit_left, report.limit_right, report.limit_product) == (1, 1, 3)


def test_epsilon_ideal_examples(R2):
    report = epsilon_ideal(parse_ideal(R2, "x^2, x*y"), 60)
    assert report.epsilon == 1
    assert not report.primary_flag
    assert epsilon_ideal(parse_ideal(R2, "x*y"), 12).epsilon == 0
    assert epsilon_ideal(parse_ideal(R2, "x"), 12).epsilon == 0


def test_epsilon_ideal_primary_flag(R2):
    report = epsilon_ideal(parse_ideal(R2, "x, y"), 16)
    assert report.primary_flag
    assert report.epsilon == 1


def test_epsilon_module_example(R2):
    E = MonomialModule.from_components(
        R2, [parse_ideal(R2, "x^2, x*y"), MonomialIdeal.unit(R2)])
    report = epsilon_module(E, 48)
    assert report.degree == 3 and report.rank == 2
    assert abs(report.epsilon - 1) < Fraction(5, 100)
    full = MonomialModule.from_components(R2, [MonomialIdeal.unit(R2)] * 2)
    assert epsilon_module(full, 12).epsilon == 0


def test_epsilon_module_multiplies_each_multidegree_once(R2, monkeypatch):
    # Every path to a multidegree beta yields prod_j I_j^beta_j, so the
    # convolution multiplies once per multidegree: 65 products at rank 2,
    # N = 10 (110 when every path was summed) and 164 at rank 3, N = 8 (360).
    components = [parse_ideal(R2, t) for t in ("x^2, x*y", "x, y^3", "y^2, x^3")]
    multiply = MonomialIdeal.multiply
    for rank, N, products in ((2, 10, 65), (3, 8, 164)):
        E = MonomialModule.from_components(R2, components[:rank])
        calls = []

        def counting_multiply(self, other):
            calls.append(1)
            return multiply(self, other)

        monkeypatch.setattr(MonomialIdeal, "multiply", counting_multiply)
        monkeypatch.setattr(MonomialIdeal, "__mul__", counting_multiply)
        epsilon_module(E, N)
        assert len(calls) == products
        monkeypatch.undo()
        powers = [PowerSpec(c) for c in components[:rank]]
        for k, piece in E.pieces(N):
            assert len(piece) == math.comb(k + rank - 1, rank - 1)
            for beta, ideal in piece.items():
                expected = MonomialIdeal.unit(R2)
                for spec, b in zip(powers, beta):
                    expected = expected * spec.member_ideal(b)
                assert ideal == expected


def test_epsilon_module_ideal_specialization(R2, R3):
    E = MonomialModule.from_components(R2, [parse_ideal(R2, "x, y")])
    report = epsilon_module(E, 24)
    assert report.degree == 2
    assert report.epsilon == 1
    # a d = 3 ideal and a non-primary one: the rank-one module's samples are
    # the saturation gaps of the powers, as epsilon_ideal reports them
    for ideal in (parse_ideal(R3, "x^2*y, y^2*z, z^2*x"), parse_ideal(R2, "x^2, x*y")):
        E = MonomialModule.from_components(ideal.ring, [ideal])
        report, direct = epsilon_module(E, 9), epsilon_ideal(ideal, 9)
        gaps = tuple((n, rel_length((ideal ** n).saturation(), ideal ** n))
                     for n in range(1, 10))
        assert report.samples.entries == direct.samples.entries == gaps
        assert report.epsilon == direct.epsilon
        assert report.degree == direct.degree == ideal.ring.d and direct.rank == 1
        assert direct.primary_flag == ideal.is_primary


def test_symbolic_multiplicity_s1(R2):
    report = symbolic_multiplicity(parse_ideal(R2, "x^2, x*y"),
                                   parse_ideal(R2, "x"), 40)
    assert report.s == 1
    assert abs(report.estimate.point_estimate - 1) < Fraction(5, 100)


def test_symbolic_multiplicity_s0(R2):
    report = symbolic_multiplicity(parse_ideal(R2, "x^2, x*y"),
                                   parse_ideal(R2, "x, y"), 24)
    assert report.s == 0
    assert abs(report.estimate.point_estimate - Fraction(1, 2)) < Fraction(3, 100)


def test_symbolic_multiplicity_by_localization(R3):
    # For n = 1 the second differences of l(R/(m^k + I)) run 2, 2, 2, 2, 1,
    # 1, ...: stopping at the first three equal ones read 2n.  Localized at
    # (y), I^n is (y^n), and at (x) and (z) it is the unit ideal: e = n.
    report = symbolic_multiplicity(parse_ideal(R3, "y^2, x^2*y*z^2"),
                                   parse_ideal(R3, "x*y"), 12)
    assert report.s == 2
    assert report.samples.entries == tuple((n, n) for n in range(1, 13))
    assert report.estimate.point_estimate == 1


def test_symbolic_multiplicity_saturates_each_power_once(R3, monkeypatch):
    calls = []
    saturate = MonomialIdeal.saturate

    def counting_saturate(self, other):
        calls.append(1)
        return saturate(self, other)

    monkeypatch.setattr(MonomialIdeal, "saturate", counting_saturate)
    report = symbolic_multiplicity(parse_ideal(R3, "x*y, y*z, x*z"),
                                   parse_ideal(R3, "x, y"), 8)
    assert report.samples is not None
    assert len(calls) == 8


@st.composite
def _modules(draw, d: int, top: int, gens: int):
    """(outer, inner) in d variables with exponents up to ``top``: the
    symbolic shape (I : J^inf, I), a sub-ideal (I, I & J) or (I, I * P),
    where P is J plus pure powers of some variables, so that I / IP has any
    dimension r < d.  I and J are proper, nonzero ideals with up to ``gens``
    generators."""
    ring = AmbientRing.default(d)
    first = (1,) + (0,) * (d - 1)
    exps = st.tuples(*[st.integers(0, top)] * d).map(lambda g: g if any(g) else first)
    I, J = (MonomialIdeal.from_gens(ring, draw(st.lists(exps, min_size=1,
                                                         max_size=gens)))
            for _ in range(2))
    r = draw(st.integers(0, d - 1))
    P = J + MonomialIdeal.from_gens(
        ring, [tuple(top * (i == j) for i in range(d))
               for j in draw(st.permutations(range(d)))[r:]])
    return draw(st.sampled_from(((I.saturate(J), I), (I, I & J), (I, I * P))))


def _check_module_multiplicity(outer, inner, k):
    s = quotient_dim(outer, inner)
    if s < 0:
        return
    e = _module_multiplicity(outer, inner, s)
    assert e == oracle_module_multiplicity(outer, inner, s, k)
    assert e > 0
    if s < outer.ring.d:
        assert _module_multiplicity(outer, inner, s + 1) == 0
    if s > 0:
        with pytest.raises(MonolimError):
            _module_multiplicity(outer, inner, s - 1)


# In random runs of these shapes the Hilbert-Samuel differences were constant
# from k = 9 on in d = 3 (exponents up to 3) and from k = 3 on in d = 4
# (squarefree); the oracle's last 10 differences end at k.
_R3 = AmbientRing.default(3)


@settings(max_examples=60, deadline=None)
@given(_modules(3, 3, 3))
@example(case=(MonomialIdeal.unit(_R3), parse_ideal(_R3, "x")))  # s + 1 = d keeps no variable
def test_module_multiplicity_matches_the_difference_kernel_3d(case):
    _check_module_multiplicity(*case, k=22)


@settings(max_examples=6, deadline=None)
@given(_modules(4, 1, 2))
def test_module_multiplicity_matches_the_difference_kernel_4d(case):
    _check_module_multiplicity(*case, k=13)


def test_epsilon_counts_gaps_with_no_containment_or_dimension_test(R3, monkeypatch):
    # J ⊆ J^sat and the finite length of J^sat / J hold by definition
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(lattice, "quotient_dim",
                        counting("quotient_dim", lattice.quotient_dim))
    monkeypatch.setattr(MonomialIdeal, "issubset",
                        counting("issubset", MonomialIdeal.issubset))
    report = epsilon_ideal(parse_ideal(R3, "x^2, x*y, y*z"), 10)
    assert report.epsilon == Fraction(139, 270)
    assert report.samples.entries[-1] == (10, 95)
    assert calls == []


def test_symbolic_terms_are_counted_in_the_kept_variables(R3, monkeypatch):
    # each term of e_s is a length in the d - s variables the prime keeps
    rings = []

    def recording_rel_length(outer, inner):
        rings.append((outer.ring.d, inner.ring.d))
        return rel_length(outer, inner)

    monkeypatch.setattr(asymptotics, "rel_length", recording_rel_length)
    report = symbolic_multiplicity(parse_ideal(R3, "x*y, y*z, x*z"),
                                   parse_ideal(R3, "x, y"), 8)
    assert report.s == 1 and report.estimate.point_estimate == Fraction(1, 2)
    assert report.samples.entries[-1] == (8, 36)
    assert rings and set(rings) == {(2, 2)}


def test_symbolic_zero_module(R2):
    report = symbolic_multiplicity(parse_ideal(R2, "x"), parse_ideal(R2, "y"), 10)
    assert report.zero_module


def test_quotient_bound_examples(R2):
    report = monomial_quotient_bound(MonomialIdeal.maximal_power(R2, 2), 1, 2)
    assert (report.value, report.bound, report.holds) == (3, 3, True)
    report = monomial_quotient_bound(parse_ideal(R2, "x^2, y"), 2, 2)
    assert report.value <= 8 and report.holds
    report = monomial_quotient_bound(parse_ideal(R2, "x^2, y"), 0, 2)
    assert (report.value, report.bound) == (0, 0) and report.holds


def test_quotient_bound_inclusion_error(R2):
    with pytest.raises(InclusionError):
        monomial_quotient_bound(parse_ideal(R2, "x^3, y^3"), 1, 2)


def test_quotient_bound_random(R2, R3):
    rng = random.Random(1123)
    for _ in range(40):
        ring = R2 if rng.random() < 0.5 else R3
        ideal = random_primary_ideal(rng, ring, max_exp=4, extra_gens=2)
        from monolim import containment_order
        s = containment_order(ideal)
        r = rng.randint(0, 3)
        assert monomial_quotient_bound(ideal, r, s).holds


def test_filtration_bound_power(R2):
    fam = PowerSpec(parse_ideal(R2, "x, y"))
    report = filtration_difference_bound(fam, 50)
    assert report.c == 1 and report.holds


def test_filtration_bound_log(R2):
    fam = MaxPowerSpec(R2, "log")
    report = filtration_difference_bound(fam, 200)
    assert report.c == 2 and report.holds


def test_filtration_bound_valuation(R2):
    fam = ValuationSpec.make(R2, [((2, 1), 2)])
    report = filtration_difference_bound(fam, 100)
    assert report.holds


def test_filtration_bound_rejects_sigma(R2):
    from monolim.errors import NotFiltrationError
    fam = MaxPowerSpec(R2, "sigma")
    with pytest.raises(NotFiltrationError):
        filtration_difference_bound(fam, 20)


def test_profile_respects_filtration_bound(R2):
    # normalized differences of any verified filtration stay under c^d (n+1)^(d-1) / n^(d-1)
    for fam in (PowerSpec(parse_ideal(R2, "x^2, x*y^2, y^3")),
                MaxPowerSpec(R2, "log"),
                ValuationSpec.make(R2, [((1, 2), 2), ((2, 1), 2)])):
        report = filtration_difference_bound(fam, 60)
        rows = difference_profile(length_sequence(fam, 61))
        c = report.c
        d = fam.ring.d
        for row in rows:
            assert row.increase <= Fraction(c ** d * (row.n + 1) ** (d - 1), row.n ** (d - 1))


def test_estimate_limit_diverging_verdict():
    seq = LengthSequence(tuple((n, n ** 3) for n in range(1, 33)), 2)
    assert estimate_limit(seq).verdict == "DIVERGING"


def test_sigma_family_slow_convergence_diagnostics(R2):
    fam = MaxPowerSpec(R2, "sigma")
    est = estimate_limit(length_sequence(fam, 64))
    assert est.verdict in ("CONVERGED", "OSCILLATING", "INCONCLUSIVE")
    # at this window the sequence still tracks the multiplier 5/4
    assert abs(est.point_estimate - Fraction(25, 32)) < Fraction(5, 100)
    report = volume_equals_multiplicity(fam, 64)
    assert report.rel_gap < 0.05


def test_epsilon_module_zero_component(R2):
    E = MonomialModule.from_components(
        R2, [parse_ideal(R2, "x^2, x*y"), MonomialIdeal.zero(R2)])
    assert E.rank == 1
    report = epsilon_module(E, 40)
    assert report.degree == 2
    assert abs(report.epsilon - 1) < Fraction(2, 100)


def test_hs_estimate_brackets_exact_for_powers(R2, R3):
    rng = random.Random(2718)
    for _ in range(6):
        ring = R2 if rng.random() < 0.7 else R3
        ideal = random_primary_ideal(rng, ring, max_exp=4, extra_gens=1)
        report = multiplicity(ideal, 64 if ring is R2 else 24)
        gap = abs(report.e_numeric.point_estimate - report.e_exact) / report.e_exact
        assert gap < Fraction(5, 100)
