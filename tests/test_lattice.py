"""Monomial ideal arithmetic against worked examples and brute-force oracles."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    box_points,
    joint_box,
    membership,
    oracle_colength,
    oracle_colon_members,
    oracle_containment_order,
    oracle_dim_quotient,
    oracle_issubset,
    oracle_localize,
    oracle_minimal_antichain,
    oracle_multiply,
    random_ideal,
    random_primary_ideal,
    timed,
)
from monolim import (
    INFINITE,
    AmbientRing,
    MonomialIdeal,
    containment_order,
    format_ideal,
    length_mod_power,
    minimalize,
    parse_ideal,
    rel_length,
)
from monolim.asymptotics import _module_multiplicity
from monolim.lattice import _box_colength, saturation_gap
from monolim.errors import (
    DimensionMismatchError,
    InclusionError,
    MonolimError,
    RingMismatchError,
    ZeroIdealError,
)


def I(ring, text):
    return parse_ideal(ring, text)


# -- worked examples ----------------------------------------------------------


def test_minimalize_divisibility(R2):
    assert minimalize(R2, [(1, 0), (2, 0), (0, 1)]).gens == ((0, 1), (1, 0))


def test_minimalize_empty_is_zero(R2):
    assert minimalize(R2, []).is_zero


def test_minimalize_dominated(R2):
    assert minimalize(R2, [(2, 1), (1, 2), (2, 2)]).gens == ((1, 2), (2, 1))


def test_minimalize_idempotent_example(R2):
    first = minimalize(R2, [(3, 0), (1, 1), (2, 2), (0, 3)])
    assert minimalize(R2, first.gens) == first


def test_contains(R2):
    assert not I(R2, "x, y").contains((0, 0))
    assert I(R2, "x^2, x*y").contains((1, 3))
    assert not I(R2, "x^2, y^3").contains((1, 2))


def test_contains_dimension_mismatch(R2):
    with pytest.raises(DimensionMismatchError):
        I(R2, "x").contains((1, 0, 0))


def test_multiply(R2):
    assert I(R2, "x") * I(R2, "y") == I(R2, "x*y")
    assert I(R2, "x, y") ** 2 == I(R2, "x^2, x*y, y^2")
    assert I(R2, "x, y^2") * I(R2, "x^2, y") == I(R2, "x^3, x*y, y^3")


def test_multiply_ring_mismatch(R2, R3):
    with pytest.raises(RingMismatchError):
        I(R2, "x") * I(R3, "x")


def test_intersect(R2):
    assert (I(R2, "x") & I(R2, "y")) == I(R2, "x*y")
    assert (I(R2, "x^2, y") & I(R2, "x, y^2")) == I(R2, "x^2, x*y, y^2")
    J = I(R2, "x^3, x*y^2")
    assert (J & MonomialIdeal.unit(R2)) == J


def test_colon(R2):
    assert I(R2, "x^2, x*y").colon(I(R2, "x")) == I(R2, "x, y")
    assert I(R2, "x^2, y^3").colon(I(R2, "x^2, y^3")).is_unit
    assert I(R2, "x*y").colon(I(R2, "x, y")) == I(R2, "x*y")


def test_colon_zero_errors(R2):
    with pytest.raises(ZeroIdealError):
        I(R2, "x").colon(MonomialIdeal.zero(R2))


def test_saturate(R2):
    m = I(R2, "x, y")
    assert I(R2, "x^2, x*y").saturate(m) == I(R2, "x")
    assert I(R2, "x^2, y^3").saturate(m).is_unit
    J = I(R2, "x^3, x^2*y^2")
    assert J.saturate(m).saturate(m) == J.saturate(m)


def test_localize_and_dimensions(R3):
    ideal = I(R3, "y^2, x^2*y*z^2")
    assert ideal.localize([0]) == I(R3, "y^2, y*z^2")
    assert ideal.localize((0, 2)) == I(R3, "y")
    assert ideal.localize([1]).is_unit
    assert ideal.localize(()) is ideal
    unit, zero = MonomialIdeal.unit(R3), MonomialIdeal.zero(R3)
    # dim outer/inner is the first value of _module_multiplicity; the
    # annihilator inner : outer has the same dimension.  (I : (x*y)^inf) / I
    # is R / I, and (y) / I has annihilator (y, x^2*z^2).
    for outer, inner, dim in ((unit, ideal, 2), (unit, I(R3, "x^2, y, z^5"), 0),
                              (unit, I(R3, "x*y, x*z, y*z"), 1), (unit, zero, 3),
                              (unit, unit, -1), (ideal.saturate(I(R3, "x*y")), ideal, 2),
                              (I(R3, "y"), ideal, 1), (ideal, ideal, -1)):
        assert _module_multiplicity(outer, inner)[0] == dim \
            == oracle_dim_quotient(inner.colon(outer))


def test_colength(R2):
    assert (I(R2, "x, y") ** 3).colength() == 6
    assert I(R2, "x^2, y^3").colength() == 6
    assert I(R2, "x^3, x*y, y^2").colength() == 4
    assert I(R2, "x").colength() == INFINITE
    assert MonomialIdeal.zero(R2).colength() == INFINITE
    assert MonomialIdeal.unit(R2).colength() == 0


def test_colength_maximal_power_closed_form(R2, R3):
    for ring, b in ((R2, 9), (R2, 40), (R3, 6)):
        mb = MonomialIdeal.maximal_power(ring, b)
        assert mb.colength() == math.comb(b + ring.d - 1, ring.d)


def test_rel_length(R2):
    assert rel_length(I(R2, "x"), I(R2, "x^2, x*y")) == 1
    assert rel_length(I(R2, "x"), I(R2, "x")) == 0
    with pytest.raises(InclusionError):
        rel_length(I(R2, "x^2"), I(R2, "x"))


def test_rel_length_saturation_strip(R2):
    J = I(R2, "x^2, x*y")
    for n in range(1, 21):
        power = J ** n
        assert rel_length(power.saturation(), power) == n * (n + 1) // 2


def test_rel_length_infinite(R2):
    assert rel_length(I(R2, "y"), I(R2, "y^2")) == INFINITE


def test_length_mod_power(R2):
    J, inner = I(R2, "x"), I(R2, "x^3, x^2*y, x*y^2")
    assert length_mod_power(J, inner, 0) == 0
    assert length_mod_power(J, inner, 1) == 1
    assert length_mod_power(J, inner, 2) == 3


def test_module_pieces(R2):
    from monolim import MonomialModule
    E = MonomialModule.from_components(R2, [I(R2, "x^2, x*y"), MonomialIdeal.unit(R2)])
    assert E.rank == 2
    p1 = E.piece(1)
    assert p1[(1, 0)] == I(R2, "x^2, x*y") and p1[(0, 1)].is_unit
    p2 = E.piece(2)
    assert p2[(2, 0)] == I(R2, "x^2, x*y") ** 2
    assert p2[(1, 1)] == I(R2, "x^2, x*y")
    assert p2[(0, 2)].is_unit
    F = MonomialModule.from_components(R2, [MonomialIdeal.unit(R2)] * 2)
    assert all(c.is_unit for c in F.piece(3).values())


def test_parse_format_roundtrip(R2, R3):
    for ring, text in ((R2, "x*y, x^2"), (R2, "0"), (R2, "1"),
                       (R3, "x^2*z, y^3"), (R2, "y^4, x*y^2, x^3")):
        ideal = parse_ideal(ring, text)
        assert parse_ideal(ring, format_ideal(ideal)) == ideal
        assert format_ideal(parse_ideal(ring, format_ideal(ideal))) == format_ideal(ideal)


def test_containment_order(R2):
    assert containment_order(I(R2, "x, y")) == 1
    assert containment_order(I(R2, "x^2, y^2")) == 3
    assert containment_order(MonomialIdeal.maximal_power(R2, 5)) == 5
    assert containment_order(MonomialIdeal.unit(R2)) == 0


def test_ring_validation():
    with pytest.raises(Exception):
        AmbientRing(2, ("x", "x"))
    with pytest.raises(Exception):
        AmbientRing(0, ())


# -- property tests -----------------------------------------------------------


_gen_strategy = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(any),
    min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(_gen_strategy)
def test_minimalize_idempotent(gens):
    ring = AmbientRing.default(2)
    first = minimalize(ring, gens)
    assert minimalize(ring, first.gens) == first


@settings(max_examples=60, deadline=None)
@given(_gen_strategy)
def test_text_roundtrip_random(gens):
    ring = AmbientRing.default(2)
    ideal = minimalize(ring, gens)
    assert parse_ideal(ring, format_ideal(ideal)) == ideal


@settings(max_examples=60, deadline=None)
@given(_gen_strategy, _gen_strategy)
def test_canonical_equality_matches_membership(g1, g2):
    ring = AmbientRing.default(2)
    I1, I2 = minimalize(ring, g1), minimalize(ring, g2)
    pts = box_points(joint_box(I1, I2))
    same_members = (membership(I1.gens, pts) == membership(I2.gens, pts)).all()
    assert (I1 == I2) == bool(same_members)


@settings(max_examples=60, deadline=None)
@given(_gen_strategy, _gen_strategy)
def test_product_inside_intersection(g1, g2):
    ring = AmbientRing.default(2)
    I1, I2 = minimalize(ring, g1), minimalize(ring, g2)
    assert (I1 * I2).issubset(I1 & I2)


@settings(max_examples=60, deadline=None)
@given(_gen_strategy, _gen_strategy)
def test_colon_and_saturation_contracts(g1, g2):
    ring = AmbientRing.default(2)
    I1, I2 = minimalize(ring, g1), minimalize(ring, g2)
    quot = I1.colon(I2)
    assert (quot * I2).issubset(I1)
    sat = I1.saturate(I2)
    assert I1.issubset(sat)
    assert sat.saturate(I2) == sat


def test_inclusion_exclusion_of_colengths(R3):
    rng = random.Random(7041)
    hits = 0
    while hits < 40:
        I1 = random_primary_ideal(rng, R3, max_exp=5)
        I2 = random_primary_ideal(rng, R3, max_exp=5)
        c_int = (I1 & I2).colength()
        c_sum = (I1 + I2).colength()
        if INFINITE in (c_int, c_sum):
            continue
        assert c_int + c_sum == I1.colength() + I2.colength()
        hits += 1


def test_colength_finite_iff_primary(R2, R3):
    rng = random.Random(90125)
    for _ in range(200):
        ring = R2 if rng.random() < 0.5 else R3
        ideal = random_ideal(rng, ring)
        assert (ideal.colength() != INFINITE) == ideal.is_primary


def test_pure_powers_are_cached_outside_the_fields(R2, R3):
    rng = random.Random(2718)
    for k in range(200):
        ring = R2 if k % 2 else R3
        ideal = (random_primary_ideal(rng, ring) if k % 3 else
                 random_ideal(rng, ring, nonzero=k % 5 != 0))
        scan = tuple(min((g[j] for g in ideal.gens
                          if not any(c for i, c in enumerate(g) if i != j)),
                         default=None) for j in range(ring.d))
        cached = ideal.pure_powers()
        assert cached == scan and ideal.pure_powers() is cached
        fresh = MonomialIdeal(ring, ideal.gens)
        assert fresh == ideal and hash(fresh) == hash(ideal)
    assert MonomialIdeal._fields == ("ring", "gens")


def test_colength_matches_oracle(R2, R3):
    rng = random.Random(5150)
    for _ in range(120):
        ring = R2 if rng.random() < 0.5 else R3
        ideal = random_primary_ideal(rng, ring, max_exp=6)
        assert ideal.colength() == oracle_colength(ideal)


def test_colon_matches_oracle(R2):
    rng = random.Random(1984)
    for _ in range(100):
        I1, I2 = random_ideal(rng, R2), random_ideal(rng, R2)
        quot = I1.colon(I2)
        pts = box_points(joint_box(I1, I2, quot))
        assert (membership(quot.gens, pts) == oracle_colon_members(I1, I2, pts)).all()


def test_saturate_equals_colon_fixpoint(R2, R3):
    rng = random.Random(333)
    for _ in range(80):
        ring = R2 if rng.random() < 0.6 else R3
        I1, I2 = random_ideal(rng, ring), random_ideal(rng, ring)
        current = I1
        while True:
            nxt = current.colon(I2)
            if nxt == current:
                break
            current = nxt
        assert I1.saturate(I2) == current


def test_intersect_matches_oracle(R3):
    rng = random.Random(271828)
    for _ in range(80):
        I1, I2 = random_ideal(rng, R3), random_ideal(rng, R3)
        result = I1 & I2
        pts = box_points(joint_box(I1, I2))
        expected = membership(I1.gens, pts) & membership(I2.gens, pts)
        assert (membership(result.gens, pts) == expected).all()


def test_rel_length_matches_counting(R2):
    rng = random.Random(4096)
    for _ in range(60):
        inner = random_ideal(rng, R2, max_exp=6)
        outer = inner + random_ideal(rng, R2, max_exp=6)
        value = rel_length(outer, inner)
        pts = box_points(joint_box(outer, inner, margin=9))
        diff = int((membership(outer.gens, pts) & ~membership(inner.gens, pts)).sum())
        if value == INFINITE:
            assert diff > 0
            ann = inner.colon(outer)
            assert not ann.is_primary
        else:
            assert value == diff


# -- staircase kernels against the box oracles in d = 1 to 6 ------------------


_MAX_EXP = {1: 8, 2: 8, 3: 5, 4: 3, 5: 2, 6: 2}


@st.composite
def _rings_and_gens(draw, count: int, primary: bool = False, dims=(2, 3, 4),
                    size: int = 7):
    """A ring of a dimension in ``dims`` and ``count`` generator lists of at
    most ``size`` points in it.

    With ``primary`` every list also holds a pure power of each variable.
    """
    d = draw(st.sampled_from(dims))
    top = _MAX_EXP[d]
    exps = st.tuples(*[st.integers(0, top)] * d)
    lists = []
    for _ in range(count):
        gens = draw(st.lists(exps, min_size=1, max_size=size))
        if primary:
            gens += [tuple(draw(st.integers(1, top)) if i == j else 0
                           for i in range(d)) for j in range(d)]
        lists.append(gens)
    return AmbientRing.default(d), lists


def _outer_minus_inner(outer, inner, bounds) -> int:
    pts = box_points(bounds)
    return int((membership(outer.gens, pts) & ~membership(inner.gens, pts)).sum())


@settings(max_examples=80, deadline=None)
@given(_rings_and_gens(1))
def test_from_gens_is_minimal_antichain_with_same_members(case):
    ring, (gens,) = case
    ideal = minimalize(ring, gens)
    assert list(ideal.gens) == sorted(set(ideal.gens), key=lambda g: (sum(g), g))
    for g in ideal.gens:
        assert not any(h != g and all(a <= b for a, b in zip(h, g))
                       for h in ideal.gens)
    pts = box_points([max(col) + 2 for col in zip(*gens)])
    assert (membership(ideal.gens, pts) == membership(gens, pts)).all()


@settings(max_examples=120, deadline=None)
@given(_rings_and_gens(1, dims=(2, 3, 4, 5, 6)), st.booleans())
def test_colength_matches_box_oracle(case, make_primary):
    ring, (gens,) = case
    if make_primary:
        gens = gens + [tuple(_MAX_EXP[ring.d] if i == j else 0
                             for i in range(ring.d)) for j in range(ring.d)]
    ideal = minimalize(ring, gens)
    expected = oracle_colength(ideal)
    assert ideal.colength() == (INFINITE if expected is None else expected)


@settings(max_examples=120, deadline=None)
@given(_rings_and_gens(1, primary=True, dims=(2, 3, 4, 5, 6)))
def test_containment_order_matches_box_oracle(case):
    ring, (gens,) = case
    ideal = minimalize(ring, gens)
    assert containment_order(ideal) == oracle_containment_order(ideal)


@settings(max_examples=80, deadline=None)
@given(_rings_and_gens(2))
def test_intersect_matches_box_oracle(case):
    ring, (g1, g2) = case
    I1, I2 = minimalize(ring, g1), minimalize(ring, g2)
    result = I1 & I2
    assert minimalize(ring, result.gens) == result
    pts = box_points(joint_box(I1, I2))
    expected = membership(I1.gens, pts) & membership(I2.gens, pts)
    assert (membership(result.gens, pts) == expected).all()


@settings(max_examples=80, deadline=None)
@given(_rings_and_gens(3), st.booleans())
def test_rel_length_matches_box_oracle(case, primary_multiplier):
    # inner = outer * P + (outer & J) lies in outer, and outer / inner is
    # finite when P is primary, however far from primary outer is.
    ring, (go, gp, gj) = case
    if primary_multiplier:
        gp = gp + [tuple(_MAX_EXP[ring.d] if i == j else 0
                         for i in range(ring.d)) for j in range(ring.d)]
    outer, P, J = (minimalize(ring, g) for g in (go, gp, gj))
    inner = outer * P + (outer & J)
    value = rel_length(outer, inner)
    # Finite: outer \ inner lies below max_j(outer) + max_j(P) in each axis.
    bounds = [a + b for a, b in zip(joint_box(outer, inner), joint_box(P))]
    counted = _outer_minus_inner(outer, inner, bounds)
    if value == INFINITE:
        assert not primary_multiplier
        assert _outer_minus_inner(outer, inner, [b + 1 for b in bounds]) > counted
    else:
        assert value == counted


@settings(max_examples=80, deadline=None)
@given(_rings_and_gens(2))
def test_multiply_and_from_gens_match_the_set_kernels(case):
    # The same tuples in the same order as the set-based kernels, repeated
    # points included, and the members of I * J are the sums' multiples.
    ring, (g1, g2) = case
    for gens in (g1, g2, g1 + g1[::2]):
        assert minimalize(ring, gens).gens == oracle_minimal_antichain(gens, ring.d)
    I1, I2 = minimalize(ring, g1), minimalize(ring, g2)
    product = I1 * I2
    assert product.gens == oracle_multiply(I1, I2).gens
    assert (I2 * I1).gens == product.gens
    assert (I1 * I1).gens == oracle_multiply(I1, I1).gens
    zero = MonomialIdeal.zero(ring)
    assert I1 * zero == zero * I1 == zero
    assert I1 * MonomialIdeal.unit(ring) == I1
    pts = box_points([a + b for a, b in zip(joint_box(I1), joint_box(I2))])
    sums = [tuple(a + b for a, b in zip(g, h)) for g in I1.gens for h in I2.gens]
    assert (membership(product.gens, pts) == membership(sums, pts)).all()


@settings(max_examples=120, deadline=None)
@given(_rings_and_gens(1, dims=(1, 4, 5, 6), size=40), st.data())
def test_minimalize_matches_the_dominance_scan_in_d_1_4_5_6(case, data):
    # repeated points, and points spread over many levels of the last-axis
    # walk, against the scan kept in conftest.py
    ring, (gens,) = case
    levels = data.draw(st.lists(st.integers(0, 40), min_size=len(gens),
                                max_size=len(gens)))
    spread = [g[:-1] + (z,) for g, z in zip(gens, levels)]
    for points in (gens, gens + gens[::2], spread, spread + spread[1::3]):
        assert minimalize(ring, points).gens == \
            oracle_minimal_antichain(points, ring.d)


def test_from_gens_on_20000_d4_candidates_in_time_and_memory_budget():
    # The last-axis walk holds one floor at a time: the traced peak is about
    # 0.6 MiB, under half the 1.4 MiB of the candidates' own tuples
    rng = random.Random(25)
    candidates = set()
    while len(candidates) < 20000:
        candidates.add(tuple(rng.randrange(1000) for _ in range(4)))
    candidates = list(candidates)
    ring = AmbientRing.default(4)
    ideal = timed(lambda: MonomialIdeal.from_gens(ring, candidates), 0.5)
    tracemalloc.start()
    try:
        assert MonomialIdeal.from_gens(ring, candidates) == ideal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    # every candidate is a multiple of a kept point, which divides no other
    pts, kept = np.array(candidates), np.array(ideal.gens)
    assert (kept[None, :, :] <= pts[:, None, :]).all(axis=2).any(axis=1).all()
    assert (kept[None, :, :] <= kept[:, None, :]).all(axis=2).sum() == len(kept)
    assert set(ideal.gens) <= set(candidates)


@st.composite
def _ideal_pairs(draw):
    """A ring of d = 1 to 5 and two ideals in it: the first random, zero or
    the unit ideal; the second random, zero, the unit ideal, equal to the
    first, or the first with one generator dropped or one added."""
    d = draw(st.integers(1, 5))
    ring = AmbientRing.default(d)
    exps = st.tuples(*[st.integers(0, _MAX_EXP[d])] * d)
    zero, unit = MonomialIdeal.zero(ring), MonomialIdeal.unit(ring)

    def drawn_ideal():
        return minimalize(ring, draw(st.lists(exps, min_size=1, max_size=8)))

    first = draw(st.sampled_from(("random", "random", "zero", "unit")))
    I1 = {"zero": zero, "unit": unit}.get(first) or drawn_ideal()
    second = draw(st.sampled_from(("random", "zero", "unit", "equal", "drop", "add")))
    if second == "equal":
        I2 = MonomialIdeal(ring, I1.gens)
    elif second == "drop" and I1.gens:
        i = draw(st.integers(0, len(I1.gens) - 1))
        I2 = MonomialIdeal(ring, I1.gens[:i] + I1.gens[i + 1:])
    elif second == "add":
        I2 = minimalize(ring, I1.gens + (draw(exps),))
    else:
        I2 = {"zero": zero, "unit": unit}.get(second) or drawn_ideal()
    return ring, I1, I2


@settings(max_examples=150, deadline=None)
@given(_ideal_pairs())
def test_localize_and_issubset_match_the_oracles(case):
    # every set of axes, the empty one and all of them included, against the
    # zero-and-minimalize localization and the pairwise containment scan;
    # the restriction to the kept variables is the localization with the
    # zeros taken out, and its colength is counted in the kept ring
    ring, I1, I2 = case
    for ideal in (I1, I2):
        for r in range(ring.d + 1):
            for axes in itertools.combinations(range(ring.d), r):
                local = ideal.localize(axes)
                assert local.gens == oracle_localize(ideal, axes).gens
                kept = [j for j in range(ring.d) if j not in axes]
                if not kept:
                    with pytest.raises(MonolimError):
                        ideal.restrict(axes)
                    continue
                restricted = ideal.restrict(axes)
                assert restricted.ring == AmbientRing(
                    len(kept), tuple(ring.var_names[j] for j in kept))
                back = [tuple(q[kept.index(j)] if j in kept else 0
                              for j in range(ring.d)) for q in restricted.gens]
                assert tuple(back) == local.gens
                expected = oracle_colength(restricted)
                assert restricted.colength() == \
                    (INFINITE if expected is None else expected)
    assert I1.issubset(I2) == oracle_issubset(I1, I2)
    assert I2.issubset(I1) == oracle_issubset(I2, I1)
    assert I1.issubset(I1)


def test_issubset_of_large_powers_in_budget(R3):
    # 3,844 and 3,721 generators; the pairwise scan took seconds on the true case
    ideal = I(R3, "x^2, y^3, z^2, x*y*z")
    p60 = ideal
    for _ in range(59):
        p60 = p60 * ideal
    p61 = p60 * ideal
    assert (len(p61.gens), len(p60.gens)) == (3844, 3721)
    assert timed(lambda: (p61.issubset(p60), p60.issubset(p61)), 0.5) == (True, False)


def test_power_takes_one_product_per_step(R3, monkeypatch):
    # I^k takes k - 1 products by I, the chain PowerSpec.member takes; I^0
    # and I^1 none
    ideal = I(R3, "x^2, y^3, z^2, x*y*z")
    expected = [MonomialIdeal.unit(R3), ideal]
    for _ in range(7):
        expected.append(expected[-1] * ideal)
    calls = []
    multiply = MonomialIdeal.multiply

    def counting_multiply(self, other):
        calls.append(1)
        return multiply(self, other)

    monkeypatch.setattr(MonomialIdeal, "multiply", counting_multiply)
    monkeypatch.setattr(MonomialIdeal, "__mul__", counting_multiply)
    for k, power in enumerate(expected):
        calls.clear()
        assert ideal.power(k) == power
        assert len(calls) == max(k - 1, 0)


@settings(max_examples=80, deadline=None)
@given(_rings_and_gens(3), st.booleans())
def test_rel_length_is_finite_iff_the_annihilator_is_primary(case, zero_inner):
    # The rel_length shape outer * P + (outer & J), whose annihilator
    # inner : outer may miss pure powers (INFINITE), and a zero inner, whose
    # annihilator is zero.
    ring, (go, gp, gj) = case
    outer, P, J = (minimalize(ring, g) for g in (go, gp, gj))
    inner = MonomialIdeal.zero(ring) if zero_inner else outer * P + (outer & J)
    finite = rel_length(outer, inner) != INFINITE
    assert finite == inner.colon(outer).is_primary
    if zero_inner:
        assert not finite


@settings(max_examples=80, deadline=None)
@given(_rings_and_gens(2))
def test_dimensions_match_the_subset_scan(case):
    # dim R/I against the scan, and dim outer/inner against the dimension of
    # R over the annihilator inner : outer, for the saturation shape
    # (I : J^inf) / I, for a sub-ideal I & J of I and for outer = inner.
    ring, (g1, g2) = case
    I1, I2 = minimalize(ring, g1), minimalize(ring, g2)
    unit = MonomialIdeal.unit(ring)
    for ideal in (I1, I2, I1 * I2, I1.localize([0]), MonomialIdeal.zero(ring)):
        assert _module_multiplicity(unit, ideal)[0] == oracle_dim_quotient(ideal)
    for outer, inner in ((I1.saturate(I2), I1), (I1, I1 & I2), (I1, I1)):
        assert _module_multiplicity(outer, inner)[0] \
            == oracle_dim_quotient(inner.colon(outer))


@st.composite
def _near_maximal_powers(draw):
    """m^b in d = 1..4; m^b with the pure power x_i^b raised to x_i^(b+1),
    which keeps the generator count; a random ideal J, and J + m^b, J * m^b
    and J & m^b."""
    d = draw(st.integers(1, 4))
    ring = AmbientRing.default(d)
    b = draw(st.integers(0, 4))
    mb = MonomialIdeal.maximal_power(ring, b)
    i = draw(st.integers(0, d - 1))
    pure = tuple(b * (j == i) for j in range(d))
    raised = MonomialIdeal.from_gens(
        ring, [g for g in mb.gens if g != pure] + [tuple(e + (j == i)
                                                         for j, e in enumerate(pure))])
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * d).filter(any),
                         max_size=4))
    if not gens:
        return draw(st.sampled_from((mb, raised)))
    J = MonomialIdeal.from_gens(ring, gens)
    return draw(st.sampled_from((mb, raised, J, mb * J, mb & J, mb + J)))


@settings(max_examples=200, deadline=None)
@given(_near_maximal_powers())
def test_maximal_power_degree_matches_the_degree_scan(ideal):
    # m^b and its neighbours take the staircase walk like any other ideal
    if ideal.is_primary:
        assert ideal.colength() == oracle_colength(ideal)
        assert containment_order(ideal) == oracle_containment_order(ideal)
    else:
        assert ideal.colength() == INFINITE


# -- huge exponents: cost follows the generator count, not the exponents ------


E = 10 ** 7


def test_colength_huge_exponent_2d(R2):
    assert timed(I(R2, f"x^{E}, y").colength) == E


def test_colength_huge_exponents_3d(R3):
    ideal = I(R3, f"x^{E}, y^{E}, z^{E}, x*y*z")
    assert timed(ideal.colength) == E ** 3 - (E - 1) ** 3


def test_power_and_colength_huge_exponents_2d(R2):
    # Seven corners: x^(3E), x^(2E+1)*y, x^(E+2)*y^2, x^3*y^3 and mirror.
    cube = timed(lambda: I(R2, f"x^{E}, y^{E}, x*y") ** 3)
    assert cube == I(R2, f"x^{3 * E}, x^{2 * E + 1}*y, x^{E + 2}*y^2, x^3*y^3, "
                         f"x^2*y^{E + 2}, x*y^{2 * E + 1}, y^{3 * E}")
    assert timed(cube.colength) == 12 * E - 3


def test_containment_order_huge_exponents_3d(R3):
    ideal = I(R3, f"x^{E}, y^{E}, z^{E}, x*y*z")
    assert timed(lambda: containment_order(ideal)) == 2 * E - 1


def test_rel_length_huge_exponents_3d(R3):
    outer = I(R3, f"x^{E}, y^{E}, z^{E}, x*y*z")
    inner = I(R3, f"x^{E}, y^{E}, z^{E}, x^2*y*z")
    assert timed(lambda: rel_length(outer, inner)) == (E - 1) ** 2
    # outer is not primary here; the truncation path counts
    # outer / inner = R / (x^(E-1), y^(E-1), z^(E-1), x*y*z).
    outer = I(R3, "x*y*z")
    inner = I(R3, f"x^{E}*y*z, x*y^{E}*z, x*y*z^{E}, x^2*y^2*z^2")
    assert timed(lambda: rel_length(outer, inner)) == (E - 1) ** 3 - (E - 2) ** 3


def test_rel_length_huge_exponents_4d():
    # outer / inner = R / (x^(E-1), y^(E-1), z^(E-1), w^(E-1), x*y*z*w),
    # through the truncation box of inner's largest exponents.
    R4 = AmbientRing.default(4)
    outer = I(R4, "x*y*z*w")
    inner = I(R4, f"x^{E}*y*z*w, x*y^{E}*z*w, x*y*z^{E}*w, x*y*z*w^{E}, "
                  "x^2*y^2*z^2*w^2")
    assert timed(lambda: rel_length(outer, inner)) == (E - 1) ** 4 - (E - 2) ** 4


def test_finite_rel_length_localizes_once_per_singleton(monkeypatch):
    # The differing subsets are closed under subsets, so a finite count in
    # d = 4 compares only the four singletons: 8 restrictions.
    R4 = AmbientRing.default(4)
    outer = I(R4, "x*y*z*w")
    inner = I(R4, "x^3*y*z*w, x*y^3*z*w, x*y*z^3*w, x*y*z*w^3, x^2*y^2*z^2*w^2")
    calls = []
    restrict = MonomialIdeal.restrict

    def counting_restrict(self, axes):
        calls.append(tuple(axes))
        return restrict(self, axes)

    monkeypatch.setattr(MonomialIdeal, "restrict", counting_restrict)
    assert rel_length(outer, inner) == 2 ** 4 - 1 ** 4
    assert sorted(calls) == [(j,) for j in range(4) for _ in range(2)]


@st.composite
def _gap_ideals(draw):
    """An ideal in d = 1 to 4: random, its square, primary, one that does
    not involve some variable, zero or the unit ideal."""
    d = draw(st.integers(1, 4))
    ring = AmbientRing.default(d)
    kind = draw(st.sampled_from(("random", "square", "primary", "missing",
                                 "zero", "unit")))
    if kind in ("zero", "unit"):
        return getattr(MonomialIdeal, kind)(ring)
    top = _MAX_EXP[d]
    gens = draw(st.lists(st.tuples(*[st.integers(0, top)] * d), min_size=1,
                         max_size=6))
    if kind == "primary":
        gens += [tuple(top if i == j else 0 for i in range(d)) for j in range(d)]
    if kind == "missing":
        j = draw(st.integers(0, d - 1))
        gens = [g[:j] + (0,) + g[j + 1:] for g in gens]
    ideal = minimalize(ring, gens)
    return ideal * ideal if kind == "square" else ideal


@settings(max_examples=150, deadline=None)
@given(_gap_ideals())
def test_saturation_gap_matches_rel_length(ideal):
    # the gap counted with no containment or dimension test against the
    # checked relative length
    assert saturation_gap(ideal) == rel_length(ideal.saturation(), ideal)


@st.composite
def _box_cases(draw):
    """A minimal antichain in d = 1 to 4, zero and unit included, whose pure
    powers lie above or below the box, and box tops of which one may be 0."""
    d = draw(st.integers(1, 4))
    ring = AmbientRing.default(d)
    top = _MAX_EXP[d]
    tops = draw(st.lists(st.integers(1, top), min_size=d, max_size=d))
    if draw(st.booleans()):
        tops[draw(st.integers(0, d - 1))] = 0
    kind = draw(st.sampled_from(("random", "random", "zero", "unit")))
    if kind != "random":
        return getattr(MonomialIdeal, kind)(ring), tops
    gens = draw(st.lists(st.tuples(*[st.integers(0, top + 2)] * d), max_size=6))
    for j in draw(st.lists(st.integers(0, d - 1), max_size=d)):
        c = draw(st.integers(1, top + 2))
        gens.append(tuple(c if i == j else 0 for i in range(d)))
    return minimalize(ring, gens), tops


@settings(max_examples=200, deadline=None)
@given(_box_cases())
def test_box_colength_matches_the_sum_with_the_box(case):
    ideal, tops = case
    d = ideal.ring.d
    box = minimalize(ideal.ring, [tuple(t if i == j else 0 for i in range(d))
                                  for j, t in enumerate(tops)])
    assert _box_colength(ideal.gens, tops) == (ideal + box).colength()
