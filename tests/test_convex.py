"""Regions, covolume, Minkowski sums and the covolume Minkowski inequality."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_hull_halfspaces_3d, random_primary_ideal
from monolim import (
    AmbientRing,
    MonomialIdeal,
    build_family,
    covol,
    exact_multiplicity,
    hull_region,
    kt_check,
    limit_newton_region,
    minkowski_sum,
    parse_ideal,
    region,
    scale_region,
)
from monolim import MaxPowerSpec, PowerSpec, ValuationSpec
from monolim.convex import _hull_halfspaces_3d
from monolim.errors import GeometryError, NotCoboundedError, NotPrimaryError


def test_hull_region_examples(R2):
    assert hull_region(parse_ideal(R2, "x, y")).halfspaces == (
        ((1, 1), Fraction(1)),)
    assert hull_region(parse_ideal(R2, "x^2, y^3")).halfspaces == (
        ((3, 2), Fraction(6)),)
    assert hull_region(parse_ideal(R2, "x^3, x*y, y^2")).halfspaces == (
        ((1, 1), Fraction(2)), ((1, 2), Fraction(3)))


def test_hull_region_requires_primary(R2):
    with pytest.raises(NotPrimaryError):
        hull_region(parse_ideal(R2, "x^2, x*y"))


def test_covol_examples(R2):
    assert covol(region(2, [((1, 1), 1)])).value == Fraction(1, 2)
    assert covol(region(2, [((3, 2), 6)])).value == 3
    assert covol(hull_region(parse_ideal(R2, "x^3, x*y, y^2"))).value == Fraction(5, 2)
    assert covol(region(2, [])).value == 0


def test_covol_not_cobounded(R2):
    with pytest.raises(NotCoboundedError):
        covol(region(2, [((1, 0), 1)]))


def test_covol_redundant_halfspace_removed():
    D = region(2, [((1, 1), 1), ((2, 1), 1)])
    assert D.halfspaces == (((1, 1), Fraction(1)),)


def test_minkowski_sum_examples():
    D = region(2, [((1, 1), 1)])
    assert minkowski_sum(D, D) == region(2, [((1, 1), 2)])
    D1 = region(2, [((2, 1), 2)])
    D2 = region(2, [((1, 2), 2)])
    S = minkowski_sum(D1, D2)
    from monolim.convex import region_vertices_2d
    assert region_vertices_2d(S) == [(0, 3), (1, 1), (3, 0)]
    assert minkowski_sum(D1, region(2, [])) == D1


def test_minkowski_sum_commutative_associative():
    rng = random.Random(11)
    for _ in range(25):
        regions = [region(2, [((rng.randint(1, 4), rng.randint(1, 4)),
                               rng.randint(1, 6)) for _ in range(rng.randint(1, 3))])
                   for _ in range(3)]
        A, B, C = regions
        assert minkowski_sum(A, B) == minkowski_sum(B, A)
        assert minkowski_sum(minkowski_sum(A, B), C) == minkowski_sum(
            A, minkowski_sum(B, C))


def test_kt_worked_pair():
    D1 = region(2, [((2, 1), 2)])
    D2 = region(2, [((1, 2), 2)])
    report = kt_check(D1, D2)
    assert (report.covol1, report.covol2, report.covol_sum) == (1, 1, 3)
    assert report.holds and not report.equality


def test_kt_equality_on_homothety():
    D1 = region(2, [((2, 1), 2), ((1, 2), 2)])
    report = kt_check(D1, D1)
    assert report.holds and report.equality
    report = kt_check(D1, scale_region(D1, Fraction(7, 3)))
    assert report.holds and report.equality


def test_kt_simplex_equality():
    D = region(2, [((1, 1), 1)])
    report = kt_check(D, D)
    assert (report.covol1, report.covol2, report.covol_sum) == (
        Fraction(1, 2), Fraction(1, 2), 2)
    assert report.holds and report.equality


def test_kt_random_pairs():
    rng = random.Random(314159)
    for _ in range(120):
        halves = lambda: [((rng.randint(1, 5), rng.randint(1, 5)),
                           Fraction(rng.randint(1, 8), rng.randint(1, 3)))
                          for _ in range(rng.randint(1, 4))]
        report = kt_check(region(2, halves()), region(2, halves()))
        assert report.holds


def test_covol_homothety_scaling():
    rng = random.Random(8)
    for _ in range(20):
        D = region(2, [((rng.randint(1, 4), rng.randint(1, 4)), rng.randint(1, 9))
                       for _ in range(rng.randint(1, 3))])
        t = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        assert covol(scale_region(D, t)).value == t ** 2 * covol(D).value


def test_covol_monotone_under_inclusion():
    rng = random.Random(21)
    for _ in range(20):
        hs = [((rng.randint(1, 4), rng.randint(1, 4)), rng.randint(1, 9))
              for _ in range(rng.randint(1, 3))]
        D1 = region(2, hs)
        D2 = region(2, hs + [((1, 1), 1)])
        # D1 is cut further by the extra halfspace, so D2 <= D1... the
        # intersection shrinks the region and covolume grows.
        assert covol(D2).value >= covol(D1).value


def test_covol_3d_diagonal():
    R3 = AmbientRing.default(3)
    assert covol(hull_region(parse_ideal(R3, "x^2, y^3, z^5"))).value == 5
    assert exact_multiplicity(parse_ideal(R3, "x, y, z")) == 1


def test_covol_3d_grid_cross_check():
    R3 = AmbientRing.default(3)
    rng = random.Random(99)
    for _ in range(8):
        ideal = random_primary_ideal(rng, R3, max_exp=3, extra_gens=2)
        D = hull_region(ideal)
        exact = covol(D).value
        from monolim.convex import _covol_grid
        lo, hi = _covol_grid(D, 4).bracket
        assert lo <= exact <= hi


def test_multiplicity_volume_identity_random(R2, R3):
    rng = random.Random(616)
    fails = []
    for _ in range(30):
        ring = R2 if rng.random() < 0.5 else R3
        ideal = random_primary_ideal(rng, ring, max_exp=6, extra_gens=2)
        d = ring.d
        e = exact_multiplicity(ideal)
        assert e >= 1
        assert covol(hull_region(ideal)).value * factorial(d) == e
    assert not fails


def test_power_scaling_of_multiplicity(R2, R3):
    rng = random.Random(777)
    for _ in range(15):
        ring = R2 if rng.random() < 0.6 else R3
        ideal = random_primary_ideal(rng, ring, max_exp=4, extra_gens=1)
        e = exact_multiplicity(ideal)
        for k in (2, 3):
            assert exact_multiplicity(ideal ** k) == k ** ring.d * e


def test_limit_newton_region(R2):
    fam = build_family(PowerSpec(parse_ideal(R2, "x^3, x*y, y^2")))
    base = hull_region(parse_ideal(R2, "x^3, x*y, y^2"))
    for n in (1, 2, 5):
        assert limit_newton_region(fam, n) == base
    val = build_family(ValuationSpec.make(R2, [((2, 1), 2)]))
    for n in (1, 3, 7):
        assert limit_newton_region(val, n) == region(2, [((2, 1), 2)])
    sig = build_family(MaxPowerSpec(R2, "sigma"))
    assert limit_newton_region(sig, 16) == region(2, [((1, 1), Fraction(20, 16))])


def test_minkowski_3d_with_seeds():
    R3 = AmbientRing.default(3)
    D1 = hull_region(parse_ideal(R3, "x, y, z"))
    S = minkowski_sum(D1, D1)
    assert covol(S).value == Fraction(8, 6)
    report = kt_check(D1, D1)
    assert report.holds and report.equality


def test_region_rejects_negative_normals():
    with pytest.raises(GeometryError):
        region(2, [((-1, 1), 1)])


def test_hull_unavailable_above_dim_three():
    R4 = AmbientRing.default(4)
    gens = [tuple(2 if j == i else 0 for j in range(4)) for i in range(4)]
    with pytest.raises(GeometryError):
        hull_region(MonomialIdeal.from_gens(R4, gens))


def test_grid_bracket_dim_four():
    D = region(4, [((1, 1, 1, 1), 1)])
    result = covol(D, resolution=4)
    assert result.method == "GRID_BRACKET"
    lo, hi = result.bracket
    assert lo <= Fraction(1, 24) <= hi
    assert lo <= result.value <= hi


def test_covol_3d_permutation_invariant():
    # the envelope integration singles out the last axis; permuting
    # coordinates must not change the covolume
    import itertools
    R3 = AmbientRing.default(3)
    rng = random.Random(414)
    for _ in range(10):
        ideal = random_primary_ideal(rng, R3, max_exp=5, extra_gens=2)
        base = covol(hull_region(ideal)).value
        for perm in itertools.permutations(range(3)):
            permuted = MonomialIdeal.from_gens(
                R3, [tuple(g[p] for p in perm) for g in ideal.gens])
            assert covol(hull_region(permuted)).value == base


def test_minkowski_sum_support_additivity():
    from monolim.convex import support_minimum
    rng = random.Random(660)
    for _ in range(20):
        def rand_region():
            return region(2, [((rng.randint(1, 4), rng.randint(1, 4)),
                               rng.randint(1, 8)) for _ in range(rng.randint(1, 3))])
        D1, D2 = rand_region(), rand_region()
        S = minkowski_sum(D1, D2)
        for _ in range(6):
            u = (rng.randint(0, 5), rng.randint(0, 5))
            if u == (0, 0):
                continue
            assert support_minimum(S, u) == (
                support_minimum(D1, u) + support_minimum(D2, u))


def test_dim_mismatch():
    with pytest.raises(GeometryError):
        minkowski_sum(region(2, [((1, 1), 1)]), region(1, [((1,), 1)]))


_seeds_3d = st.lists(st.tuples(*[st.integers(0, 8)] * 3), min_size=3, max_size=10)
_scales = st.one_of(st.just(1), st.fractions(min_value=Fraction(1, 30),
                                             max_value=30, max_denominator=30))


@settings(max_examples=150, deadline=None)
@given(_seeds_3d, _scales)
def test_hull_halfspaces_3d_match_the_per_candidate_oracle(gens, scale):
    seeds = [tuple(c * scale for c in g) for g in gens]
    got = _hull_halfspaces_3d(seeds)
    assert len(set(got)) == len(got)
    assert set(got) == set(oracle_hull_halfspaces_3d(seeds))
    assert all(type(c) is int for n, _ in got for c in n)


def test_hull_halfspaces_3d_of_a_minkowski_sum_match_the_oracle(R3):
    I = parse_ideal(R3, "x^7, y^6, z^5, x^3*y^2, x*y*z")
    J = parse_ideal(R3, "x^5, y^7, z^6, y*z^4")
    D1 = scale_region(hull_region(I), Fraction(1, 3))
    D2 = scale_region(hull_region(J), Fraction(2, 5))
    seeds = sorted({tuple(a + b for a, b in zip(p, q))
                    for p in D1.seeds for q in D2.seeds})
    expected = oracle_hull_halfspaces_3d(seeds)
    assert set(_hull_halfspaces_3d(seeds)) == set(expected)
    assert minkowski_sum(D1, D2) == region(3, expected)
