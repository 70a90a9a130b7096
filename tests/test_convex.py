"""Regions, covolume, Minkowski sums and the covolume Minkowski inequality."""

import itertools
import random
from fractions import Fraction
from math import factorial, gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_covol,
    oracle_covol_2d,
    oracle_covol_3d,
    oracle_covol_grid,
    oracle_hull_halfspaces_2d,
    oracle_hull_halfspaces_3d,
    oracle_minkowski_2d,
    oracle_minkowski_sum,
    oracle_polytope_volume,
    oracle_region_2d,
    oracle_vertices_2d,
    random_primary_ideal,
    timed,
)
from monolim import (
    AmbientRing,
    ConvexRegion,
    MonomialIdeal,
    covol,
    exact_multiplicity,
    hull_region,
    kt_check,
    minkowski_sum,
    parse_ideal,
    region,
    scale_region,
    teissier_check,
)
from monolim import MaxPowerSpec, PowerSpec, ProductSpec, ValuationSpec, convex
from monolim.convex import KTReport, _hull, hull_vertices, polytope_volume
from monolim.errors import GeometryError, NotCoboundedError, NotPrimaryError
from monolim.roots import root_sum_at_least


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
    assert covol(region(2, [((1, 1), 1)])) == Fraction(1, 2)
    assert covol(region(2, [((3, 2), 6)])) == 3
    assert covol(hull_region(parse_ideal(R2, "x^3, x*y, y^2"))) == Fraction(5, 2)
    assert covol(region(2, [])) == 0


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
    assert S.vertices == ((0, 3), (1, 1), (3, 0))
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
        assert covol(scale_region(D, t)) == t ** 2 * covol(D)


def test_covol_monotone_under_inclusion():
    rng = random.Random(21)
    for _ in range(20):
        hs = [((rng.randint(1, 4), rng.randint(1, 4)), rng.randint(1, 9))
              for _ in range(rng.randint(1, 3))]
        D1 = region(2, hs)
        D2 = region(2, hs + [((1, 1), 1)])
        # D1 is cut further by the extra halfspace, so D2 <= D1... the
        # intersection shrinks the region and covolume grows.
        assert covol(D2) >= covol(D1)


def test_covol_3d_diagonal():
    R3 = AmbientRing.default(3)
    assert covol(hull_region(parse_ideal(R3, "x^2, y^3, z^5"))) == 5
    assert exact_multiplicity(parse_ideal(R3, "x, y, z")) == 1


def test_covol_3d_grid_cross_check():
    R3 = AmbientRing.default(3)
    rng = random.Random(99)
    for _ in range(8):
        ideal = random_primary_ideal(rng, R3, max_exp=3, extra_gens=2)
        D = hull_region(ideal)
        exact = covol(D)
        lo, hi = oracle_covol_grid(3, D.halfspaces, 4)
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
        assert covol(hull_region(ideal)) * factorial(d) == e
    assert not fails


def test_power_scaling_of_multiplicity(R2, R3):
    rng = random.Random(777)
    for _ in range(15):
        ring = R2 if rng.random() < 0.6 else R3
        ideal = random_primary_ideal(rng, ring, max_exp=4, extra_gens=1)
        e = exact_multiplicity(ideal)
        for k in (2, 3):
            assert exact_multiplicity(ideal ** k) == k ** ring.d * e


def test_limit_region(R2):
    I, J = parse_ideal(R2, "x^3, x*y, y^2"), parse_ideal(R2, "x, y^2")
    power = PowerSpec(I)
    val = ValuationSpec.make(R2, [((2, 1), 2)])
    assert power.limit_region == hull_region(I)
    assert val.limit_region == region(2, [((2, 1), 2)])
    # these members' hulls are the region scaled by n
    for F in (power, val):
        for n in (1, 2, 5):
            assert scale_region(hull_region(F.member_ideal(n)), Fraction(1, n)) == \
                F.limit_region
    assert ProductSpec(power, PowerSpec(J)).limit_region == minkowski_sum(
        hull_region(I), hull_region(J))
    # b_n/n -> 1 for sigma and log; an exponent table has no limit
    for kind in ("sigma", "log"):
        assert MaxPowerSpec(R2, kind).limit_region == region(2, [((1, 1), 1)])
    table = MaxPowerSpec(R2, "table", (2, 3))
    assert table.limit_region is None
    assert ProductSpec(power, table).limit_region is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 2 ** 32))
def test_product_limit_region_covolume_is_the_multiplicity_of_the_product(d, seed):
    rng = random.Random(seed)
    ring = AmbientRing.default(d)
    I, J = (random_primary_ideal(rng, ring, max_exp=4, extra_gens=2) for _ in "IJ")
    D = ProductSpec(PowerSpec(I), PowerSpec(J)).limit_region
    assert factorial(d) * covol(D) == exact_multiplicity(I * J)


def test_minkowski_3d_with_seeds():
    R3 = AmbientRing.default(3)
    D1 = hull_region(parse_ideal(R3, "x, y, z"))
    S = minkowski_sum(D1, D1)
    assert covol(S) == Fraction(8, 6)
    report = kt_check(D1, D1)
    assert report.holds and report.equality


def test_region_rejects_negative_normals():
    with pytest.raises(GeometryError):
        region(2, [((-1, 1), 1)])


def test_region_reads_any_rational_number_input():
    D = region(2, [((2, 1), 2), ((1, 3), 3)])
    assert region(2, [((1.0, 0.5), 1), (("1/3", 1), "1")]) == D
    assert region(2, [((Fraction(2), 1), 2.0), ((1, 3), Fraction(3))]).vertices == D.vertices


def test_covol_rejects_a_region_without_vertices():
    D = region(2, [((2, 1), 2), ((1, 3), 3)])
    with pytest.raises(GeometryError):
        covol(ConvexRegion(D.dim, D.halfspaces, vertices=()))


def test_multiplicity_exact_in_dimensions_four_and_five():
    rng = random.Random(404)
    for d in (4, 5):
        ring = AmbientRing.default(d)
        for _ in range(5):
            exps = [rng.randint(1, 9) for _ in range(d)]
            diag = MonomialIdeal.from_gens(
                ring, [tuple(e if j == i else 0 for j in range(d))
                       for i, e in enumerate(exps)])
            assert exact_multiplicity(diag) == prod(exps)
        m = MonomialIdeal.maximal(ring)
        for k in (1, 2, 3):
            assert exact_multiplicity(m ** k) == k ** d
    R4 = AmbientRing.default(4)
    assert exact_multiplicity(parse_ideal(R4, "x^2, y^3, z^5, w^7")) == 210


def test_covol_simplex_dim_four():
    assert covol(region(4, [((1, 1, 1, 1), 1)])) == Fraction(1, 24)
    assert covol(region(5, [((1, 1, 1, 1, 1), 2)])) == Fraction(32, 120)


def test_covol_3d_permutation_invariant():
    # the envelope integration singles out the last axis; permuting
    # coordinates must not change the covolume
    R3 = AmbientRing.default(3)
    rng = random.Random(414)
    for _ in range(10):
        ideal = random_primary_ideal(rng, R3, max_exp=5, extra_gens=2)
        base = covol(hull_region(ideal))
        for perm in itertools.permutations(range(3)):
            permuted = MonomialIdeal.from_gens(
                R3, [tuple(g[p] for p in perm) for g in ideal.gens])
            assert covol(hull_region(permuted)) == base


def support_minimum(D, normal) -> Fraction:
    """min over the region of <normal, y> for a nonnegative functional."""
    return min(sum(Fraction(a) * c for a, c in zip(normal, v)) for v in D.vertices)


def test_minkowski_sum_support_additivity():
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


_seeds_3d = st.lists(st.tuples(*[st.integers(0, 8)] * 3), min_size=1, max_size=10)
_axis_points = st.tuples(*[st.integers(1, 9)] * 3)
_scales = st.one_of(st.just(1), st.fractions(min_value=Fraction(1, 30),
                                             max_value=30, max_denominator=30))


def _check_supporting(seeds, got):
    assert len(set(got)) == len(got)
    for n, b in got:
        assert all(type(c) is int and c >= 0 for c in n) and b > 0
        assert min(sum(a * c for a, c in zip(n, s)) for s in seeds) == b


@settings(max_examples=150, deadline=None)
@given(_seeds_3d, _axis_points, _scales)
def test_hull_halfspaces_match_the_oracle_on_cobounded_seeds(gens, axes, scale):
    gens = gens + [tuple(a if j == i else 0 for j in range(3))
                   for i, a in enumerate(axes)]
    seeds = [tuple(c * scale for c in g) for g in gens]
    got = _hull(seeds).halfspaces
    _check_supporting(seeds, got)
    assert set(got) == set(oracle_hull_halfspaces_3d(seeds))


@settings(max_examples=150, deadline=None)
@given(_seeds_3d, _scales)
def test_hull_halfspaces_contain_the_oracle_facets(gens, scale):
    seeds = [tuple(c * scale for c in g) for g in gens]
    got = _hull(seeds).halfspaces
    _check_supporting(seeds, got)
    assert set(oracle_hull_halfspaces_3d(seeds)) <= set(got)


def test_hull_halfspaces_of_a_non_cobounded_seed_set():
    # the upward hull is x >= 1: a facet with a single minimising seed,
    # which no candidate of the per-candidate oracle spans
    seeds = [(1, 0, 0), (2, 5, 0), (2, 0, 5)]
    assert _hull(seeds).halfspaces == (((1, 0, 0), Fraction(1)),)
    assert oracle_hull_halfspaces_3d(seeds) == []


def test_region_drops_redundant_halfspaces_in_every_dimension():
    # x + y >= 1 only touches the region x >= 1 at its vertex (1, 0)
    D = region(2, [((1, 0), 1), ((1, 1), 1)])
    assert D.halfspaces == (((1, 0), Fraction(1)),)
    assert D.vertices == ((1, 0),)
    D = region(4, [((1, 1, 1, 1), 2), ((1, 2, 1, 1), 2), ((1, 1, 1, 1), 1)])
    assert D.halfspaces == (((1, 1, 1, 1), Fraction(2)),)


_normal_2d = st.tuples(*[st.integers(0, 5)] * 2).filter(any)
_normal_3d = st.tuples(*[st.integers(1, 4)] * 3)
_offset = st.fractions(min_value=0, max_value=9, max_denominator=4)
_halfspaces_2d = st.lists(st.tuples(_normal_2d, _offset), min_size=1, max_size=5)
_cobounded_2d = st.lists(st.tuples(st.tuples(*[st.integers(1, 5)] * 2), _offset),
                         min_size=1, max_size=5)
_cobounded_3d = st.lists(st.tuples(_normal_3d, _offset), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(_halfspaces_2d)
def test_region_2d_matches_the_chain_oracle(hs):
    D = region(2, hs)
    expected = oracle_region_2d(hs)
    if D.is_cobounded:
        assert D.halfspaces == expected
        assert list(D.vertices) == oracle_vertices_2d(expected)
        assert covol(D) == oracle_covol_2d(expected)
    else:
        # the chain oracle only deduplicates here; both describe one region
        assert set(D.halfspaces) <= set(expected)
    for x in range(0, 12):
        for y in range(0, 12):
            pt = (Fraction(x, 2), Fraction(y, 2))
            assert D.contains(pt) == all(n[0] * pt[0] + n[1] * pt[1] >= b
                                         for n, b in hs)


@settings(max_examples=100, deadline=None)
@given(_cobounded_3d, _scales)
def test_region_and_covol_3d_match_the_plane_oracle(hs, scale):
    D = scale_region(region(3, hs), scale)
    raw = [(n, b * scale) for n, b in hs if b > 0]
    # the plane oracle counts a repeated plane twice, so it gets each
    # primitive normal once, with its largest offset
    deduplicated = {}
    for n, b in raw:
        g = gcd(*n)
        n, b = tuple(c // g for c in n), b / g
        deduplicated[n] = max(b, deduplicated.get(n, b))
    assert covol(D) == oracle_covol_3d(list(deduplicated.items()))
    assert covol(D) == oracle_covol_3d(D.halfspaces)
    for pt in [(Fraction(a, 2), Fraction(b, 3), Fraction(c, 2))
               for a in range(0, 9, 2) for b in range(0, 13, 3) for c in range(0, 9, 2)]:
        assert D.contains(pt) == all(sum(x * y for x, y in zip(n, pt)) >= b
                                     for n, b in raw)


@settings(max_examples=100, deadline=None)
@given(_cobounded_2d, _cobounded_2d, _scales)
def test_minkowski_sum_2d_matches_the_support_oracle(hs1, hs2, scale):
    D1, D2 = region(2, hs1), scale_region(region(2, hs2), scale)
    S = minkowski_sum(D1, D2)
    assert S.halfspaces == oracle_minkowski_2d(D1.halfspaces, D2.halfspaces)
    assert covol(S) == oracle_covol_2d(S.halfspaces)
    assert covol(D2) == scale ** 2 * oracle_covol_2d(region(2, hs2).halfspaces)


def test_hull_region_2d_and_3d_match_the_oracles(R2, R3):
    rng = random.Random(2024)
    for _ in range(60):
        I = random_primary_ideal(rng, R2, max_exp=9, extra_gens=6)
        expected = oracle_region_2d(oracle_hull_halfspaces_2d(list(I.gens)))
        assert hull_region(I).halfspaces == expected
        assert covol(hull_region(I)) == oracle_covol_2d(expected)
        I = random_primary_ideal(rng, R3, max_exp=7, extra_gens=6)
        expected = oracle_hull_halfspaces_3d(list(I.gens))
        assert set(hull_region(I).halfspaces) == set(expected)
        assert covol(hull_region(I)) == oracle_covol_3d(expected)


def test_hull_halfspaces_3d_of_a_minkowski_sum_match_the_oracle(R3):
    I = parse_ideal(R3, "x^7, y^6, z^5, x^3*y^2, x*y*z")
    J = parse_ideal(R3, "x^5, y^7, z^6, y*z^4")
    D1 = scale_region(hull_region(I), Fraction(1, 3))
    D2 = scale_region(hull_region(J), Fraction(2, 5))
    seeds = sorted({tuple(Fraction(a, 3) + Fraction(2 * b, 5) for a, b in zip(p, q))
                    for p in I.gens for q in J.gens})
    expected = oracle_hull_halfspaces_3d(seeds)
    assert set(_hull(seeds).halfspaces) == set(expected)
    assert minkowski_sum(D1, D2) == region(3, expected)
    assert covol(minkowski_sum(D1, D2)) == oracle_covol_3d(expected)


def test_covol_dim_four_inside_the_grid_bracket():
    rng = random.Random(4004)
    for _ in range(6):
        hs = [(tuple(rng.randint(1, 3) for _ in range(4)),
               Fraction(rng.randint(1, 4), rng.randint(1, 2)))
              for _ in range(rng.randint(1, 3))]
        D = region(4, hs)
        lo, hi = oracle_covol_grid(4, D.halfspaces, 2)
        assert lo <= covol(D) <= hi


def _random_primary_4d(rng, max_exp=5, extra_gens=4):
    return random_primary_ideal(rng, AmbientRing.default(4), max_exp=max_exp,
                                extra_gens=extra_gens)


def test_teissier_and_kt_hold_in_dim_four():
    rng = random.Random(4141)
    for _ in range(12):
        I, J = _random_primary_4d(rng), _random_primary_4d(rng)
        report = teissier_check(I, J)
        assert report.holds
        assert report.e_product == exact_multiplicity(I * J)
        kt = kt_check(hull_region(I), hull_region(J))
        assert kt.holds
        assert kt.covol_sum * 24 == report.e_product
        assert (kt.covol1 * 24, kt.covol2 * 24) == (report.e_left, report.e_right)


def test_multiplicity_of_many_generators_in_dim_four_in_budget():
    R4 = AmbientRing.default(4)
    # lattice points of [0, 8]^4 within distance 4 of (4, 4, 4, 4), plus x_i^12
    ball = [p for p in itertools.product(range(9), repeat=4)
            if sum((c - 4) ** 2 for c in p) <= 16]
    ball += [tuple(12 if j == i else 0 for j in range(4)) for i in range(4)]
    I = MonomialIdeal.from_gens(R4, ball)
    assert len(I.gens) == 21
    assert len(hull_region(I).halfspaces) == 26
    assert timed(lambda: exact_multiplicity(I)) == 12472
    # 16 random monomials of degree 10 (an antichain) and x_i^14
    rng = random.Random(2020)
    gens = {tuple(14 if j == i else 0 for j in range(4)) for i in range(4)}
    while len(gens) < 20:
        a, b, c = (rng.randint(0, 6) for _ in range(3))
        if 4 <= a + b + c <= 10:
            gens.add((a, b, c, 10 - a - b - c))
    J = MonomialIdeal.from_gens(R4, sorted(gens))
    assert len(J.gens) == 20
    e = timed(lambda: exact_multiplicity(J))
    for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)):
        permuted = MonomialIdeal.from_gens(R4, [tuple(g[p] for p in perm)
                                                for g in J.gens])
        assert exact_multiplicity(permuted) == e


def _rank(vectors) -> int:
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 5)] * 4), min_size=1, max_size=12))
# a degenerate seed set: two rays share enough zeros to pass the count
# filter without being adjacent
@example([(0, 0, 4, 3), (0, 0, 4, 4), (1, 1, 3, 1), (2, 0, 2, 3), (2, 1, 4, 0),
          (2, 1, 5, 2), (2, 3, 2, 3), (3, 0, 4, 2), (3, 2, 2, 4), (4, 2, 0, 5)])
def test_hull_facets_and_vertices_dim_four(gens):
    # every halfspace is a facet: its tight seeds and the axes it is parallel
    # to span a hyperplane; every vertex is a seed, on d independent planes
    got = _hull(gens).halfspaces
    _check_supporting(gens, got)
    for n, b in got:
        tight = [s for s in gens if sum(a * c for a, c in zip(n, s)) == b]
        spans = [tuple(a - c for a, c in zip(s, tight[0])) for s in tight[1:]]
        spans += [tuple(int(i == j) for j in range(4)) for i in range(4) if n[i] == 0]
        assert _rank(spans) == 3
    D = region(4, got)
    assert set(D.halfspaces) == set(got)
    assert set(D.vertices) <= {tuple(map(Fraction, g)) for g in gens}
    for v in D.vertices:
        planes = [n for n, b in D.halfspaces if sum(a * c for a, c in zip(n, v)) == b]
        planes += [tuple(int(i == j) for j in range(4)) for i in range(4) if v[i] == 0]
        assert _rank(planes) == 4


def _region_draws(d: int):
    normal = st.tuples(*[st.integers(0, 4)] * d).filter(any)
    return st.lists(st.tuples(normal, _offset), max_size=5)


_dim_halfspaces = st.sampled_from((2, 3, 4)).flatmap(
    lambda d: st.tuples(st.just(d), _region_draws(d)))


def _fields(D):
    return D.dim, D.halfspaces, D.vertices


@st.composite
def _seed_sets(draw):
    """Seeds in d = 1..4: the origin alone, or rational points with
    duplicates, dominated points and points p + k e_i on an axis ray of
    another seed; the axis points that make the set cobounded are drawn or
    left out."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return [(0,) * d]
    coord = st.fractions(min_value=0, max_value=6, max_denominator=3)
    seeds = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8))
    for p in draw(st.lists(st.sampled_from(seeds), max_size=3)):
        seeds.append(p)
        seeds.append(tuple(c + draw(coord) for c in p))
        i, k = draw(st.integers(0, d - 1)), draw(st.integers(1, 3))
        seeds.append(tuple(c + k * (j == i) for j, c in enumerate(p)))
    if draw(st.booleans()):
        seeds += [tuple(draw(coord) + 1 if j == i else 0 for j in range(d))
                  for i in range(d)]
    return seeds


@settings(max_examples=300, deadline=None)
@given(_seed_sets())
def test_one_pass_hull_equals_the_round_trip(seeds):
    # the vertices read from the dual cone's facets are those of the region
    # of its halfspaces, and every vertex is a seed
    H = _hull(seeds)
    assert _fields(H) == _fields(region(H.dim, H.halfspaces))
    assert all(type(c) is Fraction for v in H.vertices for c in v)
    assert set(H.vertices) <= {tuple(map(Fraction, s)) for s in seeds}


@settings(max_examples=150, deadline=None)
@given(_dim_halfspaces, _scales)
def test_scale_region_matches_the_region_of_the_scaled_halfspaces(dim_hs, t):
    d, hs = dim_hs
    D = region(d, hs)
    scaled = scale_region(D, t)
    assert _fields(scaled) == _fields(region(d, [(n, b * t) for n, b in D.halfspaces]))
    # redundant halfspaces among the drawn ones are dropped as before
    assert _fields(scaled) == _fields(region(d, [(n, b * t) for n, b in hs]))
    assert all(type(c) is Fraction for v in scaled.vertices for c in v)


def _oracle_kt(D1, D2) -> KTReport:
    c1, c2 = oracle_covol(D1), oracle_covol(D2)
    cs = oracle_covol(oracle_minkowski_sum(D1, D2))
    return KTReport(c1, c2, cs, *root_sum_at_least(c1, c2, cs, D1.dim), D1.dim)


def _cobounded_draws(d: int):
    return st.lists(st.tuples(st.tuples(*[st.integers(1, 4)] * d),
                              st.fractions(min_value=Fraction(1, 4), max_value=9,
                                           max_denominator=4)),
                    min_size=1, max_size=4)


@st.composite
def _region_pairs(draw):
    """A pair of cobounded regions of one dimension: random halfspaces with
    rational offsets, two ideal hulls, or an ideal hull and a scaled one
    with a vertex of denominator above 1."""
    d = draw(st.sampled_from((2, 3, 4)))
    kind = draw(st.sampled_from(("regions", "hulls", "fractional")))
    if kind == "regions":
        return tuple(region(d, draw(_cobounded_draws(d))) for _ in "12")
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ring = AmbientRing.default(d)
    I, J = (random_primary_ideal(rng, ring, max_exp=5, extra_gens=3) for _ in "IJ")
    if kind == "hulls":
        return hull_region(I), hull_region(J)
    # the pure power x^e of J is a vertex of its hull; scaled by a/(e + 1)
    # with 0 < a <= e its first coordinate a*e/(e + 1) is not an integer
    e = J.pure_powers()[0]
    D2 = scale_region(hull_region(J), Fraction(draw(st.integers(1, e)), e + 1))
    assert any(c.denominator > 1 for v in D2.vertices for c in v)
    return hull_region(I), D2


@settings(max_examples=120, deadline=None)
@given(_region_pairs())
def test_integer_convex_kernels_match_the_fraction_oracles(pair):
    D1, D2 = pair
    for D in pair:
        assert covol(D) == oracle_covol(D)
    S, T = minkowski_sum(D1, D2), oracle_minkowski_sum(D1, D2)
    assert _fields(S) == _fields(T)
    assert covol(S) == oracle_covol(T)
    assert kt_check(D1, D2) == _oracle_kt(D1, D2)
    # a full-dimensional polytope: the sum's vertices and a simplex around them
    top = max(max(v) for v in S.vertices) + 1
    points = [*S.vertices, (top,) * D1.dim,
              *(tuple(top if j == i else 0 for j in range(D1.dim)) for i in range(D1.dim))]
    assert polytope_volume(points) == oracle_polytope_volume(points)


def test_one_double_description_per_region(monkeypatch, R3):
    R4 = AmbientRing.default(4)
    pairs = [
        (region(2, [((2, 1), 2), ((1, 3), 2)]), region(2, [((1, 2), 2), ((3, 1), 3)])),
        (hull_region(parse_ideal(R3, "x^7, y^6, z^5, x^3*y^2, y^3*z^2, x^2*z^3, x*y*z")),
         hull_region(parse_ideal(R3, "x^5, y^7, z^6, x^2*y^3, y*z^4, x^3*z^2"))),
        (hull_region(parse_ideal(R4, "x^2, y^3, z^5, w^7")),
         scale_region(hull_region(parse_ideal(R4, "x, y, z, w")), Fraction(3, 2))),
    ]
    calls = []
    inner = convex._extreme_rays
    monkeypatch.setattr(convex, "_extreme_rays",
                        lambda *args: calls.append(args) or inner(*args))
    for D1, D2 in pairs:
        for D in (D1, D2, scale_region(D1, Fraction(5, 3))):
            covol(D)
        assert calls == []
        minkowski_sum(D1, D2)
        alone = len(calls)
        assert alone == 1  # the seeds' hull, facets and vertices in one pass
        kt_check(D1, D2)
        assert len(calls) == 2 * alone
        calls.clear()
    simplex = [(0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 4), (1, 1, 1)]
    for build in (lambda: hull_region(parse_ideal(R3, "x^7, y^6, z^5, x*y*z")),
                  lambda: hull_vertices(simplex), lambda: polytope_volume(simplex)):
        build()
        assert len(calls) == 1
        calls.clear()


def test_kt_check_of_two_d4_hulls_in_budget():
    R4 = AmbientRing.default(4)
    D1 = hull_region(parse_ideal(R4, "x^8, y^8, z^8, w^8, x^2*y*z, y^2*z*w, x*z^2*w, x*y*w^2"))
    D2 = hull_region(parse_ideal(
        R4, "x^7, y^9, z^8, w^7, x^3*y*w, x*y^3*z, y*z^3*w, x*z*w^3, x^2*y^2*z*w"))
    assert (len(D1.vertices), len(D2.vertices)) == (8, 8)
    report = timed(lambda: kt_check(D1, D2), 0.5)
    assert report == KTReport(Fraction(34), Fraction(417, 8), Fraction(12817, 24),
                              True, False, 4)
