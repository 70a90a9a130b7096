"""Semigroup enumeration, lattice invariants and the counting limit."""

from dataclasses import astuple, replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_column_runs,
    oracle_convex_hull_2d,
    oracle_family_points,
    oracle_lattice_invariants,
    oracle_okounkov_body,
    oracle_saturation_index,
    oracle_scan_points,
    oracle_spot_check,
    valuation_specs,
)

from monolim import (
    AmbientRing,
    MonomialIdeal,
    PowerSpec,
    SemigroupPredicate,
    ValuationSpec,
    enumerate_levels,
    lattice_invariants,
    okounkov_body,
    parse_ideal,
    semigroup_limit_check,
)
from monolim import semigroup
from monolim.errors import MonolimError, SemigroupError
from monolim.semigroup import (
    LevelPoints,
    SemigroupLevels,
    _row_lattice_basis,
    _column_ends,
    _floor_runs,
    _saturation_index,
    _spot_check_additivity,
    body_volume,
    convex_hull_2d,
)


def _toy(beta, member, label=""):
    return SemigroupPredicate(1, beta, member, label)


def test_enumerate_toy_counts():
    L = enumerate_levels(_toy(2, lambda a, i: a[0] <= 2 * i), 20)
    assert all(L.counts[i] == 2 * i + 1 for i in range(1, 21))
    assert not L.truncated


def test_enumerate_even_levels_only():
    L = enumerate_levels(_toy(1, lambda a, i: i % 2 == 0 and a[0] <= i), 20)
    assert all(L.counts[i] == 0 for i in range(1, 20, 2))
    assert lattice_invariants(L).m == 2


def test_additivity_violation_aborts():
    # levels {1, 2} with an ad-hoc hole at level 2 is not a semigroup
    bad = _toy(3, lambda a, i: i == 1 or (i >= 2 and a[0] == 3))
    with pytest.raises(SemigroupError):
        enumerate_levels(bad, 12)


def test_invariants_toy():
    L = enumerate_levels(_toy(2, lambda a, i: a[0] <= 2 * i), 30)
    inv = lattice_invariants(L)
    assert (inv.m, inv.ind, inv.q) == (1, 1, 1)


def test_invariants_sublattice():
    L = enumerate_levels(_toy(2, lambda a, i: a[0] % 2 == 0 and a[0] <= 2 * i), 30)
    inv = lattice_invariants(L)
    assert (inv.m, inv.ind, inv.q) == (1, 2, 1)


def test_invariants_index_three():
    L = enumerate_levels(_toy(3, lambda a, i: a[0] % 3 == 0 and a[0] <= 3 * i), 30)
    inv = lattice_invariants(L)
    assert (inv.m, inv.ind, inv.q) == (1, 3, 1)


def test_lattice_invariants_read_every_retained_point():
    # level 1 holds the 2001 even points, and level 2 adds the odd ones
    P = SemigroupPredicate(1, 4000, lambda a, i: a[0] <= 4000 * i
                           and (i >= 2 or a[0] % 2 == 0))
    L = enumerate_levels(P, 4)
    assert astuple(lattice_invariants(L)) == (1, 1, 1, False)
    assert semigroup_limit_check(L).expected == 4000


def test_enumerate_levels_truncates_past_the_retain_budget():
    # level i holds 4000 * i + 1 points; levels 1..9 hold 180,009 and level
    # 10 would take the total past the 200,000 retained points
    L = enumerate_levels(_toy(4000, lambda a, i: a[0] <= 4000 * i), 12)
    assert L.truncated
    assert sorted(L.levels) == list(range(1, 10))
    assert [L.counts[i] for i in (10, 11, 12)] == [40001, 44001, 48001]
    report = semigroup_limit_check(L)
    assert report.invariants.truncated
    assert report.expected == 4000


def test_okounkov_body_interval():
    L = enumerate_levels(_toy(2, lambda a, i: a[0] <= 2 * i), 12)
    assert okounkov_body(L) == [(0,), (2,)]
    assert body_volume(okounkov_body(L), 1) == 2


def test_body_volume_of_a_segment_is_its_lattice_length():
    # one formula for every point dimension: gcd of the integer direction
    # over its common denominator
    assert body_volume([(Fraction(0), Fraction(0)),
                        (Fraction(3, 2), Fraction(3, 4))], 1) == Fraction(3, 4)
    assert body_volume([(Fraction(1, 3),), (Fraction(2),)], 1) == Fraction(5, 3)
    assert body_volume([(Fraction(7, 2), Fraction(1))], 1) == 0


def test_okounkov_body_simplex():
    pred = SemigroupPredicate(2, 1, lambda a, i: a[0] + a[1] <= i)
    L = enumerate_levels(pred, 12)
    body = okounkov_body(L)
    assert body_volume(body, 2) == Fraction(1, 2)


def test_limit_check_toy():
    L = enumerate_levels(_toy(2, lambda a, i: a[0] <= 2 * i), 200)
    report = semigroup_limit_check(L)
    assert report.expected == 2
    assert report.rel_gap < 0.03


def test_limit_check_sublattice():
    L = enumerate_levels(_toy(2, lambda a, i: a[0] % 2 == 0 and a[0] <= 2 * i), 200)
    report = semigroup_limit_check(L)
    assert report.invariants.ind == 2
    assert report.expected == 1
    assert report.rel_gap < 0.03


def test_family_predicate_beta(R2):
    fam = PowerSpec(parse_ideal(R2, "x, y"))
    pred = SemigroupPredicate.from_family(fam)
    assert pred.beta == 2
    assert pred.member((1, 0), 1) and not pred.member((0, 0), 1)
    assert not pred.member((5, 0), 2)


def test_family_counts_match_generic_scan(R2):
    fam = PowerSpec(parse_ideal(R2, "x, y"))
    pred = SemigroupPredicate.from_family(fam)
    generic = SemigroupPredicate(pred.point_dim, pred.beta, pred.member)
    L_fast = enumerate_levels(pred, 12)
    L_slow = enumerate_levels(generic, 12)
    assert L_fast.counts == L_slow.counts
    for i in range(1, 13):
        assert sorted(L_fast.levels[i]) == sorted(L_slow.levels[i])


def test_family_limit_matches_body(R2):
    fam = PowerSpec(parse_ideal(R2, "x, y"))
    pred = SemigroupPredicate.from_family(fam)
    L = enumerate_levels(pred, 150)
    report = semigroup_limit_check(L)
    assert report.volume == Fraction(3, 2)
    assert report.invariants.q == 2
    assert report.rel_gap < 0.03


def test_body_grows_with_levels(R2):
    from monolim.semigroup import convex_hull_2d
    fam = ValuationSpec.make(R2, [((2, 1), 2)])
    pred = SemigroupPredicate.from_family(fam)
    small = okounkov_body(enumerate_levels(pred, 4))
    large = okounkov_body(enumerate_levels(pred, 12))
    # extending the level range can only grow the hull
    assert convex_hull_2d(small + large) == convex_hull_2d(large)
    assert body_volume(large, 2) >= body_volume(small, 2)
    # powers of a fixed ideal stabilize immediately
    pw = PowerSpec(parse_ideal(R2, "x, y"))
    pred = SemigroupPredicate.from_family(pw)
    assert okounkov_body(enumerate_levels(pred, 6)) == okounkov_body(
        enumerate_levels(pred, 18))


def test_lattice_basis_helpers():
    basis = _row_lattice_basis([[2, 4], [0, 6], [2, 10]])
    assert len(basis) == 2
    assert _saturation_index([[2, 0], [0, 3]]) == 6
    assert _saturation_index([[1, 0], [0, 1]]) == 1
    assert _saturation_index([[2, 4]]) == 2


@st.composite
def _integer_bases(draw):
    """Up to 3 rows in Z^n, n <= 4, entries in [-6, 6]; the last row is a
    multiple of the first in about half of the draws (rank deficient)."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                         max_size=3))
    if len(rows) > 1 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        rows[-1] = [k * a for a in rows[0]]
    return rows


@settings(max_examples=300, deadline=None)
@given(_integer_bases())
def test_saturation_index_matches_the_maximal_minors(basis):
    try:
        want = oracle_saturation_index(basis)
    except MonolimError:
        with pytest.raises(MonolimError):
            _saturation_index(basis)
    else:
        assert _saturation_index(basis) == want


def test_degenerate_semigroup_raises():
    L = enumerate_levels(_toy(1, lambda a, i: a[0] == 0 and i == 1), 3)
    with pytest.raises(MonolimError):
        lattice_invariants(L)


def test_family_counts_complement_colength(R2):
    # inside the beta-simplex, non-members of I_i are exactly the standard
    # monomials, so simplex count - level count = colength at every level
    from math import comb
    for text in ("x, y", "x^2, x*y, y^2", "x^3, x*y, y^2"):
        fam = PowerSpec(parse_ideal(R2, text))
        pred = SemigroupPredicate.from_family(fam)
        L = enumerate_levels(pred, 20)
        for i in range(1, 21):
            simplex = comb(pred.beta * i + 2, 2)
            assert simplex - L.counts[i] == fam.length(i)


def test_count_gap_shrinks_as_levels_double():
    member = lambda a, i: a[0] <= 2 * i
    gap_small = semigroup_limit_check(enumerate_levels(_toy(2, member), 50)).rel_gap
    gap_large = semigroup_limit_check(enumerate_levels(_toy(2, member), 200)).rel_gap
    assert gap_large < gap_small


_coord = st.integers(0, 6)


@st.composite
def _planar_points(draw):
    kind = draw(st.sampled_from(("scatter", "few", "column", "line")))
    if kind == "scatter":
        pts = draw(st.lists(st.tuples(_coord, _coord), max_size=40))
    elif kind == "few":
        pts = draw(st.lists(st.tuples(_coord, _coord), max_size=2))
    elif kind == "column":
        x = draw(_coord)
        pts = [(x, y) for y in draw(st.lists(_coord, min_size=1, max_size=8))]
    else:
        # points of a line, some columns extended upward or downward
        a, b = draw(st.integers(-3, 3)), draw(st.integers(0, 20))
        xs = draw(st.lists(_coord, min_size=1, max_size=8))
        pts = [(x, a * x + b + draw(st.sampled_from((0, 0, -1, 1)))) for x in xs]
        pts += [(x, a * x + b) for x in xs]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4)) if pts else []
    scale = draw(st.one_of(st.just(1), st.fractions(min_value=Fraction(1, 9),
                                                    max_value=9, max_denominator=9)))
    return [(x * scale, y * scale) for x, y in draw(st.permutations(pts))]


@settings(max_examples=300, deadline=None)
@given(_planar_points())
def test_convex_hull_2d_matches_the_monotone_chain_oracle(points):
    assert convex_hull_2d(points) == oracle_convex_hull_2d(points)


def test_convex_hull_2d_small_cases():
    assert convex_hull_2d([]) == []
    assert convex_hull_2d([(1, 2), (1, 2)]) == [(1, 2)]
    assert convex_hull_2d([(3, 0), (1, 2)]) == [(1, 2), (3, 0)]
    assert convex_hull_2d([(2, y) for y in (5, 0, 3, 1)]) == [(2, 0), (2, 5)]
    assert convex_hull_2d([(x, x) for x in range(5)]) == [(0, 0), (4, 4)]
    assert convex_hull_2d([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0), (0, 1)]) == [
        (0, 0), (2, 0), (0, 2)]


def test_level_points_index_and_iterate_in_run_order():
    pts = LevelPoints([((0,), 2, 4), ((1,), 0, 0), ((3,), 1, 2)])
    listed = [(0, 2), (0, 3), (0, 4), (1, 0), (3, 1), (3, 2)]
    assert len(pts) == 6 and list(pts) == listed
    assert [pts[k] for k in range(-6, 6)] == listed + listed
    assert (1, 0) in pts and (2, 0) not in pts
    with pytest.raises(IndexError):
        pts[6]
    empty = LevelPoints([])
    assert len(empty) == 0 and list(empty) == [] and not empty


def test_family_levels_store_one_run_per_column(R2):
    for spec in (PowerSpec(parse_ideal(R2, "x^3, x*y, y^2")),
                 ValuationSpec.make(R2, [((2, 1), 2), ((1, 3), 1)])):
        pred = SemigroupPredicate.from_family(spec)
        L = enumerate_levels(pred, 20)
        assert not L.truncated and sorted(L.levels) == list(range(1, 21))
        for i, pts in L.levels.items():
            columns = [prefix for prefix, _, _ in pts.runs]
            assert len(pts.runs) <= pred.beta * i + 1
            assert columns == sorted(set(columns))


_small = st.integers(1, 4)


@st.composite
def _family_cases(draw):
    """A d = 2 power or valuation family's predicate, with the point-list
    oracle for its levels."""
    ring = AmbientRing.default(2)
    if draw(st.booleans()):
        gens = [(draw(_small), 0), (0, draw(_small))]
        gens += draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
                              max_size=3))
        F = PowerSpec(MonomialIdeal.from_gens(ring, gens))
    else:
        F = ValuationSpec.make(ring, draw(st.lists(
            st.tuples(st.tuples(_small, _small), _small), min_size=1, max_size=3)))
    P = SemigroupPredicate.from_family(F)
    return P, lambda i: oracle_family_points(F, P.beta, i)


@st.composite
def _toy_cases(draw):
    """A generic-scan predicate in point dimension 1 or 2: linear bounds,
    a congruence on the last coordinate (gaps inside columns) and maybe
    even levels only; each piece is closed under addition."""
    p = draw(st.sampled_from((1, 2)))
    weights = st.tuples(*[st.integers(0, 3)] * p)
    upper = draw(st.lists(st.tuples(weights, st.integers(0, 3)), max_size=2))
    lower = draw(st.lists(st.tuples(weights, st.integers(0, 2)), max_size=2))
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def dot(w, a):
        return sum(x * y for x, y in zip(w, a))

    def member(a, i):
        return (i % m == 0 and a[-1] % k == 0
                and all(dot(w, a) <= t * i for w, t in upper)
                and all(dot(w, a) >= t * i for w, t in lower))

    P = SemigroupPredicate(p, draw(st.integers(1, 3)), member)
    return P, lambda i: oracle_scan_points(P, i)


def _member_calls(check, P, L):
    """The (point, level) queries an additivity spot check makes."""
    calls = []

    def member(a, i):
        calls.append((a, i))
        return P.member(a, i)

    check(replace(P, member=member), L, 200, 2024)
    return calls


def _body_or_error(body, L):
    try:
        return body(L)
    except MonolimError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_family_cases(), _toy_cases()), st.integers(3, 7),
       st.integers(0, 3000))
def test_level_runs_match_the_point_list_oracles(case, N, budget):
    P, oracle_points = case
    with mock.patch.object(semigroup, "RETAIN_BUDGET", budget):
        L = enumerate_levels(P, N)
    want = {i: oracle_points(i) for i in range(1, N + 1)}
    assert L.counts == {i: len(pts) for i, pts in want.items()}
    kept, total = [], 0
    for i in range(1, N + 1):
        if total + len(want[i]) > budget:
            break
        kept.append(i)
        total += len(want[i])
    assert sorted(L.levels) == kept and L.truncated == (len(kept) < N)
    for i in kept:
        got = L.levels[i]
        assert len(got) == L.counts[i]
        assert list(got) == want[i]
        assert [got[k] for k in range(len(got))] == want[i]
    O = SemigroupLevels(L.point_dim, L.beta, N, L.counts,
                        {i: want[i] for i in kept}, L.truncated, L.label)
    assert _body_or_error(okounkov_body, L) == _body_or_error(oracle_okounkov_body, O)
    assert (_member_calls(_spot_check_additivity, P, L)
            == _member_calls(oracle_spot_check, P, O))


@settings(max_examples=150, deadline=None)
@given(st.one_of(valuation_specs(2), st.lists(
           st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=4).map(
           lambda gens: PowerSpec(MonomialIdeal.from_gens(AmbientRing.default(2), gens)))),
       st.integers(1, 6), st.integers(1, 6))
def test_floor_runs_match_the_corner_walk(F, beta, i):
    assert (_floor_runs(F.column_floors(i), beta * i)
            == oracle_column_runs(F.member_ideal(i).gens, beta * i))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_family_cases(), _toy_cases()), st.integers(3, 7),
       st.integers(0, 3000))
def test_lattice_invariants_match_the_point_row_reduction(case, N, budget):
    with mock.patch.object(semigroup, "RETAIN_BUDGET", budget):
        L = enumerate_levels(case[0], N)
    try:
        want = oracle_lattice_invariants(L)
    except MonolimError as exc:
        with pytest.raises(MonolimError, match=str(exc)):
            lattice_invariants(L)
    else:
        assert astuple(lattice_invariants(L)) == want


@st.composite
def _level_runs(draw):
    """Runs of a level in point dimension 2: columns with gaps between them,
    one or two runs each, the low and high ends near lines so that many are
    collinear."""
    xs = sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=10)))
    a, b = draw(st.integers(-2, 2)), draw(st.integers(0, 30))
    noise = st.sampled_from((0, 0, 0, 1, -1))
    runs = []
    for x in xs:
        lo = a * x + b + draw(noise)
        for _ in range(draw(st.integers(1, 2))):
            hi = lo + draw(st.sampled_from((0, 2, 5, 5)))
            runs.append(((x,), lo, hi))
            lo = hi + 2
    return runs


@settings(max_examples=300, deadline=None)
@given(_level_runs())
def test_column_ends_keep_the_hull_of_every_run_end(runs):
    every_end = [(x, t) for (x,), lo, hi in runs for t in (lo, hi)]
    assert convex_hull_2d(_column_ends(runs)) == convex_hull_2d(every_end)
