"""Semigroup enumeration, lattice invariants and the counting limit."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    level_points,
    oracle_column_runs,
    oracle_containment_order,
    oracle_convex_hull_2d,
    oracle_family_points,
    oracle_lattice_invariants,
    oracle_okounkov_body,
    oracle_point_runs,
    oracle_saturation_index,
    oracle_scan_points,
    oracle_spot_check,
    timed,
    valuation_specs,
)

from monolim import (
    AmbientRing,
    MaxPowerSpec,
    MonomialIdeal,
    PowerSpec,
    SemigroupPredicate,
    TableSpec,
    ValuationSpec,
    enumerate_levels,
    lattice_invariants,
    okounkov_body,
    parse_ideal,
    semigroup_limit_check,
)
from monolim import semigroup
from monolim.convex import hull_vertices
from monolim.errors import MonolimError, SemigroupError
from monolim.semigroup import (
    _floor_runs,
    _member_runs,
    _row_lattice_basis,
    _saturation_index,
    _spot_check_additivity,
    body_volume,
)


def _toy(beta, member):
    return SemigroupPredicate(1, beta, member)


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
    assert tuple(lattice_invariants(L)) == (1, 1, 1, False)
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
        assert L_fast.levels[i] == L_slow.levels[i]


def test_family_limit_matches_body(R2):
    fam = PowerSpec(parse_ideal(R2, "x, y"))
    pred = SemigroupPredicate.from_family(fam)
    L = enumerate_levels(pred, 150)
    report = semigroup_limit_check(L)
    assert report.volume == Fraction(3, 2)
    assert report.invariants.q == 2
    assert report.rel_gap < 0.03


def test_okounkov_body_of_many_seeds_in_budget(R2):
    # 5,328 column runs, so about 10,600 run ends hulled by one double
    # description; comparing the zero sets of its ~6,400 constraints pairwise,
    # without the width - 1 count, takes 3 to 4 times as long
    L = enumerate_levels(SemigroupPredicate.from_family(
        MaxPowerSpec(R2, "table", tuple(range(1, 81)))), 80)
    assert sum(map(len, L.levels.values())) == 5328
    body = timed(lambda: okounkov_body(L), 1.0)
    assert body == [(0, 1), (1, 0), (2, 0), (0, 2)]


def test_body_grows_with_levels(R2):
    fam = ValuationSpec.make(R2, [((2, 1), 2)])
    pred = SemigroupPredicate.from_family(fam)
    small = okounkov_body(enumerate_levels(pred, 4))
    large = okounkov_body(enumerate_levels(pred, 12))
    # extending the level range can only grow the retained levels' hull, and
    # it stays inside the family's body, which does not depend on N
    assert hull_vertices(small + large) == large
    assert body_volume(large, 2) >= body_volume(small, 2)
    body = semigroup_limit_check(enumerate_levels(pred, 4)).body
    assert semigroup_limit_check(enumerate_levels(pred, 12)).body == body
    assert hull_vertices(list(body) + large) == list(body)
    assert body == ((0, 2), (1, 0), (4, 0), (0, 4))


def test_family_body_is_the_simplex_cut_by_the_limit_region(R2):
    # the vertex (25/49, 25/49) of the region first shows at level 49, far
    # past the levels a retained-level hull would see
    fam = ValuationSpec.make(R2, [((97, 1), 50), ((1, 97), 50)])
    report = timed(lambda: semigroup_limit_check(
        enumerate_levels(SemigroupPredicate.from_family(fam), 40)))
    assert report.volume == Fraction(243750, 49)
    assert (Fraction(25, 49), Fraction(25, 49)) in report.body
    assert report.invariants.truncated


def test_a_family_that_is_not_graded_fails_the_count_check(R2):
    # I_1 I_1 = m^2 is not inside I_2 = (x^6, y), whose standard monomial
    # x^5 lies past the simplex at level 2
    fam = TableSpec(tuple(parse_ideal(R2, text) for text in
                          ("1", "x, y", "x^6, y", "x^9, y")))
    with pytest.raises(SemigroupError, match="the family is not graded"):
        enumerate_levels(SemigroupPredicate.from_family(fam), 3)


def test_additivity_is_spot_checked_only_off_a_graded_definition(R2):
    # a power family is graded by definition; a table and a bare predicate
    # are checked on random pairs
    power = PowerSpec(parse_ideal(R2, "x^2, y"))
    table = TableSpec(tuple(parse_ideal(R2, text) for text in ("1", "x, y", "x^2, y^2")))
    for P, checked in ((SemigroupPredicate.from_family(power), False),
                       (SemigroupPredicate.from_family(table), True),
                       (_toy(2, lambda a, i: a[0] <= 2 * i), True)):
        with mock.patch.object(semigroup, "_spot_check_additivity") as spot:
            enumerate_levels(P, 2)
        assert spot.called == checked


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
@given(_planar_points().filter(bool))
def test_lift_hull_matches_the_monotone_chain_oracle(points):
    # the lift takes points of the orthant: move the line cases up into it
    low = min(0, *(y for _, y in points))
    points = [(x, y - low) for x, y in points]
    assert hull_vertices(points) == oracle_convex_hull_2d(points)


def test_lift_hull_small_cases():
    assert hull_vertices([(1, 2), (1, 2)]) == [(1, 2)]
    assert hull_vertices([(3, 0), (1, 2)]) == [(1, 2), (3, 0)]
    assert hull_vertices([(2, y) for y in (5, 0, 3, 1)]) == [(2, 0), (2, 5)]
    assert hull_vertices([(x, x) for x in range(5)]) == [(0, 0), (4, 4)]
    assert hull_vertices([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0), (0, 1)]) == [
        (0, 0), (2, 0), (0, 2)]
    assert hull_vertices([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0),
                          (0, 1, 1)]) == [(0, 0, 0), (0, 0, 2), (0, 2, 0), (2, 0, 0)]
    assert body_volume(hull_vertices([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),
                                      (1, 1, 0)]), 3) == Fraction(4, 3)


def test_family_levels_store_one_run_per_column(R2):
    for spec in (PowerSpec(parse_ideal(R2, "x^3, x*y, y^2")),
                 ValuationSpec.make(R2, [((2, 1), 2), ((1, 3), 1)])):
        pred = SemigroupPredicate.from_family(spec)
        L = enumerate_levels(pred, 20)
        assert not L.truncated and sorted(L.levels) == list(range(1, 21))
        for i, runs in L.levels.items():
            columns = [prefix for prefix, _, _ in runs]
            assert len(runs) <= pred.beta * i + 1
            assert columns == sorted(set(columns))


@st.composite
def _family_cases(draw):
    """A power or valuation family's predicate in d = 1, 2 or 3, with the
    point-list oracle for its levels: the corner walk in d = 2, the simplex
    scan otherwise.  Exponents, weights and thresholds are smaller in d = 3,
    where the scan covers a tetrahedron at every level."""
    d = draw(st.sampled_from((1, 2, 3)))
    ring = AmbientRing.default(d)
    top = 2 if d == 3 else 4
    if draw(st.booleans()):
        gens = [tuple(draw(st.integers(1, top)) if k == j else 0 for k in range(d))
                for j in range(d)]
        gens += draw(st.lists(st.tuples(*[st.integers(0, top)] * d).filter(any),
                              max_size=3))
        F = PowerSpec(MonomialIdeal.from_gens(ring, gens))
    else:
        entry = st.integers(1, top)
        F = ValuationSpec.make(ring, draw(st.lists(
            st.tuples(st.tuples(*[entry] * d), entry), min_size=1, max_size=3)))
    P = SemigroupPredicate.from_family(F)
    if d == 2:
        return P, lambda i: oracle_family_points(F, P.beta, i)
    return P, lambda i: oracle_scan_points(P, i)


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

    check(P._replace(member=member), L, 200, 2024)
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
        assert level_points(L.levels[i]) == want[i]
    O = L._replace(levels={i: want[i] for i in kept})
    assert _body_or_error(okounkov_body, L) == _body_or_error(oracle_okounkov_body, O)
    assert (_member_calls(_spot_check_additivity, P, L)
            == _member_calls(oracle_spot_check, P, O))


def _unclosed_powers():
    """The power family of a primary ideal in d = 2 that is not integrally
    closed: its column floors are the sparse listing of I_i's corners."""
    corners = st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=2)
    return st.tuples(st.integers(2, 6), st.integers(2, 6), corners).map(
        lambda c: PowerSpec(MonomialIdeal.from_gens(
            AmbientRing.default(2), [(c[0], 0), (0, c[1]), *c[2]]))).filter(
        lambda F: F.closure is None)


@st.composite
def _floor_cases(draw):
    """A power or valuation family in d = 1, 2, 3 or 4, primary or not, and a
    simplex cap beta * i with its level i.  Exponents, levels and caps are
    smaller in d = 3 and 4, where the oracle scans the simplex; d = 4 has
    two-coordinate heads, whose rows come from the rows one step back along
    either coordinate."""
    d = draw(st.sampled_from((1, 2, 3, 4)))
    top = {3: 3, 4: 2}.get(d, 4)
    gens = st.tuples(*[st.integers(0, top)] * d)
    F = draw(st.one_of(valuation_specs(d), st.lists(gens, min_size=1, max_size=4).map(
        lambda g: PowerSpec(MonomialIdeal.from_gens(AmbientRing.default(d), g))),
        *([_unclosed_powers()] if d == 2 else [])))
    i = draw(st.integers(1, {3: 3, 4: 2}.get(d, 6)))
    return F, draw(st.integers(1, 4 if d == 4 else 6)) * i, i


@settings(max_examples=150, deadline=None)
@given(_floor_cases())
# d = 4: head (0, 1) lists nothing and takes its floors from head (0, 0),
# one step back along the second head coordinate
@example((PowerSpec(MonomialIdeal.from_gens(AmbientRing.default(4),
                                            [(0, 0, 0, 1), (0, 2, 0, 0)])), 3, 1))
def test_floor_runs_match_the_corner_walk(case):
    # d = 2 against the corner walk over I_i's generators, d = 1, 3 and 4
    # against the membership of every point of the simplex
    F, cap, i = case
    d = F.ring.d
    want = (oracle_column_runs(F.member_ideal(i).gens, cap) if d == 2
            else oracle_point_runs(F, i, cap))
    assert _floor_runs(F.column_floors(i), d - 1, cap) == want


@settings(max_examples=80, deadline=None)
@given(st.one_of(_family_cases(), _toy_cases()), st.integers(3, 7),
       st.integers(0, 3000))
def test_lattice_invariants_match_the_point_row_reduction(case, N, budget):
    with mock.patch.object(semigroup, "RETAIN_BUDGET", budget):
        L = enumerate_levels(case[0], N)
    try:
        want = oracle_lattice_invariants(L._replace(
            levels={i: level_points(runs) for i, runs in L.levels.items()}))
    except MonolimError as exc:
        with pytest.raises(MonolimError, match=str(exc)):
            lattice_invariants(L)
    else:
        assert tuple(lattice_invariants(L)) == want


@st.composite
def _primary_families(draw):
    """A primary power or valuation family in d = 2 or 3, small enough for
    the simplex scan."""
    d = draw(st.sampled_from((2, 3)))
    ring = AmbientRing.default(d)
    top = 4 if d == 2 else 2
    if draw(st.booleans()):
        gens = [tuple(draw(st.integers(1, top)) if k == j else 0 for k in range(d))
                for j in range(d)]
        gens += draw(st.lists(st.tuples(*[st.integers(0, top)] * d).filter(any),
                              max_size=3))
        return PowerSpec(MonomialIdeal.from_gens(ring, gens))
    weights = st.tuples(*[st.integers(1, 3)] * d)
    return ValuationSpec.make(ring, draw(st.lists(
        st.tuples(weights, st.integers(1, 3)), min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(_primary_families(), st.integers(1, 2))
def test_family_counts_match_the_simplex_scan(F, i):
    P = SemigroupPredicate.from_family(F)
    assert P.beta == F.ring.d * oracle_containment_order(F.member_ideal(1))
    with mock.patch.object(semigroup, "RETAIN_BUDGET", 0):
        L = enumerate_levels(P, i)
    assert L.levels == {}
    assert L.counts[i] == len(level_points(_member_runs(P, i)))


@settings(max_examples=40, deadline=None)
@given(_primary_families())
def test_retained_points_lie_in_the_family_body(F):
    L = enumerate_levels(SemigroupPredicate.from_family(F), 3)
    report = semigroup_limit_check(L)
    body = list(report.body)
    assert set(hull_vertices(body)) == set(body)
    assert report.volume == body_volume(body, F.ring.d)
    ends = [tuple(Fraction(c, i) for c in prefix + (t,))
            for i, runs in L.levels.items() for prefix, lo, hi in runs
            for t in (lo, hi)]
    assert set(hull_vertices(body + ends)) == set(body)
