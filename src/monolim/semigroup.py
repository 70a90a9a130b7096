"""Graded subsemigroup enumeration and the normalized counting limit.

A semigroup lives in N^p x N (points with a level); members at level i stay
inside the 1-norm box ||a||_1 <= beta * i.  Enumeration records exact level
counts, retains levels as column runs up to a budget, and the counting limit
lim #S_{m k} / k^q is compared against vol_q(body) / ind: in closed form
for a family with a limit region (Kaveh-Khovanskii, Ann. Math. 2012), else
from the hull and the lattice of the retained points.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd, inf, lcm, prod
from operator import le

from .convex import covol, hull_vertices, polytope_volume
from .errors import (
    GeometryError,
    InclusionError,
    MonolimError,
    NotPrimaryError,
    SemigroupError,
)
from .families import FamilySpec
from .lattice import _compositions


class SemigroupPredicate(namedtuple(
        "SemigroupPredicate", "point_dim beta member family", defaults=(None,))):
    """Membership oracle for a graded subsemigroup of N^p x N.

    ``member(point, level)`` must be closed under addition (spot-checked at
    enumeration time); ``beta`` bounds members at level i to the simplex
    ||point||_1 <= beta * i.  ``family`` is the graded family whose
    semigroup this is (see :meth:`from_family`), or None.
    """

    __slots__ = ()

    @staticmethod
    def from_family(F: FamilySpec) -> "SemigroupPredicate":
        """Semigroup of (a, i) with x^a in I_i, inside the beta-simplex.

        beta is d * c with c the least integer for which m^c lies inside
        I_1 (:meth:`FamilySpec.containment_order`, which a valuation family
        reads off its constraints).  No member past I_1 needs a check: for
        a graded family m^(c i) lies in I_1^i, which lies in I_i, for every
        i.  The family must be primary to the maximal ideal.  Membership is
        the family's own test (:meth:`FamilySpec.contains`).
        """
        d = F.ring.d
        try:
            beta = d * F.containment_order()
        except InclusionError as exc:
            raise NotPrimaryError(f"{F.label()}: no power of the maximal ideal "
                                  "lies inside member 1") from exc

        def member(a, i):
            return sum(a) <= beta * i and F.contains(a, i)

        return SemigroupPredicate(d, beta, member, F)


def _floor_runs(floors: dict, p: int, cap: int) -> list:
    """Column runs (col, floor(col), cap - |col|) of a family level inside
    the simplex |a| <= cap, one per nonempty column over the first p
    coordinates, in lex order, from its column floors (see
    :meth:`FamilySpec.column_floors`).

    A column's floor is the least floor listed at or below it; a column with
    none is empty.  The heads (the first p - 1 coordinates) are walked in lex
    order.  A head's row is the running least of its own listed floors and
    the rows one step back along each head coordinate, up to the largest
    listed last coordinate, past which its last floor holds.  Likewise a
    head past the largest listed value of a coordinate has the row of the
    head cut back to those values.
    """
    if p == 0 or not floors:
        return [((), floor, cap) for floor in floors.values() if floor <= cap]
    *tops, top = map(max, zip(*floors))
    span = range(top + 1)
    rows: dict = {}
    runs = []
    for comp in _compositions(cap, p):
        head, room = comp[:-1], comp[-1]
        cols = list(zip(*map(itertools.repeat, head), span))
        cut = tuple(map(min, head, tops))
        if cut == head:
            row = map(floors.get, cols, itertools.repeat(inf))
            for k, c in enumerate(head):
                if c:
                    row = map(min, row, rows[head[:k] + (c - 1,) + head[k + 1:]])
            row = list(row)
            if row != sorted(row, reverse=True):  # else it is its own running least
                row = list(itertools.accumulate(row, min))
            rows[head] = row
        row = rows[cut]
        last = row[-1]
        if last <= room:
            his = range(room, -1, -1)
            runs += itertools.compress(zip(cols, row, his), map(le, row, his))
            runs += zip(zip(*map(itertools.repeat, head), range(top + 1, room - last + 1)),
                        itertools.repeat(last), range(room - top - 1, last - 1, -1))
    return runs


def _member_runs(P: SemigroupPredicate, i: int) -> list:
    """Column runs of the members at level i of a predicate with no family,
    by scanning the beta-simplex."""
    runs = []
    for comp in _compositions(P.beta * i, P.point_dim):
        prefix, top = comp[:-1], comp[-1]
        start = None
        for t in range(top + 1):
            if P.member(prefix + (t,), i):
                if start is None:
                    start = t
            elif start is not None:
                runs.append((prefix, start, t - 1))
                start = None
        if start is not None:
            runs.append((prefix, start, top))
    return runs


def _size(runs) -> int:
    """Number of points in a list of column runs."""
    return sum(hi - lo + 1 for _, lo, hi in runs)


SemigroupLevels = namedtuple(
    "SemigroupLevels",
    "point_dim beta max_level counts levels truncated family", defaults=(None,))
SemigroupLevels.__doc__ = """Enumerated levels: exact counts everywhere, points
where retained.

``counts`` and ``levels`` are dicts by level.  A retained level is its list of column runs ``(prefix, lo, hi)``, each
standing for the points ``prefix + (t,)`` with lo <= t <= hi, in the
order the points are listed.
"""


#: Retained points across all levels; past it a result is flagged truncated.
RETAIN_BUDGET = 200_000
#: Random pairs of retained points checked for additivity, and their seed.
SPOT_CHECKS = 200
SPOT_SEED = 2024


def enumerate_levels(P: SemigroupPredicate, N: int) -> SemigroupLevels:
    """Enumerate all member points per level i <= N.

    Counts are exact for every level: a family's level i is the beta-simplex
    less the l(R/I_i) standard monomials, all of degree below c * i.  Levels
    are kept as column runs until the running point total would exceed
    ``RETAIN_BUDGET`` (the result is then flagged truncated).  A family's
    runs come from its column floors, in every point dimension; only a
    predicate with no family is scanned point by point.  Additivity of the
    predicate is spot-checked on ``SPOT_CHECKS`` random retained pairs and
    violations abort, unless its family is graded by definition.
    """
    F, d = P.family, P.point_dim
    counts: dict[int, int] = {}
    levels: dict[int, list] = {}
    retained_total = 0
    truncated = False
    for i in range(1, N + 1):
        if F is None:
            runs = _member_runs(P, i)
            counts[i] = _size(runs)
        else:
            counts[i] = comb(P.beta * i + d, d) - F.length(i)
        if not truncated and retained_total + counts[i] <= RETAIN_BUDGET:
            if F is not None:
                runs = _floor_runs(F.column_floors(i), d - 1, P.beta * i)
                if _size(runs) != counts[i]:
                    raise SemigroupError(f"level {i} does not count C(beta i + d, d) "
                                         "- l(R/I_i): the family is not graded")
            levels[i] = runs
            retained_total += counts[i]
        else:
            truncated = True
    result = SemigroupLevels(d, P.beta, N, counts, levels, truncated, F)
    if F is None or not F.graded_filtration:
        _spot_check_additivity(P, result, SPOT_CHECKS, SPOT_SEED)
    return result


def _spot_check_additivity(P: SemigroupPredicate, L: SemigroupLevels,
                           checks: int, seed: int) -> None:
    """Check ``checks`` random pairs of retained points for additivity.

    A pair is two uniform indices into the retained points listed level by
    level; each index is mapped through the run ends of all retained levels.
    """
    runs = [(i, run) for i, level in sorted(L.levels.items()) for run in level]
    ends = list(itertools.accumulate(hi - lo + 1 for _, (_, lo, hi) in runs))
    total = ends[-1] if ends else 0
    if total < 2:
        return
    import random  # only an unverified predicate needs it; start-up skips it
    rng = random.Random(seed)

    def draw():
        k = rng.randrange(total)
        r = bisect_right(ends, k)
        i, (prefix, lo, hi) = runs[r]
        return prefix + (hi - (ends[r] - 1 - k),), i

    for _ in range(checks):
        (a, i), (b, j) = draw(), draw()
        if i + j > L.max_level:
            continue
        s = tuple(x + y for x, y in zip(a, b))
        if not P.member(s, i + j):
            raise SemigroupError(
                f"additivity fails: {a}@{i} + {b}@{j} -> {s}@{i + j} is not a member")


# -- lattice invariants -------------------------------------------------------


def _row_lattice_basis(rows) -> list[list[int]]:
    """Echelon basis of the integer row lattice (pivot columns increasing,
    pivots positive).

    Rows are inserted one at a time.  At each column where a row is nonzero
    and a basis row pivots, Euclid's algorithm on the two rows leaves the
    gcd in the basis row and clears the column in the inserted row; at the
    first nonzero column with no pivot the row joins the basis.  Reading
    stops once every column has pivot 1: the lattice is then all of Z^n.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        v = list(row)
        for col in range(len(v)):
            if v[col] == 0:
                continue
            p = pivots.get(col)
            if p is None:
                pivots[col] = v if v[col] > 0 else [-a for a in v]
                break
            while v[col]:
                q = p[col] // v[col]
                p, v = v, [a - q * b for a, b in zip(p, v)]
            pivots[col] = p if p[col] > 0 else [-a for a in p]
        if len(pivots) == len(v) and all(p[c] == 1 for c, p in pivots.items()):
            break
    return [pivots[c] for c in sorted(pivots)]


def _saturation_index(basis: list[list[int]]) -> int:
    """Index of the row lattice inside all integer points of its span.

    That is the gcd of the maximal minors, which column operations keep: it
    is the index of the column lattice in Z^r, the product of the diagonal
    pivots of its echelon basis.
    """
    echelon = _row_lattice_basis([list(col) for col in zip(*basis)])
    if len(echelon) < len(basis):
        raise MonolimError("degenerate lattice basis")
    return prod(row[i] for i, row in enumerate(echelon))


LatticeInvariants = namedtuple("LatticeInvariants", "m ind q truncated")
LatticeInvariants.__doc__ = """Level-projection index m, boundary-lattice index
ind, boundary dim q."""


def lattice_invariants(L: SemigroupLevels) -> LatticeInvariants:
    """Invariants of the group generated by the enumerated members.

    m divides every nonempty level; ind and q come from an echelon basis of
    the member lattice (level coordinate first), using retained points only
    (flagged via ``truncated`` when retention was cut off).  A run
    ``(prefix, lo, hi)`` at level i spans the same lattice as
    ``[i, *prefix, lo]`` together with the last unit vector when hi > lo, so
    the basis is read from one row per run and that unit vector once.
    """
    nonempty = [i for i, c in sorted(L.counts.items()) if c > 0]
    if len(nonempty) < 2:
        raise MonolimError("need at least two nonempty levels")
    m = 0
    for i in nonempty:
        m = gcd(m, i)

    def rows():
        unit = [0] * L.point_dim + [1]
        for i, runs in sorted(L.levels.items()):
            for prefix, lo, hi in runs:
                yield [i, *prefix, lo]
                if hi > lo and unit:
                    yield unit
                    unit = None

    basis = _row_lattice_basis(rows())
    if not basis or basis[0][0] == 0:
        raise MonolimError("degenerate semigroup data")
    boundary = [row[1:] for row in basis[1:]]
    q = len(boundary)
    ind = _saturation_index(boundary)
    return LatticeInvariants(m, ind, q, L.truncated)


# -- the body and the counting limit -----------------------------------------


def okounkov_body(L: SemigroupLevels):
    """Vertices of the convex hull of the normalized retained points
    {point / level} (see :func:`convex.hull_vertices`).

    Every point of a retained level lies between the two ends of its column
    run, so only the run ends are normalized to ``Fraction``s and hulled.
    """
    if L.max_level < 3:
        raise MonolimError("enumerate at least 3 levels first")
    pts = {tuple(Fraction(c, i) for c in prefix + (t,))
           for i, runs in L.levels.items()
           for prefix, lo, hi in runs for t in (lo, hi)}
    if not pts:
        raise MonolimError("empty semigroup")
    return hull_vertices(pts)


def body_volume(vertices, q: int) -> Fraction:
    """Integral q-volume of the body w.r.t. the ambient lattice measure."""
    if q == 0:
        return Fraction(1)
    p = len(vertices[0])
    if q == 1:
        # A segment: its lattice length is the gcd of its integer direction
        # over the common denominator of that direction.
        lo, hi = min(vertices), max(vertices)
        diff = [b - a for a, b in zip(lo, hi)]
        den = lcm(*(c.denominator for c in diff))
        return Fraction(gcd(*(int(c * den) for c in diff)), den)
    if q == p:
        return polytope_volume(vertices)
    raise GeometryError("volume unavailable for this dimension")


SemigroupLimitReport = namedtuple(
    "SemigroupLimitReport",
    "invariants volume expected tail_ratios rel_gap bounded_max body")
SemigroupLimitReport.__doc__ = """Tail of #S_{m k}/k^q against the exact target
vol_q(body)/ind: the LatticeInvariants, the volume and target (Fractions), the
pairs (k, ratio), the float gaps and the body's vertices."""


def semigroup_limit_check(L: SemigroupLevels) -> SemigroupLimitReport:
    """Compare the normalized level counts against vol/ind.

    A family with a limit region D, in point dimension d >= 2 and with
    c >= 1, has the body Delta_beta ∩ D: D's vertices (of degree <= c <
    beta) and the points beta * e_j (the face |a| = beta lies inside D), of
    volume beta^d/d! - covol(D).  Level 1 holds a point of degree c and its
    d unit steps (beta = d c >= c + 1), so m = ind = 1 and q = d.  Any other
    semigroup takes :func:`lattice_invariants` and :func:`okounkov_body`.

    Also reports the boundedness diagnostic max_k #S_{mk}/k^q (a bounded
    value is the finite-data signal that the counting exponent q suffices).
    """
    F, d = L.family, L.point_dim
    D = F.limit_region if F is not None and d >= 2 and L.beta >= 1 else None
    if D is None:
        inv = lattice_invariants(L)
        body = okounkov_body(L)
        vol = body_volume(body, inv.q)
    else:
        inv = LatticeInvariants(1, 1, d, L.truncated)
        beta = Fraction(L.beta)
        body = [*D.vertices, *(tuple(beta if j == k else Fraction(0)
                                     for k in range(d)) for j in range(d))]
        vol = beta ** d / factorial(d) - covol(D)
    expected = vol / inv.ind
    ratios = []
    for k in range(1, L.max_level // inv.m + 1):
        i = inv.m * k
        if i in L.counts:
            ratios.append((k, Fraction(L.counts[i], k ** inv.q)))
    if not ratios:
        raise MonolimError("no counted levels at multiples of m")
    tail = tuple(ratios[-max(1, len(ratios) // 4):])
    tail_mean = sum(r for _, r in tail) / len(tail)
    gap = float(abs(tail_mean - expected) / expected) if expected else float(
        abs(tail_mean))
    bounded = max(float(r) for _, r in ratios)
    return SemigroupLimitReport(inv, vol, expected, tail, gap, bounded,
                                tuple(body))
