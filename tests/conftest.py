"""Shared fixtures and brute-force oracles for the test suite.

The staircase oracles work purely by lattice-point enumeration over explicit
boxes (numpy membership matrices) and stay independent of the staircase code
they check.  The hull oracles are the per-candidate ``Fraction`` kernels that
the integer, output-sensitive ones replaced, kept here unchanged; so are the
dimension-specific region kernels that the double description and the
facet-cone covolume replaced (the 2-D envelope chain and shoelace, the 3-D
plane-by-plane integration, the grid bracket) and the valuation-family
oracles (``Fraction`` column floors in d = 2, a box scan in d >= 3).  The
semigroup oracles are the point-list level enumeration, the per-point
Okounkov body and the flattened-pool additivity spot check that column runs
replaced, the gcd of all maximal minors that the echelon pivots of the
transposed basis replaced, the corner walk over a level's member ideal that
the family's column floors replaced (with the membership of every simplex
point outside d = 2), and the column-at-a-time row reduction
over every retained point that the per-run, early-stopping one replaced.  The subset scan for the dimension of R/I and the
Hilbert-Samuel differences for a module's multiplicity (run out to a fixed
power, not stopped at the first repeat) are the kernels that localization at
the monomial primes replaced.  The set-based staircase kernels (pairwise sums
into a set, minimalizers sorted twice with a Python graded-lex key, pure
powers read off a built colon, the m^b test that scans every generator's
degree) are kept as they were, to pin the column-wise ones to the
same tuples in the same order; so are the localization that zeroes the
coordinates and minimalizes in all d variables, and the containment test
that scans the pairs of generators.  The limit fit on ``Fraction`` tail
ratios and residuals is kept as it was, to pin the integer moment-sum fit
to the same ``LimitEstimate``.  So are the ``Fraction`` Lasserre recursion,
the covolume that re-runs the double description for its zero sets, and
the Minkowski sum that hulls every pairwise ``Fraction`` vertex sum, to pin
the integer kernels and the zero sets read from the vertices to the same
values.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from operator import add

import numpy as np
import pytest
from hypothesis import strategies as st

from monolim import INFINITE, AmbientRing, MonomialIdeal, ValuationSpec
from monolim.asymptotics import LengthSequence, LimitEstimate
from monolim import convex
from monolim.convex import hull_vertices, region
from monolim.errors import EstimateError, GeometryError, MonolimError
from monolim.lattice import _staircase_insert, dominates, length_mod_power


@pytest.fixture(scope="session")
def R2() -> AmbientRing:
    return AmbientRing.default(2)


@pytest.fixture(scope="session")
def R3() -> AmbientRing:
    return AmbientRing.default(3)


def timed(fn, budget_s: float = 1.0):
    """fn(), asserting that it returns within ``budget_s`` seconds."""
    t0 = time.perf_counter()
    value = fn()
    assert time.perf_counter() - t0 < budget_s
    return value


def box_points(bounds):
    """All lattice points of prod [0, b_i)."""
    return np.array(list(itertools.product(*[range(b) for b in bounds])),
                    dtype=np.int64).reshape(-1, len(bounds))


def membership(gens, pts: np.ndarray) -> np.ndarray:
    """Boolean membership of each point in the staircase of ``gens``."""
    if not gens:
        return np.zeros(len(pts), dtype=bool)
    G = np.array(gens, dtype=np.int64)
    return (pts[:, None, :] >= G[None, :, :]).all(axis=2).any(axis=1)


def joint_box(*ideals, margin: int = 2):
    d = ideals[0].ring.d
    hi = [0] * d
    for ideal in ideals:
        for g in ideal.gens:
            hi = [max(a, b) for a, b in zip(hi, g)]
    return [h + margin for h in hi]


def oracle_colength(I: MonomialIdeal):
    """Count of non-members inside the pure-power box; None if not primary."""
    pure = I.pure_powers()
    if any(p is None for p in pure):
        return None
    if I.is_unit:
        return 0
    pts = box_points([max(p, 1) for p in pure])
    return int((~membership(I.gens, pts)).sum())


def oracle_containment_order(I: MonomialIdeal) -> int:
    """Least c with m^c inside a primary ideal: one plus the largest degree of
    a non-member of the generator box (0 for the unit ideal)."""
    pts = box_points(joint_box(I))
    outside = pts[~membership(I.gens, pts)]
    return int(outside.sum(axis=1).max()) + 1 if len(outside) else 0


def oracle_colon_members(I, J, pts: np.ndarray) -> np.ndarray:
    """a is a member of I : J iff a + g lies in I for every generator g of J."""
    out = np.ones(len(pts), dtype=bool)
    for g in J.gens:
        out &= membership(I.gens, pts + np.array(g, dtype=np.int64))
    return out


def random_exponent(rng: random.Random, d: int, max_exp: int):
    return tuple(rng.randint(0, max_exp) for _ in range(d))


def random_ideal(rng: random.Random, ring: AmbientRing, max_exp: int = 8,
                 max_gens: int = 5, nonzero: bool = True) -> MonomialIdeal:
    gens = [random_exponent(rng, ring.d, max_exp)
            for _ in range(rng.randint(1 if nonzero else 0, max_gens))]
    gens = [g for g in gens if any(g)] or ([(1,) + (0,) * (ring.d - 1)] if nonzero else [])
    return MonomialIdeal.from_gens(ring, gens)


def random_primary_ideal(rng: random.Random, ring: AmbientRing,
                         max_exp: int = 8, extra_gens: int = 3) -> MonomialIdeal:
    d = ring.d
    gens = []
    for j in range(d):
        e = [0] * d
        e[j] = rng.randint(1, max_exp)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, extra_gens)):
        g = random_exponent(rng, d, max_exp)
        if any(g):
            gens.append(g)
    return MonomialIdeal.from_gens(ring, gens)


# -- staircase oracles: the set-based kernels, kept as they were ---------------


def _oracle_gradedlex_key(e):
    return (sum(e), e)


def _oracle_minimalize_2d(points):
    pts = sorted(set(points))
    kept = []
    best_y = None
    for p in pts:
        if best_y is None or p[1] < best_y:
            kept.append(p)
            best_y = p[1]
    return kept


def _oracle_minimalize_3d(points):
    xs, ys, kept = [], [], []
    for z, x, y in sorted({(z, x, y) for x, y, z in points}):
        if _staircase_insert(xs, ys, x, y):
            kept.append((x, y, z))
    return kept


def _oracle_minimalize_general(points):
    kept = []
    for p in sorted(set(points), key=_oracle_gradedlex_key):
        if not any(dominates(q, p) for q in kept):
            kept.append(p)
    return kept


def oracle_minimal_antichain(points, d: int):
    """Minimal elements in graded-lex order: sweep, then a keyed sort."""
    if not points:
        return ()
    sweep = {2: _oracle_minimalize_2d, 3: _oracle_minimalize_3d}.get(
        d, _oracle_minimalize_general)
    return tuple(sorted(sweep(points), key=_oracle_gradedlex_key))


def oracle_multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I * J from the set of pairwise generator sums."""
    sums = {tuple(map(add, g, h)) for g in I.gens for h in J.gens}
    return MonomialIdeal(I.ring, oracle_minimal_antichain(sums, I.ring.d))


def oracle_localize(I: MonomialIdeal, axes) -> MonomialIdeal:
    """I localized at ``axes``: every generator with those coordinates set to
    0, minimalized in all d variables."""
    axes = set(axes)
    if not axes:
        return I
    zeroed = [tuple(0 if j in axes else c for j, c in enumerate(g)) for g in I.gens]
    return MonomialIdeal(I.ring, oracle_minimal_antichain(zeroed, I.ring.d))


def oracle_issubset(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """I <= J by the pairwise scan: J holds every generator of I."""
    return all(J.contains(g) for g in I.gens)


# -- dimension and multiplicity oracles: the kernels localization replaced ----


def oracle_dim_quotient(I: MonomialIdeal) -> int:
    """Krull dimension of R/I by the subset scan: the most variables that can
    be left free while every generator still has a positive exponent off them
    (d for the zero ideal, -1 for the unit ideal)."""
    if I.is_zero:
        return I.ring.d
    if I.is_unit:
        return -1
    d = I.ring.d
    for r in range(d, 0, -1):
        for subset in itertools.combinations(range(d), r):
            free = set(subset)
            if all(any(c > 0 for j, c in enumerate(g) if j not in free)
                   for g in I.gens):
                return r
    return 0


def oracle_module_multiplicity(outer: MonomialIdeal, inner: MonomialIdeal,
                               s: int, k: int) -> int:
    """e_s(outer/inner) from the s-th differences of the Hilbert-Samuel
    function l(outer/(m^j outer + inner)), j = 0..k; the last 10 differences
    must agree, so ``k`` has to reach past where the function is polynomial."""
    diffs = [length_mod_power(outer, inner, j) for j in range(k + 1)]
    for _ in range(s):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert len(diffs) >= 10 and len(set(diffs[-10:])) == 1, diffs
    return diffs[-1]


# -- hull oracles: the per-candidate kernels, kept as they were ----------------


def _oracle_primitive(normal, offset):
    fracs = [Fraction(c) for c in normal]
    mult = 1
    for f in fracs:
        mult = mult * f.denominator // gcd(mult, f.denominator)
    ints = [int(f * mult) for f in fracs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g == 0:
        raise GeometryError("zero normal vector")
    return tuple(c // g for c in ints), Fraction(offset) * mult / g


def _oracle_cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def oracle_hull_halfspaces_3d(gens):
    """Every candidate normal checked against every seed in the seeds' own
    arithmetic (``Fraction`` when they are rational)."""
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    candidates = []
    for g1, g2, g3 in itertools.combinations(gens, 3):
        u = tuple(a - b for a, b in zip(g2, g1))
        v = tuple(a - b for a, b in zip(g3, g1))
        candidates.append((_oracle_cross(u, v), g1))
    for g1, g2 in itertools.combinations(gens, 2):
        u = tuple(a - b for a, b in zip(g2, g1))
        for e in axes:
            candidates.append((_oracle_cross(u, e), g1))
    seen = set()
    out = []
    for n, base in candidates:
        if all(c == 0 for c in n):
            continue
        if all(c <= 0 for c in n):
            n = tuple(-c for c in n)
        if any(c < 0 for c in n):
            continue
        b = sum(a * c for a, c in zip(n, base))
        if b <= 0:
            continue
        if any(sum(a * c for a, c in zip(n, g)) < b for g in gens):
            continue
        key = _oracle_primitive(n, b)
        if key in seen:
            continue
        seen.add(key)
        out.append(key)
    return out


def oracle_convex_hull_2d(points):
    """Monotone chain over every distinct point."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (x0, y0), (x1, y1) = out[-2], out[-1]
                if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return lower[:-1] + upper[:-1]


# -- region oracles: the dimension-specific kernels, kept as they were ---------
#
# Each takes a halfspace list ((normal, offset) pairs, primitive normals, as in
# ``ConvexRegion.halfspaces``) instead of a region.


def oracle_region_2d(halfspaces):
    """The 2-D canonical form: primitive, deduplicated, positive offsets;
    the envelope chain drops redundant halfspaces when every n[1] > 0."""
    cleaned = {}
    for normal, offset in halfspaces:
        n, b = _oracle_primitive(normal, offset)
        if b <= 0:
            continue
        if n not in cleaned or cleaned[n] < b:
            cleaned[n] = b
    hs = sorted(cleaned.items())
    if all(n[1] > 0 for n, _ in hs):
        hs = sorted(seg[2] for seg in _oracle_chain_2d(hs))
    return tuple(hs)


def _oracle_chain_2d(hs):
    """Envelope pieces [(u_start, u_end, halfspace)] of the region boundary.

    The boundary over u = y1 is the upper envelope of the facet lines
    y2 = (b - a1*u)/a2, clipped to u >= 0 and to positive height; ``u_end``
    is None when the region never meets the y1-axis (not cobounded).
    """
    by_slope = {}
    for n, b in hs:
        s, c = Fraction(-n[0], n[1]), Fraction(b, n[1])
        if s not in by_slope or by_slope[s][0] < c:
            by_slope[s] = (c, (n, b))
    ordered = [(s, c, h) for s, (c, h) in sorted(by_slope.items())]

    def meet(l1, l2):
        return (l2[1] - l1[1]) / (l1[0] - l2[0])

    stack = []
    for line in ordered:
        while len(stack) >= 2 and meet(stack[-2], line) <= meet(stack[-2], stack[-1]):
            stack.pop()
        stack.append(line)
    out = []
    for i, (s, c, h) in enumerate(stack):
        lo = Fraction(0) if i == 0 else max(meet(stack[i - 1], stack[i]), Fraction(0))
        hi = meet(stack[i], stack[i + 1]) if i + 1 < len(stack) else None
        if hi is not None and hi <= lo:
            continue
        if s * lo + c <= 0:
            continue
        if s < 0:
            zero = -c / s
            if hi is None or zero < hi:
                hi = zero
        out.append((lo, hi, h))
    return out


def oracle_vertices_2d(halfspaces):
    """Boundary vertex chain from the y-axis to the y1-axis (cobounded,
    canonical halfspaces)."""
    if not halfspaces:
        return [(Fraction(0), Fraction(0))]
    verts = []
    for u0, u1, (n, b) in _oracle_chain_2d(list(halfspaces)):
        y0 = Fraction(b - n[0] * u0, n[1])
        if not verts:
            verts.append((u0, y0))
        for u in ([u1] if u1 is not None else []):
            verts.append((u, Fraction(b - n[0] * u, n[1])))
    return verts


def _oracle_shoelace(points):
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        total += x0 * y1 - x1 * y0
    return total / 2


def oracle_covol_2d(halfspaces):
    """Shoelace area of the complement polygon: the origin, then the vertex
    chain reversed."""
    verts = oracle_vertices_2d(halfspaces)
    if len(verts) == 1:
        return Fraction(0)
    assert verts[-1][1] == 0
    return abs(_oracle_shoelace([(Fraction(0), Fraction(0))] + verts[::-1]))


def oracle_hull_halfspaces_2d(gens):
    """Lower convex chain of the sorted generators, one halfspace per edge."""
    pts = sorted(gens)
    chain = []
    for p in pts:
        while len(chain) >= 2:
            (x0, y0), (x1, y1) = chain[-2], chain[-1]
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    out = []
    for (x0, y0), (x1, y1) in zip(chain, chain[1:]):
        n = (y0 - y1, x1 - x0)
        out.append((n, Fraction(n[0] * x0 + n[1] * y0)))
    return out


def oracle_minkowski_2d(halfspaces1, halfspaces2):
    """2-D sum from support data: every normal of either region, offset the
    sum of the two support minima over the vertex chains."""
    def support(hs, normal):
        return min(sum(Fraction(a) * c for a, c in zip(normal, v))
                   for v in oracle_vertices_2d(hs))
    normals = {n for n, _ in halfspaces1} | {n for n, _ in halfspaces2}
    return oracle_region_2d([(n, support(halfspaces1, n) + support(halfspaces2, n))
                             for n in sorted(normals)])


def oracle_covol_3d(halfspaces):
    """Integrate the lower boundary height over the (y1, y2) quadrant.

    The boundary height is the upper envelope of the facet planes solved for
    y3; each plane is integrated over the polygon where it attains the
    envelope (affine integrand: area times value at the centroid).
    """
    planes = []
    for n, b in halfspaces:
        m = b.denominator
        planes.append((n[0] * m, n[1] * m, n[2] * m, b.numerator))
    total = Fraction(0)
    for k, (a1, a2, a3, b) in enumerate(planes):
        cons = [(Fraction(1), Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(1), Fraction(0)),
                (Fraction(-a1, 1), Fraction(-a2, 1), Fraction(b, 1))]
        for j, (c1, c2, c3, e) in enumerate(planes):
            if j == k:
                continue
            cons.append((Fraction(c1 * a3 - a1 * c3),
                         Fraction(c2 * a3 - a2 * c3),
                         Fraction(b * c3 - e * a3)))
        pts = _oracle_polygon_from_halfplanes(cons)
        if len(pts) < 3:
            continue
        area, (cx, cy) = _oracle_area_centroid(pts)
        if area == 0:
            continue
        total += area * Fraction(b - a1 * cx - a2 * cy, a3)
    return total


def _oracle_polygon_from_halfplanes(cons):
    pts = set()
    for (p1, q1, r1), (p2, q2, r2) in itertools.combinations(cons, 2):
        det = p1 * q2 - p2 * q1
        if det == 0:
            continue
        x = (-r1 * q2 + r2 * q1) / det
        y = (-p1 * r2 + p2 * r1) / det
        if all(p * x + q * y + r >= 0 for p, q, r in cons):
            pts.add((x, y))
    if len(pts) < 3:
        return list(pts)
    return _oracle_order_convex(list(pts))


def _oracle_order_convex(pts):
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(pts, key=cmp_to_key(cmp))


def _oracle_area_centroid(pts):
    a2 = _oracle_shoelace(pts) * 2
    if a2 == 0:
        return Fraction(0), (Fraction(0), Fraction(0))
    cx = cy = Fraction(0)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        w = x0 * y1 - x1 * y0
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    area = abs(a2) / 2
    cx /= 3 * a2
    cy /= 3 * a2
    return area, (cx, cy)


def oracle_covol_grid(dim, halfspaces, resolution):
    """(lower, upper) covolume bracket from the cells of side 1/resolution
    whose top corner, respectively bottom corner, lies outside the region."""
    def contains(pt):
        return all(sum(a * c for a, c in zip(n, pt)) >= b for n, b in halfspaces)

    bound = max(b / min(c for c in n) for n, b in halfspaces)
    cells = int(bound * resolution) + 1
    step = Fraction(1, resolution)
    lower = upper = 0
    for cell in itertools.product(range(cells), repeat=dim):
        hi = [step * (c + 1) for c in cell]
        lo = [step * c for c in cell]
        if not contains(hi):
            lower += 1
        if not contains(lo):
            upper += 1
    vol = step ** dim
    return lower * vol, upper * vol


# -- valuation oracles: the Fraction kernels, kept as they were ----------------


_weight = st.one_of(st.integers(0, 3),
                    st.builds(Fraction, st.integers(1, 4), st.sampled_from([2, 3])))
_threshold = st.one_of(st.integers(0, 2),
                       st.builds(Fraction, st.integers(0, 4), st.sampled_from([2, 3])))


def valuation_specs(d: int):
    """1-3 constraints with int or Fraction entries; zero weights and zero
    thresholds occur, and so do non-primary (INFINITE) members."""
    weights = st.tuples(*[_weight] * d).filter(any)
    return st.lists(st.tuples(weights, _threshold), min_size=1, max_size=3).map(
        lambda cons: ValuationSpec.make(AmbientRing.default(d), cons))


def _oracle_column_floor(spec, n: int, x: int):
    """Least y with (x, y) a member (d = 2), or None if the column is empty."""
    need = Fraction(0)
    for (w1, w2), t in spec.constraints:
        gap = t * n - w1 * x
        if gap > 0:
            if w2 == 0:
                return None
            need = max(need, gap / w2)
    return math.ceil(need)


def _oracle_is_member(spec, n: int, a) -> bool:
    return all(sum(w * c for w, c in zip(weights, a)) >= t * n
               for weights, t in spec.constraints)


def oracle_valuation_member(spec, n):
    """I_n of a ``ValuationSpec``: column scan in d = 2, box scan otherwise."""
    d = spec.ring.d
    if n == 0:
        return MonomialIdeal.unit(spec.ring)
    if d == 2:
        width = 0
        for (w1, _), t in spec.constraints:
            if w1 > 0:
                width = max(width, math.ceil(t * n / w1))
        gens = []
        prev = None
        for x in range(width + 1):
            y = _oracle_column_floor(spec, n, x)
            if y is None:
                continue
            if prev is None or y < prev:
                gens.append((x, y))
                prev = y
            if y == 0:
                break
        return MonomialIdeal.from_gens(spec.ring, gens)
    bounds = []
    for i in range(d):
        hi = 0
        for weights, t in spec.constraints:
            if weights[i] > 0:
                hi = max(hi, math.ceil(t * n / weights[i]))
        bounds.append(hi)
    gens = []
    for a in itertools.product(*[range(b + 1) for b in bounds]):
        if _oracle_is_member(spec, n, a):
            gens.append(a)
    return MonomialIdeal.from_gens(spec.ring, gens)


def oracle_valuation_length(spec, n):
    """l(R/I_n) (n >= 1): column floors in d = 2, the member's colength otherwise."""
    if spec.ring.d != 2:
        return oracle_valuation_member(spec, n).colength()
    width = 0
    for (w1, w2), t in spec.constraints:
        if t > 0:
            if w1 == 0:
                return INFINITE
            width = max(width, math.ceil(t * n / w1))
    total = 0
    for x in range(width):
        y = _oracle_column_floor(spec, n, x)
        if y is None:
            return INFINITE
        total += y
    return total


# -- semigroup oracles: the point-list kernels, kept as they were --------------


def _oracle_column_floors(gens, width: int):
    corners = sorted(gens)
    for (x, y), (nx, _) in zip(corners, corners[1:] + [(width, 0)]):
        for col in range(x, min(nx, width)):
            yield col, y


def oracle_family_points(F, beta: int, i: int):
    """Level i of a d = 2 family's semigroup, column by column."""
    cap = beta * i
    pts = []
    for x, y in _oracle_column_floors(F.member_ideal(i).gens, cap + 1):
        pts.extend((x, yy) for yy in range(y, cap - x + 1))
    return pts


def _oracle_simplex_points(p: int, cap: int):
    if p == 1:
        for x in range(cap + 1):
            yield (x,)
        return
    for head in range(cap + 1):
        for rest in _oracle_simplex_points(p - 1, cap - head):
            yield (head,) + rest


def level_points(runs) -> list:
    """The points of a level stored as column runs, in run order."""
    return [prefix + (t,) for prefix, lo, hi in runs for t in range(lo, hi + 1)]


def oracle_scan_points(P, i: int):
    """Level i of a predicate's semigroup by the simplex scan."""
    return [a for a in _oracle_simplex_points(P.point_dim, P.beta * i)
            if P.member(a, i)]


def _oracle_int_det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _oracle_int_det(minor)
    return total


def oracle_saturation_index(basis):
    """gcd of all maximal minors of the basis rows, each a cofactor expansion."""
    r = len(basis)
    if r == 0:
        return 1
    ncols = len(basis[0])
    g = 0
    for cols in itertools.combinations(range(ncols), r):
        sub = [[row[j] for j in cols] for row in basis]
        g = gcd(g, _oracle_int_det(sub))
    if g == 0:
        raise MonolimError("degenerate lattice basis")
    return abs(g)


def oracle_column_runs(gens, cap: int) -> list:
    """Column runs ((x,), y_min(x), cap - x) of a 2-D staircase inside the
    simplex x + y <= cap, walking its minimal generators' corners."""
    corners = sorted(gens)
    runs = []
    for (x, y), (nx, _) in zip(corners, corners[1:] + [(cap + 1, 0)]):
        runs.extend(((col,), y, cap - col) for col in range(x, min(nx, cap - y + 1)))
    return runs


def oracle_point_runs(F, i: int, cap: int) -> list:
    """Column runs (a[:-1], lo, hi) of I_i inside the simplex |a| <= cap,
    from the membership of every point: a valuation family's constraints,
    else the generators of I_i."""
    d = F.ring.d
    pts = list(_oracle_simplex_points(d, cap))
    if isinstance(F, ValuationSpec):
        inside = [_oracle_is_member(F, i, a) for a in pts]
    else:
        inside = membership(F.member_ideal(i).gens,
                            np.array(pts, dtype=np.int64).reshape(-1, d))
    runs = []
    for a, member in zip(pts, inside):
        if not member:
            continue
        if runs and runs[-1][0] == a[:-1] and runs[-1][2] == a[-1] - 1:
            runs[-1] = (a[:-1], runs[-1][1], a[-1])
        else:
            runs.append((a[:-1], a[-1], a[-1]))
    return runs


def _oracle_row_lattice_basis(rows):
    """Echelon basis of the integer row lattice, one column at a time."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    basis = []
    for col in range(ncols):
        nz = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nz:
            work = rest
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            p = nz[0]
            reduced = [p]
            for r in nz[1:]:
                q = r[col] // p[col]
                r2 = [a - q * b for a, b in zip(r, p)]
                if r2[col] != 0:
                    reduced.append(r2)
                elif any(r2):
                    rest.append(r2)
            nz = reduced
        basis.append(nz[0] if nz[0][col] > 0 else [-a for a in nz[0]])
        work = rest
    return basis


def oracle_lattice_invariants(L):
    """(m, ind, q, truncated) from a row reduction over every retained point."""
    nonempty = [i for i, c in sorted(L.counts.items()) if c > 0]
    if len(nonempty) < 2:
        raise MonolimError("need at least two nonempty levels")
    m = 0
    for i in nonempty:
        m = gcd(m, i)
    basis = _oracle_row_lattice_basis(
        [[i, *a] for i, pts in sorted(L.levels.items()) for a in pts])
    if not basis or basis[0][0] == 0:
        raise MonolimError("degenerate semigroup data")
    boundary = [row[1:] for row in basis[1:]]
    return m, oracle_saturation_index(boundary), len(boundary), L.truncated


def oracle_okounkov_body(L):
    """Hull of every normalized retained point: each level hulled first in
    d = 2; in d >= 3 the lift hull of all of them, which
    ``test_lift_hull_matches_the_monotone_chain_oracle`` checks in d = 2."""
    pts = []
    for i, members in sorted(L.levels.items()):
        if i == 0 or not members:
            continue
        if L.point_dim == 2:
            members = oracle_convex_hull_2d(members)
        for a in members:
            pts.append(tuple(Fraction(c, i) for c in a))
    if not pts:
        raise MonolimError("empty semigroup")
    if L.point_dim == 1:
        xs = [p[0] for p in pts]
        lo, hi = min(xs), max(xs)
        return [(lo,)] if lo == hi else [(lo,), (hi,)]
    if L.point_dim == 2:
        return oracle_convex_hull_2d(pts)
    return hull_vertices(pts)


def oracle_spot_check(P, L, checks: int, seed: int) -> None:
    """The additivity spot check drawing from a flattened list of every
    retained (point, level) pair."""
    pool = [(a, i) for i, pts in sorted(L.levels.items()) for a in pts]
    if len(pool) < 2:
        return
    rng = random.Random(seed)
    for _ in range(checks):
        (a, i), (b, j) = rng.choice(pool), rng.choice(pool)
        if i + j > L.max_level:
            continue
        s = tuple(x + y for x, y in zip(a, b))
        if not P.member(s, i + j):
            raise AssertionError(f"additivity fails at {a}@{i} + {b}@{j}")


def oracle_estimate_limit(S: LengthSequence, tol=Fraction(1, 100)) -> LimitEstimate:
    """Estimate lim v_n / n^d by fitting c_d n^d + c_(d-1) n^(d-1) to the tail.

    The tail is the last quarter of the samples.  CONVERGED means the
    normalized tail is flat to within ``tol`` (relative range) or the
    two-term fit reproduces the tail essentially exactly; OSCILLATING /
    DIVERGING / INCONCLUSIVE classify the remaining shapes heuristically.
    """
    if len(S.entries) < 8:
        raise EstimateError("need at least 8 samples")
    tol = Fraction(tol) if not isinstance(tol, Fraction) else tol
    d = S.degree
    tail = S.entries[-max(2, len(S.entries) // 4):]
    s0 = sum(n ** (2 * d) for n, _ in tail)
    s1 = sum(n ** (2 * d - 1) for n, _ in tail)
    s2 = sum(n ** (2 * d - 2) for n, _ in tail)
    r0 = sum(v * n ** d for n, v in tail)
    r1 = sum(v * n ** (d - 1) for n, v in tail)
    det = s0 * s2 - s1 * s1
    if det != 0:
        point = Fraction(r0 * s2 - r1 * s1, det)
        lead = point
        sub = Fraction(r1 * s0 - r0 * s1, det)
    else:
        n, v = tail[-1]
        point = Fraction(v, n ** d)
        lead, sub = point, Fraction(0)
    qs = [Fraction(v, n ** d) for n, v in tail]
    residual = sum((Fraction(v) - lead * n ** d - sub * n ** (d - 1)) ** 2
                   for n, v in tail)
    scale_sq = sum(Fraction(v) ** 2 for _, v in tail)
    qmin, qmax = min(qs), max(qs)
    scale = max(abs(point), abs(qmax), abs(qmin))
    rel_range = Fraction(0) if scale == 0 else (qmax - qmin) / scale
    fit_exactish = residual <= tol * tol * scale_sq / 10 ** 6
    if rel_range < tol or fit_exactish:
        verdict = "CONVERGED"
    else:
        diffs = [b - a for a, b in zip(qs, qs[1:])]
        sign_changes = sum(1 for a, b in zip(diffs, diffs[1:])
                           if (a > 0 > b) or (a < 0 < b))
        if sign_changes >= 2:
            verdict = "OSCILLATING"
        elif all(x > 0 for x in diffs) and qs[0] > 0 and qs[-1] > qs[0] * (1 + 4 * tol):
            verdict = "DIVERGING"
        else:
            verdict = "INCONCLUSIVE"
    return LimitEstimate(point, min(qs + [point]), max(qs + [point]),
                         verdict, (tail[0][0], tail[-1][0]))


# -- convex oracles: the Fraction Lasserre kernels, kept as they were ----------


def _oracle_cone_term(facet, rows, m: int) -> Fraction:
    a, beta = facet
    k = next(i for i, c in enumerate(a) if c)
    s = a[k]
    sign = 1 if s > 0 else -1
    projected = [
        (tuple(sign * (s * r[i] - r[k] * a[i]) for i in range(len(a)) if i != k),
         sign * (s * rb - r[k] * beta))
        for r, rb in rows]
    return beta * oracle_lasserre_volume(projected, m - 1) / abs(s)


def oracle_lasserre_volume(rows, m: int) -> Fraction:
    """m-volume of the bounded polytope {z : a . z >= beta for each row}."""
    tightest: dict[tuple[int, ...], Fraction] = {}
    for a, beta in rows:
        g = gcd(*a)
        if g == 0:
            if beta > 0:
                return Fraction(0)
            continue
        u, t = tuple(c // g for c in a), Fraction(beta, g)
        if u not in tightest or t > tightest[u]:
            tightest[u] = t
    if m == 0:
        return Fraction(1)
    if m == 1:
        return max(-tightest[(-1,)] - tightest[(1,)], Fraction(0))
    rows = [(tuple(c * t.denominator for c in u), t.numerator)
            for u, t in tightest.items()]
    return -sum((_oracle_cone_term(row, rows[:i] + rows[i + 1:], m)
                 for i, row in enumerate(rows) if row[1]), Fraction(0)) / m


def oracle_covol(D) -> Fraction:
    """Covolume of a cobounded region, its zero sets from a fresh double
    description of its halfspaces."""
    d = D.dim
    rows = [(tuple(int(i == j) for j in range(d)), 0) for i in range(d)]
    rows += [(tuple(b.denominator * c for c in n), b.numerator)
             for n, b in D.halfspaces]
    rays = convex._extreme_rays([a + (-beta,) for a, beta in rows[d:]], d + 1)
    zeros = [sum(1 << r for r, (_, mask) in enumerate(rays) if mask >> c & 1)
             for c in range(len(rows) + 1)]
    del zeros[d]
    total = Fraction(0)
    for j in range(d, len(rows)):
        near = [row for i, row in enumerate(rows)
                if i != j and (zeros[i] & zeros[j]).bit_count() >= d - 1]
        total += _oracle_cone_term(rows[j], near, d)
    return total / d


def _oracle_hull_halfspaces(seeds):
    den = math.lcm(*(Fraction(c).denominator for s in seeds for c in s))
    pts = sorted({tuple(int(Fraction(c) * den) for c in s) for s in seeds})
    s0 = pts[0]
    rows = [tuple(a - b for a, b in zip(p, s0)) + (1,) for p in pts[1:]]
    out = []
    for ray, _ in convex._extreme_rays(rows, len(s0) + 1):
        n = ray[:-1]
        b = sum(a * c for a, c in zip(n, s0)) - ray[-1]
        if b > 0:
            out.append(_oracle_primitive(n, Fraction(b, den)))
    return out


def oracle_minkowski_sum(D1, D2):
    """The upward hull of every pairwise ``Fraction`` vertex sum."""
    sums = {tuple(a + b for a, b in zip(p, q))
            for p in D1.vertices for q in D2.vertices}
    return region(D1.dim, _oracle_hull_halfspaces(sums))


def oracle_polytope_volume(points) -> Fraction:
    t, U = convex._lifted_hull(points)
    units = [(tuple(int(j == k) for k in range(U.dim)), 0) for j in range(U.dim)]
    return oracle_lasserre_volume([(tuple(c - n[0] for c in n[1:]), b - n[0] * t)
                                   for n, b in [*U.halfspaces, *units]], U.dim - 1)
