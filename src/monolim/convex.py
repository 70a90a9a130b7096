"""Exact rational convex geometry in the positive orthant.

Regions are upward-closed convex subsets of the orthant given by halfspaces
``normal . y >= offset`` with nonnegative primitive integer normals and
positive rational offsets (nonpositive offsets are implied by the orthant and
dropped).  Exact covolume, Minkowski sums and the reversed Brunn-Minkowski
(Khovanskii-Timorin) inequality are supported for dim <= 3; higher dimensions
fall back to grid bracketing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

from .errors import GeometryError, NotCoboundedError, NotPrimaryError
from .lattice import MonomialIdeal
from .roots import root_sum_at_least

Halfspace = tuple[tuple[int, ...], Fraction]


def _primitive(normal, offset) -> Halfspace:
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


@dataclass(frozen=True)
class ConvexRegion:
    """Canonical halfspace description of an upward-closed convex region."""

    dim: int
    halfspaces: tuple[Halfspace, ...]
    seeds: tuple | None = field(default=None, compare=False, repr=False)

    def contains(self, point) -> bool:
        pt = [Fraction(c) for c in point]
        if len(pt) != self.dim or any(c < 0 for c in pt):
            return False
        return all(sum(a * c for a, c in zip(n, pt)) >= b
                   for n, b in self.halfspaces)

    @property
    def is_cobounded(self) -> bool:
        """Bounded complement: every halfspace normal strictly positive."""
        return all(all(c > 0 for c in n) for n, _ in self.halfspaces)


def region(dim: int, halfspaces, seeds=None) -> ConvexRegion:
    """Build a region in canonical form.

    Normals must be nonnegative; redundant halfspaces are removed exactly for
    dim <= 2 (deduplication only in higher dimension, or when a vertical
    halfspace makes the region non-cobounded).
    """
    cleaned: dict[tuple[int, ...], Fraction] = {}
    for normal, offset in halfspaces:
        n, b = _primitive(normal, offset)
        if any(c < 0 for c in n):
            raise GeometryError("negative halfspace normal")
        if b <= 0:
            continue
        if n not in cleaned or cleaned[n] < b:
            cleaned[n] = b
    hs = sorted(cleaned.items())
    if dim == 1:
        hs = hs[-1:] if hs else []
    elif dim == 2 and all(n[1] > 0 for n, _ in hs):
        hs = _facets_2d(hs)
    return ConvexRegion(dim, tuple(hs), None if seeds is None else tuple(
        tuple(Fraction(c) for c in p) for p in seeds))


# -- two-dimensional boundary chains ----------------------------------------


def _facets_2d(hs: list[Halfspace]) -> list[Halfspace]:
    chain = _chain_2d(hs)
    kept = [seg[2] for seg in chain]
    return sorted(kept)


def _chain_2d(hs: list[Halfspace]):
    """Envelope pieces [(u_start, u_end, halfspace)] of the region boundary.

    The boundary over u = y1 is the upper envelope of the facet lines
    y2 = (b - a1*u)/a2, clipped to u >= 0 and to positive height; ``u_end``
    is None when the region never meets the y1-axis (not cobounded).
    """
    by_slope: dict[Fraction, tuple] = {}
    for n, b in hs:
        s, c = Fraction(-n[0], n[1]), Fraction(b, n[1])
        if s not in by_slope or by_slope[s][0] < c:
            by_slope[s] = (c, (n, b))
    ordered = [(s, c, h) for s, (c, h) in sorted(by_slope.items())]

    def meet(l1, l2) -> Fraction:
        return (l2[1] - l1[1]) / (l1[0] - l2[0])

    stack: list[tuple] = []
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


def region_vertices_2d(D: ConvexRegion):
    """Boundary vertex chain from the y-axis to the y1-axis (cobounded only)."""
    if D.dim != 2:
        raise GeometryError("vertex chain is two-dimensional only")
    if not D.halfspaces:
        return [(Fraction(0), Fraction(0))]
    if not D.is_cobounded:
        raise NotCoboundedError("region has an unbounded complement")
    chain = _chain_2d(list(D.halfspaces))
    verts = []
    for u0, u1, (n, b) in chain:
        y0 = Fraction(b - n[0] * u0, n[1])
        if not verts:
            verts.append((u0, y0))
        for u in ([u1] if u1 is not None else []):
            verts.append((u, Fraction(b - n[0] * u, n[1])))
    return verts


def _complement_polygon_2d(D: ConvexRegion):
    verts = region_vertices_2d(D)
    if len(verts) == 1:
        return []
    poly = [(Fraction(0), Fraction(0))]
    if verts[-1][1] != 0:
        raise NotCoboundedError("boundary chain does not reach the y1-axis")
    poly.extend(reversed(verts))
    return poly


def _shoelace(points) -> Fraction:
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        total += x0 * y1 - x1 * y0
    return total / 2


@dataclass(frozen=True)
class CovolResult:
    """Covolume value; EXACT_POLYTOPE has no bracket, GRID_BRACKET encloses it."""

    value: Fraction
    method: str
    bracket: tuple[Fraction, Fraction] | None = None


def covol(D: ConvexRegion, resolution: int = 8) -> CovolResult:
    """Exact covolume (dim <= 3); grid bracket at 1/resolution in higher dim."""
    if not D.halfspaces:
        return CovolResult(Fraction(0), "EXACT_POLYTOPE")
    if not D.is_cobounded:
        raise NotCoboundedError("region has an unbounded complement")
    if D.dim == 1:
        return CovolResult(max(b / n[0] for n, b in D.halfspaces),
                           "EXACT_POLYTOPE")
    if D.dim == 2:
        poly = _complement_polygon_2d(D)
        value = abs(_shoelace(poly)) if poly else Fraction(0)
        return CovolResult(value, "EXACT_POLYTOPE")
    if D.dim == 3:
        return CovolResult(_covol_3d(D.halfspaces), "EXACT_POLYTOPE")
    return _covol_grid(D, resolution)


def _scaled_int_planes(halfspaces):
    planes = []
    for n, b in halfspaces:
        m = b.denominator
        planes.append((n[0] * m, n[1] * m, n[2] * m, b.numerator))
    return planes


def _covol_3d(halfspaces) -> Fraction:
    """Integrate the lower boundary height over the (y1, y2) quadrant.

    The boundary height is the upper envelope of the facet planes solved for
    y3; each plane is integrated over the polygon where it attains the
    envelope (affine integrand: area times value at the centroid).
    """
    planes = _scaled_int_planes(halfspaces)
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
        pts = _polygon_from_halfplanes(cons)
        if len(pts) < 3:
            continue
        area, (cx, cy) = _area_centroid(pts)
        if area == 0:
            continue
        total += area * Fraction(b - a1 * cx - a2 * cy, a3)
    return total


def _polygon_from_halfplanes(cons):
    """Vertices of the polygon {(u1, u2) : p*u1 + q*u2 + r >= 0 for every row}.

    ``cons`` holds rows (p, q, r).  The vertices are the pairwise meets of
    the boundary lines that satisfy every row; three or more are returned in
    counterclockwise order, fewer as they come.
    """
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
    return _order_convex(list(pts))


def _order_convex(pts):
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


def _area_centroid(pts):
    a2 = _shoelace(pts) * 2
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


def _covol_grid(D: ConvexRegion, resolution: int) -> CovolResult:
    d = D.dim
    bound = max(b / min(c for c in n) for n, b in D.halfspaces)
    cells = int(bound * resolution) + 1
    step = Fraction(1, resolution)
    lower = upper = 0
    for cell in itertools.product(range(cells), repeat=d):
        hi = [step * (c + 1) for c in cell]
        lo = [step * c for c in cell]
        if not D.contains(hi):
            lower += 1
        if not D.contains(lo):
            upper += 1
    vol = step ** d
    lo_v, hi_v = lower * vol, upper * vol
    return CovolResult((lo_v + hi_v) / 2, "GRID_BRACKET", (lo_v, hi_v))


# -- constructions -----------------------------------------------------------


def hull_region(I: MonomialIdeal) -> ConvexRegion:
    """Convex hull of the staircase of a primary ideal (dim <= 3)."""
    d = I.ring.d
    if d > 3:
        raise GeometryError("exact hulls are limited to dimension <= 3")
    if not I.is_primary:
        raise NotPrimaryError("hull region needs a primary ideal")
    gens = list(I.gens)
    if I.is_unit:
        return region(d, [], seeds=gens)
    if d == 1:
        return region(1, [((1,), gens[0][0])], seeds=gens)
    if d == 2:
        return region(2, _hull_halfspaces_2d(gens), seeds=gens)
    return region(3, _hull_halfspaces_3d(gens), seeds=gens)


def _hull_halfspaces_2d(gens):
    pts = sorted(gens)
    chain: list[tuple[int, int]] = []
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


def _hull_halfspaces_3d(gens):
    """Supporting halfspaces of the upward hull of integer or rational seeds.

    Candidate normals are the cross products of the edges of every seed
    triple, and of every seed pair with each axis, based at the first seed.
    The seeds are scaled to integers once by their common denominator; each
    candidate is reduced to its primitive nonnegative direction, and a
    direction is kept, with offset min over the seeds, when that minimum is
    positive and one of its candidates' bases attains it.
    """
    den = lcm(*(c.denominator for g in gens for c in g))
    pts = [tuple(c.numerator * (den // c.denominator) for c in g) for g in gens]
    bases: dict[tuple[int, int, int], set[int]] = {}

    def add(n1, n2, n3, base):
        g = gcd(n1, n2, n3)
        if g == 0:
            return
        if n1 <= 0 and n2 <= 0 and n3 <= 0:
            g = -g
        elif n1 < 0 or n2 < 0 or n3 < 0:
            return
        bases.setdefault((n1 // g, n2 // g, n3 // g), set()).add(base)

    for i, j, k in itertools.combinations(range(len(pts)), 3):
        (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = pts[i], pts[j], pts[k]
        u1, u2, u3 = x2 - x1, y2 - y1, z2 - z1
        v1, v2, v3 = x3 - x1, y3 - y1, z3 - z1
        add(u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1, i)
    for i, j in itertools.combinations(range(len(pts)), 2):
        u1, u2, u3 = (a - b for a, b in zip(pts[j], pts[i]))
        add(0, u3, -u2, i)
        add(-u3, 0, u1, i)
        add(u2, -u1, 0, i)
    out = []
    for (n1, n2, n3), idx in bases.items():
        dots = [n1 * x + n2 * y + n3 * z for x, y, z in pts]
        low = min(dots)
        if low > 0 and any(dots[i] == low for i in idx):
            out.append(((n1, n2, n3), Fraction(low, den)))
    return out


def support_minimum(D: ConvexRegion, normal) -> Fraction:
    """min over the region of <normal, y> for a nonnegative functional."""
    if D.dim == 1:
        base = max((b / n[0] for n, b in D.halfspaces), default=Fraction(0))
        return Fraction(normal[0]) * base
    verts = region_vertices_2d(D)
    return min(sum(Fraction(a) * c for a, c in zip(normal, v)) for v in verts)


def minkowski_sum(D1: ConvexRegion, D2: ConvexRegion) -> ConvexRegion:
    """Exact Minkowski sum (dim <= 2 from support data; dim 3 needs seeds)."""
    if D1.dim != D2.dim:
        raise GeometryError("dimension mismatch")
    d = D1.dim
    if not D1.halfspaces:
        return D2
    if not D2.halfspaces:
        return D1
    if d <= 2:
        if not (D1.is_cobounded and D2.is_cobounded):
            raise NotCoboundedError("exact Minkowski sums need cobounded operands")
        normals = {n for n, _ in D1.halfspaces} | {n for n, _ in D2.halfspaces}
        hs = [(n, support_minimum(D1, n) + support_minimum(D2, n))
              for n in sorted(normals)]
        return region(d, hs)
    if d == 3 and D1.seeds and D2.seeds:
        sums = {tuple(a + b for a, b in zip(p, q))
                for p in D1.seeds for q in D2.seeds}
        return region(3, _hull_halfspaces_3d(sorted(sums)), seeds=sorted(sums))
    raise GeometryError("three-dimensional sums need generator seeds")


def scale_region(D: ConvexRegion, t) -> ConvexRegion:
    t = Fraction(t)
    if t <= 0:
        raise GeometryError("scale factor must be positive")
    seeds = None if D.seeds is None else [
        tuple(c * t for c in p) for p in D.seeds]
    return region(D.dim, [(n, b * t) for n, b in D.halfspaces], seeds=seeds)


@dataclass(frozen=True)
class KTReport:
    """Reversed Brunn-Minkowski check for covolumes of summed regions."""

    covol1: Fraction
    covol2: Fraction
    covol_sum: Fraction
    holds: bool
    equality: bool
    dim: int


def kt_check(D1: ConvexRegion, D2: ConvexRegion) -> KTReport:
    """Exact check of covol^(1/d)(D1) + covol^(1/d)(D2) >= covol^(1/d)(D1+D2)."""
    if D1.dim != D2.dim:
        raise GeometryError("dimension mismatch")
    c1 = covol(D1).value
    c2 = covol(D2).value
    cs = covol(minkowski_sum(D1, D2)).value
    holds, equality = root_sum_at_least(c1, c2, cs, D1.dim)
    return KTReport(c1, c2, cs, holds, equality, D1.dim)


def limit_newton_region(family, n: int) -> ConvexRegion:
    """Scaled hull (1/n) * hull_region(I_n); compare across n for convergence."""
    if n < 1:
        raise GeometryError("need n >= 1")
    return scale_region(hull_region(family.member_ideal(n)), Fraction(1, n))
