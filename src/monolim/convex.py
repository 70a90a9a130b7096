"""Exact rational convex geometry in the positive orthant, in every dimension.

Regions are upward-closed convex subsets of the orthant given by halfspaces
``normal . y >= offset`` with nonnegative primitive integer normals and
positive rational offsets (nonpositive offsets are implied by the orthant and
dropped).  Two integer kernels serve every dimension:

* double description (Motzkin et al. 1953; Fukuda-Prodon, "Double
  description method revisited", 1996) in homogenised coordinates, started
  from an orthant.  V -> H gives the facets and the vertices of the upward
  hull of seeds in one pass, H -> V a region's vertices and its facets; both
  read a cone's facets from the zero sets of its extreme rays.
* the facet-cone covolume.  The complement of a cobounded region is
  star-shaped from 0, so it is the union of the cones from 0 over the facets
  with positive offset; each facet is measured by Lasserre's recursion on its
  projected H-description (Lasserre 1983; Bueler-Enge-Fukuda, "Exact volume
  computation for polytopes: a practical study", 2000).

Hulls, covolumes, Minkowski sums and the reversed Brunn-Minkowski
(Khovanskii-Timorin) check are exact in every dimension.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .errors import GeometryError, NotCoboundedError, NotPrimaryError
from .lattice import MonomialIdeal, Value, _minimal_antichain
from .roots import root_sum_at_least

Halfspace = tuple[tuple[int, ...], Fraction]


def _primitive(normal, offset) -> Halfspace:
    """The halfspace normal . y >= offset (ints or ``Fraction``s) with its
    normal scaled to a primitive integer vector."""
    mult = lcm(*(c.denominator for c in normal))
    ints = [c.numerator * (mult // c.denominator) for c in normal]
    g = gcd(*ints)
    if g == 0:
        raise GeometryError("zero normal vector")
    return (tuple(c // g for c in ints),
            Fraction(offset.numerator * mult, offset.denominator * g))


class ConvexRegion(Value):
    """Canonical halfspace description of an upward-closed convex region,
    with its vertices in lexicographic order; the vertices follow from the
    halfspaces, so equality, hashing and repr leave them out."""

    _fields = ("dim", "halfspaces")
    dim: int
    halfspaces: tuple[Halfspace, ...]
    vertices: tuple

    def __init__(self, dim: int, halfspaces: tuple, vertices: tuple):
        super().__init__(dim, halfspaces)
        object.__setattr__(self, "vertices", vertices)

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


# -- double description --------------------------------------------------------


def _extreme_rays(constraints, width: int):
    """Extreme rays of the pointed cone {x >= 0 : c . x >= 0 for each c}.

    Starts from the orthant's unit rays and inserts one integer constraint at
    a time.  Rays on opposite sides of it are combined only when adjacent,
    which the combinatorial test decides: no third ray's zero set contains
    their common one (at least ``width - 2`` constraints, a cheap filter).
    Distinct extreme rays have distinct zero sets, so a mask names its ray.
    Returns (ray, mask) pairs of primitive integer rays; bit i of the mask is
    set when the ray lies on constraint i, counting the orthant's ``x_i >= 0``
    first and then ``constraints`` in order.
    """
    full = (1 << width) - 1
    rays = [(tuple(int(i == j) for j in range(width)), full ^ (1 << i))
            for i in range(width)]
    for k, c in enumerate(constraints, width):
        bit = 1 << k
        pos, neg, kept = [], [], []
        for ray, mask in rays:
            v = sum(map(mul, c, ray))
            if v > 0:
                pos.append((v, ray, mask))
                kept.append((ray, mask))
            elif v < 0:
                neg.append((v, ray, mask))
            else:
                kept.append((ray, mask | bit))
        masks = [mask for _, mask in rays]
        for vp, p, mp in pos:
            for vn, n, mn in neg:
                common = mp & mn
                if common.bit_count() < width - 2 or any(
                        m & common == common and m != mp and m != mn for m in masks):
                    continue
                w = [vp * a - vn * b for a, b in zip(n, p)]
                g = gcd(*w)
                kept.append((tuple(x // g for x in w), common | bit))
        rays = kept
    return rays


def _facets(rows, width: int, first: int):
    """The (ray, mask) pairs of :func:`_extreme_rays`, and the positions,
    counted from ``first``, of the constraints that are facets of that
    full-dimensional cone: their zero sets (the rays on them) hold at least
    ``width - 1`` rays and lie in no other constraint's, as a lower face's
    lies in a facet's."""
    rays = _extreme_rays(rows, width)
    zeros = [0] * (width + len(rows))
    for r, (_, mask) in enumerate(rays):
        bit, bits = 1 << r, bin(mask)[:1:-1]  # bits[c] is bit c of the mask
        c = bits.find("1")
        while c >= 0:
            zeros[c] |= bit
            c = bits.find("1", c + 1)
    wide = [(j, z) for j, z in enumerate(zeros) if z.bit_count() >= width - 1]
    return rays, [j - first for j, z in wide if j >= first
                  and not any(z & ~y == 0 for i, y in wide if i != j)]


def _hull(seeds) -> ConvexRegion:
    """conv(seeds) + orthant, from one double description of the dual cone,
    whose constraints are (s, 1) for each seed s and (e_i, 0) for each axis.

    The facets n.y >= b with b > 0 are its extreme rays (n, -b) with b > 0,
    and the vertices are the seeds whose constraint is one of its facets.
    The seeds are scaled to integers by their common denominator, and u =
    n.s_0 - b for the first seed s_0 replaces -b, so the cone starts from the
    orthant n >= 0, u >= 0, and s_0's constraint is u >= 0.
    """
    den = lcm(*(c.denominator for s in seeds for c in s))
    pts = sorted({tuple(c.numerator * (den // c.denominator) for c in s)
                  for s in seeds})
    s0 = pts[0]
    d = len(s0)
    rows = [tuple(a - b for a, b in zip(p, s0)) + (1,) for p in pts[1:]]
    rays, facets = _facets(rows, d + 1, d)
    halfspaces = sorted(_primitive(ray[:-1], Fraction(b, den)) for ray, _ in rays
                        if (b := sum(map(mul, ray, s0)) - ray[-1]) > 0)
    return ConvexRegion(d, tuple(halfspaces),
                        tuple(tuple(Fraction(c, den) for c in pts[k]) for k in facets))


def region(dim: int, halfspaces) -> ConvexRegion:
    """Build a region in canonical form.

    Normals must be nonnegative.  The halfspaces kept are the facets of the
    homogenised region y >= 0, t >= 0, q n.y - p t >= 0 for each halfspace
    n.y >= p/q; its extreme rays (y, t) with t > 0 give the vertices y/t.
    """
    cleaned: dict[tuple[int, ...], Fraction] = {}
    for normal, offset in halfspaces:
        n, b = _primitive([Fraction(c) for c in normal], Fraction(offset))
        if any(c < 0 for c in n):
            raise GeometryError("negative halfspace normal")
        if b > 0 and (n not in cleaned or cleaned[n] < b):
            cleaned[n] = b
    hs = sorted(cleaned.items())
    rows = [tuple(b.denominator * c for c in n) + (-b.numerator,) for n, b in hs]
    rays, facets = _facets(rows, dim + 1, dim + 1)
    vertices = sorted(tuple(Fraction(c, ray[-1]) for c in ray[:-1])
                      for ray, _ in rays if ray[-1] > 0)
    return ConvexRegion(dim, tuple(hs[j] for j in facets), tuple(vertices))


# -- covolume ------------------------------------------------------------------


def _fsum(terms) -> tuple[int, int]:
    """Sum of (numerator, denominator) pairs, denominators positive, as one
    reduced pair over their least common denominator."""
    num, den = 0, 1
    for n, m in terms:
        common = lcm(den, m)
        num, den = num * (common // den) + n * (common // m), common
    g = gcd(num, den)
    return num // g, den // g


def _cone_term(facet, rows, m: int) -> tuple[int, int]:
    """beta * vol_{m-1}(pi_k F) / |a_k| for the facet F of a . z = beta, as a
    (numerator, denominator) pair.

    Rows are integer (a, beta) for a . z >= beta; F is cut out of the
    facet's hyperplane by ``rows``, and pi_k drops its first coordinate k
    with a_k != 0 after substituting z_k into each row.
    """
    a, beta = facet
    k = next(i for i, c in enumerate(a) if c)
    s = a[k]
    sign = 1 if s > 0 else -1
    projected = [
        (tuple(sign * (s * r[i] - r[k] * a[i]) for i in range(len(a)) if i != k),
         sign * (s * rb - r[k] * beta))
        for r, rb in rows]
    num, den = _volume(projected, m - 1)
    return beta * num, den * abs(s)


def _volume(rows, m: int) -> tuple[int, int]:
    """m-volume of the bounded polytope {z : a . z >= beta for each integer
    row}, as a (numerator, denominator) pair.

    Rows with a zero normal are dropped, and of each direction u only the
    tightest u . z >= p/q is kept, as the row (q u, p); then Lasserre's
    recursion over the rows with p != 0, down to an interval.
    """
    tightest: dict[tuple[int, ...], tuple[int, int]] = {}
    for a, beta in rows:
        g = gcd(*a)
        if g == 0:
            if beta > 0:
                return 0, 1
            continue
        u, h = tuple(c // g for c in a), gcd(beta, g)
        p, q = beta // h, g // h
        if u not in tightest or p * tightest[u][1] > tightest[u][0] * q:
            tightest[u] = p, q
    if m == 0:
        return 1, 1
    if m == 1:
        (p, q), (pn, qn) = tightest[(1,)], tightest[(-1,)]
        return max(-pn * q - p * qn, 0), q * qn
    rows = [(tuple(c * q for c in u), p) for u, (p, q) in tightest.items()]
    num, den = _fsum(_cone_term(row, rows[:i] + rows[i + 1:], m)
                     for i, row in enumerate(rows) if row[1])
    return -num, den * m


def covol(D: ConvexRegion) -> Fraction:
    """Exact covolume of a cobounded region, in every dimension.

    The facet n.y >= b adds the cone (b/d) vol_{d-1}(pi_k F) / n_k.  F is
    described by the orthant and halfspace constraints sharing at least
    d - 1 extreme rays with it, which include all of its ridges.  The
    extreme rays of the homogenised region are the axis directions, which
    lie on no halfspace of a cobounded region, and the vertices; so the zero
    sets are read from the stored vertices, scaled to integers.
    """
    if not D.is_cobounded:
        raise NotCoboundedError("region has an unbounded complement")
    if not D.vertices:
        raise GeometryError("region has no vertices; build it with region()")
    d = D.dim
    rows = [(tuple(int(i == j) for j in range(d)), 0) for i in range(d)]
    rows += [(tuple(b.denominator * c for c in n), b.numerator)
             for n, b in D.halfspaces]
    den = lcm(*(c.denominator for v in D.vertices for c in v))
    points = [[c.numerator * (den // c.denominator) for c in v] for v in D.vertices]
    zeros = [sum(1 << r for r, p in enumerate(points) if sum(map(mul, a, p)) == beta * den)
             for a, beta in rows]
    num, den = _fsum(
        _cone_term(rows[j], [row for i, row in enumerate(rows)
                             if i != j and (zeros[i] & zeros[j]).bit_count() >= d - 1], d)
        for j in range(d, len(rows)))
    return Fraction(num, den * d)


# -- bounded polytopes ---------------------------------------------------------


def _lifted_hull(points):
    """(t, U): U is the upward hull of the points x lifted to (t - |x|, x),
    with t their largest 1-norm.  The lifted points lie on U's face
    sum(y) = t, which is their hull; so U's vertices are the lifted vertices
    of conv(points), and U's rows with y_0 = t - |x| describe conv(points)."""
    t = max(sum(x) for x in points)
    lifted = [(t - sum(x), *x) for x in points]
    return t, _hull(lifted)


def hull_vertices(points) -> list:
    """Vertices of the convex hull of points of the orthant: in boundary
    order, counterclockwise from the least, in dimension 2, and in
    lexicographic order otherwise."""
    vertices = sorted(v[1:] for v in _lifted_hull(points)[1].vertices)
    if len(vertices[0]) == 2:
        # by slope from the least vertex; the one straight above it comes last
        x0, y0 = vertices[0]
        vertices[1:] = sorted(vertices[1:], key=lambda v: (
            v[0] == x0, (v[1] - y0) / (v[0] - x0 or 1)))
    return vertices


def polytope_volume(vertices) -> Fraction:
    """Volume of the full-dimensional convex hull of points of the orthant:
    Lasserre's recursion on the rows n.y >= b of the lifted hull and of the
    orthant, with y_0 = t - |x| substituted."""
    t, U = _lifted_hull(vertices)
    units = [(tuple(int(j == k) for k in range(U.dim)), 0) for j in range(U.dim)]
    # the row (a, b - n_0 t) scaled by the denominators of b and t
    tn, td = t.numerator, t.denominator
    num, den = _volume([(tuple((c - n[0]) * b.denominator * td for c in n[1:]),
                         b.numerator * td - n[0] * tn * b.denominator)
                        for n, b in [*U.halfspaces, *units]], U.dim - 1)
    return Fraction(num, den)


# -- constructions -----------------------------------------------------------


def hull_region(I: MonomialIdeal) -> ConvexRegion:
    """Convex hull of the staircase of a primary ideal."""
    if not I.is_primary:
        raise NotPrimaryError("hull region needs a primary ideal")
    return _hull(I.gens)


def minkowski_sum(D1: ConvexRegion, D2: ConvexRegion) -> ConvexRegion:
    """Exact Minkowski sum: the upward hull of the pairwise vertex sums.

    The vertices are scaled to integers over one common denominator, and
    the hull of their sums is scaled back.  A sum that dominates another lies
    in that one's orthant translate, so it is never a vertex of the hull;
    only the minimal sums are hulled.
    """
    if D1.dim != D2.dim:
        raise GeometryError("dimension mismatch")
    den = lcm(*(c.denominator for v in (*D1.vertices, *D2.vertices) for c in v))
    P, Q = ([[c.numerator * (den // c.denominator) for c in v] for v in D.vertices]
            for D in (D1, D2))
    sums = _minimal_antichain([tuple(map(add, p, q)) for p in P for q in Q], D1.dim)
    return scale_region(_hull(sums), Fraction(1, den))


def scale_region(D: ConvexRegion, t) -> ConvexRegion:
    """t·D for a positive rational t: D's offsets and vertices times t."""
    t = Fraction(t)
    if t <= 0:
        raise GeometryError("scale factor must be positive")
    return ConvexRegion(D.dim, tuple((n, b * t) for n, b in D.halfspaces),
                        tuple(tuple(c * t for c in v) for v in D.vertices))


KTReport = namedtuple("KTReport", "covol1 covol2 covol_sum holds equality dim")
KTReport.__doc__ = """Reversed Brunn-Minkowski check for covolumes (Fractions) of
summed regions."""


def kt_check(D1: ConvexRegion, D2: ConvexRegion) -> KTReport:
    """Exact check of covol^(1/d)(D1) + covol^(1/d)(D2) >= covol^(1/d)(D1+D2)."""
    if D1.dim != D2.dim:
        raise GeometryError("dimension mismatch")
    c1 = covol(D1)
    c2 = covol(D2)
    cs = covol(minkowski_sum(D1, D2))
    holds, equality = root_sum_at_least(c1, c2, cs, D1.dim)
    return KTReport(c1, c2, cs, holds, equality, D1.dim)

