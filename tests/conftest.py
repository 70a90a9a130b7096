"""Shared fixtures and brute-force oracles for the test suite.

The staircase oracles work purely by lattice-point enumeration over explicit
boxes (numpy membership matrices) and stay independent of the staircase code
they check.  The hull oracles are the per-candidate ``Fraction`` kernels that
the integer, output-sensitive ones replaced, kept here unchanged; so are the
valuation-family oracles (``Fraction`` column floors in d = 2, a box scan in
d >= 3).
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from monolim import INFINITE, AmbientRing, MonomialIdeal
from monolim.errors import GeometryError


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
    d = I.ring.d
    pure = [I.pure_power(j) for j in range(d)]
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


# -- valuation oracles: the Fraction kernels, kept as they were ----------------


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
