"""Graded families and filtrations of monomial ideals.

A family is a spec: a frozen description (an ideal, an exponent sequence,
weight constraints, ...) that is also a lazily evaluated map n -> I_n with
I_0 = R and the contract I_m * I_n <= I_{m+n}.  It memoizes its own members
and lengths outside its value fields, so two specs with the same fields
are equal whatever each has computed, and a family built from other families
(a product, or the powers behind a symbolic family) reads their memos.
Besides powers of a fixed ideal, the built-in specs cover exponent-driven
powers of the maximal ideal (including the two sequences whose normalized
length differences diverge or oscillate), valuation-style weight thresholds,
symbolic powers, saturations, products and explicit tables.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import comb
from operator import mul

from .convex import ConvexRegion, covol, hull_region, minkowski_sum, region
from .errors import (
    DimensionMismatchError,
    FamilyRangeError,
    FamilySpecError,
    InclusionError,
)
from .lattice import (
    INFINITE,
    AmbientRing,
    MonomialIdeal,
    Value,
    containment_order,
    format_ideal,
)

# -- exponent sequences ------------------------------------------------------


def sigma_multiplier(m: int) -> Fraction:
    """Dyadic multiplier: starts at 2 and drops by 1/2^n at m = 2^(2^n).

    Stays within [1, 2]; the drops are sparse enough that ceil(m * sigma(m))
    is subadditive while its first differences blow up at the drop points.
    """
    if m < 1:
        raise FamilySpecError("multiplier defined for m >= 1")
    sigma = Fraction(2)
    n = 1
    while 2 ** (2 ** n) <= m:
        sigma -= Fraction(1, 2 ** n)
        n += 1
    return sigma


def sigma_exponent(m: int) -> int:
    """b_m = ceil(m * sigma(m)); the power of m_R used at step m."""
    if m == 0:
        return 0
    return math.ceil(m * sigma_multiplier(m))


def log_offset(i: int) -> int:
    """Integer sequence 0, 1, 1, 1, 2, 2, 2, 2, 3, ...: floor(log2 i) for i >= 2."""
    if i < 0:
        raise FamilySpecError("offset defined for i >= 0")
    if i <= 1:
        return i
    return i.bit_length() - 1


def log_exponent(n: int) -> int:
    """b_n = n + log_offset(n); nondecreasing and subadditive."""
    return n + log_offset(n)


# -- family specs ------------------------------------------------------------


def _check_index(n: int) -> None:
    if n < 0:
        raise FamilySpecError("family index must be nonnegative")


class FamilySpec(Value):
    """Base class: a spec provides ``ring``, ``member(n)`` and a label; it
    overrides the defaults below where it knows a shortcut.  Callers read
    the memoized :meth:`member_ideal` and :meth:`length`."""

    @cached_property
    def _members(self) -> dict:
        """The memos sit in the instance dict, not in fields, so equality,
        hashing and repr ignore them."""
        return {}

    @cached_property
    def _lengths(self) -> dict:
        return {}

    def member_ideal(self, n: int) -> MonomialIdeal:
        """I_n, computed once."""
        _check_index(n)
        if n not in self._members:
            self._members[n] = MonomialIdeal.unit(self.ring) if n == 0 else self.member(n)
        return self._members[n]

    def length(self, n: int):
        """Colength of I_n (exact; INFINITE when not primary), computed once."""
        _check_index(n)
        if n not in self._lengths:
            self._lengths[n] = 0 if n == 0 else self.colength(n)
        return self._lengths[n]

    def member(self, n: int) -> MonomialIdeal:
        raise NotImplementedError

    #: The valuation family equal to this one (I_n = lattice points of n * D), if known.
    closure: ValuationSpec | None = None
    #: The limiting Newton region, the closure of the union of the NP(I_n)/n,
    #: when the spec knows it in closed form.
    limit_region: ConvexRegion | None = None
    #: True when I_m * I_n <= I_{m+n} and I_{n+1} <= I_n follow from the definition.
    graded_filtration = False

    def colength(self, n: int):
        """Colength of I_n (n >= 1)."""
        closure = self.closure
        return closure.colength(n) if closure else self.member_ideal(n).colength()

    def contains(self, a, n: int) -> bool:
        """Whether x^a lies in I_n."""
        closure = self.closure
        return closure.contains(a, n) if closure else self.member_ideal(n).contains(a)

    def containment_order(self) -> int:
        """Least c with m^c inside I_1; ``InclusionError`` if I_1 is not primary."""
        closure = self.closure
        return closure.containment_order() if closure else \
            containment_order(self.member_ideal(1))

    def column_floors(self, n: int) -> dict:
        """Column floors of I_n, keyed by column over the first d - 1
        coordinates: a column's floor, the least last coordinate of a member
        in it, is the least floor listed at or below it (none: the column is
        empty).  This lists each generator's last coordinate in its column."""
        closure = self.closure
        return closure.column_floors(n) if closure else \
            {g[:-1]: g[-1] for g in self.member_ideal(n).gens}

    def graded_violation(self, N: int):
        """((m, n), detail) for the first I_m * I_n not inside I_{m+n}, else None."""
        for m in range(1, N + 1):
            for n in range(m, N - m + 1):
                Im, In, Imn = map(self.member_ideal, (m, n, m + n))
                for g in Im.gens:
                    for h in In.gens:
                        s = tuple(a + b for a, b in zip(g, h))
                        if not Imn.contains(s):
                            return (m, n), f"generator product {s} escapes I_{m + n}"
        return None

    def filtration_violation(self, N: int):
        """((n, n + 1), detail) for the first I_{n+1} not inside I_n, else None."""
        for n in range(N):
            if not self.member_ideal(n + 1).issubset(self.member_ideal(n)):
                return (n, n + 1), f"I_{n + 1} is not inside I_{n}"
        return None

    def label(self) -> str:
        raise NotImplementedError


class PowerSpec(FamilySpec):
    """I_n = I^n for a fixed nonzero ideal I.

    A primary I of multiplicity e = d! * covol(NP(I)) has, for every n >= 1,

        l(R/I^n) = e * C(n+d-1, d) - (e - l(R/I)) * C(n+d-2, d-1)

    iff l(R/I^2) = e + d * l(R/I).  Monomial colengths do not depend on the
    field, so take it infinite: then I has a minimal reduction J generated
    by a regular sequence of length d, so l(R/J) = e, and J/JI is
    (J/J^2) / I(J/J^2) = (R/I)^d.  Hence l(R/JI) = e + d * l(R/I), which is
    at least l(R/I^2) as JI <= I^2, with equality iff I^2 = JI: I has
    reduction number at most one, and then the formula holds (Huneke 1987,
    Ooishi 1987).  The test needs only the covolume and l(R/I^2), so a
    length costs O(1) and no I^n past I^2 is built.  When d <= 2 and I is
    integrally closed, I^n is the set of lattice points of n * NP(I)
    (Zariski): the family is its closure, whose count gives l(R/I^2) with
    no member built, and which answers membership and column floors.  Such
    an I has reduction number at most one (Lipman-Teissier), so its lengths
    come from the formula.  Other ideals, such as x^4, x^3*y, y^4 and
    x^200, y^200, z^200, x*y*z, build I^n for each length, one product per
    n.
    """

    _fields = ("ideal",)
    ideal: MonomialIdeal
    graded_filtration = True  # I^m * I^n = I^(m+n), and I^(n+1) <= I^n

    def _validate(self):
        if self.ideal.is_zero:
            raise FamilySpecError("power family needs a nonzero ideal")

    @property
    def ring(self):
        return self.ideal.ring

    @cached_property
    def closure(self):
        """The valuation family of NP(I) in d <= 2 if I is integrally closed,
        which one comparison of the two finite colengths decides."""
        I = self.ideal
        if self.ring.d > 2 or not I.is_primary or I.is_unit:
            return None
        closure = ValuationSpec.make(self.ring, self.limit_region.halfspaces)
        return closure if closure.length(1) == I.colength() else None

    @cached_property
    def closed_form(self):
        """(e, l(R/I)), the two numbers of the closed-form length, when I is
        primary and l(R/I^2) = e + d * l(R/I); else None.  l(R/I^2) is the
        closure's count when there is one, else I^2's colength."""
        I = self.ideal
        if not I.is_primary:
            return None
        d, first = self.ring.d, I.colength()
        e = math.factorial(d) * covol(self.limit_region)
        return (int(e), first) if super().colength(2) == e + d * first else None

    def colength(self, n):
        """The :attr:`closed_form`, else the closure's count or the member
        walk."""
        closed_form = self.closed_form
        if closed_form is None:
            return super().colength(n)
        e, first = closed_form
        d = self.ring.d
        return e * comb(n + d - 1, d) - (e - first) * comb(n + d - 2, d - 1)

    @cached_property
    def limit_region(self):
        """NP(I), since NP(I^n) = n * NP(I)."""
        return hull_region(self.ideal)

    def member(self, n):
        """I^n multiplied up by I from the highest memoized power below n,
        or from I, memoizing each step: one product per step, where a fresh
        power by squaring would multiply ever larger squares."""
        if n == 1:
            return self.ideal
        members, k = self._members, n - 1
        while k > 1 and k not in members:
            k -= 1
        power = members.get(k, self.ideal)
        for k in range(k + 1, n + 1):
            power = members[k] = power * self.ideal
        return power

    def label(self):
        return f"power({format_ideal(self.ideal)})"


class MaxPowerSpec(FamilySpec):
    """I_n = m^(b_n) driven by an exponent sequence.

    ``kind`` is "sigma", "log", or "table" (explicit exponents b_1, b_2, ...;
    b_0 = 0 implied).
    """

    _fields = ("ring", "kind", "table")
    ring: AmbientRing
    kind: str
    table: tuple[int, ...] = ()

    def _validate(self):
        if self.kind not in ("sigma", "log", "table"):
            raise FamilySpecError(f"unknown exponent sequence {self.kind!r}")
        if self.kind == "table" and any(b < 0 for b in self.table):
            raise FamilySpecError("table exponents must be nonnegative")

    def exponent(self, n: int) -> int:
        if n == 0:
            return 0
        if self.kind == "sigma":
            return sigma_exponent(n)
        if self.kind == "log":
            return log_exponent(n)
        if n > len(self.table):
            raise FamilyRangeError(f"exponent table has no entry for n={n}")
        return self.table[n - 1]

    def member(self, n):
        return MonomialIdeal.maximal_power(self.ring, self.exponent(n))

    def colength(self, n):
        b, d = self.exponent(n), self.ring.d
        return comb(b + d - 1, d)

    @cached_property
    def limit_region(self):
        """{|a| >= 1} for sigma and log, whose b_n >= n have b_n/n -> 1; a
        table has no limit."""
        d = self.ring.d
        return None if self.kind == "table" else region(d, [((1,) * d, 1)])

    def graded_violation(self, N):
        exps = [self.exponent(n) for n in range(N + 1)]
        for m in range(1, N + 1):
            for n in range(m, N - m + 1):
                if exps[m] + exps[n] < exps[m + n]:
                    return (m, n), f"exponent {exps[m]}+{exps[n]} < {exps[m + n]}"
        return None

    def filtration_violation(self, N):
        for n in range(N):
            if self.exponent(n + 1) < self.exponent(n):
                return (n, n + 1), \
                    f"exponent drops {self.exponent(n)} -> {self.exponent(n + 1)}"
        return None

    def label(self):
        if self.kind == "table":
            return "maxpower(table:" + ",".join(map(str, self.table)) + ")"
        return f"maxpower({self.kind})"


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) over 0 <= i < n, for m >= 1 and any a, b.

    Writing a = qa*m + a' and b = qb*m + b' with 0 <= a', b' < m splits off
    qa*n(n-1)/2 + qb*n.  What is left counts the lattice points (i, k) with
    0 <= i < n, k >= 1 and m*k <= a'*i + b'.  Counting them by k instead: with
    t = a'*n + b', row k holds floor((t - m*k) / a') points for
    1 <= k <= K = t // m, and putting k = K - l turns that into
    floor((m*l + t % m) / a') for 0 <= l < K, the same sum with (n, m, a, b)
    = (K, a', m, t % m).  The moduli fall as in Euclid's algorithm, so there
    are O(log m) rounds.
    """
    total = 0
    while n > 0:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        t = a * n + b
        n, m, a, b = t // m, a, m, t % m
    return total


def _ceil_div(p: int, q: int) -> int:
    return -(-p // q)


def _count_outside(weights, ts, table, i: int = 0) -> int:
    """#{a >= 0 : <w_j, a> < t_j for some row j with t_j > 0}, counted over
    the coordinates from ``i`` on, for the rows' weight vectors ``weights``
    (all positive) and right-hand sides ``ts``.  ``table`` is the
    :func:`_comparison_table` of the rows.

    Slices along coordinate i at x < max ceil(t / w_i); each slice is the
    same count from coordinate i + 1 on, with right-hand sides t - w_i * x.
    A row whose side drops to t <= 0 is met on the whole slice and is
    skipped there.
    """
    d = len(weights[0])
    if i == d - 2:
        return _count_outside_2d(table, ts)
    width = max(_ceil_div(t, w[i]) for w, t in zip(weights, ts) if t > 0)
    if i == d - 1:
        return width
    total = 0
    for x in range(width):
        total += _count_outside(weights, [t - w[i] * x for w, t in zip(weights, ts)],
                                table, i + 1)
    return total


def _comparison_table(weights) -> list:
    """For each row j with last two weights (u, v): (u, v, entries), one
    entry (i, c, q, tie) for every other row i with last two weights (p, q),
    where c = u*q - p*v and tie = 1 when row i comes first.  These depend on
    the weights alone, so one table serves every right-hand side."""
    last = [w[-2:] for w in weights]
    return [(u, v, [(i, u * q - p * v, q, int(i < j))
                    for i, (p, q) in enumerate(last) if i != j])
            for j, (u, v) in enumerate(last)]


def _count_outside_2d(table, ts) -> int:
    """The count over the last two coordinates: the sum over x >= 0 of
    max_j ceil((t_j - u_j*x) / v_j), clipped at 0, over the rows with t_j > 0.

    Row j is the maximum on an integer interval of x (ties go to the lowest
    index), cut out by one comparison with every other row, and positive
    there while x < ceil(t_j / u_j).  Its ceilings on that interval are one
    ``floor_sum``: O(k^2 log t) for k rows.
    """
    total = 0
    for (u, v, entries), t in zip(table, ts):
        if t <= 0:
            continue
        lo, hi = 0, (t - 1) // u
        for i, c, q, tie in entries:
            s = ts[i]
            if s <= 0:
                continue
            # (t - u*x)/v >= (s - p*x)/q, strictly when row i comes first,
            # is c*x <= r:
            r = t * q - s * v - tie
            if c > 0:
                hi = min(hi, r // c)
            elif c < 0:
                lo = max(lo, -(r // -c))
            elif r < 0:
                hi = -1
        if lo <= hi:
            # ceil((t - u*x)/v) at x = hi - i is floor((u*i + t + v - 1 - u*hi)/v)
            total += floor_sum(hi - lo + 1, v, u, t + v - 1 - u * hi)
    return total


class ValuationSpec(FamilySpec):
    """I_n = monomials a with <weights_j, a> >= threshold_j * n for all j.

    Each constraint is scaled once by the lcm of its denominators, so members,
    lengths and membership are computed in ints.  A length costs
    O(k^2 log n) in d = 2 and n^(d-2) times that in d > 2, for k constraints.
    One scan reads the least last coordinate of each column over the first
    d - 1 coordinates; it gives the member's generators, and the Okounkov
    levels' runs with no member built.  Membership of one point is tested
    on the constraints, also with no member built.
    """

    _fields = ("ring", "constraints")
    ring: AmbientRing
    constraints: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    closure = property(lambda self: self, doc="A valuation family is its own closure.")
    graded_filtration = True  # the weights are linear and every t >= 0

    def _validate(self):
        if not self.constraints:
            raise FamilySpecError("valuation family needs at least one constraint")
        for weights, threshold in self.constraints:
            if len(weights) != self.ring.d:
                raise FamilySpecError("weight vector has wrong length")
            if any(w < 0 for w in weights) or all(w == 0 for w in weights):
                raise FamilySpecError("weights must be nonnegative and not all zero")
            if threshold < 0:
                raise FamilySpecError("thresholds must be nonnegative")
        scaled = []
        for weights, threshold in self.constraints:
            values = [c if isinstance(c, (int, Fraction)) else Fraction(c)
                      for c in (*weights, threshold)]
            scale = math.lcm(*(c.denominator for c in values))
            ints = [c.numerator * (scale // c.denominator) for c in values]
            scaled.append((tuple(ints[:-1]), ints[-1]))
        object.__setattr__(self, "_scaled", tuple(scaled))

    @staticmethod
    def make(ring, constraints) -> "ValuationSpec":
        """The spec of ``constraints``, each number made a ``Fraction``
        unless it already is one."""
        def exact(c):
            return c if isinstance(c, Fraction) else Fraction(c)

        return ValuationSpec(ring, tuple(
            (tuple(map(exact, weights)), exact(t)) for weights, t in constraints))

    def member(self, n):
        """Generated by the floor points of the columns of
        :meth:`column_floors`, read off with no minimalizing.  Floors never
        grow along a coordinate, so a column's floor point is a minimal
        generator iff each predecessor column, one step back along one of
        the first d - 1 coordinates, is unlisted (that is, empty) or has a
        larger floor.  Columns past the listed ones repeat a listed floor
        and give no generator."""
        floors = self.column_floors(n)
        gens = []
        for col, floor in floors.items():
            for k, c in enumerate(col):
                if c and floors.get(col[:k] + (c - 1,) + col[k + 1:], floor + 1) <= floor:
                    break
            else:
                gens.append((*col, floor))
        gens.sort()
        gens.sort(key=sum)  # lex order stably re-sorted by degree: graded-lex
        return MonomialIdeal(self.ring, tuple(gens))

    def contains(self, a, n):
        """<w, a> >= t*n for every scaled constraint; no member is built."""
        _check_index(n)
        if len(a) != self.ring.d:
            raise DimensionMismatchError(
                f"exponent {a} has length {len(a)}, expected {self.ring.d}")
        return all(sum(map(mul, w, a)) >= s * n for w, s in self._scaled)

    def column_floors(self, n):
        """A column's floor is the largest ceil(gap / w_d) over the unmet
        constraints, and the column is empty while one of them has w_d = 0.
        Coordinate i is scanned only while some unmet constraint still grows
        with it; past that, no floor changes along i.  Floors never grow along
        a coordinate, so every column's floor is the least one listed at or
        below it.  The columns of a row along the last of the d - 1
        coordinates are read together, one list of ceilings per constraint."""
        _check_index(n)
        last = self.ring.d - 1
        if last == 0:
            return {(): max(_ceil_div(s * n, w[0]) for w, s in self._scaled)}
        weights = [w for w, _ in self._scaled]
        floors: dict = {}

        def scan(prefix, gaps):
            i = len(prefix)
            bound = max((_ceil_div(g, w[i]) for w, g in zip(weights, gaps)
                         if g > 0 and w[i] > 0), default=0)
            if i < last - 1:
                for c in range(bound + 1):
                    scan(prefix + (c,), [g - w[i] * c for w, g in zip(weights, gaps)])
                return
            span = range(bound + 1)
            row, start = [0] * (bound + 1), 0
            for w, g in zip(weights, gaps):
                u, v = w[i], w[last]
                if v:
                    row = list(map(max, row, [(g - u * c + v - 1) // v for c in span]))
                elif g > 0:
                    start = max(start, _ceil_div(g, u) if u else bound + 1)
            floors.update(((*prefix, c), row[c]) for c in span[start:])

        scan((), [s * n for _, s in self._scaled])
        return floors

    def containment_order(self):
        """max over the constraints of ceil(t / least weight): the least
        degree-c monomials meet <w, a> >= t exactly when c * min(w) >= t."""
        rows = [(min(w), s) for w, s in self._scaled if s]
        if any(low == 0 for low, _ in rows):
            raise InclusionError(
                "no power of the maximal ideal fits in a non-primary ideal")
        return max((_ceil_div(s, low) for low, s in rows), default=0)

    @cached_property
    def _outside(self):
        """The constraints with t > 0 as (weights, thresholds, comparison
        table), built once per family; None when one of them has a zero
        weight, so that no member is primary.  Kept beside ``_scaled``,
        outside the fields."""
        rows = [(w, s) for w, s in self._scaled if s]
        if any(0 in w for w, _ in rows):
            return None
        weights = [w for w, _ in rows]
        table = _comparison_table(weights) if self.ring.d > 1 else None
        return weights, [s for _, s in rows], table

    def colength(self, n):
        """I_n is primary iff every constraint with t > 0 has all weights
        positive; then the standard monomials are the a >= 0 that fail some
        such constraint."""
        outside = self._outside
        if outside is None:
            return INFINITE
        weights, thresholds, table = outside
        if not weights:
            return 0
        return _count_outside(weights, [s * n for s in thresholds], table)

    @cached_property
    def limit_region(self):
        """The constraints' region: I_n is the lattice points of its n-fold dilate."""
        return region(self.ring.d, self.constraints)

    def label(self):
        parts = []
        for weights, t in self.constraints:
            ws = ",".join(str(w) for w in weights)
            parts.append(f"({ws})>={t}")
        return "valuation(" + "; ".join(parts) + ")"


class SymbolicSpec(FamilySpec):
    """Generalized symbolic powers I_n = I^n : J^infinity.

    I^n comes from the power family ``powers``, one product per step.
    """

    _fields = ("ideal", "aux")
    ideal: MonomialIdeal
    aux: MonomialIdeal
    graded_filtration = True  # the colon by J^infinity keeps both properties of I^n

    def _validate(self):
        if self.ideal.is_zero or self.aux.is_zero:
            raise FamilySpecError("symbolic family needs nonzero ideals")
        if self.ideal.ring != self.aux.ring:
            raise FamilySpecError("ideals live in different rings")

    @property
    def ring(self):
        return self.ideal.ring

    @cached_property
    def powers(self) -> PowerSpec:
        return PowerSpec(self.ideal)

    def member(self, n):
        return self.powers.member_ideal(n).saturate(self.aux)

    def label(self):
        return f"symbolic({format_ideal(self.ideal)}; {format_ideal(self.aux)})"


class SaturationSpec(SymbolicSpec):
    """I_n = (I^n)^sat = I^n : m^infinity, the symbolic family at J = m."""

    def __init__(self, ideal: MonomialIdeal):
        if ideal.is_zero:
            raise FamilySpecError("saturation family needs a nonzero ideal")
        super().__init__(ideal, MonomialIdeal.maximal(ideal.ring))

    def label(self):
        return f"saturation({format_ideal(self.ideal)})"


class ProductSpec(FamilySpec):
    """Memberwise product I_n = F_n * G_n of two families.

    In d <= 2, closed factors whose regions are cobounded with lattice
    vertices have integrally closed members, so F_n * G_n is one too
    (Zariski), with Newton region n * (D_F + D_G): the closure is the
    valuation family of that sum.  Otherwise the factors' members come from
    their own memos, so a power factor takes one product per step.
    """

    _fields = ("left", "right")
    left: FamilySpec
    right: FamilySpec
    graded_filtration = property(
        lambda self: self.left.graded_filtration and self.right.graded_filtration)

    def _validate(self):
        if self.left.ring != self.right.ring:
            raise FamilySpecError("factors live in different rings")

    @property
    def ring(self):
        return self.left.ring

    @cached_property
    def closure(self):
        if self.ring.d > 2 or not (self.left.closure and self.right.closure):
            return None
        if all(D.halfspaces and D.is_cobounded and
               all(c.denominator == 1 for v in D.vertices for c in v)
               for D in (self.left.limit_region, self.right.limit_region)):
            return ValuationSpec.make(self.ring, self.limit_region.halfspaces)
        return None

    def member(self, n):
        return self.left.member_ideal(n) * self.right.member_ideal(n)

    @cached_property
    def limit_region(self):
        """The Minkowski sum of the factors' regions: NP(IJ) = NP(I) + NP(J)."""
        regions = self.left.limit_region, self.right.limit_region
        return None if None in regions else minkowski_sum(*regions)

    def label(self):
        return f"product({self.left.label()}; {self.right.label()})"


class TableSpec(FamilySpec):
    """Explicit list of ideals I_0, I_1, ..., I_K (I_0 must be the unit ideal)."""

    _fields = ("ideals",)
    ideals: tuple[MonomialIdeal, ...]

    def _validate(self):
        if not self.ideals:
            raise FamilySpecError("table family needs ideals")
        if not self.ideals[0].is_unit:
            raise FamilySpecError("table entry 0 must be the unit ideal")
        if len({i.ring for i in self.ideals}) != 1:
            raise FamilySpecError("table entries live in different rings")

    @property
    def ring(self):
        return self.ideals[0].ring

    def member(self, n):
        if n >= len(self.ideals):
            raise FamilyRangeError(f"table family has no entry for n={n}")
        return self.ideals[n]

    def label(self):
        return "table(" + " | ".join(format_ideal(i) for i in self.ideals) + ")"


# -- verification -------------------------------------------------------------


class VerificationReport(namedtuple(
        "VerificationReport", "passed checked_upto first_violation detail",
        defaults=(None, ""))):
    """PASS/FAIL with the first violating index pair, if any."""

    __slots__ = ()

    def __bool__(self):
        return self.passed


def verify_graded(F: FamilySpec, N: int) -> VerificationReport:
    """Check I_m * I_n <= I_{m+n} for all m + n <= N, unless ``F.graded_filtration``."""
    violation = None if F.graded_filtration else F.graded_violation(N)
    return VerificationReport(violation is None, N, *(violation or ()))


def verify_filtration(F: FamilySpec, N: int) -> VerificationReport:
    """Check the descending chain I_{n+1} <= I_n for n < N, likewise."""
    violation = None if F.graded_filtration else F.filtration_violation(N)
    return VerificationReport(violation is None, N, *(violation or ()))
