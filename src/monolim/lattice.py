"""Exact monomial-ideal arithmetic and lattice-point length computations.

Ideals are represented by their minimal generating exponent vectors (an
antichain under componentwise <=, kept in graded-lex order).  All values are
immutable and all operations are pure functions: a result depends only on
the arguments, never on what was computed before.

Lengths (lattice-point counts of staircase complements) are exact integers;
``INFINITE`` marks the non-primary case.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_left, bisect_right
from functools import cached_property, reduce
from operator import and_, attrgetter, itemgetter, lt

from .errors import (
    DimensionMismatchError,
    InclusionError,
    InputError,
    MonolimError,
    RingMismatchError,
    ZeroIdealError,
)

Exponent = tuple[int, ...]

#: Returned by colength / rel_length when the count is not finite.
INFINITE = math.inf

_DEFAULT_NAMES = ("x", "y", "z", "w")
_UNSET = object()


class Value:
    """Frozen value over the fields named in ``_fields``, given by position
    or keyword; a field left out defaults to the class attribute of its
    name.  Equality (same class only), hashing and repr read the fields
    alone, through one ``attrgetter`` per class, so memos kept in the
    instance dict (``cached_property``) never change them.  ``_validate``
    runs once the fields are set."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            cls = type(self)
            args += tuple(kwargs.pop(name) if name in kwargs else getattr(cls, name, _UNSET)
                          for name in names[len(args):])
            if kwargs or len(args) != len(names) or _UNSET in args:
                raise TypeError(f"{cls.__name__}() takes the fields {names}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._validate()

    def _validate(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class AmbientRing(Value):
    """Polynomial ring in ``d`` variables, local at the monomial maximal ideal."""

    _fields = ("d", "var_names")
    d: int
    var_names: tuple[str, ...]

    def _validate(self) -> None:
        if self.d < 1:
            raise InputError("ring dimension must be >= 1")
        if len(self.var_names) != self.d:
            raise InputError("need exactly one name per variable")
        if len(set(self.var_names)) != self.d:
            raise InputError("variable names must be distinct")

    @classmethod
    def default(cls, d: int) -> "AmbientRing":
        if d <= len(_DEFAULT_NAMES):
            return cls(d, _DEFAULT_NAMES[:d])
        return cls(d, tuple(f"x{i + 1}" for i in range(d)))


def dominates(a: Exponent, b: Exponent) -> bool:
    """True iff ``a <= b`` componentwise (x^a divides x^b)."""
    return all(ai <= bi for ai, bi in zip(a, b))


def _minimalize_2d(points) -> list[Exponent]:
    # Sweep in x order; an antichain in the plane has strictly decreasing y,
    # so the strict test also drops repeated points.  The result is in lex
    # order.
    kept: list[Exponent] = []
    best_y = None
    for p in sorted(points):
        if best_y is None or p[1] < best_y:
            kept.append(p)
            best_y = p[1]
    return kept


def _staircase_insert(xs: list[int], ys: list[int], x: int, y: int) -> bool:
    """Add the corner (x, y) to a 2-D staircase unless a kept corner divides it.

    ``xs`` increase and ``ys`` strictly decrease.  Kept corners that (x, y)
    divides form one run starting at the first ``xs`` >= x; they are spliced
    out.  Returns whether (x, y) was added.
    """
    i = bisect_right(xs, x)
    if i and ys[i - 1] <= y:
        return False
    k = j = bisect_left(xs, x, 0, i)
    while j < len(ys) and ys[j] >= y:
        j += 1
    xs[k:j] = (x,)
    ys[k:j] = (y,)
    return True


_ZXY = itemgetter(2, 0, 1)


def _minimalize_3d(points) -> list[Exponent]:
    # Kung-Luccio-Preparata sweep: in (z, x, y) order no point divides an
    # earlier one, so a point is kept iff no kept (x, y) projection divides
    # its own; the kept projections form a 2-D staircase, which also turns
    # away a repeated point.
    xs: list[int] = []
    ys: list[int] = []
    kept: list[Exponent] = []
    for p in sorted(points, key=_ZXY):
        if _staircase_insert(xs, ys, p[0], p[1]):
            kept.append(p)
    return kept


def _slices(points, d: int):
    """Walk the points along the last axis: for each distinct last coordinate
    z, in increasing order, yield (z, floor), where ``floor`` is the minimal
    antichain of the projections p[:-1] of the points with p[-1] <= z."""
    last = itemgetter(-1)
    floor: list[Exponent] = []
    for z, level in itertools.groupby(sorted(points, key=last), key=last):
        floor = _antichain(floor + [p[:-1] for p in level], d - 1)
        yield z, floor


def _antichain(points, d: int) -> list[Exponent]:
    """Minimal elements of ``points`` (any iterable), in no fixed order.

    In d >= 4 a point at level z of :func:`_slices` is minimal iff its
    projection enters the floor there: it lies in the floor at z, so no
    projection at or below z divides it strictly, and not in the floor one
    level down, where it would be the projection of a divisor below z.  A
    repeated point enters once.
    """
    if d == 1:
        return [min(points)]
    if d == 2:
        return _minimalize_2d(points)
    if d == 3:
        return _minimalize_3d(points)
    kept: list[Exponent] = []
    below: set = set()
    for z, floor in _slices(points, d):
        kept += [q + (z,) for q in floor if q not in below]
        below = set(floor)
    return kept


def _minimal_antichain(points, d: int) -> tuple[Exponent, ...]:
    """Minimal elements of ``points`` in graded-lex order.

    Lex order stably re-sorted by total degree is graded-lex order.  The
    lex sort is linear on the 2-D sweep's output, which is already in lex
    order.
    """
    if not points:
        return ()
    kept = _antichain(points, d)
    kept.sort()
    kept.sort(key=sum)
    return tuple(kept)


class MonomialIdeal(Value):
    """Monomial ideal in canonical form.

    ``gens`` is the unique minimal generating antichain sorted in graded-lex
    order; two ideals are equal iff their canonical forms are equal.  Empty
    ``gens`` is the zero ideal, the single generator ``(0,...,0)`` is the unit
    ideal.
    """

    _fields = ("ring", "gens")
    ring: AmbientRing
    gens: tuple[Exponent, ...]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_gens(ring: AmbientRing, gens) -> "MonomialIdeal":
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != ring.d:
                raise DimensionMismatchError(
                    f"exponent {g} has length {len(g)}, expected {ring.d}")
            if any(c < 0 for c in g):
                raise MonolimError(f"negative exponent in {g}")
        return MonomialIdeal(ring, _minimal_antichain(gens, ring.d))

    @staticmethod
    def zero(ring: AmbientRing) -> "MonomialIdeal":
        return MonomialIdeal(ring, ())

    @staticmethod
    def unit(ring: AmbientRing) -> "MonomialIdeal":
        return MonomialIdeal(ring, ((0,) * ring.d,))

    @staticmethod
    def maximal(ring: AmbientRing) -> "MonomialIdeal":
        return MonomialIdeal.maximal_power(ring, 1)

    @staticmethod
    def maximal_power(ring: AmbientRing, b: int) -> "MonomialIdeal":
        """m^b, generated by all monomials of total degree ``b``."""
        if b < 0:
            raise MonolimError("negative power")
        if b == 0:
            return MonomialIdeal.unit(ring)
        return MonomialIdeal(ring, tuple(_compositions(b, ring.d)))

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def contains(self, a: Exponent) -> bool:
        """Membership x^a in the ideal."""
        if len(a) != self.ring.d:
            raise DimensionMismatchError(
                f"exponent {a} has length {len(a)}, expected {self.ring.d}")
        return any(dominates(g, a) for g in self.gens)

    def issubset(self, other: "MonomialIdeal") -> bool:
        """I <= J iff the minimal elements of the union of both generator
        lists are J's own canonical generators: one minimalize of n + m
        points, O((n + m) log(n + m)) in d <= 3.  A false answer costs as
        much as a true one; there is no early stop at a non-member."""
        self._check_ring(other)
        return _minimal_antichain(self.gens + other.gens, self.ring.d) == other.gens

    def pure_powers(self) -> tuple:
        """Least e_j with x_j^e_j in the ideal for every axis j (None if none)."""
        return self._pure_powers

    @cached_property
    def _pure_powers(self) -> tuple:
        """Scanned once per ideal; the cache sits in the instance dict, not
        in a field, so equality and hashing ignore it."""
        d = self.ring.d
        best = [None] * d
        for g in self.gens:
            if g.count(0) < d - 1:
                continue
            if not any(g):
                return (0,) * d
            j = next(j for j, c in enumerate(g) if c)
            if best[j] is None or g[j] < best[j]:
                best[j] = g[j]
        return tuple(best)

    @property
    def is_primary(self) -> bool:
        """True iff the ideal contains a pure power of every variable."""
        return None not in self.pure_powers()

    def _check_ring(self, other: "MonomialIdeal") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("operands live in different rings")

    # -- arithmetic --------------------------------------------------------

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """I * J from the distinct generator sums.

        The larger generator list is transposed into coordinate columns
        once; each generator h of the smaller one shifts the columns by h
        and ``zip`` rebuilds the sums, one shifted copy per h.  Powers
        repeat many sums, so they are collected in a set and each distinct
        point is minimalized once.
        """
        self._check_ring(other)
        small, large = sorted((self.gens, other.gens), key=len)
        columns = tuple(zip(*large))
        sums: set[Exponent] = set()
        for h in small:
            sums.update(zip(*[map(c.__add__, col) if c else col
                              for c, col in zip(h, columns)]))
        return MonomialIdeal(self.ring, _minimal_antichain(sums, self.ring.d))

    __mul__ = multiply

    def power(self, k: int) -> "MonomialIdeal":
        """Binary exponentiation from the base at the lowest set bit of k,
        so I^k takes (bit length - 1) squarings and (set bits - 1) other
        products; I^0 is the unit ideal."""
        if k < 0:
            raise MonolimError("negative power")
        if not k:
            return MonomialIdeal.unit(self.ring)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        while k := k >> 1:
            base = base * base
            if k & 1:
                result = result * base
        return result

    __pow__ = power

    def add(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal sum I + J (union of generators, minimalized)."""
        self._check_ring(other)
        return MonomialIdeal(self.ring,
                             _minimal_antichain(list(self.gens + other.gens),
                                                self.ring.d))

    __add__ = add

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ring(other)
        maxes = {tuple(map(max, g, h)) for g in self.gens for h in other.gens}
        return MonomialIdeal(self.ring, _minimal_antichain(maxes, self.ring.d))

    __and__ = intersect

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """I : J, the exponents a with a + g in I for every generator g of J."""
        self._check_ring(other)
        if other.is_zero:
            raise ZeroIdealError("colon by the zero ideal is undefined")
        result = None
        for h in other.gens:
            shifted = [tuple(max(a - b, 0) for a, b in zip(g, h))
                       for g in self.gens]
            part = MonomialIdeal(self.ring,
                                 _minimal_antichain(shifted, self.ring.d))
            result = part if result is None else result & part
        return result

    def _projection(self, kept: list[int]) -> tuple[Exponent, ...]:
        # The minimal projections onto the kept coordinates, graded-lex.
        projected = zip(*[map(itemgetter(j), self.gens) for j in kept])
        return _minimal_antichain(list(projected), len(kept))

    def restrict(self, axes) -> "MonomialIdeal":
        """I localized at the prime of the variables not in ``axes``, as an
        ideal of the ring of those kept variables: R_S / I_S with S = axes
        is k[x_kept] / restrict(S).

        The inverted coordinates drop out, so the minimal generators are the
        minimal projections onto the k kept coordinates.  One minimalize in
        k variables: O(n log n) for k <= 3 (a ``min``, or the 2-D or 3-D
        sweep), the last-axis walk of :func:`_slices` for more.  ``axes``
        must leave a variable kept; the zero ideal stays zero."""
        axes = set(axes)
        ring = self.ring
        kept = [j for j in range(ring.d) if j not in axes]
        if not kept:
            raise MonolimError("restriction keeps no variable")
        sub = AmbientRing(len(kept), tuple([ring.var_names[j] for j in kept]))
        return MonomialIdeal(sub, self._projection(kept))

    def localize(self, axes) -> "MonomialIdeal":
        """I : (prod_{j in axes} x_j)^infinity, the generators with those
        coordinates set to 0: I localized at the prime of the other variables.

        The generators of :meth:`restrict` with the zeros put back; inserting
        coordinates that are 0 in every generator keeps the graded-lex
        order.  Every axis gives the unit ideal, and the zero ideal stays
        zero."""
        axes = set(axes)
        if not axes or self.is_zero:
            return self
        d = self.ring.d
        kept = [j for j in range(d) if j not in axes]
        if not kept:
            return MonomialIdeal.unit(self.ring)
        # a kept point q with a 0 appended: axis j reads q[k] if it is the
        # k-th kept axis, else the appended 0.  The tuple is built from a
        # list: tuple() of a generator shrinks a 10-slot tuple, so on
        # repeated calls freed tuples pile up in CPython's free lists.
        back = itemgetter(*[kept.index(j) if j in kept else len(kept) for j in range(d)])
        return MonomialIdeal(self.ring, tuple([back(q + (0,))
                                               for q in self._projection(kept)]))

    def saturate(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """I : J^infinity, the least fixpoint of repeated colon by J.

        Computed in closed form: the stable colon by a single monomial x^h
        is the localization at the support of h, and saturation by J is the
        intersection of these over the generators h of J.  A localization
        that is the unit ideal leaves the intersection as it is, so it is
        skipped; when all are, the saturation is the unit ideal.
        """
        self._check_ring(other)
        if other.is_zero:
            raise ZeroIdealError("saturation by the zero ideal is undefined")
        parts = [part for part in (self.localize(j for j, c in enumerate(h) if c)
                                   for h in other.gens) if not part.is_unit]
        return reduce(and_, parts) if parts else MonomialIdeal.unit(self.ring)

    def saturation(self) -> "MonomialIdeal":
        """I^sat = I : m^infinity."""
        return self.saturate(MonomialIdeal.maximal(self.ring))

    # -- lengths -----------------------------------------------------------

    def colength(self):
        """Number of exponents outside the staircase; INFINITE if not primary."""
        if not self.is_primary:
            return INFINITE
        return _standard_monomials(self.gens, self.ring.d)[0]

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        return format_ideal(self)


def _compositions(total: int, parts: int):
    """All exponent vectors of length ``parts`` summing to ``total``, in lex
    (hence graded-lex) order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _standard_monomials(gens, d: int) -> tuple[int, int]:
    """(count, top) of the exponents outside a primary staircase.

    ``top`` is their largest total degree, -1 if there are none.  ``gens``
    must be a minimal antichain holding a pure power of every variable.  The
    staircase is cut along the last axis only at the distinct last
    coordinates z_0 = 0 < z_1 < ... of the generators: every slice with
    z_i <= z < z_{i+1} is the same (d-1)-dimensional staircase, the floor
    that :func:`_slices` yields at z_i, so a slice is counted once and
    weighted by z_{i+1} - z_i.  This is the pivot
    l(R/I) = l(R/(I + (p))) + l(R/(I : p)) with p = x_d^{z_i}.  The last
    level is the pure power of x_d alone, whose slice is the unit ideal, so
    it only ends the slice below it.
    """
    if d == 1:
        return gens[0][0], gens[0][0] - 1
    count, top = 0, -1
    if d == 2:
        # Corners by x: column heights y_i on [x_i, x_{i+1}).
        corners = sorted(gens)
        for (x, y), (nx, _) in zip(corners, corners[1:]):
            count += (nx - x) * y
            if nx + y - 2 > top:
                top = nx + y - 2
        return count, top
    for (z, floor), (nz, _) in itertools.pairwise(_slices(gens, d)):
        c, t = _standard_monomials(floor, d - 1)
        count += (nz - z) * c
        if nz - 1 + t > top:
            top = nz - 1 + t
    return count, top


def _box_colength(gens, tops) -> int:
    """Colength of (gens) + (x_j^tops_j : all j), with no ideal built.

    ``gens`` is a minimal antichain.  The box power b_j = x_j^tops_j is
    divided by a generator g iff g = x_j^c with c <= tops_j, and b_j divides
    g iff g_j >= tops_j.  So the box powers that no generator divides,
    with the generators that none of those divides, are already the
    minimal antichain of the sum, and it holds a pure power of every
    variable.  A unit generator, or a zero top, gives 0.
    """
    if not all(tops) or (gens and not any(gens[0])):
        return 0
    d = len(tops)
    caps = list(tops)  # the kept box powers; INFINITE where b_j is divided
    for g in gens:
        if g.count(0) == d - 1:
            j = g.index(max(g))
            if g[j] <= tops[j]:
                caps[j] = INFINITE
    box = [tuple(t if i == j else 0 for i in range(d))
           for j, t in enumerate(caps) if t != INFINITE]
    return _standard_monomials(box + [g for g in gens if all(map(lt, g, caps))], d)[0]


def saturation_gap(ideal: MonomialIdeal) -> int:
    """l(I^sat / I), the length of H^0_m(R/I); 0 when I^sat = I.

    I lies in I^sat and the quotient has finite length by definition, so
    neither is tested.  The gap is counted in the box of I's largest
    exponents M_j, as in :func:`rel_length`: (I^sat)_{x_j} = I_{x_j}, so a
    point of I^sat with a_j >= M_j lies in I.
    """
    sat = ideal.saturation()
    if sat == ideal:
        return 0
    tops = [max(col) for col in zip(*ideal.gens)]
    return _box_colength(ideal.gens, tops) - _box_colength(sat.gens, tops)


def quotient_dim(outer: MonomialIdeal, inner: MonomialIdeal) -> int:
    """Krull dimension of outer/inner (inner <= outer; -1 if equal): the
    largest |S| whose prime (x_j : j not in S) has localizations that differ.

    Localizing at S is localizing at T inside S and then at S minus T, so
    where the localizations agree at T they agree at S: the sets S at which
    they differ are closed under subsets.  The scan runs up the sizes and
    stops at the first size r at which every r-subset agrees.
    """
    d = outer.ring.d
    for r in range(d + 1):
        if all(outer.localize(axes) == inner.localize(axes)
               for axes in itertools.combinations(range(d), r)):
            return r - 1
    return d


def minimalize(ring: AmbientRing, gens) -> MonomialIdeal:
    """Canonical minimal antichain generating the same ideal; idempotent."""
    return MonomialIdeal.from_gens(ring, gens)


def rel_length(outer: MonomialIdeal, inner: MonomialIdeal):
    """Count of exponents in ``outer`` but not ``inner`` (requires inner <= outer).

    The count is finite iff outer / inner has dimension 0, that is, iff its
    localizations at the primes (x_j : j not in S), S nonempty, all vanish.
    Then the counted exponents lie in the box a_j < M_j = max_f f_j over the
    generators f of inner: for a in outer with a_j >= M_j, a with a_j set to
    0 lies in outer localized at x_j, which is inner localized at x_j, so
    some f divides a off axis j, and f_j <= M_j <= a_j.  Truncating both
    ideals by the box loses none of the count.  A primary inner needs no
    dimension test: its pure powers divide every box power, and the count is
    l(R/inner) - l(R/outer).
    """
    outer._check_ring(inner)
    if not inner.issubset(outer):
        raise InclusionError("inner ideal is not contained in the outer ideal")
    if inner == outer:
        return 0
    if not inner.is_primary and quotient_dim(outer, inner) > 0:
        return INFINITE
    tops = [max(col) for col in zip(*inner.gens)]
    return _box_colength(inner.gens, tops) - _box_colength(outer.gens, tops)


def length_mod_power(outer: MonomialIdeal, inner: MonomialIdeal, k: int) -> int:
    """Length of outer/(m^k * outer + inner); always finite."""
    if k < 0:
        raise MonolimError("negative power")
    mk = MonomialIdeal.maximal_power(outer.ring, k)
    return rel_length(outer, mk.multiply(outer).add(inner))


def containment_order(ideal: MonomialIdeal) -> int:
    """Least c with m^c contained in the ideal (the ideal must be primary).

    Equals one plus the largest total degree of a standard monomial, so 0
    for the unit ideal, which has none.
    """
    if not ideal.is_primary:
        raise InclusionError("no power of the maximal ideal fits in a non-primary ideal")
    return _standard_monomials(ideal.gens, ideal.ring.d)[1] + 1


class MonomialModule(Value):
    """Monomial submodule E of a free module F = R^n.

    A monomial submodule splits as a direct sum of one coefficient ideal per
    free generator; powers E^k inside the symmetric algebra of F are computed
    componentwise by convolving the multidegree pieces.
    """

    _fields = ("ring", "components")
    ring: AmbientRing
    components: tuple[MonomialIdeal, ...]

    def _validate(self) -> None:
        for c in self.components:
            if c.ring != self.ring:
                raise RingMismatchError("component ideal in a different ring")
        if not self.components:
            raise MonolimError("module needs at least one free generator")

    @staticmethod
    def from_components(ring: AmbientRing, ideals) -> "MonomialModule":
        return MonomialModule(ring, tuple(ideals))

    @property
    def free_rank(self) -> int:
        return len(self.components)

    @property
    def rank(self) -> int:
        """Generic rank: number of free generators with a nonzero coefficient ideal.

        Equals the Krull dimension of the algebra generated by the module
        minus the ring dimension (the multidegree lattice of the generators
        is spanned by the unit vectors of the nonzero components).
        """
        return sum(0 if c.is_zero else 1 for c in self.components)

    def pieces(self, upto: int):
        """Iterate (k, multidegree components of E^k) for k = 0..upto.

        Each piece maps a multidegree over the free generators (total degree
        k) to the coefficient ideal of E^k in that coordinate of F^k; the
        convolution is incremental, so consuming the whole iterator costs one
        step per k.  Every path to a multidegree beta yields the same ideal
        prod_j I_j^beta_j, so each is multiplied out once.
        """
        if upto < 0:
            raise MonolimError("negative power")
        n = self.free_rank
        current = {(0,) * n: MonomialIdeal.unit(self.ring)}
        first = {}
        for j, ideal in enumerate(self.components):
            if ideal.is_zero:
                continue
            beta = tuple(1 if i == j else 0 for i in range(n))
            first[beta] = ideal
        yield 0, current
        for k in range(1, upto + 1):
            nxt: dict[tuple[int, ...], MonomialIdeal] = {}
            for beta, ideal in current.items():
                for db, dideal in first.items():
                    key = tuple(a + b for a, b in zip(beta, db))
                    if key not in nxt:
                        nxt[key] = ideal * dideal
            current = nxt
            yield k, current

    def piece(self, k: int) -> dict[tuple[int, ...], MonomialIdeal]:
        """Multidegree components of E^k inside F^k."""
        for i, piece in self.pieces(k):
            if i == k:
                return piece
        raise MonolimError("unreachable")


# -- text syntax -----------------------------------------------------------

_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_ideal(ring: AmbientRing, text: str) -> MonomialIdeal:
    """Parse the comma-separated monomial syntax, e.g. ``"x^2*y, y^3"``."""
    text = text.strip()
    if text == "0":
        return MonomialIdeal.zero(ring)
    index = {name: i for i, name in enumerate(ring.var_names)}
    gens = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise InputError("empty monomial in ideal text")
        e = [0] * ring.d
        if chunk != "1":
            for factor in chunk.split("*"):
                m = _FACTOR_RE.match(factor.strip())
                if not m:
                    raise InputError(f"bad monomial factor {factor!r}")
                name, exp = m.group(1), m.group(2)
                if name not in index:
                    raise InputError(f"unknown variable {name!r}")
                try:
                    e[index[name]] += int(exp) if exp else 1
                except ValueError:  # past the interpreter's int digit limit
                    raise InputError(f"exponent of {name!r} has too many digits "
                                     f"({len(exp)})") from None
        gens.append(tuple(e))
    return MonomialIdeal.from_gens(ring, gens)


def format_monomial(ring: AmbientRing, e: Exponent) -> str:
    if not any(e):
        return "1"
    parts = []
    for name, c in zip(ring.var_names, e):
        if c == 1:
            parts.append(name)
        elif c > 1:
            parts.append(f"{name}^{c}")
    return "*".join(parts)


def format_ideal(ideal: MonomialIdeal) -> str:
    """Canonical printer; round-trips bit-exactly with :func:`parse_ideal`."""
    if ideal.is_zero:
        return "0"
    return ", ".join(format_monomial(ideal.ring, g) for g in ideal.gens)
