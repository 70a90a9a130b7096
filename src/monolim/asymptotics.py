"""Length and multiplicity sequences, limit estimation, and inequality checks.

Sequence values are exact integers; normalized tails and fitted limits are
exact rationals.  Root comparisons in the Minkowski-type inequalities are
decided by integer bracketing, never floating point.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import factorial
from operator import mul, sub

from .convex import covol, hull_region
from .errors import (
    EstimateError,
    InclusionError,
    MonolimError,
    NotFiltrationError,
    NotPrimaryError,
    ZeroIdealError,
)
from .families import (
    FamilySpec,
    PowerSpec,
    ProductSpec,
    SymbolicSpec,
    verify_filtration,
)
from .lattice import (
    INFINITE,
    MonomialIdeal,
    MonomialModule,
    Value,
    containment_order,
    quotient_dim,
    rel_length,
    saturation_gap,
)
from .roots import root_sum_at_least


class LengthSequence(Value):
    """Sampled values (n, v_n) with the normalization exponent ``degree``."""

    _fields = ("entries", "degree")
    entries: tuple[tuple[int, int], ...]
    degree: int

    def _validate(self):
        ns = [n for n, _ in self.entries]
        if ns != sorted(set(ns)):
            raise MonolimError("sample indices must be strictly increasing")
        if ns and ns[0] < 0:
            raise MonolimError("sample indices must be nonnegative")
        if self.degree < 1:
            raise MonolimError("normalization degree must be >= 1")

    def normalized(self) -> list[tuple[int, Fraction]]:
        return [(n, Fraction(v, n ** self.degree)) for n, v in self.entries if n > 0]


LimitEstimate = namedtuple(
    "LimitEstimate", "point_estimate tail_min tail_max verdict window")
LimitEstimate.__doc__ = """Fitted limit of v_n / n^degree with the tail window
that produced it: the point estimate and the tail's least and greatest ratios
(Fractions), the verdict and the window (first n, last n)."""


def estimate_limit(S: LengthSequence, tol=Fraction(1, 100)) -> LimitEstimate:
    """Estimate lim v_n / n^d by fitting c_d n^d + c_(d-1) n^(d-1) to the tail.

    The tail is the last quarter of the samples.  CONVERGED means the
    normalized tail is flat to within ``tol`` (relative range) or the
    two-term fit reproduces the tail essentially exactly; OSCILLATING /
    DIVERGING / INCONCLUSIVE classify the remaining shapes heuristically.

    The fit runs on integer moment sums: c_d = A/D and c_(d-1) = B/D, the
    residual is tested as an integer times D^2, and the tail ratios v/n^d
    are compared by cross-multiplying.  Only the reported values are
    ``Fraction``s.
    """
    if len(S.entries) < 8:
        raise EstimateError("need at least 8 samples")
    tol = Fraction(tol) if not isinstance(tol, Fraction) else tol
    d = S.degree
    tail = S.entries[-max(2, len(S.entries) // 4):]
    vs = [v for _, v in tail]
    ws = [n ** d for n, _ in tail]  # positive: the tail indices are at least 6
    us = [n ** (d - 1) for n, _ in tail]
    s0, s1, s2 = sum(map(mul, ws, ws)), sum(map(mul, ws, us)), sum(map(mul, us, us))
    r0, r1 = sum(map(mul, vs, ws)), sum(map(mul, vs, us))
    # the fit is (A n^d + B n^(d-1)) / D; D > 0 by Cauchy-Schwarz, as the
    # tail holds at least two distinct indices and d >= 1
    D = s0 * s2 - s1 * s1
    A, B = r0 * s2 - r1 * s1, r1 * s0 - r0 * s1
    point = Fraction(A, D)
    lo = hi = 0  # the tail positions of the least and the greatest v/n^d
    for i in range(1, len(vs)):
        if vs[i] * ws[lo] < vs[lo] * ws[i]:
            lo = i
        elif vs[i] * ws[hi] > vs[hi] * ws[i]:
            hi = i
    qmin, qmax = Fraction(vs[lo], ws[lo]), Fraction(vs[hi], ws[hi])
    scale = max(abs(point), abs(qmax), abs(qmin))
    rel_range = Fraction(0) if scale == 0 else (qmax - qmin) / scale
    scale_sq = sum(map(mul, vs, vs))
    # D^2 times the residual sum of (v - fit)^2, expanded in the moment sums
    residual = (D * D * scale_sq - 2 * D * (A * r0 + B * r1)
                + A * A * s0 + 2 * A * B * s1 + B * B * s2)
    p, q = tol.numerator, tol.denominator
    if rel_range < tol or residual * q * q * 10 ** 6 <= p * p * scale_sq * D * D:
        verdict = "CONVERGED"
    else:
        # the sign of each step v_(i+1)/n_(i+1)^d - v_i/n_i^d
        steps = [(t > 0) - (t < 0) for t in
                 map(sub, map(mul, vs[1:], ws), map(mul, vs, ws[1:]))]
        sign_changes = sum(x * y < 0 for x, y in zip(steps, steps[1:]))
        if sign_changes >= 2:
            verdict = "OSCILLATING"
        elif (min(steps) > 0 and vs[0] > 0
              and vs[-1] * ws[0] * q > vs[0] * ws[-1] * (q + 4 * p)):
            verdict = "DIVERGING"
        else:
            verdict = "INCONCLUSIVE"
    return LimitEstimate(point, min(qmin, point), max(qmax, point),
                         verdict, (tail[0][0], tail[-1][0]))


def length_sequence(F: FamilySpec, ns) -> LengthSequence:
    """Exact lengths of R/I_n.

    ``ns`` is either an upper bound N (samples 1..N) or an iterable of
    indices.  A non-primary member raises ``NotPrimaryError``.
    """
    indices = list(range(1, ns + 1)) if isinstance(ns, int) else sorted(set(ns))

    def value(n: int) -> int:
        v = F.length(n)
        if v == INFINITE:
            raise NotPrimaryError(f"member {n} of {F.label()} is not primary")
        return v

    return LengthSequence(tuple((n, value(n)) for n in indices), F.ring.d)


ProfileRow = namedtuple("ProfileRow", "n increase decrease")
ProfileRow.__doc__ = """Normalized first difference at n (a Fraction), reported in
both orientations."""


def difference_profile(S: LengthSequence) -> list[ProfileRow]:
    """Rows ((v_{n+1} - v_n)/n^(d-1)) for each adjacent sample pair."""
    rows = []
    for (n0, v0), (n1, v1) in zip(S.entries, S.entries[1:]):
        if n1 != n0 + 1 or (n0 == 0 and S.degree > 1):
            continue
        inc = Fraction(v1 - v0, n0 ** (S.degree - 1))
        rows.append(ProfileRow(n0, inc, -inc))
    if not rows:
        raise MonolimError("no consecutive sample pairs to difference")
    return rows


def exact_multiplicity(I: MonomialIdeal) -> int:
    """d! times the covolume of the hull region of a primary ideal."""
    d = I.ring.d
    value = covol(hull_region(I)) * factorial(d)
    if value.denominator != 1:
        raise MonolimError(f"multiplicity came out non-integral: {value}")
    return int(value)


MultiplicityReport = namedtuple(
    "MultiplicityReport", "ideal e_exact e_numeric hs_samples")


def multiplicity(I: MonomialIdeal, N: int = 64) -> MultiplicityReport:
    """Exact covolume multiplicity plus a Hilbert-Samuel sequence estimate."""
    if not I.is_primary:
        raise NotPrimaryError("multiplicity needs a primary ideal")
    if N < 8:
        raise EstimateError("need N >= 8 for the sequence estimate")
    d = I.ring.d
    e_exact = exact_multiplicity(I)
    ns = sorted({max(1, (N * k) // 8) for k in range(1, 9)})
    raw = length_sequence(PowerSpec(I), ns)
    scaled = LengthSequence(tuple((n, v * factorial(d)) for n, v in raw.entries), d)
    return MultiplicityReport(I, e_exact, estimate_limit(scaled), raw)


VolumeMultiplicityReport = namedtuple(
    "VolumeMultiplicityReport",
    "length_side multiplicity_side rel_gap length_estimate multiplicity_estimate")
VolumeMultiplicityReport.__doc__ = """Both sides of the volume = multiplicity
identity (Fractions) with their gap and the two LimitEstimates."""


def volume_equals_multiplicity(F: FamilySpec, N: int) -> VolumeMultiplicityReport:
    """Compare d! lim l(R/I_n)/n^d against lim e(I_p)/p^d."""
    d = F.ring.d
    left_est = estimate_limit(length_sequence(F, N))
    left = left_est.point_estimate * factorial(d)
    ps = sorted({max(1, (N * k) // 8) for k in range(1, 9)})
    evals = tuple((p, exact_multiplicity(F.member_ideal(p))) for p in ps)
    right_est = estimate_limit(LengthSequence(evals, d))
    right = right_est.point_estimate
    denom = max(abs(left), abs(right))
    gap = 0.0 if denom == 0 else float(abs(left - right) / denom)
    return VolumeMultiplicityReport(left, right, gap, left_est, right_est)


IdealMinkowskiReport = namedtuple(
    "IdealMinkowskiReport", "e_left e_right e_product holds equality")
IdealMinkowskiReport.__doc__ = """e(IJ)^(1/d) <= e(I)^(1/d) + e(J)^(1/d), decided
exactly."""


def teissier_check(I: MonomialIdeal, J: MonomialIdeal) -> IdealMinkowskiReport:
    if I.ring != J.ring:
        raise MonolimError("ideals live in different rings")
    d = I.ring.d
    eI, eJ, eIJ = exact_multiplicity(I), exact_multiplicity(J), exact_multiplicity(I * J)
    holds, equality = root_sum_at_least(Fraction(eI), Fraction(eJ), Fraction(eIJ), d)
    return IdealMinkowskiReport(eI, eJ, eIJ, holds, equality)


FamilyMinkowskiReport = namedtuple(
    "FamilyMinkowskiReport",
    "limit_left limit_right limit_product holds equality slack product")
FamilyMinkowskiReport.__doc__ = """Limit version of the Minkowski inequality for
two families: the three limits (Fractions), the verdicts, the float slack and
the product family's LengthSequence."""


def minkowski_family_check(F: FamilySpec, G: FamilySpec,
                           N: int) -> FamilyMinkowskiReport:
    d, P = F.ring.d, ProductSpec(F, G)
    product = length_sequence(P, N)
    a, b, c = fits = [estimate_limit(seq).point_estimate
                      for seq in (length_sequence(F, N), length_sequence(G, N), product)]
    for H, fit in zip((F, G, P), fits):
        if fit < 0:
            raise EstimateError(f"{H.label()}: fitted limit {fit} is negative")
    holds, equality = root_sum_at_least(a, b, c, d)
    slack = float(a) ** (1 / d) + float(b) ** (1 / d) - float(c) ** (1 / d)
    return FamilyMinkowskiReport(a, b, c, holds, equality, slack, product)


EpsilonReport = namedtuple(
    "EpsilonReport", "estimate epsilon samples degree rank primary_flag",
    defaults=(False,))
EpsilonReport.__doc__ = """Normalized limit of saturation-gap lengths; epsilon =
degree! * limit."""


def epsilon_ideal(I: MonomialIdeal, N: int) -> EpsilonReport:
    """Limit of l((I^n)^sat / I^n) / n^d: :func:`epsilon_module` of the
    rank-one module I, whose degree-n piece is I^n."""
    if I.is_zero:
        raise ZeroIdealError("epsilon multiplicity needs a nonzero ideal")
    return epsilon_module(MonomialModule(I.ring, (I,)), N)._replace(
        primary_flag=I.is_primary)


def epsilon_module(E: MonomialModule, N: int) -> EpsilonReport:
    """Limit of l(E^k :_{F^k} m^inf / E^k) / k^(d+e-1) for a monomial module."""
    d = E.ring.d
    e = E.rank
    if e == 0:
        raise ZeroIdealError("module has rank zero")
    deg = d + e - 1
    entries = []
    for k, piece in E.pieces(N):
        if k == 0:
            continue
        entries.append((k, sum(map(saturation_gap, piece.values()))))
    seq = LengthSequence(tuple(entries), deg)
    est = estimate_limit(seq)
    return EpsilonReport(est, est.point_estimate * factorial(deg), seq, deg, e)


SymbolicReport = namedtuple(
    "SymbolicReport", "s estimate samples zero_module", defaults=(False,))
SymbolicReport.__doc__ = """Limit of e_m(I_n(J)/I^n) / n^(d-s) with the detected
dimension s; the estimate and samples are None for a zero module."""


def _module_multiplicity(outer: MonomialIdeal, inner: MonomialIdeal,
                         s: int) -> int:
    """e_s(outer/inner): the sum over |S| = s of its lengths at the primes
    (x_j : j not in S).  Each is counted in the d - s kept variables: cut by
    (x_j : j in S), the localization R_S is k[x_kept], where both ideals
    are their restrictions.  For s = d no variable is kept: the one prime is
    (0), where outer/inner localizes to the fraction field if inner is zero
    and outer is not, and to 0 otherwise, so the term is 1 or 0."""
    d = outer.ring.d
    if s == d:
        return int(inner.is_zero and not outer.is_zero)
    total = 0
    for axes in combinations(range(d), s):
        term = rel_length(outer.restrict(axes), inner.restrict(axes))
        if term == INFINITE:
            raise MonolimError(f"module has dimension above {s}")
        total += term
    return total


def symbolic_multiplicity(I: MonomialIdeal, J: MonomialIdeal,
                          N: int) -> SymbolicReport:
    """Detect s = dim I_n(J)/I^n and estimate lim e_m(I_n(J)/I^n)/n^(d-s).

    e_m is exact by the associativity formula (Matsumura, Commutative Ring
    Theory, §14): the sum of the lengths at the monomial primes of dimension s.
    """
    if I.ring != J.ring:
        raise MonolimError("ideals live in different rings")
    d = I.ring.d
    symbolic = SymbolicSpec(I, J)
    powers = symbolic.powers
    samples = [n for n in (2, 3, 4, 5) if n <= N] or [1]
    dims = {quotient_dim(symbolic.member_ideal(n), powers.member_ideal(n))
            for n in samples}
    if dims == {-1}:
        return SymbolicReport(0, None, None, zero_module=True)
    dims.discard(-1)
    if len(dims) != 1:
        raise MonolimError(f"difference dimension unstable across samples: {dims}")
    s = dims.pop()
    entries = []
    for n in range(1, N + 1):
        entries.append((n, _module_multiplicity(
            symbolic.member_ideal(n), powers.member_ideal(n), s)))
    seq = LengthSequence(tuple(entries), d - s)
    return SymbolicReport(s, estimate_limit(seq), seq)


BoundReport = namedtuple("BoundReport", "value bound holds detail", defaults=("",))
BoundReport.__doc__ = """An exact inequality check value <= bound."""


def monomial_quotient_bound(I: MonomialIdeal, r: int, s: int) -> BoundReport:
    """Check dim_k(I / m^r I) <= (s+r)^(d-1) * r, given m^s inside I."""
    if r < 0 or s < 0:
        raise MonolimError("r and s must be nonnegative")
    d = I.ring.d
    if containment_order(I) > s:
        raise InclusionError(f"m^{s} is not contained in the ideal")
    value = rel_length(I, MonomialIdeal.maximal_power(I.ring, r) * I)
    bound = (s + r) ** (d - 1) * r
    return BoundReport(value, bound, value <= bound)


FiltrationBoundReport = namedtuple(
    "FiltrationBoundReport", "c checked_upto holds first_violation max_ratio")
FiltrationBoundReport.__doc__ = """l(I_n/I_{n+1}) <= c^d (n+1)^(d-1) for all n <=
N, with computed c, the first violating n (or None) and the float max ratio."""


def filtration_difference_bound(F: FamilySpec, N: int) -> FiltrationBoundReport:
    report = verify_filtration(F, N)
    if not report.passed:
        raise NotFiltrationError(f"not a filtration: {report.detail}")
    d = F.ring.d
    c = F.containment_order()
    holds = True
    first = None
    max_ratio = 0.0
    for n in range(1, N + 1):
        ln, ln1 = F.length(n), F.length(n + 1)
        if ln == INFINITE or ln1 == INFINITE:
            step = rel_length(F.member_ideal(n), F.member_ideal(n + 1))
        else:
            step = ln1 - ln
        bound = c ** d * (n + 1) ** (d - 1)
        max_ratio = max(max_ratio, step / bound if bound else 0.0)
        if step > bound and holds:
            holds, first = False, n
    return FiltrationBoundReport(c, N, holds, first, max_ratio)
