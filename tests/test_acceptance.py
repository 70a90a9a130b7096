"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance and runtime budget is pinned here.
"""

import random
import time
from fractions import Fraction

from conftest import (
    box_points,
    joint_box,
    membership,
    oracle_colength,
    oracle_colon_members,
    random_ideal,
    random_primary_ideal,
)
from monolim import (
    AmbientRing,
    MaxPowerSpec,
    MonomialIdeal,
    MonomialModule,
    PowerSpec,
    SemigroupPredicate,
    ValuationSpec,
    difference_profile,
    enumerate_levels,
    epsilon_ideal,
    epsilon_module,
    estimate_limit,
    exact_multiplicity,
    filtration_difference_bound,
    kt_check,
    length_sequence,
    minkowski_family_check,
    monomial_quotient_bound,
    multiplicity,
    parse_ideal,
    region,
    scale_region,
    semigroup_limit_check,
    symbolic_multiplicity,
    teissier_check,
    volume_equals_multiplicity,
)

R2 = AmbientRing.default(2)
R3 = AmbientRing.default(3)


class _criterion:
    """Times the block, prints one line, re-raises on failure."""

    def __init__(self, number, budget_s, desc):
        self.number, self.budget, self.desc = number, budget_s, desc

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        ok = exc_type is None and elapsed < self.budget
        print(f"criterion {self.number:2d}: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.1f}s / {self.budget}s) - {self.desc}")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded the {self.budget}s budget "
                f"({elapsed:.1f}s)")
        return False


def test_criterion_01_oracle_equivalence():
    with _criterion(1, 30, "colength/colon/saturate/intersect vs box enumeration, "
                           "1000 random ideals"):
        rng = random.Random(0xACCE01)
        rings = {1: AmbientRing.default(1), 2: R2, 3: R3}
        for _ in range(1000):
            ring = rings[rng.randint(1, 3)]
            I = random_ideal(rng, ring, max_exp=8, max_gens=5)
            J = random_ideal(rng, ring, max_exp=8, max_gens=4)
            # colength
            primary = random_primary_ideal(rng, ring, max_exp=8, extra_gens=2)
            assert primary.colength() == oracle_colength(primary)
            # colon
            quot = I.colon(J)
            pts = box_points(joint_box(I, J, quot))
            assert (membership(quot.gens, pts)
                    == oracle_colon_members(I, J, pts)).all()
            # saturate equals the colon fixpoint
            current = I
            while True:
                nxt = current.colon(J)
                if nxt == current:
                    break
                current = nxt
            assert I.saturate(J) == current
            # intersect
            meet = I & J
            pts = box_points(joint_box(I, J))
            expected = membership(I.gens, pts) & membership(J.gens, pts)
            assert (membership(meet.gens, pts) == expected).all()


def test_criterion_02_multiplicity_identity():
    with _criterion(2, 20, "d! covol(hull) = complete-intersection product; "
                           "e((x^3,xy,y^2)) = 5 with HS estimate within 5%"):
        rng = random.Random(0xACCE02)
        for _ in range(50):
            d = rng.randint(2, 3)
            ring = R2 if d == 2 else R3
            exps = [rng.randint(1, 9) for _ in range(d)]
            gens = []
            for j, e in enumerate(exps):
                g = [0] * d
                g[j] = e
                gens.append(tuple(g))
            diag = MonomialIdeal.from_gens(ring, gens)
            product = 1
            for e in exps:
                product *= e
            assert exact_multiplicity(diag) == product
        report = multiplicity(parse_ideal(R2, "x^3, x*y, y^2"), 64)
        assert report.e_exact == 5
        assert abs(report.e_numeric.point_estimate - 5) / 5 < Fraction(5, 100)


def test_criterion_03_volume_equals_multiplicity():
    with _criterion(3, 60, "volume = multiplicity within 2% at N=200 for a "
                           "valuation family and a power family"):
        val = ValuationSpec.make(R2, [((2, 1), 2)])
        report = volume_equals_multiplicity(val, 200)
        assert report.rel_gap < 0.02
        pw = PowerSpec(parse_ideal(R2, "x^3, x*y, y^2"))
        report = volume_equals_multiplicity(pw, 200)
        assert report.rel_gap < 0.02


def test_criterion_04_minkowski_for_families():
    with _criterion(4, 60, "family Minkowski: limits 1,1,3 within 2%, slack "
                           ">= -1e-9; 20 random valuation pairs"):
        F = PowerSpec(parse_ideal(R2, "x, y^2"))
        G = PowerSpec(parse_ideal(R2, "x^2, y"))
        report = minkowski_family_check(F, G, 100)
        for got, want in ((report.limit_left, 1), (report.limit_right, 1),
                          (report.limit_product, 3)):
            assert abs(got - want) / want < Fraction(2, 100)
        assert report.slack >= -1e-9
        assert report.holds
        # Random valuation-family pairs: their true limits are exactly the
        # covolumes of the defining regions, so the inequality is decided
        # exactly there; the sequence estimator must match those limits.
        from monolim import covol, minkowski_sum
        from monolim.roots import root_sum_at_least
        rng = random.Random(0xACCE04)
        for _ in range(20):
            def constraints():
                return [((Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3))),
                         Fraction(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 2))]
            cF, cG = constraints(), constraints()
            DF, DG = region(2, cF), region(2, cG)
            vF, vG = covol(DF), covol(DG)
            vS = covol(minkowski_sum(DF, DG))
            assert root_sum_at_least(vF, vG, vS, 2)[0]
            rep = minkowski_family_check(
                ValuationSpec.make(R2, cF),
                ValuationSpec.make(R2, cG), 48)
            assert rep.holds or rep.slack >= -0.02


def test_criterion_05_teissier_for_ideals():
    with _criterion(5, 30, "exact ideal Minkowski inequality on 200 random "
                           "primary pairs, d <= 3"):
        rng = random.Random(0xACCE05)
        for k in range(200):
            ring = R2 if k % 10 < 7 else R3
            I = random_primary_ideal(rng, ring, max_exp=8, extra_gens=2)
            J = random_primary_ideal(rng, ring, max_exp=8, extra_gens=2)
            assert teissier_check(I, J).holds


def test_criterion_06_sigma_counterexample():
    with _criterion(6, 5, "sigma family: exact normalized differences at the "
                          "jump points, strictly increasing"):
        fam = MaxPowerSpec(R2, "sigma")
        ms = [2 ** (2 ** n) - 1 for n in (2, 3, 4)]
        seq = length_sequence(fam, sorted(ms + [m + 1 for m in ms]))
        rows = {r.n: r.decrease for r in difference_profile(seq)}
        values = [rows[m] for m in ms]
        assert values[0] < values[1] < values[2], "divergence trend broken"
        # F(m) = (C(b_m+1, 2) - C(b_{m+1}+1, 2)) / m, the exact colengths of
        # m_R^b in d = 2, with (b_m, b_{m+1}) = (23, 20), (319, 288) and
        # (73727, 69632) at m = 15, 255, 65535.
        expected = ("22/5", "9424/255", "19568640/4369")
        mismatches = [
            f"F({m}) = {got} but the pinned value is {want}"
            for m, got, want in zip(ms, values, expected)
            if got != Fraction(want)
        ]
        assert not mismatches, "; ".join(mismatches)


def test_criterion_07_log_filtration_behavior():
    with _criterion(7, 30, "log family: limit 1/2 within 1% at N=1000, jump "
                           "profile near 2, elsewhere near 1, bound exact"):
        fam = MaxPowerSpec(R2, "log")
        seq = length_sequence(fam, 1001)
        est = estimate_limit(seq)
        assert abs(est.point_estimate - Fraction(1, 2)) / Fraction(1, 2) < Fraction(1, 100)
        rows = difference_profile(seq)
        jumps = {2 ** s - 1 for s in range(7, 10)}
        for row in rows:
            if not (100 <= row.n <= 1000):
                continue
            target = 2 if row.n in jumps else 1
            assert abs(row.increase - target) / target <= Fraction(10, 100), (
                f"profile at n={row.n}: {float(row.increase)}")
        bound = filtration_difference_bound(fam, 1000)
        assert bound.holds and bound.c == 2


def test_criterion_08_epsilon_multiplicity():
    with _criterion(8, 120, "epsilon of (x^2, xy) = 1 at N=400 (closed form "
                            "exact); module (x^2,xy)+R in R^2 gives 1 at k<=60"):
        report = epsilon_ideal(parse_ideal(R2, "x^2, x*y"), 400)
        assert abs(report.epsilon - 1) < Fraction(2, 100)
        for n, v in report.samples.entries:
            assert v == n * (n + 1) // 2
        E = MonomialModule.from_components(
            R2, [parse_ideal(R2, "x^2, x*y"), MonomialIdeal.unit(R2)])
        mod_report = epsilon_module(E, 60)
        assert abs(mod_report.epsilon - 1) < Fraction(5, 100)


def test_criterion_09_symbolic_multiplicity():
    with _criterion(9, 60, "generalized symbolic powers of (x^2, xy) along (x): "
                           "s = 1, limit 1 within 5% at N=50"):
        report = symbolic_multiplicity(parse_ideal(R2, "x^2, x*y"),
                                       parse_ideal(R2, "x"), 50)
        assert report.s == 1
        assert abs(report.estimate.point_estimate - 1) < Fraction(5, 100)


def test_criterion_10_okounkov_counting():
    with _criterion(10, 60, "counting limits: toy semigroup 2 = vol/ind, "
                            "sublattice 1 = 2/2, family body within 3% at N=200"):
        toy = SemigroupPredicate(1, 2, lambda a, i: a[0] <= 2 * i)
        report = semigroup_limit_check(enumerate_levels(toy, 200))
        assert report.expected == 2 and report.invariants.ind == 1
        assert report.rel_gap < 0.03
        even = SemigroupPredicate(1, 2,
                                  lambda a, i: a[0] % 2 == 0 and a[0] <= 2 * i)
        report = semigroup_limit_check(enumerate_levels(even, 200))
        assert report.expected == 1 and report.invariants.ind == 2
        assert report.rel_gap < 0.03
        fam = PowerSpec(parse_ideal(R2, "x, y"))
        pred = SemigroupPredicate.from_family(fam)
        report = semigroup_limit_check(enumerate_levels(pred, 200))
        assert report.volume == Fraction(3, 2)
        assert report.rel_gap < 0.03


def test_criterion_11_khovanskii_timorin():
    with _criterion(11, 30, "covolume Minkowski: worked pair (1,1,3), 200 "
                            "random cobounded pairs, equality on homotheties"):
        report = kt_check(region(2, [((2, 1), 2)]), region(2, [((1, 2), 2)]))
        assert (report.covol1, report.covol2, report.covol_sum) == (1, 1, 3)
        assert report.holds and not report.equality
        rng = random.Random(0xACCE11)
        for _ in range(200):
            def rand_region():
                return region(2, [((rng.randint(1, 5), rng.randint(1, 5)),
                                   Fraction(rng.randint(1, 9), rng.randint(1, 3)))
                                  for _ in range(rng.randint(1, 4))])
            assert kt_check(rand_region(), rand_region()).holds
        for _ in range(10):
            D = region(2, [((rng.randint(1, 4), rng.randint(1, 4)),
                            rng.randint(1, 6)) for _ in range(rng.randint(1, 3))])
            t = Fraction(rng.randint(1, 7), rng.randint(1, 4))
            rep = kt_check(D, scale_region(D, t))
            assert rep.holds and rep.equality


def test_criterion_12_quotient_growth_bound():
    with _criterion(12, 30, "dim_k(I/m^r I) <= (s+r)^(d-1) r on 100 random "
                            "instances with m^s inside I"):
        rng = random.Random(0xACCE12)
        from monolim import containment_order
        for _ in range(100):
            ring = R2 if rng.random() < 0.6 else R3
            I = random_primary_ideal(rng, ring, max_exp=6, extra_gens=2)
            s = containment_order(I) + rng.randint(0, 2)
            r = rng.randint(0, 4)
            report = monomial_quotient_bound(I, r, s)
            assert report.holds, (I.gens, r, s, report)
