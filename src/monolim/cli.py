"""Command-line surface: computations in, CSV/JSON/SVG artifacts out.

Exit codes: 0 pass, 1 an asserted check failed, 2 usage or config error,
3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import asymptotics as asy
from . import reportio as rio
from .convex import hull_region, kt_check
from .errors import (
    ConfigError,
    EstimateError,
    FamilyRangeError,
    GeometryError,
    MonolimError,
    NotCoboundedError,
    NotPrimaryError,
    SemigroupError,
)
from .families import GradedFamily, build_family, verify_filtration, verify_graded
from .lattice import INFINITE, AmbientRing, format_ideal, parse_ideal
from .semigroup import (
    SemigroupPredicate,
    enumerate_levels,
    require_body_dimension,
    semigroup_limit_check,
)
from .svg import normalized_points, polygon_svg, regions_svg, sequence_svg, staircase_svg

_COMMANDS = ("family", "limits", "diff", "minkowski", "epsilon", "symbolic",
             "okounkov", "kt", "counterexample")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monolim",
        description="Asymptotic length and multiplicity limits for graded "
                    "families of monomial ideals (exact arithmetic).")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "family": "evaluate family members (requires positional action 'eval')",
        "limits": "length sequence and limit estimate",
        "diff": "difference profile and filtration bound diagnostics",
        "minkowski": "Minkowski inequality for two families",
        "epsilon": "epsilon multiplicity of an ideal or monomial module",
        "symbolic": "generalized symbolic power multiplicity",
        "okounkov": "semigroup enumeration and counting limit",
        "kt": "covolume Minkowski (reversed Brunn-Minkowski) check",
        "counterexample": "prebuilt divergence/oscillation demonstrations",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        if name == "family":
            p.add_argument("action", choices=["eval"])
        if name == "counterexample":
            p.add_argument("which", choices=["sigma", "log"])
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--ring", default=None, help="comma-separated variables")
        p.add_argument("--family", dest="family", default=None)
        p.add_argument("--family2", dest="family2", default=None)
        p.add_argument("--ideal", default=None)
        p.add_argument("--ideal2", default=None)
        p.add_argument("--aux", default=None)
        p.add_argument("--module", dest="module", default=None)
        p.add_argument("--region", default=None)
        p.add_argument("--region2", default=None)
        p.add_argument("--N", dest="N", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--c", dest="c", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--svg", action="store_true")
        p.add_argument("--cache-dir", dest="cache_dir", default=None)
    return parser


class Job:
    """Merged configuration: config file values overridden by CLI flags."""

    def __init__(self, args):
        self.args = args
        self.tree = {}
        if args.config is not None:
            if not args.config.exists():
                raise ConfigError(f"config file not found: {args.config}")
            self.tree = rio.parse_config(args.config.read_text())

    def _lookup(self, section: str, key: str):
        return self.tree.get(section, {}).get(key)

    def param(self, name: str, section: str = "params", key: str | None = None):
        """The ``--name`` flag if given (even 0 or empty), else the config's
        ``section: key`` (``params: name`` by default), else None."""
        value = getattr(self.args, name, None)
        return self._lookup(section, key or name) if value is None else value

    def ring(self) -> AmbientRing:
        value = self.param("ring", "ring", "vars")
        if value is None:
            return AmbientRing.default(2)
        return rio.ring_from_config(str(value))

    def family(self, which: str = "family") -> GradedFamily:
        text = self.param(which, which, "spec")
        if text is None:
            raise ConfigError(f"missing --{which}")
        return build_family(rio.parse_family_spec(self.ring(), str(text)))

    def n_value(self, default=None) -> int:
        value = self.param("N")
        if value is None:
            value = default
        if value is None:
            raise ConfigError("missing --N")
        try:
            n = int(str(value))
        except ValueError:
            raise ConfigError(f"N must be an integer, got {value!r}") from None
        if n < 1:
            raise ConfigError("N must be >= 1")
        return n

    def tol(self) -> Fraction:
        value = self.param("tol")
        if value is None:
            return Fraction(1, 100)
        try:
            tol = Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"tolerance must be a rational number, got {value!r}") from None
        if tol <= 0:
            raise ConfigError("tolerance must be positive")
        return tol

    def out_prefix(self, command: str) -> Path:
        value = self.param("out")
        return Path(value) if value else Path(f"monolim_{command}")

    def cache(self):
        value = self.param("cache_dir")
        return rio.ResultCache(value) if value else None


def _write_artifacts(prefix: Path, artifacts: dict[str, str]) -> None:
    prefix.parent.mkdir(parents=True, exist_ok=True)
    for suffix, content in artifacts.items():
        Path(f"{prefix}{suffix}").write_text(content)


def _estimate_dict(est) -> dict:
    return {
        "point_estimate": est.point_estimate,
        "tail_min": est.tail_min,
        "tail_max": est.tail_max,
        "verdict": est.verdict,
        "window": list(est.window),
    }


# -- command implementations ---------------------------------------------------


def _cmd_family(job: Job) -> tuple[int, dict, str]:
    fam = job.family()
    N = job.n_value()
    cache = job.cache()
    rows = []
    for n in range(N + 1):
        text, length = rio.cached_member_row(fam, n, cache)
        rows.append([n, f"({text})", length if length != INFINITE else "INFINITE"])
    csv = rio.render_csv(["n", "ideal", "length"], rows)
    js = rio.render_json("family eval", {"family": fam.label(), "N": N},
                         {"rows": [[r[0], r[1], r[2]] for r in rows]})
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg and fam.ring.d == 2:
        member = fam.member_ideal(N)
        region = hull_region(member) if member.is_primary else None
        artifacts[".svg"] = staircase_svg(member, region)
    return 0, artifacts, f"family eval: {N + 1} members of {fam.label()}"


def _cmd_limits(job: Job) -> tuple[int, dict, str]:
    fam = job.family()
    N = job.n_value()
    seq = asy.length_sequence(fam, N, saturation_mode=False)
    est = asy.estimate_limit(seq, job.tol())
    rows = [[n, v, Fraction(v, n ** seq.degree)] for n, v in seq.entries]
    csv = rio.render_csv(["n", "raw", "normalized"], rows)
    js = rio.render_json("limits", {"family": fam.label(), "N": N,
                                    "tol": job.tol()},
                         {"estimate": _estimate_dict(est),
                          "degree": seq.degree})
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg:
        artifacts[".svg"] = sequence_svg(normalized_points(seq), est.window,
                                         title=f"limit ~ {float(est.point_estimate):.6g}")
    summary = (f"limits: point estimate {float(est.point_estimate):.6g} "
               f"({est.verdict})")
    return 0, artifacts, summary


def _cmd_diff(job: Job) -> tuple[int, dict, str]:
    fam = job.family()
    N = job.n_value()
    seq = asy.length_sequence(fam, N + 1)
    profile = asy.difference_profile(seq)
    rows = [[r.n, r.increase, r.decrease] for r in profile]
    csv = rio.render_csv(["n", "increase", "decrease"], rows)
    results: dict = {"profile_tail": [[r.n, r.increase] for r in profile[-8:]]}
    exit_code = 0
    graded = verify_graded(fam, min(N, 24))
    results["graded"] = {"passed": graded.passed,
                         "first_violation": graded.first_violation}
    filt = verify_filtration(fam, N)
    results["filtration"] = {"passed": filt.passed,
                             "first_violation": filt.first_violation}
    if filt.passed:
        bound = asy.filtration_difference_bound(fam, N)
        results["difference_bound"] = {
            "c": bound.c, "holds": bound.holds,
            "first_violation": bound.first_violation,
            "max_ratio": bound.max_ratio,
        }
        if not bound.holds:
            exit_code = 1
    js = rio.render_json("diff", {"family": fam.label(), "N": N}, results)
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg:
        pts = [(r.n, float(r.increase)) for r in profile]
        artifacts[".svg"] = sequence_svg(pts, title="normalized first differences")
    summary = f"diff: {len(profile)} rows; filtration={'yes' if filt.passed else 'no'}"
    return exit_code, artifacts, summary


def _cmd_minkowski(job: Job) -> tuple[int, dict, str]:
    F = job.family("family")
    G = job.family("family2")
    N = job.n_value()
    report = asy.minkowski_family_check(F, G, N)
    rows = [[format_ideal(F.member_ideal(1)), format_ideal(G.member_ideal(1)),
             report.limit_left, report.limit_right, report.limit_product,
             report.slack, "PASS" if report.holds else "FAIL"]]
    csv = rio.render_csv(["family1_I1", "family2_I1", "limit1", "limit2",
                          "limit_product", "slack", "verdict"], rows)
    js = rio.render_json("minkowski", {"family": F.label(), "family2": G.label(),
                                       "N": N},
                         {"limit_left": report.limit_left,
                          "limit_right": report.limit_right,
                          "limit_product": report.limit_product,
                          "holds": report.holds,
                          "equality": report.equality,
                          "slack": report.slack})
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg:
        from .families import ProductSpec, build_family
        prod = build_family(ProductSpec(F.spec, G.spec))
        seq = asy.length_sequence(prod, N)
        artifacts[".svg"] = sequence_svg(
            normalized_points(seq),
            title=f"product family, limit ~ {float(report.limit_product):.6g}")
    summary = (f"minkowski: slack {report.slack:.3g} "
               f"{'PASS' if report.holds else 'FAIL'}")
    return (0 if report.holds else 1), artifacts, summary


def _cmd_epsilon(job: Job) -> tuple[int, dict, str]:
    ring = job.ring()
    N = job.n_value()
    module_text = job.param("module")
    if module_text:
        module = rio.parse_module_spec(ring, str(module_text))
        report = asy.epsilon_module(module, N)
        subject = f"module({module_text})"
    else:
        ideal_text = job.param("ideal")
        if not ideal_text:
            raise ConfigError("epsilon needs --ideal or --module")
        report = asy.epsilon_ideal(parse_ideal(ring, str(ideal_text)), N)
        subject = f"ideal({ideal_text})"
    rows = [[n, v, Fraction(v, n ** report.degree)]
            for n, v in report.samples.entries]
    csv = rio.render_csv(["n", "saturation_gap", "normalized"], rows)
    js = rio.render_json("epsilon", {"subject": subject, "N": N},
                         {"epsilon": report.epsilon,
                          "degree": report.degree,
                          "rank": report.rank,
                          "primary_flag": report.primary_flag,
                          "estimate": _estimate_dict(report.estimate)})
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg:
        artifacts[".svg"] = sequence_svg(normalized_points(report.samples),
                                         report.estimate.window,
                                         title=f"epsilon ~ {float(report.epsilon):.6g}")
    return 0, artifacts, f"epsilon: {float(report.epsilon):.6g} ({report.estimate.verdict})"


def _cmd_symbolic(job: Job) -> tuple[int, dict, str]:
    ring = job.ring()
    N = job.n_value()
    ideal_text, aux_text = job.param("ideal"), job.param("aux")
    if not ideal_text or not aux_text:
        raise ConfigError("symbolic needs --ideal and --aux")
    I = parse_ideal(ring, str(ideal_text))
    J = parse_ideal(ring, str(aux_text))
    report = asy.symbolic_multiplicity(I, J, N)
    if report.zero_module:
        js = rio.render_json("symbolic", {"ideal": ideal_text, "aux": aux_text,
                                          "N": N},
                             {"zero_module": True})
        return 0, {".json": js, ".csv": rio.render_csv(["n", "e"], [])}, \
            "symbolic: zero module"
    rows = [[n, v, Fraction(v, n ** report.samples.degree)]
            for n, v in report.samples.entries]
    csv = rio.render_csv(["n", "module_multiplicity", "normalized"], rows)
    js = rio.render_json("symbolic", {"ideal": ideal_text, "aux": aux_text,
                                      "N": N},
                         {"s": report.s,
                          "estimate": _estimate_dict(report.estimate),
                          "zero_module": False})
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg:
        artifacts[".svg"] = sequence_svg(
            normalized_points(report.samples), report.estimate.window,
            title=f"limit ~ {float(report.estimate.point_estimate):.6g}")
    summary = (f"symbolic: s={report.s}, limit ~ "
               f"{float(report.estimate.point_estimate):.6g}")
    return 0, artifacts, summary


def _okounkov_constant(job: Job):
    """The ``--c`` constant (or ``params: c``), None when unset."""
    value = job.param("c")
    if value is None:
        return None
    try:
        c = int(str(value))
    except ValueError:
        raise ConfigError(f"--c must be an integer, got {value!r}") from None
    if c < 1:
        raise ConfigError("--c must be >= 1")
    return c


def _cmd_okounkov(job: Job) -> tuple[int, dict, str]:
    fam = job.family()
    N = job.n_value()
    if N < 3:
        raise ConfigError("okounkov needs --N >= 3")
    pred = SemigroupPredicate.from_family(fam, c=_okounkov_constant(job))
    require_body_dimension(pred.point_dim)
    levels = enumerate_levels(pred, N)
    report = semigroup_limit_check(levels)
    body = report.body
    runs = (((i, *prefix), lo, hi) for i, pts in sorted(levels.levels.items())
            for prefix, lo, hi in pts.runs)
    csv = rio.render_csv_runs(
        ["level"] + [f"a{i + 1}" for i in range(levels.point_dim)], runs)
    js = rio.render_json(
        "okounkov", {"family": fam.label(), "N": N, "beta": pred.beta},
        {"invariants": {"m": report.invariants.m, "ind": report.invariants.ind,
                        "q": report.invariants.q,
                        "truncated": report.invariants.truncated},
         "volume": report.volume,
         "expected": report.expected,
         "rel_gap": report.rel_gap,
         "bounded_max": report.bounded_max,
         "body_vertices": [list(v) for v in body],
         "counts_tail": [[i, levels.counts[i]]
                         for i in sorted(levels.counts)][-8:]})
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg and levels.point_dim == 2 and len(body) >= 3:
        artifacts[".svg"] = polygon_svg(
            body, title=f"body volume {float(report.volume):.6g}")
    summary = (f"okounkov: count/k^{report.invariants.q} -> "
               f"{float(report.expected):.6g} (gap {report.rel_gap:.3g})")
    return 0, artifacts, summary


def _cmd_kt(job: Job) -> tuple[int, dict, str]:
    ring = job.ring()
    region_text = job.param("region")
    if region_text:
        D1 = rio.parse_region_spec(ring.d, str(region_text))
    else:
        ideal_text = job.param("ideal")
        if not ideal_text:
            raise ConfigError("kt needs --region/--region2 or --ideal/--ideal2")
        D1 = hull_region(parse_ideal(ring, str(ideal_text)))
    region2_text = job.param("region2")
    if region2_text:
        D2 = rio.parse_region_spec(ring.d, str(region2_text))
    else:
        ideal2_text = job.param("ideal2")
        if not ideal2_text:
            raise ConfigError("kt needs a second region or ideal")
        D2 = hull_region(parse_ideal(ring, str(ideal2_text)))
    report = kt_check(D1, D2)
    rows = [[report.covol1, report.covol2, report.covol_sum,
             "PASS" if report.holds else "FAIL",
             "yes" if report.equality else "no"]]
    csv = rio.render_csv(["covol1", "covol2", "covol_sum", "verdict", "equality"],
                         rows)
    def hs_list(D):
        return [[list(n), b] for n, b in D.halfspaces]

    js = rio.render_json("kt", {"dim": report.dim},
                         {"covol1": report.covol1, "covol2": report.covol2,
                          "covol_sum": report.covol_sum,
                          "holds": report.holds, "equality": report.equality,
                          "region1": hs_list(D1), "region2": hs_list(D2)})
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg and report.dim == 2:
        from .convex import minkowski_sum
        artifacts[".svg"] = regions_svg([D1, D2, minkowski_sum(D1, D2)],
                                        ["D1", "D2", "D1+D2"])
    code = 0 if report.holds else 1
    return code, artifacts, \
        f"kt: {'PASS' if report.holds else 'FAIL'} (equality={report.equality})"


def _cmd_counterexample(job: Job) -> tuple[int, dict, str]:
    which = job.args.which
    ring = job.ring()
    fam = build_family(rio.parse_family_spec(ring, f"maxpower({which})"))
    N = job.n_value(default=64)
    spec = fam.spec
    d = ring.d
    rows = []
    exit_code = 0
    for n in range(1, N + 1):
        b = spec.exponent(n)
        length = fam.length(n)
        delta = fam.length(n + 1) - length
        profile = Fraction(-delta if which == "sigma" else delta, n ** (d - 1))
        rows.append([n, b, length, profile])
    if which == "sigma":
        csv = rio.render_csv(["m", "b_m", "length", "F_m"], rows)
        jumps = []
        k = 2
        while 2 ** (2 ** k) - 1 <= N:
            m = 2 ** (2 ** k) - 1
            jumps.append([m, rows[m - 1][3]])
            k += 1
        js = rio.render_json("counterexample sigma", {"N": N},
                             {"rows": [[r[0], r[1], r[2], r[3]] for r in rows[-8:]],
                              "jump_values": jumps})
        summary = f"counterexample sigma: {N} rows"
    else:
        bound = asy.filtration_difference_bound(fam, N)
        csv = rio.render_csv(["n", "b_n", "length", "F_n"], rows)
        js = rio.render_json("counterexample log", {"N": N},
                             {"rows": [[r[0], r[1], r[2], r[3]] for r in rows[-8:]],
                              "difference_bound": {
                                  "c": bound.c, "holds": bound.holds,
                                  "max_ratio": bound.max_ratio}})
        if not bound.holds:
            exit_code = 1
        summary = f"counterexample log: bound {'holds' if bound.holds else 'FAILS'}"
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg:
        pts = [(r[0], float(r[3])) for r in rows]
        artifacts[".svg"] = sequence_svg(pts, title=f"{which} profile")
    return exit_code, artifacts, summary


_DISPATCH = {
    "family": _cmd_family,
    "limits": _cmd_limits,
    "diff": _cmd_diff,
    "minkowski": _cmd_minkowski,
    "epsilon": _cmd_epsilon,
    "symbolic": _cmd_symbolic,
    "okounkov": _cmd_okounkov,
    "kt": _cmd_kt,
    "counterexample": _cmd_counterexample,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        job = Job(args)
        code, artifacts, summary = _DISPATCH[args.command](job)
        prefix = job.out_prefix(args.command)
        _write_artifacts(prefix, artifacts)
        print(summary)
        print(f"artifacts: {prefix}.csv / {prefix}.json"
              + (f" / {prefix}.svg" if ".svg" in artifacts else ""))
        return code
    except (ConfigError, FamilyRangeError, EstimateError, GeometryError,
            NotCoboundedError, NotPrimaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemigroupError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except MonolimError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
