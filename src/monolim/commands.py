"""The subcommands' implementations and the job each one reads.

``monolim.cli`` parses the command line and imports this module, and with
it every layer, once a command is dispatched.  Each ``_cmd_<name>``
returns its exit code, its artifacts by file suffix and a summary line;
``write_artifacts`` writes them.  The SVG writer is imported only when
``--svg`` asks for a drawing.
"""

from __future__ import annotations

import os
import stat
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

from . import asymptotics as asy
from . import reportio as rio
from .convex import hull_region, kt_check, minkowski_sum
from .errors import ConfigError
from .families import FamilySpec, MaxPowerSpec, verify_filtration, verify_graded
from .lattice import INFINITE, AmbientRing, format_ideal, parse_ideal
from .semigroup import (
    SemigroupPredicate,
    enumerate_levels,
    semigroup_limit_check,
)

_REQUIRED = object()

# The positive numbers: parser, then the message for a value it rejects and
# for a value <= 0.
_NUMBERS = {
    "N": (int, "N must be an integer", "N must be >= 1"),
    "tol": (rio.parse_rational, "tolerance must be a rational number",
            "tolerance must be positive"),
}


class Job:
    """Merged configuration: config file values overridden by CLI flags."""

    def __init__(self, args):
        self.args = args
        self.tree = {}
        if args.config is not None:
            if not args.config.exists():
                raise ConfigError(f"config file not found: {args.config}")
            self.tree = rio.parse_config(args.config.read_text())

    def param(self, name: str, section: str = "params", key: str | None = None):
        """The ``--name`` flag if given (even 0 or empty), else the config's
        ``section: key`` (``params: name`` by default), else None."""
        value = getattr(self.args, name)
        if value is None:
            return self.tree.get(section, {}).get(key or name)
        return value

    def number(self, name: str, default=_REQUIRED):
        """The positive number ``name`` (N or tol), parsed alike from the
        flag's text and from the config; ``default`` when both are unset."""
        value = self.param(name)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing --{name}")
            return default
        parse, malformed, not_positive = _NUMBERS[name]
        try:
            number = parse(str(value))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{malformed}, got {value!r}") from None
        if number <= 0:
            raise ConfigError(not_positive)
        return number

    def ring(self) -> AmbientRing:
        value = self.param("ring", "ring", "vars")
        if value is None:
            return AmbientRing.default(2)
        return rio.ring_from_config(str(value))

    def family(self, which: str = "family") -> FamilySpec:
        text = self.param(which, which, "spec")
        if text is None:
            raise ConfigError(f"missing --{which}")
        return rio.parse_family_spec(self.ring(), str(text))

    def out_prefix(self, command: str) -> Path:
        value = self.param("out")
        return Path(value) if value else Path(f"monolim_{command}")

    def cache(self):
        value = self.param("cache_dir")
        if not value:
            return None
        try:
            return rio.ResultCache(value)
        except OSError as exc:
            raise ConfigError(f"cannot use the cache directory {value}: {exc}") from None


def _open_in_place(path: str, flags: int) -> int:
    """``open``'s flags without ``O_TRUNC``, and the mode ``open`` would
    give a new file (``os.open`` defaults to 0o777)."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _cut_where_written(fd: int) -> None:
    """Cut a regular file where the bytes written through ``fd`` end.  A
    device or a pipe (say ``/dev/null``) has no length to cut."""
    if stat.S_ISREG(os.fstat(fd).st_mode):
        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def write_artifacts(prefix: Path, artifacts: dict[str, str | Iterable[str]]) -> None:
    """Write each artifact to ``<prefix><suffix>``: a ``str`` at once, any
    other iterable of strings one chunk at a time as it is made, so a
    streamed artifact is never held whole.

    An existing file is written over in place and then cut where the new
    bytes end, so it keeps its inode, links and mode.  Opening it truncated
    to zero instead would, on ext4, make its close start a writeback of the
    new data.  The cut happens also when writing fails or a chunk raises,
    so a failed run leaves a short artifact, never one that ends in the
    old file's tail; only a process killed mid-write can leave that.  The
    rewrite is not crash-safe: nothing is synced, so after a power loss an
    artifact may hold old blocks.  An ``OSError``, such as from an output
    path under a regular file, becomes a ``ConfigError`` that names the
    prefix.
    """
    try:
        prefix.parent.mkdir(parents=True, exist_ok=True)
        for suffix, content in artifacts.items():
            with open(f"{prefix}{suffix}", "w", opener=_open_in_place) as fh:
                try:
                    fh.writelines((content,) if isinstance(content, str) else content)
                    fh.flush()
                finally:
                    _cut_where_written(fh.fileno())
    except OSError as exc:
        raise ConfigError(f"cannot write artifacts at {prefix}: {exc}") from None


def _sequence_artifacts(job: Job, seq, value_name: str, js: str, window,
                        title: str) -> dict:
    """The ``n, <value_name>, normalized`` CSV of ``seq`` and the JSON ``js``;
    with --svg also the normalized sequence, its fit ``window`` shaded."""
    d = seq.degree
    rows = [[n, v, rio.ratio_text(v, n ** d)] for n, v in seq.entries]
    artifacts = {".csv": rio.render_csv(["n", value_name, "normalized"], rows),
                 ".json": js}
    if job.args.svg:
        from .svg import sequence_svg
        artifacts[".svg"] = sequence_svg(seq.normalized(), window, title=title)
    return artifacts


# -- command implementations ---------------------------------------------------


def _cmd_family(job: Job) -> tuple[int, dict, str]:
    fam = job.family()
    N = job.number("N")
    rows = [[n, f"({text})", length if length != INFINITE else "INFINITE"]
            for n, (text, length) in enumerate(rio.member_rows(fam, N, job.cache()))]
    csv = rio.render_csv(["n", "ideal", "length"], rows)
    js = rio.render_json("family eval", {"family": fam.label(), "N": N},
                         {"rows": rows})
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg and fam.ring.d == 2:
        from .svg import staircase_svg
        member = fam.member_ideal(N)
        region = hull_region(member) if member.is_primary else None
        artifacts[".svg"] = staircase_svg(member, region)
    return 0, artifacts, f"family eval: {N + 1} members of {fam.label()}"


def _cmd_limits(job: Job) -> tuple[int, dict, str]:
    fam = job.family()
    N = job.number("N")
    tol = job.number("tol", Fraction(1, 100))
    seq = asy.length_sequence(fam, N)
    est = asy.estimate_limit(seq, tol)
    js = rio.render_json("limits", {"family": fam.label(), "N": N, "tol": tol},
                         {"estimate": est._asdict(), "degree": seq.degree})
    limit = f"{float(est.point_estimate):.6g}"
    artifacts = _sequence_artifacts(job, seq, "raw", js, est.window,
                                    f"limit ~ {limit}")
    return 0, artifacts, f"limits: point estimate {limit} ({est.verdict})"


def _cmd_diff(job: Job) -> tuple[int, dict, str]:
    fam = job.family()
    N = job.number("N")
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
        from .svg import sequence_svg
        pts = [(r.n, float(r.increase)) for r in profile]
        artifacts[".svg"] = sequence_svg(pts, title="normalized first differences")
    summary = f"diff: {len(profile)} rows; filtration={'yes' if filt.passed else 'no'}"
    return exit_code, artifacts, summary


def _cmd_minkowski(job: Job) -> tuple[int, dict, str]:
    F = job.family("family")
    G = job.family("family2")
    N = job.number("N")
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
        from .svg import sequence_svg
        artifacts[".svg"] = sequence_svg(
            report.product.normalized(),
            title=f"product family, limit ~ {float(report.limit_product):.6g}")
    summary = (f"minkowski: slack {report.slack:.3g} "
               f"{'PASS' if report.holds else 'FAIL'}")
    return (0 if report.holds else 1), artifacts, summary


def _cmd_epsilon(job: Job) -> tuple[int, dict, str]:
    ring = job.ring()
    N = job.number("N")
    module_text, ideal_text = job.param("module"), job.param("ideal")
    if module_text and ideal_text:
        raise ConfigError("epsilon takes --ideal or --module, not both")
    if module_text:
        module = rio.parse_module_spec(ring, str(module_text))
        report = asy.epsilon_module(module, N)
        subject = f"module({module_text})"
    else:
        if not ideal_text:
            raise ConfigError("epsilon needs --ideal or --module")
        report = asy.epsilon_ideal(parse_ideal(ring, str(ideal_text)), N)
        subject = f"ideal({ideal_text})"
    js = rio.render_json("epsilon", {"subject": subject, "N": N},
                         {"epsilon": report.epsilon,
                          "degree": report.degree,
                          "rank": report.rank,
                          "primary_flag": report.primary_flag,
                          "estimate": report.estimate._asdict()})
    epsilon = f"{float(report.epsilon):.6g}"
    artifacts = _sequence_artifacts(job, report.samples, "saturation_gap", js,
                                    report.estimate.window, f"epsilon ~ {epsilon}")
    return 0, artifacts, f"epsilon: {epsilon} ({report.estimate.verdict})"


def _cmd_symbolic(job: Job) -> tuple[int, dict, str]:
    ring = job.ring()
    N = job.number("N")
    ideal_text, aux_text = job.param("ideal"), job.param("aux")
    if not ideal_text or not aux_text:
        raise ConfigError("symbolic needs --ideal and --aux")
    I = parse_ideal(ring, str(ideal_text))
    J = parse_ideal(ring, str(aux_text))
    report = asy.symbolic_multiplicity(I, J, N)
    params = {"ideal": ideal_text, "aux": aux_text, "N": N}
    if report.zero_module:
        js = rio.render_json("symbolic", params, {"zero_module": True})
        return 0, {".json": js, ".csv": rio.render_csv(["n", "e"], [])}, \
            "symbolic: zero module"
    js = rio.render_json("symbolic", params,
                         {"s": report.s,
                          "estimate": report.estimate._asdict(),
                          "zero_module": False})
    limit = f"{float(report.estimate.point_estimate):.6g}"
    artifacts = _sequence_artifacts(job, report.samples, "module_multiplicity", js,
                                    report.estimate.window, f"limit ~ {limit}")
    return 0, artifacts, f"symbolic: s={report.s}, limit ~ {limit}"


def _cmd_okounkov(job: Job) -> tuple[int, dict, str]:
    fam = job.family()
    N = job.number("N")
    if N < 3:
        raise ConfigError("okounkov needs --N >= 3")
    pred = SemigroupPredicate.from_family(fam)
    levels = enumerate_levels(pred, N)
    report = semigroup_limit_check(levels)
    body = report.body
    csv = rio.render_csv_runs(
        ["level"] + [f"a{i + 1}" for i in range(levels.point_dim)],
        (((i,), runs) for i, runs in sorted(levels.levels.items())))
    js = rio.render_json(
        "okounkov", {"family": fam.label(), "N": N, "beta": pred.beta},
        {"invariants": report.invariants._asdict(),
         "volume": report.volume,
         "expected": report.expected,
         "rel_gap": report.rel_gap,
         "bounded_max": report.bounded_max,
         "body_vertices": [list(v) for v in body],
         "counts_tail": [[i, levels.counts[i]]
                         for i in sorted(levels.counts)][-8:]})
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg and levels.point_dim == 2 and len(body) >= 3:
        from .svg import polygon_svg
        artifacts[".svg"] = polygon_svg(
            body, title=f"body volume {float(report.volume):.6g}")
    summary = (f"okounkov: count/k^{report.invariants.q} -> "
               f"{float(report.expected):.6g} (gap {report.rel_gap:.3g})")
    return 0, artifacts, summary


def _region_or_ideal(job: Job, ring: AmbientRing, region: str, ideal: str,
                     missing: str):
    """The region of the ``region`` flag, or the hull of the ``ideal`` one."""
    region_text, ideal_text = job.param(region), job.param(ideal)
    if region_text and ideal_text:
        raise ConfigError(f"kt takes --{region} or --{ideal}, not both")
    if region_text:
        return rio.parse_region_spec(ring.d, str(region_text))
    if not ideal_text:
        raise ConfigError(missing)
    return hull_region(parse_ideal(ring, str(ideal_text)))


def _cmd_kt(job: Job) -> tuple[int, dict, str]:
    ring = job.ring()
    D1 = _region_or_ideal(job, ring, "region", "ideal",
                          "kt needs --region/--region2 or --ideal/--ideal2")
    D2 = _region_or_ideal(job, ring, "region2", "ideal2",
                          "kt needs a second region or ideal")
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
        from .svg import regions_svg
        artifacts[".svg"] = regions_svg([D1, D2, minkowski_sum(D1, D2)],
                                        ["D1", "D2", "D1+D2"])
    code = 0 if report.holds else 1
    return code, artifacts, \
        f"kt: {'PASS' if report.holds else 'FAIL'} (equality={report.equality})"


def _cmd_counterexample(job: Job) -> tuple[int, dict, str]:
    which = job.args.which
    fam = MaxPowerSpec(job.ring(), which)
    N = job.number("N", 64)
    S = asy.length_sequence(fam, N + 1)
    rows = [[r.n, fam.exponent(r.n), length, r.decrease if which == "sigma" else r.increase]
            for r, (_, length) in zip(asy.difference_profile(S), S.entries)]
    exit_code = 0
    if which == "sigma":
        index = "m"
        jumps, k = [], 2
        while (m := 2 ** (2 ** k) - 1) <= N:
            jumps.append([m, rows[m - 1][3]])
            k += 1
        results = {"jump_values": jumps}
        summary = f"counterexample sigma: {N} rows"
    else:
        index = "n"
        bound = asy.filtration_difference_bound(fam, N)
        results = {"difference_bound": {"c": bound.c, "holds": bound.holds,
                                        "max_ratio": bound.max_ratio}}
        if not bound.holds:
            exit_code = 1
        summary = f"counterexample log: bound {'holds' if bound.holds else 'FAILS'}"
    csv = rio.render_csv([index, f"b_{index}", "length", f"F_{index}"], rows)
    js = rio.render_json(f"counterexample {which}", {"N": N},
                         {"rows": rows[-8:], **results})
    artifacts = {".csv": csv, ".json": js}
    if job.args.svg:
        from .svg import sequence_svg
        pts = [(r[0], float(r[3])) for r in rows]
        artifacts[".svg"] = sequence_svg(pts, title=f"{which} profile")
    return exit_code, artifacts, summary
