"""Benchmark of the monolim CLI: one workload, one seed, one run.

    python3 bench/run.py --workload staircase --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --self-test

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  With ``--trace 0`` the run prints the end-to-end
metrics (set-up time, pass wall time, peak memory); with ``--trace 1`` it
prints the per-layer metrics of a traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md in this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from checks import Pins, power_length, valuation_length  # noqa: E402
from harness import Runner  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

SETUP_SAMPLES = 11
MIN_PASSES = 3

# Layers each workload is built to stress; the traced run must see spans there.
STRESSED = {
    "staircase": ("lattice",),
    "valuation": ("families", "lattice"),
    "geometry": ("semigroup", "convex", "reportio"),
}

_SETUP_CHILD = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import monolim.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = monolim.cli.run(["--help"])
print(repr(time.perf_counter() - t0), code)
"""

_PASS_CHILD = """
import json, resource, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import monolim.cli
from checks import Pins
from harness import Runner
from workloads import commands
cmds = commands(sys.argv[3], int(sys.argv[4]), tiny=sys.argv[6] == "1")
result = Runner(monolim.cli, cmds, Path(sys.argv[5]), Pins.load()).run_pass()
print(json.dumps({"rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "attempted": result.attempted, "failures": result.failures}))
"""


def _child(code: str, *args: str) -> str:
    """Run ``code`` in a fresh isolated interpreter; return its stdout."""
    proc = subprocess.run([sys.executable, "-I", "-c", code, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"child failed: {proc.stderr.strip()[-400:]}")
    return proc.stdout


def measure_setup(samples: int) -> list[float]:
    """Import plus parser build in fresh interpreters; the first warms caches."""
    times = []
    for i in range(samples + 1):
        seconds, code = _child(_SETUP_CHILD, str(SRC)).split()
        if code != "0":
            raise RuntimeError(f"monolim --help exited {code}")
        if i:
            times.append(float(seconds))
    return times


def measure_peak_rss(workload: str, seed: int, work: Path, tiny: bool = False) -> dict:
    """One pass in a fresh interpreter; its ru_maxrss and check results."""
    out = _child(_PASS_CHILD, str(SRC), str(BENCH), workload, str(seed),
                 str(work), "1" if tiny else "0")
    return json.loads(out.splitlines()[-1])


def traced_pass(runner: Runner, tracer: Tracer):
    """One pass with the tracer installed; the pass result and its summary."""
    tracer.reset()
    tracer.install()
    try:
        result = runner.run_pass()
    finally:
        tracer.uninstall()
    return result, tracer.summarize()


def timed_passes(runner: Runner, seconds: float, tracer: Tracer | None = None):
    """Passes until the next one would end after ``seconds``; at least MIN_PASSES.

    With a tracer, passes alternate untraced and traced (MIN_PASSES of each),
    so that both sides see the same drift in host speed.  Returns the
    untraced passes, the traced passes and one trace summary per traced pass.
    """
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            result, summary = traced_pass(runner, tracer)
            traced.append(result)
            summaries.append(summary)
        else:
            plain.append(runner.run_pass())
        now = time.perf_counter()
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if enough and now + (now - t0) > start + seconds:
            return plain, traced, summaries


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(s: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass (see README.md)."""
    calls, self_ns, counts = s["calls"], s["self_ns"], s["counts"]

    def sec(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    def spec_methods(method):
        return [n for n in self_ns if n.startswith("families.") and n.endswith(method)]

    cand, kept = counts.get("minimalize.cand_in", 0), counts.get("minimalize.kept", 0)
    gets, hits = calls.get("reportio.ResultCache.get", 0), counts.get("cache.hits", 0)
    m = {f"{layer}.self_s": s["layer_ns"][layer] / 1e9 for layer in LAYERS}
    m.update({
        "lattice.multiply.calls": calls.get("lattice.MonomialIdeal.multiply", 0),
        "lattice.multiply.self_s": sec("lattice.MonomialIdeal.multiply"),
        "lattice.from_gens.self_s": sec("lattice.MonomialIdeal.from_gens"),
        "lattice.minimalize.cand_in": cand,
        "lattice.minimalize.kept": kept,
        "lattice.minimalize.keep_ratio": _ratio(kept, cand),
        "lattice.colength.calls": calls.get("lattice.MonomialIdeal.colength", 0),
        "lattice.colength.self_s": sec("lattice.MonomialIdeal.colength"),
        "lattice.rel_length.calls": calls.get("lattice.rel_length", 0),
        "lattice.rel_length.self_s": sec("lattice.rel_length"),
        "lattice.saturate.self_s": sec("lattice.MonomialIdeal.saturate"),
        "lattice.colon.self_s": sec("lattice.MonomialIdeal.colon"),
        "lattice.intersect.self_s": sec("lattice.MonomialIdeal.intersect"),
        "lattice.issubset.calls": calls.get("lattice.MonomialIdeal.issubset", 0),
        "lattice.issubset.self_s": sec("lattice.MonomialIdeal.issubset"),
        "lattice.containment_order.self_s": sec("lattice.containment_order"),
        "families.length.calls": calls.get("families.GradedFamily.length", 0),
        "families.length.self_s": sec(*spec_methods(".length")),
        "families.verify.self_s": sec("families.verify_graded", "families.verify_filtration"),
        "families.member.self_s": sec(*spec_methods(".member")),
        "families.member.requests": s["member_requests"],
        "families.member.computed": s["member_computed"],
        "families.member.compute_ratio": _ratio(s["member_computed"], s["member_requests"]),
        "families.member.growth": s["member_growth"],
        "asymptotics.estimate_limit.self_s": sec("asymptotics.estimate_limit"),
        "convex.hull_region.calls": calls.get("convex.hull_region", 0),
        "convex.hull_region.self_s": sec("convex.hull_region"),
        "convex.hull.facets": counts.get("hull.facets", 0),
        "convex.minkowski_sum.self_s": sec("convex.minkowski_sum"),
        "convex.covol.self_s": sec("convex.covol"),
        "semigroup.enumerate_levels.self_s": sec("semigroup.enumerate_levels"),
        "semigroup.points": counts.get("points", 0),
        "semigroup.points_retained": counts.get("points_retained", 0),
        "semigroup.lattice_invariants.self_s": sec("semigroup.lattice_invariants"),
        "semigroup.okounkov_body.self_s": sec("semigroup.okounkov_body"),
        "semigroup.convex_hull_2d.self_s": sec("semigroup.convex_hull_2d"),
        "semigroup.limit_check.self_s": sec("semigroup.semigroup_limit_check"),
        "reportio.render_csv.self_s": sec("reportio.render_csv"),
        "reportio.render_json.self_s": sec("reportio.render_json"),
        "reportio.bytes_out": counts.get("bytes_out", 0),
        "reportio.cache.get.calls": gets,
        "reportio.cache.hits": hits,
        "reportio.cache.hit_ratio": _ratio(hits, gets),
        "reportio.cache.get.self_s": sec("reportio.ResultCache.get"),
        "reportio.cache.put.self_s": sec("reportio.ResultCache.put"),
        "trace.spans": s["spans"],
    })
    return m


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_shares(layer_ns: dict[str, int]) -> str:
    """Each layer's share of traced self time, largest first."""
    total = sum(layer_ns.values()) or 1
    ranked = sorted(layer_ns.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{layer} {100 * ns / total:.1f}%" for layer, ns in ranked)


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmds = commands(workload, seed)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"meta: workload={workload} seed={seed} trace={int(trace)} "
          f"git={git_sha()} python={sys.version.split()[0]} "
          f"nproc={len(os.sched_getaffinity(0))} seconds={seconds}")
    for cmd in cmds:
        print(f"command {cmd.name}: monolim {cmd.key}")
    try:
        runner = Runner(cli, cmds, work, Pins.load())
        if trace:
            return _traced_run(runner, workload, seed, seconds)
        return _plain_run(runner, workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _plain_run(runner: Runner, workload, seed, seconds, work: Path) -> dict:
    setup = measure_setup(SETUP_SAMPLES)
    passes, _, _ = timed_passes(runner, seconds)
    rss = measure_peak_rss(workload, seed, work / "rss")
    failures = [f for p in passes for f in p.failures] + rss["failures"]
    failures += runner.brute_check()
    attempted = sum(p.attempted for p in passes) + rss["attempted"]
    walls = [p.seconds for p in passes]
    q1, med, q3 = quartiles(walls)
    s_q1, s_med, s_q3 = quartiles(setup)
    values = {"setup_s": s_med, "wall_s": med, "peak_rss_mib": rss["rss_kib"] / 1024}
    print(f"wall_s: median {med:.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s, "
          f"max {max(walls):.4f} s over {len(walls)} passes")
    print(f"setup_s: median {s_med:.4f} s, q1 {s_q1:.4f} s, q3 {s_q3:.4f} s "
          f"over {len(setup)} fresh interpreters")
    print(f"peak_rss_mib: {values['peak_rss_mib']:.2f} MiB (one pass in a fresh interpreter)")
    return _result(values, _units("end_to_end"), attempted, failures)


def _traced_run(runner: Runner, workload, seed, seconds) -> dict:
    tracer = Tracer()
    plain, traced, summaries = timed_passes(runner, seconds, tracer)
    failures = [f for p in plain + traced for f in p.failures]
    attempted = sum(p.attempted for p in plain + traced)
    last = summaries[-1]
    for layer in STRESSED[workload]:
        if not any(n.startswith(f"{layer}.") for n in last["calls"]):
            failures.append(f"trace: no spans in layer {layer}")
    per_pass = [per_layer(s) for s in summaries]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    plain_med = statistics.median(p.seconds for p in plain)
    traced_med = statistics.median(p.seconds for p in traced)
    values["trace.overhead_ratio"] = _ratio(traced_med, plain_med) - 1 if plain_med else 0.0
    print(f"layer share {workload}: {layer_shares(last['layer_ns'])}")
    print(f"trace: {len(traced)} traced passes (median {traced_med:.4f} s), "
          f"{len(plain)} untraced (median {plain_med:.4f} s), "
          f"{last['spans']} spans per pass, "
          f"{last['counts'].get('hook_errors', 0)} counter hooks failed")
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{workload}-seed{seed}.json").write_text(json.dumps(tracer.dump()))
    return _result(values, _units("per_layer"), attempted, failures)


def _result(values: dict, units: dict, attempted: int, failures: list[str]) -> dict:
    for f in failures:
        print(f"FAILED {f}")
    failed = min(len(failures), attempted)
    print(f"fail_ratio: {_ratio(failed, attempted)} ratio ({failed} of {attempted} commands)")
    for name, value in values.items():
        print(f"metric {name} = {value} {units.get(name, '')}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}


def self_test(cli) -> int:
    """Every workload once at a tiny size, untraced then traced, all checks on."""
    problems = []
    if power_length([(3, 0), (1, 1), (0, 2)], 1) != 4:
        problems.append("box count of (x^3, xy, y^2) is not 4")
    if valuation_length([((1, 1), 1)], 2) != 3:
        problems.append("box count of the degree-2 valuation ideal is not 3")
    want = set(_units("per_layer")) - {"trace.overhead_ratio"}
    work = WORK / f"selftest-{os.getpid()}"
    try:
        for workload in WORKLOADS:
            for seed in (0, 5):
                cmds = commands(workload, seed, tiny=True)
                runner = Runner(cli, cmds, work / f"{workload}-{seed}", Pins.load())
                first = runner.run_pass()
                second, summary = traced_pass(runner, Tracer())
                found = runner.brute_check() + first.failures + second.failures
                if set(per_layer(summary)) != want:
                    found.append("per-layer metric names differ from BENCHMARK.json")
                for layer in STRESSED[workload]:
                    if not summary["layer_ns"][layer]:
                        found.append(f"no spans in layer {layer}")
                print(f"self-test {workload} seed {seed}: "
                      f"{'ok' if not found else '; '.join(found)}")
                problems += found
        rss = measure_peak_rss("geometry", 1, work / "rss", tiny=True)
        problems += rss["failures"]
        setup = measure_setup(1)
        print(f"self-test children: peak rss {rss['rss_kib'] / 1024:.1f} MiB, "
              f"setup {setup[0]:.3f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def load_cli():
    """The ``monolim.cli`` module of this checkout's ``src/``, never another copy."""
    if not (SRC / "monolim" / "cli.py").is_file():
        raise FileNotFoundError(f"program source not found at {SRC / 'monolim'}")
    sys.path.insert(0, str(SRC))
    import monolim.cli
    if Path(monolim.cli.__file__).resolve().parent != (SRC / "monolim").resolve():
        raise ImportError(f"imported monolim from {monolim.cli.__file__}")
    return monolim.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        cli = load_cli()
        if args.self_test:
            return self_test(cli)
        result = run_workload(cli, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
