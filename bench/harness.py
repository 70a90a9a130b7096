"""Runs a workload's command list in-process through ``monolim.cli.run``.

One pass runs every command once, one after another, in this process: a
closed loop with a single client.  Each command's wall time is taken around
the ``run(argv)`` call alone; the output checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from checks import Pins, brute_lengths, csv_lengths, sha256_file
from workloads import Command

ARTIFACTS = ("csv", "json")


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failures: list[str]


class Runner:
    """Runs passes of one command list and checks every artifact.

    ``seen`` maps each command key to the digests of its first run; any
    later run of the same key (another pass, the warm cache run, a traced
    pass) must reproduce them byte for byte.  ``cli`` is the module, so a
    traced pass reaches the rebound ``run``.
    """

    def __init__(self, cli, commands: list[Command], work: Path, pins: Pins):
        self.cli = cli
        self.commands = commands
        self.work = work
        self.pins = pins
        self.seen: dict[str, dict[str, str]] = {}
        self.passes = 0

    def run_pass(self) -> PassResult:
        cache_dir = self.work / f"cache-{self.passes}"
        self.passes += 1
        total = 0.0
        failures: list[str] = []
        for cmd in self.commands:
            prefix = self.work / "out" / cmd.name
            argv = [*cmd.argv, "--out", str(prefix)]
            if cmd.cache:
                argv += ["--cache-dir", str(cache_dir)]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                crash = None
                t0 = time.perf_counter()
                try:
                    code = self.cli.run(argv)
                except Exception:  # a crash fails this command, not the run
                    code, crash = None, traceback.format_exc(limit=-2)
                total += time.perf_counter() - t0
            if code != 0:
                problem = crash or f"exit code {code}: {sink.getvalue().strip()[-200:]}"
            else:
                problem = self._check(cmd, prefix)
            if problem:
                failures.append(f"{cmd.name}: {problem}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        return PassResult(total, len(self.commands), failures)

    def _check(self, cmd: Command, prefix: Path) -> str | None:
        try:
            got = {s: sha256_file(Path(f"{prefix}.{s}")) for s in ARTIFACTS}
        except OSError as exc:
            return f"missing artifact: {exc}"
        first = self.seen.setdefault(cmd.key, got)
        if first != got:
            return "artifacts differ from an earlier run of the same input"
        return self.pins.mismatch(cmd.key, got)

    def brute_check(self) -> list[str]:
        """Recount sampled member lengths of the last pass's artifacts."""
        failures = []
        for cmd in self.commands:
            if cmd.brute is None:
                continue
            try:
                printed = csv_lengths(self.work / "out" / f"{cmd.name}.csv")
            except (OSError, ValueError, IndexError) as exc:
                failures.append(f"{cmd.name}: unreadable CSV: {exc}")
                continue
            bad = [f"n={n} printed {printed.get(n)}, counted {want}"
                   for n, want in brute_lengths(cmd.brute, cmd.brute_ns).items()
                   if printed.get(n) != want]
            if bad:
                failures.append(f"{cmd.name}: length differs from the box count: "
                                + "; ".join(bad))
        return failures
