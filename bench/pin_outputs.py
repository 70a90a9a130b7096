"""Write pins.json: sha256 of the CSV and JSON artifacts of every input variant.

    python3 bench/pin_outputs.py

Seeds choose among a finite set of variants per command (see workloads.py),
so pinning every variant reached by seeds 0..999 pins the outputs of every
seed.  Pins record the program's artifacts when the benchmark was defined;
regenerate them only when an output change is intended and explained.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import WORK, load_cli
from checks import PINS_FILE, Pins
from harness import Runner
from workloads import WORKLOADS, commands


def main() -> int:
    cli = load_cli()
    variants = {}
    for workload in WORKLOADS:
        for seed in range(1000):
            for cmd in commands(workload, seed):
                variants.setdefault(cmd.key, cmd)
    work = WORK / "pins"
    runner = Runner(cli, sorted(variants.values(), key=lambda c: c.key), work, Pins({}))
    try:
        result = runner.run_pass()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result.failures:
        print("\n".join(result.failures), file=sys.stderr)
        return 1
    PINS_FILE.write_text(json.dumps(runner.seen, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(runner.seen)} inputs in {PINS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
