"""Command-line surface: computations in, CSV/JSON/SVG artifacts out.

Every subcommand is one row of ``COMMANDS``: its handler, its help line and
the flags it reads.  Its parser accepts exactly those flags, spelled out in
full, so a flag the command would ignore is a usage error.

A run builds one parser: the named command's own, or, for help and usage
errors before a command is named, the top-level one.  The layers load only
once a command is dispatched, all of them at once with the handlers in
``monolim.commands``, so ``--help`` and a usage error import none of them.

Exit codes: 0 pass, 1 an asserted check failed, 2 usage or config error,
3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import namedtuple
from pathlib import Path

from .errors import ConfigError, MonolimError, SemigroupError


# -- the command table ---------------------------------------------------------


Command = namedtuple("Command", "run help flags choice", defaults=(None,))
Command.__doc__ = """A subcommand: the name of its handler in ``monolim.commands``,
its help line, the flags it reads besides --config, --ring, --out and --svg,
and its positional choice if any."""


COMMANDS = {
    "family": Command("_cmd_family",
                      "evaluate family members (requires positional action 'eval')",
                      ("--family", "--N", "--cache-dir"), ("action", ("eval",))),
    "limits": Command("_cmd_limits", "length sequence and limit estimate",
                      ("--family", "--N", "--tol")),
    "diff": Command("_cmd_diff", "difference profile and filtration bound diagnostics",
                    ("--family", "--N")),
    "minkowski": Command("_cmd_minkowski", "Minkowski inequality for two families",
                         ("--family", "--family2", "--N")),
    "epsilon": Command("_cmd_epsilon",
                       "epsilon multiplicity of an ideal or monomial module",
                       ("--ideal", "--module", "--N")),
    "symbolic": Command("_cmd_symbolic", "generalized symbolic power multiplicity",
                        ("--ideal", "--aux", "--N")),
    "okounkov": Command("_cmd_okounkov", "semigroup enumeration and counting limit",
                        ("--family", "--N")),
    "kt": Command("_cmd_kt", "covolume Minkowski (reversed Brunn-Minkowski) check",
                  ("--region", "--region2", "--ideal", "--ideal2")),
    "counterexample": Command("_cmd_counterexample",
                              "prebuilt divergence/oscillation demonstrations",
                              ("--N",), ("which", ("sigma", "log"))),
}


@functools.cache
def _build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of command ``name``, or for None the top-level one.

    The top-level parser only prints the help and the usage errors met
    before a command is named: its subparsers read no flags.
    """
    if name is None:
        parser = argparse.ArgumentParser(
            prog="monolim",
            description="Asymptotic length and multiplicity limits for graded "
                        "families of monomial ideals (exact arithmetic).")
        sub = parser.add_subparsers(dest="command", required=True)
        for key, command in COMMANDS.items():
            sub.add_parser(key, help=command.help, add_help=False)
        return parser
    command = COMMANDS[name]
    p = argparse.ArgumentParser(prog=f"monolim {name}", allow_abbrev=False)
    if command.choice:
        p.add_argument(command.choice[0], choices=command.choice[1])
    p.add_argument("--config", type=Path)
    p.add_argument("--ring", help="comma-separated variables")
    for flag in command.flags:
        p.add_argument(flag)
    p.add_argument("--out")
    p.add_argument("--svg", action="store_true")
    return p


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        stray = []
        if not argv or argv[0] not in COMMANDS:
            # Help and usage errors exit here.  Past it a command follows
            # options the top level does not know: its parser reports them.
            name = _build_parser().parse_known_args(argv)[0].command
            i = argv.index(name)
            stray, argv = argv[:i], argv[i:]
        name = argv[0]
        parser = _build_parser(name)
        args, extras = parser.parse_known_args(argv[1:])
        if stray + extras:
            parser.error(f"unrecognized arguments: {' '.join(stray + extras)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # Every layer loads here, whatever the command: bench/tracer.py wraps
    # all of them after one pass of any command.
    from . import commands
    try:
        job = commands.Job(args)
        code, artifacts, summary = getattr(commands, COMMANDS[name].run)(job)
        prefix = job.out_prefix(name)
        commands.write_artifacts(prefix, artifacts)
        print(summary)
        print(f"artifacts: {prefix}.csv / {prefix}.json"
              + (f" / {prefix}.svg" if ".svg" in artifacts else ""))
        return code
    except ConfigError as exc:
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
