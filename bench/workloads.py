"""Seeded command lists for the three benchmark workloads.

Every workload is a fixed list of ``monolim`` command lines.  The seed picks,
for each command, one variant of its input: a permutation of the ring
variables, and for valuation families the order of the constraints (and for
d = 3 a swap of the two variables whose weight boxes are equal).  A variant
has the same d, number of generators, exponent multiset and N as the base
input, so a pass costs about the same under every seed.  Seed 0 is the base
input of every command: the ROADMAP baseline ideals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

WORKLOADS = ("staircase", "valuation", "geometry")

VARS = {2: ("x", "y"), 3: ("x", "y", "z")}


@dataclass(frozen=True)
class Command:
    """One program invocation and what the harness checks about it.

    ``argv`` omits ``--out`` and ``--cache-dir``; the runner adds them.
    ``cache`` is None, or "cold"/"warm" for two runs sharing one fresh cache
    directory.  ``brute`` names the family whose member lengths are
    recounted from first principles: ("power", gens) or ("valuation",
    constraints), with the sampled indices ``brute_ns``.
    """

    name: str
    argv: tuple[str, ...]
    cache: str | None = None
    brute: tuple | None = None
    brute_ns: tuple[int, ...] = ()

    @property
    def key(self) -> str:
        """Identifies the input; equal keys must give equal artifacts."""
        return " ".join(self.argv)


def _monomial(names, e) -> str:
    parts = [n if c == 1 else f"{n}^{c}" for n, c in zip(names, e) if c]
    return "*".join(parts) or "1"


def _ideal(names, gens) -> str:
    return ", ".join(_monomial(names, g) for g in gens)


def _permute(gens, perm):
    return [tuple(g[i] for i in perm) for g in gens]


def _valuation_spec(constraints) -> str:
    return "valuation(" + "; ".join(
        ",".join(map(str, w)) + f" >= {t}" for w, t in constraints) + ")"


def _region(halfspaces) -> str:
    return "; ".join(",".join(map(str, w)) + f" >= {t}" for w, t in halfspaces)


class _Draw:
    """Per-command variant choice; index 0 everywhere under seed 0."""

    def __init__(self, seed: int, workload: str):
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")

    def pick(self, options):
        options = list(options)
        return options[0] if self.seed == 0 else self.rng.choice(options)


def _perms(d: int):
    return list(permutations(range(d)))


def _sample_ns(draw: _Draw, lo: int, hi: int, k: int) -> tuple[int, ...]:
    pool = list(range(lo, hi + 1))
    if draw.seed == 0:
        return tuple(pool[:: max(1, len(pool) // k)][:k])
    return tuple(sorted(draw.rng.sample(pool, min(k, len(pool)))))


# Sizes: (full, tiny).  A full pass takes 2.5 to 5 s on one 2.1 GHz Xeon core.
_SIZES = {
    "power3_N": (20, 8),
    "eps_N": (10, 8),
    "sym_N": (8, 8),
    "big_e": (200, 20),
    "big_N": (8, 8),
    "power2_N": (300, 30),
    "val2_limits_N": (300, 30),
    "val2_diff_N": (80, 12),
    "val3_eval_N": (9, 3),
    "ok_power_N": (60, 10),
    "ok_val_N": (120, 12),
}


def commands(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The command list of ``workload`` under ``seed``."""
    size = {k: v[1] if tiny else v[0] for k, v in _SIZES.items()}
    draw = _Draw(seed, workload)
    if workload == "staircase":
        return _staircase(draw, size)
    if workload == "valuation":
        return _valuation_cmds(draw, size)
    if workload == "geometry":
        return _geometry(draw, size)
    raise ValueError(f"unknown workload {workload!r}")


def _staircase(draw: _Draw, size) -> list[Command]:
    v3, v2 = VARS[3], VARS[2]
    ring3 = ("--ring", "x,y,z")
    p = draw.pick(_perms(3))
    power3 = _permute([(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)], p)
    p = draw.pick(_perms(3))
    eps = _permute([(2, 0, 0), (1, 1, 0), (0, 1, 1)], p)
    p = draw.pick(_perms(3))
    sym = _permute([(1, 1, 0), (0, 1, 1), (1, 0, 1)], p)
    aux = _permute([(1, 0, 0), (0, 1, 0)], p)
    e = size["big_e"]
    big = [(e, 0, 0), (0, e, 0), (0, 0, e), (1, 1, 1)]
    p = draw.pick(_perms(2))
    power2 = _permute([(3, 0), (1, 1), (0, 2)], p)
    n3, n2 = size["power3_N"], size["power2_N"]
    return [
        Command("limits-d3-power", ("limits", *ring3, "--family",
                                    f"power({_ideal(v3, power3)})", "--N", str(n3)),
                brute=("power", tuple(power3)),
                brute_ns=_sample_ns(draw, 1, min(n3, 5), 3)),
        Command("epsilon-d3", ("epsilon", *ring3, "--ideal", _ideal(v3, eps),
                               "--N", str(size["eps_N"]))),
        Command("symbolic-d3", ("symbolic", *ring3, "--ideal", _ideal(v3, sym),
                                "--aux", _ideal(v3, aux), "--N", str(size["sym_N"]))),
        Command("limits-d3-large-exponents",
                ("limits", *ring3, "--family", f"power({_ideal(v3, big)})",
                 "--N", str(size["big_N"]))),
        Command("limits-d2-power", ("limits", "--family",
                                    f"power({_ideal(v2, power2)})", "--N", str(n2)),
                brute=("power", tuple(power2)),
                brute_ns=_sample_ns(draw, 1, min(n2, 20), 3)),
    ]


_VAL2 = [((2, 1), 2), ((1, 3), 1)]
_VAL3 = [((2, 1, 1), 2), ((1, 3, 1), 1)]


def _val2_variants():
    return [_VAL2, _VAL2[::-1]]


def _val3_variants():
    # Swapping y and z keeps every coordinate bound of the member box.
    swapped = [((w[0], w[2], w[1]), t) for w, t in _VAL3]
    return [_VAL3, _VAL3[::-1], swapped, swapped[::-1]]


def _valuation_cmds(draw: _Draw, size) -> list[Command]:
    val2 = draw.pick(_val2_variants())
    val2b = draw.pick(_val2_variants())
    val3 = draw.pick(_val3_variants())
    nl, nd, ne = size["val2_limits_N"], size["val2_diff_N"], size["val3_eval_N"]
    ev = ("family", "eval", "--ring", "x,y,z", "--family", _valuation_spec(val3),
          "--N", str(ne))
    brute3 = ("valuation", tuple(val3))
    ns3 = _sample_ns(draw, 1, ne, 3)
    return [
        Command("limits-d2-valuation", ("limits", "--family", _valuation_spec(val2),
                                        "--N", str(nl)),
                brute=("valuation", tuple(val2)),
                brute_ns=_sample_ns(draw, 1, min(nl, 40), 3)),
        Command("diff-d2-valuation", ("diff", "--family", _valuation_spec(val2b),
                                      "--N", str(nd))),
        Command("family-eval-d3-cold", ev, cache="cold", brute=brute3, brute_ns=ns3),
        Command("family-eval-d3-warm", ev, cache="warm", brute=brute3, brute_ns=ns3),
    ]


def _geometry(draw: _Draw, size) -> list[Command]:
    v3, v2 = VARS[3], VARS[2]
    p = draw.pick(_perms(2))
    power2 = _permute([(3, 0), (1, 1), (0, 2)], p)
    val2 = draw.pick(_val2_variants())
    p = draw.pick(_perms(3))
    kt1 = _permute([(7, 0, 0), (0, 6, 0), (0, 0, 5), (3, 2, 0), (0, 3, 2),
                    (2, 0, 3), (1, 1, 1)], p)
    kt2 = _permute([(5, 0, 0), (0, 7, 0), (0, 0, 6), (2, 3, 0), (0, 1, 4),
                    (3, 0, 2)], p)
    r1 = [((2, 1), 2), ((1, 3), 2)]
    r2 = [((1, 2), 2), ((3, 1), 3)]
    if draw.pick([False, True]):
        r1, r2 = ([(w[::-1], t) for w, t in r] for r in (r1, r2))
    if draw.pick([False, True]):
        r1, r2 = r2, r1
    return [
        Command("okounkov-d2-power", ("okounkov", "--family",
                                      f"power({_ideal(v2, power2)})",
                                      "--N", str(size["ok_power_N"]))),
        Command("okounkov-d2-valuation", ("okounkov", "--family", _valuation_spec(val2),
                                          "--N", str(size["ok_val_N"]))),
        Command("kt-d3-ideals", ("kt", "--ring", "x,y,z", "--ideal", _ideal(v3, kt1),
                                 "--ideal2", _ideal(v3, kt2))),
        Command("kt-d2-regions", ("kt", "--region", _region(r1),
                                  "--region2", _region(r2))),
    ]
