"""Output checks that do not use the program's own length code.

``brute_lengths`` recounts member lengths l(R/I_n) by listing every exponent
in a box that holds all standard monomials, using only the family's
definition: sums of n generators for a power family, the weight inequalities
for a valuation family.  ``Pins`` holds the sha256 of every command's CSV and
JSON artifacts, as produced by the program when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations_with_replacement, product
from pathlib import Path

PINS_FILE = Path(__file__).with_name("pins.json")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pins:
    """Pinned artifact digests keyed by command line (see ``Command.key``)."""

    def __init__(self, table: dict[str, dict[str, str]]):
        self.table = table

    @classmethod
    def load(cls) -> "Pins":
        return cls(json.loads(PINS_FILE.read_text()))

    def mismatch(self, key: str, digests: dict[str, str]) -> str | None:
        """Why ``digests`` disagree with the pin, or None (also when unpinned)."""
        pinned = self.table.get(key)
        if pinned is None:
            return None
        bad = [s for s, d in digests.items() if pinned.get(s) != d]
        return f"artifact digest differs from pin: {', '.join(bad)}" if bad else None


def _dominated(a, gens) -> bool:
    return any(all(g <= c for g, c in zip(gen, a)) for gen in gens)


def _minimal(points):
    pts = sorted(set(points), key=sum)
    kept = []
    for p in pts:
        if not _dominated(p, kept):
            kept.append(p)
    return kept


def power_length(gens, n: int) -> int:
    """#{a : x^a not in I^n}, I generated by ``gens`` (must be primary)."""
    d = len(gens[0])
    sums = _minimal(tuple(map(sum, zip(*combo)))
                    for combo in combinations_with_replacement(gens, n))
    bounds = []
    for j in range(d):
        pure = [g[j] for g in sums if all(c == 0 for i, c in enumerate(g) if i != j)]
        bounds.append(min(pure))
    return sum(1 for a in product(*map(range, bounds)) if not _dominated(a, sums))


def valuation_length(constraints, n: int) -> int:
    """#{a : <w_j, a> < t_j * n for some j}, weights all positive."""
    d = len(constraints[0][0])
    bounds = [max(-(-t * n // w[i]) for w, t in constraints) for i in range(d)]
    return sum(1 for a in product(*map(range, bounds))
               if any(sum(wi * ai for wi, ai in zip(w, a)) < t * n
                      for w, t in constraints))


def brute_lengths(brute, ns) -> dict[int, int]:
    kind, data = brute
    count = power_length if kind == "power" else valuation_length
    return {n: count(list(data), n) for n in ns}


def csv_lengths(path: Path) -> dict[int, int]:
    """n -> length column of a ``limits`` (raw) or ``family eval`` CSV."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    out = {}
    for line in lines[1:]:
        if header[-1] == "length":
            # ``family eval``: the ideal column "(...)" holds commas.
            n, value = line.split(",", 1)[0], line.rsplit(",", 1)[1]
        else:
            cells = line.split(",")
            n, value = cells[0], cells[header.index("raw")]
        out[int(n)] = int(value)
    return out
