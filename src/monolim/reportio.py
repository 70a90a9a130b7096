"""Configuration ingestion, text syntax for specs, and artifact emission.

The config format is a flat tree: ``section:`` headers at column zero with
``key = value`` lines beneath; a file whose first non-blank character is
``{`` is read as JSON with the same section/key structure.  CSV artifacts are
UTF-8 with a header row and rationals printed ``p/q``; JSON artifacts carry a
``schema_version`` field and render rationals as strings.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import gcd
from pathlib import Path

from . import __version__
from .errors import ConfigError
from .families import (
    FamilySpec,
    MaxPowerSpec,
    PowerSpec,
    ProductSpec,
    SaturationSpec,
    SymbolicSpec,
    TableSpec,
    ValuationSpec,
)
from .lattice import INFINITE, AmbientRing, format_ideal, parse_ideal

SCHEMA_VERSION = 1


# -- value formatting ---------------------------------------------------------


def format_rational(x) -> str:
    """Rationals as p/q, integers plain."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def ratio_text(p: int, q: int) -> str:
    """``format_rational(Fraction(p, q))`` for integers p and q >= 1, made
    with one gcd and no ``Fraction``."""
    g = gcd(p, q)
    if g == q:
        return str(p // q)
    return f"{p // g}/{q // g}"


def json_ready(value):
    """Recursively convert rationals and tuples for JSON emission."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, bool) or isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, float):
        return round(value, 12)
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    return str(value)


def _csv_cell(cell) -> str:
    """Integers plain, rationals p/q, floats to 12 significant digits."""
    if type(cell) is int:
        return str(cell)
    if type(cell) is str:
        return cell
    if isinstance(cell, Fraction):
        return format_rational(cell)
    if isinstance(cell, float):
        return f"{cell:.12g}"
    return str(cell)


def render_csv(header: list[str], rows: Iterable[Sequence]) -> str:
    """Header line, then one line per row; ``rows`` is iterated once."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


#: Rows per chunk of :func:`render_csv_runs`, which bounds its memory.
_CHUNK_ROWS = 4096


def render_csv_runs(header: list[str],
                    groups: Iterable[tuple[tuple, Iterable[tuple]]]) -> Iterator[str]:
    """:func:`render_csv` of the rows ``(*lead, *prefix, t)`` for lo <= t <= hi,
    for each group ``(lead, runs)`` and each of its runs ``(prefix, lo, hi)``;
    every cell is a natural number.  The text comes as the header line, then
    chunks of at most ``_CHUNK_ROWS`` whole rows, each made when it is asked
    for.  The strings of 0..max hi, and the text of each distinct prefix,
    are made once and shared by all runs."""
    yield ",".join(header) + "\n"
    digits: list[str] = []
    prefix_text: dict[tuple, str] = {}
    parts: list[str] = []
    room = _CHUNK_ROWS
    for lead, runs in groups:
        lead_head = "".join(map("{},".format, lead))
        for prefix, lo, hi in runs:
            if hi >= len(digits):
                digits.extend(map(str, range(len(digits), hi + 1)))
            text = prefix_text.get(prefix)
            if text is None:
                text = prefix_text[prefix] = "".join(map("{},".format, prefix))
            head = lead_head + text
            while hi - lo + 1 >= room:  # the run fills the chunk
                parts.append(head + ("\n" + head).join(digits[lo:lo + room]))
                yield "\n".join(parts) + "\n"
                lo += room
                parts, room = [], _CHUNK_ROWS
            if lo <= hi:
                parts.append(head + ("\n" + head).join(digits[lo:hi + 1]))
                room -= hi - lo + 1
    if parts:
        yield "\n".join(parts) + "\n"


def render_json(command: str, params: dict, results: dict) -> str:
    import json  # loaded at the first render, so start-up and --help skip it
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "monolim",
        "command": command,
        "params": json_ready(params),
        "results": json_ready(results),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- config files -------------------------------------------------------------


def parse_config(text: str) -> dict:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        import json
        try:
            doc = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an over-long int
            raise ConfigError(f"bad JSON config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("JSON config must be an object")
        return doc
    tree: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not line.startswith((" ", "\t")) and line.endswith(":"):
            section = line[:-1].strip()
            tree.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        tree[section][key] = value
    return tree


def ring_from_config(value: str) -> AmbientRing:
    names = tuple(v.strip() for v in value.split(",") if v.strip())
    if not names:
        raise ConfigError("empty ring variable list")
    return AmbientRing(len(names), names)


# -- family spec text syntax ---------------------------------------------------


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


#: Largest exponent part a rational text may carry, as ``int()`` limits digits.
EXPONENT_LIMIT = 4300


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, refusing with ``ValueError`` an exponent part
    (``1e5``) whose magnitude is above ``EXPONENT_LIMIT``: ``Fraction``
    builds 10**exponent, so its time grows with the exponent itself."""
    _, e, exponent = text.upper().partition("E")
    if e and abs(int(exponent)) > EXPONENT_LIMIT:
        raise ValueError(f"exponent part above {EXPONENT_LIMIT}")
    return Fraction(text)


def _constraint_number(text: str, part: str) -> Fraction:
    """:func:`parse_rational` of one number of the valuation constraint
    ``part``; a zero denominator is reported with the number and its constraint."""
    try:
        return parse_rational(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r} of valuation "
                         f"constraint {part.strip()!r}") from None


def parse_family_spec(ring: AmbientRing, text: str) -> FamilySpec:
    """Parse specs like ``power(x^2, x*y)`` or ``valuation(2,1 >= 2)``."""
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ConfigError(f"bad family spec {text!r}")
    head, body = text.split("(", 1)
    head = head.strip().lower()
    body = body[:-1]
    try:
        if head == "power":
            return PowerSpec(parse_ideal(ring, body))
        if head == "maxpower":
            kind = body.strip().lower()
            if kind in ("sigma", "log"):
                return MaxPowerSpec(ring, kind)
            if kind.startswith("table:"):
                exps = tuple(int(v) for v in kind[len("table:"):].split(",") if v.strip())
                return MaxPowerSpec(ring, "table", exps)
            raise ConfigError(f"unknown maxpower kind {kind!r}")
        if head == "valuation":
            constraints = []
            for part in _split_top(body, ";"):
                if ">=" not in part:
                    raise ConfigError(f"valuation constraint needs '>=': {part!r}")
                lhs, rhs = part.split(">=", 1)
                lhs = lhs.strip().removeprefix("(").removesuffix(")")
                weights = tuple(_constraint_number(w, part) for w in lhs.split(","))
                constraints.append((weights, _constraint_number(rhs, part)))
            return ValuationSpec.make(ring, constraints)
        if head == "symbolic":
            first, second = _split_top(body, ";")
            return SymbolicSpec(parse_ideal(ring, first), parse_ideal(ring, second))
        if head == "saturation":
            return SaturationSpec(parse_ideal(ring, body))
        if head == "product":
            first, second = _split_top(body, ";")
            return ProductSpec(parse_family_spec(ring, first),
                               parse_family_spec(ring, second))
        if head == "table":
            ideals = tuple(parse_ideal(ring, part.strip())
                           for part in body.split("|"))
            return TableSpec(ideals)
    except Exception as exc:
        if type(exc) is ConfigError:  # this parser's own, or a factor's: final
            raise
        raise ConfigError(f"bad family spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown family constructor {head!r}")


def parse_region_spec(dim: int, text: str):
    """Halfspace list like ``2,1 >= 2; 1,2 >= 2``."""
    from .convex import region
    halfspaces = []
    for part in text.split(";"):
        if ">=" not in part:
            raise ConfigError(f"region halfspace needs '>=': {part!r}")
        lhs, rhs = part.split(">=", 1)
        try:
            normal = tuple(parse_rational(w) for w in lhs.split(","))
            offset = parse_rational(rhs)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad number in region halfspace {part!r}") from exc
        if len(normal) != dim:
            raise ConfigError("halfspace normal has wrong length")
        halfspaces.append((normal, offset))
    return region(dim, halfspaces)


def parse_module_spec(ring: AmbientRing, text: str):
    """Free-module components separated by ``|``: ``x^2, x*y | 1``."""
    from .lattice import MonomialModule
    comps = [parse_ideal(ring, part.strip()) for part in text.split("|")]
    return MonomialModule.from_components(ring, comps)


# -- result cache --------------------------------------------------------------


@functools.cache
def source_digest() -> str:
    """sha256 over the names and bytes of the package's ``*.py`` files."""
    import hashlib  # only --cache-dir needs OpenSSL; a plain run skips loading it
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class ResultCache:
    """Content-addressed store with one entry per family: (package version,
    source digest, schema, key) -> {n: (canonical ideal text, length)}, the
    length an int or "INFINITE".

    Hits must be bit-identical to recomputation; the source digest keeps a
    changed kernel from reading entries written by the old one.  An entry
    is written whole to a temporary file and renamed into place, so readers
    see the old entry or the new one, never a torn one; of two writers of
    one key the last wins, and the other's new rows are later misses.  An
    entry that cannot be read or decoded is a miss, and so is a row of the
    wrong shape or type.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        import hashlib
        text = (f"monolim {__version__}|source {source_digest()}"
                f"|schema {SCHEMA_VERSION}|{key}")
        return self.root / f"{hashlib.sha256(text.encode()).hexdigest()}.json"

    def get(self, key: str) -> dict | None:
        """{n: (ideal text, length)} of the rows stored under ``key`` that
        are well formed; None when there is no readable entry."""
        import json
        try:
            entry = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        rows = {}
        for n, row in entry.items():
            if not (n.isdecimal() and n.isascii() and isinstance(row, list)
                    and len(row) == 2):
                continue
            text, length = row
            if length == "INFINITE":
                length = INFINITE
            elif type(length) is not int or length < 0:
                continue
            if type(text) is str:
                rows[int(n)] = text, length
        return rows

    def put(self, key: str, rows: dict) -> None:
        """Store ``rows``, {n: (ideal text, length)}, as the whole entry."""
        import json
        payload = {str(n): [text, "INFINITE" if length == INFINITE else length]
                   for n, (text, length) in rows.items()}
        path = self._path(key)
        tmp = path.with_suffix(f".{os.getpid()}.{id(self):x}.tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def member_rows(family, N: int, cache: ResultCache | None) -> list[tuple]:
    """(ideal text, length) of I_n for n = 0..N.  With a cache, its one entry
    for the family is read once, only the missing n are computed, and if
    any were, the union is written back once."""
    key = ",".join(family.ring.var_names) + "|" + family.label()  # labels omit the ring
    stored = {}
    if cache is not None:
        stored = cache.get(key) or {}
    missing = [n for n in range(N + 1) if n not in stored]
    for n in missing:
        stored[n] = format_ideal(family.member_ideal(n)), family.length(n)
    if cache is not None and missing:
        cache.put(key, stored)
    return [stored[n] for n in range(N + 1)]
