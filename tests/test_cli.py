"""CLI surface: artifact emission, golden stability, cache identity, exit codes."""

import argparse
import errno
import functools
import hashlib
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import oracle_estimate_limit, oracle_family_points, timed
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monolim import asymptotics, cli, commands, exact_multiplicity, families, reportio, semigroup
from monolim.cli import run
from monolim.errors import ConfigError
from monolim.reportio import (
    ResultCache,
    format_rational,
    parse_config,
    parse_family_spec,
    parse_module_spec,
    parse_region_spec,
    ratio_text,
    render_csv,
    ring_from_config,
)
from monolim.lattice import INFINITE, AmbientRing, MonomialIdeal, format_ideal, parse_ideal
from monolim.families import ProductSpec, ValuationSpec
from monolim.semigroup import SemigroupPredicate


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    code = run(list(argv) + ["--out", str(out)])
    return code, out


def test_format_rational():
    assert format_rational(Fraction(22, 5)) == "22/5"
    assert format_rational(Fraction(6, 2)) == "3"
    assert format_rational(7) == "7"


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
@example(0, 7)
@example(-6, 4)
@example(-12, 4)
@example(5, 1)
def test_ratio_text_matches_format_rational(p, q):
    assert ratio_text(p, q) == format_rational(Fraction(p, q))


@pytest.mark.parametrize("argv, d", [
    (("limits", "--family", "power(x^2, y^3)", "--N", "32"), 2),
    (("limits", "--family", "valuation(3,3 >= 1)", "--N", "48"), 2),
    (("epsilon", "--ideal", "x^2, x*y", "--N", "40"), 2),
    (("epsilon", "--module", "x^2, x*y | 1", "--N", "30"), 3),
    (("symbolic", "--ideal", "x^2, x*y", "--aux", "x", "--N", "24"), 1),
])
def test_cli_normalized_column_is_the_exact_ratio(tmp_path, argv, d):
    code, out = run_cli(tmp_path, *argv)
    assert code == 0
    lines = Path(f"{out}.csv").read_text().splitlines()
    assert lines[0].endswith(",normalized") and len(lines) > 8
    for line in lines[1:]:
        n, v, normalized = line.split(",")
        assert normalized == format_rational(Fraction(int(v), int(n) ** d))


def test_cli_minkowski_limits_are_the_fraction_fits(tmp_path):
    code, out = run_cli(tmp_path, "minkowski", "--family", "power(x, y^2)",
                        "--family2", "power(x^2, y)", "--N", "48")
    assert code == 0
    R = AmbientRing.default(2)
    F, G = parse_family_spec(R, "power(x, y^2)"), parse_family_spec(R, "power(x^2, y)")
    fits = [format_rational(oracle_estimate_limit(asymptotics.length_sequence(H, 48))
                            .point_estimate) for H in (F, G, ProductSpec(F, G))]
    # counted from the end: the ideal cells hold unquoted commas
    assert Path(f"{out}.csv").read_text().splitlines()[1].split(",")[-5:-2] == fits


def test_render_csv_rationals():
    text = render_csv(["a", "b"], [[1, Fraction(1, 2)], [2, Fraction(4, 2)]])
    assert text == "a,b\n1,1/2\n2,2\n"


def test_render_csv_cell_types():
    text = render_csv(["c"] * 7, [[-3, Fraction(-7, 3), 0.1 + 0.2, 2.0, True,
                                   "PASS", None]])
    assert text == "c,c,c,c,c,c,c\n-3,-7/3,0.3,2,True,PASS,None\n"


_CHUNK = reportio._CHUNK_ROWS


@st.composite
def _run_groups(draw):
    """(header, groups) for a point dimension p of 1 to 3: groups of one level
    each, whose runs have p - 1 column coordinates; some runs are longer
    than a chunk."""
    p = draw(st.integers(1, 3))
    his = st.one_of(st.integers(0, 12), st.integers(0, 3 * _CHUNK))
    run = st.tuples(st.tuples(*[st.integers(0, 9)] * (p - 1)), his, st.integers(0, 12)) \
        .map(lambda r: (r[0], max(r[1] - r[2], 0), r[1]))
    groups = draw(st.lists(st.tuples(st.tuples(st.integers(1, 99)),
                                     st.lists(run, max_size=3)), max_size=3))
    return ["level"] + [f"a{i + 1}" for i in range(p)], groups


@settings(max_examples=60, deadline=None)
@given(_run_groups())
@example((["level", "a1"], []))  # no runs: the header line only
@example((["level", "a1", "a2"], [((1,), [((0,), 2, 2), ((1,), 0, 0)])]))  # single points
@example((["level", "a1", "a2"], [((1,), [((0,), 0, 3)]), ((2,), [((0,), 1, 50)]),
                                  ((3,), [((1,), 7, 900)])]))  # digits grow mid-render
@example((["level", "a1", "a2", "a3"],  # crosses the chunk boundary three times
          [((4,), [((0, 1), 0, _CHUNK - 2), ((1, 0), 0, 2 * _CHUNK)]),
           ((5,), [((2, 2), 3, _CHUNK + 5)])]))
def test_render_csv_runs_chunks_join_to_the_rows(case):
    header, groups = case
    rows = [(*lead, *prefix, t) for lead, runs in groups
            for prefix, lo, hi in runs for t in range(lo, hi + 1)]
    chunks = list(reportio.render_csv_runs(header, groups))
    assert "".join(chunks) == render_csv(header, rows)
    assert chunks[0] == ",".join(header) + "\n"
    # every chunk but the last holds exactly _CHUNK whole rows
    sizes = [chunk.count("\n") for chunk in chunks[1:]]
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert sizes == [_CHUNK] * (len(rows) // _CHUNK) + ([len(rows) % _CHUNK]
                                                        if len(rows) % _CHUNK else [])


def test_parse_config_tree():
    cfg = parse_config("""
# job
ring:
  vars = x, y
family:
  spec = power(x^2, x*y)
params:
  N = 12
""")
    assert cfg["ring"]["vars"] == "x, y"
    assert cfg["family"]["spec"] == "power(x^2, x*y)"
    assert cfg["params"]["N"] == "12"


def test_parse_config_json():
    cfg = parse_config('{"ring": {"vars": "x, y"}, "params": {"N": 4}}')
    assert cfg["params"]["N"] == 4


def test_parse_family_spec_variants():
    ring = AmbientRing.default(2)
    assert parse_family_spec(ring, "maxpower(sigma)").kind == "sigma"
    assert parse_family_spec(ring, "maxpower(table:2,4,6)").table == (2, 4, 6)
    spec = parse_family_spec(ring, "valuation(2,1 >= 2; 1,3 >= 1)")
    assert isinstance(spec, ValuationSpec) and len(spec.constraints) == 2
    spec = parse_family_spec(ring, "product(power(x, y); maxpower(log))")
    assert isinstance(spec, ProductSpec)
    spec = parse_family_spec(ring, "table(1 | x | x^2, y)")
    assert len(spec.ideals) == 3
    spec = parse_family_spec(ring, "symbolic(x^2, x*y; x)")
    assert format_ideal(spec.aux) == "x"


def test_parse_module_spec():
    ring = AmbientRing.default(2)
    module = parse_module_spec(ring, "x^2, x*y | 1")
    assert module.free_rank == 2 and module.rank == 2


def test_parse_region_spec():
    D = parse_region_spec(2, "2,1 >= 2; 1,2 >= 2")
    assert len(D.halfspaces) == 2


def test_cli_region_with_a_bad_number_exits_2(tmp_path, capsys):
    for text in ("1,1 >= 1/0", "1,1 >= abc", "abc,1 >= 1", "1/0,1 >= 1"):
        code, _ = run_cli(tmp_path, "kt", "--region", text)
        assert code == 2
        assert f"bad number in region halfspace {text!r}" in capsys.readouterr().err


def test_parse_family_spec_rejections():
    ring = AmbientRing.default(2)
    for bad in ("power", "unknown(x)", "maxpower(cubic)",
                "valuation(1,1)", "power(q^2)"):
        try:
            parse_family_spec(ring, bad)
        except ConfigError:
            continue
        raise AssertionError(f"{bad!r} should be rejected")


# Text built from the specs' own tokens reaches past each parser's first check.
_SPEC_TOKENS = ("x", "y", "z", "0", "1", "2", "-1", "1/2", "1/0", "3.5", "e", "E",
                "^", "*", ",", ";", "|", " ", ">=", "(", ")", "power(", "maxpower(",
                "table:", "valuation(", "symbolic(", "saturation(", "product(", "table(",
                "{", "}", "[", "]", '"', ":", "=", "\n", "params:\n  N = ")
_SPEC_TEXT = st.lists(st.sampled_from(_SPEC_TOKENS), max_size=16).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), _SPEC_TEXT))
@example("x^" + "9" * 5000)  # past int()'s digit limit
@example("-1,1 >= 1")  # a negative normal, refused by the region builder
@example("valuation(1,1 >= 1e10000000)")  # 10**exponent would take seconds
def test_text_parsers_parse_or_raise_a_config_error(text):
    ring = AmbientRing.default(2)
    for parse in (functools.partial(parse_ideal, ring),
                  functools.partial(parse_family_spec, ring),
                  functools.partial(parse_region_spec, 2),
                  functools.partial(parse_module_spec, ring),
                  parse_config, ring_from_config):
        try:
            parse(text)
        except ConfigError:
            pass


def test_rational_text_refuses_a_huge_exponent_part():
    assert reportio.parse_rational("1e-3") == Fraction(1, 1000)
    assert reportio.parse_rational(" 0.01 ") == Fraction(1, 100)
    assert reportio.parse_rational("2.5E+1") == 25
    assert reportio.parse_rational("1e4300") == 10 ** 4300
    for text in ("1e4301", "1e-10000000", "1E+10000000", "1e" + "9" * 5000):
        with pytest.raises(ValueError):
            timed(lambda: reportio.parse_rational(text))


def test_cli_rational_text_with_a_huge_exponent_part_exits_2(tmp_path, capsys):
    huge = "1e10000000"
    config = tmp_path / "job.conf"
    config.write_text(f"params:\n  tol = {huge}\n")
    for argv, message in (
            (["kt", "--region", f"1,1 >= {huge}", "--region2", "1,2 >= 2"],
             f"bad number in region halfspace '1,1 >= {huge}'"),
            (["kt", "--region", "1,1 >= 1", "--region2", f"{huge},2 >= 2"],
             f"bad number in region halfspace '{huge},2 >= 2'"),
            (["limits", "--family", f"valuation(1,1 >= {huge})", "--N", "8"],
             f"bad family spec 'valuation(1,1 >= {huge})'"),
            (["limits", "--family", "power(x, y)", "--N", "8", "--tol", huge],
             f"tolerance must be a rational number, got '{huge}'"),
            (["limits", "--family", "power(x, y)", "--N", "8", "--config", str(config)],
             f"tolerance must be a rational number, got '{huge}'")):
        code, out = timed(lambda: run_cli(tmp_path, *argv))
        assert code == 2, argv
        assert f"error: {message}" in capsys.readouterr().err
        assert not Path(f"{out}.json").exists()
    code, _ = run_cli(tmp_path, "limits", "--family", "valuation(1,1 >= 2e-1)",
                      "--N", "8", "--tol", "1e-3")
    assert code == 0


# Random command lines draw their flag values over the ring's variables from
# small token pools; about one token in ten is a mistake (a foreign or
# malformed monomial, a negative weight, a zero denominator).
def _ideal_text(names):
    good = [*names, *(f"{v}^2" for v in names), "*".join(names), "1"]
    monomial = st.sampled_from(good * 3 + ["0", "x^", "q"])
    return st.lists(monomial, min_size=1, max_size=3).map(", ".join)


def _region_text(d):
    entry = st.sampled_from(("0", "1", "2", "1/2", "1e-1") * 2 + ("-1",))
    halfspace = st.tuples(
        st.lists(entry, min_size=d, max_size=d).map(",".join),
        st.sampled_from(("0", "1", "2", "3/2") * 2 + ("1/0",)))
    return st.lists(halfspace.map(" >= ".join), min_size=1, max_size=2).map("; ".join)


def _flag_values(names):
    ideal, region = _ideal_text(names), _region_text(len(names))
    spec = st.one_of(
        ideal.map("power({})".format), ideal.map("saturation({})".format),
        st.tuples(ideal, ideal).map("symbolic({0[0]}; {0[1]})".format),
        region.map("valuation({})".format),
        st.sampled_from(("maxpower(sigma)", "maxpower(log)", "maxpower(table:1,2,3)",
                         "product(power(x, y); maxpower(log))", "nonsense(x)")))
    return {"--family": spec, "--family2": spec, "--ideal": ideal, "--ideal2": ideal,
            "--aux": ideal, "--region": region, "--region2": region,
            "--module": st.lists(ideal, min_size=1, max_size=2).map(" | ".join),
            "--tol": st.sampled_from(("1/100", "1e-3", "1/2") * 3 + ("0", "abc")),
            "--N": st.integers(1, 10).map(str)}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_random_command_lines_exit_0_1_or_2(tmp_path, data):
    name = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
    command = cli.COMMANDS[name]
    argv = [name]
    if command.choice:
        argv.append(data.draw(st.sampled_from(command.choice[1])))
    names = data.draw(st.sampled_from((("x", "y"),) * 2 + (("x",), ("x", "y", "z"))))
    if names != ("x", "y"):
        argv += ["--ring", ",".join(names)]
    values = _flag_values(names)
    for flag in command.flags:
        if data.draw(st.sampled_from((True, True, True, False))):
            argv += [flag, str(tmp_path / "cache") if flag == "--cache-dir"
                     else data.draw(values[flag])]
    if data.draw(st.booleans()):
        argv.append("--svg")
    assert run(argv + ["--out", str(tmp_path / "out")]) in (0, 1, 2), argv


def test_cli_counterexample_sigma(tmp_path):
    code, out = run_cli(tmp_path, "counterexample", "sigma", "--N", "20")
    assert code == 0
    lines = Path(f"{out}.csv").read_text().splitlines()
    assert lines[0] == "m,b_m,length,F_m"
    row15 = lines[15].split(",")
    assert row15[0] == "15" and row15[3] == "22/5"
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["results"]["jump_values"] == [[15, "22/5"]]


def test_cli_counterexample_log(tmp_path):
    code, out = run_cli(tmp_path, "counterexample", "log", "--N", "40")
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["difference_bound"]["holds"] is True
    assert doc["results"]["difference_bound"]["c"] == 2


def test_cli_limits_and_svg(tmp_path):
    code, out = run_cli(tmp_path, "limits", "--family", "power(x^2, y^3)",
                        "--N", "32", "--svg")
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["estimate"]["point_estimate"] == "3"
    assert doc["results"]["estimate"]["verdict"] == "CONVERGED"
    svg = Path(f"{out}.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_limits_golden_bytes(tmp_path):
    _, out1 = run_cli(tmp_path / "a", "limits", "--family", "power(x, y)",
                      "--N", "12")
    _, out2 = run_cli(tmp_path / "b", "limits", "--family", "power(x, y)",
                      "--N", "12")
    assert Path(f"{out1}.csv").read_bytes() == Path(f"{out2}.csv").read_bytes()
    assert Path(f"{out1}.json").read_bytes() == Path(f"{out2}.json").read_bytes()
    expected_csv = "n,raw,normalized\n" + "".join(
        f"{n},{n * (n + 1) // 2},{format_rational(Fraction(n + 1, 2 * n))}\n"
        for n in range(1, 13))
    assert Path(f"{out1}.csv").read_text() == expected_csv


# Two runs to one prefix whose second run writes shorter artifacts.
_REWRITES = {
    "limits": (["limits", "--family", "power(x^2, y^3)", "--N", "40"],
               ["limits", "--family", "power(x^2, y^3)", "--N", "8"]),
    "okounkov": (["okounkov", "--family", "valuation(2,1 >= 2; 1,3 >= 1)", "--N", "40"],
                 ["okounkov", "--family", "valuation(2,1 >= 2; 1,3 >= 1)", "--N", "10"]),
    "kt-svg": (["kt", "--region", "3,1 >= 3; 1,1 >= 2; 1,3 >= 3",
                "--region2", "2,1 >= 4; 1,2 >= 4", "--svg"],
               ["kt", "--region", "2,1 >= 2", "--region2", "1,2 >= 2", "--svg"]),
}


def _artifact_bytes(out: Path) -> dict[str, bytes]:
    return {p.suffix: p.read_bytes() for p in out.parent.glob(f"{out.name}.*")}


@pytest.mark.parametrize("case", sorted(_REWRITES))
def test_cli_shorter_rewrite_matches_a_fresh_run(tmp_path, case):
    # an artifact is written over in place, so it must be cut where the
    # new bytes end
    longer, shorter = _REWRITES[case]
    code, again = run_cli(tmp_path / "again", *longer)
    assert code == 0
    before = _artifact_bytes(again)
    assert run_cli(tmp_path / "again", *shorter)[0] == 0
    code, fresh = run_cli(tmp_path / "fresh", *shorter)
    assert code == 0
    after = _artifact_bytes(fresh)
    assert _artifact_bytes(again) == after
    assert sorted(after) == sorted(before)
    assert all(len(before[suffix]) > len(after[suffix]) for suffix in after)
    if case == "okounkov":
        assert after[".csv"].count(b"\n") == 2981


def test_cli_rewrite_keeps_the_artifact_file(tmp_path):
    argv = ["limits", "--family", "power(x, y)"]
    code, out = run_cli(tmp_path, *argv, "--N", "20")
    assert code == 0
    csv = Path(f"{out}.csv")
    link = tmp_path / "link.csv"
    os.link(csv, link)
    csv.chmod(0o640)
    inode = csv.stat().st_ino
    code, out = run_cli(tmp_path, *argv, "--N", "8")
    assert code == 0
    assert link.read_text().splitlines()[1:] == [
        f"{n},{n * (n + 1) // 2},{format_rational(Fraction(n + 1, 2 * n))}"
        for n in range(1, 9)]
    assert csv.stat().st_ino == inode
    assert stat.S_IMODE(csv.stat().st_mode) == 0o640


def test_cli_new_artifacts_get_the_mode_open_gives(tmp_path):
    # os.open's default mode is 0o777: a new artifact must not be executable
    umask = os.umask(0o002)
    try:
        code, _ = run_cli(tmp_path, "limits", "--family", "power(x, y)", "--N", "8")
        with open(tmp_path / "reference", "w"):
            pass
    finally:
        os.umask(umask)
    assert code == 0
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == {
        "out.csv": 0o664, "out.json": 0o664, "reference": 0o664}


def test_cli_opens_no_artifact_with_o_trunc(tmp_path, monkeypatch):
    # Truncating an existing artifact to zero, on open or by ftruncate, makes
    # its close start a writeback on ext4; each artifact is opened through
    # os.open without O_TRUNC and cut to length after all of it is written.
    real_open, real_ftruncate = os.open, os.ftruncate
    flags_by_path, cuts = {}, []

    def spy(path, flags, *args, **kwargs):
        flags_by_path[os.fspath(path)] = flags
        return real_open(path, flags, *args, **kwargs)

    def cut_spy(fd, length):
        cuts.append(length)
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", spy)
    monkeypatch.setattr(os, "ftruncate", cut_spy)
    code, out = run_cli(tmp_path, *_REWRITES["kt-svg"][1])
    assert code == 0
    artifacts = {f"{out}{suffix}" for suffix in (".csv", ".json", ".svg")}
    assert artifacts <= flags_by_path.keys()
    assert [p for p in sorted(artifacts) if flags_by_path[p] & os.O_TRUNC] == []
    assert sorted(cuts) == sorted(Path(p).stat().st_size for p in artifacts)


@pytest.mark.parametrize("error", [RuntimeError("chunk failed"),
                                   OSError(errno.ENOSPC, "No space left on device")])
def test_failed_rewrite_leaves_no_old_tail(tmp_path, error):
    # the file is cut where the new bytes end also when a chunk raises, so a
    # failed rewrite is short instead of ending in the old file's rows
    prefix = tmp_path / "out"
    Path(f"{prefix}.csv").write_text("old\n" * 8000)
    written = ["new\n" * 3000, "newer\n" * 10]

    def rows():
        yield from written
        raise error

    with pytest.raises(ConfigError if isinstance(error, OSError) else RuntimeError):
        commands.write_artifacts(prefix, {".csv": rows()})
    assert Path(f"{prefix}.csv").read_text() == "".join(written)


@pytest.mark.skipif(not Path(os.devnull).is_char_device(), reason="no null device")
def test_cli_artifact_linked_to_a_device(tmp_path):
    # a device has no length to cut; a truncating open ignores it too
    link = tmp_path / "out.csv"
    link.symlink_to(os.devnull)
    code, out = run_cli(tmp_path, "limits", "--family", "power(x, y)", "--N", "8")
    assert code == 0
    assert link.is_symlink()
    assert json.loads(Path(f"{out}.json").read_text())["schema_version"]


def test_cli_unwritable_paths_exit_2(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("")
    for argv in (["limits", "--family", "power(x, y)", "--N", "12",
                  "--out", str(blocker / "x")],
                 ["family", "eval", "--family", "power(x, y)", "--N", "3",
                  "--cache-dir", str(blocker), "--out", str(tmp_path / "out")]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{blocker}'" in err, err
    assert blocker.read_text() == ""
    assert not Path(f"{tmp_path / 'out'}.json").exists()


def test_cli_family_eval_and_cache(tmp_path):
    cache = tmp_path / "cache"
    args = ["family", "eval", "--family", "power(x^2, x*y)", "--N", "6"]
    code, out1 = run_cli(tmp_path / "r1", *args, "--cache-dir", str(cache))
    assert code == 0 and any(cache.iterdir())
    code, out2 = run_cli(tmp_path / "r2", *args, "--cache-dir", str(cache))
    assert code == 0
    code, out3 = run_cli(tmp_path / "r3", *args)
    assert code == 0
    bytes1 = Path(f"{out1}.csv").read_bytes()
    assert bytes1 == Path(f"{out2}.csv").read_bytes()
    assert bytes1 == Path(f"{out3}.csv").read_bytes()


def test_cli_cache_keeps_rings_apart(tmp_path):
    cache = tmp_path / "cache"
    args = ["family", "eval", "--family", "power(x^2, y^3)", "--N", "2"]
    code, _ = run_cli(tmp_path / "d2", *args, "--cache-dir", str(cache))
    assert code == 0
    code, warm = run_cli(tmp_path / "warm", *args, "--ring", "x,y,z",
                         "--cache-dir", str(cache))
    assert code == 0
    code, cold = run_cli(tmp_path / "cold", *args, "--ring", "x,y,z")
    assert code == 0
    assert Path(f"{cold}.csv").read_text().count("INFINITE") == 2
    for suffix in (".csv", ".json"):
        assert Path(f"{warm}{suffix}").read_bytes() == Path(f"{cold}{suffix}").read_bytes()


def test_cli_torn_cache_entry_is_a_miss(tmp_path):
    cache = tmp_path / "cache"
    args = ["family", "eval", "--family", "power(x^2, x*y, y^3)", "--N", "4"]
    code, _ = run_cli(tmp_path / "first", *args, "--cache-dir", str(cache))
    assert code == 0
    (entry,) = cache.glob("*.json")
    data = entry.read_bytes()
    entry.write_bytes(data[: len(data) // 2])
    code, warm = run_cli(tmp_path / "warm", *args, "--cache-dir", str(cache))
    assert code == 0
    code, cold = run_cli(tmp_path / "cold", *args)
    assert code == 0
    for suffix in (".csv", ".json"):
        assert Path(f"{warm}{suffix}").read_bytes() == Path(f"{cold}{suffix}").read_bytes()
    assert entry.read_bytes() == data
    assert sorted(p.suffix for p in cache.iterdir()) == [".json"]


def test_cli_wrong_typed_cache_row_is_recomputed(tmp_path):
    # a length edited to the string "4" must not be served: the warm JSON
    # would print it quoted
    cache = tmp_path / "cache"
    args = ["family", "eval", "--family", "power(x^2, x*y, y^3)", "--N", "4"]
    code, _ = run_cli(tmp_path / "first", *args, "--cache-dir", str(cache))
    assert code == 0
    (entry,) = cache.glob("*.json")
    data = entry.read_text()
    rows = json.loads(data)
    for bad in (["x^2, x*y, y^3", "4"], ["x^2, x*y, y^3", True], [7, 4]):
        rows["1"] = bad
        entry.write_text(json.dumps(rows, sort_keys=True))
        code, warm = run_cli(tmp_path / "warm", *args, "--cache-dir", str(cache))
        assert code == 0
        code, cold = run_cli(tmp_path / "cold", *args)
        assert code == 0
        for suffix in (".csv", ".json"):
            assert Path(f"{warm}{suffix}").read_bytes() == \
                Path(f"{cold}{suffix}").read_bytes(), bad
        assert entry.read_text() == data


def test_cli_cache_extends_one_entry_per_family(tmp_path, monkeypatch):
    # N = 20 and then N = 30 on one cache: the second run reads rows 0..20,
    # walks I up to I^30 one product per step with no fresh power, and
    # merges rows 21..30 into the same entry
    cache = tmp_path / "cache"
    args = ["family", "eval", "--ring", "x,y,z", "--family", "power(x^2, y^3, z^2, x*y*z)"]
    code, _ = run_cli(tmp_path / "n20", *args, "--N", "20", "--cache-dir", str(cache))
    assert code == 0
    (entry,) = cache.glob("*.json")
    assert sorted(map(int, json.loads(entry.read_text()))) == list(range(21))
    products = []
    multiply = MonomialIdeal.multiply

    def counting_multiply(self, other):
        products.append(1)
        return multiply(self, other)

    def no_power(self, k):
        raise AssertionError(f"fresh power {k}")

    monkeypatch.setattr(MonomialIdeal, "multiply", counting_multiply)
    monkeypatch.setattr(MonomialIdeal, "__mul__", counting_multiply)
    monkeypatch.setattr(MonomialIdeal, "power", no_power)
    code, warm = run_cli(tmp_path / "n30", *args, "--N", "30", "--cache-dir", str(cache))
    assert code == 0
    # 29 products build I^2..I^30, and one J * I decides the closed-form length
    assert len(products) <= 30
    monkeypatch.undo()
    assert [p.name for p in cache.iterdir()] == [entry.name]
    assert sorted(map(int, json.loads(entry.read_text()))) == list(range(31))
    code, cold = run_cli(tmp_path / "cold", *args, "--N", "30")
    assert code == 0
    for suffix in (".csv", ".json"):
        assert Path(f"{warm}{suffix}").read_bytes() == Path(f"{cold}{suffix}").read_bytes()
    # a shorter run is served from the entry and leaves it as it is
    data = entry.read_bytes()
    code, _ = run_cli(tmp_path / "n5", *args, "--N", "5", "--cache-dir", str(cache))
    assert code == 0 and entry.read_bytes() == data


def test_cli_table_beyond_range_exits_2(tmp_path):
    code, _ = run_cli(tmp_path, "family", "eval", "--family", "table(1 | x)",
                      "--N", "5")
    assert code == 2


def test_cli_missing_family_exits_2(tmp_path):
    code, _ = run_cli(tmp_path, "limits", "--N", "10")
    assert code == 2


def test_cli_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("params:\n  broken line without equals\n")
    code, _ = run_cli(tmp_path, "limits", "--config", str(cfg))
    assert code == 2


def test_cli_config_file_drives_job(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("""
ring:
  vars = x, y
family:
  spec = power(x, y)
params:
  N = 10
""")
    code, out = run_cli(tmp_path, "limits", "--config", str(cfg))
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["params"]["N"] == 10


def test_cli_kt_pass_and_fail_codes(tmp_path):
    code, _ = run_cli(tmp_path / "ok", "kt", "--region", "2,1 >= 2",
                      "--region2", "1,2 >= 2")
    assert code == 0
    doc = json.loads(Path(f"{tmp_path}/ok/out.json").read_text())
    assert doc["results"]["covol_sum"] == "3"


def test_cli_minkowski(tmp_path):
    code, out = run_cli(tmp_path, "minkowski", "--family", "power(x, y^2)",
                        "--family2", "power(x^2, y)", "--N", "48")
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["holds"] is True


def test_cli_minkowski_verdict_is_the_exact_decision(tmp_path, monkeypatch, capsys):
    # a tiny negative float slack must not turn an exact FAIL into exit 0
    def failing(F, G, N):
        return asymptotics.FamilyMinkowskiReport(
            Fraction(1), Fraction(1), Fraction(4), False, False, -1e-12,
            asymptotics.LengthSequence((), 2))

    monkeypatch.setattr(asymptotics, "minkowski_family_check", failing)
    code, out = run_cli(tmp_path, "minkowski", "--family", "power(x, y^2)",
                        "--family2", "power(x^2, y)", "--N", "8")
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    assert Path(f"{out}.csv").read_text().splitlines()[1].endswith(",FAIL")


def test_cli_minkowski_refuses_a_negative_fitted_limit(tmp_path, capsys):
    # the periodic lengths of valuation(3,3 >= 1) fit a negative limit at these N
    for family, family2, N, fit in (
            ("valuation(3,3 >= 1)", "power(x, y)", "8", "-3/28"),
            ("power(x^100, y)", "valuation(3,3 >= 1)", "9", "-1/12")):
        code, out = run_cli(tmp_path, "minkowski", "--family", family,
                            "--family2", family2, "--N", N)
        assert code == 2
        assert (f"error: valuation((3,3)>=1): fitted limit {fit} is negative"
                in capsys.readouterr().err)
        assert not Path(f"{out}.json").exists()


def test_cli_minkowski_svg_computes_the_product_lengths_once(tmp_path, monkeypatch):
    # The SVG draws the product sequence that the check has just computed.
    asked = []

    def counting_colength(self, n):
        asked.append(n)
        return self.member_ideal(n).colength()

    monkeypatch.setattr(ProductSpec, "colength", counting_colength)
    code, out = run_cli(tmp_path, "minkowski", "--family", "power(x, y^2)",
                        "--family2", "power(x^2, y)", "--N", "12", "--svg")
    assert code == 0
    assert Path(f"{out}.svg").exists()
    assert sorted(asked) == list(range(1, 13))


def test_cli_builds_the_parser_once(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(tmp_path / "a", "kt", "--region", "2,1 >= 2",
                   "--region2", "1,2 >= 2")[0] == 0
    assert built == ["monolim kt"]
    assert run_cli(tmp_path / "b", "kt", "--region", "1,1 >= 1",
                   "--region2", "1,1 >= 2")[0] == 0
    assert built == ["monolim kt"]


def test_cli_help_builds_the_top_level_parser_and_one_per_command(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["--help"]) == 0
    assert built == ["monolim"] + [f"monolim {name}" for name in cli.COMMANDS]
    out = " ".join(capsys.readouterr().out.split())
    for command in cli.COMMANDS.values():
        assert " ".join(command.help.split()) in out


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_cli_command_help_lists_its_flags(name, capsys):
    assert run([name, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: monolim {name}")
    command = cli.COMMANDS[name]
    for flag in ("--config", "--ring", *command.flags, "--out", "--svg"):
        assert flag in out
    if command.choice:
        assert "{" + ",".join(command.choice[1]) + "}" in out


def test_cli_unknown_command_exits_2(capsys):
    assert run(["nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: monolim ")
    assert "invalid choice: 'nope'" in err


def test_cli_options_before_the_command_are_reported_by_its_parser(tmp_path, capsys):
    code, out = run_cli(tmp_path, "--svg", "limits", "--family", "power(x, y)",
                        "--N", "8")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: monolim limits")
    assert "[--tol TOL]" in err
    assert err.rstrip().endswith("unrecognized arguments: --svg")
    assert not Path(f"{out}.json").exists()


def test_cli_kt_in_dimension_four(tmp_path):
    R4 = AmbientRing.default(4)
    pairs = [("x^2, y^3, z^5, w^7", "x, y, z, w"),
             ("x^3, y^3, z^3, w^3, x*y*z*w", "x^2, y^2, z^4, w^2, x*y, z*w")]
    docs = []
    for k, (text, text2) in enumerate(pairs):
        code, out = run_cli(tmp_path / str(k), "kt", "--ring", "x,y,z,w",
                            "--ideal", text, "--ideal2", text2)
        assert code == 0
        doc = json.loads(Path(f"{out}.json").read_text())["results"]
        I, J = parse_ideal(R4, text), parse_ideal(R4, text2)
        for key, ideal in (("covol1", I), ("covol2", J), ("covol_sum", I * J)):
            assert Fraction(doc[key]) * 24 == exact_multiplicity(ideal)
        assert doc["holds"] is True
        docs.append(doc)
    assert (docs[0]["covol1"], docs[0]["covol2"]) == ("35/4", "1/24")


def test_cli_epsilon_ideal(tmp_path):
    code, out = run_cli(tmp_path, "epsilon", "--ideal", "x^2, x*y", "--N", "40")
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["epsilon"] == "1"


def test_cli_epsilon_module(tmp_path):
    code, out = run_cli(tmp_path, "epsilon", "--module", "x^2, x*y | 1",
                        "--N", "30")
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["rank"] == 2


def test_cli_symbolic(tmp_path):
    code, out = run_cli(tmp_path, "symbolic", "--ideal", "x^2, x*y",
                        "--aux", "x", "--N", "24")
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["s"] == 1


def test_cli_okounkov(tmp_path):
    code, out = run_cli(tmp_path, "okounkov", "--family", "power(x, y)",
                        "--N", "40")
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["expected"] == "3/2"
    assert doc["results"]["invariants"]["m"] == 1


def test_cli_okounkov_builds_the_body_once(tmp_path, monkeypatch):
    # a family's body is the simplex cut by its limit region: one covolume,
    # no hull of the retained levels, and the same body at every N
    covol = semigroup.covol
    calls = []

    def counting_covol(D):
        calls.append(D)
        return covol(D)

    def no_hull(levels):
        raise AssertionError("a family's body hulls no level")

    monkeypatch.setattr(semigroup, "covol", counting_covol)
    monkeypatch.setattr(semigroup, "okounkov_body", no_hull)
    pinned = {
        "power(x^3, x*y, y^2)": [["0", "2"], ["1", "1"], ["3", "0"], ["6", "0"],
                                 ["0", "6"]],
        "valuation(2,1 >= 2; 1,3 >= 1)": [["0", "2"], ["1", "0"], ["4", "0"],
                                          ["0", "4"]],
    }
    for spec, vertices in pinned.items():
        for N in ("3", "12"):
            calls.clear()
            code, out = run_cli(tmp_path, "okounkov", "--family", spec, "--N", N)
            assert code == 0
            assert len(calls) == 1
            doc = json.loads(Path(f"{out}.json").read_text())
            assert doc["results"]["body_vertices"] == vertices


def test_cli_okounkov_builds_each_limit_region_once(tmp_path, monkeypatch):
    # the product's closure and its body read the same cached regions: one
    # hull per power factor and one Minkowski sum
    calls = []

    def counting(name):
        kernel = getattr(families, name)

        def wrapper(*args):
            calls.append(name)
            return kernel(*args)
        return wrapper

    for name in ("hull_region", "minkowski_sum"):
        monkeypatch.setattr(families, name, counting(name))
    code, _ = run_cli(tmp_path, "okounkov", "--family",
                      "product(power(x^3, x*y, y^2); power(x^2, y))", "--N", "60")
    assert code == 0
    assert (calls.count("hull_region"), calls.count("minkowski_sum")) == (2, 1)


def test_cli_okounkov_in_point_dimension_3(tmp_path):
    # the body is Delta_12 cut by NP(I): 12^3/3! - e(I)/3! = 288 - 2
    gaps = []
    for N in ("4", "8"):
        code, out = timed(lambda: run_cli(
            tmp_path, "okounkov", "--ring", "x,y,z", "--family",
            "power(x^2, y^3, z^2, x*y*z)", "--N", N), 5.0)
        assert code == 0
        doc = json.loads(Path(f"{out}.json").read_text())["results"]
        assert doc["volume"] == doc["expected"] == "286"
        assert doc["invariants"] == {"ind": 1, "m": 1, "q": 3,
                                     "truncated": N == "8"}
        ratios = [Fraction(c, k ** 3) for k, c in doc["counts_tail"]]
        assert all(a > b > 286 for a, b in zip(ratios, ratios[1:]))
        gaps.append(doc["rel_gap"])
    assert gaps[1] < gaps[0] < 0.13


def test_cli_okounkov_reads_point_dimension_3_levels_off_the_column_floors(tmp_path):
    # six levels are retained, 0.7 s when each simplex point was tested
    code, out = timed(lambda: run_cli(
        tmp_path, "okounkov", "--ring", "x,y,z", "--family",
        "power(x^2, y^3, z^2, x*y*z)", "--N", "8"), 0.3)
    assert code == 0
    assert json.loads(Path(f"{out}.json").read_text())["results"]["expected"] == "286"


def test_cli_okounkov_counts_huge_levels_without_enumerating(tmp_path):
    # level 1 of the first family holds about 2 * 10^6 points, over the
    # retain budget, so no level is kept; the second has 2 * 10^7 columns
    for spec, volume in (("power(x^1000, y^1000, x*y)", "1999000"),
                         ("power(x^10000000, y)", "199999995000000")):
        code, out = timed(lambda: run_cli(tmp_path, "okounkov", "--family", spec,
                                          "--N", "4"))
        assert code == 0
        doc = json.loads(Path(f"{out}.json").read_text())["results"]
        assert doc["volume"] == doc["expected"] == volume
        assert doc["invariants"]["truncated"] is True
        assert Path(f"{out}.csv").read_text() == "level,a1,a2\n"


def test_cli_okounkov_csv_from_runs_matches_the_point_rows(tmp_path):
    ring = AmbientRing.default(2)
    for spec in ("power(x^3, x*y, y^2)", "valuation(2,1 >= 2; 1,3 >= 1)"):
        code, out = run_cli(tmp_path, "okounkov", "--family", spec, "--N", "20")
        assert code == 0
        fam = parse_family_spec(ring, spec)
        beta = SemigroupPredicate.from_family(fam).beta
        rows = [(i, *a) for i in range(1, 21)
                for a in oracle_family_points(fam, beta, i)]
        assert len(rows) < 200_000  # every level retained
        want = render_csv(["level", "a1", "a2"], rows).encode()
        assert Path(f"{out}.csv").read_bytes() == want


def test_cli_okounkov_streams_its_csv_in_bounded_memory(tmp_path):
    # The 1.8 MB CSV is written as it is rendered, so no copy of its text is held.
    tracemalloc.start()
    try:
        code, out = run_cli(tmp_path, "okounkov", "--family", "power(x^3, x*y, y^2)",
                            "--N", "60")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2 ** 20
    with open(f"{out}.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 198_441


def test_cli_input_mistakes_exit_2(tmp_path, capsys):
    for argv, message in (
            (["epsilon", "--ideal", "x^"], "bad monomial factor 'x^'"),
            (["kt", "--ideal", "x^", "--ideal2", "x, y"], "bad monomial factor 'x^'"),
            (["symbolic", "--ideal", "q", "--aux", "x"], "unknown variable 'q'"),
            (["epsilon", "--ring", "x,x", "--ideal", "x"],
             "variable names must be distinct"),
            (["epsilon", "--module", "|"], "empty monomial in ideal text"),
            (["epsilon", "--ideal", "0"], "epsilon multiplicity needs a nonzero ideal"),
            (["symbolic", "--ideal", "0", "--aux", "x"],
             "symbolic family needs nonzero ideals"),
            (["epsilon", "--ideal", "x", "--module", "x | y"],
             "epsilon takes --ideal or --module, not both"),
            (["kt", "--region", "1,1 >= 1", "--ideal", "x, y", "--region2", "1,2 >= 2"],
             "kt takes --region or --ideal, not both"),
            (["kt", "--region", "1,1 >= 1", "--region2", "1,2 >= 2", "--ideal2", "x"],
             "kt takes --region2 or --ideal2, not both"),
            # past int()'s digit limit: an input error, not a ValueError
            (["epsilon", "--ideal", "x^" + "9" * 5000],
             "exponent of 'x' has too many digits (5000)"),
            (["kt", "--ideal", "x, y", "--ideal2", "y^" + "9" * 5000],
             "exponent of 'y' has too many digits (5000)"),
            (["symbolic", "--ideal", "x", "--aux", "x^" + "9" * 5000],
             "exponent of 'x' has too many digits (5000)"),
            (["epsilon", "--module", "1 | x^" + "9" * 5000],
             "exponent of 'x' has too many digits (5000)"),
            (["limits", "--family", "valuation(1,1 >= 1/0)"],
             "bad family spec 'valuation(1,1 >= 1/0)': zero denominator in '1/0' "
             "of valuation constraint '1,1 >= 1/0'")):
        if argv[0] != "kt":
            argv = argv + ["--N", "8"]
        code, out = run_cli(tmp_path, *argv)
        assert code == 2, argv
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not Path(f"{out}.json").exists()


def test_cli_okounkov_needs_three_levels(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "okounkov", "--family", "power(x, y)", "--N", "2")
    assert code == 2
    assert "--N >= 3" in capsys.readouterr().err


def test_cli_okounkov_constant_flag_is_gone(tmp_path, capsys):
    # the simplex bound comes from the least c with m^c inside I_1
    code, out = run_cli(tmp_path, "okounkov", "--family", "power(x, y)",
                        "--N", "10", "--c", "1")
    assert code == 2
    assert "unrecognized arguments: --c 1" in capsys.readouterr().err
    assert not Path(f"{out}.json").exists()


def test_cli_limits_rejects_a_zero_n_over_the_config(tmp_path, capsys):
    # --N 0 is a value, not "unset": it must not fall back to params: N
    code, _ = run_cli(tmp_path, "limits", "--family", "power(x^2, y^3)",
                      "--N", "0")
    assert code == 2
    assert "N must be >= 1" in capsys.readouterr().err
    config = tmp_path / "job.conf"
    config.write_text("params:\n  N = 12\n")
    code, out = run_cli(tmp_path, "limits", "--config", str(config),
                        "--family", "power(x^2, y^3)", "--N", "0")
    assert code == 2
    assert "N must be >= 1" in capsys.readouterr().err
    assert not Path(f"{out}.json").exists()


def test_cli_limits_rejects_a_zero_tolerance(tmp_path, capsys):
    code, out = run_cli(tmp_path, "limits", "--family", "power(x^2, y^3)",
                        "--N", "8", "--tol", "0")
    assert code == 2
    assert "tolerance must be positive" in capsys.readouterr().err
    assert not Path(f"{out}.json").exists()


def test_cli_rejects_non_numeric_config_values(tmp_path, capsys):
    config = tmp_path / "job.conf"
    for key, value, message in (("N", "abc", "N must be an integer"),
                                ("tol", "1/0", "tolerance must be a rational"),
                                ("tol", "abc", "tolerance must be a rational")):
        config.write_text(f"params:\n  N = 8\n  {key} = {value}\n")
        code, _ = run_cli(tmp_path, "limits", "--config", str(config),
                          "--family", "power(x^2, y^3)")
        assert code == 2
        assert message in capsys.readouterr().err
    # A JSON config can hold a fraction or a list where an integer belongs.
    config = tmp_path / "job.json"
    for params, command, message in (({"N": [8]}, "limits", "N must be an integer"),
                                     ({"N": 8.5}, "limits", "N must be an integer")):
        config.write_text(json.dumps({"params": params}))
        code, _ = run_cli(tmp_path, command, "--config", str(config),
                          "--family", "power(x, y)")
        assert code == 2
        assert message in capsys.readouterr().err


def test_cli_empty_text_flags_do_not_fall_back_to_the_config(tmp_path, capsys):
    # An empty flag is a value, not "unset": it must not fall back to the config
    config = tmp_path / "job.conf"
    config.write_text("ring:\n  vars = x, y, z\n"
                      "family:\n  spec = power(x^2, y^3, z)\n"
                      "params:\n  ideal = x*y, y*z, x*z\n  aux = x, y\n  N = 8\n")
    for command, flag, message in (
            ("symbolic", "--aux", "symbolic needs --ideal and --aux"),
            ("symbolic", "--ring", "empty ring variable list"),
            ("limits", "--family", "bad family spec"),
    ):
        code, _ = run_cli(tmp_path, command, "--config", str(config))
        assert code == 0
        code, _ = run_cli(tmp_path, command, "--config", str(config), flag, "")
        assert code == 2
        assert message in capsys.readouterr().err


def test_cli_okounkov_spot_checks_a_family_that_is_not_graded(tmp_path, capsys):
    # x * y^2 lies in I_1 * I_2 but not in I_3; the level counts still agree,
    # so only the spot check catches it
    code, out = run_cli(tmp_path, "okounkov", "--family",
                        "table(1 | x, y | x^2, y^2 | x^3, y^3)", "--N", "3")
    assert code == 1
    assert "additivity fails" in capsys.readouterr().err
    assert not Path(f"{out}.json").exists()


def test_cli_okounkov_rejects_a_non_primary_family(tmp_path, capsys):
    for ring, spec in (("x,y,z", "power(x^2, y)"), ("x,y", "power(x^2)")):
        code, _ = run_cli(tmp_path, "okounkov", "--ring", ring, "--family", spec,
                          "--N", "10")
        assert code == 2
        assert "no power of the maximal ideal" in capsys.readouterr().err


def test_cli_diff(tmp_path):
    code, out = run_cli(tmp_path, "diff", "--family", "maxpower(log)",
                        "--N", "60")
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["difference_bound"]["holds"] is True
    assert doc["results"]["filtration"]["passed"] is True


def test_cli_diff_non_filtration(tmp_path):
    code, out = run_cli(tmp_path, "diff", "--family", "maxpower(sigma)",
                        "--N", "20")
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["filtration"]["passed"] is False
    assert doc["results"]["filtration"]["first_violation"] == [15, 16]
    assert "difference_bound" not in doc["results"]
    assert doc["results"]["graded"]["passed"] is True


def test_cli_diff_in_three_variables_decides_graded_by_definition(tmp_path):
    # the member walk of the graded check ran for minutes at N = 24
    code, out = timed(lambda: run_cli(tmp_path, "diff", "--ring", "x,y,z", "--family",
                                      "power(x^2, y^3, z^2, x*y*z)", "--N", "24"))
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())["results"]
    assert doc["graded"] == {"passed": True, "first_violation": None}
    assert doc["filtration"] == {"passed": True, "first_violation": None}


def test_cli_threads_flag_is_gone(tmp_path):
    code, _ = run_cli(tmp_path, "limits", "--family", "power(x^2, y)",
                      "--N", "8", "--threads", "4")
    assert code == 2


def test_cli_family_eval_svg(tmp_path):
    code, out = run_cli(tmp_path, "family", "eval", "--family",
                        "power(x^3, x*y, y^2)", "--N", "3", "--svg")
    assert code == 0
    svg = Path(f"{out}.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg


# SVG grids step past 64 cells per axis, so drawing costs time and bytes in
# the cell cap, not in the exponents.
E = 10 ** 7


def test_cli_staircase_svg_huge_exponents(tmp_path):
    code, out = timed(lambda: run_cli(tmp_path, "family", "eval", "--family",
                                      f"power(x^{E}, y^{E}, x*y)", "--N", "2",
                                      "--svg"))
    assert code == 0
    svg = Path(f"{out}.svg")
    assert svg.stat().st_size < 1_000_000
    assert svg.read_text().count("<rect") <= 1 + 64 * 64


def test_cli_staircase_svg_keeps_its_far_edges(tmp_path):
    code, out = timed(lambda: run_cli(tmp_path, "family", "eval", "--family",
                                      f"power(x^{E}, y^{E}, x*y)", "--N", "1",
                                      "--svg"))
    assert code == 0
    svg = Path(f"{out}.svg").read_text()
    # the plot spans [36, 384] in pixels; y grows downwards
    top = '<line x1="36.00" y1="36.00" x2="384.00" y2="36.00"'
    right = '<line x1="384.00" y1="384.00" x2="384.00" y2="36.00"'
    assert top in svg and right in svg
    # on a grid of step 2 the staircase still turns at x*y, pixel
    # (36 + 348/102, 384 - 348/102), not at the step cell (2, 2)
    code, out = run_cli(tmp_path, "family", "eval", "--family",
                        "power(x^100, y^100, x*y)", "--N", "1", "--svg")
    assert code == 0
    svg = Path(f"{out}.svg").read_text()
    assert " 39.41,380.59 " in svg and svg.count("<rect") == 1


def test_cli_limits_huge_exponents_in_two_variables(tmp_path):
    code, out = timed(lambda: run_cli(tmp_path, "limits", "--family",
                                      f"power(x^{E}, y^{E}, x*y)", "--N", "300"))
    assert code == 0
    rows = Path(f"{out}.csv").read_text().splitlines()
    assert rows[1].startswith(f"1,{2 * E - 1},")
    assert rows[3].startswith(f"3,{12 * E - 3},")


def test_cli_diff_huge_valuation_thresholds(tmp_path):
    code, out = timed(lambda: run_cli(
        tmp_path, "diff", "--family", f"valuation(1,{E} >= {E}; {E},1 >= {E})",
        "--N", "20"))
    assert code == 0
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["difference_bound"]["c"] == E


def test_cli_kt_svg_huge_region(tmp_path):
    code, out = timed(lambda: run_cli(tmp_path, "kt", "--region", f"1,1 >= {E}",
                                      "--region2", f"2,1 >= {E}", "--svg"))
    assert code == 0
    svg = Path(f"{out}.svg")
    assert svg.stat().st_size < 64_000
    assert svg.read_text().count("<line") <= 2 * 65


# Every command once at an exponent or threshold of E.  Left out, each for
# its reason:
# - ``family eval`` of a valuation family at threshold E: a member has about
#   E generators, and the command prints every one;
# - a product with such a valuation factor: it builds the product member;
# - a valuation length in d >= 3: it counts one slice per x, so E slices
#   (the known limit under ROADMAP Satellites);
# - ``counterexample``: its two families are built in, with no exponent.
_HUGE_RUNS = {
    "family-eval": ["family", "eval", "--family", f"power(x^{E}, y^{E}, x*y)",
                    "--N", "2"],
    "family-eval-table": ["family", "eval", "--family",
                          f"table(1 | x^{E}, y | x^{2 * E}, y^2)", "--N", "2"],
    "limits-power": ["limits", "--family", f"power(x^{E}, y^{E}, x*y)", "--N", "20"],
    "limits-valuation": ["limits", "--family",
                         f"valuation(1,{E} >= {E}; {E},1 >= {E})", "--N", "20"],
    "limits-symbolic": ["limits", "--family", f"symbolic(x^{E}, x*y; x)", "--N", "8"],
    "limits-product": ["limits", "--family", f"product(valuation(1,1 >= {E}); power(x, y))",
                       "--N", "20"],
    "diff": ["diff", "--family", f"valuation(1,{E} >= {E}; {E},1 >= {E})", "--N", "20"],
    "diff-product": ["diff", "--family", f"product(valuation(1,1 >= {E}); power(x, y))",
                     "--N", "20"],
    "minkowski": ["minkowski", "--family", f"power(x^{E}, y)",
                  "--family2", f"power(x, y^{E})", "--N", "8"],
    "epsilon-ideal": ["epsilon", "--ideal", f"x^{E}*y, x*y^{E}", "--N", "8"],
    "epsilon-module": ["epsilon", "--module", f"x^{E}, x*y | 1", "--N", "8"],
    "symbolic": ["symbolic", "--ring", "x,y,z", "--ideal", f"x^{E}*y, y*z",
                 "--aux", "x", "--N", "8"],
    "okounkov-power": ["okounkov", "--family", f"power(x^{E}, y)", "--N", "4"],
    "okounkov-valuation": ["okounkov", "--family",
                           f"valuation(1,{E} >= {E}; {E},1 >= {E})", "--N", "4"],
    "okounkov-d3": ["okounkov", "--ring", "x,y,z", "--family", f"power(x^{E}, y, z)",
                    "--N", "4"],
    "kt-regions": ["kt", "--region", f"1,1 >= {E}", "--region2", f"2,1 >= {E}"],
    "kt-ideals": ["kt", "--ring", "x,y,z", "--ideal", f"x^{E}, y, z",
                  "--ideal2", f"x, y^{E}, z"],
}


def test_huge_runs_cover_every_command_with_an_exponent():
    assert ({argv[0] for argv in _HUGE_RUNS.values()}
            == cli.COMMANDS.keys() - {"counterexample"})


@pytest.mark.parametrize("name", sorted(_HUGE_RUNS))
def test_cli_command_at_a_huge_exponent(tmp_path, name):
    code, _ = timed(lambda: run_cli(tmp_path, *_HUGE_RUNS[name]))
    assert code == 0


def test_cli_nonprimary_limits_exits_2(tmp_path):
    code, _ = run_cli(tmp_path, "limits", "--family", "power(x^2, x*y)",
                      "--N", "12")
    assert code == 2


def test_result_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "c")
    assert cache.get("label") is None
    cache.put("label", {3: ("x^3", 6)})
    assert cache.get("label") == {3: ("x^3", 6)}
    assert cache.get("other") is None
    cache.put("label", {0: ("1", float("inf")), 3: ("x^3", 6)})
    assert cache.get("label") == {0: ("1", INFINITE), 3: ("x^3", 6)}
    (entry,) = (tmp_path / "c").iterdir()
    assert json.loads(entry.read_text()) == {"0": ["1", "INFINITE"], "3": ["x^3", 6]}


def test_result_cache_unreadable_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put("label", {3: ("x^3", 6)})
    (entry,) = (tmp_path / "c").iterdir()
    for broken in (b'{"3": ["x^3", 6]', b"[]", b"\xff\xfe", b""):
        entry.write_bytes(broken)
        assert cache.get("label") is None
    # a row of the wrong shape or type is a miss, and the others are served
    for row in ('{"n": 3, "length": 6}', '["x^3"]', '["x^3", 6, 3]', '["x^3", "6"]',
                '["x^3", true]', '["x^3", -1]', '["x^3", 6.0]', '["x^3", null]',
                '[3, 6]', '[null, 6]', '"x^3"'):
        entry.write_text('{"2": ["x^2", 3], "3": %s}' % row)
        assert cache.get("label") == {2: ("x^2", 3)}, row
    for n in ("-3", "x", "", "3.0", "\u0663"):
        entry.write_text(json.dumps({"2": ["x^2", 3], n: ["x^3", 6]}))
        assert cache.get("label") == {2: ("x^2", 3)}, n


def test_result_cache_is_keyed_by_source_digest(tmp_path, monkeypatch):
    assert reportio.source_digest() == reportio.source_digest()
    cache = ResultCache(tmp_path / "c")
    cache.put("label", {3: ("x^3", 6)})
    assert cache.get("label") is not None
    monkeypatch.setattr(reportio, "source_digest", lambda: "0" * 64)
    assert cache.get("label") is None
    cache.put("label", {3: ("x^3", 6)})
    assert cache.get("label") is not None
    monkeypatch.undo()
    assert len(list((tmp_path / "c").iterdir())) == 2


def test_result_cache_failed_put_leaves_no_temporary_file(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "c")
    cache.put("label", {3: ("x^3", 6)})
    (entry,) = (tmp_path / "c").iterdir()
    data = entry.read_bytes()

    def refuse(src, dst):
        raise OSError(errno.ENOSPC, "no space left")

    monkeypatch.setattr(reportio.os, "replace", refuse)
    with pytest.raises(OSError):
        cache.put("label", {3: ("x^3", 6), 4: ("x^4", 10)})
    monkeypatch.undo()
    assert list((tmp_path / "c").iterdir()) == [entry]
    assert entry.read_bytes() == data


def test_result_cache_concurrent_writers_never_tear_the_entry(tmp_path):
    # two caches on one directory write the same key from two threads; each
    # write adds rows, so a writer can lose the other's rows (a later miss),
    # but a reader sees a whole entry every time
    import threading
    root = tmp_path / "c"
    caches = ResultCache(root), ResultCache(root)
    torn = []
    switch = sys.getswitchinterval()

    def write(cache, offset):
        for k in range(60):
            rows = cache.get("label") or {}
            rows[2 * k + offset] = ("x" * 500, k)
            cache.put("label", rows)
            if cache.get("label") is None:
                torn.append(k)

    threads = [threading.Thread(target=write, args=(c, i)) for i, c in enumerate(caches)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert torn == []
    assert [p.suffix for p in root.iterdir()] == [".json"]
    rows = caches[0].get("label")
    assert rows and all(text == "x" * 500 for text, _ in rows.values())



# sha256 of the .csv, .json and .svg of every command that draws one, recorded
# before the command table, the shared sequence emitter and the shared SVG
# grid replaced the per-command code: the artifacts must stay byte-identical.
_ARTIFACT_PINS = {
    "family-eval": (
        ["family", "eval", "--family", "power(x^3, x*y, y^2)", "--N", "3"],
        "cc3ee928c3dc3fdb988428cbde1845cc58827d18918957ab96e16e6ab53ed3f3",
        "fd3647acfe2b260ae062e1e8f9cc59799b781cab673db22c0f757bcb3ebd0dff",
        "38138dc4d532271a997f6035479439e1b816de52c1ba77fa55030c06a468d67d"),
    "family-eval-nonprimary": (
        ["family", "eval", "--family", "power(x^2, x*y)", "--N", "2"],
        "eae83b6622181474647a72c2a001cbe4975bc3a075e8916d3814febf961cc192",
        "53395c6ce7cbf8125a7d66aa3d26722eef95fe1cb6a64689b4c8d91344b5a910",
        "8dbe3de0257b491e5657deaca1b6c1fb824faa27b04279a675bd0db45b867713"),
    "limits": (
        ["limits", "--family", "power(x^2, y^3)", "--N", "12"],
        "d213408d1de2d0d180a8f103447274690c9d8f59f921a1b5a9f3408de203de9a",
        "cafecbadba9272aabb9339872bb25b6ab3e5108852ba3ce3a7981117a1330d33",
        "5bd31a9ecc884173e3a86f2c054d35a465ec0b60c3b0b09a3a9afed359104dab"),
    "diff": (
        ["diff", "--family", "maxpower(log)", "--N", "20"],
        "813fce7452aea9cfbd360a5fee506e608425ab7bccef7a136e2fba615751746a",
        "5eb2c8bdf0ee5813c629d628be2ba92c854e74bba1d53b1d6d0413ee371f4e41",
        "03bacc7de289a9045d01c686b26b192db6274f1ca09884303ed95fa495cbf983"),
    "minkowski": (
        ["minkowski", "--family", "power(x, y^2)", "--family2", "power(x^2, y)",
         "--N", "12"],
        "c214328173a26575f222a7106fce67c20842c2945adfed8abf324c6cf7924970",
        "5cfb5d2280ed94c8f9d39997d7cc0e76bae34bfec2dd6f6feb07b7e3a5f77b1c",
        "7f56302ab2be21618e0f9acb6cb38d35e97b7abbc8cb3d09f9db7535f114f01f"),
    "epsilon": (
        ["epsilon", "--ideal", "x^2, x*y", "--N", "12"],
        "f609aecbd798ecba0871924a9b105218080ea13eef06fe92bac91703fd1aa3c7",
        "cfc3c0c0e787b6d7f3fc427631164058906cdaa3f8ebcf7ab177812135580f44",
        "3cefc57c3e50033856a11b96542b43bcb46855f5c10c9ef72ff9699abd77530b"),
    "epsilon-module": (
        ["epsilon", "--module", "x^2, x*y | 1", "--N", "10"],
        "bd6300604e5c6a0e6f04c9b791d875bfd7bf8321fe474153621bd53240f76c22",
        "7b3a6434c0361b02b354c7b0ba30c1b02c6a24943e8decbd8a7afaa47f0c6cc3",
        "83af12e1067b38282f54d587cc2da8254bcd0ccfaa62e5881c96a0c572b22fc8"),
    "symbolic": (
        ["symbolic", "--ideal", "x^2, x*y", "--aux", "x", "--N", "12"],
        "9283bf268a85a6a6646eae3348d1b74e5c7be89cc468a8ca90ebf91dce2ce672",
        "a679189b1c99829f710f68d577e0e9c5dd0623571162a33ac51d68034458ac22",
        "824474d27eda6514d0e8051f2ac31220f5b6732a50825da99413b1c7f6e97af6"),
    "okounkov": (
        ["okounkov", "--family", "power(x^3, x*y, y^2)", "--N", "12"],
        "02bcef507d098cdddc948178085e3d0a4dc716fad5a93dee26ac5fa797583115",
        "2cfab3e7ae935606c542bf80ad2a501b936ee9b98850083ccd3cf978b0453748",
        "b64a09a1099ec9029397e3c4413ae3d4779598538c7af54a4572a464d1d05b62"),
    "kt": (
        ["kt", "--region", "2,1 >= 2; 1,3 >= 1", "--region2", "1,2 >= 2"],
        "5519f812daeab6913e7441bc3ee84d4f691c84030b95ad46c8a7461c401b7229",
        "d23e232e1e4270f4371e82ee58b5bc9457c426ea42b4cc21e679a6205730eca0",
        "8b7b8c95a5035671605c956b4a7970f200ca11d9447cc50d2a386f276f931682"),
    "counterexample-sigma": (
        ["counterexample", "sigma", "--N", "20"],
        "44bd0acf589eca9b519eaa3d740a94579710c217e1db1f97b7d80f9fe5679f00",
        "2dbba6d23bb4dfe36e296d6d63381d4b15f6f88b89f227feea902dfcf12da27e",
        "86453fbd612174cc235dd12cec86cb2c00c7a2bee52d26ca5686e5bd3d3b1352"),
    # b_n/n -> 1 for both sequences: the body is Delta_4 ∩ {|a| >= 1}, of
    # volume 8 - 1/2; recorded with the maxpower limit region
    "okounkov-maxpower-log": (
        ["okounkov", "--family", "maxpower(log)", "--N", "20"],
        "1a706e8c7b400648067901b041696a2f8242628904105ff9398ce8b2871facd9",
        "5413ef232f4f32f7957885e646dcd7e7421ac9b3a874b1a209fb1c67e240086f",
        "df419792c21f0d78dfe0c7199258de71bed9e65ef3d604d74a2e738f34bea1b9"),
    "okounkov-maxpower-sigma": (
        ["okounkov", "--family", "maxpower(sigma)", "--N", "20"],
        "b1f34af239b0abdbdcdf3c90b832ec13a9f2f31c2ae40bcb1ba92e5fb5fe6781",
        "266046afa6b459efb1754f3e6d04151e97a741fc3beba397765d168ca665605a",
        "df419792c21f0d78dfe0c7199258de71bed9e65ef3d604d74a2e738f34bea1b9"),
    "counterexample-log": (
        ["counterexample", "log", "--N", "40"],
        "b949aa6dc5e2e964b97a33e091e69a5eb540a899edd4b9943ba609f1ffbe1a05",
        "1365f4ef0b4085b133c92895a3a3a96cd29e98dc501b7ed7596d1e7c456b1cd8",
        "cb9a9d994ba66a47a9ef5cb5ba94f894e120620353a9ec2a4f3ac8bff9e5cfeb"),
}


@pytest.mark.parametrize("name", sorted(_ARTIFACT_PINS))
def test_cli_artifacts_match_their_pins(tmp_path, name):
    argv, *pins = _ARTIFACT_PINS[name]
    code, out = run_cli(tmp_path, *argv, "--svg")
    assert code == 0
    for suffix, pin in zip((".csv", ".json", ".svg"), pins):
        assert hashlib.sha256(Path(f"{out}{suffix}").read_bytes()).hexdigest() == pin


def test_cli_okounkov_maxpower_body_is_read_off_the_limit_region(tmp_path):
    for which in ("log", "sigma"):
        code, out = run_cli(tmp_path, "okounkov", "--family", f"maxpower({which})",
                            "--N", "20")
        assert code == 0
        results = json.loads(Path(f"{out}.json").read_text())["results"]
        assert results["volume"] == results["expected"] == "15/2"


def test_import_leaves_openssl_unloaded():
    # only --cache-dir hashes, so a run without it must not load OpenSSL
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import monolim.cli; "
             "print(sorted({'hashlib', '_hashlib'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # the frozen value types share one small base; the dataclasses module,
    # and inspect with it, cost about a quarter of the start-up.  Only what
    # the import itself loads counts: a site hook may load inspect first.
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import monolim.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))")
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def _fresh_modules(code, *args):
    """The modules a fresh ``python -I`` loads while running ``code`` (with
    ``src`` on its path and ``argv`` bound to ``args``), sorted; they are
    printed on the last line, after anything ``code`` prints."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); argv = sys.argv[2:]; "
             f"before = set(sys.modules); {code}; "
             "print(*sorted(sys.modules.keys() - before))")
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(src), *args],
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1].split()


# The layers bench/tracer.py wraps after one untraced pass.
_TRACED_LAYERS = ("lattice", "families", "asymptotics", "convex", "semigroup",
                  "reportio", "cli")


def test_import_of_the_cli_loads_no_layer_and_no_exact_arithmetic():
    # the layers load when a command is dispatched, so --help and a usage
    # error pay for argparse alone
    unwanted = ({"fractions", "decimal", "monolim.svg"}
                | {f"monolim.{n}" for n in _TRACED_LAYERS if n != "cli"})
    assert sorted(unwanted & set(_fresh_modules("import monolim.cli"))) == []


# One small run of each command.
_SMALL_RUNS = {
    "family": ["family", "eval", "--family", "power(x, y)", "--N", "2"],
    "limits": ["limits", "--family", "power(x, y)", "--N", "8"],
    "diff": ["diff", "--family", "power(x, y)", "--N", "4"],
    "minkowski": ["minkowski", "--family", "power(x, y)", "--family2", "power(x, y)",
                  "--N", "8"],
    "epsilon": ["epsilon", "--ideal", "x^2, x*y", "--N", "8"],
    "symbolic": ["symbolic", "--ideal", "x*y", "--aux", "x", "--N", "8"],
    "okounkov": ["okounkov", "--family", "power(x, y)", "--N", "3"],
    "kt": ["kt", "--region", "2,1 >= 2", "--region2", "1,2 >= 2"],
    "counterexample": ["counterexample", "log", "--N", "8"],
}


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_one_run_of_any_command_loads_every_traced_layer(tmp_path, name):
    assert _SMALL_RUNS.keys() == cli.COMMANDS.keys()
    argv = [*_SMALL_RUNS[name], "--out", str(tmp_path / "out")]
    loaded = _fresh_modules("import monolim.cli; assert monolim.cli.run(argv) == 0",
                            *argv)
    assert [n for n in _TRACED_LAYERS if f"monolim.{n}" not in loaded] == []


def test_svg_loads_only_for_a_drawing(tmp_path):
    argv = [*_SMALL_RUNS["kt"], "--out", str(tmp_path / "out")]
    run_kt = "import monolim.cli; assert monolim.cli.run(argv) == 0"
    assert "monolim.svg" not in _fresh_modules(run_kt, *argv)
    assert "monolim.svg" in _fresh_modules(run_kt, *argv, "--svg")


_PACKAGE_NAMES = [
    "AmbientRing", "ConvexRegion", "EpsilonReport", "FamilySpec", "INFINITE",
    "LengthSequence", "LimitEstimate", "MaxPowerSpec", "MonolimError", "MonomialIdeal",
    "MonomialModule", "MultiplicityReport", "PowerSpec", "ProductSpec",
    "SaturationSpec", "SemigroupLevels", "SemigroupPredicate", "SymbolicReport",
    "SymbolicSpec", "TableSpec", "ValuationSpec", "asymptotics", "containment_order",
    "convex", "covol", "difference_profile", "enumerate_levels", "epsilon_ideal",
    "epsilon_module", "errors", "estimate_limit", "exact_multiplicity", "families",
    "filtration_difference_bound", "format_ideal", "hull_region", "kt_check",
    "lattice", "lattice_invariants", "length_mod_power", "length_sequence",
    "log_exponent", "minimalize", "minkowski_family_check", "minkowski_sum",
    "monomial_quotient_bound", "multiplicity", "okounkov_body", "parse_ideal",
    "region", "rel_length", "roots", "scale_region", "semigroup",
    "semigroup_limit_check", "sigma_exponent", "sigma_multiplier",
    "symbolic_multiplicity", "teissier_check", "verify_filtration", "verify_graded",
    "volume_equals_multiplicity",
]


def test_package_names_resolve_to_their_submodules_objects():
    import monolim

    assert monolim.__all__ == _PACKAGE_NAMES
    for name in monolim.__all__:
        value = getattr(monolim, name)
        if isinstance(value, type(monolim)):
            assert value is sys.modules[f"monolim.{name}"]
        else:
            # INFINITE, a float, has no __module__
            home = getattr(value, "__module__", "monolim.lattice")
            assert value is getattr(sys.modules[home], name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        monolim.no_such_name


def test_star_import_of_the_package_binds_every_name():
    loaded = _fresh_modules("from monolim import *; import monolim; "
                            "assert all(n in globals() for n in monolim.__all__)")
    assert "monolim.semigroup" in loaded
    assert "monolim.cli" not in loaded


def test_cli_rejects_a_flag_the_command_does_not_read(tmp_path, capsys):
    for argv in (["limits", "--family", "power(x, y)", "--N", "8",
                  "--region", "1,1 >= 1"],
                 ["limits", "--family", "power(x, y)", "--N", "8", "--c", "-5"],
                 ["kt", "--region", "2,1 >= 2", "--region2", "1,2 >= 2",
                  "--N", "4"],
                 ["kt", "--region", "2,1 >= 2", "--region2", "1,2 >= 2",
                  "--family", "nonsense"],
                 ["family", "eval", "--family", "power(x, y)", "--N", "3",
                  "--tol", "1/2"],
                 ["diff", "--family", "power(x, y)", "--N", "8",
                  "--cache-dir", str(tmp_path / "cache")],
                 ["counterexample", "log", "--N", "8", "--family", "power(x, y)"]):
        code, out = run_cli(tmp_path, *argv)
        assert code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not Path(f"{out}.json").exists()


def test_cli_unread_flag_prints_the_command_usage(tmp_path, capsys):
    for argv in (["limits", "--family", "power(x, y)", "--N", "8", "--to", "1/3"],
                 ["limits", "--family", "power(x, y)", "--N", "8",
                  "--region", "1,1 >= 1"]):
        code, out = run_cli(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "usage: monolim limits" in err
        assert "[--tol TOL]" in err
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
        assert not Path(f"{out}.json").exists()


def test_cli_symbolic_multiplicity_by_localization(tmp_path, capsys):
    code, out = run_cli(tmp_path, "symbolic", "--ring", "x,y,z",
                        "--ideal", "y^2, x^2*y*z^2", "--aux", "x*y", "--N", "12")
    assert code == 0
    assert "symbolic: s=2, limit ~ 1" in capsys.readouterr().out
    doc = json.loads(Path(f"{out}.json").read_text())
    assert doc["results"]["s"] == 2
    assert doc["results"]["estimate"]["point_estimate"] == "1"
    rows = Path(f"{out}.csv").read_text().splitlines()[1:]
    assert rows == [f"{n},{n},1" for n in range(1, 13)]


def test_cli_tolerance_flag_reads_like_the_config(tmp_path):
    argv = ["limits", "--family", "power(x^2, y^3)", "--N", "12", "--svg"]
    code, flag = run_cli(tmp_path / "flag", *argv, "--tol", "1/3")
    assert code == 0
    config = tmp_path / "job.conf"
    config.write_text("params:\n  tol = 1/3\n")
    code, conf = run_cli(tmp_path / "conf", *argv, "--config", str(config))
    assert code == 0
    assert json.loads(Path(f"{flag}.json").read_text())["params"]["tol"] == "1/3"
    for suffix in (".csv", ".json", ".svg"):
        assert Path(f"{flag}{suffix}").read_bytes() == Path(f"{conf}{suffix}").read_bytes()


def test_cli_numeric_flags_share_the_config_messages(tmp_path, capsys):
    for argv, message in ((["limits", "--family", "power(x, y)", "--N", "abc"],
                           "N must be an integer, got 'abc'"),
                          (["limits", "--family", "power(x, y)", "--N", "8",
                            "--tol", "1/0"], "tolerance must be a rational")):
        code, _ = run_cli(tmp_path, *argv)
        assert code == 2
        assert message in capsys.readouterr().err
