"""The command line: JSON documents, text output and exit codes."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sumred import algebra, cli
from sumred.algebra import set_int_cap
from sumred.errors import IntegerLimitError
from sumred.exprio import parse_expression
from sumred.towerfile import load_tower_file, parse_tower_text

from conftest import H_TOWER

ROOT = Path(__file__).resolve().parent.parent
HARMONIC = str(ROOT / "towers" / "harmonic.tower")
CREATIVE = str(ROOT / "towers" / "creative.tower")

# --json documents of commands on the bundled towers, timing_ms left out.
# They cover reduce, telescope, param-telescope, sigma-check, depth-reduce,
# well-generate and verify, with level-2 and level-3 denominators shifted
# both ways and one --seed-reps run; every value in them is canonical, so
# any change to these strings is a change of behaviour.
GOLDENS = json.loads((ROOT / "tests" / "data" / "cli_goldens.json").read_text())

# Text output of the argv of GOLDENS and of paths that end in exit 1
# (--require-summable) or exit 2 (usage errors, verify failures), bench
# included: stdout and stderr with the time line dropped and every other
# "<number> ms" masked. An entry with "g_plus" adds that value to the g
# verify checks, so that its pointwise check fails and prints the report.
TEXT_GOLDENS = json.loads(
    (ROOT / "tests" / "data" / "cli_text_goldens.json").read_text())


def shifted_pair(k):
    """sigma^k(1/t1) - 1/t1 on harmonic.tower, a summable element."""
    shift = " + ".join(f"1/(x+{j})" for j in range(1, k + 1))
    return f"1/(t1 + {shift}) - 1/t1"


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("k", [6, 10])
def test_reduce_shifted_reciprocal_is_summable(capsys, k):
    code, doc = run_json(capsys, ["reduce", "--tower", HARMONIC,
                                  "--expr", shifted_pair(k)])
    assert code == 0
    assert doc["command"] == "reduce"
    assert doc["summable"] is True
    assert doc["r"] == "0"


def test_reduce_parse_error_is_a_typed_document(capsys):
    code, doc = run_json(capsys, ["reduce", "--tower", HARMONIC,
                                  "--expr", "1/(t3+x)"])
    assert code == 2
    assert doc["command"] == "reduce"
    assert doc["error"]["type"] == "ParseError"
    assert "t3" in doc["error"]["message"]


@pytest.mark.parametrize("tower,extra,needle", [
    (HARMONIC, ["--verify-range", "0..5", "--start", "3"], "--start 3"),
    (CREATIVE, [], "missing parameter"),
    (HARMONIC, ["--init", "zz=1"], "unknown generator"),
    (HARMONIC, ["--param", "n=1"], "unknown parameters"),
    (HARMONIC, ["--init", "t1=1/0"], "'t1=1/0'"),
    (CREATIVE, ["--param", "n=1/0"], "'n=1/0'"),
], ids=["range-before-start", "missing-param", "unknown-init",
        "unknown-param", "zero-denominator-init", "zero-denominator-param"])
def test_verify_usage_error_is_a_typed_document(capsys, tower, extra, needle):
    code, doc = run_json(capsys, ["verify", "--tower", tower,
                                  "--expr", "1/t1"] + extra)
    assert code == 2
    assert doc["command"] == "verify"
    assert doc["error"]["type"] == "ParseError"
    assert needle in doc["error"]["message"]


# a tower text (with a newline) is written to a file first; None drops --tower
@pytest.mark.parametrize("tower,argv,kind,message", [
    (HARMONIC, ["reduce", "--expr", "x$1"], "ParseError",
     "bad character '$' at column 2"),
    (HARMONIC, ["reduce", "--expr", ")"], "ParseError",
     "expected a value, found ')' at column 1"),
    (HARMONIC, ["reduce", "--expr", "x^y"], "ParseError",
     "expected an integer exponent, found 'y' at column 3"),
    (HARMONIC, ["reduce", "--expr", "x^(2"], "ParseError",
     "expected ')', found end of input at column 5"),
    (HARMONIC, ["reduce", "--expr", "0^-1"], "ParseError",
     "zero raised to a negative power at column 2"),
    (HARMONIC, ["verify", "--expr", "1/t1", "--verify-range", "5"],
     "ParseError", "--verify-range wants A..B, got '5'"),
    (HARMONIC, ["verify", "--expr", "1/t1", "--verify-range", "a..b"],
     "ParseError", "--verify-range wants integers, got 'a..b'"),
    (HARMONIC, ["verify", "--expr", "1/t1", "--verify-range", "5..1"],
     "ParseError", "--verify-range is empty"),
    (HARMONIC, ["verify", "--expr", "1/t1", "--param", "n"], "ParseError",
     "expected NAME=VALUE, got 'n'"),
    (None, ["reduce", "--expr", "x"], "ParseError",
     "--tower FILE is required"),
    ("params 1n\ngen x : 1\n", ["reduce", "--expr", "x"],
     "InvalidTowerError", "bad parameter name '1n'"),
    ("gen x : 1\ngen x : 1\n", ["reduce", "--expr", "x"],
     "InvalidTowerError", "duplicate name 'x'"),
    ("gen x : 1\ngen t1 : 1/x - 1/(x+1)\n", ["reduce", "--expr", "t1"],
     "InvalidTowerError", "increment of 't1' is a difference of elements "
     "below it; the tower level is redundant"),
], ids=["bad-character", "no-value", "non-integer-exponent", "unclosed",
        "zero-to-negative-power", "range-without-dots", "range-not-integers",
        "empty-range", "param-without-value", "no-tower", "bad-param-name",
        "duplicate-generator", "redundant-level"])
def test_typed_error_exits(capsys, tmp_path, tower, argv, kind, message):
    if tower is not None and "\n" in tower:
        path = tmp_path / "t.tower"
        path.write_text(tower)
        tower = str(path)
    if tower is not None:
        argv = argv[:1] + ["--tower", tower] + argv[1:]
    code, doc = run_json(capsys, argv)
    assert code == 2
    assert doc["command"] == argv[0]
    assert doc["error"] == {"type": kind, "message": message}


def test_reduce_irreducible_cubic_above_the_bottom(capsys):
    code, doc = run_json(capsys, ["reduce", "--tower", HARMONIC,
                                  "--expr", "1/(t1^3+x)"])
    assert code == 0
    assert doc["summable"] is False
    assert doc["r"] == "1/(t1^3 + x)"
    # its difference sigma(f) - f is summable
    code, doc = run_json(capsys, ["reduce", "--tower", HARMONIC, "--expr",
                                  "1/((t1 + 1/(x+1))^3 + x + 1) - 1/(t1^3+x)"])
    assert code == 0
    assert doc["summable"] is True
    assert doc["r"] == "0"


# the level-2 increment has lower-level content 1/(x+1), a shift of the
# representative x, so the pivot coordinate is read outside the classes
LOWER_SHIFT_TOWER = ("gen x : 1\n"
                     "seed x : x\n"
                     "gen t1 : 1/(x+1)\n"
                     "gen t2 : 1/((x+1)*t1)\n")


def test_reduce_pivots_on_lower_content_outside_the_classes(capsys, tmp_path):
    path = tmp_path / "lower.tower"
    path.write_text(LOWER_SHIFT_TOWER)
    code, doc = run_json(capsys, ["reduce", "--tower", str(path),
                                  "--expr", "t2^2 - t2"])
    assert code == 0
    tower = load_tower_file(path)
    f, g, r = (parse_expression(tower, s)
               for s in (doc["inputs"][0], doc["g"], doc["r"]))
    assert tower.delta(g) + r == f


def test_param_telescope_reads_coordinates_outside_the_classes(capsys):
    code, doc = run_json(capsys, ["param-telescope", "--tower", HARMONIC,
                                  "--expr", "1/(x*t1)",
                                  "--expr", "1/((x+1)*t1)",
                                  "--expr", "1/((x+1)*t1) - 1/(x*t1-1)"])
    assert code == 0
    rows = [row for row in doc["basis"]
            if any(c != "0" for c in row["coeffs"])]
    assert rows == [{"coeffs": ["0", "0", "1"], "g": "1/(x*t1 - 1)"}]


# 2^(4L) has about 1.2 L decimal digits, past Python's limit of L digits
# for converting between integers and text; so do L + 700 nines. The test
# sets L itself, since the interpreter's limit can be changed or switched off.
DIGIT_LIMIT = 4300


@pytest.fixture
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("expr", [f"2^{4 * DIGIT_LIMIT}",
                                  "9" * (DIGIT_LIMIT + 700) + " + x"],
                         ids=["printed", "parsed"])
def test_reduce_huge_integer_is_a_typed_document(capsys, digit_limit, expr):
    code, doc = run_json(capsys, ["reduce", "--tower", HARMONIC,
                                  "--expr", expr])
    assert code == 2
    assert doc["error"]["type"] == "IntegerLimitError"
    assert str(DIGIT_LIMIT) in doc["error"]["message"]


def test_bench_reports_summable_rows(capsys):
    code, doc = run_json(capsys, ["bench", "--degrees", "3", "--trials", "1"])
    assert code == 0
    assert doc["command"] == "bench"
    assert [(row["degree"], row["trials"], row["all_summable"])
            for row in doc["bench"]] == [(3, 1, True)]


def test_bench_checks_the_g_it_times(capsys, monkeypatch):
    reduce = cli.complete_reduction

    def wrong_g(ctx, f):
        g, r = reduce(ctx, f)
        return g + g, r

    monkeypatch.setattr(cli, "complete_reduction", wrong_g)
    code, doc = run_json(capsys, ["bench", "--degrees", "3", "--trials", "1"])
    assert code == 2
    assert doc["error"]["type"] == "SummationError"
    assert "sigma(g) - g != f" in doc["error"]["message"]


@pytest.mark.parametrize("extra,needle", [
    (["--trials", "0"], "--trials"),
    (["--degrees", "x"], "--degrees"),
    (["--degrees", "3,-1"], ">= 0"),
    (["--degrees", ""], "at least one degree"),
], ids=["no-trials", "non-integer-degree", "negative-degree", "no-degree"])
def test_bench_usage_error_is_a_typed_document(capsys, extra, needle):
    code, doc = run_json(capsys, ["bench", "--degrees", "3", "--trials", "1"]
                         + extra)
    assert code == 2
    assert doc["command"] == "bench"
    assert doc["error"]["type"] == "ParseError"
    assert needle in doc["error"]["message"]


def test_bench_default_tower_is_the_bundled_file():
    # `bench` without --tower reads the inline copy of towers/bench.tower
    def shape(tower):
        return tower.params, [(g.name, g.delta, g.seed_reps)
                              for g in tower.gens]

    inline = parse_tower_text(cli._BENCH_TOWER)
    bundled = load_tower_file(ROOT / "towers" / "bench.tower")
    assert shape(inline) == shape(bundled)


# argv for which argparse prints help, a usage error or an unknown command;
# the last three end in an unrecognized argument after a subcommand, which
# prints the top-level usage
PARSER_ARGVS = ([[], ["--help"], ["nosuch"], ["-h", "verify"]]
                + [[name, "--help"] for name in cli._SUBCOMMANDS]
                + [[name, "--bogus"] for name in cli._SUBCOMMANDS]
                + [["verify", "--expr", "x", "--bogus"],
                   ["param-telescope", "--expr", "x", "--bogus"],
                   ["bench", "--degrees", "3", "--bogus"]])


def _printed(capsys, parse, argv):
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


@pytest.mark.parametrize("argv", PARSER_ARGVS,
                         ids=[" ".join(a) or "none" for a in PARSER_ARGVS])
def test_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    # main builds only the invoked subcommand's parser; every text and exit
    # code must be the one of the parser holding all subcommands
    monkeypatch.setenv("COLUMNS", "80")
    full = _printed(capsys, cli._build_parser().parse_args, argv)
    assert _printed(capsys, cli.main, argv) == full
    code, out, err = full
    asks_help = "--help" in argv or "-h" in argv
    assert code == (0 if asks_help else 2)
    assert (out if asks_help else err).startswith("usage: sumred")
    if argv in ([], ["--help"], ["verify", "--expr", "x", "--bogus"]):
        assert all(name in out + err for name in cli._SUBCOMMANDS)


@pytest.mark.parametrize("golden", GOLDENS,
                         ids=[f"{i}-{g['argv'][0]}" for i, g in enumerate(GOLDENS)])
def test_json_documents_match_the_goldens(capsys, monkeypatch, golden):
    # tower paths are relative to the repository root and echoed back
    monkeypatch.chdir(ROOT)
    code, doc = run_json(capsys, golden["argv"])
    doc.pop("timing_ms", None)
    assert code == golden["code"]
    assert doc == golden["doc"]


def _masked(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("time: ")]
    return re.sub(r"\d+(\.\d+)? ms\b", "# ms", "\n".join(lines))


@pytest.mark.parametrize("golden", TEXT_GOLDENS, ids=[
    f"{i}-{g['argv'][0]}" for i, g in enumerate(TEXT_GOLDENS)])
def test_text_output_matches_the_goldens(capsys, monkeypatch, golden):
    monkeypatch.chdir(ROOT)
    if "g_plus" in golden:
        real = cli.telescope

        def shifted(ctx, f):
            res = real(ctx, f)
            return res._replace(
                g=res.g + parse_expression(ctx.tower, golden["g_plus"]))

        monkeypatch.setattr(cli, "telescope", shifted)
    code = cli.main(golden["argv"])
    out = capsys.readouterr()
    assert code == golden["code"]
    assert _masked(out.out) == golden["stdout"]
    assert _masked(out.err) == golden["stderr"]


@pytest.mark.parametrize("seed,kind,needle", [
    ("t1", "ParseError", "NAME:EXPR"),
    ("zz:x", "ParseError", "unknown generators"),
    ("t1:1/t1", "ParseError", "not a polynomial"),
    ("x:x+t1", "ParseError", "higher generators"),
    ("t1:t1^2-1/x^2", "InvalidTowerError", "irreducible"),
], ids=["no-colon", "unknown-generator", "not-a-polynomial",
        "higher-generator", "reducible"])
def test_seed_reps_error_is_a_typed_document(capsys, seed, kind, needle):
    code, doc = run_json(capsys, ["reduce", "--tower", HARMONIC,
                                  "--seed-reps", seed, "--expr", "1/t1"])
    assert code == 2
    assert doc["command"] == "reduce"
    assert doc["error"]["type"] == kind
    assert needle in doc["error"]["message"]


@pytest.mark.parametrize("value,kind,needle", [
    ("abc", "ParseError", "SUMRED_MAX_INT_BITS wants a positive integer"),
    ("0", "ParseError", "SUMRED_MAX_INT_BITS wants a positive integer"),
    ("8", "IntegerLimitError", "cap of 8 bits"),
], ids=["not-a-number", "zero", "cap"])
def test_int_cap_from_the_environment(capsys, monkeypatch, value, kind,
                                      needle):
    monkeypatch.setenv("SUMRED_MAX_INT_BITS", value)
    code, doc = run_json(capsys, ["reduce", "--tower", HARMONIC,
                                  "--expr", "1000/t1"])
    assert code == 2
    assert doc["error"]["type"] == kind
    assert needle in doc["error"]["message"]
    # the environment's cap held for that run only
    assert algebra._INT_CAP is None
    Fraction(2) ** 100 * parse_expression(H_TOWER, "x")


def test_main_keeps_the_callers_int_cap(capsys, monkeypatch):
    monkeypatch.delenv("SUMRED_MAX_INT_BITS", raising=False)
    set_int_cap(64)
    try:
        code, _doc = run_json(capsys, ["reduce", "--tower", HARMONIC,
                                       "--expr", "1/t1"])
        assert code == 0
        assert algebra._INT_CAP == 64
        with pytest.raises(IntegerLimitError):
            Fraction(2) ** 100 * parse_expression(H_TOWER, "x")
    finally:
        set_int_cap(None)


def test_import_ignores_a_malformed_int_cap(monkeypatch):
    monkeypatch.setenv("SUMRED_MAX_INT_BITS", "abc")
    code = ("import sumred.algebra, sumred.cli; "
            "print(sumred.algebra._INT_CAP)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ,
                                         "PYTHONPATH": str(ROOT / "src")})
    assert (out.returncode, out.stdout) == (0, "None\n")


def test_module_entry_point_runs_a_command():
    out = subprocess.run(
        [sys.executable, "-m", "sumred", "reduce", "--tower", HARMONIC,
         "--expr", "1/x", "--json"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert (doc["command"], doc["g"], doc["r"]) == ("reduce", "t1 - 1/x", "0")


def test_sigma_check_above_the_top_level_is_a_typed_document(capsys):
    code, doc = run_json(capsys, ["sigma-check", "--tower", HARMONIC,
                                  "--expr", "1/(x+1)", "--level", "5"])
    assert code == 2
    assert doc["command"] == "sigma-check"
    assert doc["error"]["type"] == "InvalidTowerError"
    assert "level 5" in doc["error"]["message"]


def test_missing_tower_file_is_a_typed_document(capsys, tmp_path):
    missing = str(tmp_path / "nope.tower")
    code, doc = run_json(capsys, ["reduce", "--tower", missing,
                                  "--expr", "x"])
    assert code == 2
    assert doc["command"] == "reduce"
    assert doc["error"]["type"] == "ParseError"
    assert missing in doc["error"]["message"]


NESTED = str(ROOT / "towers" / "nested.tower")


@pytest.mark.parametrize("argv,option", [
    (["reduce", "--tower", NESTED, "--expr", "-1/x"], "--expr"),
    (["param-telescope", "--tower", CREATIVE, "--expr", "t1/(n-x+2)",
      "--expr", "-t1/(n-x+3)"], "--expr"),
    (["verify", "--tower", NESTED, "--expr", "-x*t1", "--start", "-2",
      "--verify-range", "-2..3"], "--verify-range"),
], ids=["reduce", "param-telescope", "verify"])
def test_option_values_may_begin_with_a_dash(capsys, argv, option):
    # the printer emits such strings, so they must read back as values
    code, doc = run_json(capsys, argv)
    assert code == 0 and "error" not in doc
    # the same document as the --option=value form, which argparse reads
    i = len(argv) - 1 - argv[::-1].index(option)
    joined = argv[:i] + [f"{option}={argv[i + 1]}"] + argv[i + 2:]
    code2, doc2 = run_json(capsys, joined)
    doc.pop("timing_ms")
    doc2.pop("timing_ms")
    assert (code2, doc2) == (code, doc)
    if argv[0] == "verify":
        assert doc["verification"]["range"] == [-2, 3]


@pytest.mark.parametrize("argv", [
    ["reduce", "--expr", "-h"],
    ["reduce", "--expr", "--json"],
    ["reduce", "--expr", "--js"],
    ["reduce", "--expr", "--"],
    ["verify", "--expr", "x", "--verify-range"],
], ids=["help", "option", "abbreviation", "separator", "missing"])
def test_an_option_string_is_never_taken_as_a_value(capsys, argv):
    full = _printed(capsys, cli._build_parser().parse_args, argv)
    assert full[0] == 2
    assert _printed(capsys, cli.main, argv) == full
