"""The command line: JSON documents and exit codes."""

import json
from pathlib import Path

import pytest

from sumred import cli

HARMONIC = str(Path(__file__).resolve().parent.parent / "towers" / "harmonic.tower")


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
