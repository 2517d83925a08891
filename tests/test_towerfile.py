"""Tower description files: grammar, seeds, error reporting."""

from fractions import Fraction
from pathlib import Path

import pytest

from conftest import parse
from sumred.errors import ParseError
from sumred.towerfile import load_tower_file, parse_tower_text

TOWERS = Path(__file__).resolve().parent.parent / "towers"


def test_bundled_tower_files_load():
    harmonic = load_tower_file(TOWERS / "harmonic.tower")
    assert [g.name for g in harmonic.gens] == ["x", "t1"]
    assert harmonic.params == ()
    nested = load_tower_file(TOWERS / "nested.tower")
    assert [g.name for g in nested.gens] == ["x", "t1", "t2"]
    bench = load_tower_file(TOWERS / "bench.tower")
    assert [g.name for g in bench.gens] == ["x", "t1", "t2"]
    creative = load_tower_file(TOWERS / "creative.tower")
    assert creative.params == ("n",)
    assert creative.full_depth == 3
    # the nested increment really references the level below
    want = parse(nested, "((x+1)*t1+1)/(x+1)^2")
    assert nested.lift_to_top(nested.gens[2].delta) == want


def test_comments_and_blank_lines():
    spec = parse_tower_text(
        "# heading\n"
        "\n"
        "gen x : 1  # unit step\n"
        "seed x : x\n"
        "   \n"
        "gen t1 : 1/(x+1)\n")
    assert [g.name for g in spec.gens] == ["x", "t1"]
    assert spec.gens[0].delta == Fraction(1)


def test_seeds_reach_the_reduction_context():
    from sumred.reduction import ReductionContext
    spec = parse_tower_text(
        "gen x : 1\n"
        "seed x : x\n"
        "gen t1 : 1/(x+1)\n"
        "seed t1 : t1\n"
        "seed t1 : t1^2 - x\n")
    ctx = ReductionContext(spec)
    assert [p.degree() for p in ctx.reps.get(2, ())] == [1, 2]


def test_parameters_come_first():
    with pytest.raises(ParseError) as err:
        parse_tower_text("gen x : 1\nparams n\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_tower_text("params n\nparams m\ngen x : 1\n")
    assert err.value.line == 2


def test_error_lines_and_positions():
    with pytest.raises(ParseError) as err:
        parse_tower_text("gen x : 1\nbogus y : 2\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_tower_text("gen x\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_tower_text("gen x : 1\ngen t1 : 1/(x+\n")
    assert err.value.line == 2
    assert err.value.position is not None
    with pytest.raises(ParseError) as err:
        parse_tower_text("gen x : 1\nseed q : x\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="no generators"):
        parse_tower_text("# nothing here\n")
    with pytest.raises(ParseError, match="unknown directive") as err:
        parse_tower_text("option se_window 30\ngen x : 1\n")
    assert err.value.line == 1
    with pytest.raises(ParseError, match="not a polynomial"):
        parse_tower_text("gen x : 1\nseed x : 1/x\n")


def test_increments_may_not_use_later_generators():
    with pytest.raises(ParseError) as err:
        parse_tower_text("gen x : t1\ngen t1 : 1/(x+1)\n")
    assert err.value.line == 1
