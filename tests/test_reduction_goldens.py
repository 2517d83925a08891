"""Printed (g, r) and noted representatives of fixed library inputs.

tests/data/reduction_goldens.json holds, for every case, the canonical text
of g and r from complete_reduction and the new representatives its context
noted. The cases are:

 * shift: sigma^k(1/t1) - 1/t1 on the harmonic tower, k = +-1..+-8, each in
   a fresh context;
 * nested: level-2 shifts on the nested tower, all in one context, so that
   later inputs meet earlier representatives at nonzero shifts;
 * fresh / shared: seeded random values on five towers, each value once in
   a fresh context and once in one context shared by the tower's values;
 * poly: high-degree polynomial parts on the harmonic and nested towers,
   each in a fresh context, and two on a tower without seeds, each once in
   a fresh context and once in one shared context;
 * multi: proper parts with several pieces per shift class at shifts of
   both signs, one or two classes per denominator, on the harmonic and
   nested towers, each in a fresh context.

Every context is made on a fresh copy of its tower, so nothing another test
left in a tower's caches reaches these results. To rewrite the file after
an intended change of output:

    PYTHONPATH=src:tests python3 tests/test_reduction_goldens.py --write
"""

import json
import random
import sys
from pathlib import Path

from sumred.exprio import format_poly, format_value
from sumred.reduction import ReductionContext, complete_reduction
from sumred.tower import TowerSpec
from sumred.towerfile import load_tower_file, parse_tower_text

from conftest import B_TOWER, H_TOWER, N_TOWER, P_TOWER, parse, rand_value

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "data" / "reduction_goldens.json"

_RANDOM_TOWERS = {
    "H": H_TOWER,
    "N": N_TOWER,
    "B": B_TOWER,
    "P": P_TOWER,
    "unseeded": parse_tower_text("gen x : 1\ngen t1 : 1/(x+1)\n"),
}


def _copy(tower):
    return TowerSpec(tower.gens, params=tower.params)


def _printed(ctx, f):
    tower = ctx.tower
    before = len(ctx.notes)
    g, r = complete_reduction(ctx, f)
    notes = [f"level {level}: "
             + format_poly(tower, irr, tower.depth_of_level(level))
             for level, irr in ctx.notes[before:]]
    return {"g": format_value(tower, g), "r": format_value(tower, r),
            "notes": notes}


def _shift_cases():
    harmonic = load_tower_file(ROOT / "towers" / "harmonic.tower")
    for k in (1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8):
        tower = _copy(harmonic)
        inv = parse(tower, "1/t1")
        f = tower.sigma(inv, k) - inv
        yield f"shift {k}", _printed(ReductionContext(tower), f)


def _nested_cases():
    tower = _copy(load_tower_file(ROOT / "towers" / "nested.tower"))
    ctx = ReductionContext(tower)
    quad = parse(tower, "t1^2 + x")
    lin = parse(tower, "t1 + 1/x")
    for k in (2, -1, 5, -4, 0, 3):
        v = (parse(tower, "x*t2 + 1/(x+2)")
             + 3 / tower.sigma(quad, k) + tower.sigma(lin, -k) / (k + 7))
        yield f"nested delta {k}", _printed(ctx, tower.delta(v))
    for k in (1, -2):
        f = (parse(tower, "t2") / tower.sigma(quad, k)
             + parse(tower, "x") / tower.sigma(lin, k + 1))
        yield f"nested rest {k}", _printed(ctx, f)


def _random_cases():
    for seed, (name, tower) in enumerate(_RANDOM_TOWERS.items(), 1800):
        rng = random.Random(seed)
        values = [rand_value(tower, rng) for _ in range(4)]
        shared = ReductionContext(_copy(tower))
        for i, f in enumerate(values):
            yield (f"fresh {name} {i}",
                   _printed(ReductionContext(_copy(tower)), f))
            yield f"shared {name} {i}", _printed(shared, f)


def _poly_cases():
    harmonic = load_tower_file(ROOT / "towers" / "harmonic.tower")
    nested = load_tower_file(ROOT / "towers" / "nested.tower")
    for tower, text in ((harmonic, "x^40"), (harmonic, "t1^12"),
                        (harmonic, "x^6*t1^5 + t1^3/(x+2)"),
                        (nested, "t2^6*t1^2")):
        tower = _copy(tower)
        yield f"poly {text}", _printed(ReductionContext(tower),
                                       parse(tower, text))
    unseeded = _RANDOM_TOWERS["unseeded"]
    shared = ReductionContext(_copy(unseeded))
    for text in ("x^2*t1^4 + t1^2/(x+2)", "t1^3/(x^2+1) + t1/(x+3)^2"):
        f = parse(unseeded, text)
        yield (f"fresh unseeded {text}",
               _printed(ReductionContext(_copy(unseeded)), f))
        yield f"shared unseeded {text}", _printed(shared, f)


# per case: a tower file and its pieces (numerator, rep, shift, mult), each
# numerator / sigma^shift(rep)^mult
MULTI_CASES = (
    ("harmonic.tower", (("1", "t1", -3, 1), ("x", "t1", -1, 1),
                        ("2/(x+3)", "t1", 0, 1), ("-1", "t1", 2, 1),
                        ("3", "t1", 5, 1))),
    ("harmonic.tower", (("t1", "t1", -2, 2), ("1", "t1", -1, 1),
                        ("x", "t1", 1, 2), ("1/(x+1)", "t1", 3, 1),
                        ("2*t1 + x", "t1", 4, 2))),
    # the e's cancel in r
    ("harmonic.tower", (("1", "t1", -1, 1), ("-1", "t1", 2, 1),
                        ("5", "t1", 3, 2), ("-5", "t1", -2, 2))),
    ("harmonic.tower", (("1", "t1", -2, 1), ("x", "t1^2 + x", 3, 1),
                        ("1", "t1^2 + x", -1, 1), ("1/x", "t1", 4, 1),
                        ("t1", "t1^2 + x", 0, 1), ("3", "t1", 1, 1))),
    ("harmonic.tower", (("1", "x", -4, 2), ("-2", "x", -2, 1),
                        ("3", "x", 1, 1), ("x", "x", 3, 2), ("1", "x", 6, 1),
                        ("1", "t1", 2, 1))),
    ("nested.tower", (("1", "t2", -2, 1), ("t1", "t2", -1, 1),
                      ("1", "t2", 0, 1), ("x/(t1+1)", "t2", 1, 1),
                      ("-1", "t2", 3, 1))),
    ("nested.tower", (("1", "t2", -1, 1), ("x", "t2 + 1/x", 2, 1),
                      ("t1", "t2 + 1/x", -2, 1), ("1", "t2", 3, 2),
                      ("2", "t2 + 1/x", 0, 1))),
    ("nested.tower", (("1", "t1^2 + x", -2, 1), ("x", "t1^2 + x", -1, 1),
                      ("1", "t1^2 + x", 0, 1), ("2/(x+3)", "t1^2 + x", 2, 1),
                      ("1", "t1^2 + x", 3, 1), ("x", "t1", 1, 2))),
)


def multi_value(tower, pieces):
    f = 0
    for num, rep, shift, mult in pieces:
        f = f + parse(tower, num) / tower.sigma(parse(tower, rep),
                                                shift) ** mult
    return f


def _multi_cases():
    for i, (name, pieces) in enumerate(MULTI_CASES):
        tower = load_tower_file(ROOT / "towers" / name)
        yield (f"multi {name} {i}",
               _printed(ReductionContext(tower), multi_value(tower, pieces)))


def compute():
    """Every case as {"id", "g", "r", "notes"}, in a fixed order."""
    out = []
    for cases in (_shift_cases, _nested_cases, _random_cases, _poly_cases,
                  _multi_cases):
        for case_id, printed in cases():
            out.append({"id": case_id, **printed})
    return out


def test_library_outputs_match_the_goldens():
    expected = json.loads(GOLDENS.read_text())
    got = compute()
    assert [c["id"] for c in got] == [c["id"] for c in expected]
    for have, want in zip(got, expected):
        assert have == want, have["id"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_reduction_goldens.py --write")
    GOLDENS.write_text(json.dumps(compute(), indent=1) + "\n")
