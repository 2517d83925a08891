"""Tests of the benchmark's own parts: inputs, checks and tracer.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

import contextlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pytest  # noqa: E402

import sumred.algebra  # noqa: E402
import sumred.sigmafactor  # noqa: E402
from sumred import cli  # noqa: E402
from sumred.algebra import lift  # noqa: E402
from sumred.exprio import format_value, parse_expression  # noqa: E402
from sumred.reduction import ReductionContext  # noqa: E402
from sumred.telescope import (depth_reduce, parameterized_telescope,  # noqa: E402
                              telescope)
from sumred.towerfile import load_tower_file  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TOWERS = ROOT / "towers"


def _text(name):
    return inputs.TowerText((TOWERS / name).read_text())


def _streams(seed):
    return {
        "poly": inputs.poly_cases(_text("bench.tower"), seed),
        "session": inputs.session_cases(_text("nested.tower"), seed),
        "creative": inputs.creative_items(_text("nested.tower"), seed),
    }


# -- seeded inputs ----------------------------------------------------------

def test_one_seed_yields_identical_inputs_and_another_seed_differs():
    for name in ("poly", "session", "creative"):
        a = list(itertools.islice(_streams(7)[name], 25))
        b = list(itertools.islice(_streams(7)[name], 25))
        c = list(itertools.islice(_streams(8)[name], 25))
        assert a == b, name
        assert a != c, name


def test_second_seed_inputs_parse_and_have_the_stated_verdict():
    tt = _text("nested.tower")
    tower = load_tower_file(TOWERS / "nested.tower")
    for case in itertools.islice(inputs.session_cases(tt, 8), 4):
        f = parse_expression(tower, case.text(tt))
        assert telescope(ReductionContext(tower), f).summable == case.summable
    ptower = load_tower_file(TOWERS / "creative.tower")
    kind, fs = next(inputs.creative_items(tt, 8))
    assert kind == "param"
    for text in fs:
        parse_expression(ptower, text)


def test_rounds_cover_every_shift_once_per_round():
    shifts = list(itertools.islice(
        inputs._rounds(random.Random(1), range(-5, 6)), 22))
    assert sorted(shifts[:11]) == list(range(-5, 6))
    assert sorted(shifts[11:]) == list(range(-5, 6))


def test_every_round_adds_r0_to_a_third_of_the_inputs():
    for name, size in (("poly", 9), ("session", 21)):
        stream = _streams(3)[name]
        for _ in range(2):
            batch = list(itertools.islice(stream, size))
            assert sum(not case.summable for case in batch) == size // 3


def test_text_shift_inverts():
    tt = _text("nested.tower")
    tower = load_tower_file(TOWERS / "nested.tower")
    v = "t2/(t1+x)"
    back = parse_expression(tower, tt.shift(tt.shift(v, 3), -3))
    assert back == parse_expression(tower, v)
    assert parse_expression(tower, tt.delta(v)) == tower.delta(
        parse_expression(tower, v))


# -- output checks ----------------------------------------------------------

@pytest.fixture(scope="module")
def nested():
    return load_tower_file(TOWERS / "nested.tower")


def _pair(tower, v_text, c=None):
    case = inputs.Case(v_text) if c is None else inputs.Case(
        v_text, c, inputs.R0["session"])
    f = tower.delta(parse_expression(tower, v_text))
    if c is not None:
        f = f + lift(Fraction(c), tower.full_depth) * parse_expression(
            tower, inputs.R0["session"])
    return case, f


def test_right_pair_passes(nested):
    case, f = _pair(nested, "t1/(x+2) + 1/(t1+1/x)")
    res = telescope(ReductionContext(nested), f)
    assert checks.reduction(nested, case, f, res) == []


def test_corrupted_pair_is_caught(nested):
    case, f = _pair(nested, "t1/(x+2) + 1/(t1+1/x)")
    res = telescope(ReductionContext(nested), f)
    bump = parse_expression(nested, "1/x")
    bad_g = res._replace(g=res.g + bump)
    assert "sigma-pair identity" in checks.reduction(nested, case, f, bad_g)[0]
    bad_r = res._replace(r=res.r + bump, summable=False)
    problems = checks.reduction(nested, case, f, bad_r)
    assert any("identity" in p for p in problems)
    assert any("left a remainder" in p for p in problems)
    bad_flag = res._replace(summable=False)
    assert checks.reduction(nested, case, f, bad_flag) == [
        "summable flag disagrees with r"]


def test_wrong_verdict_and_wrong_session_remainder_are_caught(nested):
    case, f = _pair(nested, "x*t1", c="2")
    ctx = ReductionContext(nested)
    r0 = telescope(ctx, parse_expression(nested, inputs.R0["session"])).r
    res = telescope(ctx, f)
    two = lift(Fraction(2), nested.full_depth)
    assert checks.reduction(nested, case, f, res, two * r0) == []
    assert checks.reduction(nested, case, f, res, two * two * r0) == [
        "remainder differs from the remainder of c*r0"]
    zero = lift(Fraction(0), nested.full_depth)
    # claiming summable needs g to absorb r, which the identity then refutes
    problems = checks.reduction(nested, case, f,
                                res._replace(r=zero, summable=True))
    assert "non-summable input was reported summable" in problems


def test_corrupted_basis_row_and_depth_reduction_are_caught(nested):
    ptower = load_tower_file(TOWERS / "creative.tower")
    fs = [parse_expression(ptower, f"t1/(n-x+{j})") for j in (1, 2, 3)]
    basis = parameterized_telescope(ReductionContext(ptower), fs)
    assert checks.param_basis(ptower, fs, basis) == []
    row = basis[1]
    bad = [basis[0], row._replace(
        certificate=row.certificate + parse_expression(ptower, "1/x"))]
    assert checks.param_basis(ptower, fs, bad) == [
        "row 1: sum c_l f_l != Delta(g)"]

    f = parse_expression(nested, "t2/(x+1) + 1/t1")
    res = depth_reduce(ReductionContext(nested), f)
    assert checks.depth_reduced(nested, f, res) == []
    bump = parse_expression(res.iso.target, "1/x")
    assert checks.depth_reduced(nested, f, res._replace(g=res.g + bump))
    deeper = res._replace(depth_after=res.depth_before + 1)
    assert checks.depth_reduced(nested, f, deeper) == [
        "depth_reduce raised the nesting depth"]


def _verify(tower_path, text):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--tower", str(tower_path), "--expr", text,
                         "--json"])
    return code, buf.getvalue()


def test_verify_output_checks_exit_code_and_parsed_pair(nested):
    tt = _text("nested.tower")
    case, f = _pair(nested, "t1/(x+2)")
    code, out = _verify(TOWERS / "nested.tower", case.text(tt))
    assert checks.verify_output(nested, case, f, code, out) == (None, [])
    doc = json.loads(out)
    doc["g"] = format_value(nested, parse_expression(nested, doc["g"] + "+1/x"))
    _failure, problems = checks.verify_output(nested, case, f, 0,
                                              json.dumps(doc))
    assert any("identity" in p for p in problems)
    assert checks.verify_output(nested, case, f, 1, out)[1] == [
        "exit 1 without an error document"]
    typed = json.dumps({"error": {"type": "UnsupportedFactorizationError",
                                  "message": "cubic"}})
    assert checks.verify_output(nested, case, f, 2, typed) == (
        "UnsupportedFactorizationError", [])
    crash = json.dumps({"error": {"type": "ZeroDivisionError",
                                  "message": "x"}})
    assert checks.verify_output(nested, case, f, 2, crash)[1]


# -- measuring loop ---------------------------------------------------------

class _Stub(workloads.Workload):
    """Counts as wrong every second output."""

    name = "poly"
    round = 1

    def __init__(self):
        self.i = 0

    def reset(self):
        pass

    def next_item(self):
        self.i += 1
        return self.i

    def run(self, item):
        return item

    def check(self, item, out):
        return None, (["bad"] if item % 2 else [])


def test_wrong_outputs_are_counted_not_dropped():
    tally = workloads.run_pass(_Stub(), 1.0, count=6)
    assert tally.attempted == 6
    assert tally.certified == 3
    assert [i for i, _p in tally.wrong] == [0, 2, 4]
    assert tally.failed == 3


def test_times_are_scaled_by_the_reference_timings_around_them():
    ref = workloads.clock.REFERENCE_S
    ops = [(i, "certified", 0.01, []) for i in range(12)]
    # the host runs at the reference speed, then at half of it
    refs = [ref] * 6 + [2 * ref] * 7
    tally = workloads.Tally(ops, refs)
    times = [t for _i, _o, t, _p in tally.ops]
    assert times[:3] == [0.01] * 3
    assert times[-3:] == [0.005] * 3
    assert tally.busy == sum(times)


def test_time_limit_interrupts_a_long_operation():
    with pytest.raises(workloads.OpTimeout):
        with workloads.time_limit(0.05):
            while True:
                pass


# -- tracer -----------------------------------------------------------------

def test_traced_run_matches_untraced_with_exact_counts():
    tower = load_tower_file(TOWERS / "harmonic.tower")
    f = tower.delta(parse_expression(tower, "t1/(x+2)"))
    # the untraced call also fills algebra's caches of constants first
    plain = telescope(ReductionContext(tower), f)
    originals = (sumred.algebra.poly_gcd, sumred.sigmafactor.poly_gcd,
                 sumred.algebra.Poly.__mul__)
    tower = load_tower_file(TOWERS / "harmonic.tower")
    with spans.Tracer() as tracer:
        assert sumred.sigmafactor.poly_gcd is not originals[1]
        tracer.enabled = True
        traced = telescope(ReductionContext(tower), f)
        tracer.enabled = False
    assert (sumred.algebra.poly_gcd, sumred.sigmafactor.poly_gcd,
            sumred.algebra.Poly.__mul__) == originals
    assert traced == plain
    layers = tracer.layers()
    calls = {name: row["calls"] for name, row in layers.items()}
    assert calls == {
        "algebra.coprime_split": 1,
        "algebra.poly_gcd.d1": 19,
        "algebra.poly_xgcd": 1,
        "reduction.auxiliary_reduction": 1,
        "reduction.classify_den": 1,
        "reduction.complete_reduction": 2,
        "reduction.factor": 1,
        "reduction.reduce_polynomial": 1,
        "reduction.reduce_proper": 2,
        "sigmafactor.factor_monic": 1,
        "sigmafactor.shift_equivalence": 2,
        "tower.sigma_poly.l1": 26,
        "tower.sigma_poly.l2plus": 1,
    }
    assert dict(tracer.counts) == {
        "algebra.Poly.divmod.calls": 16,
        "algebra.Poly.mul.calls": 33,
        "algebra.RatFunc.init.calls": 38,
        "reduction.complete_reduction.above_params": 2,
        "reduction.new_representatives.count": 0,
        "sigmafactor.factor_monic.sigma_calls": 6,
        "sigmafactor.shift_equivalence.hits": 2,
        "tower.sigma_poly.l2plus.steps": 1,
    }
    for row in layers.values():
        assert row["self_ms"] >= 0.0
