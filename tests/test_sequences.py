"""Exact sequence evaluation and numeric verification of engine output."""

import random
from fractions import Fraction

import pytest

from conftest import (H_TOWER, N_TOWER, P_TOWER, Q_TOWER, delta, parse,
                      rand_value)
import sumred.sequences as sequences
from sumred.algebra import Poly, RatFunc, zero_at
from sumred.reduction import ReductionContext, complete_reduction
from sumred.sequences import (POLE, SequenceAssignment, _compile, _eval_at,
                              _Pole, eval_sequence, fit_rational,
                              verify_recurrence, verify_sigma_pair)
from sumred.towerfile import parse_tower_text


def _harmonics(n, power=1):
    return sum(Fraction(1, j ** power) for j in range(1, n + 1))


def test_harmonic_orbit():
    assign = SequenceAssignment(H_TOWER, start=0)
    got = eval_sequence(H_TOWER, parse(H_TOWER, "t1"), assign, 0, 3)
    assert got == [(0, Fraction(0)), (1, Fraction(1)),
                   (2, Fraction(3, 2)), (3, Fraction(11, 6))]
    xs = eval_sequence(H_TOWER, parse(H_TOWER, "x"), assign, 0, 4)
    assert all(v == k for k, v in xs)
    # a constant increment pins the default start value of the generator
    late = SequenceAssignment(H_TOWER, start=3)
    assert eval_sequence(H_TOWER, parse(H_TOWER, "x"), late, 3, 5) == [
        (3, Fraction(3)), (4, Fraction(4)), (5, Fraction(5))]
    # explicit initial values win over the defaults
    shifted = SequenceAssignment(H_TOWER, inits={"t1": 10})
    got = eval_sequence(H_TOWER, parse(H_TOWER, "t1"), shifted, 0, 2)
    assert got == [(0, Fraction(10)), (1, Fraction(11)), (2, Fraction(23, 2))]


def test_assignment_validation():
    with pytest.raises(ValueError, match="missing parameter"):
        SequenceAssignment(P_TOWER)
    with pytest.raises(ValueError, match="unknown parameters"):
        SequenceAssignment(P_TOWER, params={"n": 1, "m": 2})
    with pytest.raises(ValueError, match="unknown generator"):
        SequenceAssignment(H_TOWER, inits={"t9": 1})
    with pytest.raises(ValueError, match="empty"):
        eval_sequence(Q_TOWER, parse(Q_TOWER, "x"),
                      SequenceAssignment(Q_TOWER), 5, 4)
    with pytest.raises(ValueError, match="start"):
        eval_sequence(Q_TOWER, parse(Q_TOWER, "x"),
                      SequenceAssignment(Q_TOWER, start=2), 0, 4)


def test_pole_marking():
    assign = SequenceAssignment(Q_TOWER)
    got = eval_sequence(Q_TOWER, parse(Q_TOWER, "1/(x-2)"), assign, 0, 4)
    vals = dict(got)
    assert vals[2] is POLE
    assert vals[1] == Fraction(-1) and vals[3] == Fraction(1)


def test_pole_poisons_later_generator_values():
    tower = parse_tower_text("gen x : 1\nseed x : x\ngen s : 1/(x-2)\n")
    assign = SequenceAssignment(tower)
    got = dict(eval_sequence(tower, parse(tower, "s"), assign, 0, 5))
    assert got[0] == Fraction(0)
    assert got[1] == Fraction(-1, 2)
    assert got[2] == Fraction(-3, 2)
    assert got[3] is POLE and got[5] is POLE
    # the bottom variable itself stays well defined
    xs = dict(eval_sequence(tower, parse(tower, "x"), assign, 0, 5))
    assert xs[5] == Fraction(5)


def test_verify_golden_pairs():
    ctx = ReductionContext(H_TOWER)
    f = parse(H_TOWER, "(x*(x^2+5*x+4)*t1^3 + (x^2+4*x+1)*t1^2"
                       " - (x+1)^2*t1^4 - x - 2*x^2 - x^3)"
                       "/(x*(1+x)^2*(1+t1+t1*x)*t1)")
    pair = complete_reduction(ctx, f)
    rep = verify_sigma_pair(H_TOWER, f, pair,
                            SequenceAssignment(H_TOWER), 1, 50)
    assert rep.checked == 50 and rep.skipped == 0 and rep.failures == []

    ctxn = ReductionContext(N_TOWER)
    fn = parse(N_TOWER, "t2/x")
    pairn = complete_reduction(ctxn, fn)
    repn = verify_sigma_pair(N_TOWER, fn, pairn,
                             SequenceAssignment(N_TOWER), 1, 50)
    assert repn.checked == 50 and repn.skipped == 0 and repn.failures == []


def test_verify_flags_a_corrupted_pair():
    ctx = ReductionContext(N_TOWER)
    f = parse(N_TOWER, "t2/x")
    g, r = complete_reduction(ctx, f)
    assign = SequenceAssignment(N_TOWER)
    bad = verify_sigma_pair(N_TOWER, f, (g + parse(N_TOWER, "1/x"), r),
                            assign, 1, 10)
    assert bad.failures
    bad2 = verify_sigma_pair(N_TOWER, f, (g, r + Fraction(1)), assign, 1, 10)
    assert len(bad2.failures) == 10


def _fraction_horner(v, vals):
    """Reference evaluator: Horner in Fraction, one reduction per step."""
    def val(u):
        if isinstance(u, Fraction):
            return u
        den = pol(u.den, u.depth)
        if den == 0:
            raise _Pole
        return pol(u.num, u.depth) / den

    def pol(p, depth):
        point = vals.get(depth)
        if point is None:
            if p.degree() == 0:
                return val(p.coeffs[0])
            raise _Pole
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * point + val(c)
        return acc

    return val(v)


def _outcome(evaluate, v, vals):
    try:
        return evaluate(v, vals)
    except _Pole:
        return POLE


@pytest.mark.parametrize("tower", [N_TOWER, P_TOWER], ids=["N", "P"])
def test_integer_pair_evaluator_matches_fraction_horner(tower):
    rng = random.Random(140)
    depth = tower.full_depth
    # 1/(x-1) has a pole at x = 1, (x-2)/(x+3) a zero at x = 2; the
    # polynomials in one variable stay defined when everything below it is
    # poisoned, t1^2 + 1 through a zero coefficient
    fixed = [parse(tower, text) for text in (
        "1/(x-1) + t1", "(x-2)/(x+3)", "x^2 - 3*x + 1/2", "t1^2 + 1",
        "t1^2 - 3*t1 + 1/2")]
    fixed += [zero_at(d) for d in range(depth + 1)]
    values = fixed + [rand_value(tower, rng) for _ in range(30)]
    seen = {"pole": 0, "zero": 0, "value": 0, "value over poisoned 1": 0}
    seen.update({f"poisoned {d}": 0 for d in range(1, depth + 1)})
    for v in values:
        # one evaluator for all points, so that the coefficient view it
        # builds once depth 1 is poisoned is reused at later points
        compiled = _compile(v)
        for _ in range(12):
            vals = {d: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for d in range(1, depth + 1)}
            for d in vals:
                if rng.random() < 0.2:
                    vals[d] = None
                    seen[f"poisoned {d}"] += 1
            got = _outcome(_fraction_horner, v, vals)
            assert _outcome(_eval_at, v, vals) == got
            assert _outcome(lambda _v, at: Fraction(*compiled(at)),
                            v, vals) == got
            if got is POLE:
                seen["pole"] += 1
            else:
                seen["zero" if got == 0 else "value"] += 1
                if vals[1] is None:
                    seen["value over poisoned 1"] += 1
    assert min(seen.values()) > 0, seen


def _three_walks(tower, f, pair, assign, k_from, k_to):
    """Reference pointwise check: one eval_sequence walk each for f, g, r."""
    g, r = pair
    fv = dict(eval_sequence(tower, f, assign, k_from, k_to))
    gv = dict(eval_sequence(tower, g, assign, k_from, k_to + 1))
    rv = dict(eval_sequence(tower, r, assign, k_from, k_to))
    checked = skipped = 0
    failures = []
    for k in range(k_from, k_to + 1):
        parts = (fv[k], gv[k + 1], gv[k], rv[k])
        if any(p is POLE for p in parts):
            skipped += 1
            continue
        checked += 1
        resid = parts[0] - (parts[1] - parts[2] + parts[3])
        if resid != 0:
            failures.append((k, resid))
    return (checked, skipped, failures)


_POISON_TOWER = parse_tower_text("gen x : 1\nseed x : x\ngen s : 1/(x-2)\n")


_N_TEXTS = ["t2/x", "1/(x-3) + t1^2/(t1+1)", "t2^2/(x+1) + 1/(t1-2)"]


_P_TEXTS = ["t1/(n-x)", "x*t1/(x+n)^2"]


@pytest.mark.parametrize("tower,params,texts,start,inits", [
    (N_TOWER, {}, _N_TEXTS, 0, {}),
    (P_TOWER, {"n": 5}, _P_TEXTS, 0, {}),
    (_POISON_TOWER, {}, ["s^2 - s", "x*s"], 0, {}),
    # x and several denominators are negative, and t1 (so t2) is poisoned
    # after x = -1, where its increment 1/(x+1) has a pole
    (N_TOWER, {}, _N_TEXTS + ["1/(x+2) - t1/(x-1)", "1/(x^2+1)"], -5, {}),
    # x is not an integer at any index; 1/(2*x-5) has a pole at x = 5/2
    (N_TOWER, {}, _N_TEXTS + ["1/(2*x-5) + t1"], 0, {"x": Fraction(1, 2)}),
    # n is not an integer; n - x and x + n never vanish, n - x + 1/2 does
    (P_TOWER, {"n": Fraction(7, 2)}, _P_TEXTS + ["t1/(2*n-2*x+1)"], 0, {}),
], ids=["N", "P", "poisoned", "N-negative", "N-half", "P-half"])
def test_one_orbit_check_matches_three_walks(tower, params, texts, start,
                                             inits):
    ctx = ReductionContext(tower)
    assign = SequenceAssignment(tower, start=start, params=params,
                                inits=inits)
    k_from, k_to = start, start + 9
    skipped = 0
    for text in texts:
        f = parse(tower, text)
        g, r = complete_reduction(ctx, f)
        # the pair and two corrupted ones; x^2 - 2 changes sign between
        # x = 1 and 2 and between x = -2 and -1, so the unreduced
        # denominators of g(k) and g(k+1) differ in sign there
        for pair in ((g, r), (g + parse(tower, "1/(x+4)"), r),
                     (g - parse(tower, "1/(x^2-2)"), r)):
            rep = verify_sigma_pair(tower, f, pair, assign, k_from, k_to)
            assert tuple(rep) == _three_walks(tower, f, pair, assign,
                                              k_from, k_to)
            skipped += rep.skipped
        assert rep.failures  # a corrupted pair
    assert skipped > 0


def test_verify_reads_each_stored_form_once(monkeypatch):
    # each value is compiled once per check, whatever the length of the range
    ctx = ReductionContext(N_TOWER)
    f = parse(N_TOWER, "t2/x + 1/(t1+1)")
    pair = complete_reduction(ctx, f)
    assign = SequenceAssignment(N_TOWER)
    calls = []
    as_integers = Poly.as_integers

    def counted(p):
        calls.append(p)
        return as_integers(p)

    monkeypatch.setattr(Poly, "as_integers", counted)
    counts = []
    for k_to in (10, 40):
        calls.clear()
        rep = verify_sigma_pair(N_TOWER, f, pair, assign, 1, k_to)
        assert rep.checked == k_to and rep.failures == []
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_trivial_pair_always_verifies():
    f = parse(Q_TOWER, "1/(x-2)")
    rep = verify_sigma_pair(Q_TOWER, f, (Fraction(0), f),
                            SequenceAssignment(Q_TOWER), 1, 5)
    assert rep.failures == []
    assert rep.skipped == 1 and rep.checked == 4


@pytest.mark.parametrize("k", [-3, -2, -1, 1, 2, 6])
def test_shift_agrees_with_index_translation(k):
    # evaluation at an index never applies sigma, so this checks sigma^k
    # at levels 1 to 3 against an independent oracle
    assign = SequenceAssignment(N_TOWER)
    f = parse(N_TOWER, "t1/x + t2 + x*t1*t2^2 + 1/(t2 + t1^2 + 1)")
    fs = N_TOWER.sigma(f, k)
    a = dict(eval_sequence(N_TOWER, fs, assign, 4, 12))
    b = dict(eval_sequence(N_TOWER, f, assign, 4 + k, 12 + k))
    for n in range(4, 13):
        assert a[n] == b[n + k]


def test_nested_sum_identities():
    # brute force oracle for sum(k=1..n) (1/k) sum(j=1..k) H_j/j
    inner = []
    acc = Fraction(0)
    for j in range(1, 21):
        acc += _harmonics(j) / j
        inner.append(acc)
    lhs = []
    acc = Fraction(0)
    for k in range(1, 21):
        acc += inner[k - 1] / k
        lhs.append(acc)
    for n in range(1, 21):
        hn = _harmonics(n)
        h2 = _harmonics(n, 2)
        h3 = _harmonics(n, 3)
        assert lhs[n - 1] == hn * inner[n - 1] - hn ** 3 / 3 + h3 / 3
        assert lhs[n - 1] == hn ** 3 / 6 + hn * h2 / 2 + h3 / 3
    # the engine's nested remainder produces the depth-one tail above
    r = complete_reduction(ReductionContext(N_TOWER),
                           parse(N_TOWER, "t2/x"))[1]
    assert r == parse(N_TOWER, "1/(3*x^3)")
    for n in (1, 5, 20):
        tail = sum(Fraction(1, 3 * k ** 3) for k in range(1, n + 1))
        assert tail == _harmonics(n, 3) / 3


def test_remainder_sum_matches_harmonic_combination():
    ctx = ReductionContext(H_TOWER)
    f = parse(H_TOWER, "(x*(x^2+5*x+4)*t1^3 + (x^2+4*x+1)*t1^2"
                       " - (x+1)^2*t1^4 - x - 2*x^2 - x^3)"
                       "/(x*(1+x)^2*(1+t1+t1*x)*t1)")
    _g, r = complete_reduction(ctx, f)
    vals = eval_sequence(H_TOWER, r, SequenceAssignment(H_TOWER), 1, 20)
    acc = Fraction(0)
    for k, v in vals:
        acc += v
        assert acc == _harmonics(k, 2) / 2 - _harmonics(k, 3)


def test_recurrence_residual_golden():
    assign = SequenceAssignment(P_TOWER, params={"n": 0})
    coeffs = [parse(P_TOWER, s) for s in ("-n-2", "2*n+5", "-n-3")]
    f = parse(P_TOWER, "t1/(n - x + 1)")
    rep = verify_recurrence(P_TOWER, coeffs, f, assign, 1, 15)
    assert [n for n, _v in rep.residuals] == list(range(1, 16))
    for n, v in rep.residuals:
        assert v == Fraction(-2, n + 2)
    assert rep.fit == RatFunc(Poly((Fraction(-2),)),
                              Poly((Fraction(2), Fraction(1))), 1)


def test_recurrence_sums_use_the_defaults_at_each_n(monkeypatch):
    # x(k) = k*N by default at n := N, whatever n the assignment holds
    tower = parse_tower_text("params n\ngen x : n\n")
    f = parse(tower, "x")
    for n in (5, 7):
        assign = SequenceAssignment(tower, start=1, params={"n": n})
        rep = verify_recurrence(tower, [Fraction(1)], f, assign, 1, 4)
        assert [v for _n, v in rep.residuals] == [1, 6, 18, 40]
    # a given initial value is kept: x(k) = (k - 1)*N
    assign = SequenceAssignment(tower, start=1, inits={"x": 0},
                                params={"n": 5})
    rep = verify_recurrence(tower, [Fraction(1)], f, assign, 1, 4)
    assert [v for _n, v in rep.residuals] == [0, 2, 9, 24]
    # each S(N) is summed once, however many coefficients read it
    calls = []
    direct = sequences._direct_sum
    monkeypatch.setattr(sequences, "_direct_sum",
                        lambda *a: calls.append(a[4]) or direct(*a))
    coeffs = [parse(tower, s) for s in ("n", "-2*n - 1", "n + 1")]
    verify_recurrence(tower, coeffs, f, assign, 1, 4)
    assert sorted(calls) == [1, 2, 3, 4, 5, 6]


def test_recurrence_fraction_coefficients_and_errors():
    assign = SequenceAssignment(P_TOWER, params={"n": 0})
    rep = verify_recurrence(P_TOWER, [Fraction(-1), Fraction(1)],
                            parse(P_TOWER, "1/x"), assign, 1, 8)
    for n, v in rep.residuals:
        assert v == Fraction(1, n + 1)
    assert rep.fit == RatFunc(Poly((Fraction(1),)),
                              Poly((Fraction(1), Fraction(1))), 1)
    with pytest.raises(ValueError, match="parameter"):
        verify_recurrence(Q_TOWER, [Fraction(1)], parse(Q_TOWER, "x"),
                          SequenceAssignment(Q_TOWER), 1, 5)


def test_fit_rational_roundtrip():
    import random
    rng = random.Random(801)
    pts_x = [Fraction(n) for n in range(1, 10)]
    for _ in range(30):
        num = Poly(tuple(Fraction(rng.randint(-9, 9))
                         for _ in range(rng.randint(1, 3))))
        den = Poly((Fraction(rng.randint(1, 9)), Fraction(1)))
        if num.is_zero():
            num = Poly((Fraction(1),))
        target = RatFunc(num, den, 1)
        pts = [(n, target.num.eval(n) / target.den.eval(n)) for n in pts_x]
        assert fit_rational(pts) == target


def test_fit_rational_edges():
    assert fit_rational([]) is None
    zero = fit_rational([(Fraction(n), Fraction(0)) for n in range(1, 6)])
    assert zero is not None and zero.is_zero()
    # two disagreeing points leave no room under the point-count guard
    assert fit_rational([(Fraction(1), Fraction(1)),
                         (Fraction(2), Fraction(3))]) is None
    # lowest total degree wins
    pts = [(Fraction(n), Fraction(n + 1, n + 2)) for n in range(1, 9)]
    fit = fit_rational(pts)
    assert fit == RatFunc(Poly((Fraction(1), Fraction(1))),
                          Poly((Fraction(2), Fraction(1))), 1)
