"""Shift classes and denominator factorization."""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dmp_factor_list

from sumred.algebra import (Poly, _monic_from_zz, _zeval, _zz_poly, lower,
                            one_at, poly_sort_key, vdepth, zero_at)
from sumred.reduction import ReductionContext, complete_reduction
from sumred import sigmafactor
from sumred.sigmafactor import factor_monic, shift_equivalence
from sumred.towerfile import load_tower_file, parse_tower_text

from conftest import H_TOWER, N_TOWER, P_TOWER, Q_TOWER, parse
from test_algebra import _GCD_FIELDS, _poly_to_sympy


def _q(*coeffs):
    return Poly(tuple(Fraction(c) for c in coeffs))


T1 = Poly((zero_at(1), one_at(1)))
TOWERS = Path(__file__).resolve().parent.parent / "towers"


def _by_rep(pairs):
    return sorted(pairs, key=lambda fm: poly_sort_key(fm[0]))


def _lin2(const_text):
    return Poly((parse(Q_TOWER, const_text), one_at(1)))


def _classified(ctx, den, depth):
    """ctx.classify_den(den, depth), each irr checked against
    sigma^shift(rep)."""
    comps = ctx.classify_den(den, depth)
    for irr, _mult, rep, shift in comps:
        assert irr == ctx.tower.sigma_poly(rep, depth, shift)
    return comps


def test_shift_equivalence_is_exact_at_the_bottom_level():
    ctx = ReductionContext(Q_TOWER)
    p = _q(1, 1, 1)
    for k in (-25, -3, 1, 7, 40):
        q = Q_TOWER.sigma_poly(p, 1, k)
        assert shift_equivalence(ctx, p, q, 1) == k
    assert shift_equivalence(ctx, p, p, 1) == 0
    # the candidate -1/2 is no integer
    assert shift_equivalence(ctx, p, _q(1, 0, 1), 1) is None
    assert shift_equivalence(ctx, p, _q(1, 1), 1) is None


def test_shift_equivalence_is_exact_above_the_bottom():
    ctx = ReductionContext(H_TOWER)
    for k in (2, -3):
        q = H_TOWER.sigma_poly(T1, 2, k)
        assert shift_equivalence(ctx, T1, q, 2) == k
    quad = Poly((parse(Q_TOWER, "-x"), zero_at(1), one_at(1)))
    assert shift_equivalence(ctx, quad, H_TOWER.sigma_poly(quad, 2, -4),
                             2) == -4
    # c = x is a difference in Q(x), so the only candidate is k = 0
    assert shift_equivalence(ctx, T1, _lin2("x"), 2) is None
    # c = 2/(x+1) has the remainder 2*v, but sigma^2(t1) is
    # t1 + 1/(x+1) + 1/(x+2): the candidate is rejected
    assert shift_equivalence(ctx, T1, _lin2("2/(x+1)"), 2) is None


@pytest.mark.parametrize("tower_file,expr,depth,ks", [
    ("harmonic.tower", "t1", 2, (25, -25, 40, -40)),
    ("nested.tower", "t2 + t1", 3, (21, -21)),
    ("creative.tower", "t1 + n", 3, (21, -5)),
    ("creative.tower", "x + n", 2, (7,)),
], ids=["harmonic", "nested-level-3", "creative-t1", "creative-x"])
def test_classify_places_far_shifts_in_the_class(tower_file, expr, depth, ks):
    # each shift, however far, lands in the class of p
    tower = load_tower_file(TOWERS / tower_file)
    p = lower(parse(tower, expr), depth).num
    ctx = ReductionContext(tower)
    ctx.classify_den(p, depth)
    assert ctx.reps[depth - tower.nparams][-1] == p
    for k in ks:
        q = tower.sigma_poly(p, depth, k)
        assert _classified(ctx, q, depth) == ((q, 1, p, k),)


def test_false_far_candidate_is_rejected_without_the_shift_sum():
    # rem(2560/(x+1)) = 2560*v proposes k = 2560, and sigma^2560(t1) would
    # sum 2560 terms; sigma(S_k) - S_k = sigma^k(a) - a rejects it first
    ctx = ReductionContext(H_TOWER)
    ctx.classify_den(T1, 2)
    q = _lin2("2560/(x+1)")
    started = time.process_time()
    assert _classified(ctx, q, 2) == ((q, 1, q, 0),)
    assert time.process_time() - started < 1.0
    assert ctx.reps[2] == [T1, q]


def test_false_candidate_at_level_three_is_rejected_in_time():
    # q = t2 + S_40 + delta(t1/(x+3)) proposes k = 40 and fails the
    # difference test; reducing its c one level down meets about 40 pieces
    # over shifts of x, whose orbit sums take one walk, not one sum each
    tower = load_tower_file(TOWERS / "nested.tower")
    c = (tower.sigma_sum(tower.gens[2].delta, 40)
         + tower.delta(lower(parse(tower, "t1/(x+3)"), 2)))
    ctx = ReductionContext(tower)
    started = time.process_time()
    assert shift_equivalence(ctx, Poly((zero_at(2), one_at(2))),
                             Poly((c, one_at(2))), 3) is None
    assert time.process_time() - started < 1.0


@pytest.mark.parametrize("k", [1, -1])
def test_unit_shift_is_confirmed_without_the_difference_test(monkeypatch, k):
    # S_k is one term at |k| = 1, so the candidate goes straight to sigma^k
    ctx = ReductionContext(H_TOWER)
    ctx.classify_den(T1, 2)
    ctx.level_data(2)
    q = H_TOWER.sigma_poly(T1, 2, k)

    def no_delta(v):
        raise AssertionError("delta called at |k| = 1")

    monkeypatch.setattr(H_TOWER, "delta", no_delta)
    assert shift_equivalence(ctx, T1, q, 2) == k
    assert _classified(ctx, q, 2) == ((q, 1, T1, k),)


@pytest.mark.parametrize("tower_file,other", [
    ("harmonic.tower", "t1 + x"),
    ("creative.tower", "t1 + n"),
])
def test_classify_keeps_unrelated_linear_factors_apart(tower_file, other):
    tower = load_tower_file(TOWERS / tower_file)
    t1 = parse(tower, "t1").num
    q = parse(tower, other).num
    ctx = ReductionContext(tower)
    assert _classified(ctx, t1, tower.full_depth) == ((t1, 1, t1, 0),)
    assert _classified(ctx, q, tower.full_depth) == ((q, 1, q, 0),)
    assert ctx.reps[2] == [t1, q]


def _product(facs, one):
    out = Poly((one,))
    for fac, mult in facs:
        out = out * fac ** mult
    return out


def test_factor_monic_bottom_level():
    p = _q(2, 1) ** 2 * _q(3, 1)
    facs = factor_monic(p)
    assert facs == [(_q(2, 1), 2), (_q(3, 1), 1)]
    p2 = _q(1, 1, 1) * _q(2, 0, 1)
    facs2 = factor_monic(p2)
    assert facs2 == _by_rep([(_q(1, 1, 1), 1), (_q(2, 0, 1), 1)])


def test_factor_monic_takes_a_linear_polynomial_as_it_is(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a linear polynomial reached the factorizer")

    monkeypatch.setattr(sigmafactor, "dmp_factor_list", refuse)
    p = parse(H_TOWER, "(x+1)*t1 + 1/x").num
    assert factor_monic(p) == [(parse(H_TOWER, "t1 + 1/(x^2+x)").num, 1)]


def test_factor_monic_uses_seeded_representatives():
    spec = parse_tower_text("gen x : 1\nseed x : x^2 + 1\n")
    rep = _q(1, 0, 1)
    ahead, behind = spec.sigma_poly(rep, 1, 2), spec.sigma_poly(rep, 1, -1)
    p = ahead * behind
    facs = factor_monic(p)
    assert _product(facs, Fraction(1)) == p
    assert sorted(m for _f, m in facs) == [1, 1]
    # the seeded representative names both shifted copies
    ctx = ReductionContext(spec)
    assert _classified(ctx, p, 1) == ((behind, 1, rep, -1),
                                      (ahead, 1, rep, 2))
    assert ctx.notes == []


def test_factor_monic_level_two_quadratics():
    g = _lin2("-1/x") * _lin2("1/x")
    facs = factor_monic(g)
    assert facs == _by_rep([(_lin2("-1/x"), 1), (_lin2("1/x"), 1)])
    h = _lin2("x") * _lin2("2*x")
    fh = factor_monic(h)
    assert fh == _by_rep([(_lin2("x"), 1), (_lin2("2*x"), 1)])
    irr = Poly((parse(Q_TOWER, "-x"), zero_at(1), one_at(1)))
    assert factor_monic(irr) == [(irr, 1)]


def test_factor_monic_level_two_cubic_with_covering_rep():
    spec = parse_tower_text(
        "gen x : 1\nseed x : x\ngen t1 : 1/(x+1)\nseed t1 : t1\n")
    ahead, behind = spec.sigma_poly(T1, 2, 1), spec.sigma_poly(T1, 2, -1)
    p = T1 * ahead * behind
    facs = factor_monic(p)
    assert _product(facs, one_at(1)) == p
    assert len(facs) == 3
    ctx = ReductionContext(spec)
    assert _classified(ctx, p, 2) == ((T1, 1, T1, 0), (behind, 1, T1, -1),
                                      (ahead, 1, T1, 1))


def test_factor_monic_splits_any_degree_above_bottom():
    cubic = Poly((parse(Q_TOWER, "-x"), zero_at(1), zero_at(1), one_at(1)))
    assert factor_monic(cubic) == [(cubic, 1)]
    p = _lin2("x") ** 2 * cubic * _lin2("1/x")
    facs = _by_rep([(_lin2("x"), 2), (cubic, 1), (_lin2("1/x"), 1)])
    assert factor_monic(p) == facs
    # a unit of the field below is no factor
    assert factor_monic(p.scale(parse(Q_TOWER, "(x+1)/3"))) == facs


@pytest.mark.parametrize("tower,_y,top,pool", _GCD_FIELDS.values(),
                         ids=_GCD_FIELDS.keys())
def test_factor_monic_matches_sympy_above_the_bottom(tower, _y, top, pool):
    rng = random.Random(130)
    depth = tower.depth_of_name(top)
    syms = sympy.symbols(f"y1:{depth}") + (sympy.Symbol("t"),)
    one = one_at(depth - 1)

    def rand_monic(deg):
        terms = [f"({rng.choice(pool)})*({rng.randint(-3, 3)})*{top}^{e}"
                 for e in range(deg)]
        terms.append(f"{top}^{deg}")
        return lower(parse(tower, " + ".join(terms)), depth).num

    for _ in range(8):
        p = Poly((one,))
        for _k in range(rng.randint(1, 3)):
            p = p * rand_monic(rng.randint(1, 2)) ** rng.randint(1, 2)
        facs = factor_monic(p)
        assert facs == _by_rep(facs)
        for fac, _mult in facs:
            assert fac.lc() == one and fac.degree() >= 1
        assert _product(facs, one) == p
        cleared = sympy.fraction(sympy.together(
            _poly_to_sympy(p, depth, syms)))[0]
        expect = []
        for f, mult in sympy.Poly(cleared, *syms).factor_list()[1]:
            if f.degree(syms[-1]) >= 1:
                f = f.as_expr()
                expect.append((f / sympy.Poly(f, syms[-1]).LC(), mult))
        got = [(_poly_to_sympy(f, depth, syms), mult) for f, mult in facs]
        assert len(got) == len(expect)
        for f, mult in got:
            assert any(m == mult and sympy.cancel(f - e) == 0
                       for e, m in expect)


def _wang(p):
    """factor_monic's general path on p: sympy's dmp_factor_list on the ZZ
    image, each factor of positive degree made monic, sorted."""
    c = vdepth(p.lc())
    _content, factors = dmp_factor_list(_zz_poly(p, c)[0], c, ZZ)
    monic = ((_monic_from_zz(f, c), mult) for f, mult in factors)
    return _by_rep([(f, mult) for f, mult in monic if f.degree() > 0])


# fields whose quadratics the discriminant splits: Q, and the two entries of
# _GCD_FIELDS with coefficients of depth 1; y = 3 stands in for the
# parameter over Q
_SPLIT_FIELDS = {
    "Q[x]": (Q_TOWER, "3", "x", ("1", "1/2", "-3/4", "5", "7/3")),
    "Q(x)[t1]": _GCD_FIELDS["Q(x)[t1]"],
    "Q(n)[x]": _GCD_FIELDS["Q(n)[x]"],
}

# quadratics (texts in y and t) for each kind the splitter must tell apart
_SPLIT_CASES = (
    # distinct linear factors, one of them t itself
    "({t} - {y})*({t} + 2*{y}^2)",
    "({y}^2+1)*{t}^2/3 - 2*{t}/({y}+5)",
    # a square: Delta = 0
    "({t} - {y})^2*(2/({y}+1))",
    "{t}^2",
    # irreducible: Delta = -3 < 0 over Q
    "{t}^2 + {t} + 1",
    # irreducible: Delta = 2 s^2, over Q and over Z[y]
    "{t}^2 + 2*{t} - 1",
    "2*{y}*{t}^2 - {y}^3",
    # irreducible: Delta with a negative leading coefficient
    "{t}^2 + {y}^2",
    "(3/{y})*({t}^2 + {y}*{t} + {y}^2 + 1)",
)


@pytest.mark.parametrize("tower,y,top,pool", _SPLIT_FIELDS.values(),
                         ids=_SPLIT_FIELDS.keys())
def test_factor_monic_splits_quadratics_as_the_factorizer(tower, y, top,
                                                          pool):
    rng = random.Random(140)
    depth = tower.depth_of_name(top)

    def top_poly(text):
        return lower(parse(tower, text.format(y=y, t=top)), depth).num

    def value():
        return f"({rng.choice(pool)})*({rng.choice((-3, -2, -1, 1, 2, 5))})"

    def linear():
        return f"({value()}*{{t}} + {value()}*({rng.randint(-3, 3)}))"

    texts = list(_SPLIT_CASES)
    for _ in range(30):
        unit = value()
        a, b = linear(), linear()
        texts += [f"{unit}*{a}*{b}", f"{unit}*{a}^2",
                  f"{unit}*{{t}}^2 + {value()}*{{t}} + {value()}"]
    kinds = set()
    for text in texts:
        p = top_poly(text)
        assert p.degree() == 2
        facs = factor_monic(p)
        assert facs == _wang(p), text
        kinds.add(tuple(m for _f, m in facs))
    # each outcome occurs: irreducible, two factors, a square
    assert kinds == {(1,), (1, 1), (2,)}


def test_factor_monic_splits_quadratics_without_the_factorizer(monkeypatch):
    calls = []

    def record(f, u, dom):
        calls.append(u)
        return dmp_factor_list(f, u, dom)

    monkeypatch.setattr(sigmafactor, "dmp_factor_list", record)
    for tower, text, depth in ((Q_TOWER, "x^2 - 1", 1),
                               (Q_TOWER, "x^2 - 2", 1),
                               (H_TOWER, "(t1 - x)*(t1 + 1/x)", 2),
                               (H_TOWER, "t1^2 + x", 2),
                               (P_TOWER, "(x - n)^2", 2)):
        factor_monic(lower(parse(tower, text), depth).num)
    assert calls == []
    # coefficients of depth 2 and degree 3 take the factorizer
    level3 = lower(parse(N_TOWER, "(t2 - t1)*(t2 + x)"), 3).num
    assert len(factor_monic(level3)) == 2
    cubic = lower(parse(H_TOWER, "t1^3 - x"), 2).num
    assert factor_monic(cubic) == [(cubic, 1)]
    assert calls == [2, 1]


# classes the peel scans: x, x + 1/2, x^2 + 1 and x^2 + x + 1 over Q
_PEEL_CLASSES = (_q(0, 1), _q(Fraction(1, 2), 1), _q(1, 0, 1), _q(1, 1, 1))


def test_factor_monic_peels_known_classes_as_the_factorizer():
    rng = random.Random(240)
    seed_only = (_PEEL_CLASSES[0],)
    # a cubic, a quartic and a sextic class, of higher degree than some p;
    # x^3 - 2 is in no known class
    higher = (_q(1, 1, 0, 1), _q(1, 0, 0, 0, 1), _q(2, 0, 0, 0, 0, 0, 1))
    lists = (seed_only, _PEEL_CLASSES, _PEEL_CLASSES[::-1] + higher)
    cases = [_q(0, 0, 0, 1), _q(-2, 0, 0, 1), _q(0, 0, 1) * _q(-2, 0, 0, 1),
             _q(-2, 0, 0, 1) * _q(1, 0, 1)]
    for _ in range(40):
        p = _q(rng.choice((1, 2, -3, Fraction(5, 7))))
        for _k in range(rng.randint(1, 4)):
            q = rng.choice(_PEEL_CLASSES + (_q(-2, 0, 0, 1),))
            k = rng.randint(-8, 8)
            p = p * Q_TOWER.sigma_poly(q, 1, k) ** rng.randint(1, 3)
        if rng.random() < 0.3:
            p = p * _q(0, 1) ** rng.randint(1, 3)
        cases.append(p)
    for p in cases:
        plain = factor_monic(p)
        assert plain == _wang(p)
        for known in lists:
            assert factor_monic(p, known) == plain, (p, known)


def test_factor_monic_peel_is_bounded(monkeypatch):
    tried, factored = [], []

    def record(x, xi):
        tried.append((id(x), xi))
        return _zeval(x, xi)

    def record_factor(f, u, dom):
        factored.append(len(f) - 1)
        return dmp_factor_list(f, u, dom)

    monkeypatch.setattr(sigmafactor, "_zeval", record)
    monkeypatch.setattr(sigmafactor, "dmp_factor_list", record_factor)
    known = _PEEL_CLASSES
    # roots of modulus 10^5 widen the window past the cap: nothing is tried
    far = _q(-10 ** 5, 1) * _q(1, 0, 1) * _q(3, 1) * _q(1, 1, 1)
    # roots of modulus up to 25 keep it under the cap
    near = _q(-25, 1) * _q(25, 1) * _q(2, 2, 1) * _q(1, 1, 1) * _q(-7, 1)
    # roots near x = -40: the window is centred at the mean of the roots
    cluster = (_q(40, 1) * _q(41, 1) ** 2 * _q(1601, 80, 1)
               * _q(1723, 83, 1))
    for p, peeled in ((far, False), (near, True), (cluster, True)):
        tried.clear()
        factored.clear()
        assert factor_monic(p, known) == _wang(p)
        per_rep = [sum(1 for i, _k in tried if i == id(q.as_integers()[0]))
                   for q in known]
        assert max(per_rep) <= sigmafactor._PEEL_CAP
        assert factored == ([] if peeled else [p.degree()])
        assert (sum(per_rep) > 0) == peeled


def test_peeled_classes_skip_the_factorizer(monkeypatch):
    """Denominators made of shifts of known level-1 classes classify in a
    context on nested.tower with the factorizer refused, as with it."""
    texts = ("2*(x+1)^2*(x-4)*(x-5)", "(x^2+1)*((x+3)^2+1)*(x-2)")

    def classified(plain):
        tower = load_tower_file(TOWERS / "nested.tower")
        ctx = ReductionContext(tower)
        if plain:
            ctx.factor = factor_monic
        out = [_classified(ctx, lower(parse(tower, texts[0]), 1).num, 1)]
        complete_reduction(ctx, parse(tower, "1/(x^2+1)"))
        out.append(_classified(ctx, lower(parse(tower, texts[1]), 1).num, 1))
        return out

    expect = classified(plain=True)

    def refuse(*_args):
        raise AssertionError("a known class reached the factorizer")

    monkeypatch.setattr(sigmafactor, "dmp_factor_list", refuse)
    assert classified(plain=False) == expect
    assert [len(comps) for comps in expect] == [3, 3]
