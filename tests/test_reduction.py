"""The complete reduction: goldens, algebraic laws, and summability."""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sumred.algebra import (Poly, RatFunc, coprime_split, drop, frac_at, lift,
                            lower, one_at, zero_at)
from sumred import reduction
from sumred.effbasis import BASIS_ONE, coordinate_of
from sumred.reduction import (ReductionContext, auxiliary_reduction,
                              complete_reduction, reduce_polynomial,
                              reduce_proper)
from sumred.tower import TowerSpec
from sumred.towerfile import load_tower_file, parse_tower_text

from conftest import (B_TOWER, H_TOWER, N_TOWER, P_TOWER, Q_TOWER,
                      assert_sigma_pair, delta, parse, rand_rat1, rand_value)

X1 = Poly((Fraction(0), Fraction(1)))


def _dd(v, depth):
    while not isinstance(v, Fraction) and v.depth > depth:
        v = drop(v)
    return v


def _is_zero(v):
    if isinstance(v, Fraction):
        return not v
    return v.is_zero()


def _is_constant(tower, v):
    return tower.level(v) == 0


# ---------------------------------------------------------------------------
# goldens
# ---------------------------------------------------------------------------


def test_proper_reduction_golden():
    ctx = ReductionContext(H_TOWER)
    f = _dd(parse(H_TOWER, "-1/((x+1)*t1^2+t1)"), 2)
    g, h = reduce_proper(ctx, f)
    assert lift(g, 2) == parse(H_TOWER, "1/t1")
    assert _is_zero(h)
    g0, h0 = reduce_proper(ctx, zero_at(2))
    assert _is_zero(g0) and _is_zero(h0)
    fx = _dd(parse(H_TOWER, "1/(x+1)"), 1)
    gx, hx = reduce_proper(ctx, fx)
    assert lift(gx, 2) == parse(H_TOWER, "1/x")
    assert lift(hx, 2) == parse(H_TOWER, "1/x")


def _chain_reduce_proper(ctx, f, depth):
    """reduce_proper as a stepping chain, for reference: each piece over
    sigma^s(rep)^m is shifted back to rep one step at a time, and the terms
    passed on the way are g's."""
    tower = ctx.tower
    zero = zero_at(depth)
    comps = ctx.classify_den(f.den, depth)
    moduli = [tower.sigma_poly(rep ** mult, depth, shift)
              for _irr, mult, rep, shift in comps]
    g = r = zero
    for (_irr, _m, _rep, shift), num, modulus in zip(
            comps, coprime_split(f.num, moduli), moduli):
        term = RatFunc(num, modulus, depth, _trusted=True)
        step = -1 if shift > 0 else 1
        for _ in range(abs(shift)):
            if shift < 0:
                g = g - term
            term = tower.sigma(term, step)
            if shift > 0:
                g = g + term
        r = r + term
    return g, r


# per level: representatives, then coefficient texts from the field below
_CHAIN_POOLS = {
    1: (("x", "x^2 + 1"), ("1", "-3", "5/2")),
    2: (("t1", "t1^2 + x"), ("1", "x", "2/(x+3)")),
    3: (("t2", "t2 + 1/x"), ("1", "t1", "x/(t1+1)")),
}


def chain_values(tower, ctx):
    """(depth, f) for the values of the stepping-chain test, level by level
    from seed 1818, with each level's representatives classified in ctx
    first: four to six pieces over sigma^s(rep)^m per value, as one class
    at shifts of both signs, pieces whose e's cancel in r, and random
    pieces over two classes, drawn without replacement so that no two
    merge. tools/output_digest.py digests them too."""
    rng = random.Random(1818)
    for level in range(1, tower.nlevels + 1):
        depth = tower.depth_of_level(level)
        rep_texts, coeff_texts = _CHAIN_POOLS[level]
        reps = [lower(parse(tower, t), depth).num for t in rep_texts]
        for rep in reps:
            ctx.classify_den(rep, depth)
        coeffs = [lower(parse(tower, t), depth - 1) for t in coeff_texts]

        def piece(rep, s, m):
            den = tower.sigma_poly(rep, depth, s) ** m
            num = Poly(tuple(rng.choice(coeffs) for _ in range(den.degree())))
            return RatFunc(num, den, depth)

        one_class = sum((piece(reps[0], s, 1) for s in (-3, -1, 0, 2, 5)),
                        zero_at(depth))
        yield depth, one_class
        e = piece(reps[0], 0, 2)
        yield depth, (tower.sigma(e, -2) - tower.sigma(e, 3)
                      + piece(reps[0], 1, 1) + piece(reps[1], -1, 1))
        classes = [(rep, s) for rep in reps for s in range(-4, 5)]
        yield depth, sum((piece(rep, s, 1) for rep, s
                          in rng.sample(classes, rng.randint(4, 6))),
                         zero_at(depth))


@pytest.mark.parametrize("tower", [H_TOWER, N_TOWER, P_TOWER],
                         ids=["H", "N", "P"])
def test_proper_part_matches_the_stepping_chain(tower):
    ctx = ReductionContext(tower)
    for depth, f in chain_values(tower, ctx):
        assert 4 <= len(ctx.classify_den(f.den, depth)) <= 6
        g, r = reduce_proper(ctx, f)
        assert (g, r) == _chain_reduce_proper(ctx, f, depth)
        # the gcd-free sums are in canonical form
        for v in (g, r):
            assert v == RatFunc(v.num, v.den, depth)


def test_sigma_sum_is_the_orbit_sum():
    n_v = parse(N_TOWER, "t2/(t1 + 1) + x*t1")
    fixed = parse(P_TOWER, "n^2 + 1")
    cases = [(H_TOWER, parse(H_TOWER, "1/t1 + x*t1")), (N_TOWER, n_v),
             (P_TOWER, parse(P_TOWER, "t1/(x + n)")),
             (P_TOWER, lower(fixed, 1)), (H_TOWER, Fraction(3))]
    for tower, v in cases:
        for k in range(-3, 4):
            h = tower.sigma_sum(v, k)
            assert tower.sigma(h) - h == tower.sigma(v, k) - v
    assert _is_zero(N_TOWER.sigma_sum(n_v, 0))
    # the shift fixes a constant: its orbit sum is k*v
    assert P_TOWER.sigma_sum(lower(fixed, 1), -5) == lower(fixed, 1) * -5


def test_auxiliary_reduction_golden():
    ctx = ReductionContext(H_TOWER)
    p = _dd(parse(H_TOWER, "-t1^2/(x*(1+x)) + (x^2+4*x+1)*t1/(x*(1+x)^2)"), 2)
    assert p.den.is_one()
    q, r = auxiliary_reduction(ctx, p.num, 2)
    assert lift(RatFunc.from_poly(q, 2), 2) == parse(H_TOWER, "t1^2/x - 1/x^3")
    assert lift(RatFunc.from_poly(r, 2), 2) == parse(H_TOWER, "t1/x - 1/x^3")
    qc, rc = auxiliary_reduction(ctx, Poly((Fraction(5),)), 1)
    assert qc.is_zero() and rc == Poly((Fraction(5),))
    qx, rx = auxiliary_reduction(ctx, X1, 1)
    assert qx.is_zero() and rx == X1


def test_echelon_golden():
    ctx = ReductionContext(H_TOWER)
    w0, b0 = ctx.echelon_entry(2, 0)
    w1, b1 = ctx.echelon_entry(2, 1)
    assert lift(RatFunc.from_poly(w0, 2), 2) == parse(H_TOWER, "t1 - 1/x")
    assert lift(RatFunc.from_poly(b0, 2), 2) == parse(H_TOWER, "1/x")
    # raw pairs: w1 = t1^2/2 - g*t1 with g = 1/x, and b1 = shift(w1) - w1
    assert lift(RatFunc.from_poly(w1, 2), 2) == parse(
        H_TOWER, "t1^2/2 - t1/x")
    assert lift(RatFunc.from_poly(b1, 2), 2) == parse(
        H_TOWER, "t1/x - 1/(2*(x+1)^2)")
    wx0, bx0 = ctx.echelon_entry(1, 0)
    wx1, bx1 = ctx.echelon_entry(1, 1)
    assert wx0 == X1 and bx0 == Poly((Fraction(1),))
    assert wx1 == Poly((Fraction(0), Fraction(0), Fraction(1, 2)))
    assert bx1 == Poly((Fraction(1, 2), Fraction(1)))


def test_echelon_entries_are_difference_pairs():
    ctx = ReductionContext(H_TOWER)
    for level in (1, 2):
        for i in range(4):
            w, b = ctx.echelon_entry(level, i)
            wv = lift(RatFunc.from_poly(w, level), 2)
            bv = lift(RatFunc.from_poly(b, level), 2)
            assert H_TOWER.delta(wv) == bv


def test_echelon_cache_returns_prefixes():
    ctx = ReductionContext(H_TOWER)
    first = ctx.echelon_entry(2, 2)
    again = ctx.echelon_entry(2, 2)
    assert first[0] is again[0] and first[1] is again[1]
    low = ctx.echelon_entry(2, 0)
    assert low[0] == Poly((parse(Q_TOWER, "-1/x"), one_at(1)))


def test_polynomial_reduction_golden():
    ctx = ReductionContext(H_TOWER)
    p = _dd(parse(H_TOWER, "t1/x - 1/x^3"), 2)
    q, v = reduce_polynomial(ctx, p.num, 2)
    assert lift(RatFunc.from_poly(v, 2), 2) == parse(H_TOWER,
                                                     "1/(2*x^2) - 1/x^3")
    assert lift(RatFunc.from_poly(q, 2), 2) == parse(
        H_TOWER, "t1^2/2 - t1/x + 1/(2*x^2)")
    q1, v1 = reduce_polynomial(ctx, Poly((Fraction(1),)), 1)
    assert q1 == X1 and v1.is_zero()
    q0, v0 = reduce_polynomial(ctx, Poly(()), 1)
    assert q0.is_zero() and v0.is_zero()


def test_complete_reduction_golden_refined_telescoping():
    ctx = ReductionContext(H_TOWER)
    f = parse(H_TOWER, "(x*(x^2+5*x+4)*t1^3 + (x^2+4*x+1)*t1^2"
                       " - (x+1)^2*t1^4 - x - 2*x^2 - x^3)"
                       "/(x*(1+x)^2*(1+t1+t1*x)*t1)")
    g, r = complete_reduction(ctx, f)
    assert r == parse(H_TOWER, "(x-2)/(2*x^3)")
    expected_g = parse(H_TOWER, "(2+x)/(2*x)*t1^2 - t1/x + (x-2)/(2*x^3) + 1/t1")
    assert g == expected_g
    assert_sigma_pair(H_TOWER, f, g, r)


def test_complete_reduction_golden_nested():
    ctx = ReductionContext(N_TOWER)
    f = parse(N_TOWER, "t2/x")
    g, r = complete_reduction(ctx, f)
    assert r == parse(N_TOWER, "1/(3*x^3)")
    expected_g = parse(N_TOWER, "(3*x^3*t1*t2 - x^3*t1^3 - 3*x^2*t2 + 1)/(3*x^3)")
    # the acceptance rule compares g modulo an additive constant
    assert _is_constant(N_TOWER, g - expected_g)
    assert g == expected_g
    assert_sigma_pair(N_TOWER, f, g, r)


def test_session_pairs_golden():
    ctx = ReductionContext(H_TOWER)
    g1, v1, th1, c1, _p1 = ctx.level_data(1)
    assert g1 == Fraction(0) and v1 == Fraction(1)
    assert th1 == BASIS_ONE and c1 == Fraction(1)
    g2, v2, th2, c2, _p2 = ctx.level_data(2)
    assert lift(g2, 2) == parse(H_TOWER, "1/x")
    assert lift(v2, 2) == parse(H_TOWER, "1/x")
    assert th2 == BASIS_ONE.extended(1, 0, X1, 1) and c2 == Fraction(1)
    ctxn = ReductionContext(N_TOWER)
    g3, v3, th3, c3, _p3 = ctxn.level_data(3)
    assert lift(g3, 3) == parse(N_TOWER, "t1^2/2 + 1/(2*x^2)")
    assert lift(v3, 3) == parse(N_TOWER, "1/(2*x^2)")
    assert th3 == BASIS_ONE.extended(1, 0, X1, 2) and c3 == Fraction(1, 2)


def test_base_cases():
    ctx = ReductionContext(H_TOWER)
    assert complete_reduction(ctx, Fraction(5)) == (Fraction(0), Fraction(5))
    ctxp = ReductionContext(P_TOWER)
    v = _dd(parse(P_TOWER, "n^2+1"), 1)
    g, r = complete_reduction(ctxp, v)
    assert _is_zero(g) and r == v


def test_results_are_stable_in_one_context():
    # new representatives met in between leave f's classes as they were
    ctx = ReductionContext(H_TOWER)
    f = parse(H_TOWER, "t1/x + 1/(x+2) + 1/(t1*(x+1))")
    first = complete_reduction(ctx, f)
    before = len(ctx.notes)
    for s in ("1/(x^2+1)", "x/((x^2+3)*(t1^2+x))"):
        complete_reduction(ctx, parse(H_TOWER, s))
    assert {level for level, _irr in ctx.notes[before:]} == {1, 2}
    notes = len(ctx.notes)
    assert complete_reduction(ctx, f) == first
    assert len(ctx.notes) == notes


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


def _cheap_value(rng):
    if rng.random() < 0.5:
        return lift(rand_rat1(H_TOWER, rng, 2), 2)
    return rand_value(H_TOWER, rng, 1)


def test_sigma_pair_exactness():
    rng = random.Random(601)
    ctx = ReductionContext(H_TOWER)
    for _ in range(140):
        f = _cheap_value(rng) if rng.random() < 0.6 else rand_value(
            H_TOWER, rng, 2)
        g, r = complete_reduction(ctx, f)
        assert_sigma_pair(H_TOWER, f, g, r)
    ctxq = ReductionContext(Q_TOWER)
    for _ in range(40):
        f = rand_rat1(Q_TOWER, rng, 3)
        g, r = complete_reduction(ctxq, f)
        assert_sigma_pair(Q_TOWER, f, g, r)
    ctxn = ReductionContext(N_TOWER)
    for _ in range(20):
        f = rand_value(N_TOWER, rng, 1)
        g, r = complete_reduction(ctxn, f)
        assert_sigma_pair(N_TOWER, f, g, r)


@pytest.mark.parametrize("k", [6, 10, -6, 12, -12])
def test_sigma_pair_of_shifted_reciprocal(k):
    # sigma^k(1/t1) - 1/t1 = delta(sum_{j<k} sigma^j(1/t1)); reducing it
    # takes depth-2 gcds of degree about |k| in t1 over Q(x). With k < 0,
    # sigma^k(t1) = t1 - 1/x - 1/(x-1) - ... - 1/(x+k+1), and t1 stays
    # the representative, so its piece is moved by a negative shift
    if k > 0:
        shift = " + ".join(f"1/(x+{j})" for j in range(1, k + 1))
    else:
        shift = " + ".join(f"-1/(x-{j})" for j in range(-k))
    f = parse(H_TOWER, f"1/(t1 + {shift}) - 1/t1")
    g, r = complete_reduction(ReductionContext(H_TOWER), f)
    assert _is_zero(r)
    assert_sigma_pair(H_TOWER, f, g, r)


_LEAN_DENS = ("t1", "t1+1", "t1+x")
_LEAN_NUMS = ("1", "2", "x", "1/x")
_LEAN_POLYS = ("0", "1", "x", "t1", "x*t1", "t1/x", "t1^2")


def _lean_value(rng):
    if rng.random() < 0.5:
        return lift(rand_rat1(H_TOWER, rng, 1), 2)
    num, den = rng.choice(_LEAN_NUMS), rng.choice(_LEAN_DENS)
    head = rng.choice(_LEAN_POLYS)
    return parse(H_TOWER, f"({head}) + ({num})/({den})")


def test_kernel_of_the_reduction():
    rng = random.Random(602)
    ctx = ReductionContext(H_TOWER)
    for _ in range(150):
        h = _lean_value(rng)
        # registering h's denominator classes first keeps the shifted
        # copies inside den(delta(h)) within the representative scan
        complete_reduction(ctx, h)
        f = H_TOWER.delta(h)
        _g, r = complete_reduction(ctx, f)
        assert _is_zero(r)
    ctxq = ReductionContext(Q_TOWER)
    for _ in range(50):
        h = rand_rat1(Q_TOWER, rng, 3)
        f = Q_TOWER.delta(h)
        _g, r = complete_reduction(ctxq, f)
        assert _is_zero(r)


def test_idempotence():
    rng = random.Random(603)
    ctx = ReductionContext(H_TOWER)
    for _ in range(200):
        f = _cheap_value(rng)
        _g, r = complete_reduction(ctx, f)
        g2, r2 = complete_reduction(ctx, H_TOWER.lift_to_top(r))
        assert r2 == H_TOWER.lift_to_top(r)
        assert _is_constant(H_TOWER, g2)


def test_linearity():
    rng = random.Random(604)
    ctx = ReductionContext(H_TOWER)
    pool = [_cheap_value(rng) for _ in range(25)]
    pool_r = [H_TOWER.lift_to_top(complete_reduction(ctx, f)[1]) for f in pool]
    for _ in range(200):
        f1 = _cheap_value(rng)
        i = rng.randrange(len(pool))
        a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        b = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        _g1, r1 = complete_reduction(ctx, f1)
        combo = f1 * a + pool[i] * b
        _gc, rc = complete_reduction(ctx, combo)
        assert H_TOWER.lift_to_top(rc) == (H_TOWER.lift_to_top(r1) * a
                                           + pool_r[i] * b)


def test_indicator_bound():
    rng = random.Random(605)
    ctx = ReductionContext(H_TOWER)
    for _ in range(160):
        f = rand_value(H_TOWER, rng, 2)
        _g, r = complete_reduction(ctx, f)
        assert H_TOWER.level(r) <= H_TOWER.level(f)
    ctxn = ReductionContext(N_TOWER)
    for _ in range(40):
        f = rand_value(N_TOWER, rng, 1)
        _g, r = complete_reduction(ctxn, f)
        assert N_TOWER.level(r) <= N_TOWER.level(f)


def test_remainder_relation_one_level_up():
    rng = random.Random(606)
    ctx = ReductionContext(H_TOWER)
    _gfp, v, th, c, _pairs = ctx.level_data(2)
    for _ in range(200):
        f = rand_rat1(H_TOWER, rng, 2)
        _g1, low = complete_reduction(ctx, f)
        _g2, up = complete_reduction(ctx, lift(f, 2))
        ctilde = -coordinate_of(ctx, th, low) / c
        assert up == lift(low, 2) + lift(v, 2) * ctilde


def test_minimality_against_constructed_splits():
    rng = random.Random(607)
    ctx = ReductionContext(H_TOWER)
    for _ in range(200):
        p_t = _lean_value(rng)
        h_t = _lean_value(rng)
        complete_reduction(ctx, p_t)
        complete_reduction(ctx, h_t)
        f = H_TOWER.delta(p_t) + h_t
        _g, r = complete_reduction(ctx, f)
        r2 = _dd(H_TOWER.lift_to_top(r), 2)
        h2 = _dd(H_TOWER.lift_to_top(h_t), 2)
        rp, rprop = H_TOWER.split_poly_proper(r2)
        hp, hprop = H_TOWER.split_poly_proper(h2)
        assert rp.degree() <= hp.degree() or hp.is_zero() and rp.is_zero()
        assert rprop.den.degree() <= hprop.den.degree()


def test_lemma_sigma_simple_content_is_fixed():
    # fixed points hold at the element's own level: one level up the new
    # generator absorbs lower content (delta(t1 - 1/x) = 1/x)
    ctx = ReductionContext(H_TOWER)
    quad = "x^2+1"
    cases = [
        "1/x", "(2*x+3)/x^2", "1/x^3",
        f"1/({quad})", f"(x-4)/({quad})", f"(x^3+2)/({quad})^2",
        f"(x+7)/(x*({quad}))",
        "1/t1", "x/t1^2", "(x^2+1/x)/t1",
    ]
    for s in cases:
        f = parse(H_TOWER, s)
        own = H_TOWER.depth_of_level(H_TOWER.level(f))
        fd = _dd(f, own)
        g, r = complete_reduction(ctx, fd)
        assert r == fd
        assert _is_zero(g)


# ---------------------------------------------------------------------------
# round-trip summability
# ---------------------------------------------------------------------------


def _total_degree_poly(tower, rng, total):
    terms = rng.randint(3, 8)
    t1 = tower.lift_to_top(tower.var("t1"))
    t2 = tower.lift_to_top(tower.var("t2"))
    x = tower.lift_to_top(tower.var("x"))
    out = x * 0
    for _ in range(terms):
        a = rng.randint(0, total)
        b = rng.randint(0, total - a)
        c = Fraction(rng.randint(-9, 9))
        if c == 0:
            c = Fraction(1)
        term = t1 ** a * t2 ** b * c
        if rng.random() < 0.5:
            term = term * x ** rng.randint(1, 2)
        out = out + term
    a = total // 2
    out = out + t1 ** a * t2 ** (total - a)
    return out


def test_roundtrip_summability():
    rng = random.Random(609)
    ctx = ReductionContext(B_TOWER)
    for _ in range(200):
        p = _total_degree_poly(B_TOWER, rng, rng.randint(1, 4))
        f = B_TOWER.delta(p)
        g, r = complete_reduction(ctx, f)
        assert _is_zero(r)
        assert B_TOWER.delta(g) == _dd(f, 3) if not isinstance(f, Fraction) else True


def test_roundtrip_summability_degree_ten():
    rng = random.Random(610)
    ctx = ReductionContext(B_TOWER)
    for _ in range(3):
        p = _total_degree_poly(B_TOWER, rng, 10)
        f = B_TOWER.delta(p)
        started = time.perf_counter()
        g, r = complete_reduction(ctx, f)
        elapsed = time.perf_counter() - started
        assert _is_zero(r)
        assert B_TOWER.delta(g) == f
        assert elapsed <= 5.0


# ---------------------------------------------------------------------------
# level data shared per tower
# ---------------------------------------------------------------------------

# towers whose increments meet classes no seed names, so a context's own
# representatives decide their first pairs
UNSEEDED = parse_tower_text("gen x : 1\ngen t1 : 1/(x+1)\n")
UNSEEDED_QUAD = parse_tower_text(
    "gen x : 1\nseed x : x\ngen t1 : 1/(x^2+1)\n")


@pytest.mark.parametrize("tower,text", [(UNSEEDED, "1/(x+7)"),
                                        (UNSEEDED_QUAD, "1/(x^2+4*x+5)")],
                         ids=["no-seed", "quadratic-increment"])
def test_unseeded_level_data_follows_the_context(tower, text):
    # the warming context picks x+1 (x^2+1) as the class's representative;
    # a fresh one meets x+7 (x^2+4*x+5) first, so its v is 1/(x+7)
    # (1/(x^2+4*x+5)) and the input telescopes against the increment
    complete_reduction(ReductionContext(tower), parse(tower, "t1^2"))
    f = tower.lift_to_top(parse(tower, text))
    g, r = complete_reduction(ReductionContext(tower), f)
    assert _is_zero(r)
    assert_sigma_pair(tower, f, g, r)


def test_fresh_context_on_a_warm_tower_reuses_level_data(monkeypatch):
    f = B_TOWER.delta(parse(B_TOWER, "t2^3"))
    complete_reduction(ReductionContext(B_TOWER), f)
    counts = {"factor_monic": 0, "frac_at": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    # frac_at is called once per echelon row built
    monkeypatch.setattr(reduction, "factor_monic",
                        counted("factor_monic", reduction.factor_monic))
    monkeypatch.setattr(reduction, "frac_at",
                        counted("frac_at", reduction.frac_at))
    g, r = complete_reduction(ReductionContext(B_TOWER), f)
    assert _is_zero(r)
    assert B_TOWER.delta(g) == f
    assert counts == {"factor_monic": 0, "frac_at": 0}


@pytest.mark.parametrize("tower", [H_TOWER, N_TOWER, B_TOWER, UNSEEDED,
                                   UNSEEDED_QUAD],
                         ids=["H", "N", "B", "no-seed", "quadratic-increment"])
def test_warm_tower_reduces_like_a_fresh_copy(tower):
    rng = random.Random(905)
    for _ in range(3):
        f = rand_value(tower, rng)
        warm = complete_reduction(ReductionContext(tower), f)
        copy = TowerSpec(tower.gens, params=tower.params)
        assert warm == complete_reduction(ReductionContext(copy), f)


# ---------------------------------------------------------------------------
# one sharing rule: a context without notes writes to the tower's tables
# ---------------------------------------------------------------------------

NESTED = Path(__file__).resolve().parent.parent / "towers" / "nested.tower"
# no seed at all: x^2 + 1 and x + 2 become representatives of a context's
# own choosing
UNSEEDED_NESTED = ("gen x : 1\n"
                   "gen t1 : 1/(x^2+1)\n"
                   "gen t2 : (t1+1)/(x+2)\n")
# a seeded quadratic class, met by the increment and by the inputs
SEEDED_QUAD = ("gen x : 1\n"
               "seed x : x\n"
               "seed x : x^2+1\n"
               "gen t1 : 1/(x^2+2*x+2)\n"
               "gen t2 : t1/(x+1)\n")

# summand texts; {a} and {b} are small shifts
_SHARING_TERMS = ("1/(x+{a})", "(x+{b})/((x+{a})^2+1)",
                  "1/((x+{a})^2+x+{a}+1)", "t1/(x+{a})", "1/(t1+{b})",
                  "1/(t1+1/(x+{a}))", "t1^2/(x+{a})^2", "x*t2")


def _tower_of(source):
    return (load_tower_file(source) if isinstance(source, Path)
            else parse_tower_text(source))


def _sharing_input(tower, rng):
    terms = [rng.choice(_SHARING_TERMS).format(a=rng.randint(-2, 3),
                                               b=rng.randint(1, 3))
             for _ in range(rng.randint(1, 2))]
    return parse(tower, " + ".join(f"{rng.randint(1, 3)}*({t})"
                                   for t in terms))


def _replayed(source, history):
    """(g, r, notes) after each input of history, in one context on a
    freshly parsed tower."""
    ctx = ReductionContext(_tower_of(source))
    out = []
    for f in history:
        g, r = complete_reduction(ctx, f)
        out.append((g, r, list(ctx.notes)))
    return out


@pytest.mark.parametrize("source,lead", [
    (NESTED, ()), (UNSEEDED_NESTED, ()), (SEEDED_QUAD, ()),
    (NESTED, (("1/(x^2+3)", 1),)),
    (UNSEEDED_NESTED, (("1/(x^2+3)", 1), ("1/(t1+5)", 2))),
    (SEEDED_QUAD, (("1/(t1^2+3)", 2),))],
    ids=["nested", "unseeded", "seeded-quadratic", "nested-noted",
         "unseeded-noted", "seeded-quadratic-noted"])
def test_contexts_answer_as_a_replay_of_their_own_history(source, lead):
    # fresh contexts and one long-lived context, interleaved on one tower,
    # give what each would give alone on a tower of its own; with a lead,
    # every context first reduces its proper fractions, each at its own
    # depth, which adds notes before any level data is computed
    tower = _tower_of(source)
    rng = random.Random(2500)
    leads = [lower(parse(tower, text), depth) for text, depth in lead]

    def fresh():
        ctx = ReductionContext(tower)
        for f in leads:
            complete_reduction(ctx, f)
        return ctx

    kept = fresh()
    assert bool(kept.notes) == bool(leads)
    assert not kept._levels and not tower._reduction.levels
    kept_history, kept_seen = list(leads), []
    for _ in range(14):
        f = _sharing_input(tower, rng)
        ctx = kept if rng.random() < 0.5 else fresh()
        g, r = complete_reduction(ctx, f)
        seen = (g, r, list(ctx.notes))
        if ctx is kept:
            kept_history.append(f)
            kept_seen.append(seen)
        else:
            assert [seen] == _replayed(source, leads + [f])[len(leads):]
    assert kept_seen == _replayed(source, kept_history)[len(leads):]


@pytest.mark.parametrize("text,dens,depth", [
    ("gen x : 1\nseed x : x\nseed x : x^2+1\n",
     ("(x+3)*(x^2+2*x+2)", "(x+3)^2*(x^2+2*x+2)"), 1),
    ("gen x : 1\nseed x : x\ngen t1 : 1/(x+1)\nseed t1 : t1\n",
     ("(t1+1/(x+1))*(t1+1/(x+1)+1/(x+2))",
      "(t1+1/(x+1))^2*(t1+1/(x+1)+1/(x+2))"), 2),
], ids=["level-1", "level-2"])
def test_a_classified_irreducible_is_not_tested_again(monkeypatch, text,
                                                       dens, depth):
    tower = parse_tower_text(text)
    first, second = (lower(parse(tower, f"1/({d})"), depth).den
                     for d in dens)
    calls = []
    original = reduction.shift_equivalence

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(reduction, "shift_equivalence", counting)
    ctx = ReductionContext(tower)
    comps = ctx.classify_den(first, depth)
    assert calls and ctx.notes == []
    del calls[:]
    # a new denominator over the same irreducibles, in the same context
    assert ([c[2:] for c in ctx.classify_den(second, depth)]
            == [c[2:] for c in comps])
    # a fresh context on the warm tower
    assert ReductionContext(tower).classify_den(first, depth) == comps
    assert calls == []


def test_a_class_that_added_a_note_stays_with_its_context():
    tower = parse_tower_text(UNSEEDED_NESTED)
    f = lower(parse(tower, "1/(x^2+1) + 1/(x^2+2*x+2)"), 1)
    quad = lower(parse(tower, "x^2+1"), 1).num
    a = ReductionContext(tower)
    pair = complete_reduction(a, f)
    assert a.notes == [(1, quad)]
    b = ReductionContext(tower)
    assert complete_reduction(b, f) == pair
    assert b.notes == [(1, quad)]


def test_a_context_with_notes_reads_the_seeded_level_data(monkeypatch):
    # each context notes x^2 + 1 before it needs level data; the second
    # then reads the level data and the seeded classes the first computed
    tower = load_tower_file(NESTED)
    f = parse(tower, "t2*t1/(x^2+1) + t2/(x+4)")
    first = ReductionContext(tower)
    pair = complete_reduction(first, f)
    assert first.notes == [(1, lower(parse(tower, "x^2+1"), 1).num)]
    calls = {"increment": 0, "shift_equivalence": 0}
    reduce, shift = reduction.complete_reduction, reduction.shift_equivalence

    def reducing(ctx, v):
        calls["increment"] += any(v is gen.delta for gen in tower.gens)
        return reduce(ctx, v)

    def shifting(*args):
        calls["shift_equivalence"] += 1
        return shift(*args)

    monkeypatch.setattr(reduction, "complete_reduction", reducing)
    monkeypatch.setattr(reduction, "shift_equivalence", shifting)
    second = ReductionContext(tower)
    assert complete_reduction(second, f) == pair
    assert second.notes == first.notes
    # the one test left is x against x^2 + 1, before the note
    assert calls == {"increment": 0, "shift_equivalence": 1}


def test_level_data_that_adds_a_note_stays_with_its_context():
    # the increment 1/(x^2+1) meets a class no seed names
    text = "gen x : 1\nseed x : x\ngen t1 : 1/(x^2+1)\n"
    tower = parse_tower_text(text)
    quad = lower(parse(tower, "x^2+1"), 1).num
    first = ReductionContext(tower)
    complete_reduction(first, parse(tower, "t1^2"))
    assert first.notes == [(1, quad)]
    assert 2 in first._levels and 2 not in tower._reduction.levels
    f = parse(tower, "t1^2 + 1/(x^2+2*x+2)")
    second = ReductionContext(tower)
    g, r = complete_reduction(second, f)
    assert second.notes == [(1, quad)]
    assert [(g, r, second.notes)] == _replayed(text, [f])


# ---------------------------------------------------------------------------
# the polynomial part against the two-pass reduction
# ---------------------------------------------------------------------------


def _reduced_rows(ctx, level, n):
    """Echelon rows 0..n as the two-pass reduction built them: row j is the
    difference pair of t^(j+1)/(j+1) - g*t^j with its lower coefficients
    reduced by an auxiliary pass, so that b_j = v*t^j + reduced terms."""
    depth = ctx.tower.depth_of_level(level)
    below = depth - 1
    g_t, v, _e, _c, _pairs = ctx.level_data(level)
    rows = [(Poly((-g_t, one_at(below))), Poly((v,)))]
    for j in range(1, n + 1):
        pad = (zero_at(below),) * j
        a = Poly(pad + (-g_t, frac_at(Fraction(1, j + 1), below)))
        mono_v = Poly(pad + (v,))
        q, r = auxiliary_reduction(ctx, ctx.delta_poly(a, depth) - mono_v,
                                   depth)
        rows.append((a - q, mono_v + r))
    return rows


def _two_pass_reduce_polynomial(ctx, p, depth):
    """reduce_polynomial as two passes, for reference: the auxiliary pass
    over every coefficient, then elimination of the pivot coordinates of
    its remainder against the reduced echelon rows, from the top down."""
    q, v = auxiliary_reduction(ctx, p, depth)
    if v.is_zero():
        return q, v
    level = depth - ctx.tower.nparams
    _g, _v, element, c, _pairs = ctx.level_data(level)
    below = depth - 1
    rows = _reduced_rows(ctx, level, v.degree())
    for j in range(v.degree(), -1, -1):
        ctil = coordinate_of(ctx, element, v.coeff(j, below))
        if _is_zero(ctil):
            continue
        ratio = lift(ctil / c, below)
        w_j, b_j = rows[j]
        v = v - b_j.scale(ratio)
        q = q + w_j.scale(ratio)
    return q, v


# coefficient texts, by the top variable of the depth below the level
_POLY_POOLS = {
    None: ("1", "-3", "5/2"),
    "n": ("1", "n", "1/(n+1)"),
    "x": ("x", "1/x", "2/(x+3)", "1/(x^2+1)", "x^2", "1/(x+1)^2"),
    "t1": ("t1", "1/t1", "x/(t1+1)", "t1^2/(x+1)", "1/x"),
}


def _rand_poly_part(tower, rng, level, degree):
    below = tower.depth_of_level(level) - 1
    pool = [lower(parse(tower, text), below)
            for text in _POLY_POOLS[tower.names[below]]]
    coeffs = []
    for _ in range(degree + 1):
        c = zero_at(below)
        for _ in range(rng.randint(0, 2)):
            c = c + rng.choice(pool) * Fraction(rng.randint(-4, 4),
                                                rng.randint(1, 3))
        coeffs.append(c)
    if _is_zero(coeffs[-1]):
        coeffs[-1] = one_at(below)
    return Poly(coeffs)


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
@pytest.mark.parametrize("tower", [H_TOWER, N_TOWER, B_TOWER, P_TOWER,
                                   UNSEEDED],
                         ids=["H", "N", "B", "P", "no-seed"])
def test_one_descent_matches_the_two_pass_reduction(tower, shared):
    # each side on its own copy of the tower, so that neither finds the
    # other's level data. Without seeds a context computes its own level
    # data, and the two algorithms read it at different points (see the
    # next test), so there both sides read it before the first input
    rng = random.Random(2300)
    copies = [TowerSpec(tower.gens, params=tower.params) for _ in range(2)]
    for level in range(1, tower.nlevels + 1):
        depth = tower.depth_of_level(level)
        kept = [ReductionContext(t) for t in copies]
        for degree in range(7):
            p = _rand_poly_part(tower, rng, level, degree)
            ctxs = kept if shared else [ReductionContext(t) for t in copies]
            if tower is UNSEEDED:
                for ctx in ctxs:
                    ctx.level_data(level)
            one = reduce_polynomial(ctxs[0], p, depth)
            assert one == _two_pass_reduce_polynomial(ctxs[1], p, depth)
            assert ctxs[0].notes == ctxs[1].notes


def test_level_data_is_read_at_the_first_nonzero_remainder():
    # without seeds a fresh context computes the level data itself, and
    # that meets the class of x + 1. The descent reads it at the first
    # nonzero remainder coefficient, 1/(x^2+1), before it reduces
    # 1/(x+3)^2, so x + 1 represents the class; the two-pass reduction
    # reduced every coefficient first, and x + 3 did
    tower = TowerSpec(UNSEEDED.gens, params=UNSEEDED.params)
    f = _dd(parse(tower, "t1^3/(x^2+1) + t1/(x+3)^2"), 2)
    assert f.den.is_one()
    reps = {}
    for reduce in (reduce_polynomial, _two_pass_reduce_polynomial):
        ctx = ReductionContext(tower)
        q, v = reduce(ctx, f.num, 2)
        g, r = RatFunc.from_poly(q, 2), RatFunc.from_poly(v, 2)
        assert_sigma_pair(tower, f, g, r)
        reps[reduce] = [irr for _level, irr in ctx.notes]
    quad = lower(parse(tower, "x^2+1"), 1).num
    assert reps[reduce_polynomial] == [quad, lower(parse(tower, "x+1"), 1).num]
    assert reps[_two_pass_reduce_polynomial] == [
        quad, lower(parse(tower, "x+3"), 1).num]


HARMONIC = Path(__file__).resolve().parent.parent / "towers" / "harmonic.tower"


def test_polynomial_part_takes_few_reductions_below(monkeypatch):
    # at most one complete_reduction per coefficient of the descent. An
    # auxiliary pass inside every difference pair would make the count
    # grow with k^2 (824 calls at k = 40, 3,244 at k = 80)
    original = reduction.complete_reduction
    for k in (40, 80):
        tower = load_tower_file(HARMONIC)
        calls = []

        def counting(ctx, f):
            calls.append(f)
            return original(ctx, f)

        monkeypatch.setattr(reduction, "complete_reduction", counting)
        g, r = reduction.complete_reduction(ReductionContext(tower),
                                            parse(tower, f"x^{k}"))
        monkeypatch.undo()
        assert _is_zero(r)
        assert tower.delta(g) == parse(tower, f"x^{k}")
        assert len(calls) <= 2 * k
