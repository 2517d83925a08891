"""Exact polynomial and rational-function arithmetic."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.densearith import dup_exquo, dup_mul
from sympy.polys.densetools import dup_primitive
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_gcd, dup_gcd

from sumred import algebra
from sumred.algebra import (Poly, RatFunc, _zexquo, _zmul, _zpoly_gcd,
                            coprime_split, drop, frac_at, lift, lower,
                            modular_residue, one_at, padic_expand, poly_gcd,
                            poly_xgcd, set_int_cap, vdepth, zero_at)
from sumred.errors import IntegerLimitError
from sumred.sigmafactor import factor_monic

from conftest import (H_TOWER, N_TOWER, P_TOWER, Q_TOWER, parse,
                      rand_proper1)


def _poly_to_sympy(p, depth, syms):
    """p, with coefficients of depth - 1, as a sympy expression in syms."""
    x = syms[depth - 1]
    return sum((_value_to_sympy(c, syms) * x ** i
                for i, c in enumerate(p.coeffs)), sympy.Integer(0))


def _value_to_sympy(v, syms):
    if isinstance(v, Fraction):
        return sympy.Rational(v.numerator, v.denominator)
    return (_poly_to_sympy(v.num, v.depth, syms)
            / _poly_to_sympy(v.den, v.depth, syms))


def rand_poly(rng, deg):
    return Poly(tuple(Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)))


def nonzero_poly(rng, deg):
    p = rand_poly(rng, deg)
    while p.is_zero():
        p = rand_poly(rng, deg)
    return p


def poly_of_degree(rng, deg):
    """Random polynomial of exactly the requested degree."""
    coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([1, 2, 3, -1, -2])))
    return Poly(tuple(coeffs))


def test_poly_constructor_strips_leading_zeros():
    p = Poly((Fraction(1), Fraction(2), Fraction(0), Fraction(0)))
    assert p.degree() == 1
    assert Poly((Fraction(0),)).is_zero()
    assert Poly(()).is_zero()


def test_poly_ring_axioms():
    rng = random.Random(101)
    for _ in range(80):
        a = rand_poly(rng, rng.randint(0, 5))
        b = rand_poly(rng, rng.randint(0, 5))
        c = rand_poly(rng, rng.randint(0, 5))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == Poly(())
        assert (a * b) * c == a * (b * c)


def test_poly_divmod():
    rng = random.Random(102)
    for _ in range(80):
        a = rand_poly(rng, rng.randint(0, 7))
        b = nonzero_poly(rng, rng.randint(0, 4))
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()


def _ref_mul(a, b):
    """Per-coefficient Fraction product of coefficient tuples."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_divmod(a, b):
    """Per-coefficient Fraction long division of coefficient tuples."""
    a, n = list(a), len(b) - 1
    if len(a) - 1 < n:
        return [], a
    q = [Fraction(0)] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] / b[-1]
        q[i - n] = c
        for j in range(n + 1):
            a[i - n + j] -= c * b[j]
    return q, a[:n]


def _sparse_rational_poly(rng, deg):
    """Exact degree deg, rational coefficients, about a third of the inner
    ones zero, leading coefficient rarely 1."""
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
              if rng.random() < 0.66 else Fraction(0) for _ in range(deg)]
    lead = Fraction(rng.choice([1, -1, 2, -3, 5, 12]), rng.choice([1, 2, 7, 9]))
    return Poly(tuple(coeffs) + (lead,))


def test_poly_mul_and_divmod_match_fraction_reference():
    rng = random.Random(121)
    for _ in range(150):
        a = _sparse_rational_poly(rng, rng.randint(0, 8))
        b = _sparse_rational_poly(rng, rng.randint(1, 5))
        prod = a * b
        assert prod == Poly(_ref_mul(a.coeffs, b.coeffs))
        assert all(type(c) is Fraction for c in prod.coeffs)
        # a may have lower degree than b; prod / b has the zero inner
        # coefficients of a as quotient terms, where the running remainder's
        # top term has already cancelled
        for dividend in (a, prod, prod + a % b):
            q, r = dividend.divmod(b)
            q_ref, r_ref = _ref_divmod(dividend.coeffs, b.coeffs)
            assert q == Poly(q_ref) and r == Poly(r_ref)
            assert all(type(c) is Fraction for c in q.coeffs + r.coeffs)


def _ref(coeffs):
    """A Fraction coefficient tuple without trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = a + (Fraction(0),) * (n - len(a))
    b = b + (Fraction(0),) * (n - len(b))
    return _ref(x + sign * y for x, y in zip(a, b))


def _ref_gcd(a, b):
    """Monic gcd by Euclid over Q on coefficient tuples."""
    while b:
        a, b = b, _ref(_ref_divmod(a, b)[1])
    return _ref(x / a[-1] for x in a) if a else a


def _bottom_poly(rng):
    """Coefficients: often zero, constant, with negative or large
    denominators and numerators."""
    deg = rng.choice([-1, 0, 0, 1, 2, 3, 5])
    coeffs = []
    for _ in range(deg + 1):
        if rng.random() < 0.25:
            coeffs.append(Fraction(0))
            continue
        num = rng.randint(-10 ** rng.choice([1, 3, 30]), 10 ** 30)
        den = rng.choice([1, 1, 2, 6, 7, 12, 2 ** 70 + 1, 3 ** 45])
        coeffs.append(Fraction(num, rng.choice([den, -den])))
    return coeffs


def test_bottom_level_matches_the_fraction_reference():
    rng = random.Random(150)
    seen_zero = seen_const_divisor = 0
    for _ in range(400):
        ra, rb = _ref(_bottom_poly(rng)), _ref(_bottom_poly(rng))
        a, b = Poly(ra), Poly(rb)
        assert a.coeffs == ra and b.coeffs == rb
        c = Fraction(rng.randint(-50, 50), rng.choice([1, 3, -8, 2 ** 65]))
        results = [(a + b, _ref_add(ra, rb)), (a - b, _ref_add(ra, rb, -1)),
                   (-a, _ref(-x for x in ra)), (a.scale(c), _ref(x * c for x in ra)),
                   (poly_gcd(a, b), _ref_gcd(ra, rb))]
        if ra and rb:
            results.append((a * b, _ref(_ref_mul(ra, rb))))
        if rb:
            q, r = a.divmod(b)
            q_ref, r_ref = _ref_divmod(ra, rb)
            results += [(q, _ref(q_ref)), (r, _ref(r_ref))]
            assert (a * b).exact_div(b) == a
            seen_const_divisor += len(rb) == 1
        if ra:
            lc, m = a.monic()
            assert lc == a.lc() == ra[-1]
            results.append((m, _ref(x / ra[-1] for x in ra)))
        seen_zero += not ra
        for i in range(-1, len(ra) + 2):
            assert a.coeff(i, 0) == (ra[i] if 0 <= i < len(ra) else 0)
        assert a.is_one() == (ra == (Fraction(1),))
        for got, ref in results:
            # a value reached by arithmetic equals, and hashes like, the
            # same value built from its Fractions
            built = Poly(ref)
            assert got == built and hash(got) == hash(built)
            assert got.coeffs == ref
            assert all(type(x) is Fraction for x in got.coeffs)
    assert seen_zero and seen_const_divisor


def test_poly_gcd_divides_both():
    rng = random.Random(103)
    for _ in range(60):
        a = nonzero_poly(rng, rng.randint(0, 4))
        b = nonzero_poly(rng, rng.randint(0, 4))
        s = nonzero_poly(rng, rng.randint(0, 3))
        g = poly_gcd(a * s, b * s)
        assert (a * s) % g == Poly(())
        assert (b * s) % g == Poly(())
        assert g.degree() >= s.degree()
        assert g.lc() == Fraction(1)


# field name -> (tower, variable y below the top, top variable t, pool of
# coefficient texts)
_GCD_FIELDS = {
    "Q(x)[t1]": (H_TOWER, "x", "t1", ("1", "x", "1/x", "x+2", "(x-1)/(x+3)",
                                      "2/(x^2+1)")),
    "Q(x)(t1)[t2]": (N_TOWER, "t1", "t2", ("1", "x", "t1", "1/(t1+x)",
                                           "(x*t1-1)/(t1+1)", "t1^2/x")),
    "Q(n)(x)[t1]": (P_TOWER, "x", "t1", ("1", "n", "x", "1/(x+n)",
                                         "(n*x-1)/(x+2)", "n/(x^2-n)")),
    "Q(n)[x]": (P_TOWER, "n", "x", ("1", "n", "1/n", "n+2", "(n-1)/(n+3)",
                                    "2/(n^2+1)")),
}

# the image gcd's points: the first, and a polynomial in y vanishing at all
_XI = algebra._IMAGE_POINTS[0]
_AT_ALL_POINTS = "*".join(f"({{y}}-{p})" for p in algebra._IMAGE_POINTS)

# fixed pairs (texts in y and t) that the depth-1 image gcd decides from its
# image or sends on to dmp_gcd
_GCD_HARD_PAIRS = (
    # coprime, but the images coincide at the first point
    ("{t} - {y}", f"{{t}} - {_XI}"),
    # both leading coefficients vanish at every point
    (f"{_AT_ALL_POINTS}*{{t}}^2 + {{t}} + 1", f"{_AT_ALL_POINTS}*{{t}} + {{y}}"),
    # proportional, and equal
    ("({y}+1)*({t}^2 + {y}*{t} + 1)", "(2/({y}-1))*({t}^2 + {y}*{t} + 1)"),
    ("{t}^2 + {y}*{t} + 1/{y}", "{t}^2 + {y}*{t} + 1/{y}"),
    # a proper common factor of degree 1 in operands of degree 2
    ("({t}+{y})*({t}-1)", "({t}+{y})*({t}+2)"),
    # a content in y only
    ("({y}^2+1)*({t}+{y})*({t}+1)", "({y}^2+1)*({y}+3)*({t}+{y})"),
)


@pytest.mark.parametrize("tower,y,top,pool", _GCD_FIELDS.values(),
                         ids=_GCD_FIELDS.keys())
def test_poly_gcd_matches_sympy_above_the_bottom(tower, y, top, pool):
    rng = random.Random(120)
    depth = tower.depth_of_name(top)
    syms = sympy.symbols(f"y1:{depth}") + (sympy.Symbol("t"),)

    def top_poly(text):
        return lower(parse(tower, text), depth).num

    def rand_top_poly(deg):
        terms = [f"({rng.choice(pool)})*({rng.randint(-3, 3)})*{top}^{e}"
                 for e in range(deg)]
        terms.append(f"({rng.choice(pool)})*{top}^{deg}")
        return top_poly(" + ".join(terms))

    def check(a, b, s):
        g = poly_gcd(a, b)
        assert g.lc() == one_at(depth - 1)
        assert g.degree() >= s.degree()
        assert (a % g).is_zero() and (b % g).is_zero()
        cleared = [sympy.fraction(sympy.together(
            _poly_to_sympy(p, depth, syms)))[0] for p in (a, b)]
        expect = sympy.gcd(*cleared)
        expect = expect / sympy.Poly(expect, syms[-1]).LC()
        assert sympy.cancel(_poly_to_sympy(g, depth, syms) - expect) == 0

    for _ in range(12):
        s = rand_top_poly(rng.randint(0, 2))
        check(rand_top_poly(rng.randint(0, 2)) * s,
              rand_top_poly(rng.randint(0, 2)) * s, s)
    one = top_poly("1")
    for pair in _GCD_HARD_PAIRS:
        a, b = (top_poly(text.format(y=y, t=top)) for text in pair)
        check(a, b, one)
        check(b, a, one)


def test_image_gcd_calls_dmp_gcd_only_for_a_proper_common_factor(
        monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        assert allow, "dmp_gcd reached on a coprime or dividing pair"
        return dmp_gcd(*args)

    monkeypatch.setattr(algebra, "dmp_gcd", counted)
    for field in ("Q(x)[t1]", "Q(n)[x]"):
        tower, y, top, _pool = _GCD_FIELDS[field]
        depth = tower.depth_of_name(top)

        def top_poly(text):
            return lower(parse(tower, text.format(y=y, t=top)), depth).num

        one = top_poly("1")
        allow = False
        for coprime in (("{t}^2 + {y}", "{t} - 1"),
                        ("({y}+2)*{t} + 1", "{y}*{t}^3 + {t} - {y}")):
            a, b = map(top_poly, coprime)
            assert poly_gcd(a, b) == one and poly_gcd(b, a) == one
        for q, m in (("{t} + {y}", "{t}^2 - 1/{y}"),
                     ("({y}^2+1)*{t}^2 + 3", "({y}+1)*{t}/({y}-2)"),
                     ("{t}^2 + {y}*{t} + 1", "2/({y}+5)")):
            b = top_poly(q)
            a = b * top_poly(m)
            assert poly_gcd(a, b) == b.monic()[1] == poly_gcd(b, a)
        assert calls == []
        allow = True
        a, b = top_poly("({t}+{y})*({t}-1)"), top_poly("({t}+{y})*({t}+2)")
        assert poly_gcd(a, b) == top_poly("{t}+{y}")
        assert len(calls) == 1
        calls.clear()


def test_poly_gcd_with_a_constant_operand_is_one():
    cases = [
        (Poly((Fraction(-3, 2),)), Poly((Fraction(1), Fraction(2), Fraction(1))),
         Poly((Fraction(1),))),
        (parse(H_TOWER, "(x+1)/x").num, parse(H_TOWER, "(x+1)*t1 + x").num,
         Poly((one_at(1),))),
        (parse(N_TOWER, "t1/(x+1)").num, parse(N_TOWER, "t1*t2 + t1").num,
         Poly((one_at(2),))),
    ]
    for const, other, one in cases:
        assert const.degree() == 0
        assert poly_gcd(const, other) == one
        assert poly_gcd(other, const) == one
        assert poly_gcd(const, const) == one
        assert poly_gcd(Poly(()), const) == one


def _zz_operand(rng, c, i, h):
    """c x^i h as a Z[x] sequence (low first), sometimes as a tuple."""
    a = [0] * i + [c * v for v in h]
    return tuple(a) if rng.random() < 0.3 else a


def _zz_pairs():
    """Seeded Z[x] operand pairs c x^i h, i = 0..4: monomials and constants,
    equal operands, negative leading coefficients, a common factor or
    coprime tails."""
    rng = random.Random(160)

    def h(deg):
        # sometimes x | h, so the power of x of an operand exceeds i
        return [rng.randint(-9, 9) for _ in range(deg)] + [
            rng.choice([1, 2, 3, -1, -2])]

    pairs = []
    for _ in range(200):
        s = h(rng.randint(0, 2))
        ops = []
        for _side in range(2):
            tail = _zmul(h(rng.randint(0, 3)) if rng.random() < 0.8 else [1],
                         s)
            ops.append(_zz_operand(rng, rng.choice([1, 2, 5, -1, -3]),
                                   rng.randint(0, 4), tail))
        pairs.append(tuple(ops))
        pairs.append((ops[0], ops[0]))
    # coprime tails, and the constants
    pairs += [([0, 0, 1, 1], (0, 3, 0, 1)), ([1, 1], [0, 0, -1, 1]),
              ([7], [0, 0, 0, -14]), ((-4,), (6,)), ([0, 5], (2,))]
    return pairs


def _dup(a):
    return [ZZ(c) for c in reversed(a)]


def test_z_kernel_matches_sympy_dup():
    for a, b in _zz_pairs():
        g = _zpoly_gcd(a, b)
        content, expect = dup_primitive(dup_gcd(_dup(a), _dup(b), ZZ), ZZ)
        if expect[0] < 0:
            expect = [-c for c in expect]
        assert type(g) is list and g is not a and g is not b
        assert g == expect[::-1], (a, b)
        ab = _zmul(a, b)
        assert type(ab) is list
        assert ab == dup_mul(_dup(a), _dup(b), ZZ)[::-1], (a, b)
        for p, q in ((ab, b), (ab, a), (tuple(ab), b)):
            assert _zexquo(p, q) == dup_exquo(_dup(p), _dup(q), ZZ)[::-1]


def test_z_gcd_takes_out_the_power_of_x_without_pseudo_division(
        monkeypatch):
    def refused(*args):
        raise AssertionError("_zpoly_pdivmod reached")

    monkeypatch.setattr(algebra, "_zpoly_pdivmod", refused)
    for a, b, g in (([0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 5], [0, 0, 0, 1]),
                    ([0, 0, 1], [1, 3], [1])):
        assert _zpoly_gcd(a, b) == g and _zpoly_gcd(b, a) == g


# field name -> (tower, top variable t, pool of coefficient texts from the
# field below): coefficient depth 0, 1 and 2, and two fields over Q(n)
_FIELDS = {
    "Q[x]": (Q_TOWER, "x", ("1", "-2", "1/3", "5/2")),
    "Q(x)[t1]": (H_TOWER, "t1", ("1", "x", "1/x", "x+2", "(x-1)/(x+3)")),
    "Q(x)(t1)[t2]": (N_TOWER, "t2", ("1", "x", "t1", "1/(t1+x)", "t1^2/x")),
    "Q(n)[x]": (P_TOWER, "x", ("1", "n", "1/n", "n+2", "(n-1)/(n+3)")),
    "Q(n)(x)[t1]": (P_TOWER, "t1", ("1", "n", "x", "1/(x+n)", "n/(x^2-n)")),
}


def _field_poly(field, text):
    """The polynomial in the field's top variable that text parses to."""
    tower, top, _pool = _FIELDS[field]
    return lower(parse(tower, text), tower.depth_of_name(top)).num


def _rand_field_poly(rng, field, deg):
    """Degree <= deg, about a fifth of the coefficients zero."""
    _tower, top, pool = _FIELDS[field]
    terms = [f"({rng.choice(pool)})*({rng.randint(-3, 3)})*{top}^{e}"
             for e in range(deg + 1) if rng.random() < 0.8]
    return _field_poly(field, " + ".join(terms) or "0")


def test_poly_xgcd_bezout():
    # in every field of _FIELDS, pairs with a common factor on most draws,
    # both ways round and against the zero polynomial
    rng = random.Random(104)
    for field in _FIELDS:
        zero = _field_poly(field, "0")
        for _ in range(20):
            s = _rand_field_poly(rng, field, rng.randint(0, 1))
            a = _rand_field_poly(rng, field, rng.randint(0, 3)) * s
            b = _rand_field_poly(rng, field, rng.randint(0, 3)) * s
            pairs = [(a, b), (b, a)]
            if not a.is_zero():
                pairs += [(a, zero), (zero, a)]
            for u, v in pairs:
                g, x, y = poly_xgcd(u, v)
                assert x * u + y * v == g
                assert g == poly_gcd(u, v)


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELDS)
def test_remainder_is_the_remainder_of_divmod(field):
    rng = random.Random(119)
    for _ in range(25):
        b = _rand_field_poly(rng, field, rng.randint(0, 3))
        if b.is_zero():
            continue
        a = _rand_field_poly(rng, field, rng.randint(0, 5))
        # deg a < deg b on some draws, an exact quotient, and one with a
        # remainder of lower degree than both
        for p in (a, a * b, a * b + a % b):
            assert p % b == p.divmod(b)[1]


def test_poly_eval_is_a_homomorphism():
    rng = random.Random(105)
    for _ in range(60):
        a = rand_poly(rng, 4)
        b = rand_poly(rng, 4)
        pt = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)


def test_poly_pow_and_monic():
    rng = random.Random(109)
    for _ in range(30):
        p = nonzero_poly(rng, rng.randint(0, 3))
        q = p * p * p
        assert p ** 3 == q
        c, m = p.monic()
        assert m.lc() == Fraction(1)
        assert m.scale(c) == p
    assert nonzero_poly(rng, 2) ** 0 == Poly((Fraction(1),))


def test_poly_exact_div_roundtrip():
    rng = random.Random(110)
    for _ in range(40):
        a = nonzero_poly(rng, rng.randint(0, 4))
        b = nonzero_poly(rng, rng.randint(0, 4))
        assert (a * b).exact_div(b) == a


def test_ratfunc_canonical_form():
    rng = random.Random(112)
    for _ in range(60):
        p = nonzero_poly(rng, rng.randint(0, 4))
        q = nonzero_poly(rng, rng.randint(1, 4))
        s = nonzero_poly(rng, rng.randint(0, 3))
        assert RatFunc(p * s, q * s, 1) == RatFunc(p, q, 1)
        v = RatFunc(p, q, 1)
        assert v.den.lc() == Fraction(1)
        assert poly_gcd(v.num, v.den).degree() == 0


def _assert_canonical_sum(a, b):
    depth = a.depth
    v = a + b
    assert v.den.lc() == one_at(depth - 1)
    assert v.num.is_zero() or poly_gcd(v.num, v.den).degree() == 0
    assert v == RatFunc(a.num * b.den + b.num * a.den, a.den * b.den, depth)
    return v


def test_ratfunc_sum_with_common_denominator_factor_depth_one():
    rng = random.Random(122)
    for _ in range(60):
        s = poly_of_degree(rng, rng.randint(1, 2))
        a = RatFunc(nonzero_poly(rng, 3), poly_of_degree(rng, 1) * s, 1)
        b = RatFunc(nonzero_poly(rng, 3), poly_of_degree(rng, 2) * s, 1)
        _assert_canonical_sum(a, b)
        # c - a keeps s in its denominator; adding a back cancels all of it
        c = RatFunc(nonzero_poly(rng, 2), poly_of_degree(rng, 2), 1)
        assert _assert_canonical_sum(a, c - a) == c


def test_ratfunc_sum_with_common_denominator_factor_depth_two():
    rng = random.Random(123)
    nums = ("1", "x", "1/x", "t1", "x*t1 - 1", "(x+1)/(x+3)")
    dens = ("t1 + 1", "t1 - x", "x*t1 + 1/(x+1)", "t1^2 + x")
    for _ in range(25):
        s = rng.choice(dens)
        d1, d2, d3 = rng.sample(dens, 3)
        a = parse(H_TOWER, f"({rng.choice(nums)})/(({s})*({d1}))")
        b = parse(H_TOWER, f"({rng.choice(nums)})/(({s})*({d2}))")
        c = parse(H_TOWER, f"({rng.choice(nums)})/({d3})")
        _assert_canonical_sum(a, b)
        assert _assert_canonical_sum(a, c - a) == c


def _assert_canonical(v):
    assert v.den.lc() == one_at(v.depth - 1)
    assert v.num.is_zero() or poly_gcd(v.num, v.den).degree() == 0


# values at depths 1, 2 and 3 of N_TOWER whose numerators and denominators
# share factors across the pool, so products and quotients cross-cancel
_TRUSTED_POOLS = {
    1: ("(3*x+3)/(2*x-4)", "(x-2)^2/(x*(x+1))", "-x/(x+1)^2", "5/(7*x)",
        "(x^2+1)/(x-2)"),
    2: ("(x*t1+x)/(t1-1/x)", "(t1-1/x)^2/(3*(t1+1)*(t1+x))", "-2*t1/(x+1)",
        "(t1+x)/(x*t1^2+1)", "(x+1)/x"),
    3: ("(t2+t1)/(x*t2-1)", "(x*t2-1)^2/((t2+t1)*(t2+1/x))", "t1*t2/(x+2)",
        "-(t2+1/x)/(t1*t2+t1)", "x/t1"),
}


@pytest.mark.parametrize("depth", sorted(_TRUSTED_POOLS))
def test_products_and_inverses_are_canonical_without_a_final_gcd(depth):
    vals = [lower(parse(N_TOWER, text), depth)
            for text in _TRUSTED_POOLS[depth]]
    for a in vals:
        assert a.depth == depth
        inv = a.inv()
        _assert_canonical(inv)
        assert inv == RatFunc(a.den, a.num, depth)
        for k in (2, 3, -1, -2):
            p = a ** k
            _assert_canonical(p)
            n, d = (a.num, a.den) if k > 0 else (a.den, a.num)
            assert p == RatFunc(n ** abs(k), d ** abs(k), depth)
        for b in vals:
            prod, quo = a * b, a / b
            _assert_canonical(prod)
            _assert_canonical(quo)
            assert prod == RatFunc(a.num * b.num, a.den * b.den, depth)
            assert quo == RatFunc(a.num * b.den, a.den * b.num, depth)


def test_ratfunc_field_axioms_by_evaluation():
    rng = random.Random(113)
    for _ in range(60):
        a = RatFunc(nonzero_poly(rng, 2), nonzero_poly(rng, 2), 1)
        b = RatFunc(nonzero_poly(rng, 2), nonzero_poly(rng, 2), 1)
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == RatFunc.from_poly(Poly(()), 1)
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * b.inv() == one_at(1)
        assert a * (a + b) == a * a + a * b


def test_ratfunc_pow():
    rng = random.Random(114)
    v = RatFunc(nonzero_poly(rng, 2), nonzero_poly(rng, 2), 1)
    assert v ** 0 == one_at(1)
    assert v ** 3 == v * v * v
    assert v ** -2 == (v * v).inv()


@pytest.mark.parametrize("cls", [Poly, RatFunc])
def test_power_takes_logarithmically_many_products(monkeypatch, cls):
    # square-and-multiply: 16 squarings and 5 products for n = 100000,
    # where repeated multiplication takes n - 1 = 99999
    n = 100000
    base = Poly((Fraction(2),)) if cls is Poly else frac_at(Fraction(2), 1)
    want = Poly((Fraction(2 ** n),)) if cls is Poly else frac_at(Fraction(2 ** n), 1)
    calls = []
    mul = cls.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    assert base ** n == want
    assert len(calls) <= 2 * n.bit_length()


def test_ratfunc_int_and_fraction_mixing():
    x = RatFunc(Poly((Fraction(0), Fraction(1))), Poly((Fraction(1),)), 1)
    assert x + 1 == 1 + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert 2 / (x * 2) == x.inv()
    assert (x - x).is_zero()


def test_zero_division_raises():
    x = RatFunc(Poly((Fraction(0), Fraction(1))), Poly((Fraction(1),)), 1)
    with pytest.raises(ZeroDivisionError):
        x / (x - x)
    with pytest.raises(ZeroDivisionError):
        (x - x).inv()
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly((Fraction(1),)), Poly(()), 1)


def test_depth_lift_drop_roundtrip():
    rng = random.Random(115)
    for _ in range(40):
        v = rand_proper1(rng)
        assert vdepth(v) == 1
        up = lift(v, 3)
        assert vdepth(up) == 3
        assert drop(drop(up)) == v
    assert drop(frac_at(Fraction(3, 2), 2)) == frac_at(Fraction(3, 2), 1)
    assert drop(lift(H_TOWER.var("t1"), 2)) is None
    assert zero_at(2).is_zero() and one_at(2).is_one()


def test_mixed_depth_arithmetic_rejected():
    a = one_at(1)
    b = one_at(2)
    with pytest.raises(TypeError):
        a + b


def test_lift_downward_rejected():
    with pytest.raises(ValueError):
        lift(one_at(2), 1)


def test_coprime_split_recombines():
    rng = random.Random(116)
    for _ in range(40):
        mods = []
        base = rng.randint(-3, 3)
        for j in range(rng.randint(2, 3)):
            mods.append(Poly((Fraction(base + 3 * j), Fraction(1)))
                        ** rng.randint(1, 2))
        total = mods[0]
        for m in mods[1:]:
            total = total * m
        num = rand_poly(rng, total.degree() - 1)
        if num.is_zero():
            num = Poly((Fraction(1),))
        parts = coprime_split(num, mods)
        acc = Poly(())
        for a, m in zip(parts, mods):
            acc = acc + a * total.exact_div(m)
            assert a.is_zero() or a.degree() < m.degree()
        assert acc == num


def test_coprime_split_rejects_improper():
    m = Poly((Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        coprime_split(Poly((Fraction(1), Fraction(1))), [m])


def _xgcd_split(num, moduli):
    """coprime_split by a full extended Euclid of the product of the later
    moduli against each modulus, for reference."""
    one = Poly((one_at(vdepth(num.lc())),))
    out, rest = [], num
    for idx, q in enumerate(moduli[:-1]):
        r = moduli[idx + 1]
        for extra in moduli[idx + 2:]:
            r = r * extra
        r0, r1, s0, s1, t0, t1 = r, q, one, Poly(()), Poly(()), one
        while not r1.is_zero():
            quo, rem = r0.divmod(r1)
            r0, r1 = r1, rem
            s0, s1 = s1, s0 - quo * s1
            t0, t1 = t1, t0 - quo * t1
        assert r0.degree() == 0 and s0 * r + t0 * q == r0
        a = (rest * s0.scale(1 / r0.lc())) % q
        out.append(a)
        rest = (rest - a * r).exact_div(q)
    return out + [rest]


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELDS)
def test_coprime_split_matches_the_extended_gcd_split(field):
    _tower, top, pool = _FIELDS[field]
    rng = random.Random(1211)
    for _ in range(8):
        # 2 to 4 pairwise coprime monic linear and quadratic factors, each
        # to a power 1 to 3, of total degree at most 6 to bound the run
        factors, mods = [], []
        count = rng.randint(2, 4)
        while len(mods) < count:
            c = [rng.choice(pool) for _ in range(2)]
            text = (f"{top} + ({c[0]})*{rng.randint(-3, 3)}"
                    if rng.random() < 0.5 else
                    f"{top}^2 + ({c[0]})*{top} + ({c[1]})*{rng.randint(1, 3)}")
            f = _field_poly(field, text)
            m = f ** rng.randint(1, 3)
            if (all(poly_gcd(f, h).degree() == 0 for h in factors)
                    and sum(x.degree() for x in mods) + m.degree()
                    <= 6 - (count - len(mods) - 1)):
                factors.append(f)
                mods.append(m)
        num = _rand_field_poly(rng, field, sum(m.degree() for m in mods) - 1)
        if num.is_zero():
            num = _field_poly(field, "1")
        parts = coprime_split(num, mods)
        assert parts == _xgcd_split(num, mods)
        assert all(a.degree() < m.degree() for a, m in zip(parts, mods))


@pytest.mark.parametrize("field", ["Q[x]", "Q(x)[t1]"])
def test_coprime_split_rejects_moduli_with_a_common_factor(field):
    _tower, top, _pool = _FIELDS[field]
    shared = [_field_poly(field, f"{top} + 1"),
              _field_poly(field, f"({top} + 1)*({top} + 2)")]
    for mods in (shared, shared[::-1], shared + [_field_poly(field, top)]):
        with pytest.raises(ValueError, match="not pairwise coprime"):
            coprime_split(_field_poly(field, "1"), mods)


def test_modular_residue():
    rng = random.Random(117)
    for _ in range(40):
        _, q = poly_of_degree(rng, rng.randint(1, 3)).monic()
        cof = nonzero_poly(rng, rng.randint(0, 3))
        while poly_gcd(cof, q).degree() != 0:
            cof = nonzero_poly(rng, rng.randint(0, 3))
        num = rand_poly(rng, rng.randint(0, 4))
        r = modular_residue(num, cof, q)
        # r * cof = num modulo q
        assert (r * cof - num) % q == Poly(())
        assert r.is_zero() or r.degree() < q.degree()


def test_padic_expand_reconstructs():
    rng = random.Random(118)
    for _ in range(40):
        _, q = poly_of_degree(rng, rng.randint(1, 3)).monic()
        a = rand_poly(rng, rng.randint(0, 7))
        digits = padic_expand(a, q)
        acc = Poly(())
        power = Poly((Fraction(1),))
        for d in digits:
            assert d.is_zero() or d.degree() < q.degree()
            acc = acc + d * power
            power = power * q
        assert acc == a


# -- polynomials over Q(y): Z[y] numerators over one Z[y] denominator ------

# field name -> (tower whose depth-1 variable is y, name of y)
_XFIELDS = {"Q(x)": (H_TOWER, "x"), "Q(n)": (P_TOWER, "n")}


def _bottom(*coeffs):
    return Poly(tuple(Fraction(c) for c in coeffs))


# coefficient denominators in y: constants, coprime linear and quadratic
# factors, and products sharing a factor
_YDENS = (_bottom(1), _bottom(3), _bottom(1, 1), _bottom(-2, 1),
          _bottom(1, 0, 1), _bottom(3, 2), _bottom(0, 1, 1), _bottom(1, 2, 1))


def _rand_t_poly(rng, kind, deg):
    """A Poly in t over Q(y) of degree <= deg, its coefficients over one
    shared denominator, pairwise coprime ones, constants only, or a mix,
    with some coefficients zero."""
    shared = rng.choice(_YDENS)
    coeffs = []
    for _ in range(deg + 1):
        if rng.random() < 0.25:
            coeffs.append(zero_at(1))
            continue
        if kind == "constant":
            coeffs.append(frac_at(Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 4)), 1))
            continue
        den = {"shared": shared, "coprime": _YDENS[2 + len(coeffs) % 4]}.get(
            kind, rng.choice(_YDENS))
        num = Poly(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 3))))
        coeffs.append(RatFunc(num, den, 1) if not num.is_zero()
                      else zero_at(1))
    return Poly(coeffs)


def _xring(yname):
    y = sympy.Symbol(yname)
    ring, _t = sympy.polys.rings.ring("t", sympy.QQ.frac_field(y))
    return ring, (y, sympy.Symbol("t"))


def _in_ring(ring, syms, p):
    return ring.from_expr(_poly_to_sympy(p, 2, syms))


def _assert_stored_canonical(p, syms):
    """The stored (N, D) of p: no trailing zeros, lc(D) > 0, integer
    content 1 and D coprime over Q[y] to the content of N. A constant free
    of y is stored at its own depth: one integer over a coprime positive
    int."""
    if p.is_zero():
        return
    nums, den = p.as_integers()
    if isinstance(den, int):
        assert len(nums) == 1 and den > 0 and math.gcd(nums[0], den) == 1
        return
    assert isinstance(den, tuple) and den[-1] > 0 and nums[-1]
    assert all(not n or n[-1] for n in nums)
    assert sympy.igcd(*den, *(v for n in nums for v in n)) == 1
    y = syms[0]
    g = sympy.Poly(list(reversed(den)), y)
    for n in nums:
        if n:
            g = sympy.gcd(g, sympy.Poly(list(reversed(n)), y))
    assert g.degree() == 0


@pytest.mark.parametrize("field", _XFIELDS, ids=_XFIELDS)
def test_polys_over_q_of_y_match_sympy(field):
    """+ - * neg scale divmod exact_div monic and poly_gcd on the stored
    integers against sympy's ring Q(y)[t], each result canonical."""
    _tower, yname = _XFIELDS[field]
    ring, syms = _xring(yname)
    rng = random.Random(1101)
    kinds = ("shared", "coprime", "constant", "mixed")
    for _ in range(40):
        a = _rand_t_poly(rng, rng.choice(kinds), rng.randint(0, 4))
        b = _rand_t_poly(rng, rng.choice(kinds), rng.randint(0, 3))
        ra, rb = _in_ring(ring, syms, a), _in_ring(ring, syms, b)
        c = _rand_t_poly(rng, "mixed", 0).coeff(0, 1)
        rc = _in_ring(ring, syms, Poly((c,)))
        results = [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                   (-a, -ra), (a.scale(c), ra * rc),
                   # one denominator, which the sum cancels
                   (a.scale(c) + a.scale(one_at(1) - c), ra)]
        if not b.is_zero():
            q, r = a.divmod(b)
            rq, rr = divmod(ra, rb)
            results += [(q, rq), (r, rr), ((a * b).exact_div(b), ra),
                        (b.monic()[1], rb.monic()),
                        (poly_gcd(a * b, b * b),
                         (ra * rb).gcd(rb * rb).monic())]
            assert _in_ring(ring, syms, Poly((b.lc(),))) == rb.LC
        for got, expect in results:
            _assert_stored_canonical(got, syms)
            assert _in_ring(ring, syms, got) == expect


def _sympy_sigma(tower, yname, expr, k):
    """sigma^k of an expression in y and t, as sympy substitutions."""
    y, t = sympy.Symbol(yname), sympy.Symbol("t")
    if tower.nparams:  # level 1 over Q(n): t -> t + k a_1 with a_1 = 1
        return expr.subs(t, t + k)
    # level 2 over Q(x): x -> x + k, t -> t + S_k with a_2 = 1/(x + 1)
    a = 1 / (y + 1)
    s_k = (sum(a.subs(y, y + j) for j in range(k)) if k > 0
           else -sum(a.subs(y, y + j) for j in range(k, 0)))
    return expr.subs({y: y + k, t: t + s_k}, simultaneous=True)


@pytest.mark.parametrize("field", _XFIELDS, ids=_XFIELDS)
def test_sigma_on_stored_integers_matches_sympy(field):
    tower, yname = _XFIELDS[field]
    ring, syms = _xring(yname)
    rng = random.Random(1102)
    for k in range(-5, 6):
        p = _rand_t_poly(rng, rng.choice(("shared", "coprime", "mixed")),
                        rng.randint(0, 3))
        got = tower.sigma_poly(p, 2, k)
        _assert_stored_canonical(got, syms)
        expect = _sympy_sigma(tower, yname, _poly_to_sympy(p, 2, syms), k)
        assert _in_ring(ring, syms, got) == ring.from_expr(expect)


def test_level_one_sigma_is_a_taylor_shift():
    rng = random.Random(1103)
    x = sympy.Symbol("x")
    for k in range(-5, 6):
        p = Poly(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       for _ in range(rng.randint(1, 6))))
        got = _poly_to_sympy(H_TOWER.sigma_poly(p, 1, k), 1, (x,))
        expect = _poly_to_sympy(p, 1, (x,)).subs(x, x + k)
        assert sympy.expand(got - expect) == 0


def test_two_build_paths_store_one_form():
    rng = random.Random(1104)
    for _ in range(40):
        p = _rand_t_poly(rng, rng.choice(("shared", "coprime", "mixed")), 3)
        if p.is_zero():
            continue
        by_terms = Poly(())
        for j, c in enumerate(p.coeffs):
            by_terms = by_terms + Poly((zero_at(1),) * j + (c,))
        q = _rand_t_poly(rng, "mixed", 2)
        paths = [Poly(p.coeffs), by_terms]
        if not q.is_zero():
            paths.append((p * q).exact_div(q))
        for other in paths:
            assert other == p and hash(other) == hash(p)
            assert other.as_integers() == p.as_integers()


def test_int_cap_errors_instead_of_truncating():
    p = Poly((Fraction(2) ** 20,))
    set_int_cap(32)
    try:
        with pytest.raises(IntegerLimitError):
            p * p * p
    finally:
        set_int_cap(None)


def test_int_cap_allows_small_work():
    set_int_cap(64)
    try:
        rng = random.Random(119)
        a = rand_poly(rng, 3)
        b = rand_poly(rng, 3)
        assert (a + b) - b == a
    finally:
        set_int_cap(None)


_BIG = _bottom(2 ** 40, 1)  # 2^40 + t, built uncapped
_ONE = _bottom(1)


def _in_t(*coeffs):
    """The Poly in t with the given values over Q(x) (polynomials in x
    taken as such) as coefficients."""
    return Poly(tuple(c if isinstance(c, RatFunc) else RatFunc.from_poly(c, 1)
                      for c in coeffs))


_XBIG = _in_t(_bottom(0), _BIG)  # (2^40 + x) t
_XINV = RatFunc(_ONE, _BIG, 1)  # 1 / (2^40 + x)


@pytest.mark.parametrize("operands,op,raises", [
    ((_BIG, _bottom(-2 ** 40)), lambda a, b: a + b, False),
    ((_BIG, _ONE), lambda a, b: a + b, True),
    ((_BIG, _bottom(2 ** 40, 2)), lambda a, b: a - b, False),
    ((_BIG, _ONE), lambda a, b: a - b, True),
    ((_BIG,), lambda a: a.scale(Fraction(1, 2 ** 20)), False),
    ((_BIG,), lambda a: a.scale(Fraction(3)), True),
    # a monic numerator over 1 is inverted without building a polynomial
    ((RatFunc(_BIG, _ONE, 1),), lambda v: v.inv(), False),
    ((RatFunc(_BIG.scale(Fraction(1, 3)), _ONE, 1),), lambda v: v.inv(), True),
    ((_BIG * _bottom(1, 1), _BIG * _bottom(0, 1)), poly_gcd, True),
    ((_BIG * _bottom(0, 1), _bottom(0, 0, 1)), poly_gcd, False),
    # polynomials in t over Q(x) store their numerators and denominator
    ((_XBIG, _in_t(_bottom(0), _bottom(-2 ** 40))), lambda a, b: a + b,
     False),
    ((_XBIG, _in_t(_ONE)), lambda a, b: a + b, True),
    ((_XBIG, _in_t(_ONE, _bottom(1, 1))), lambda a, b: a * b, True),
    ((_XBIG, _in_t(_XINV)), lambda a, b: a * b, False),
    ((_XBIG, _in_t(_ONE, _ONE)), lambda a, b: a.divmod(b), True),
    ((_XBIG, _XBIG), lambda a, b: a.divmod(b), False),
    # a quadratic split by its discriminant: the factors are checked, the
    # discriminant (2^80 below) and its root are not
    ((_BIG * _bottom(1, 1),), factor_monic, True),
    ((_bottom(2 ** 41, 3 * 2 ** 40, 2 ** 40),), factor_monic, False),
    ((_in_t(_BIG, _ONE) * _in_t(_bottom(0, 1), _ONE),), factor_monic, True),
    ((_in_t(_bottom(0, 2 ** 40), _bottom(2 ** 40)) * _in_t(_ONE, _ONE),),
     factor_monic, False),
], ids=["add-small", "add", "sub-small", "sub", "scale-small", "scale",
        "inv-monic", "inv", "gcd", "gcd-small", "x-add-small", "x-add",
        "x-mul", "x-mul-small", "x-divmod", "x-divmod-small", "split",
        "split-small", "x-split", "x-split-small"])
def test_int_cap_checks_each_result_built(operands, op, raises):
    """The cap is checked on each Poly an operation builds. Intermediates
    are not checked: the pseudo-remainders and the gcd images, and the
    discriminant of a quadratic and its square root in factor_monic."""
    set_int_cap(32)
    try:
        if raises:
            with pytest.raises(IntegerLimitError):
                op(*operands)
        else:
            op(*operands)
    finally:
        set_int_cap(None)


def test_int_cap_covers_products_and_quotients_of_several_terms():
    set_int_cap(32)
    try:
        p = Poly((Fraction(2) ** 20, Fraction(1)))
        with pytest.raises(IntegerLimitError):
            p * p * p
        # 3 t + 2^-20 divides t^2 + 1 with remainder 1 + 2^-40 / 9
        with pytest.raises(IntegerLimitError):
            Poly((Fraction(1), Fraction(0), Fraction(1))).divmod(
                Poly((Fraction(1, 2 ** 20), Fraction(3))))
    finally:
        set_int_cap(None)
