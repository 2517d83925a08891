"""Expression parsing and canonical printing."""

import random
import time
from fractions import Fraction

import pytest

from sumred.algebra import (Poly, RatFunc, frac_at, lift, lower, one_at,
                            set_int_cap, vdepth)
from sumred.errors import IntegerLimitError, ParseError
from sumred.exprio import format_poly, format_value, parse_expression

from conftest import N_TOWER, P_TOWER, Q_TOWER, parse, rand_rat1, rand_value


def test_print_parse_roundtrip_nested():
    rng = random.Random(301)
    for _ in range(200):
        v = rand_value(N_TOWER, rng, 2)
        assert parse(N_TOWER, format_value(N_TOWER, v)) == v


def test_print_parse_roundtrip_bottom():
    rng = random.Random(302)
    for _ in range(60):
        v = rand_rat1(Q_TOWER, rng, 3)
        assert parse(Q_TOWER, format_value(Q_TOWER, v)) == v


def test_print_parse_roundtrip_with_params():
    for s in ("t1/(n-x+1)", "-2/(n+2)", "(n*t1+2*t1-1)/(x-n-2)", "n^2/3"):
        v = parse(P_TOWER, s)
        assert parse(P_TOWER, format_value(P_TOWER, v)) == v


def test_format_goldens():
    cases = [
        ("t2/x", "t2/x"),
        ("1/(3*x^3)", "1/(3*x^3)"),
        ("x*t1 - x", "x*t1 - x"),
        ("(2+x)/(2*x)*t1^2", "(x + 2)*t1^2/(2*x)"),
        ("0", "0"),
        ("-5/7", "-5/7"),
        ("t1*t2+1/x", "t1*t2 + 1/x"),
        ("2-3", "-1"),
        ("x^2-x^2+1/x", "1/x"),
        ("(t1 - 1/x)*t2 - t1^3/3 + 1/(3*x^3)",
         "(t1 - 1/x)*t2 - t1^3/3 + 1/(3*x^3)"),
        ("-t1^2 + (x^2+4*x+1)*t1/(x*(1+x)^2)",
         "-t1^2 + (x^2 + 4*x + 1)*t1/(x^3 + 2*x^2 + x)"),
    ]
    for src, expected in cases:
        assert format_value(N_TOWER, parse(N_TOWER, src)) == expected


def test_format_golden_with_params():
    v = parse(P_TOWER, "t1/(n-x+1)")
    # the denominator is made monic in x, which flips both signs
    assert format_value(P_TOWER, v) == "-t1/(x - n - 1)"
    assert format_value(P_TOWER, parse(P_TOWER, "-2/(n+2)")) == "-2/(n + 2)"


def test_precedence():
    assert parse(N_TOWER, "2+3*x") == parse(N_TOWER, "2+(3*x)")
    assert parse(N_TOWER, "x-1-1") == parse(N_TOWER, "x-2")
    assert parse(N_TOWER, "6/2/3") == parse(N_TOWER, "1")
    assert parse(N_TOWER, "6/2*3") == parse(N_TOWER, "9")
    assert parse(N_TOWER, "-2^2") == parse(N_TOWER, "0-4")
    assert parse(N_TOWER, "x^-2") == parse(N_TOWER, "1/x^2")
    assert parse(N_TOWER, "2*x^2") == parse(N_TOWER, "2*(x^2)")


def test_power_does_not_chain():
    with pytest.raises(ParseError):
        parse_expression(N_TOWER, "2^3^2")
    assert parse(N_TOWER, "(2^3)^2") == parse(N_TOWER, "64")


def test_error_positions():
    cases = [
        ("x+", "expected a value, found end of input", 3),
        ("2x", "unexpected 'x'", 2),
        ("x)", "unexpected ')'", 2),
        ("(x", "expected ')', found end of input", 3),
        ("x/(x-x)", "division by zero", 2),
        ("y+1", "unknown variable 'y'", 1),
        ("", "expected a value, found end of input", 1),
    ]
    for text, message, position in cases:
        with pytest.raises(ParseError) as exc:
            parse_expression(N_TOWER, text)
        assert exc.value.message == message
        assert exc.value.position == position


def test_unknown_variable_in_lower_tower():
    with pytest.raises(ParseError):
        parse_expression(Q_TOWER, "t1")


def test_whitespace_tolerance():
    assert parse(N_TOWER, "  x +   1 ") == parse(N_TOWER, "x+1")
    assert parse(N_TOWER, "t1 * ( x + 2 )") == parse(N_TOWER, "t1*(x+2)")


def test_format_poly_basics():
    assert format_poly(Q_TOWER, Poly(()), 1) == "0"
    x_poly = Poly((Fraction(0), Fraction(1)))
    assert format_poly(Q_TOWER, x_poly, 1) == "x"
    p = Poly((frac_at(Fraction(1), 1), one_at(1), frac_at(Fraction(3), 1)))
    s = format_poly(N_TOWER, p, 2)
    assert parse(N_TOWER, s) == N_TOWER.lift_to_top(RatFunc.from_poly(p, 2))


# expression trees: ("int", k), ("name", s), ("neg", a), ("pow", a, e) or
# (op, a, b) for op in "+-*/"
def _rand_tree(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ("int", rng.randint(0, 12))
        return ("name", rng.choice(names))
    kind = rng.choice("+-*/+-*/n^")
    if kind == "n":
        return ("neg", _rand_tree(rng, names, depth - 1))
    if kind == "^":
        return ("pow", _rand_tree(rng, names, depth - 1),
                rng.choice([-2, -1, 0, 1, 2, 3]))
    return (kind, _rand_tree(rng, names, depth - 1),
            _rand_tree(rng, names, depth - 1))


def _tree_text(rng, t):
    """Text of a tree, every operation parenthesized, spacing random."""
    sp = lambda: rng.choice(["", " "])  # noqa: E731
    kind = t[0]
    if kind in ("int", "name"):
        return str(t[1])
    if kind == "neg":
        return "-" + sp() + _tree_text(rng, t[1])
    if kind == "pow":
        base = _tree_text(rng, t[1])
        if t[1][0] in ("neg", "pow"):
            base = f"({base})"
        e = t[2]
        exp = str(e) if e >= 0 or rng.random() < 0.5 else f"({e})"
        return f"{base}{sp()}^{sp()}{exp}"
    return (f"({sp()}{_tree_text(rng, t[1])}{sp()}{kind}{sp()}"
            f"{_tree_text(rng, t[2])}{sp()})")


def _tree_value(tower, t):
    """The tree by arithmetic at full depth on lifted atoms, or None where
    it divides by zero or raises zero to a negative power."""
    top = tower.full_depth
    kind = t[0]
    if kind == "int":
        return frac_at(Fraction(t[1]), top)
    if kind == "name":
        return lift(tower.var(t[1]), top)
    a = _tree_value(tower, t[1])
    if a is None:
        return None
    if kind == "neg":
        return -a
    if kind == "pow":
        return None if t[2] < 0 and a.is_zero() else a ** t[2]
    b = _tree_value(tower, t[2])
    if b is None or (kind == "/" and b.is_zero()):
        return None
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    return a * b if kind == "*" else a / b


@pytest.mark.parametrize("tower,names", [
    (N_TOWER, ["x", "t1", "t2"]),
    (P_TOWER, ["n", "x", "t1"]),
], ids=["N", "P"])
def test_parse_matches_full_depth_arithmetic(tower, names):
    rng = random.Random(151)
    zero_divisions = 0
    for _ in range(120):
        tree = _rand_tree(rng, names, 3)
        text = _tree_text(rng, tree)
        want = _tree_value(tower, tree)
        if want is None:
            zero_divisions += 1
            with pytest.raises(ParseError):
                parse_expression(tower, text)
            continue
        got = parse_expression(tower, text)
        assert vdepth(got) == tower.full_depth, text
        assert got == want and repr(got) == repr(want), text
    assert zero_divisions > 0


@pytest.mark.parametrize("text", ["5", "-2/3", "x", "n", "t1 - t1 + x",
                                  "2^-3", "(t1 - t1)^0"])
def test_parse_returns_the_full_depth(text):
    v = parse_expression(P_TOWER, text)
    assert vdepth(v) == P_TOWER.full_depth
    assert repr(v) == repr(lift(lower(v), P_TOWER.full_depth))


@pytest.mark.parametrize("text,raises", [
    ("2^40/2^20", True),
    ("(2^20*x)^2/2^30", True),
    ("(x+1)^40", True),
    ("2^31*x", False),
    ("x^3000", False),
    ("2^31 + 2^31 - 2^31", True),  # a depth-0 intermediate over the cap
    ("(1/2)^31 * t2", False),
    ("(1/2)^32 * t2", True),
])
def test_int_cap_on_parsed_intermediates(text, raises):
    set_int_cap(32)
    try:
        if raises:
            with pytest.raises(IntegerLimitError):
                parse_expression(N_TOWER, text)
        else:
            parse_expression(N_TOWER, text)
    finally:
        set_int_cap(None)


def test_int_cap_refuses_a_large_power_before_building_it():
    set_int_cap(32)
    try:
        start = time.process_time()
        with pytest.raises(IntegerLimitError):
            parse_expression(N_TOWER, "3^10000000")
        assert time.process_time() - start < 0.1
    finally:
        set_int_cap(None)
