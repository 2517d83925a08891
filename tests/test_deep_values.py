"""Values on towers deeper than the bundled ones: a value that does not use
the top generators costs what it costs at its own depth, and the orders
that pin choices do not depend on how deep a constant sits."""

import random

from sumred import algebra
from sumred.algebra import lower, poly_sort_key
from sumred.errors import ParseError
from sumred.exprio import format_poly, format_value, parse_expression
from sumred.reduction import ReductionContext, complete_reduction
from sumred.sigmafactor import factor_monic
from sumred.towerfile import load_tower_file, parse_tower_text

from test_harmonic_sums import HSUMS4


def s_tower(levels):
    """x and the generators s_i : 1/(x+1)^i, levels in all."""
    return parse_tower_text("gen x : 1\nseed x : x\n" + "".join(
        f"gen s{i} : 1/(x+1)^{i}\n" for i in range(1, levels)))


def _gcds_of_a_over_b(monkeypatch, levels):
    """The poly_gcd calls with two nonconstant operands that a/b makes, for
    a = s1 + 1/(x+1) and b = s2/(x+2)^2 + x."""
    tower = s_tower(levels)
    a = parse_expression(tower, "s1 + 1/(x+1)")
    b = parse_expression(tower, "s2/(x+2)^2 + x")
    calls = []
    gcd = algebra.poly_gcd

    def counted(p, q):
        if p.degree() > 0 and q.degree() > 0:
            calls.append(p)
        return gcd(p, q)

    monkeypatch.setattr(algebra, "poly_gcd", counted)
    a / b
    monkeypatch.undo()
    return len(calls)


def test_unused_levels_make_no_gcds(monkeypatch):
    assert (_gcds_of_a_over_b(monkeypatch, 9)
            == _gcds_of_a_over_b(monkeypatch, 3))


def _random_expression(rng, size):
    if size <= 1:
        return rng.choice(["x", "s1", "s2", "x + 1", "s1 - 2", "3", "1/2",
                           "s2*x", "1/(x+2)"])
    left = rng.randint(1, size - 1)
    op = rng.choice("+-*/")
    return (f"({_random_expression(rng, left)}) {op} "
            f"({_random_expression(rng, size - left)})")


def test_shallow_values_print_and_reduce_alike_on_a_deep_tower():
    rng = random.Random(2929)
    towers = [s_tower(3), s_tower(9)]
    ctxs = [ReductionContext(t) for t in towers]
    done = 0
    while done < 30:
        text = _random_expression(rng, rng.randint(2, 4))
        try:
            values = [parse_expression(t, text) for t in towers]
        except ParseError:  # a division by a zero subexpression
            continue
        printed = [format_value(t, v) for t, v in zip(towers, values)]
        assert printed[0] == printed[1], text
        for tower, ctx, f in zip(towers, ctxs, values):
            g, r = complete_reduction(ctx, f)
            assert tower.delta(g) + r == f, text
        done += 1


# Polynomials over hsums4.tower in one of its generators, and what the
# order and the factorizer made of them when every level of a constant
# was stored: the sorted order by poly_sort_key, and factor_monic of each.
# s111 against s111 - 1 compares a zero coefficient with a negative
# constant below a field of depth 3; s111 + x^2 against s111 + s1 compares
# coefficients of different natural depth.
_PINNED = (
    ("s111", "s111", [("s111", 1)]),
    ("s111", "s111 - 1", [("s111 - 1", 1)]),
    ("s111", "s111 + x^2", [("s111 + x^2", 1)]),
    ("s111", "s111 + s1", [("s111 + s1", 1)]),
    ("s111", "s111 + s11", [("s111 + s11", 1)]),
    ("s111", "s111 + 1/2", [("s111 + 1/2", 1)]),
    ("s12", "s12 - s1*s11", [("s12 - s1*s11", 1)]),
    ("s12", "s12 + 1/(x+1)", [("s12 + 1/(x + 1)", 1)]),
    ("s12", "(s12 - s1)*(s12 + x^2)*(s12 + s11)",
     [("s12 + x^2", 1), ("s12 - s1", 1), ("s12 + s11", 1)]),
    ("s111", "(s111 + x)^2*(s111 - 1)*(s111 + s1)",
     [("s111 - 1", 1), ("s111 + x", 2), ("s111 + s1", 1)]),
    ("s121", "(s121 - s1)*(s121 + s1111)*(s121 - 2)",
     [("s121 - 2", 1), ("s121 - s1", 1), ("s121 + s1111", 1)]),
    ("s121", "s121^2 + s121*s112 + s1",
     [("s121^2 + s112*s121 + s1", 1)]),
)

_PINNED_ORDER = [
    "s111", "s111 - 1", "s111 + 1/2", "s12 + 1/(x+1)", "s111 + x^2",
    "s111 + s1", "s12 - s1*s11", "s111 + s11", "s121^2 + s121*s112 + s1",
    "(s12 - s1)*(s12 + x^2)*(s12 + s11)",
    "(s121 - s1)*(s121 + s1111)*(s121 - 2)",
    "(s111 + x)^2*(s111 - 1)*(s111 + s1)",
]


def test_orders_do_not_depend_on_how_deep_a_constant_sits():
    tower = load_tower_file(HSUMS4)
    polys = {}
    for name, text, factors in _PINNED:
        depth = tower.depth_of_name(name)
        p = polys[text] = lower(parse_expression(tower, text), depth).num
        assert [(format_poly(tower, f, depth), m)
                for f, m in factor_monic(p)] == factors, text
    assert sorted(polys, key=lambda t: poly_sort_key(polys[t])) \
        == _PINNED_ORDER
