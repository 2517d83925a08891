"""Shared towers, parsing shortcuts and random value generators."""

import random
from fractions import Fraction

from sumred.algebra import Poly, RatFunc, lift
from sumred.cli import _random_poly
from sumred.exprio import parse_expression
from sumred.reduction import ReductionContext
from sumred.towerfile import parse_tower_text

Q_TOWER = parse_tower_text(
    "gen x : 1\n"
    "seed x : x\n")

H_TOWER = parse_tower_text(
    "gen x : 1\n"
    "seed x : x\n"
    "gen t1 : 1/(x+1)\n")

N_TOWER = parse_tower_text(
    "gen x : 1\n"
    "seed x : x\n"
    "gen t1 : 1/(x+1)\n"
    "gen t2 : ((x+1)*t1+1)/(x+1)^2\n")

B_TOWER = parse_tower_text(
    "gen x : 1\n"
    "seed x : x\n"
    "gen t1 : 1/(x+1)\n"
    "gen t2 : 1/(x+1)^2\n")

P_TOWER = parse_tower_text(
    "params n\n"
    "gen x : 1\n"
    "seed x : x\n"
    "gen t1 : 1/(x+1)\n")


def parse(tower, text):
    return parse_expression(tower, text)


def delta(tower, v):
    return tower.delta(tower.lift_to_top(v))


def assert_sigma_pair(tower, f, g, r):
    """f = shift(g) - g + r, everything lifted to the top."""
    lhs = tower.lift_to_top(f)
    rhs = delta(tower, g) + tower.lift_to_top(r)
    assert lhs == rhs, f"pair mismatch: {lhs!r} != {rhs!r}"


def rand_fraction(rng, lo=-9, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def rand_proper1(rng):
    """Random proper fraction in the bottom variable, depth 1."""
    factors = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(3)
        if kind == 0:
            factors.append(Poly((Fraction(rng.randint(-3, 3)), Fraction(1))))
        elif kind == 1:
            c = Fraction(rng.choice([1, 2, 5]))
            factors.append(Poly((c, Fraction(0), Fraction(1))))
        else:
            lin = Poly((Fraction(rng.randint(-3, 3)), Fraction(1)))
            factors.append(lin * lin)
    den = factors[0]
    for q in factors[1:]:
        den = den * q
    num = Poly(tuple(Fraction(rng.randint(-9, 9))
                     for _ in range(den.degree())))
    if num.is_zero():
        num = Poly((Fraction(1),))
    return RatFunc(num, den, 1)


_DEN2_POOL = ("t1", "t1+1", "t1-1", "t1+1/x", "t1+x", "t1+1/(x+1)")
_NUM2_POOL = ("1", "2", "x", "1/x", "x+1", "1/(x+2)")


def rand_proper2(tower, rng):
    """Random proper fraction in the level-2 generator, parsed text."""
    terms = rng.sample(_DEN2_POOL, rng.randint(1, 2))
    if len(terms) == 1 and rng.random() < 0.4:
        terms = terms * 2
    den = "*".join(f"({t})" for t in terms)
    if len(terms) == 1:
        num = rng.choice(_NUM2_POOL)
    else:
        a, b = rng.choice(_NUM2_POOL), rng.choice(_NUM2_POOL)
        num = f"({a})*t1 + ({b})" if rng.random() < 0.5 else f"({a})"
    return parse(tower, f"({num})/({den})")


def rand_value(tower, rng, deg=2):
    """Polynomial part plus up to two proper parts."""
    v = _random_poly(tower, deg, rng)
    if rng.random() < 0.7:
        v = v + lift(rand_proper1(rng), tower.full_depth)
    if tower.nlevels >= 2 and rng.random() < 0.5:
        v = v + tower.lift_to_top(rand_proper2(tower, rng))
    return v


def rand_rat1(tower, rng, deg=3):
    """Random element of the bottom rational-function level, lifted."""
    p = Poly(tuple(Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)))
    if p.is_zero():
        p = Poly((Fraction(1),))
    v = RatFunc.from_poly(p, 1)
    if rng.random() < 0.7:
        v = v + rand_proper1(rng)
    return v
