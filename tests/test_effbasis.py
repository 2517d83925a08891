"""Remainder coordinates over the structured basis."""

import random
from fractions import Fraction

import pytest

from sumred.algebra import Poly, lift, one_at, zero_at
from sumred.effbasis import (BASIS_ONE, BasisElement, coordinate_of,
                             expand_remainder, leading_coordinate)
from sumred.reduction import ReductionContext, complete_reduction

from conftest import H_TOWER, N_TOWER, parse, rand_value

T1 = Poly((zero_at(1), one_at(1)))
X1 = Poly((Fraction(0), Fraction(1)))


def test_basis_element_mechanics():
    e = BasisElement(()).extended(1, 2).extended(2, 1, T1, 3)
    assert not e.is_one()
    assert BASIS_ONE.is_one()
    assert e.factor_at(1) == (2, None, 0)
    assert e.factor_at(2) == (1, T1, 3)
    assert e.factor_at(3) is None
    same = BasisElement(((1, 2, None, 0), (2, 1, T1, 3)))
    assert e == same and hash(e) == hash(same)
    assert e != BASIS_ONE
    # extending at depth zero exponent is a no-op
    assert BASIS_ONE.extended(2, 0) is BASIS_ONE


def test_basis_element_requires_bottom_up_factors():
    e = BASIS_ONE.extended(2, 1)
    with pytest.raises(ValueError):
        e.extended(1, 1)
    with pytest.raises(ValueError):
        e.extended(2, 2)


def test_as_value():
    t1 = N_TOWER.lift_to_top(N_TOWER.var("t1"))
    x = N_TOWER.lift_to_top(N_TOWER.var("x"))
    assert BASIS_ONE.as_value(N_TOWER) == lift(Fraction(1), 3)
    assert BASIS_ONE.extended(2, 3).as_value(N_TOWER) == t1 ** 3
    mixed = BASIS_ONE.extended(1, 1).extended(2, 1, T1, 2)
    assert mixed.as_value(N_TOWER) == x * t1 / t1 ** 2


def test_expand_remainder_of_zero_and_constants():
    ctx = ReductionContext(H_TOWER)
    assert expand_remainder(ctx, Fraction(0)) == {}
    assert expand_remainder(ctx, zero_at(2)) == {}
    assert expand_remainder(ctx, Fraction(5)) == {BASIS_ONE: Fraction(5)}


def test_expansion_inverts_basis_combinations():
    rng = random.Random(501)
    ctx = ReductionContext(H_TOWER)
    # proper factors are the actual irreducibles, shifts of x included
    q2 = Poly((Fraction(2), Fraction(0), Fraction(1)))
    x_plus_1 = Poly((Fraction(1), Fraction(1)))
    elements = [
        BASIS_ONE,
        BASIS_ONE.extended(1, 2),
        BASIS_ONE.extended(1, 0, X1, 1),
        BASIS_ONE.extended(1, 1, q2, 2),
        BASIS_ONE.extended(2, 1),
        BASIS_ONE.extended(2, 3),
        BASIS_ONE.extended(1, 1).extended(2, 2),
        BASIS_ONE.extended(2, 0, T1, 1),
        BASIS_ONE.extended(1, 0, X1, 1).extended(2, 0, T1, 2),
        BASIS_ONE.extended(1, 0, x_plus_1, 2).extended(2, 0, T1, 1),
    ]
    for _ in range(30):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in elements]
        v = lift(Fraction(0), H_TOWER.full_depth)
        for c, e in zip(coeffs, elements):
            v = v + e.as_value(H_TOWER) * c
        coords = expand_remainder(ctx, v)
        for c, e in zip(coeffs, elements):
            assert coords.get(e, Fraction(0)) == c
        assert len(coords) == sum(1 for c in coeffs if c != 0)


def test_expansion_reconstructs_reduction_remainders():
    rng = random.Random(503)
    ctx = ReductionContext(H_TOWER)
    for _ in range(40):
        f = rand_value(H_TOWER, rng, 2)
        _g, r = complete_reduction(ctx, f)
        coords = expand_remainder(ctx, r)
        total = lift(Fraction(0), H_TOWER.full_depth)
        for th, cv in coords.items():
            assert isinstance(cv, Fraction) and cv != 0
            total = total + th.as_value(H_TOWER) * cv
        assert total == lift(r, H_TOWER.full_depth)


def test_expansion_reconstructs_nested_remainders():
    ctx = ReductionContext(N_TOWER)
    # the last lower-level content 1/(x+1) is a shift of the representative
    # x that the first input makes
    for s in ("t2/x", "t1^2/x + 1/(x^2*t1)", "1/(x*t2) + x^3",
              "t1*t2 + 1/(x+1)", "1/((x+1)*t1)"):
        f = parse(N_TOWER, s)
        _g, r = complete_reduction(ctx, f)
        coords = expand_remainder(ctx, r)
        total = lift(Fraction(0), N_TOWER.full_depth)
        for th, cv in coords.items():
            total = total + th.as_value(N_TOWER) * cv
        assert total == lift(r, N_TOWER.full_depth)


def test_leading_coordinate_matches_expansion():
    rng = random.Random(502)
    ctx = ReductionContext(H_TOWER)
    checked = 0
    for _ in range(40):
        f = rand_value(H_TOWER, rng, 2)
        _g, r = complete_reduction(ctx, f)
        if isinstance(r, Fraction) and r == 0:
            continue
        coords = expand_remainder(ctx, r)
        if not coords:
            continue
        checked += 1
        th, c = leading_coordinate(ctx, r)
        assert coords[th] == c
        for other in coords:
            got = coordinate_of(ctx, other, r)
            assert got == coords[other]
    assert checked >= 20


def test_leading_coordinate_prefers_polynomial_content():
    ctx = ReductionContext(H_TOWER)
    v = parse(H_TOWER, "t1^2 + 1/x")
    th, c = leading_coordinate(ctx, v)
    assert th == BASIS_ONE.extended(2, 2)
    assert c == Fraction(1)
    w = parse(H_TOWER, "x^2 + 1/t1")
    th2, c2 = leading_coordinate(ctx, w)
    assert th2 == BASIS_ONE.extended(2, 0, T1, 1)
    assert c2 == Fraction(1)


def test_coordinate_of_absent_element_is_zero():
    ctx = ReductionContext(H_TOWER)
    v = parse(H_TOWER, "1/x")
    absent = BASIS_ONE.extended(1, 0, X1, 2)
    assert coordinate_of(ctx, absent, v) == Fraction(0)
    assert coordinate_of(ctx, BASIS_ONE.extended(2, 1), v) == Fraction(0)


def test_reading_coordinates_leaves_the_representatives_alone():
    ctx = ReductionContext(H_TOWER)
    v = parse(H_TOWER, "1/((x^2+1)*t1)")
    reps = {level: list(rs) for level, rs in ctx.reps.items()}
    coords = expand_remainder(ctx, v)
    th, c = leading_coordinate(ctx, v)
    assert coords == {th: c}
    assert coordinate_of(ctx, th, v) == c
    assert ctx.reps == reps
    assert ctx.notes == []
