"""Tower construction, the shift automorphism, and structure queries."""

import random
from fractions import Fraction

import pytest

from sumred.algebra import Poly, RatFunc, frac_at, lift, lower, vdepth
from sumred.errors import InvalidTowerError
from sumred.reduction import ReductionContext, complete_reduction
from sumred.sequences import SequenceAssignment, verify_sigma_pair
from sumred.telescope import telescope
from sumred.tower import Generator, TowerSpec
from sumred.towerfile import parse_tower_text

from conftest import (B_TOWER, H_TOWER, N_TOWER, P_TOWER, Q_TOWER,
                      assert_sigma_pair, delta, parse, rand_rat1, rand_value)


def test_depth_bookkeeping():
    assert Q_TOWER.full_depth == 1 and Q_TOWER.nlevels == 1
    assert N_TOWER.full_depth == 3 and N_TOWER.nparams == 0
    assert P_TOWER.full_depth == 3 and P_TOWER.nparams == 1
    assert N_TOWER.depth_of_level(2) == 2
    assert P_TOWER.depth_of_level(1) == 2
    assert P_TOWER.depth_of_name("n") == 1
    assert P_TOWER.depth_of_name("t1") == 3
    assert N_TOWER.level_of_depth(3) == 3
    assert P_TOWER.level_of_depth(1) == 0
    with pytest.raises(ValueError):
        N_TOWER.depth_of_level(4)


def test_var_lookup():
    x = H_TOWER.var("x")
    assert vdepth(x) == 1
    assert H_TOWER.var("t1") == H_TOWER.gen_var(2)
    n = P_TOWER.var("n")
    assert vdepth(n) == 1
    with pytest.raises(KeyError):
        H_TOWER.var("missing")


def test_constructor_rejections():
    with pytest.raises(InvalidTowerError):
        TowerSpec((Generator("x", Fraction(1)), Generator("x", Fraction(1))))
    with pytest.raises(InvalidTowerError):
        TowerSpec((Generator("2x", Fraction(1)),))
    with pytest.raises(InvalidTowerError):
        TowerSpec((Generator("x", Fraction(0)),))
    with pytest.raises(InvalidTowerError):
        TowerSpec((Generator("x", Fraction(1)),), params=("x",))


def test_increment_must_live_below_its_level():
    from sumred.algebra import one_at, zero_at
    spec = TowerSpec((Generator("x", Fraction(1)),))
    v = spec.var("x")
    # an increment genuinely using the new generator is rejected
    t_itself = RatFunc.from_poly(Poly((zero_at(1), one_at(1))), 2)
    with pytest.raises(InvalidTowerError):
        TowerSpec((Generator("x", Fraction(1)), Generator("t", t_itself)))
    # a value parked at depth 2 with a trivial top drops and is accepted
    parked = lift(v, 2) ** 2 + lift(v, 2)
    ok = TowerSpec((Generator("x", Fraction(1)), Generator("t", parked)))
    assert ok.nlevels == 2
    assert vdepth(ok.gens[1].delta) == 1


def test_seed_validation():
    good = Poly((Fraction(0), Fraction(1)))
    assert TowerSpec((Generator("x", Fraction(1), seed_reps=(good,)),))
    with pytest.raises(InvalidTowerError):
        TowerSpec((Generator("x", Fraction(1), seed_reps=(Fraction(1),)),))
    with pytest.raises(InvalidTowerError):
        TowerSpec((Generator("x", Fraction(1),
                             seed_reps=(Poly((Fraction(2),)),)),))
    with pytest.raises(InvalidTowerError):
        TowerSpec((Generator("x", Fraction(1),
                             seed_reps=(Poly((Fraction(0), Fraction(2))),)),))
    # a reducible seed would name two shift classes at once
    with pytest.raises(InvalidTowerError):
        parse_tower_text("gen x : 1\nseed x : x^2-1\n")
    with pytest.raises(InvalidTowerError):
        parse_tower_text("gen x : 1\nseed x : x\ngen t1 : 1/(x+1)\n"
                         "seed t1 : t1^2 - x^2\n")


def test_sigma_fixes_constants_and_params():
    five = frac_at(Fraction(5), 1)
    assert Q_TOWER.sigma(five) == five
    n = P_TOWER.var("n")
    assert P_TOWER.sigma(lift(n, 3)) == lift(n, 3)


def test_sigma_on_generators():
    x = Q_TOWER.var("x")
    assert Q_TOWER.sigma(x) == x + 1
    assert Q_TOWER.sigma(x, 5) == x + 5
    assert Q_TOWER.sigma(x, -3) == x - 3
    t1 = H_TOWER.lift_to_top(H_TOWER.var("t1"))
    shifted = H_TOWER.sigma(t1)
    assert shifted == t1 + H_TOWER.lift_to_top(parse(H_TOWER, "1/(x+1)"))


def test_sigma_with_a_constant_increment_is_one_substitution():
    # sigma^k(x) = x + k*1 in closed form; k single steps would not finish
    x = Q_TOWER.var("x")
    assert Q_TOWER.sigma(x, 10 ** 6) == x + 10 ** 6
    assert Q_TOWER.sigma(x * x, -10 ** 6) == (x - 10 ** 6) ** 2


def test_a_half_step_increment():
    # sigma(x) = x + 1/2 translates by a non-integer, at level 1 and inside
    # the level-2 coefficients
    tower = parse_tower_text("gen x : 1/2\nseed x : x\ngen t1 : 1/(x+1)\n")
    v = parse(tower, "t1^2/(x+3) + x*t1 + 1/(t1+x)")
    assert tower.sigma(tower.sigma(v, 3), 2) == tower.sigma(v, 5)
    f = parse(tower, "1/(x+1/2)")
    g, r = complete_reduction(ReductionContext(tower), f)
    assert r == 0
    assert g == parse(tower, "t1 - 2/(2*x+1)")
    assert_sigma_pair(tower, f, g, r)
    f = parse(tower, "t1/(x+2)")
    report = verify_sigma_pair(tower, f, telescope(ReductionContext(tower), f),
                               SequenceAssignment(tower), 1, 8)
    assert report.checked == 8 and report.failures == []


def test_sigma_inverse_roundtrip():
    rng = random.Random(201)
    for _ in range(40):
        v = rand_value(N_TOWER, rng, 2)
        k = rng.randint(1, 2)
        assert N_TOWER.sigma(N_TOWER.sigma(v, k), -k) == v


def test_sigma_is_a_field_homomorphism():
    rng = random.Random(202)
    for _ in range(30):
        a = rand_value(H_TOWER, rng, 1)
        b = lift(rand_rat1(H_TOWER, rng, 2), 2)
        k = rng.choice([-2, -1, 1, 2])
        assert H_TOWER.sigma(a + b, k) == H_TOWER.sigma(a, k) + H_TOWER.sigma(b, k)
        assert H_TOWER.sigma(a * b, k) == H_TOWER.sigma(a, k) * H_TOWER.sigma(b, k)
    small = [parse(N_TOWER, s) for s in
             ("t2/x", "1/(t1+1)", "t1*t2 + 1/x", "x^2 - t2")]
    for a in small:
        for b in small:
            assert N_TOWER.sigma(a * b) == N_TOWER.sigma(a) * N_TOWER.sigma(b)


@pytest.mark.parametrize("tower", [B_TOWER, N_TOWER, P_TOWER],
                         ids=["B", "N", "P"])
def test_sigma_composes(tower):
    # on P level 1 sits at depth 2, so its integer shift runs with no inner x
    rng = random.Random(203)
    for k, (a, b) in ((3, (2, 1)), (-3, (-2, -1)), (2, (3, -1))):
        for _ in range(8):
            v = rand_value(tower, rng, 2)
            assert tower.sigma(v, k) == tower.sigma(tower.sigma(v, a), b)


def test_a_repeated_shift_sums_no_new_orbit(monkeypatch):
    # sigma^5 is one cached translation: S_5 is summed once per level
    tower = parse_tower_text("gen x : 1\ngen t1 : 1/(x+1)\n")
    v = parse(tower, "(t1^2 + x)/(t1 + 1/x)")
    real = TowerSpec.sigma_sum
    summed = []

    def counting(self, a, k):
        summed.append(k)
        return real(self, a, k)

    monkeypatch.setattr(TowerSpec, "sigma_sum", counting)
    first = tower.sigma(v, 5)
    assert summed.count(5) == 2
    assert tower.sigma(v, 5) == first
    assert summed.count(5) == 2


def test_delta_product_rule():
    rng = random.Random(204)
    for _ in range(30):
        a = rand_value(H_TOWER, rng, 1)
        b = lift(rand_rat1(H_TOWER, rng, 2), 2)
        lhs = H_TOWER.delta(a * b)
        rhs = H_TOWER.sigma(a) * H_TOWER.delta(b) + H_TOWER.delta(a) * b
        assert lhs == rhs


def test_level_is_the_smallest_containing_level():
    assert N_TOWER.level(Fraction(7)) == 0
    assert N_TOWER.level(N_TOWER.var("x")) == 1
    assert N_TOWER.level(N_TOWER.lift_to_top(N_TOWER.var("x"))) == 1
    assert N_TOWER.level(parse(N_TOWER, "t1^2 + 1/x")) == 2
    assert N_TOWER.level(parse(N_TOWER, "t2/x")) == 3
    assert P_TOWER.level(P_TOWER.var("n")) == 0
    assert P_TOWER.level(parse(P_TOWER, "n^2+1")) == 0
    assert P_TOWER.level(parse(P_TOWER, "t1/(n-x+1)")) == 2


def test_level_sees_through_cancellation():
    v = parse(N_TOWER, "(t1*x - t1*x)/1 + 1/x")
    assert N_TOWER.level(v) == 1


def test_level_never_raised_by_delta():
    rng = random.Random(205)
    for _ in range(100):
        f = rand_value(N_TOWER, rng, 1)
        assert N_TOWER.level(N_TOWER.delta(f)) <= N_TOWER.level(f)


def test_split_poly_proper():
    rng = random.Random(206)
    for _ in range(60):
        v = rand_value(N_TOWER, rng, 2)
        poly, proper = N_TOWER.split_poly_proper(v)
        assert RatFunc.from_poly(poly, 3) + proper == v
        assert proper.num.is_zero() or proper.num.degree() < proper.den.degree()


def test_split_poly_proper_of_a_polynomial_divides_nothing(monkeypatch):
    values = [lower(parse(N_TOWER, "x*t1^2 + t1/(x+1) + 3"), 2),
              parse(N_TOWER, "t1*t2^2 + x*t2 + 1/t1")]

    def no_division(self, other):
        raise AssertionError("split_poly_proper divided by 1")

    monkeypatch.setattr(Poly, "divmod", no_division)
    for v in values:
        assert v.den.is_one()
        poly, proper = N_TOWER.split_poly_proper(v)
        assert poly == v.num
        assert proper.is_zero() and proper.depth == v.depth


def test_sigma_poly_matches_sigma():
    rng = random.Random(207)
    inv_x = parse(Q_TOWER, "1/x")
    for _ in range(40):
        coeffs = []
        for _i in range(rng.randint(1, 4)):
            c = RatFunc.from_poly(Poly((Fraction(rng.randint(-5, 5)),)), 1)
            coeffs.append(c + inv_x * rng.randint(0, 2))
        p = Poly(tuple(coeffs))
        k = rng.choice([-2, -1, 1, 2])
        via_poly = H_TOWER.sigma_poly(p, 2, k)
        via_field = H_TOWER.sigma(RatFunc.from_poly(p, 2), k)
        assert RatFunc.from_poly(via_poly, 2) == via_field


def test_lift_to_top():
    v = H_TOWER.var("x")
    top = H_TOWER.lift_to_top(v)
    assert vdepth(top) == 2
    assert H_TOWER.lift_to_top(Fraction(3, 2)) == frac_at(Fraction(3, 2), 2)
    assert H_TOWER.lift_to_top(top) == top
