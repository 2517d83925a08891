"""Telescoping, joint telescoping, increment checks, tower rebuilds."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (B_TOWER, H_TOWER, N_TOWER, P_TOWER, Q_TOWER,
                      assert_sigma_pair, delta, parse, rand_value)
from sumred import reduction
from sumred.algebra import Poly, lift, vdepth, zero_at
from sumred.errors import InvalidTowerError
from sumred.exprio import format_poly, format_value
from sumred.reduction import ReductionContext, complete_reduction
from sumred.telescope import (_levels_used, depth_reduce, nesting_depth,
                              nullspace_basis, parameterized_telescope,
                              sigma_check, telescope, well_generate)
from sumred.towerfile import load_tower_file, parse_tower_text

NESTED = Path(__file__).resolve().parent.parent / "towers" / "nested.tower"

# t1 and t2 meet x^2 + 1 and x + 2, which no seed names, so the contexts
# and the rebuild pick representatives of their own
UNSEEDED_TEXT = ("gen x : 1\n"
                 "gen t1 : 1/(x^2+1)\n"
                 "gen t2 : (t1+1)/(x+2)\n")


def _is_const(tower, v):
    return isinstance(v, Fraction) or tower.level(v) == 0


def _is_zero(v):
    return v == 0 if isinstance(v, Fraction) else v.is_zero()


def _horner_substitute(source, v, images, target):
    """Reference transport: Horner evaluation of every polynomial at the
    full-depth generator images, with every leaf lifted to the top."""
    td = target.full_depth
    npar = source.nparams

    def vimg(u, depth):
        if isinstance(u, Fraction) or depth <= npar:
            return lift(u, td)
        return pimg(u.num, depth) / pimg(u.den, depth)

    def pimg(p, depth):
        img = images[source.level_of_depth(depth) - 1]
        acc = zero_at(td)
        for c in reversed(p.coeffs):
            acc = acc * img + vimg(c, depth - 1)
        return acc

    return vimg(v, vdepth(v))


def test_telescope_verdicts():
    ctx = ReductionContext(H_TOWER)
    f = parse(H_TOWER, "(x*(x^2+5*x+4)*t1^3 + (x^2+4*x+1)*t1^2"
                       " - (x+1)^2*t1^4 - x - 2*x^2 - x^3)"
                       "/(x*(1+x)^2*(1+t1+t1*x)*t1)")
    res = telescope(ctx, f)
    assert not res.summable
    assert res.r == parse(H_TOWER, "(x-2)/(2*x^3)")
    assert_sigma_pair(H_TOWER, f, res.g, res.r)

    ctxn = ReductionContext(N_TOWER)
    f2 = delta(N_TOWER, parse(N_TOWER, "t1*t2"))
    res2 = telescope(ctxn, f2)
    assert res2.summable and _is_zero(res2.r)
    assert_sigma_pair(N_TOWER, f2, res2.g, res2.r)

    res3 = telescope(ReductionContext(H_TOWER), parse(H_TOWER, "0"))
    assert res3.summable and _is_zero(res3.g) and _is_zero(res3.r)

    res4 = telescope(ReductionContext(H_TOWER), Fraction(1))
    assert res4.summable and _is_zero(res4.r)
    assert_sigma_pair(H_TOWER, Fraction(1), res4.g, res4.r)


def test_joint_telescoping_basis():
    ctx = ReductionContext(N_TOWER)
    fs = [parse(N_TOWER, "(1 + t1 - t2 - x*t2)/((1+t1)*(1+x))"),
          parse(N_TOWER, "(x*t1 + t1 - x)/((x*t1 + t1 + 1)*t1)"),
          parse(N_TOWER, "3*t2/(1+t1)")]
    basis = parameterized_telescope(ctx, fs)
    assert len(basis) == 3
    assert basis[0].coeffs == (Fraction(0),) * 3
    assert basis[0].certificate == N_TOWER.lift_to_top(Fraction(1))
    assert tuple(3 * c for c in basis[1].coeffs) == (
        Fraction(3), Fraction(0), Fraction(1))
    assert basis[2].coeffs == (Fraction(0), Fraction(1), Fraction(0))
    assert _is_const(N_TOWER, basis[1].certificate - parse(N_TOWER, "t1"))
    assert _is_const(N_TOWER, basis[2].certificate - parse(N_TOWER, "x/t1"))
    for row in basis:
        combo = sum((lift(c, N_TOWER.full_depth) * f
                     for c, f in zip(row.coeffs, fs)),
                    N_TOWER.lift_to_top(Fraction(0)))
        assert combo == delta(N_TOWER, row.certificate)
    assert list(iter(basis)) == [basis[i] for i in range(len(basis))]


def test_joint_telescoping_with_free_parameter():
    ctx = ReductionContext(P_TOWER)
    fs = [parse(P_TOWER, "t1/(n - x + 1)"),
          parse(P_TOWER, "t1/(n - x + 2)"),
          parse(P_TOWER, "t1/(n - x + 3)")]
    basis = parameterized_telescope(ctx, fs)
    assert len(basis) == 2
    row = basis[1]
    # one solution line, proportional to (-n-2, 2*n+5, -n-3)
    ref = [parse(P_TOWER, s) for s in ("-n-2", "2*n+5", "-n-3")]
    top = [lift(c, P_TOWER.full_depth) for c in row.coeffs]
    for i in range(3):
        for j in range(3):
            assert top[i] * ref[j] == top[j] * ref[i]
    lam = parse(P_TOWER, "-1/(n+2)")
    assert top[0] == ref[0] * lam
    combo = sum((c * f for c, f in zip(top, fs)),
                P_TOWER.lift_to_top(Fraction(0)))
    assert combo == delta(P_TOWER, row.certificate)


def test_joint_telescoping_edges():
    ctx = ReductionContext(H_TOWER)
    basis = parameterized_telescope(ctx, [parse(H_TOWER, "0")])
    assert len(basis) == 2
    assert basis[1].coeffs == (Fraction(1),)
    assert _is_zero(basis[1].certificate)
    with pytest.raises(ValueError):
        parameterized_telescope(ctx, [])
    # two summable inputs and one that is not: the solution space is the
    # plane where the third coefficient vanishes
    h1 = delta(H_TOWER, parse(H_TOWER, "t1^2 + 1/x"))
    h2 = parse(H_TOWER, "1/x")
    fs = [h1, h2, parse(H_TOWER, "t1/x")]
    basis = parameterized_telescope(ReductionContext(H_TOWER), fs)
    assert len(basis) == 3
    for row in basis:
        assert row.coeffs[2] == Fraction(0)
        combo = sum((lift(c, 2) * f for c, f in zip(row.coeffs, fs)),
                    H_TOWER.lift_to_top(Fraction(0)))
        assert combo == delta(H_TOWER, row.certificate)


def test_increment_certification():
    res = sigma_check(ReductionContext(Q_TOWER), parse(Q_TOWER, "2*x+1"))
    assert not res.is_sigma_monomial
    assert res.g == parse(Q_TOWER, "x^2")
    assert _is_zero(res.remainder)

    res = sigma_check(ReductionContext(Q_TOWER), parse(Q_TOWER, "1/(x+1)"))
    assert res.is_sigma_monomial
    assert res.g == parse(Q_TOWER, "1/x")
    assert res.remainder == parse(Q_TOWER, "1/x")

    # the increment that would build the next nested level is genuine
    a = parse(H_TOWER, "((x+1)*t1+1)/(x+1)^2")
    res = sigma_check(ReductionContext(H_TOWER), a)
    assert res.is_sigma_monomial
    assert res.remainder == parse(H_TOWER, "1/(2*x^2)")
    assert_sigma_pair(H_TOWER, a, res.g, res.remainder)

    # squares of the harmonic generator already have a closed sum
    res = sigma_check(ReductionContext(H_TOWER), parse(H_TOWER, "t1^2"))
    assert not res.is_sigma_monomial
    assert_sigma_pair(H_TOWER, parse(H_TOWER, "t1^2"), res.g, res.remainder)

    with pytest.raises(InvalidTowerError):
        sigma_check(ReductionContext(H_TOWER), parse(H_TOWER, "t1^2"), level=1)
    with pytest.raises(InvalidTowerError, match="no tower level 7"):
        sigma_check(ReductionContext(Q_TOWER), parse(Q_TOWER, "x"), level=7)


def test_well_generated_rebuild():
    spec2, iso = well_generate(ReductionContext(N_TOWER))
    assert [g.name for g in spec2.gens] == ["x", "u1", "u2"]
    assert spec2.lift_to_top(spec2.gens[0].delta) == parse(spec2, "1")
    assert spec2.lift_to_top(spec2.gens[1].delta) == parse(spec2, "1/x")
    assert spec2.lift_to_top(spec2.gens[2].delta) == parse(spec2, "1/(2*x^2)")
    assert iso.images[0] == parse(spec2, "x")
    assert iso.images[1] == parse(spec2, "u1 + 1/x")
    assert iso.images[2] == parse(spec2, "u2 + u1^2/2 + u1/x + 1/x^2")


def test_rebuilt_names_avoid_the_old_ones():
    # the renamed level 1 would be u1, which the tower already uses
    tower = parse_tower_text("gen x : 1\nseed x : x\ngen u1 : 1/(x+1)\n"
                             "gen t2 : ((x+1)*u1+1)/(x+1)^2\n")
    spec2, iso = well_generate(ReductionContext(tower))
    assert [g.name for g in spec2.gens] == ["x", "u1_", "u2"]
    assert iso.images[1] == parse(spec2, "u1_ + 1/x")


@pytest.mark.parametrize("tower", [H_TOWER, N_TOWER, B_TOWER, P_TOWER],
                         ids=["H", "N", "B", "P"])
def test_transport_matches_the_horner_reference(tower):
    spec2, iso = well_generate(ReductionContext(tower))
    rng = random.Random(611)
    for _ in range(12):
        v = rand_value(tower, rng, 2)
        assert iso.apply(v) == _horner_substitute(tower, v, iso.images, spec2)


@pytest.mark.parametrize("tower, texts", [
    (N_TOWER, ("t1^2 + x", "t2/x", "1/(t1+1)", "x*t2 - t1")),
    (B_TOWER, ("t1^2 + x", "t2/x", "1/(t2+t1)", "x*t2 - t1")),
    (P_TOWER, ("t1^2 + n*x", "t1/(n - x)", "1/(t1+n)", "x*t1 - n")),
], ids=["N", "B", "P"])
def test_transport_is_field_map(tower, texts):
    spec2, iso = well_generate(ReductionContext(tower))
    vals = [parse(tower, s) for s in texts]
    for a in vals:
        for b in vals:
            assert iso.apply(a + b) == iso.apply(a) + iso.apply(b)
            assert iso.apply(a * b) == iso.apply(a) * iso.apply(b)
    for a in vals:
        assert spec2.sigma(iso.apply(a)) == iso.apply(tower.sigma(a))


def test_well_generated_fixed_point():
    spec2, _iso = well_generate(ReductionContext(N_TOWER))
    spec3, iso2 = well_generate(ReductionContext(spec2))
    assert [g.name for g in spec3.gens] == ["x", "u1", "u2"]
    for i in range(spec3.nlevels):
        assert iso2.images[i] == spec3.lift_to_top(spec3.gen_var(i + 1))


def test_rebuilt_increments_are_their_own_remainders():
    for tower in (N_TOWER, B_TOWER):
        final, _iso = well_generate(ReductionContext(tower))
        ctx = ReductionContext(final)
        for i, gen in enumerate(final.gens, start=1):
            depth = final.nparams + i - 1
            a = lift(gen.delta, depth)
            g, r = complete_reduction(ctx, a)
            assert r == a
            assert _is_zero(g)


def test_redundant_level_is_rejected():
    bad = parse_tower_text("gen x : 1\nseed x : x\ngen s : 2*x+1\n")
    with pytest.raises(InvalidTowerError, match="redundant"):
        well_generate(ReductionContext(bad))
    assert bad._reduction.rebuilt is None


def test_rebuilt_tower_recognizes_increment_combinations():
    spec2, _iso = well_generate(ReductionContext(N_TOWER))
    ctx = ReductionContext(spec2)
    f = parse(spec2, "5/x + 7/(2*x^2)")
    res = telescope(ctx, f)
    assert res.summable
    assert _is_const(spec2, res.g - parse(spec2, "5*u1 + 7*u2"))
    f2 = f + delta(spec2, parse(spec2, "x*u1"))
    res2 = telescope(ctx, f2)
    assert res2.summable
    assert _is_const(spec2, res2.g - parse(spec2, "5*u1 + 7*u2 + x*u1"))


def test_depth_reduce_golden():
    res = depth_reduce(ReductionContext(N_TOWER), parse(N_TOWER, "t2/x"))
    new = res.iso.target
    assert [g.name for g in new.gens] == ["x", "u1", "u2"]
    assert res.g == parse(new, "u1*u2 + u1^3/6")
    assert res.r == parse(new, "1/(3*x^3)")
    assert not res.summable
    assert res.depth_before == 3
    assert res.depth_after == 2
    image = res.iso.apply(parse(N_TOWER, "t2/x"))
    assert image == new.delta(res.g) + res.r


def test_depth_reduce_summable_input():
    f = delta(N_TOWER, parse(N_TOWER, "t1*t2"))
    res = depth_reduce(ReductionContext(N_TOWER), f)
    assert res.summable and _is_zero(res.r)
    assert res.depth_before == 3
    assert res.depth_after == 2
    assert res.iso.apply(f) == res.iso.target.delta(res.g)


def test_depth_reduce_reuses_the_rebuilt_tower(monkeypatch):
    tower = load_tower_file(NESTED)
    f = parse(tower, "t2/x")
    first = depth_reduce(ReductionContext(tower), f)
    second = depth_reduce(ReductionContext(tower), parse(tower, "t1^2/(x+1)"))
    assert second.iso.target is first.iso.target
    assert second.iso is first.iso

    calls = []
    factor_monic = reduction.factor_monic

    def counted(p):
        calls.append(p)
        return factor_monic(p)

    monkeypatch.setattr(reduction, "factor_monic", counted)
    again = depth_reduce(ReductionContext(tower), f)
    assert calls == []
    assert (again.g, again.r) == (first.g, first.r)


def test_context_with_notes_rebuilds_on_its_own():
    tower = load_tower_file(NESTED)
    irr = Poly((Fraction(1), Fraction(0), Fraction(1)))
    for warm in (False, True):
        if warm:
            well_generate(ReductionContext(tower))
        ctx = ReductionContext(tower)
        before = tower._reduction.rebuilt
        telescope(ctx, parse(tower, "1/(x^2+1)"))
        assert ctx.notes == [(1, irr)]
        spec, iso = well_generate(ctx)
        assert irr in spec.gens[0].seed_reps
        assert tower._reduction.rebuilt is before
        assert before is None or spec is not before[0]
        assert iso.source is tower


def _printed_depth_reduce(tower, f):
    res = depth_reduce(ReductionContext(tower), f)
    new = res.iso.target
    return (format_value(new, res.g), format_value(new, res.r),
            res.depth_before, res.depth_after,
            [(gen.name, format_value(new, new.lift_to_top(gen.delta)),
              [format_poly(new, p, new.depth_of_level(level))
               for p in gen.seed_reps])
             for level, gen in enumerate(new.gens, start=1)],
            [format_value(new, img) for img in res.iso.images])


@pytest.mark.parametrize("text, seed", [
    (NESTED.read_text(), 900), (UNSEEDED_TEXT, 101)],
    ids=["nested", "unseeded"])
def test_shared_rebuild_matches_a_fresh_tower(text, seed):
    warm = parse_tower_text(text)
    rng = random.Random(seed)
    for _ in range(6):
        f_text = format_value(warm, rand_value(warm, rng, 2))
        fresh = parse_tower_text(text)
        assert (_printed_depth_reduce(warm, parse(warm, f_text))
                == _printed_depth_reduce(fresh, parse(fresh, f_text)))
    assert warm._reduction.rebuilt is not None


def test_nesting_depth_metric():
    assert nesting_depth(N_TOWER, parse(N_TOWER, "x")) == 1
    assert nesting_depth(N_TOWER, parse(N_TOWER, "t1")) == 2
    assert nesting_depth(N_TOWER, parse(N_TOWER, "t2/x")) == 3
    assert nesting_depth(N_TOWER, parse(N_TOWER, "x + t1")) == 2
    assert nesting_depth(N_TOWER, N_TOWER.lift_to_top(Fraction(3))) == 0
    assert nesting_depth(B_TOWER, parse(B_TOWER, "t2")) == 2


# a parameter tower two levels above x, so that Q(n)(x) coefficients sit
# below generators too
P2_TOWER = parse_tower_text("params n\n"
                            "gen x : 1\n"
                            "seed x : x\n"
                            "gen t1 : 1/(x+n)\n"
                            "gen t2 : t1/(x+1)\n")


def _view_levels(tower, v):
    """The levels used by v, walking every coefficient value."""
    npar = tower.nparams
    out = set()

    def walk(u, depth):
        if isinstance(u, Fraction) or depth <= npar:
            return
        for p in (u.num, u.den):
            if p.degree() > 0:
                out.add(depth - npar)
            for c in p.coeffs:
                walk(c, depth - 1)

    walk(v, vdepth(v))
    return out


def _sub_values(v):
    """v and every coefficient value of its numerator and denominator, at
    every depth."""
    out = [v]
    for u in out:
        if not isinstance(u, Fraction):
            out.extend(c for p in (u.num, u.den) for c in p.coeffs)
    return out


@pytest.mark.parametrize("tower", [Q_TOWER, H_TOWER, N_TOWER, B_TOWER,
                                   P_TOWER, P2_TOWER],
                         ids=["Q", "H", "N", "B", "P", "P2"])
def test_levels_used_reads_the_stored_coefficients(tower):
    # constant coefficients over a common denominator: 1 = (x+1)/(x+1)
    texts = ["t1 + 1/(x+1)", "3*(x+1)*t1^2 + x*t1 + 5/2", "t1/(t1 + 2)"]
    values = ([parse(tower, t) for t in texts] if tower.nlevels >= 2
              else [])
    rng = random.Random(2808)
    values += [rand_value(tower, rng, 2) for _ in range(12)]
    for v in values:
        for u in _sub_values(v):
            assert _levels_used(tower, u) == _view_levels(tower, u)


def test_nullspace_solver():
    zero, one = Fraction(0), Fraction(1)
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)]]
    vecs = nullspace_basis(rows, 3, zero, one)
    assert len(vecs) == 2
    for vec in vecs:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
        lead = next(c for c in vec if c != 0)
        assert lead == 1
    eye = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    assert nullspace_basis(eye, 3, zero, one) == []
    assert nullspace_basis([], 2, zero, one) == [(one, zero), (zero, one)]
