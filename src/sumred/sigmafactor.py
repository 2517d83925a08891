"""Factorization of denominators into shift classes of irreducibles.

Two monic irreducibles p, q in the same level variable are equivalent when
some power of the shift maps p onto q. Each class is named by a
representative; the level's representative list grows as new classes are
met, so the choice is stable within a session and can be pinned ahead of
time through seed lists.

At level 1 the shift increment is constant, so the shift exponent between
two equivalent polynomials is solved exactly from the subleading
coefficient and then verified. At higher levels candidates are searched in
a bounded window.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    Poly,
    _inv_val,
    _is_one_val,
    _is_zero_val,
    _one_like,
    as_fraction,
    frac_at,
    lift,
    poly_gcd,
    poly_sort_key,
    vsqrt,
)
from .errors import UnsupportedFactorizationError


def shift_equivalence(tower, p, q, depth, window):
    """The integer k with sigma^k(p) == q, or None. p, q monic, equal degree."""
    if p == q:
        return 0
    d = p.degree()
    if d != q.degree() or d < 1:
        return None
    if depth - tower.nparams == 1:
        # sigma^k adds k*a to the variable; compare subleading coefficients:
        # sigma^k(p) has p_{d-1} + d*k*a there
        a = tower.gens[0].delta
        diff = q.coeff(d - 1, depth - 1) - p.coeff(d - 1, depth - 1)
        k_val = diff / (a * d)
        k_fr = as_fraction(k_val)
        if k_fr is None or k_fr.denominator != 1:
            return None
        k = int(k_fr)
        if k != 0 and tower.sigma_poly(p, depth, k) == q:
            return k
        return None
    fwd = p
    bwd = p
    for k in range(1, window + 1):
        fwd = tower.sigma_poly(fwd, depth, 1)
        if fwd == q:
            return k
        bwd = tower.sigma_poly(bwd, depth, -1)
        if bwd == q:
            return -k
    return None


def squarefree_decomposition(p):
    """Yun's method: monic p as a list of (monic squarefree factor, power)."""
    ps = p.deriv()
    g = poly_gcd(p, ps)
    if g.degree() == 0:
        return [(p, 1)]
    b = p.exact_div(g)
    c = ps.exact_div(g)
    d = c - b.deriv()
    out = []
    i = 1
    while b.degree() > 0:
        a = poly_gcd(b, d)
        if a.degree() > 0:
            out.append((a, i))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.deriv()
        i += 1
    return out


def factor_monic(tower, p, depth, reps, window):
    """Factor a monic polynomial into monic irreducibles with multiplicities.

    reps supplies known class representatives whose shifted copies are tried
    by division first; that route plus the exact quadratic splitter covers
    every level. Leftover factors of degree > 2 fall back to a general
    rational factorizer at level 1 and are rejected above it.
    """
    found = {}
    for sq, mult in squarefree_decomposition(p):
        for irr in _split_squarefree(tower, sq, depth, reps, window):
            found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda im: poly_sort_key(im[0]))


def _split_squarefree(tower, g, depth, reps, window):
    parts = []
    if g.degree() == 1:
        return [g]
    for rep in reps:
        if rep.degree() > g.degree():
            continue
        for k in _shift_scan(window):
            if g.degree() < rep.degree():
                break
            cand = tower.sigma_poly(rep, depth, k)
            quo, rem = g.divmod(cand)
            if rem.is_zero():
                parts.append(cand)
                g = quo
        if g.degree() == 0:
            return parts
    if g.degree() == 0:
        return parts
    if g.degree() == 1:
        parts.append(g)
        return parts
    if g.degree() == 2:
        parts.extend(_split_quadratic(g, depth))
        return parts
    if depth - tower.nparams == 1:
        parts.extend(_factor_bottom_general(tower, g, depth))
        return parts
    raise UnsupportedFactorizationError(
        f"cannot factor a degree-{g.degree()} polynomial at nesting level "
        f"{depth - tower.nparams}; seed its factors as representatives")


def _shift_scan(window):
    yield 0
    for k in range(1, window + 1):
        yield k
        yield -k


def _split_quadratic(g, depth):
    """Monic squarefree quadratic: split over the field below or keep whole."""
    b = g.coeff(1, depth - 1)
    c = g.coeff(0, depth - 1)
    disc = b * b - c * 4
    s = vsqrt(disc)
    if s is None:
        return [g]
    if _is_zero_val(s):
        raise ValueError("squarefree quadratic with vanishing discriminant")
    half = Fraction(1, 2)
    r1 = (-b + s) * half
    r2 = (-b - s) * half
    one = _one_like(r1)
    return [Poly((-r1, one)), Poly((-r2, one))]


# ---------------------------------------------------------------------------
# general factorization at the bottom level, over Q(params)
# ---------------------------------------------------------------------------


def _factor_bottom_general(tower, g, depth):
    """Split a squarefree monic polynomial at level 1 into irreducibles."""
    import sympy

    syms = [sympy.Symbol(nm) for nm in tower.params]
    syms.append(sympy.Symbol(tower.gens[0].name))
    expr = _poly_to_sympy(g, depth, syms)
    cleared, _ = sympy.fraction(sympy.together(expr))
    _const, factors = sympy.factor_list(sympy.expand(cleared))
    x = syms[-1]
    parts = []
    for f, e in factors:
        fp = sympy.Poly(f, x)
        if fp.degree() < 1:
            continue
        coeffs = list(reversed(fp.all_coeffs()))
        vals = [_sympy_scalar_to_value(c, tower, syms[:-1]) for c in coeffs]
        poly = Poly(vals)
        lc = poly.lc()
        if not _is_one_val(lc):
            poly = poly.scale(_inv_val(lc))
        parts.extend([poly] * e)
    prod = None
    for part in parts:
        prod = part if prod is None else prod * part
    if prod != g:
        raise UnsupportedFactorizationError(
            "general factorization failed to verify; refusing the result")
    return parts


def _poly_to_sympy(p, depth, syms):
    import sympy

    x = syms[depth - 1]
    expr = sympy.Integer(0)
    for i, c in enumerate(p.coeffs):
        expr += _value_to_sympy(c, syms) * x ** i
    return expr


def _value_to_sympy(v, syms):
    import sympy

    if isinstance(v, Fraction):
        return sympy.Rational(v.numerator, v.denominator)
    num = _poly_to_sympy(v.num, v.depth, syms)
    den = _poly_to_sympy(v.den, v.depth, syms)
    return num / den


def _sympy_scalar_to_value(e, tower, param_syms):
    """Convert a sympy expression in the parameters to a constant value."""
    import sympy

    depth = tower.nparams
    if e.is_Integer:
        return frac_at(Fraction(int(e)), depth)
    if e.is_Rational:
        return frac_at(Fraction(int(e.p), int(e.q)), depth)
    if e.is_Symbol:
        return lift(tower.var(str(e)), depth)
    if e.is_Add:
        total = frac_at(Fraction(0), depth)
        for term in e.args:
            total = total + _sympy_scalar_to_value(term, tower, param_syms)
        return total
    if e.is_Mul:
        total = frac_at(Fraction(1), depth)
        for term in e.args:
            total = total * _sympy_scalar_to_value(term, tower, param_syms)
        return total
    if e.is_Pow:
        base, exp = e.args
        if not exp.is_Integer:
            raise UnsupportedFactorizationError(
                f"cannot convert exponent {exp} to an exact value")
        return _sympy_scalar_to_value(base, tower, param_syms) ** int(exp)
    raise UnsupportedFactorizationError(f"cannot convert {e} to an exact value")
