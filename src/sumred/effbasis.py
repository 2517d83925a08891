"""Structured basis of the non-summable remainder space.

A remainder produced by the complete reduction is a unique combination of
basis elements of the form

    prod over levels of   t^k          (polynomial direction, k >= 1)
                       or t^k / q^m    (proper direction, q a class
                                        representative, 0 <= k < deg q)

with constant coefficients. BasisElement records the per-level factors;
expand_remainder computes all coordinates of a remainder, and
leading_coordinate picks the single coordinate the polynomial reduction
eliminates against, together with its constant.

Coordinate extraction never factors anything: the proper digits come from
modular inverses against the given representative.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    _is_zero_val,
    modular_residue,
    padic_expand,
    poly_sort_key,
    zero_at,
)


class BasisElement:
    """Product of per-level factors (depth, k, q, m); q None means t^k."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        self.factors = tuple(factors)

    def extended(self, depth, k, q=None, m=0):
        """Add a factor at a depth above all existing ones."""
        if q is None and k == 0:
            return self
        if self.factors and self.factors[-1][0] >= depth:
            raise ValueError("factors must be added from the bottom up")
        return BasisElement(self.factors + ((depth, k, q, m),))

    def factor_at(self, depth):
        for f in self.factors:
            if f[0] == depth:
                return f[1], f[2], f[3]
        return None

    def top_depth(self):
        return self.factors[-1][0] if self.factors else 0

    def is_one(self):
        return not self.factors

    def as_value(self, tower):
        """The basis element as a value at the tower's full depth."""
        from .algebra import RatFunc, lift, one_at
        from .algebra import Poly

        out = lift(Fraction(1), tower.full_depth)
        for depth, k, q, m in self.factors:
            name = ([None] + list(tower.params)
                    + [g.name for g in tower.gens])[depth]
            t = lift(tower.var(name), tower.full_depth)
            out = out * t ** k
            if q is not None:
                qv = RatFunc(q, Poly((one_at(depth - 1),)), depth,
                             _trusted=True)
                out = out / lift(qv, tower.full_depth) ** m
        return out

    def sort_key(self):
        key = []
        for depth, k, q, m in self.factors:
            qkey = (-1,) if q is None else poly_sort_key(q)
            key.append((depth, 0 if q is None else 1, k, m, qkey))
        return tuple(key)

    def __eq__(self, other):
        return isinstance(other, BasisElement) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"BasisElement({self.factors!r})"


BASIS_ONE = BasisElement(())


def expand_remainder(ctx, v, depth):
    """All coordinates of a remainder: BasisElement -> constant (nonzero)."""
    npar = ctx.tower.nparams
    if isinstance(v, Fraction) or depth <= npar:
        if _is_zero_val(v):
            return {}
        return {BASIS_ONE: v}
    out = {}
    poly, proper = ctx.tower.split_poly_proper(v)
    for j in range(poly.degree() + 1):
        c = poly.coeffs[j]
        if _is_zero_val(c):
            continue
        for th, cv in expand_remainder(ctx, c, depth - 1).items():
            out[th.extended(depth, j)] = cv
    if not proper.num.is_zero():
        den = proper.den
        comps = ctx.classify_den(den, depth)
        for q, shift, m in comps:
            if shift != 0:
                raise ValueError(
                    "remainder denominator contains a shifted representative")
        for q, _shift, m in comps:
            qm = q ** m
            cof = den.exact_div(qm)
            digits = padic_expand(modular_residue(proper.num, cof, qm), q)
            for jdig, dig in enumerate(digits):
                mm = m - jdig
                for k in range(dig.degree() + 1):
                    c = dig.coeffs[k]
                    if _is_zero_val(c):
                        continue
                    for th, cv in expand_remainder(ctx, c, depth - 1).items():
                        out[th.extended(depth, k, q, mm)] = cv
    return out


def leading_coordinate(ctx, v, depth):
    """The coordinate the elimination pivots on: (BasisElement, constant).

    Polynomial content of positive degree wins, then the deepest pole of the
    smallest denominator representative, then the recursion drops a level.
    """
    npar = ctx.tower.nparams
    if isinstance(v, Fraction) or depth <= npar:
        return BASIS_ONE, v
    poly, proper = ctx.tower.split_poly_proper(v)
    if poly.degree() > 0:
        th, c = leading_coordinate(ctx, poly.lc(), depth - 1)
        return th.extended(depth, poly.degree()), c
    if not proper.num.is_zero():
        comps = ctx.classify_den(proper.den, depth)
        q, _shift, m = min(comps, key=lambda c: poly_sort_key(c[0]))
        cof = proper.den.exact_div(q ** m)
        h = modular_residue(proper.num, cof, q)
        th, c = leading_coordinate(ctx, h.lc(), depth - 1)
        return th.extended(depth, h.degree(), q, m), c
    below = poly.coeff(0, depth - 1)
    return leading_coordinate(ctx, below, depth - 1)


def coordinate_of(ctx, element, v, depth):
    """The coefficient of one basis element in v's remainder expansion."""
    npar = ctx.tower.nparams
    if isinstance(v, Fraction) or depth <= npar:
        return v
    factor = element.factor_at(depth)
    poly, proper = ctx.tower.split_poly_proper(v)
    if factor is None:
        return coordinate_of(ctx, element, poly.coeff(0, depth - 1), depth - 1)
    k, q, m = factor
    if q is None:
        return coordinate_of(ctx, element, poly.coeff(k, depth - 1), depth - 1)
    if proper.num.is_zero():
        return zero_at(npar)
    a = 0
    rest = proper.den
    while True:
        quo, rem = rest.divmod(q)
        if not rem.is_zero():
            break
        a += 1
        rest = quo
    if a < m:
        return zero_at(npar)
    digits = padic_expand(modular_residue(proper.num, rest, q ** a), q)
    j = a - m
    if j >= len(digits):
        return zero_at(npar)
    return coordinate_of(ctx, element, digits[j].coeff(k, depth - 1), depth - 1)
