"""Structured basis of the remainder space.

Every value of the tower is a unique combination of basis elements of the
form

    prod over levels of   t^k          (polynomial direction, k >= 1)
                       or t^k / q^m    (proper direction, q a monic
                                        irreducible factor, 0 <= k < deg q)

with constant coefficients. BasisElement records the per-level factors.
expand_remainder is the one walker: it computes all coordinates of a
value, and leading_coordinate and coordinate_of read theirs off it.

The basis runs over the actual irreducible factors of the denominators,
not over their shift-class representatives, so every value has
coordinates, canonical remainders included (their lower-level content is
not itself a remainder). Reading coordinates factors denominators through
the tower's factorization cache but never classifies them: the
representative sets and notes change only through reduction.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    RatFunc,
    _is_zero_val,
    coprime_split,
    lift,
    padic_expand,
    poly_sort_key,
    vdepth,
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

    def is_one(self):
        return not self.factors

    def as_value(self, tower):
        """The basis element as a value at the tower's full depth."""
        out = lift(Fraction(1), tower.full_depth)
        for depth, k, q, m in self.factors:
            t = lift(tower.var(tower.names[depth]), tower.full_depth)
            out = out * t ** k
            if q is not None:
                qv = RatFunc.from_poly(q, depth)
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


def expand_remainder(ctx, v):
    """All coordinates of v: BasisElement -> nonzero constant.

    The polynomial part contributes t^k times the expansion of its k-th
    coefficient. The proper part is split over the prime powers q^m of its
    denominator, each piece is expanded q-adically, and the digit d_j
    contributes t^k / q^(m - j) times the expansion of its k-th coefficient.
    """
    depth, npar = vdepth(v), ctx.tower.nparams
    if depth <= npar:  # a coordinate is a constant at the parameter depth
        return {} if _is_zero_val(v) else {BASIS_ONE: lift(v, npar)}
    out = {}
    poly, proper = ctx.tower.split_poly_proper(v)
    _expand_digit(ctx, out, poly, depth)
    if not proper.num.is_zero():
        factors = ctx.factor(proper.den)
        pieces = coprime_split(proper.num, [q ** m for q, m in factors])
        for (q, m), piece in zip(factors, pieces):
            for j, digit in enumerate(padic_expand(piece, q)):
                _expand_digit(ctx, out, digit, depth, q, m - j)
    return out


def _expand_digit(ctx, out, p, depth, q=None, m=0):
    """Add the coordinates of p(t) / q^m (just p(t) for q None) to out."""
    for k, c in enumerate(p.coeffs):
        if _is_zero_val(c):
            continue
        for th, cv in expand_remainder(ctx, c).items():
            out[th.extended(depth, k, q, m)] = cv


def leading_coordinate(ctx, v):
    """The coordinate the elimination pivots on: (BasisElement, constant).

    The pivot is the first element of v's expansion, comparing the factors
    from the top depth down: t^k with k >= 1 first (larger k first), then
    t^k / q^m (by poly_sort_key(q), then larger m, then larger k), and no
    factor at that depth last.
    """
    coords = expand_remainder(ctx, v)
    if not coords:
        raise ValueError("zero has no leading coordinate")
    depth, npar = vdepth(v), ctx.tower.nparams
    th = min(coords, key=lambda e: _pivot_key(e, depth, npar))
    return th, coords[th]


def _pivot_key(element, depth, npar):
    key = []
    for d in range(depth, npar, -1):
        f = element.factor_at(d)
        if f is None:
            key.append((2,))
        else:
            k, q, m = f
            key.append((0, -k) if q is None else (1, poly_sort_key(q), -m, -k))
    return key


def coordinate_of(ctx, element, v):
    """The coefficient of one basis element in v's expansion."""
    return expand_remainder(ctx, v).get(element, zero_at(ctx.tower.nparams))
