"""Factorization of denominators into shift classes of irreducibles.

Two monic irreducibles p, q in the same level variable are equivalent when
some power of the shift maps p onto q. Each class is named by a
representative; the level's representative list grows as new classes are
met, so the choice is stable within a session and can be pinned ahead of
time through seed lists.

A denominator at any level is split into monic irreducibles by one
factorization over ZZ[y_1..y_c, t]: the parameters and the generators below
are independent indeterminates (each level is transcendental over the field
below), so by Gauss's lemma the integer factors of positive degree in t are
exactly the irreducibles over the field below, whatever their degree.
sympy's dmp_factor_list (Wang's EEZ algorithm, Wang 1978) is the only
general path; two degrees are answered without it. A polynomial of degree 1
is irreducible. A quadratic a2 t^2 + a1 t + a0 whose coefficients have
depth 0 or 1 (the two integer-stored forms) is split by its discriminant,
read off the stored integers: Delta = a1^2 - 4 a0 a2 lies in Z or Z[y]. It
is a square in Q(y) exactly when it is one in Z[y]. A square root in Q(y)
lies in Q[y], which is integrally closed; write it (u/v) r0 with r0
primitive in Z[y]. Then r0^2 is primitive (Gauss's lemma), so (u/v)^2 is
the content of Delta, an integer, and u/v is an integer. So one integer
square root decides it: the factors are the monic forms of
2 a2 t + a1 -+ sqrt(Delta) (one factor of multiplicity 2 when Delta = 0),
and without a root the quadratic is irreducible. The answer is the list
the factorizer returns: the field is the same and the stored form is
unique.

The shift exponent between two irreducibles is found exactly, by one path at
every level (Karr 1981, JACM 28). Let p, q be monic of degree d in t with
sigma(t) = t + a. If sigma^k(p) = q, comparing subleading coefficients
gives c = (q_{d-1} - p_{d-1})/d = S_k + sigma^k(b) - b, with b = p_{d-1}/d
and S_k the sum of sigma^j(a) over 0 <= j < k. The bracket is a
difference, and each sigma^j(a) has the remainder v of a, so the remainder
of c one level down is k*v. Since v != 0 for a valid level, one complete
reduction yields the only candidate k, which one sigma^k then confirms or
rejects. At level 1 the remainder is the identity and v = a, so this is
the closed form k = c/a. Every class decision is thereby certified: an
irreducible becomes a new representative only when no shift relates it
to an existing one.

Above level 1, forming sigma^k(p) costs the k-term sum S_k, so for
|k| >= 2 a false candidate is rejected first without it. (At |k| = 1, S_k
is the single term a or -sigma^{-1}(a): the test would save no sum and
repeat the sigma^k(p_{d-1}) that the confirming shift forms anyway.)
Comparing the same coefficients of sigma^k(p) = q gives S_k = gamma with
gamma = (q_{d-1} - sigma^k(p_{d-1}))/d, and S_k telescopes:
sigma(S_k) - S_k = sigma^k(a) - a for either sign of k. A gamma that
fails this necessary condition means "not equivalent". At level 2,
sigma^k(p_{d-1}) and sigma^k(a) lie at level 1 and cost a closed-form
substitution; at level 3 and up they are shifts of level-2 values, which
still sum a level-2 S_k.
"""

from __future__ import annotations

import math

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dmp_factor_list

from .algebra import (_monic_from_zz, _xpoly, _zadd, _zmul, _zpoly, _zsqrt,
                      _zz_poly, lower, poly_sort_key, vdepth)


def shift_equivalence(ctx, p, q, depth):
    """The integer k with sigma^k(p) == q, or None. p, q monic irreducible."""
    from .reduction import complete_reduction

    if p == q:
        return 0
    d = p.degree()
    if d != q.degree() or d < 1:
        return None
    below = depth - 1
    c = (q.coeff(d - 1, below) - p.coeff(d - 1, below)) / d
    _g, rc = complete_reduction(ctx, c)
    level = depth - ctx.tower.nparams
    _g, v, _e, _c, _p = ctx.level_data(level)  # InvalidTowerError if v == 0
    k = lower(rc / v, 0)
    if k is None or k.denominator != 1 or k == 0:
        return None
    k = int(k)
    tower = ctx.tower
    if below > tower.nparams and abs(k) >= 2:
        shifted = tower.sigma(p.coeff(d - 1, below), k)
        gamma = (q.coeff(d - 1, below) - shifted) / d
        a = tower.gens[level - 1].delta
        if tower.delta(gamma) != tower.sigma(a, k) - a:
            return None
    return k if tower.sigma_poly(p, depth, k) == q else None


def factor_monic(p):
    """Factor a nonzero polynomial into monic irreducibles with multiplicities.

    p is cleared of denominators into ZZ[y_1..y_c, t] and factored once over
    ZZ (sympy's dmp_factor_list, Wang's EEZ algorithm in several variables).
    Factors free of t are units of the field below and are dropped; each
    other factor is made monic over the field below. The list is sorted by
    poly_sort_key, so equal inputs give equal lists. A polynomial of degree
    1 is irreducible over the field below and is only made monic; one of
    degree 2 with coefficients of depth 0 or 1 is split by its discriminant
    on the stored integers (_split_quadratic, see the module docstring).
    Wang's algorithm takes every other degree and depth.
    """
    d = p.degree()
    if d == 1:
        return [(p.monic()[1], 1)]
    if d == 2 and p.as_integers()[1] is not None:
        return _split_quadratic(p) or [(p.monic()[1], 1)]
    c = vdepth(p.lc())
    _content, factors = dmp_factor_list(_zz_poly(p, c)[0], c, ZZ)
    monic = ((_monic_from_zz(f, c), mult) for f, mult in factors)
    found = [(f, mult) for f, mult in monic if f.degree() > 0]
    return sorted(found, key=lambda fm: poly_sort_key(fm[0]))


def _split_quadratic(p):
    """The monic linear factors with multiplicities of p, of degree 2 with
    coefficients of depth 0 or 1, sorted as factor_monic sorts them; None
    when p is irreducible.

    With p = (a2 t^2 + a1 t + a0) / D stored, the factors are the monic
    forms of 2 a2 t + a1 -+ s for s^2 = a1^2 - 4 a0 a2, an integer or a
    Z[y] square root. Delta and s are intermediates, which the integer cap
    does not check; the factors built are checked.
    """
    (a0, a1, a2), den = p.as_integers()
    if den.__class__ is int:
        disc = a1 * a1 - 4 * a0 * a2
        s = math.isqrt(max(disc, 0))
        if s * s != disc:
            return None
        roots = (a1 - s, a1 + s)

        def linear(u):
            return _zpoly([u, 2 * a2], 2 * a2)
    else:
        s = _zsqrt(_zadd(_zmul(a1, a1), _zmul([4], _zmul(a0, a2)), True))
        if s is None:
            return None
        roots = (_zadd(a1, s, True), _zadd(a1, s))
        lead = [2 * v for v in a2]

        def linear(u):
            return _xpoly([u, lead], lead, lead)
    if not s:
        return [(linear(roots[0]), 2)]
    return sorted(((linear(u), 1) for u in roots),
                  key=lambda fm: poly_sort_key(fm[0]))
