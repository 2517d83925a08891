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

At level 1 the shift increment is constant, so the shift exponent between
two equivalent polynomials is solved exactly from the subleading
coefficient and then verified. At higher levels candidates are searched in
a bounded window.
"""

from __future__ import annotations

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dmp_factor_list

from .algebra import _monic_from_zz, _zz_poly, lower, poly_sort_key, vdepth


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
        k_fr = lower(k_val, 0)
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


def factor_monic(p):
    """Factor a nonzero polynomial into monic irreducibles with multiplicities.

    p is cleared of denominators into ZZ[y_1..y_c, t] and factored once over
    ZZ (sympy's dmp_factor_list, Wang's EEZ algorithm in several variables).
    Factors free of t are units of the field below and are dropped; each
    other factor is made monic over the field below. The list is sorted by
    poly_sort_key, so equal inputs give equal lists.
    """
    c = vdepth(p.lc())
    _content, factors = dmp_factor_list(_zz_poly(p, c)[0], c, ZZ)
    monic = ((_monic_from_zz(f, c), mult) for f, mult in factors)
    found = [(f, mult) for f, mult in monic if f.degree() > 0]
    return sorted(found, key=lambda fm: poly_sort_key(fm[0]))
