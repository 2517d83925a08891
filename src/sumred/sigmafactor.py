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

Over Q (level 1 of a tower without parameters) the denominators are mostly
products of shifts of classes already met (the shift structure of
denominators, Abramov 1971; Man and Wright 1994), so a polynomial of
degree 3 or more is first divided by the classes the caller knows. The
power of x is split off, and for each known q the integer translates
q(x + k) in a window that Cauchy's root bound gives are tried: an integer
filter on the constant terms, then an exact division in Z[x]. A window
wider than a fixed cap is skipped. Only the cofactor is factored, by the
paths above. A translate of an irreducible is irreducible, each peeled
factor is certified by its division, and the factorization into monic
irreducibles is unique, so the known classes change the cost and never
the list returned.

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
from fractions import Fraction

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dmp_factor_list

from .algebra import (_monic_from_zz, _xpoly, _zadd, _zeval, _zexquo, _zmul,
                      _zpoly, _zpoly_primitive, _zsqrt, _ztaylor, _zz_poly,
                      lower, poly_sort_key, vdepth)

# Candidate shifts k scanned per known representative in _peel. A scan
# evaluates the representative at each k and divides only where the
# integer filter passes: 64 evaluations of x^2 + 1 take about 30 us, a
# fifth of sympy's Zassenhaus on x^3 - 1, its cheapest level-1 call. A
# wider window is left to the cofactor's factorization.
_PEEL_CAP = 64


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


def factor_monic(p, known=()):
    """Factor a nonzero polynomial into monic irreducibles with multiplicities.

    p is cleared of denominators into ZZ[y_1..y_c, t] and factored once over
    ZZ (sympy's dmp_factor_list, Wang's EEZ algorithm in several variables).
    Factors free of t are units of the field below and are dropped; each
    other factor is made monic over the field below. The list is sorted by
    poly_sort_key, so equal inputs give equal lists. A polynomial of degree
    1 is irreducible over the field below and is only made monic; one of
    degree 2 with coefficients of depth 0 or 1 is split by its discriminant
    on the stored integers (_split_quadratic, see the module docstring).

    known, monic irreducibles in the variable of p such as a level's class
    representatives, is read only for p over Q of degree 3 or more, and
    must then be over Q too: _peel divides out the power of x and the
    integer translates of each known q, and only the cofactor takes the
    paths above. The list returned is the same with or without known (see
    the module docstring). Wang's algorithm takes every other degree and
    depth.
    """
    d = p.degree()
    if d == 1:
        return [(p.monic()[1], 1)]
    if d == 2 and p.as_integers()[1] is not None:
        return _split_quadratic(p) or [(p.monic()[1], 1)]
    if known and p.as_integers()[1].__class__ is int:
        found, rest = _peel(p, known)
        if found:
            if len(rest) > 1:
                found += factor_monic(_zpoly(rest, rest[-1]))
            return sorted(found, key=lambda fm: poly_sort_key(fm[0]))
    c = vdepth(p.lc())
    _content, factors = dmp_factor_list(_zz_poly(p, c)[0], c, ZZ)
    monic = ((_monic_from_zz(f, c), mult) for f, mult in factors)
    found = [(f, mult) for f, mult in monic if f.degree() > 0]
    return sorted(found, key=lambda fm: poly_sort_key(fm[0]))


def _peel(p, known):
    """(found, rest) for p over Q and known over Q: found lists the monic
    factors x and q(x + k) (q in known, k an integer) with the multiplicity
    each has in p, and rest is the primitive Z[x] sequence of the cofactor.

    Let a be the primitive integer form of p with x^m split off, so
    a(0) != 0, and q~ = q times its denominator, which is primitive. If
    q~(x + k) divides a, it divides it in Z[x] (Gauss's lemma), so q~(k)
    divides a(0); and its roots, whose mean is mu - k for the mean mu of
    the roots of q, are roots of a. For an integer c near the mean of the
    roots of a, let R be the least integer with
    lc(a) R^n >= sum |b_i| R^i (i < n) for b = a(x + c); then every root
    of a lies within R of c (Cauchy), and |k - (mu - c)| <= R. Each k in
    that window whose q~(k) divides a(0) is tried by exact division, until
    it fails, for the multiplicity. A window wider than _PEEL_CAP peels
    nothing beyond x^m. A cofactor's roots are roots of a, so R holds for
    every later representative.
    """
    a = _zpoly_primitive(list(p.as_integers()[0]))
    m = 0
    while not a[m]:
        m += 1
    found = [(_zpoly([0, 1], 1), m)] if m else []
    a = a[m:]
    n = len(a) - 1
    if n <= 2:
        return found, a
    c = -a[-2] // (n * a[-1])
    cauchy = [-abs(v) for v in _ztaylor(a, c, 1, n)]
    cauchy[-1] = a[-1]
    radius = next((r for r in range(1, (_PEEL_CAP + 1) // 2)
                   if _zeval(cauchy, r) >= 0), None)
    if radius is None:
        return found, a
    for q in known:
        if len(a) <= 3:
            break
        qt = q.as_integers()[0]
        e = len(qt) - 1
        if e >= len(a) or a[-1] % qt[-1]:
            continue
        mu = Fraction(-qt[-2], e * qt[-1]) - c
        for k in range(math.ceil(mu - radius), math.floor(mu + radius) + 1):
            v = _zeval(qt, k)
            if not v or a[0] % v:
                continue
            f = _ztaylor(qt, k, 1, e)
            mult = 0
            while len(a) > e and not a[0] % v:
                quo = _zexquo(a, f)
                if _zmul(quo, f) != a:
                    break
                a, mult = quo, mult + 1
            if mult:
                found.append((_zpoly(f, f[-1]), mult))
    return found, a


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
