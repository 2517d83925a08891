"""Exact dense polynomial and rational-function arithmetic.

Values live in a chain of univariate rational-function fields built over Q:
a value of depth 0 is a Fraction, a value of depth d >= 1 is a RatFunc whose
numerator and denominator are Poly objects over the field of depth d - 1.
Constants carry no depth: a constant Poly((c,)) stores c at its own depth,
that of the highest variable c uses (lower(c)), so a value of depth d free
of t_d is one wrapper, Poly((v,)) over 1, and 1 is _P_ONE at every depth.
A nonconstant Poly keeps all its coefficients at its field's depth. RatFunc
arithmetic takes equal depths only; a Poly operation that meets a constant
with a shallower coefficient lifts it by one wrapper first (_pair), and a
product with 1 is the other factor.

Every RatFunc is kept in reduced canonical form: gcd(num, den) = 1 and den
monic, recursively at every depth. Rational content therefore migrates into
the top-level numerator, which makes equal values structurally equal; tests
compare results by == on purpose.

Polynomials are dense, lowest degree first, with no trailing zero. The zero
polynomial has no coefficients; degree() reports -1 for it (standing in for
degree minus infinity).

A Poly is stored in one of three forms, by the depth of its coefficients
(for a constant its coefficient's own depth, so one free of x is an int):

 * Fraction coefficients (the bottom level, Q[x]): a tuple of integer
   numerators over one positive int denominator, normalised so that the
   numerators' content is coprime to the denominator.
 * depth-1 coefficients (Q(x)[t]): a numerator N in Z[x][t], a tuple of
   Z[x] int tuples (low degree first, () for a zero coefficient), over one
   denominator D in Z[x], an int tuple. D is coprime over Q[x] to the
   content of N (the gcd of the N_j; a single N_j may share a factor with
   D), lc(D) > 0, and the integer content of N and D together is 1.
 * deeper coefficients: the tuple of RatFunc values itself.

Both integer forms are unique. At the bottom, if c / d = c' / d', then d
divides d' * content(c'), hence d', and the other way round. One level up,
if N / D = N' / D', then D divides N * D' = N' * D coefficientwise over
Q[x]; as D is coprime to the content of N, D divides D', and the other way
round, so D' = u D and N' = u N for a rational u; integer content 1 makes u
= +-1, and lc(D) > 0 makes it 1. So == and hash read the stored form, as
they read the coefficient tuple of RatFuncs above (canonical recursively).

Every operation on the two integer forms runs on the stored integers, and
each result is normalised once (_zpoly, _xpoly). At the bottom, sums bring
both sides to the lcm of their denominators, products multiply plain ints
and divisions pseudo-divide (_zpoly_pdivmod scales the running remainder by
lc / gcd rather than inverting the leading coefficient). One level up each
operation has its own cancellation rule, so that no full gcd of numerator
content and denominator is taken where a smaller one suffices:

 * sums (Henrici 1956): with g = gcd(D1, D2), the sum is
   N1 * (D2/g) + N2 * (D1/g) over D1 * (D2/g), and only gcd(content, g) can
   cancel; when D1 = D2 the candidate is D itself;
 * products: content(N1) is cancelled against D2 and content(N2) against
   D1, each gcd chain stopping at its first gcd of degree 0; what is left
   is coprime (Gauss's lemma), so only the integer content remains, and
   with both D constant nothing but the integer content is checked;
 * divisions pseudo-divide over Z[x] (_xpdivmod) and cancel the quotient
   and the remainder against s * D1;
 * monic divides by the top numerator, against which only the content of
   N can cancel;
 * sigma (taylor_shift) shifts the integers: an integer Taylor shift
   p(t + a) at the bottom, and at the level above
   sum N_j(x + c) (B t + A)^j B^(n - j) / (D(x + c) B^n) with t + A / B the
   image of t and x + c that of x (c = 0 when x is a parameter), where a
   factor can cancel only if it divides both B and N_n.

The Z[x] kernels under these rules (_zpoly_gcd, _zmul, _zexquo) read the
power of x off their operands first; x^i A is stored as A behind i leading
zeros. x is prime in the UFD Z[x], so when x divides neither A nor B,
gcd(x^i A, x^j B) = x^min(i, j) gcd(A, B): only gcd(A, B) takes the PRS,
and none is run when A or B is a constant. A product c x^i * x^j B is c B
behind i + j zeros, one scale. If x^j B divides a, then a has at least j
leading zeros, and both lose j before the division. A primitive gcd with
a positive leading coefficient stays so behind leading zeros, so every
result is the one the plain kernels give. This pays because in the
bundled towers x is its own shift class: reduce_proper moves each factor
sigma^s(x) = x + s onto x, and many denominators D in Z[x] are
x^i (x + 1)^j.

coeffs, the Fraction or RatFunc tuple that printing, the sort keys and
generic code read, is built on first read and then kept; results nobody
reads never build it. poly_sort_key and value_sort_key read this view, so
the order of factors and components, and with it every printed result, is
the same in every form; value_sort_key keys a constant's coefficient as if
each level above it were stored, so it is the order of that form too, at
every depth a constant sits. A Poly built from Fractions is cleared once
(_to_zpoly), which already gives the normalised form; one built from depth-1
values is summed term by term (_to_xpoly).

RatFunc addition is gcd-first (Henrici): with g = gcd(d1, d2) only
gcd(num, g) can cancel, nothing when g = 1. Terms with pairwise coprime
denominators, as in a proper part's orbit walk, go through coprime_sum,
which takes no gcd. Its inverse, the partial-fraction split coprime_split
(von zur Gathen and Gerhard, Modern Computer Algebra, 5.10), needs for
each modulus q only the inverse modulo q of the product r of the later
moduli. The module's one Euclid, _cofactor_euclid, gives it from
(r mod q, q), tracking that cofactor alone (one inversion when q is
linear); poly_xgcd adds t by one exact division. % normalises no quotient.

Products and inverses take no final gcd (Henrici; Knuth, TAOCP vol. 2
section 4.5.1). A product cancels n1 against d2 and n2 against d1; each
factor left is coprime to both denominators, since canonical inputs already
have gcd(n1, d1) = gcd(n2, d2) = 1, so the product n1 * n2 / (d1 * d2) is
coprime, and its denominator is a monic divided by monic gcds, hence monic.
An inverse swaps a coprime pair and scales both sides by the inverse of the
old numerator's leading coefficient. Division and powers go through these
two. A gcd with a nonzero constant operand is the constant 1 and is
returned without any work; most of those come from the cross-cancellation.

poly_gcd picks its method by coefficient depth. Fraction coefficients take an
integer primitive PRS (_qpoly_gcd) on the stored numerators. RatFunc
coefficients of depth c >= 1 are cleared of denominators into
ZZ[y_1..y_c, t] and take one gcd over ZZ (sympy's dmp_gcd: heuristic gcd,
PRS fallback); Euclid over Q(y_1)..(y_c)[t] would swell its coefficients.
By Gauss's lemma the ZZ gcd differs from the field gcd by a unit of the
field below, so dividing by its leading coefficient gives the monic gcd,
and each coefficient is rebuilt in canonical form from a
numerator/denominator pair cancelled over ZZ.

At c = 1 one integer image comes first (_xgcd_by_image), as in Brown's
modular gcd and the heuristic gcd of Char, Geddes and Gonnet, and dmp_gcd
runs only when the image leaves the answer open, which in practice means a
proper common factor. With deg a >= deg b, the stored numerators A, B in
Z[y][t] are evaluated at the first y = xi of a fixed tuple of small
integers where neither leading coefficient in t vanishes, and h is the
gcd of the two integer images. Let g be the gcd of A and B, primitive in
Z[y][t]. It divides A, so lc(g) divides lc(A), which is nonzero at xi;
g(xi, t) therefore keeps its degree and divides both images, and
deg h >= deg g. So deg h = 0 proves a and b coprime, and deg h = deg b
with a zero pseudo-remainder of A by B (_xpdivmod) proves b the gcd;
anything else goes to dmp_gcd. An unlucky xi (a coprime pair whose images
share a factor) costs only that fallback, and the canonical form makes the
answer the same on either path. The points are constants, not a choice,
so every run takes the same path.

The ZZ images are built by _zz_poly, which clears a constant's coefficient
at its own depth and nests it into the variables above, and turned back
into monic polynomials over the field below by _monic_from_zz. At c = 1
the image is the stored N itself and the way back is one _xpoly; no
coefficient view is built. sigmafactor factors denominators through the
same pair: it hands the image to sympy's dmp_factor_list and rebuilds each
factor, so it never reads the image format itself. A quadratic with
coefficients of depth 0 or 1 it splits on the stored integers instead
(as_integers), with math.isqrt or _zsqrt for the square root of the
discriminant, and over Q it divides out translates of known classes with
_zeval, _ztaylor and _zexquo.

The optional integer cap (SUMRED_MAX_INT_BITS, which the command line
applies for the duration of each run) is checked on every Poly built, so
it covers returned values: on the reduced Fraction coefficients at the
bottom, and on every integer of N and D one level up. It costs one test
per Poly when unset. The integers inside the kernels and the gcd
computations (the pseudo-remainders, _qpoly_gcd, the cancellation chains,
the ZZ images and the integer images of _xgcd_by_image) are not checked,
nor are the discriminant of a quadratic and its square root in
sigmafactor, or the root bound and the trial quotients of its peel.
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction

from sympy.polys.densearith import dmp_exquo, dmp_mul
from sympy.polys.densebasic import dmp_one, dmp_zero, dmp_zero_p
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_cancel, dmp_gcd, dmp_lcm

from .errors import IntegerLimitError, ParseError

F0 = Fraction(0)
F1 = Fraction(1)

# Optional bit-size cap on integers appearing in bottom-level coefficients.
# None disables the guard entirely (the default).
_INT_CAP = None


def set_int_cap(bits):
    """Set or clear the integer bit-size cap. bits=None disables it."""
    global _INT_CAP
    if bits is not None:
        bits = int(bits)
        if bits <= 0:
            raise ValueError("integer cap must be positive")
    _INT_CAP = bits


def load_int_cap_from_env():
    """Set the cap from SUMRED_MAX_INT_BITS (unset or empty clears it) and
    return the cap it replaced; a malformed value changes nothing."""
    raw = os.environ.get("SUMRED_MAX_INT_BITS")
    previous = _INT_CAP
    try:
        set_int_cap(int(raw) if raw else None)
    except ValueError:
        raise ParseError(f"SUMRED_MAX_INT_BITS wants a positive integer, "
                         f"got {raw!r}") from None
    return previous


def _guard(n, d):
    """Raise IntegerLimitError when the reduced n / d is over the cap."""
    g = math.gcd(n, d)
    if (n // g).bit_length() > _INT_CAP or (d // g).bit_length() > _INT_CAP:
        raise _over_cap()


def _over_cap():
    return IntegerLimitError(
        f"integer exceeds configured cap of {_INT_CAP} bits")


class Poly:
    """Dense univariate polynomial in a stored form of the module docstring:
    _c the stored coefficients over _d (an int, a Z[x] tuple, or None for
    RatFunc coefficients); coeffs the coefficient tuple, for the two integer
    forms a view built on first read."""

    __slots__ = ("_c", "_d", "coeffs")

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and _is_zero_val(coeffs[n - 1]):
            n -= 1
        if n == 1:
            coeffs = (lower(coeffs[0]),)
        if n and isinstance(coeffs[0], Fraction):
            ints, den = _to_zpoly(coeffs[:n])
            self._c, self._d = tuple(ints), den
            if _INT_CAP is not None:
                for c in coeffs:
                    _guard(c.numerator, c.denominator)
            return
        if n and coeffs[0].depth == 1:
            p = _to_xpoly(coeffs[:n])
            self._c, self._d = p._c, p._d
            return
        self.coeffs = self._c = coeffs[:n]
        self._d = None if n else 1

    def __getattr__(self, name):
        # only the view of an integer-stored Poly is ever unset
        if name != "coeffs":
            raise AttributeError(name)
        c, d = self._c, self._d
        if d.__class__ is int:
            view = tuple([Fraction(n, d) for n in c])
        else:
            view = tuple([_xval(n, d) for n in c])
        self.coeffs = view
        return view

    def as_integers(self):
        """(numerators, denominator) with self = numerators / denominator,
        for coefficients of depth 0 (ints over an int) or 1 (Z[x] int
        tuples over one); the form is normalised as stored."""
        return self._c, self._d

    # -- inspection ------------------------------------------------------

    def is_zero(self):
        return not self._c

    def degree(self):
        return len(self._c) - 1

    def lc(self):
        a = self._c
        if not a:
            raise ValueError("zero polynomial has no leading coefficient")
        return _read(a[-1], self._d)

    def coeff(self, i, depth_below):
        """The coefficient of t^i; beyond the degree, zero at depth_below."""
        a = self._c
        if 0 <= i < len(a):
            return _read(a[i], self._d)
        return zero_at(depth_below)

    def is_one(self):
        # 1 is _P_ONE at every depth
        return self._d == 1 and self._c == (1,)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, subtract):
        if not other._c:
            return self
        if not self._c:
            return -other if subtract else other
        self, other = _pair(self, other)
        a, b = self._c, other._c
        d = self._d
        if d is None:
            out = list(a) + [zero_at(a[0].depth)] * (len(b) - len(a))
            for i, c in enumerate(b):
                out[i] = out[i] - c if subtract else out[i] + c
            return Poly(out)
        if d.__class__ is tuple:
            return _xsum(a, d, b, other._d, subtract)
        if d != other._d:
            # numerators over the lcm of the two denominators
            g = math.gcd(d, other._d)
            ma, mb = other._d // g, d // g
            a, b, d = [x * ma for x in a], [y * mb for y in b], d * ma
        return _zpoly(_zadd(a, b, subtract), d)

    def __neg__(self):
        a, d = self._c, self._d
        if d is None:
            return Poly(tuple(-c for c in a))
        if d.__class__ is int:
            return _zp(tuple([-x for x in a]), d)
        return _xp(tuple([tuple([-v for v in x]) for x in a]), d)

    def __mul__(self, other):
        if not self._c or not other._c:
            return _P_ZERO
        if other.is_one():
            return self
        if self.is_one():
            return other
        self, other = _pair(self, other)
        a, b = self._c, other._c
        d = self._d
        if d is None:
            out = [zero_at(a[0].depth)] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if _is_zero_val(ca):
                    continue
                for j, cb in enumerate(b):
                    out[i + j] = out[i + j] + ca * cb
            return Poly(out)
        if d.__class__ is tuple:
            return _xmul(a, d, b, other._d)
        return _zpoly(_zmul(a, b), d * other._d)

    def scale(self, c):
        """Multiply by a scalar of the coefficient field."""
        a = self._c
        if not a or _is_one_val(c):
            return self
        if _is_zero_val(c):
            return _P_ZERO
        if vdepth(c) != _coeff_depth(self):
            return self * Poly((c,))
        d = self._d
        if d is None:
            return Poly(tuple(x * c for x in a))
        if d.__class__ is int:
            n = c.numerator
            return _zpoly([x * n for x in a], d * c.denominator)
        u, v = _xpair(c)
        return _xmul(a, d, (u,), v)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Poly")
        return _power(self, n) if n else _P_ONE

    # -- euclidean structure ----------------------------------------------

    def divmod(self, other):
        """Exact-field long division: self = q*other + r with deg r < deg other."""
        b = other._c
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(b) - 1
        if len(self._c) - 1 < db:
            return _P_ZERO, self
        self, other = _pair(self, other)
        b, d = other._c, other._d
        if d.__class__ is int:
            # pseudo-division s * A = Q * B + R of the numerators gives
            # q = Q * db / (s * da) and r = R / (s * da)
            q, r, s = _zpoly_pdivmod(self._c, b)
            s *= self._d
            return _zpoly([c * d for c in q], s), _zpoly(r, s)
        if d is not None:
            # the same over Z[x]: s is a polynomial, and the quotient and
            # remainder are cancelled against s * da
            q, r, s = _xpdivmod(self._c, b)
            s = _zmul(s, self._d)
            return (_xpoly([_zmul(c, d) for c in q], s, s),
                    _xpoly(r, s, s))
        a = list(self._c)
        inv_lc = _inv_val(b[-1])
        q = [zero_at(b[-1].depth)] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if _is_zero_val(c):
                continue
            c = c * inv_lc
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = a[i - db + j] - c * b[j]
        return Poly(q), Poly(a[:db])

    def __mod__(self, other):
        """The remainder of divmod. The integer forms normalise only it."""
        if not other._c or len(self._c) < len(other._c):
            return self.divmod(other)[1]
        self, other = _pair(self, other)
        b, d = other._c, other._d
        if d is None:
            return self.divmod(other)[1]
        if d.__class__ is int:
            _q, r, s = _zpoly_pdivmod(self._c, b)
            return _zpoly(r, s * self._d)
        _q, r, s = _xpdivmod(self._c, b)
        s = _zmul(s, self._d)
        return _xpoly(r, s, s)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("polynomial division was not exact")
        return q

    def monic(self):
        """Return (leading coefficient, self made monic)."""
        a, d = self._c, self._d
        if len(a) == 1:
            return self.lc(), _P_ONE
        if d.__class__ is tuple:
            top = a[-1]
            if top == d:
                return one_at(1), self
            # the numerators over the old top: only their content can cancel
            return _xval(top, d), _xpoly([list(x) for x in a], top, top)
        c = self.lc()
        if _is_one_val(c):
            return c, self
        if d is None:
            return c, self.scale(_inv_val(c))
        return c, _zpoly(list(a), a[-1])

    def eval(self, point):
        """Horner evaluation at a value of the coefficient depth."""
        if not self.coeffs:
            return zero_at(vdepth(point))
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * point + c
        return acc

    # -- comparison --------------------------------------------------------

    # the stored form is canonical at every depth (see the module
    # docstring), so equal polynomials store equal (_c, _d)
    def __eq__(self, other):
        return (isinstance(other, Poly) and self._c == other._c
                and self._d == other._d)

    def __hash__(self):
        return hash((self._c, self._d))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def _read(n, d):
    """The stored coefficient n over the denominator d as a value."""
    if d is None:
        return n
    return Fraction(n, d) if d.__class__ is int else _xval(n, d)


def _zp(c, d):
    """The Poly c / d for a tuple c of ints already in stored form."""
    p = Poly.__new__(Poly)
    p._c, p._d = c, d
    if _INT_CAP is not None:
        for n in c:
            _guard(n, d)
    return p


def _zpoly(c, d):
    """The Poly c / d for a list c of ints and an int d != 0, normalised:
    no trailing zero, d > 0 and gcd(content, d) = 1."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    if not n:
        return _P_ZERO
    del c[n:]
    if d < 0:
        d = -d
        c = [-x for x in c]
    g = math.gcd(d, *c)
    if g != 1:
        d //= g
        c = [x // g for x in c]
    return _zp(tuple(c), d)


def _xp(c, d):
    """The Poly c / d for a tuple c of Z[x] int tuples and a Z[x] int tuple
    d, already in stored form."""
    p = Poly.__new__(Poly)
    p._c, p._d = c, d
    if _INT_CAP is not None and any(
            n.bit_length() > _INT_CAP for x in (d,) + c for n in x):
        raise _over_cap()
    return p


def _xpoly(c, d, cand=None):
    """The Poly c / d for a list c of Z[x] sequences and a Z[x] sequence
    d != 0 (each without trailing zeros), normalised: no trailing zero,
    d coprime over Q[x] to the content of c, lc(d) > 0 and the integer
    content of c and d together 1.

    cand, when given, divides d and is a multiple of gcd(d, content of c),
    so that cancelling gcd(cand, content) suffices. Without it only the
    integer content is removed. Lists in c may be consumed.
    """
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    if not n:
        return _P_ZERO
    del c[n:]
    if cand is not None and len(cand) > 1:
        c, d = _xcancel(c, d, cand)
    if d[-1] < 0:
        d = [-v for v in d]
        c = [[-v for v in x] for x in c]
    g = math.gcd(*d)
    if g != 1:
        for x in c:
            g = math.gcd(g, *x)
            if g == 1:
                break
        else:
            d = [v // g for v in d]
            c = [[v // g for v in x] for x in c]
    if len(c) == len(c[0]) == len(d) == 1:  # a constant free of x
        return _zp((c[0][0],), d[0])
    return _xp(tuple([tuple(x) for x in c]), tuple(d))


def _xcancel(c, d, cand):
    """(c / g, d / g) for g = gcd(cand, content of c) over Q[x], taken
    primitive; cand has degree >= 1 and g divides d. The gcd chain runs
    from the lowest-degree coefficient up and stops at the first gcd of
    degree 0."""
    g = cand
    for x in sorted(filter(None, c), key=len):
        if len(x) == 1:
            return c, d
        g = _zpoly_gcd(g, x)
        if len(g) == 1:
            return c, d
    return [_zexquo(x, g) if x else [] for x in c], _zexquo(d, g)


def _xsum(a, d1, b, d2, subtract):
    """The Poly a / d1 + b / d2 (minus when subtract) for canonical inputs.

    Gcd-first (Henrici): over d1 * (d2 / g) with g = gcd(d1, d2), only
    gcd(g, content) can cancel; with d1 = d2 that is gcd(d1, content).
    """
    if d1 == d2:
        d = cand = d1
    else:
        if len(d1) > 1 and len(d2) > 1:
            g = _zpoly_gcd(d1, d2)
        elif len(d1) == 1 and len(d2) == 1:
            g = [math.gcd(d1[0], d2[0])]
        else:
            g = [1]
        cand = g
        if g != [1]:
            m1, m2 = _zexquo(d2, g), _zexquo(d1, g)
        else:
            m1, m2 = d2, d1
        a = [_zmul(x, m1) for x in a]
        b = [_zmul(y, m2) for y in b]
        d = _zmul(d1, m1)
    la, lb = len(a), len(b)
    out = []
    for i in range(max(la, lb)):
        x = a[i] if i < la else ()
        y = b[i] if i < lb else ()
        out.append(_zadd(x, y, subtract) if y else list(x))
    return _xpoly(out, d, cand)


def _xmul(a, d1, b, d2):
    """The Poly (a / d1) * (b / d2) for canonical inputs.

    The content of a is cancelled against d2 and that of b against d1
    (Henrici); what is left is coprime over Q[x] by Gauss's lemma, so only
    the integer content of the product remains to be removed.
    """
    if len(d2) > 1:
        a, d2 = _xcancel(a, d2, d2)
    if len(d1) > 1:
        b, d1 = _xcancel(b, d1, d1)
    if len(a) < len(b):
        a, b = b, a
    return _xpoly(_xconv(a, b), _zmul(d1, d2))


def _xconv(a, b):
    """The product of two nonzero Z[x][t] sequences (Z[x] sequences low
    first, [] or () for zero)."""
    if len(b) == 1:
        y = b[0]
        return [_zmul(x, y) for x in a]
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    _zmuladd(out[i + j], x, y)
    for x in out:
        while x and not x[-1]:
            x.pop()
    return out


def _xpdivmod(a, b):
    """Pseudo-division over Z[x] of Z[x] coefficient sequences (low first).

    Returns (q, r, s) with s * a = q * b + r, s over Z[x] and
    len(r) = len(b) - 1 (r may end in zeros). As _zpoly_pdivmod, but each
    step scales by m = lc(b) / gcd(lc(b), lead) over Z[x].
    """
    r = [list(x) for x in a]
    n = len(b) - 1
    lb = b[-1]
    q = [[] for _ in range(len(r) - n)]
    s = [1]
    for i in range(len(r) - 1, n - 1, -1):
        lead = r[i]
        if not lead:
            continue
        if len(lb) == 1:
            g = math.gcd(lb[0], *lead)
            m, c = [lb[0] // g], [v // g for v in lead]
        elif len(lead) == 1:
            m, c = lb, lead
        else:
            g = _zpoly_gcd(lead, lb)
            m, c = _zexquo(lb, g), _zexquo(lead, g)
        k = i - n
        if m != [1]:
            s = _zmul(s, m)
            for j in range(i):
                if r[j]:
                    r[j] = _zmul(r[j], m)
            for j in range(k + 1, len(q)):
                if q[j]:
                    q[j] = _zmul(q[j], m)
        for j in range(n):
            if b[j]:
                r[k + j] = _zadd(r[k + j], _zmul(c, b[j]), True)
        q[k] = list(c)
    return q, r[:n], s


_P_ZERO = Poly(())
_P_ONE = _zp((1,), 1)


def _coeff_depth(p):
    """The depth of p's coefficients: a constant's own, 0 for the zero Poly."""
    d = p._d
    if d is None:
        return p._c[0].depth
    return 0 if d.__class__ is int else 1


def _pair(a, b):
    """Nonzero a and b in one stored form. A constant whose coefficient is
    shallower than the other side's coefficients has it lifted by _up."""
    da, db = a._d, b._d
    if da.__class__ is db.__class__ and (
            da is not None or a._c[0].depth == b._c[0].depth):
        return a, b
    ca, cb = _coeff_depth(a), _coeff_depth(b)
    return (_up(a, cb), b) if ca < cb else (a, _up(b, ca))


def _up(p, depth):
    """The constant p with its coefficient lifted to depth by one wrapper,
    in the form that depth stores: a kernel operand, never a result."""
    if depth == 1:
        return _xp(((p._c[0],),), (p._d,))
    q = Poly.__new__(Poly)
    q.coeffs = q._c = (RatFunc(p, _P_ONE, depth, _trusted=True),)
    q._d = None
    return q


def _power(base, n):
    """base ** n for n >= 1 by square-and-multiply, in at most 2 log2(n)
    products rather than n - 1."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


class RatFunc:
    """Reduced rational function num/den over the depth-below coefficients."""

    __slots__ = ("num", "den", "depth")

    def __init__(self, num, den, depth, _trusted=False):
        if not _trusted:
            num, den = _reduce_pair(num, den)
        self.num = num
        self.den = den
        self.depth = depth

    @staticmethod
    def from_poly(p, depth):
        return RatFunc(p, _P_ONE, depth, _trusted=True)

    # -- inspection ------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    # -- field operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.depth != self.depth:
                raise TypeError("mixed-depth RatFunc arithmetic; lift explicitly")
            return other
        if isinstance(other, (int, Fraction)):
            return frac_at(Fraction(other), self.depth)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        d1, d2 = self.den, other.den
        if d1 == d2:
            return RatFunc(self.num + other.num, d1, self.depth)
        # gcd-first (Henrici; see the module docstring): canonical inputs
        # leave only gcd(num, g) to cancel, nothing when g = 1
        g = _P_ZERO if d1.is_one() or d2.is_one() else poly_gcd(d1, d2)
        if g.degree() <= 0:
            num = self.num * d2 + other.num * d1
            return RatFunc(num, d1 * d2, self.depth, _trusted=True)
        d1, d2 = d1.exact_div(g), d2.exact_div(g)
        num = self.num * d2 + other.num * d1
        g2 = poly_gcd(num, g)
        if g2.degree() > 0:
            num, g = num.exact_div(g2), g.exact_div(g2)
        return RatFunc(num, d1 * d2 * g, self.depth, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc(-self.num, self.den, self.depth, _trusted=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return zero_at(self.depth)
        # cross-cancelled canonical factors give a canonical product (see the
        # module docstring), so no final gcd
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return RatFunc(n1 * n2, d1 * d2, self.depth, _trusted=True)

    __rmul__ = __mul__

    def inv(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        lc, den = self.num.monic()
        return RatFunc(self.den.scale(_inv_val(lc)), den, self.depth,
                       _trusted=True)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, n):
        if n == 0:
            return one_at(self.depth)
        return _power(self if n > 0 else self.inv(), abs(n))

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = frac_at(Fraction(other), self.depth)
        return (isinstance(other, RatFunc) and self.depth == other.depth
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r}, depth={self.depth})"


# ---------------------------------------------------------------------------
# value helpers (Fraction at depth 0, RatFunc above)
# ---------------------------------------------------------------------------


def _is_zero_val(v):
    if isinstance(v, Fraction):
        return not v
    return v.num.is_zero()


def _is_one_val(v):
    if isinstance(v, Fraction):
        return v == 1
    return v.is_one()


def _inv_val(v):
    if isinstance(v, Fraction):
        return 1 / v
    return v.inv()


def vdepth(v):
    # a class test, not isinstance: Fraction's ABC check is slow on a RatFunc
    return 0 if v.__class__ is Fraction else v.depth


def zero_at(depth):
    return RatFunc(_P_ZERO, _P_ONE, depth, _trusted=True) if depth else F0


def one_at(depth):
    return RatFunc(_P_ONE, _P_ONE, depth, _trusted=True) if depth else F1


def frac_at(fr, depth):
    """Embed a Fraction as a value of the given depth."""
    if _INT_CAP is not None:
        _guard(fr.numerator, fr.denominator)
    return lift(fr, depth)


def frac_pow(q, n):
    """q ** n for a Fraction q, checked against the cap like frac_at. A
    power the cap would refuse is refused before it is built: for |m| >= 2,
    |m|^|n| has at least |n| (bitlen(m) - 1) + 1 bits."""
    if _INT_CAP is not None:
        for m in (q.numerator, q.denominator):
            b = abs(m).bit_length()
            if b > 1 and abs(n) * (b - 1) + 1 > _INT_CAP:
                raise _over_cap()
    return frac_at(q ** n, 0)


def lift(v, depth):
    """Embed a value into a greater or equal depth: one wrapper,
    RatFunc(Poly((v,)), 1), whatever the distance, as Poly((v,)) stores v at
    its own depth."""
    d = vdepth(v)
    if d > depth:
        raise ValueError("cannot lift downward")
    return v if d == depth else RatFunc(Poly((v,)), _P_ONE, depth,
                                        _trusted=True)


def drop(v):
    """v one depth lower, when it does not involve its top variable.

    Returns None when the value genuinely uses the top variable.
    """
    if isinstance(v, Fraction) or not v.den.is_one() or v.num.degree() > 0:
        return None
    return lift(lower(v), v.depth - 1)


def lower(v, depth=None):
    """v at its own depth, that of the highest variable it uses: the
    coefficient of a wrapper, which is stored at its own depth.

    With a depth, the value at exactly that depth (lifted back up when it
    goes lower), or None when v uses a variable above that depth.
    """
    if v.__class__ is not Fraction and v.den.is_one() and v.num.degree() < 1:
        v = v.num.coeff(0, 0)
    if depth is None:
        return v
    return lift(v, depth) if vdepth(v) <= depth else None


def value_sort_key(v, depth=None):
    """A total order on values, used only to pin choices. A nonzero v below
    depth (default its own), the coefficient of a constant, is keyed as its
    lift there level by level, as if every level of a constant were stored:
    so no order depends on how deep a constant sits."""
    if isinstance(v, Fraction):
        key = (0, v)
    else:
        key = (1, v.num.degree(), v.den.degree(),
               tuple(value_sort_key(c, v.depth - 1) for c in v.num.coeffs),
               tuple(value_sort_key(c, v.depth - 1) for c in v.den.coeffs))
    for d in range(vdepth(v), depth or 0):
        key = (1, 0, 0, (key,), (_one_key(d),))
    return key


@functools.lru_cache(maxsize=None)
def _one_key(depth):
    """value_sort_key of 1 at depth."""
    if not depth:
        return (0, F1)
    key = _one_key(depth - 1)
    return (1, 0, 0, (key,), (key,))


def poly_sort_key(p):
    """Graded order on polynomials: degree first, then coefficient sequence."""
    return (p.degree(), tuple(value_sort_key(c) for c in p.coeffs))


# ---------------------------------------------------------------------------
# normalization and gcd
# ---------------------------------------------------------------------------


def _reduce_pair(num, den):
    """Reduce num/den to canonical form: coprime, den monic."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return _P_ZERO, _P_ONE
    if not den.is_one():
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lc = den.lc()
        if not _is_one_val(lc):
            inv = _inv_val(lc)
            num = num.scale(inv)
            den = den.scale(inv)
    return num, den


def _cancel(num, den):
    """Divide out gcd(num, den); no monic adjustment."""
    if den.is_one() or num.is_zero():
        return num, den
    g = poly_gcd(num, den)
    if g.degree() > 0:
        return num.exact_div(g), den.exact_div(g)
    return num, den


def poly_gcd(a, b):
    """Monic gcd over the coefficient field.

    A nonzero constant operand gives the constant 1 at once. Fraction
    coefficients take _qpoly_gcd. Depth-1 coefficients first take one
    integer image at a fixed point y = xi, whose gcd bounds the degree of
    the true one from above: degree 0 answers 1, and the degree of the
    smaller operand, when that operand divides the other, answers it made
    monic. Otherwise, and at every depth c >= 2, the gcd is one dmp_gcd
    over ZZ[y_1..y_c, t], made monic over the field below (Gauss's lemma;
    see the module docstring). The image integers are intermediates, which
    the integer cap does not check.
    """
    if a.is_zero():
        return b.monic()[1] if not b.is_zero() else b
    if b.is_zero():
        return a.monic()[1]
    if a.degree() == 0 or b.degree() == 0:
        return _P_ONE
    c = _coeff_depth(a)
    if c == 0:
        return _qpoly_gcd(a, b)
    if c == 1:
        g = _xgcd_by_image(a, b)
        if g is not None:
            return g
    g = dmp_gcd(_zz_poly(a, c)[0], _zz_poly(b, c)[0], c, ZZ)
    if len(g) == 1:
        return _P_ONE
    return _monic_from_zz(g, c)


# Evaluation points y = xi for _xgcd_by_image, tried in order; fixed, so
# that every run takes the same path (see the module docstring).
_IMAGE_POINTS = (11, 13, 17, 19, 23)


def _xgcd_by_image(a, b):
    """The monic gcd of a and b, of degree >= 1 with depth-1 coefficients,
    when one integer image decides it; None otherwise.

    With deg a >= deg b, both numerators are evaluated at the first point
    y = xi where neither leading coefficient in t vanishes. A gcd h of the
    images of degree 0 proves a and b coprime; one of degree deg b together
    with a zero pseudo-remainder of a by b proves b the gcd (see the module
    docstring). Any other image decides nothing.
    """
    if a.degree() < b.degree():
        a, b = b, a
    na, nb = a._c, b._c
    for xi in _IMAGE_POINTS:
        if _zeval(na[-1], xi) and _zeval(nb[-1], xi):
            break
    else:
        return None
    h = _zpoly_gcd([_zeval(x, xi) for x in na], [_zeval(x, xi) for x in nb])
    if len(h) == 1:
        return _P_ONE
    if len(h) == len(nb) and not any(_xpdivmod(na, nb)[1]):
        return b.monic()[1]
    return None


def _zeval(x, xi):
    """The integer x(xi) of a Z[x] sequence x, by Horner."""
    v = 0
    for c in reversed(x):
        v = v * xi + c
    return v


def _cofactor_euclid(a, b):
    """(g, s) with g the monic gcd of a and b (zero if both are) and
    s * a = g modulo b, by Euclid's loop on (b, a) tracking the cofactor of
    a only. A remainder of degree 0 ends it: a constant a is one inversion."""
    r0, r1 = b, a
    s0, s1 = _P_ZERO, _P_ONE
    while r1.degree() > 0:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r1.is_zero():
        r1, s1 = r0, s0
        if r1.is_zero():
            return r1, s1
    lc, g = r1.monic()
    return g, s1.scale(_inv_val(lc))


def poly_xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic (or
    zero); s from _cofactor_euclid, t = (g - s*a) / b by exact division."""
    g, s = _cofactor_euclid(a, b)
    return g, s, (g - s * a).exact_div(b) if b._c else _P_ZERO


def _qpoly_gcd(a, b):
    """Monic gcd of Fraction-coefficient polynomials of degree >= 1, by the
    integer primitive PRS on their numerators. The primitive gcd over its
    leading coefficient is already in stored form."""
    g = _zpoly_gcd(a._c, b._c)
    return _zp(tuple(g), g[-1])


def _zz_poly(p, c):
    """(P, D) over ZZ with p = P / D, for p with coefficients of depth c.

    P is a sympy dense polynomial in the c + 1 variables y_1..y_c, t (top
    variable outermost), D one in y_1..y_c (an int when c = 0).
    """
    n = _coeff_depth(p)
    if n < c:
        # a constant: its coefficient cleared at its own depth, then nested
        # as a constant in y_(n+1)..y_c
        (num,), den = _zz_poly(p, n)
        for _ in range(c - n):
            num, den = [num], [den]
        return [num], den
    if c == 0:
        return [ZZ(x) for x in reversed(p._c)], ZZ(p._d)
    if c == 1:
        return ([[ZZ(v) for v in reversed(x)] for x in reversed(p._c)],
                [ZZ(v) for v in reversed(p._d)])
    pairs = [_zz_value(x, c) for x in reversed(p._c)]
    u = c - 1
    den = pairs[0][1]
    for _n, d in pairs[1:]:
        if d != den:
            den = dmp_lcm(den, d, u, ZZ)
    return [n if d == den else dmp_mul(n, dmp_exquo(den, d, u, ZZ), u, ZZ)
            for n, d in pairs], den


def _zz_value(v, depth):
    """(N, D) over ZZ in y_1..y_depth with v = N / D."""
    u = depth - 1
    if v.num.is_zero():
        return dmp_zero(u), dmp_one(u, ZZ)
    # v = (pn / dn) / (pd / dd); dn and dd do not involve y_depth
    pn, dn = _zz_poly(v.num, u)
    if v.den.is_one():
        return pn, [dn]
    pd, dd = _zz_poly(v.den, u)
    return dmp_mul(pn, [dd], u, ZZ), dmp_mul(pd, [dn], u, ZZ)


def _monic_from_zz(f, c):
    """The monic Poly over the field below for f != 0 over ZZ[y_1..y_c, t].

    f is in the form _zz_poly returns (t outermost). Dividing by the leading
    coefficient in t removes every factor free of t, a unit of the field
    below; an f free of t comes back as the constant 1.
    """
    return _poly_from_zz(f, f[0], c)


def _poly_from_zz(f, lead, c):
    """The Poly f / lead, for f over ZZ[y_1..y_c, t] (t outermost) and
    lead != 0 over ZZ[y_1..y_c]."""
    if c == 0:
        return _zpoly([int(x) for x in reversed(f)], int(lead))
    if c == 1:
        d = [int(v) for v in reversed(lead)]
        return _xpoly([[int(v) for v in reversed(x)] for x in reversed(f)],
                      d, d)
    return Poly(tuple(_from_zz(x, lead, c) for x in reversed(f)))


def _from_zz(n, d, depth):
    """The canonical value n / d, for n, d over ZZ in y_1..y_depth (d != 0,
    depth >= 1).

    n and d are cancelled over ZZ, hence coprime over the field below
    (Gauss's lemma); dividing both by the leading coefficient of d makes the
    denominator monic, and the coefficients are rebuilt the same way.
    """
    u = depth - 1
    if dmp_zero_p(n, u):
        return zero_at(depth)
    n, d = dmp_cancel(n, d, u, ZZ)
    lead = d[0]
    return RatFunc(_poly_from_zz(n, lead, u), _poly_from_zz(d, lead, u),
                   depth, _trusted=True)


def _to_zpoly(coeffs):
    """(integer coefficients, den) with coeffs = integers / den."""
    dens = [c.denominator for c in coeffs]
    den = math.lcm(*dens)
    return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den


def _zpoly_content(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g or 1


def _zpoly_primitive(a):
    g = _zpoly_content(a)
    if g != 1:
        a = [c // g for c in a]
    if a[-1] < 0:
        a = [-c for c in a]
    return a


def _zpoly_pdivmod(a, b):
    """Pseudo-division of integer coefficient lists (dense, low first).

    Returns (q, r, s) with s * a = q * b + r and len(r) = len(b) - 1 (r may
    end in zeros). Each step scales the running remainder and the quotient
    found so far by m = lc(b) / gcd(lc(b), lead), so that the leading term
    cancels over ZZ; s is the product of those scales. a is not changed.
    """
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    q = [0] * max(len(r) - n, 0)
    s = 1
    for i in range(len(r) - 1, n - 1, -1):
        lead = r[i]
        if not lead:
            continue
        g = math.gcd(lead, lb)
        m, c = lb // g, lead // g
        k = i - n
        if m != 1:
            s *= m
            for j in range(i):
                r[j] *= m
            for j in range(k + 1, len(q)):
                q[j] *= m
        for j in range(n):
            r[k + j] -= c * b[j]
        q[k] = c
    return q, r[:n], s


def _zpoly_gcd(a, b):
    """Primitive gcd with a positive leading coefficient of two nonzero
    integer coefficient sequences without trailing zeros, as a new list.

    The powers of x are taken out first: with a = x^i A and b = x^j B,
    x dividing neither A nor B, the gcd is x^min(i, j) gcd(A, B), and
    gcd(A, B) is 1 when A or B is a constant. Only the rest takes the
    primitive PRS.
    """
    i = 0
    while not a[i]:
        i += 1
    j = 0
    while not b[j]:
        j += 1
    out = [0] * min(i, j)
    a = a[i:]
    b = b[j:]
    if len(a) == 1 or len(b) == 1:
        out.append(1)
        return out
    if len(a) < len(b):
        a, b = b, a
    a = _zpoly_primitive(a)
    b = _zpoly_primitive(b)
    while True:
        r = _zpoly_pdivmod(a, b)[1]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            out += b
            return out
        if len(r) == 1:
            out.append(1)
            return out
        a, b = b, _zpoly_primitive(r)


def _zmul(a, b):
    """The product of two Z[x] sequences (low first; [] for zero).

    A power of x in an operand only shifts the product, so a monomial
    c x^k times b is b scaled by c behind k zeros.
    """
    if not a or not b:
        return []
    if len(a) == 1:
        c = a[0]
        return [c * y for y in b]
    if len(b) == 1:
        c = b[0]
        return [x * c for x in a]
    i = 0
    while not a[i]:
        i += 1
    j = 0
    while not b[j]:
        j += 1
    if j + 1 == len(b):
        a, i, b, j = b, j, a, i
    if i + 1 == len(a):
        c = a[i]
        out = [0] * (i + j)
        out += [c * y for y in b[j:]]
        return out
    out = []
    _zmuladd(out, a, b)
    return out


def _zmuladd(acc, a, b):
    """acc += a * b in place, for nonzero Z[x] sequences; acc may end in
    zeros afterwards."""
    need = len(a) + len(b) - 1
    if len(acc) < need:
        acc += [0] * (need - len(acc))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y


def _zadd(a, b, subtract=False):
    """a + b (a - b when subtract) of Z[x] sequences, without trailing
    zeros."""
    out = list(a)
    if len(out) < len(b):
        out += [0] * (len(b) - len(out))
    if subtract:
        for i, y in enumerate(b):
            out[i] -= y
    else:
        for i, y in enumerate(b):
            out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def _zexquo(a, b):
    """a / b for Z[x] sequences where b divides a with a quotient over Z
    (b primitive, or a constant dividing every coefficient).

    When b = x^j B, a is x^j times a multiple of B, so both lose their j
    leading zeros first."""
    j = 0
    while not b[j]:
        j += 1
    if j:
        a = a[j:]
        b = b[j:]
    if len(b) == 1:
        c = b[0]
        return [x // c for x in a]
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    q = [0] * (len(r) - n)
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i]
        if c:
            c //= lb
            q[i - n] = c
            for j in range(n):
                r[i - n + j] -= c * b[j]
    return q


def _zsqrt(a):
    """The Z[x] sequence s with s * s = a and lc(s) > 0, for a Z[x]
    sequence a without trailing zeros ([] when a is zero); None when a is
    no such square.

    The coefficients of s are read off a from the top down: s_m is the
    integer square root of lc(a) (deg a = 2m), and each s_i below it is
    what s_(i+1)..s_(m-1) leave of the coefficient of x^(m+i), divided by
    2 s_m. Each division must be exact, and squaring s confirms the lower
    half of a, which the recurrence does not read.
    """
    if not a:
        return []
    n = len(a) - 1
    if n % 2 or a[-1] < 0:
        return None
    m = n // 2
    top = math.isqrt(a[-1])
    if top * top != a[-1]:
        return None
    s = [0] * m + [top]
    for i in range(m - 1, -1, -1):
        rest = a[m + i] - sum(s[j] * s[m + i - j] for j in range(i + 1, m))
        s[i], r = divmod(rest, 2 * top)
        if r:
            return None
    return s if _zmul(s, s) == list(a) else None


def _ztaylor(a, u, q, m):
    """The integers of q^m * a(x + u / q), for a nonzero Z[x] sequence a
    with deg a <= m.

    With h(y) = sum a_j q^(m - j) y^j this is h(q x + u): a Taylor shift of
    h by the integer u (repeated synthetic division), then x scaled by q.
    """
    n = len(a) - 1
    c = list(a) if q == 1 else [v * q ** (m - j) for j, v in enumerate(a)]
    if u:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                c[j] += u * c[j + 1]
    if q != 1:
        c = [v * q ** j for j, v in enumerate(c)]
    return c


def _xpair(v):
    """(U, V) over Z[x] with the nonzero depth-1 value v = U / V, coprime
    over Q[x]."""
    num, den = v.num, v.den
    if len(den._c) == 1:
        return num._c, (num._d,)
    return (tuple([x * den._d for x in num._c]),
            tuple([y * num._d for y in den._c]))


def _xval(n, d):
    """The canonical depth-1 value n / d for Z[x] sequences n and d != 0."""
    if not n:
        return zero_at(1)
    if len(d) > 1 and len(n) > 1:
        g = _zpoly_gcd(n, d)
        if len(g) > 1:
            n, d = _zexquo(n, g), _zexquo(d, g)
    lead = d[-1]
    den = _P_ONE if len(d) == 1 else _zpoly(list(d), lead)
    return RatFunc(_zpoly(list(n), lead), den, 1, _trusted=True)


def _to_xpoly(coeffs):
    """The Poly with the given depth-1 coefficients, as a sum of terms."""
    out = _P_ZERO
    for j, v in enumerate(coeffs):
        if v.num._c:
            u, w = _xpair(v)
            out = out + _xpoly([()] * j + [list(u)], w)
    return out


def taylor_shift(p, s, inner=None):
    """p(t + s), for p with coefficients of depth 0 or 1 and s a value of
    that depth, on the stored integers.

    With inner, a Fraction, the variable x of depth-1 coefficients goes to
    x + inner as well. Over p = N / D that is
    sum N_j(x + inner) (B t + A)^j B^(n - j) / (D(x + inner) B^n) with
    s = A / B, taken by Horner in t. A factor of the result's numerator
    content and denominator divides B (away from B the substitution is
    invertible) and the top numerator N_n (modulo such a factor the sum
    is N_n A^n), so when gcd(N_n, B) = 1 nothing cancels over Q[x].
    """
    a, d = p._c, p._d
    if d.__class__ is int:
        u, q = s.numerator, s.denominator
        n = len(a) - 1
        return _zpoly(_ztaylor(a, u, q, n), d * q ** n)
    if inner:
        u, q = inner.numerator, inner.denominator
        m = max(len(x) for x in a + (d,)) - 1
        a = [_ztaylor(x, u, q, m) if x else [] for x in a]
        d = _ztaylor(d, u, q, m)
    n = len(a) - 1
    if _is_zero_val(s):
        return _xpoly([list(x) for x in a], d)
    sa, sb = _xpair(s)
    out = [list(a[n])]
    bpow = [1]
    for j in range(n - 1, -1, -1):
        # out * (B t + A) + N_j B^(n - j)
        bpow = _zmul(bpow, sb)
        out = _xconv(out, (sa, sb))
        if a[j]:
            out[0] = _zadd(out[0], _zmul(a[j], bpow))
    d = _zmul(d, bpow)
    top = a[n]
    if len(sb) > 1 and len(top) > 1 and len(_zpoly_gcd(top, sb)) > 1:
        return _xpoly(out, d, d)
    return _xpoly(out, d)


# ---------------------------------------------------------------------------
# partial-fraction building blocks
# ---------------------------------------------------------------------------


def coprime_split(num, moduli):
    """Split a proper fraction over pairwise-coprime moduli.

    num / (m_0 * m_1 * ... * m_{s-1}) = sum A_k / m_k with deg A_k < deg m_k.
    Requires deg num < sum deg m_k. Returns the list [A_0, ..., A_{s-1}].
    A_k is (rest mod m_k) * s mod m_k for s the inverse modulo m_k of the
    later moduli's product, formed once for all k from the right;
    ValueError if two moduli share a factor.
    """
    mods = list(moduli)
    if sum(q.degree() for q in mods) <= num.degree():
        raise ValueError("input fraction was not proper")
    later = mods[-1:]
    for q in mods[-2:0:-1]:
        later.append(q * later[-1])
    out = []
    rest = num
    for q, r in zip(mods[:-1], reversed(later)):
        g, s = _cofactor_euclid(r % q, q)
        if g.degree() != 0:
            raise ValueError("moduli are not pairwise coprime")
        # s*r = 1 mod q, so the q-part of rest/(q*r) is (rest*s mod q)/q
        a = (rest % q * s) % q
        out.append(a)
        rest = (rest - a * r).exact_div(q)
    out.append(rest)
    return out


def coprime_sum(terms, depth):
    """Sum terms with pairwise coprime denominators as n1 * d2 + n2 * d1 over
    d1 * d2: canonical with no gcd, as no factor of d_i divides n_i or d_j."""
    terms = [v for v in terms if not v.num.is_zero()] or [zero_at(depth)]
    num, den = terms[0].num, terms[0].den
    for v in terms[1:]:
        num, den = num * v.den + v.num * den, den * v.den
    return RatFunc(num, den, depth, _trusted=True)


def modular_residue(num, cofactor, modulus):
    """(num * cofactor^{-1}) mod modulus, for cofactor coprime to modulus."""
    g, s = _cofactor_euclid(cofactor % modulus, modulus)
    if g.degree() != 0:
        raise ValueError("cofactor shares a factor with the modulus")
    return (num * s) % modulus


def padic_expand(a, q):
    """q-adic digits of a polynomial: a = sum digits[j] * q^j, deg digits[j] < deg q."""
    digits = []
    while not a.is_zero():
        quo, rem = a.divmod(q)
        digits.append(rem)
        a = quo
    return digits
