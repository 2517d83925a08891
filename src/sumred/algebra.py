"""Exact dense polynomial and rational-function arithmetic.

Values live in a chain of univariate rational-function fields built over Q:
a value of depth 0 is a Fraction, a value of depth d >= 1 is a RatFunc whose
numerator and denominator are Poly objects with coefficients of depth d - 1.
One Poly never mixes coefficient depths.

Every RatFunc is kept in reduced canonical form: gcd(num, den) = 1 and den
monic, recursively at every depth. Rational content therefore migrates into
the top-level numerator, which makes equal values structurally equal; tests
compare results by == on purpose.

Polynomials are dense tuples, lowest degree first, with no trailing zero.
The zero polynomial is the empty tuple; degree() reports -1 for it (standing
in for degree minus infinity).

At the bottom level (Fraction coefficients) the work runs over ZZ. A product
or a division of two polynomials of at least two terms each clears both once
(_to_zpoly), multiplies or pseudo-divides plain ints (_zpoly_pdivmod scales
the running remainder by lc / gcd rather than inverting the leading
coefficient) and builds each output coefficient once as a Fraction. The gcd
is an integer primitive PRS (_qpoly_gcd) on the same pseudo-division
kernel. Scalar products and divisions, and every operation on RatFunc
coefficients, stay coefficient by coefficient.

RatFunc addition is gcd-first (Henrici): with g = gcd(d1, d2) it forms
n1 * (d2/g) + n2 * (d1/g) over d1 * (d2/g), and only gcd(num, g) can cancel,
nothing at all when g = 1, so the full product d1 * d2 is never reduced.

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
integer primitive PRS (_qpoly_gcd). RatFunc coefficients of depth c >= 1 are
cleared of denominators into ZZ[y_1..y_c, t] and take one gcd over ZZ
(sympy's dmp_gcd: heuristic gcd, PRS fallback); Euclid over Q(y_1)..(y_c)[t]
would swell its coefficients. By Gauss's lemma the ZZ gcd differs from the
field gcd by a unit of the field below, so dividing by its leading
coefficient gives the monic gcd, and each coefficient is rebuilt in
canonical form from a numerator/denominator pair cancelled over ZZ.

The ZZ images are built by _zz_poly and turned back into monic polynomials
over the field below by _monic_from_zz. sigmafactor factors denominators
through the same pair: it hands the image to sympy's dmp_factor_list and
rebuilds each factor, so it never reads the image format itself.

The optional integer cap (SUMRED_MAX_INT_BITS) is checked on the Fraction
coefficients of every Poly built, so it covers returned values; the integers
inside the bottom-level kernels and the gcd computations (the cleared
operands, the pseudo-remainders, _qpoly_gcd and the ZZ images) are not
checked.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from sympy.polys.densearith import dmp_exquo, dmp_mul
from sympy.polys.densebasic import dmp_one, dmp_zero, dmp_zero_p
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_cancel, dmp_gcd, dmp_lcm

from .errors import IntegerLimitError

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


def load_int_cap_from_env(env="SUMRED_MAX_INT_BITS"):
    raw = os.environ.get(env)
    set_int_cap(int(raw) if raw else None)


load_int_cap_from_env()


def _guard(fr):
    if _INT_CAP is not None:
        if fr.numerator.bit_length() > _INT_CAP or fr.denominator.bit_length() > _INT_CAP:
            raise IntegerLimitError(
                f"integer exceeds configured cap of {_INT_CAP} bits")
    return fr


class Poly:
    """Dense univariate polynomial; see the module docstring for conventions."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and _is_zero_val(coeffs[n - 1]):
            n -= 1
        coeffs = coeffs[:n]
        if _INT_CAP is not None and coeffs and isinstance(coeffs[0], Fraction):
            for c in coeffs:
                _guard(c)
        self.coeffs = coeffs

    # -- inspection ------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i, depth_below=None):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        if depth_below is None:
            if not self.coeffs:
                raise ValueError("coefficient depth unknown for zero Poly")
            return _zero_like(self.coeffs[0])
        return zero_at(depth_below)

    def is_one(self):
        return len(self.coeffs) == 1 and _is_one_val(self.coeffs[0])

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a:
            return other
        if not b:
            return self
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return -other
        out = list(a) + [_zero_like(a[0])] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = out[i] - c
        return Poly(out)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        if len(a) == 1:
            c = a[0]
            return Poly(tuple(c * x for x in b))
        if len(b) == 1:
            c = b[0]
            return Poly(tuple(x * c for x in a))
        if isinstance(a[0], Fraction):
            (ia, da), (ib, db) = _to_zpoly(a), _to_zpoly(b)
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(ia):
                if x:
                    for j, y in enumerate(ib):
                        out[i + j] += x * y
            d = da * db
            return Poly(tuple(Fraction(n, d) for n in out))
        zero = _zero_like(a[0])
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if _is_zero_val(ca):
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    def scale(self, c):
        """Multiply by a scalar of the coefficient depth."""
        if _is_zero_val(c):
            return _P_ZERO
        if _is_one_val(c):
            return self
        return Poly(tuple(x * c for x in self.coeffs))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Poly")
        if n == 0:
            if not self.coeffs:
                raise ValueError("0**0 of unknown depth")
            return Poly((_one_like(self.coeffs[0]),))
        return _power(self, n)

    # -- euclidean structure ----------------------------------------------

    def divmod(self, other):
        """Exact-field long division: self = q*other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(a) - 1 < db:
            return _P_ZERO, self
        if db > 0 and isinstance(b[0], Fraction):
            return _qpoly_divmod(a, b)
        inv_lc = _inv_val(b[-1])
        q = [_zero_like(b[-1])] * (len(a) - db)
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
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("polynomial division was not exact")
        return q

    def monic(self):
        """Return (leading coefficient, self made monic)."""
        c = self.lc()
        if _is_one_val(c):
            return c, self
        return c, self.scale(_inv_val(c))

    def eval(self, point):
        """Horner evaluation at a value of the coefficient depth."""
        if not self.coeffs:
            return _zero_like(point)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * point + c
        return acc

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


_P_ZERO = Poly(())


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
        return RatFunc(p, _one_poly(depth - 1), depth, _trusted=True)

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


def _zero_like(v):
    if isinstance(v, Fraction):
        return F0
    return zero_at(v.depth)


def _one_like(v):
    if isinstance(v, Fraction):
        return F1
    return one_at(v.depth)


def _inv_val(v):
    if isinstance(v, Fraction):
        return 1 / v
    return v.inv()


def vdepth(v):
    return 0 if isinstance(v, Fraction) else v.depth


_ZERO_CACHE = {}
_ONE_CACHE = {}


def zero_at(depth):
    if depth == 0:
        return F0
    v = _ZERO_CACHE.get(depth)
    if v is None:
        v = RatFunc(_P_ZERO, _one_poly(depth - 1), depth, _trusted=True)
        _ZERO_CACHE[depth] = v
    return v


def one_at(depth):
    if depth == 0:
        return F1
    v = _ONE_CACHE.get(depth)
    if v is None:
        v = RatFunc(_one_poly(depth - 1), _one_poly(depth - 1), depth, _trusted=True)
        _ONE_CACHE[depth] = v
    return v


def _one_poly(coeff_depth):
    return Poly((one_at(coeff_depth),))


def frac_at(fr, depth):
    """Embed a Fraction as a value of the given depth."""
    _guard(fr)
    v = fr
    for d in range(1, depth + 1):
        v = RatFunc(Poly((v,)), _one_poly(d - 1), d, _trusted=True)
    return v


def lift(v, depth):
    """Embed a value into a greater or equal depth."""
    d = vdepth(v)
    if d > depth:
        raise ValueError("cannot lift downward")
    for dd in range(d + 1, depth + 1):
        v = RatFunc(Poly((v,)), _one_poly(dd - 1), dd, _trusted=True)
    return v


def drop(v):
    """Strip one depth from a value that does not involve its top variable.

    Returns None when the value genuinely uses the top variable.
    """
    if isinstance(v, Fraction):
        return None
    if not v.den.is_one() or v.num.degree() > 0:
        return None
    if v.num.is_zero():
        return zero_at(v.depth - 1)
    return v.num.coeffs[0]


def lower(v, depth=None):
    """v with every trivial top level stripped off, as low as it goes.

    With a depth, the value at exactly that depth (lifted back up when it
    goes lower), or None when v uses a variable above that depth.
    """
    while True:
        below = drop(v)
        if below is None:
            break
        v = below
    if depth is None:
        return v
    return lift(v, depth) if vdepth(v) <= depth else None


def value_sort_key(v):
    """A total order on same-depth values, used only to pin choices."""
    if isinstance(v, Fraction):
        return (0, v)
    return (1, v.num.degree(), v.den.degree(),
            tuple(value_sort_key(c) for c in v.num.coeffs),
            tuple(value_sort_key(c) for c in v.den.coeffs))


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
        return _P_ZERO, Poly((_one_like(den.lc()),))
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
    coefficients take _qpoly_gcd; RatFunc coefficients of depth
    c >= 1 take one gcd over ZZ[y_1..y_c, t], made monic over the field
    below (Gauss's lemma; see the module docstring).
    """
    if a.is_zero():
        return b.monic()[1] if not b.is_zero() else b
    if b.is_zero():
        return a.monic()[1]
    c = vdepth(a.coeffs[0])
    if a.degree() == 0 or b.degree() == 0:
        return _one_poly(c)
    if c == 0:
        return _qpoly_gcd(a, b)
    g = dmp_gcd(_zz_poly(a, c)[0], _zz_poly(b, c)[0], c, ZZ)
    if len(g) == 1:
        return _one_poly(c)
    return _monic_from_zz(g, c)


def poly_xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    zero_c = _zero_like(a.coeffs[0]) if a.coeffs else (
        _zero_like(b.coeffs[0]) if b.coeffs else F0)
    one_c = _one_like(zero_c)
    r0, r1 = a, b
    s0, s1 = Poly((one_c,)), _P_ZERO
    t0, t1 = _P_ZERO, Poly((one_c,))
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lc, g = r0.monic()
    if _is_one_val(lc):
        return g, s0, t0
    inv = _inv_val(lc)
    return g, s0.scale(inv), t0.scale(inv)


def _qpoly_gcd(a, b):
    """gcd for Fraction-coefficient polynomials via integer subresultant PRS."""
    g = _zpoly_gcd(_to_zpoly(a.coeffs)[0], _to_zpoly(b.coeffs)[0])
    # make monic over Q
    lead = g[-1]
    return Poly(tuple(Fraction(c, lead) for c in g))


def _qpoly_divmod(a, b):
    """Poly.divmod of Fraction coefficient tuples by pseudo-division over ZZ.

    With a = A / da and b = B / db cleared, s * A = Q * B + R gives the
    quotient Q * db / (s * da) and the remainder R / (s * da) over Q.
    """
    ia, da = _to_zpoly(a)
    ib, db = _to_zpoly(b)
    q, r, s = _zpoly_pdivmod(ia, ib)
    sd = s * da
    return (Poly(tuple(Fraction(c * db, sd) for c in q)),
            Poly(tuple(Fraction(c, sd) for c in r)))


def _zz_poly(p, c):
    """(P, D) over ZZ with p = P / D, for p with coefficients of depth c.

    P is a sympy dense polynomial in the c + 1 variables y_1..y_c, t (top
    variable outermost), D one in y_1..y_c (an int when c = 0).
    """
    if c == 0:
        ints, den = _to_zpoly(p.coeffs)
        return [ZZ(x) for x in reversed(ints)], ZZ(den)
    pairs = [_zz_value(x, c) for x in reversed(p.coeffs)]
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
    lead = f[0]
    return Poly(tuple(_from_zz(x, lead, c) for x in reversed(f)))


def _from_zz(n, d, depth):
    """The canonical value n / d, for n, d over ZZ in y_1..y_depth (d != 0).

    n and d are cancelled over ZZ, hence coprime over the field below
    (Gauss's lemma); dividing both by the leading coefficient of d makes the
    denominator monic, and the coefficients are rebuilt the same way.
    """
    if depth == 0:
        return Fraction(int(n), int(d))
    u = depth - 1
    if dmp_zero_p(n, u):
        return zero_at(depth)
    n, d = dmp_cancel(n, d, u, ZZ)
    lead = d[0]
    return RatFunc(Poly(tuple(_from_zz(x, lead, u) for x in reversed(n))),
                   Poly(tuple(_from_zz(x, lead, u) for x in reversed(d))),
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
    a = [c for c in a]
    b = [c for c in b]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    if not a:
        return _zpoly_primitive(b) if b else [0]
    if not b:
        return _zpoly_primitive(a)
    if len(a) < len(b):
        a, b = b, a
    a = _zpoly_primitive(a)
    b = _zpoly_primitive(b)
    while True:
        r = _zpoly_pdivmod(a, b)[1]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return b
        if len(r) == 1:
            return [1]
        a, b = b, _zpoly_primitive(r)


# ---------------------------------------------------------------------------
# partial-fraction building blocks
# ---------------------------------------------------------------------------


def coprime_split(num, moduli):
    """Split a proper fraction over pairwise-coprime moduli.

    num / (m_0 * m_1 * ... * m_{s-1}) = sum A_k / m_k with deg A_k < deg m_k.
    Requires deg num < sum deg m_k. Returns the list [A_0, ..., A_{s-1}].
    """
    mods = list(moduli)
    if sum(q.degree() for q in mods) <= num.degree():
        raise ValueError("input fraction was not proper")
    out = []
    rest = num
    for idx in range(len(mods) - 1):
        q = mods[idx]
        r = mods[idx + 1]
        for extra in mods[idx + 2:]:
            r = r * extra
        g, s, _t = poly_xgcd(r, q)
        if not (g.degree() == 0 and not g.is_zero()):
            raise ValueError("moduli are not pairwise coprime")
        # s*r = 1 mod q, so the q-part of rest/(q*r) is (rest*s mod q)/q
        a = (rest * s) % q
        out.append(a)
        rest = (rest - a * r).exact_div(q)
    out.append(rest)
    return out


def modular_residue(num, cofactor, modulus):
    """(num * cofactor^{-1}) mod modulus, for cofactor coprime to modulus."""
    if cofactor.is_one():
        return num % modulus
    red = cofactor % modulus if cofactor.degree() >= modulus.degree() else cofactor
    g, s, _t = poly_xgcd(red, modulus)
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
