"""Exact sequence semantics for tower elements.

A tower element becomes a rational sequence once every generator gets an
initial value and every parameter a rational value.  Generators advance
by t(k+1) = t(k) + a(k) where a is the increment evaluated at index k.
Evaluation poles mark single points; a pole inside an increment poisons
that generator from the next index on, since its later values are no
longer defined.

A value is evaluated by a function compiled from it once (_compile), which
walks the stored form a single time and is then called at every index. It
works on integer (numerator, denominator) pairs that are never reduced, so
no gcd is taken per step: a bottom-level polynomial is its integer
numerators over one denominator, a depth-2 one its Z[x] numerators over
one Z[x] denominator (all taken at the depth-1 variable x, padded to one
degree so that the powers of x's denominator cancel), and a deeper one
its compiled coefficients over the lcm of their denominators. Each runs a
Horner that is homogenised only when the point is not an integer; a
constant compiles to its coefficient. The coefficient view of a depth-2
polynomial (one gcd per coefficient) is built only once x is poisoned.

The pointwise check of a sigma-pair compiles f, g and r, walks one orbit
(whose generator increments are compiled with it) and reads f, g and r off
it at each index, g once more at the index after the last. It decides
f(k) - g(k+1) + g(k) - r(k) = 0 on the unreduced pairs by
cross-multiplying, and builds one reduced Fraction only for an index where
it fails, the residual the report lists.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .algebra import Poly, RatFunc
from .telescope import nullspace_basis


class _PoleType:
    __slots__ = ()

    def __repr__(self):
        return "POLE"


POLE = _PoleType()


class _Pole(Exception):
    pass


class SequenceAssignment:
    """Start index plus initial generator values and parameter values.

    given holds the initial values passed in; inits adds the defaults for
    the rest, which depend on the parameter values.
    """

    def __init__(self, tower, start=0, inits=None, params=None):
        self.tower = tower
        self.start = int(start)
        given = dict(inits or {})
        pvals = dict(params or {})
        missing = [p for p in tower.params if p not in pvals]
        if missing:
            raise ValueError(f"missing parameter values: {missing}")
        extra = set(pvals) - set(tower.params)
        if extra:
            raise ValueError(f"unknown parameters: {sorted(extra)}")
        self.params = {p: Fraction(pvals[p]) for p in tower.params}
        self.given = {}
        self.inits = {}
        for gen in tower.gens:
            if gen.name in given:
                self.inits[gen.name] = self.given[gen.name] = Fraction(
                    given.pop(gen.name))
            else:
                self.inits[gen.name] = self._default_init(tower, gen)
        if given:
            raise ValueError(f"unknown generator names: {sorted(given)}")

    def _default_init(self, tower, gen):
        # a constant increment c pins t(k) = k*c; anything else starts at 0
        if tower.level(gen.delta) != 0:
            return Fraction(0)
        pdepths = {d: self.params[p] for d, p in enumerate(tower.params, 1)}
        try:
            c = _eval_at(gen.delta, pdepths)
        except _Pole:
            return Fraction(0)
        return Fraction(self.start) * c


class _Orbit:
    """Mutable model of all generator values at one index."""

    def __init__(self, tower, assign):
        self.k = assign.start
        self.vals = {}
        for d, p in enumerate(tower.params, start=1):
            self.vals[d] = assign.params[p]
        for i, gen in enumerate(tower.gens, start=1):
            self.vals[tower.nparams + i] = assign.inits[gen.name]
        self.incs = [(tower.nparams + i, _compile(gen.delta))
                     for i, gen in enumerate(tower.gens, start=1)]

    def step(self):
        vals = self.vals
        new = []
        for d, inc in self.incs:
            cur = vals[d]
            if cur is not None:
                try:
                    n, m = inc(vals)
                except _Pole:
                    cur = None
                else:
                    cur = Fraction(cur.numerator * m + n * cur.denominator,
                                   cur.denominator * m)
            new.append((d, cur))
        vals.update(new)
        self.k += 1

    def advance_to(self, k):
        while self.k < k:
            self.step()

    def value(self, ev):
        p = self.pair(ev)
        return p if p is POLE else Fraction(*p)

    def pair(self, ev):
        """(n, d) with ev's value = n / d here, unreduced, or POLE."""
        try:
            return ev(self.vals)
        except _Pole:
            return POLE


def _orbit_from(tower, assign, k_from, k_to):
    """The orbit of assign advanced to k_from, for a range k_from..k_to."""
    if k_from > k_to:
        raise ValueError("empty evaluation range")
    if k_from < assign.start:
        raise ValueError("range starts before the assignment start index")
    orbit = _Orbit(tower, assign)
    orbit.advance_to(k_from)
    return orbit


def eval_sequence(tower, f, assign, k_from, k_to):
    """Exact values of f at k_from..k_to along the orbit, poles marked."""
    return _walk(tower, _compile(f), assign, k_from, k_to)


def _walk(tower, ev, assign, k_from, k_to):
    orbit = _orbit_from(tower, assign, k_from, k_to)
    out = []
    for k in range(k_from, k_to + 1):
        out.append((k, orbit.value(ev)))
        if k < k_to:
            orbit.step()
    return out


VerifyPairReport = namedtuple(
    "VerifyPairReport", ["checked", "skipped", "failures"])


def verify_sigma_pair(tower, f, pair, assign, k_from, k_to):
    """Check f(k) = g(k+1) - g(k) + r(k) at every non-pole index."""
    orbit = _orbit_from(tower, assign, k_from, k_to)
    f, g, r = (_compile(v) for v in (f, pair[0], pair[1]))
    g_next = orbit.pair(g)
    checked = skipped = 0
    failures = []
    for k in range(k_from, k_to + 1):
        fk, g_k, rk = orbit.pair(f), g_next, orbit.pair(r)
        orbit.step()
        g_next = orbit.pair(g)
        if any(p is POLE for p in (fk, g_next, g_k, rk)):
            skipped += 1
            continue
        checked += 1
        # f - g(k+1) + g(k) - r over the product of the four denominators
        (fn, fd), (an, ad), (bn, bd), (rn, rd) = fk, g_next, g_k, rk
        den_ab = ad * bd
        num = (fn * den_ab - fd * (an * bd - bn * ad)) * rd - rn * fd * den_ab
        if num:
            failures.append((k, Fraction(num, fd * den_ab * rd)))
    return VerifyPairReport(checked, skipped, failures)


VerifyRecurrenceReport = namedtuple(
    "VerifyRecurrenceReport", ["residuals", "fit"])


def verify_recurrence(tower, coeffs, f, assign, n_from, n_to,
                      param=None, sum_from=1, fit_degree=6):
    """Residual of sum(c_j * S(n+j-1)) where S(N) sums f with param := N.

    S(N) is computed once per N by direct summation of f over
    k = sum_from..N, from the given initial values and the defaults at
    param := N, so the report shows exactly the inhomogeneous part a
    telescoper certificate leaves behind after the boundary terms.
    """
    if param is None:
        if len(tower.params) != 1:
            raise ValueError("name the recurrence parameter explicitly")
        param = tower.params[0]
    f = _compile(f)
    coeffs = [_compile(c) for c in coeffs]
    sums = {}
    residuals = []
    for n0 in range(n_from, n_to + 1):
        total = Fraction(0)
        for j, c in enumerate(coeffs):
            cv = _const_at(tower, c,
                           {**assign.params, param: Fraction(n0)})
            if cv is None:
                total = POLE
                break
            if cv == 0:
                continue
            n = n0 + j
            if n not in sums:
                sums[n] = _direct_sum(tower, f, assign, param, n, sum_from)
            if sums[n] is None:
                total = POLE
                break
            total += cv * sums[n]
        residuals.append((n0, total))
    points = [(Fraction(n), v) for n, v in residuals if v is not POLE]
    fit = fit_rational(points, fit_degree) if len(points) >= 3 else None
    return VerifyRecurrenceReport(residuals, fit)


def fit_rational(points, max_deg=6):
    """Lowest-degree exact rational function through the points, or None."""
    if not points:
        return None
    for total in range(2 * max_deg + 1):
        for dp in range(min(total, max_deg) + 1):
            dq = total - dp
            if dq > max_deg or dp + dq + 2 > len(points):
                continue
            sol = _try_fit(points, dp, dq)
            if sol is not None:
                return sol
    return None


def _try_fit(points, dp, dq):
    np_, nq = dp + 1, dq + 1
    rows = []
    for n, r in points:
        row = [n ** i for i in range(np_)]
        row += [-r * n ** j for j in range(nq)]
        rows.append(row)
    for vec in nullspace_basis(rows, np_ + nq, Fraction(0), Fraction(1)):
        den = Poly(vec[np_:])
        if den.is_zero():
            continue
        if any(den.eval(n) == 0 for n, _r in points):
            continue
        return RatFunc(Poly(vec[:np_]), den, 1)
    return None


def _direct_sum(tower, ev, assign, param, upper, lower):
    if upper < lower:
        return Fraction(0)
    sub = SequenceAssignment(tower, start=assign.start, inits=assign.given,
                             params={**assign.params, param: Fraction(upper)})
    total = Fraction(0)
    for _k, v in _walk(tower, ev, sub, lower, upper):
        if v is POLE:
            return None
        total += v
    return total


def _const_at(tower, ev, pvals):
    """The value of a compiled constant-level value at given parameter
    values, None on a pole."""
    vals = {d: pvals[p] for d, p in enumerate(tower.params, start=1)}
    try:
        return Fraction(*ev(vals))
    except _Pole:
        return None


def _eval_at(v, vals):
    """The Fraction v takes at vals; see _compile."""
    return Fraction(*_compile(v)(vals))


def _compile(v):
    """The evaluator of v: a function that maps vals (depth -> Fraction,
    None once poisoned) to (n, d) with v = n / d there; d != 0, and neither
    is reduced nor signed.

    The function raises _Pole when a denominator evaluates to 0, or when a
    polynomial of positive degree (or the zero polynomial) meets a
    poisoned variable.
    """
    if isinstance(v, Fraction):
        pair = v.numerator, v.denominator
        return lambda vals: pair
    num = _compile_poly(v.num, v.depth)
    if v.den.degree() == 0:  # a canonical denominator: 1
        return num
    den = _compile_poly(v.den, v.depth)

    def quotient(vals):
        dn, dd = den(vals)
        if not dn:
            raise _Pole
        n, d = num(vals)
        return n * dd, d * dn
    return quotient


def _compile_poly(p, depth):
    """The evaluator of the polynomial p in the variable at depth."""
    deg = p.degree()
    if deg < 0:
        def zero(vals):
            if vals.get(depth) is None:
                raise _Pole
            return 0, 1
        return zero
    if not deg:  # a constant: whatever the variable, its coefficient
        return _compile(p.lc())
    if depth == 1:
        # Fraction coefficients: their numerators over one denominator
        nums, den = p.as_integers()
        rev = nums[::-1]

        def bottom(vals):
            point = vals.get(1)
            if point is None:
                raise _Pole
            acc, w = _horner(rev, point)
            return acc, den * w
        return bottom
    if depth == 2:
        return _compile_zx(p)
    coeffs = [_compile(c) for c in reversed(p.coeffs)]

    def upper(vals):
        point = vals.get(depth)
        if point is None:
            raise _Pole
        return _combine([c(vals) for c in coeffs], point)
    return upper


def _compile_zx(p):
    """The evaluator of p at depth 2, whose coefficients are Z[x]
    numerators over one Z[x] denominator. All of them are padded to one
    degree, so that at x = a / b each is b^width times its value and the
    powers of b cancel. The coefficient view (one gcd per coefficient) is
    built only once x is poisoned."""
    cs, ds = p.as_integers()
    width = max(len(ds), *map(len, cs))
    rev = [(0,) * (width - len(c)) + c[::-1] for c in reversed(cs)]
    drev = (0,) * (width - len(ds)) + ds[::-1]
    view = None

    def ev(vals):
        nonlocal view
        point = vals.get(2)
        if point is None:
            raise _Pole
        below = vals.get(1)
        if below is None:
            if view is None:
                view = [_compile(c) for c in reversed(p.coeffs)]
            return _combine([c(vals) for c in view], point)
        dn = _horner(drev, below)[0]
        if not dn:
            raise _Pole
        acc, w = _horner([_horner(c, below)[0] for c in rev], point)
        return acc, dn * w
    return ev


def _combine(pairs, point):
    """(n, d) of the polynomial with coefficient pairs (highest first) at
    point, over the lcm of their denominators."""
    den = math.lcm(*(d for _n, d in pairs))
    acc, w = _horner([n * (den // d) for n, d in pairs], point)
    return acc, den * w


def _horner(rev, point):
    """(y^m p(x / y), y^m) for point = x / y and the integer coefficients
    rev of p, highest first, m = len(rev) - 1. point is not read when
    m = 0, and no power of y is formed when y = 1."""
    acc = rev[0]
    if len(rev) == 1:
        return acc, 1
    x, y = point.numerator, point.denominator
    if y == 1:
        for n in rev[1:]:
            acc = acc * x + n
        return acc, 1
    w = 1
    for n in rev[1:]:
        w *= y
        acc = acc * x + n * w
    return acc, w
