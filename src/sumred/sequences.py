"""Exact sequence semantics for tower elements.

A tower element becomes a rational sequence once every generator gets an
initial value and every parameter a rational value.  Generators advance
by t(k+1) = t(k) + a(k) where a is the increment evaluated at index k.
Evaluation poles mark single points; a pole inside an increment poisons
that generator from the next index on, since its later values are no
longer defined.

The pointwise check of a sigma-pair walks one orbit and reads f, g and r
off it at each index, g once more at the index after the last. A value is
evaluated on integer (numerator, denominator) pairs that are never reduced:
each polynomial clears its coefficients' denominators with one lcm and runs
a homogenised integer Horner, so no gcd is taken per step. The check
decides f(k) - g(k+1) + g(k) - r(k) = 0 on those unreduced pairs by
cross-multiplying, and builds one reduced Fraction only for an index where
it fails, the residual the report lists.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .algebra import Poly, RatFunc, vdepth
from .telescope import nullspace_basis


class _PoleType:
    __slots__ = ()

    def __repr__(self):
        return "POLE"


POLE = _PoleType()


class _Pole(Exception):
    pass


class SequenceAssignment:
    """Start index plus initial generator values and parameter values."""

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
        self.inits = {}
        for gen in tower.gens:
            if gen.name in given:
                self.inits[gen.name] = Fraction(given.pop(gen.name))
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
        self.tower = tower
        self.k = assign.start
        self.vals = {}
        for d, p in enumerate(tower.params, start=1):
            self.vals[d] = assign.params[p]
        for i, gen in enumerate(tower.gens, start=1):
            self.vals[tower.nparams + i] = assign.inits[gen.name]

    def step(self):
        tower = self.tower
        incs = []
        for gen in tower.gens:
            try:
                incs.append(_eval_at(gen.delta, self.vals))
            except _Pole:
                incs.append(None)
        for i, a in enumerate(incs, start=1):
            d = tower.nparams + i
            cur = self.vals[d]
            self.vals[d] = None if cur is None or a is None else cur + a
        self.k += 1

    def advance_to(self, k):
        while self.k < k:
            self.step()

    def value(self, f):
        p = self.pair(f)
        return p if p is POLE else Fraction(*p)

    def pair(self, f):
        """(n, d) with f = n / d here, unreduced, or POLE."""
        try:
            return _pair_at(f, self.vals)
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
    orbit = _orbit_from(tower, assign, k_from, k_to)
    f = tower.lift_to_top(f)
    out = []
    for k in range(k_from, k_to + 1):
        out.append((k, orbit.value(f)))
        if k < k_to:
            orbit.step()
    return out


VerifyPairReport = namedtuple(
    "VerifyPairReport", ["checked", "skipped", "failures"])


def verify_sigma_pair(tower, f, pair, assign, k_from, k_to):
    """Check f(k) = g(k+1) - g(k) + r(k) at every non-pole index."""
    orbit = _orbit_from(tower, assign, k_from, k_to)
    f, g, r = (tower.lift_to_top(v) for v in (f, pair[0], pair[1]))
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

    S(N) is computed by direct summation of f over k = sum_from..N, so the
    report shows exactly the inhomogeneous part a telescoper certificate
    leaves behind after the boundary terms.
    """
    if param is None:
        if len(tower.params) != 1:
            raise ValueError("name the recurrence parameter explicitly")
        param = tower.params[0]
    residuals = []
    for n0 in range(n_from, n_to + 1):
        total = Fraction(0)
        bad = False
        for j, c in enumerate(coeffs):
            cv = _const_at(tower, c,
                           {**assign.params, param: Fraction(n0)})
            if cv is None:
                bad = True
                break
            if cv == 0:
                continue
            s = _direct_sum(tower, f, assign, param, n0 + j, sum_from)
            if s is None:
                bad = True
                break
            total += cv * s
        residuals.append((n0, POLE if bad else total))
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


def _direct_sum(tower, f, assign, param, upper, lower):
    if upper < lower:
        return Fraction(0)
    sub = SequenceAssignment(tower, start=assign.start, inits=assign.inits,
                             params={**assign.params, param: Fraction(upper)})
    total = Fraction(0)
    for _k, v in eval_sequence(tower, f, sub, lower, upper):
        if v is POLE:
            return None
        total += v
    return total


def _const_at(tower, c, pvals):
    """A constant-level value at given parameter values, None on a pole."""
    if isinstance(c, Fraction):
        return c
    vals = {d: pvals[p] for d, p in enumerate(tower.params, start=1)}
    try:
        return _eval_at(c, vals)
    except _Pole:
        return None


def _eval_at(v, vals):
    """The Fraction v takes at vals; see _pair_at."""
    return Fraction(*_pair_at(v, vals))


def _pair_at(v, vals):
    """(n, d) with v = n / d at vals (depth -> Fraction, None once
    poisoned); d != 0, and neither is reduced nor signed.

    Raises _Pole when a denominator evaluates to 0, or when a polynomial of
    positive degree (or the zero polynomial) meets a poisoned variable.
    """
    def val(u, depth):
        # (n, d) with u = n / d and d != 0, neither reduced nor signed
        if isinstance(u, Fraction):
            return u.numerator, u.denominator
        n, d = pol(u.num, depth)
        if u.den.degree() == 0:  # a canonical denominator: 1
            return n, d
        dn, dd = pol(u.den, depth)
        if not dn:
            raise _Pole
        return n * dd, d * dn

    def pol(p, depth):
        point = vals.get(depth)
        if point is None:
            if p.degree() == 0:
                return val(p.coeff(0), depth - 1)
            raise _Pole
        if p.is_zero():
            return 0, 1
        below = vals.get(depth - 1)
        if depth == 1:
            # Fraction coefficients: their numerators over one denominator
            nums, den = p.as_integers()
        elif depth == 2 and below is not None:
            # Z[x] numerators over one Z[x] denominator, each taken at x
            cs, ds = p.as_integers()
            dn, dw = hom(ds, below)
            if not dn:
                raise _Pole
            pairs = [hom(c, below) if c else (0, 1) for c in cs]
            top = max(w for _n, w in pairs)  # powers of one denominator
            nums = [n * (top // w) * dw for n, w in pairs]
            den = dn * top
        else:
            pairs = [val(c, depth - 1) for c in p.coeffs]
            den = math.lcm(*(d for _n, d in pairs))
            nums = [n * (den // d) for n, d in pairs]
        acc, w = hom(nums, point)
        return acc, den * w

    def hom(nums, point):
        # (y^deg * p(x / y), y^deg) for point = x / y, Horner on
        # homogenised integers
        x, y = point.numerator, point.denominator
        acc, w = nums[-1], 1
        for n in reversed(nums[:-1]):
            w *= y
            acc = acc * x + n * w
        return acc, w

    return val(v, vdepth(v))
