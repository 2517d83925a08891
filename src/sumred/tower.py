"""Towers of nested-sum generators over a constant field.

A tower fixes a constant field C = Q(params) and a list of generators
t_1, ..., t_n. The shift automorphism acts as the identity on C and sends
t_i to t_i + a_i, where the increment a_i only involves generators below
level i. Values are the algebra-module chain: depth 1..nparams are the
parameters, depth nparams+i is generator i, so a value of depth
nparams + i lives in C(t_1, ..., t_i).

The k-fold shift is a translation: sigma^k(t_i) = t_i + S_k, where S_k =
sigma_sum(a_i, k) is the orbit sum of sigma^j(a_i) over 0 <= j < k (for
k < 0, minus the sum over k <= j < 0); at level 1, S_k = k*a_1. A
Translation moves t to t + s at every depth at once. The tower keeps one
per k, which reads S_k at a level only when a value there is shifted.
Transport between towers (telescope module) is a translation too. sigma_sum
serves S_k only: a proper part walks its orbits itself (reduction module).

Polynomials whose coefficients are stored as integers (depth 1 and 2, see
the algebra module) are translated on those integers in one call
(taylor_shift), which at depth 2 over Q also moves x inside the
coefficients. Deeper ones take the sum of c_j (t + s)^j over the
translated coefficients c_j, with the powers of t + s cached per depth.
"""

from __future__ import annotations

import re

from .algebra import (
    Poly,
    RatFunc,
    _is_one_val,
    _is_zero_val,
    lift,
    lower,
    one_at,
    taylor_shift,
    vdepth,
    zero_at,
)
from .errors import InvalidTowerError
from .sigmafactor import factor_monic

_NAME_OK = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Generator:
    """One tower level: a name, its shift increment, optional seed factors.

    seed_reps are monic irreducible polynomials in this generator
    (coefficients from the field below) that pre-populate the level's
    representative set for shift-equivalence classification, pinning which
    shifted copy of a factor counts as the class representative.
    """

    __slots__ = ("name", "delta", "seed_reps")

    def __init__(self, name, delta, seed_reps=()):
        self.name = name
        self.delta = delta
        self.seed_reps = tuple(seed_reps)


class Translation:
    """t -> t + offset(depth) for the variable of every generator depth, the
    identity on constants and parameters. offset(depth) is a value one depth
    below, read once. Over a field K, t -> t + s is a ring automorphism of
    K[t], so a reduced fraction maps to a reduced one with a monic
    denominator."""

    def __init__(self, nparams, offset):
        self.nparams = nparams
        self._offset = offset
        self._at = {}
        self._pows = {}

    def offset(self, depth):
        if depth not in self._at:
            self._at[depth] = self._offset(depth)
        return self._at[depth]

    def value(self, v):
        d = vdepth(v)
        if d <= self.nparams:
            return v
        return RatFunc(self.poly(v.num, d), self.poly(v.den, d), d,
                       _trusted=True)

    def poly(self, p, depth):
        """Translate a polynomial in the depth-level variable."""
        if p.is_zero() or depth <= self.nparams:
            return p
        if not p.degree():  # a constant: its coefficient, at its own depth
            c = p.lc()
            return p if vdepth(c) <= self.nparams else Poly((self.value(c),))
        if depth <= 2:
            # integer-stored coefficients: one Taylor shift on the integers,
            # with x -> x + offset(1) inside them at level 2 over Q
            inner = self.offset(1) if depth == self.nparams + 2 else None
            return taylor_shift(p, self.offset(depth), inner)
        coeffs = [self.value(c) for c in p.coeffs]
        s = self.offset(depth)
        if _is_zero_val(s):
            return Poly(coeffs)
        # pows[j] is (t + s)^(j + 1)
        pows = self._pows.get(depth)
        if pows is None:
            pows = self._pows[depth] = [Poly((s, one_at(depth - 1)))]
        while len(pows) < len(coeffs) - 1:
            pows.append(pows[-1] * pows[0])
        out = Poly(coeffs[:1])
        for c, pw in zip(coeffs[1:], pows):
            if not _is_zero_val(c):
                out = out + pw.scale(c)
        return out


class TowerSpec:
    """Immutable description of a tower plus the shift automorphism."""

    def __init__(self, gens, params=()):
        self.params = tuple(params)

        seen = set()
        for name in self.params:
            if not _NAME_OK.match(name):
                raise InvalidTowerError(f"bad parameter name {name!r}")
            if name in seen:
                raise InvalidTowerError(f"duplicate name {name!r}")
            seen.add(name)

        self.nparams = len(self.params)
        fixed = []
        for i, gen in enumerate(gens):
            level = i + 1
            if not _NAME_OK.match(gen.name):
                raise InvalidTowerError(f"bad generator name {gen.name!r}")
            if gen.name in seen:
                raise InvalidTowerError(f"duplicate name {gen.name!r}")
            seen.add(gen.name)
            home = self.nparams + level - 1
            delta = lower(gen.delta, home)
            if delta is None:
                raise InvalidTowerError(
                    f"increment of {gen.name!r} uses {gen.name!r} or a "
                    f"higher generator")
            if _is_zero_val(delta):
                raise InvalidTowerError(
                    f"increment of {gen.name!r} is zero; drop the level instead")
            seeds = []
            for rep in gen.seed_reps:
                rep = self._check_seed(rep, gen.name, home)
                seeds.append(rep)
            fixed.append(Generator(gen.name, delta, seeds))
        self.gens = tuple(fixed)
        self.nlevels = len(self.gens)
        self.full_depth = self.nparams + self.nlevels
        # the variable's name at each depth, None for the constants
        self.names = (None,) + self.params + tuple(g.name for g in self.gens)
        self._by_name = {name: d for d, name in enumerate(self.names) if d}
        # sigma^k as the translation by S_k, one per k
        self._shifts = {}
        # what reduction's contexts share over this tower (a
        # reduction._PerTower), set by the first context made on it
        self._reduction = None

    @staticmethod
    def _check_seed(rep, gname, home):
        if not isinstance(rep, Poly):
            raise InvalidTowerError(f"seed for {gname!r} must be a polynomial")
        if rep.degree() < 1:
            raise InvalidTowerError(f"seed for {gname!r} must be nonconstant")
        lc = rep.lc()
        if not _is_one_val(lc):
            raise InvalidTowerError(f"seed for {gname!r} must be monic")
        for c in rep.coeffs:
            if vdepth(c) != home:
                raise InvalidTowerError(
                    f"seed for {gname!r} has coefficients at the wrong level")
        if factor_monic(rep) != [(rep, 1)]:
            raise InvalidTowerError(f"seed for {gname!r} must be irreducible")
        return rep

    # -- naming and depths -------------------------------------------------

    def depth_of_level(self, level):
        if not 1 <= level <= self.nlevels:
            raise ValueError(f"no generator level {level}")
        return self.nparams + level

    def level_of_depth(self, depth):
        return depth - self.nparams

    def depth_of_name(self, name):
        d = self._by_name.get(name)
        if d is None:
            raise KeyError(f"unknown variable {name!r}")
        return d

    def var(self, name):
        """The named variable as a value at its own depth."""
        d = self.depth_of_name(name)
        t = Poly((zero_at(d - 1), one_at(d - 1)))
        return RatFunc.from_poly(t, d)

    def gen_var(self, level):
        return self.var(self.gens[level - 1].name)

    # -- automorphism --------------------------------------------------------

    def sigma(self, v, k=1):
        """Apply the shift k times (k may be negative)."""
        return v if k == 0 else self._shift(k).value(v)

    def sigma_poly(self, p, depth, k=1):
        """Shift a polynomial in the depth-level variable, coefficients below."""
        return p if k == 0 else self._shift(k).poly(p, depth)

    def _shift(self, k):
        """sigma^k: the translation by S_k at every level, cached by k."""
        if k not in self._shifts:
            gens, n = self.gens, self.nparams
            self._shifts[k] = Translation(
                n, lambda d: self.sigma_sum(gens[d - n - 1].delta, k))
        return self._shifts[k]

    def sigma_sum(self, v, k):
        """The orbit sum h with sigma(h) - h = sigma^k(v) - v: the sum of
        sigma^j(v) over 0 <= j < k, for k < 0 minus the sum over k <= j < 0
        (k*v if the shift fixes v, zero at k = 0). It serves S_k (_shift)."""
        if vdepth(v) <= self.nparams:
            return v * k
        if k == 0:
            return zero_at(v.depth)
        # k < 0 sums the terms -sigma^j(v) for j = -1 down to k
        step = 1 if k > 0 else -1
        term = v if k > 0 else -self.sigma(v, -1)
        total = term
        for _ in range(abs(k) - 1):
            term = self.sigma(term, step)
            total = total + term
        return total

    def delta(self, v):
        """Forward difference: shift of v minus v."""
        return self.sigma(v) - v

    # -- structure tests -----------------------------------------------------

    def level(self, v):
        """Smallest generator level whose field contains v (0 for constants)."""
        return max(0, vdepth(lower(v)) - self.nparams)

    def split_poly_proper(self, v):
        """v = polynomial part + proper part at its own depth."""
        if v.den.is_one():
            return v.num, zero_at(v.depth)
        q, r = v.num.divmod(v.den)
        proper = RatFunc(r, v.den, v.depth, _trusted=True)
        return q, proper

    def lift_to_top(self, v):
        return lift(v, self.full_depth)
