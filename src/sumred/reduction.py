"""Complete reduction of tower elements into a difference plus a remainder.

For a value f the reduction produces (g, r) with f = shift(g) - g + r and r
canonical: f is a difference of a tower element exactly when r is zero, and
equal remainders certify that two inputs differ by a difference. The zero
test and the equality test for indefinite nested sums both ride on this.

A ReductionContext carries the mutable session state: the representative
sets that pin shift classes and the notes on new representatives. Results
are deterministic for a fixed tower and seed list; reusing one context
across calls keeps earlier choices (and therefore earlier answers) stable:
a class has one representative and an irreducible is classified once, so
reducing f again gives the same pair.

What contexts share follows one rule. Factorizations depend on the
polynomial alone (the level-1 representatives a context hands factor_monic
change its cost, never its list), so they are kept once per tower. The
class of each irreducible (irr -> (rep, shift)) and each level's data (the
increment's reduction pair, the pivot coordinate of its residue and the
level's difference pairs) go to the tower's tables when their computation
handed out seeded classes only and added no note, else to the context's
own; every context reads its own tables, then the tower's. A counter per
context moves on each class with a representative not a seed and on each
read of, or write to, its own tables. That is exact: every context's lists
start with the same seeds in the same order, and classes are disjoint
(Karr 1981), so an irreducible of a seeded class gets the same (seed,
shift) in every context. A computation that met only such classes and
noted nothing runs the same way in any context and leaves the same notes;
one that met a class of the context's own choosing (an increment such as
1/(x^2+1), or a tower without seeds) stays with it. A context without
notes has seeded classes only, so it shares all it computes. The rebuild
(tower', iso) of telescope.well_generate reads every representative, so
it is shared among contexts without notes only, with its own caches.

The split into a polynomial part and a proper part is preserved by the
shift, so the two reduce independently:

 * proper parts: the denominator factors into irreducible powers irr^m,
   each irr = sigma^s(rep) for its class representative, and a
   partial-fraction pass isolates the piece over each. A piece is
   sigma^s(e) for e = sigma^(-s)(piece) over rep^m: e joins the remainder,
   and the orbit sum h of e, with sigma^s(e) - e = sigma(h) - h, joins g.
   One walk per class forms its orbit sums, one sigma per step. No
   irreducible is a shift of itself in a Sigma*-extension (Karr 1981), so
   the terms lie over pairwise coprime denominators and add with no gcd.
   What stays is not a difference unless it cancels completely.
 * polynomial parts: one descent from the top degree d. The leading
   coefficient reduces one level below to (g_d, r_d), and the difference
   pair of w_d = t^(d+1)/(d+1) - g*t^d removes the pivot coordinate of
   r_d. The later steps reduce what both leave below degree d.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    Poly,
    RatFunc,
    _is_zero_val,
    coprime_split,
    coprime_sum,
    frac_at,
    lift,
    vdepth,
    zero_at,
)
from .effbasis import coordinate_of, leading_coordinate
from .errors import InvalidTowerError
from .sigmafactor import factor_monic, shift_equivalence


class _PerTower:
    """What every context on one tower shares (see the module docstring):
    factors caches factor_monic by polynomial; classes (irr -> (rep,
    shift)) and levels (level -> level data) hold what the seeds alone
    decide, computed by any context without meeting a class of its own
    choosing; rebuilt is the (tower', iso) of telescope.well_generate for
    contexts without notes."""

    __slots__ = ("factors", "classes", "levels", "rebuilt")

    def __init__(self):
        self.factors = {}
        self.classes = {}
        self.levels = {}
        self.rebuilt = None


class ReductionContext:
    """Session state for reductions over one tower.

    Per context: reps, notes (level, irr), one per new representative, the
    classes and level data whose computation met a class of the context's
    own choosing, and _unseeded, the counter that tells. Everything else is
    read from, and written to, the tower's _PerTower.
    """

    def __init__(self, tower):
        self.tower = tower
        self.reps = {level: list(tower.gens[level - 1].seed_reps)
                     for level in range(1, tower.nlevels + 1)}
        self.notes = []
        if tower._reduction is None:
            tower._reduction = _PerTower()
        self._per_tower = tower._reduction
        self._classes = {}
        self._levels = {}
        self._unseeded = 0

    # -- shift-class bookkeeping -------------------------------------------

    def factor(self, p):
        """Monic irreducible factorization, cached per tower.

        Over Q every level-1 representative of the context, not only the
        seeds, goes to factor_monic as a known class, whose shifts it
        divides out before it factors the cofactor; the list returned does
        not depend on them, so the cache is keyed by p.
        """
        cache = self._per_tower.factors
        hit = cache.get(p)
        if hit is None:
            known = self.reps[1] if self.tower.nparams == 0 else ()
            hit = cache[p] = factor_monic(p, known)
        return hit

    def classify_den(self, den, depth):
        """Factor den into (irr, mult, rep, shift) with irr = sigma^shift(rep),
        one per irreducible, in the order the factorization lists them.

        Unmatched irreducibles become new representatives at shift zero, in
        that same order.
        """
        return tuple((irr, mult, *self._class_of(irr, depth))
                     for irr, mult in self.factor(den))

    def _class_of(self, irr, depth):
        hit = self._own(self._classes, irr, self._per_tower.classes)
        if hit is not None:
            return hit
        level = depth - self.tower.nparams
        reps = self.reps[level]
        before = self._unseeded
        for rep in reps:
            shift = shift_equivalence(self, rep, irr, depth)
            if shift is not None:
                hit = (rep, shift)
                break
        else:
            reps.append(irr)
            self.notes.append((level, irr))
            hit = (irr, 0)
        self._store(self._classes, irr, self._per_tower.classes, hit,
                    before == self._unseeded
                    and hit[0] in self.tower.gens[level - 1].seed_reps)
        return hit

    def _own(self, own, key, shared):
        """own[key], which moves _unseeded, else shared.get(key)."""
        hit = own.get(key)
        if hit is None:
            return shared.get(key)
        self._unseeded += 1
        return hit

    def _store(self, own, key, shared, hit, share):
        """Store hit in shared if share, else in own, which moves _unseeded."""
        if share:
            shared[key] = hit
        else:
            own[key] = hit
            self._unseeded += 1

    # -- per-level reduction data -------------------------------------------

    def level_data(self, level):
        """(g, v, element, c, pairs): increment = shift(g) - g + v with v
        the canonical residue, c the coordinate of v at the pivot element,
        and pairs the difference pairs that echelon_entry builds from g.

        Raises InvalidTowerError when v is zero: the level is redundant.
        """
        hit = self._own(self._levels, level, self._per_tower.levels)
        if hit is None:
            before = self._unseeded
            gen = self.tower.gens[level - 1]
            g, v = complete_reduction(self, gen.delta)
            if _is_zero_val(v):
                raise InvalidTowerError(
                    f"increment of {gen.name!r} is a difference of "
                    f"elements below it; the tower level is redundant")
            hit = (g, v, *leading_coordinate(self, v), [])
            self._store(self._levels, level, self._per_tower.levels, hit,
                        before == self._unseeded)
        return hit

    def echelon_entry(self, level, i):
        """The i-th difference pair (w, b) of the level: polynomials in the
        level variable with w = t^(i+1)/(i+1) - g*t^i, g from level_data,
        and b = shift(w) - w = v*t^i + terms of lower degree."""
        below = self.tower.depth_of_level(level) - 1
        g_t, _v, _e, _c, pairs = self.level_data(level)
        while len(pairs) <= i:
            j = len(pairs)
            inv = frac_at(Fraction(1, j + 1), below)
            w = Poly((zero_at(below),) * j + (-g_t, inv))
            pairs.append((w, self.delta_poly(w, below + 1)))
        return pairs[i]

    def delta_poly(self, p, depth):
        return self.tower.sigma_poly(p, depth, 1) - p


# ---------------------------------------------------------------------------
# proper part
# ---------------------------------------------------------------------------


def reduce_proper(ctx, f):
    """Reduce a proper fraction in lowest terms; returns (g, r) as values at
    the same depth.

    With irr = sigma^s(rep), the piece p over irr^m is sigma^s(e) for e
    over rep^m. r sums the e's; g sums one walk per class and sign of s.
    Up: Y_0 sums the e's with s > 0, and Y_j = sigma(Y_(j-1)) - p at s = j
    is the sum of sigma^j(e) over s > j. Down: W_1 = sigma^(-1)(-e's with
    s < 0), W_(j+1) = sigma^(-1)(W_j + p at s = -j). Each term lies over a
    power of its own sigma^j(rep), and coprime_sum adds them. r gets each
    e once, as a class's e at s = 0 plus the two sums that start its walks.
    """
    depth = f.depth
    zero = zero_at(depth)
    if f.num.is_zero():
        return zero, zero
    tower = ctx.tower
    comps = ctx.classify_den(f.den, depth)
    pieces = coprime_split(f.num, [irr ** mult for irr, mult, _r, _s in comps])
    walks = {}
    for (irr, mult, rep, shift), num in zip(comps, pieces):
        # f is in lowest terms, so num is coprime to irr; sigma^(-s) keeps
        # it coprime to rep, and rep is monic
        e = RatFunc(tower.sigma_poly(num, depth, -shift), rep ** mult, depth,
                    _trusted=True)
        walks.setdefault(rep, []).append(
            (shift, e, RatFunc(num, irr ** mult, depth, _trusted=True)))
    g, r = [], []
    for walk in walks.values():
        r_class = next((e for s, e, _p in walk if s == 0), zero)
        for step in (1, -1):
            arrive = {s * step: p for s, _e, p in walk if s * step > 0}
            y = sum((e for s, e, _p in walk if s * step > 0), zero)
            r_class = r_class + y
            y = tower.sigma(-y, -1) if step < 0 and arrive else y
            for j in range(1, max(arrive, default=1)):
                g.append(y)
                y = (tower.sigma(y, 1) - arrive.get(j, zero) if step > 0
                     else tower.sigma(y + arrive.get(j, zero), -1))
            g.append(y)
        r.append(r_class)
    return coprime_sum(g, depth), coprime_sum(r, depth)


# ---------------------------------------------------------------------------
# polynomial part
# ---------------------------------------------------------------------------


def auxiliary_reduction(ctx, p, depth):
    """Coefficient-wise reduction of a polynomial in the level variable.

    Returns polynomials (q, r) with p = shift(q) - q + r and every
    coefficient of r a canonical remainder one level below. This is the
    paper's coefficient-wise pass; reduce_polynomial no longer runs it.
    """
    below = depth - 1
    q = Poly(())
    r = Poly(())
    work = p
    while not work.is_zero():
        d = work.degree()
        gd, rd = complete_reduction(ctx, lift(work.lc(), below))
        pad = (zero_at(below),) * d
        mono_g = Poly(pad + (gd,))
        mono_r = Poly(pad + (rd,))
        work = work - ctx.delta_poly(mono_g, depth) - mono_r
        if work.degree() >= d:
            raise AssertionError("auxiliary reduction degree did not drop")
        q = q + mono_g
        r = r + mono_r
    return q, r


def reduce_polynomial(ctx, p, depth):
    """Reduce a polynomial part; returns (q, v) polynomials with
    p = shift(q) - q + v and v a canonical remainder.

    One descent from the top degree. The level data is read only once
    some remainder coefficient is nonzero, as computing it may classify.
    """
    below = depth - 1
    level = depth - ctx.tower.nparams
    q = v = Poly(())
    while not p.is_zero():
        d = p.degree()
        gd, rd = complete_reduction(ctx, lift(p.lc(), below))
        pad = (zero_at(below),) * d
        w = Poly(pad + (gd,))
        b = ctx.delta_poly(w, depth)
        if not _is_zero_val(rd):
            _g, v_l, element, c, _pairs = ctx.level_data(level)
            ctil = coordinate_of(ctx, element, rd)
            if not _is_zero_val(ctil):
                ratio = lift(ctil / c, below)
                w_d, b_d = ctx.echelon_entry(level, d)
                w = w + w_d.scale(ratio)
                b = b + b_d.scale(ratio)
                rd = rd - v_l * ratio
        mono_r = Poly(pad + (rd,))
        p = p - b - mono_r
        if p.degree() >= d:
            raise AssertionError("polynomial reduction degree did not drop")
        q = q + w
        v = v + mono_r
    return q, v


# ---------------------------------------------------------------------------
# the complete reduction
# ---------------------------------------------------------------------------


def complete_reduction(ctx, f):
    """Split f into (g, r): f = shift(g) - g + r with r canonical.

    f is a difference of a tower element iff r is zero; r is C-linear in f,
    and two values have equal remainders iff they differ by a difference.
    """
    depth = vdepth(f)
    if depth <= ctx.tower.nparams:
        return zero_at(depth), f
    poly, proper = ctx.tower.split_poly_proper(f)
    g_poly, v_poly = reduce_polynomial(ctx, poly, depth)
    g2, r2 = reduce_proper(ctx, proper)
    return (RatFunc.from_poly(g_poly, depth) + g2,
            RatFunc.from_poly(v_poly, depth) + r2)
