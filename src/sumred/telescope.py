"""Summation problems built on top of the reduction engine.

telescope decides summability of one element.  parameterized_telescope
finds every constant combination of several elements that telescopes at
once, which covers creative telescoping when the constant field carries
a free parameter.  sigma_check certifies that an increment opens a
genuine new summation level.  well_generate rebuilds a tower so that
every increment is its own remainder, and depth_reduce pushes an element
through that rebuild, which can lower the nesting depth of the answer.

The rebuild sends t_i to t_i' + g_i with g_i below level i, so transport
is a translation (tower.Translation), as the shift is; over each field
below it is a ring isomorphism, so fractions stay reduced.
"""

from collections import namedtuple
from fractions import Fraction

from .algebra import (_inv_val, _is_zero_val, lift, lower, one_at, vdepth,
                      zero_at)
from .effbasis import expand_remainder
from .errors import InvalidTowerError
from .reduction import ReductionContext, complete_reduction
from .tower import Generator, TowerSpec, Translation

TelescopeResult = namedtuple("TelescopeResult", ["g", "r", "summable"])

SigmaCheckResult = namedtuple(
    "SigmaCheckResult", ["is_sigma_monomial", "g", "remainder"])

BasisRow = namedtuple("BasisRow", ["coeffs", "certificate"])

DepthReduceResult = namedtuple(
    "DepthReduceResult",
    ["iso", "g", "r", "summable", "depth_before", "depth_after"])


class IsomorphismMap:
    """Field map between two towers that sends t_i to t_i' + offsets[i - 1]
    and fixes constants and parameters; images holds each t_i' + g_i."""

    def __init__(self, source, target, offsets):
        self.source = source
        self.target = target
        self.offsets = tuple(offsets)
        top = target.full_depth
        self.images = tuple(lift(target.gen_var(i), top) + lift(g, top)
                            for i, g in enumerate(self.offsets, start=1))

    def apply(self, v):
        return substitute(v, self.offsets, self.target)


def telescope(ctx, f):
    """Sigma-pair of f together with the summability verdict."""
    g, r = complete_reduction(ctx, ctx.tower.lift_to_top(f))
    return TelescopeResult(g, r, _is_zero_val(r))


def sigma_check(ctx, a, level=None):
    """Decide whether increment a opens a new level above `level`."""
    tower = ctx.tower
    if level is None:
        level = tower.nlevels
    if not 0 <= level <= tower.nlevels:
        raise InvalidTowerError(f"no tower level {level}")
    depth = tower.nparams + level
    a = lower(a, depth)
    if a is None:
        raise InvalidTowerError(
            "increment uses generators at or above the requested level")
    g, r = complete_reduction(ctx, a)
    return SigmaCheckResult(not _is_zero_val(r), g, r)


def parameterized_telescope(ctx, fs):
    """Basis of all (c_1, ..., c_m, g) with sum of c_l*f_l equal delta(g).

    A tuple of BasisRow(coeffs, certificate): first the row of zero
    coefficients with g = 1, then one row per nullspace vector.
    """
    tower = ctx.tower
    fs = [tower.lift_to_top(f) for f in fs]
    if not fs:
        raise ValueError("need at least one input element")
    pairs = [complete_reduction(ctx, f) for f in fs]
    coords = [expand_remainder(ctx, r) for _g, r in pairs]
    elements = sorted({e for c in coords for e in c},
                      key=lambda e: e.sort_key())
    m, n = len(fs), tower.nparams
    rows = [[c.get(e, zero_at(n)) for c in coords] for e in elements]
    out = [BasisRow((zero_at(n),) * m, lift(Fraction(1), tower.full_depth))]
    for vec in nullspace_basis(rows, m, zero_at(n), one_at(n)):
        w = zero_at(tower.full_depth)
        for c, (g, _r) in zip(vec, pairs):
            if not _is_zero_val(c):
                w = w + lift(c, tower.full_depth) * g
        out.append(BasisRow(vec, w))
    return tuple(out)


def substitute(v, offsets, target):
    """v with t_i sent to t_i + offsets[i - 1], lifted to the target's top."""
    n = target.nparams
    tr = Translation(n, lambda depth: offsets[depth - n - 1])
    return lift(tr.value(v), target.full_depth)


def well_generate(ctx):
    """Rebuild the tower so that every increment is its own remainder.

    The rebuild reads only ctx.tower and ctx.reps, and copies every
    representative into the new tower. A context without notes holds the
    seed lists, so its rebuild is made once per tower and shared, and with
    it the rebuilt tower's caches. A context with notes rebuilds on its
    own: unlike a class or a level's data, the rebuild depends on all of
    its representatives.
    """
    if ctx.notes:
        return _rebuild(ctx)
    shared = ctx._per_tower
    if shared.rebuilt is None:
        shared.rebuilt = _rebuild(ctx)
    return shared.rebuilt


def _rebuild(ctx):
    src = ctx.tower
    carried = {lv: tuple(ctx.reps.get(lv, ()))
               for lv in range(1, src.nlevels + 1)}
    used = {g.name for g in src.gens} | set(src.params)
    fixed = []
    gparts = []
    renamed = 0
    for i, old in enumerate(src.gens, start=1):
        prefix = _spec_with(src, fixed, carried)
        step = ReductionContext(prefix)
        b = substitute(old.delta, gparts, prefix)
        g, r = complete_reduction(step, b)
        if _is_zero_val(r):
            raise InvalidTowerError(
                f"increment of {old.name!r} telescopes below its level; "
                f"the level is redundant")
        for lv, reps in step.reps.items():
            carried[lv] = tuple(reps)
        if _is_zero_val(g):
            name = old.name
        else:
            renamed += 1
            name = _fresh_name(f"u{renamed}", used)
        used.add(name)
        fixed.append((name, r))
        gparts.append(g)
    final = _spec_with(src, fixed, carried)
    return final, IsomorphismMap(src, final, gparts)


def depth_reduce(ctx, f):
    """Reduce f after transporting it into the well generated tower."""
    tower = ctx.tower
    f = tower.lift_to_top(f)
    new_spec, iso = well_generate(ctx)
    image = iso.apply(f)
    nctx = ReductionContext(new_spec)
    g, r = complete_reduction(nctx, image)
    before = nesting_depth(tower, f)
    after = max(nesting_depth(new_spec, g), nesting_depth(new_spec, r))
    return DepthReduceResult(iso, g, r, _is_zero_val(r), before, after)


def nesting_depth(tower, v):
    """Length of the deepest increment chain reachable from v."""
    memo = {}

    def gen_depth(level):
        if level not in memo:
            memo[level] = 1 + expr_depth(tower.gens[level - 1].delta)
        return memo[level]

    def expr_depth(u):
        return max((gen_depth(i) for i in _levels_used(tower, u)), default=0)

    return expr_depth(v)


def _levels_used(tower, v):
    """Set of levels whose generator actually appears in v; N_j / D over
    Q(x) (see algebra) is free of x iff N_j is a rational multiple of D."""
    npar = tower.nparams
    out = set()

    def walk(u):
        if vdepth(u) > npar:
            wpoly(u.num, u.depth)
            wpoly(u.den, u.depth)

    def wpoly(p, depth):
        if p.degree() > 0:
            out.add(depth - npar)
        c, d = p.as_integers()
        if d is None:
            for u in c:
                walk(u)
        elif d.__class__ is tuple and not npar and any(
                n and [a * d[-1] for a in n] != [b * n[-1] for b in d]
                for n in c):
            out.add(1)

    walk(v)
    return out


def _spec_with(src, fixed, carried):
    gens = tuple(Generator(name, delta, seed_reps=carried.get(lv, ()))
                 for lv, (name, delta) in enumerate(fixed, start=1))
    return TowerSpec(gens, params=src.params)


def _fresh_name(base, used):
    name = base
    while name in used:
        name += "_"
    return name


def nullspace_basis(rows, m, zero, one):
    """Solution basis, first nonzero entry 1, ordered by pivot column."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, len(mat))
                    if not _is_zero_val(mat[i][col])), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = _inv_val(mat[r][col])
        mat[r] = [e * inv for e in mat[r]]
        for i in range(len(mat)):
            if i != r and not _is_zero_val(mat[i][col]):
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    out = []
    for j in range(m):
        if j in pivots:
            continue
        vec = [zero] * m
        vec[j] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][j]
        lead = next(k for k in range(m) if not _is_zero_val(vec[k]))
        inv = _inv_val(vec[lead])
        out.append(tuple(e * inv for e in vec))
    out.sort(key=lambda v: next(k for k in range(m) if not _is_zero_val(v[k])))
    return out
