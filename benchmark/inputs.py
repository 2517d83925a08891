"""Seeded input generators for the benchmark workloads.

Inputs are text in the expression grammar of the tower they run on; the
program parses them itself. A reduction input is built from a known v as
Delta(v) = sigma(v) - v, or as Delta(v) + c*r0 for a fixed non-summable
r0, and the case records which, so the checker knows the verdict the
program must reach. sigma is applied to text by substituting every
generator t with (t + a_t), a_t being the increment written in the tower
file, so building an input never calls sumred.

One seed always yields the same stream. Streams are unbounded and consumed
in order, so a longer run sees a longer prefix of the same stream. Each
discrete property of an input (the level-2 shift, the pool irreducibles,
whether r0 is added, the family and size of a telescoping problem, ...) is
drawn round by round, each value once per round in a seeded order, so that
runs on different seeds see nearly the same mix.
"""

import random
import re

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The fixed non-summable parts r0, each with the reason it stays so.
R0 = {
    # summing it needs H^(3) = sum 1/k^3, which bench.tower lacks
    "poly": "1/(x+1)^3",
    # a pole class (x^2+1) that no increment of nested.tower has
    "session": "1/(x^2+1)",
}

# Level-1 and level-2 irreducibles of nested.tower. The proper parts of v
# have their shifts sigma^k as denominators: |k| <= 5 at level 1 and
# |k| <= 3 at level 2.
# The level-2 pool holds one irreducible: with six, every session input
# scanned six representatives over +-20 shifts and took seconds (see
# README.md). Level-2 shifts beyond 3 are left out for run length only. In
# a session, the median input takes about 15 ms at k = 0 and 0.2 s at
# k = 3, but 0.7 s at k = 4 (one took 4.3 s), 0.9 s at k = -5, and at
# k = 5 one input ran past 20 s.
LEVEL1_POOL = ("x", "x+2", "x-3", "x^2+1", "x^2+x+1")
LEVEL2_POOL = ("t1",)
NUMERATORS = ("1", "2", "-3", "x", "x+1")
MONOMIALS = ("x", "t1", "t2", "x*t1", "t1^2", "x*t2", "t1*t2")
LEVEL1_SHIFTS = range(-5, 6)
LEVEL2_SHIFTS = range(-3, 4)

# Total degrees of the dense polynomials in (x, t1, t2) on bench.tower. Three
# sizes put the median and p90 inside a size class rather than where
# classes meet; all ops of one size cost nearly the same.
POLY_DEGREES = (3, 4, 5)

# creative.tower problems: family f_j, j = 2..m+1, and m. Each is a
# definite-sum summand in the parameter n. Sizes stop where a problem first
# takes more than a second, for run length only: one problem of the first
# family takes 1.6 s at m = 5 and about 32 s at m = 6; the second takes
# 4.2 s at m = 4; the third runs past 8 s at m = 4. The kept ones take
# 12 ms to 0.3 s, and j starts at 2 (from j = 1 the m = 4 problem of the
# second family takes 0.7 to 0.9 s).
CREATIVE_PROBLEMS = (
    ("t1/(n-x+{j})", 2), ("t1/(n-x+{j})", 3), ("t1/(n-x+{j})", 4),
    ("1/((x+{j})*(n-x+{j}))", 2), ("1/((x+{j})*(n-x+{j}))", 3),
    ("t1/(n-x+{j})^2", 2), ("t1/(n-x+{j})^2", 3),
)
# depth_reduce inputs after each parameterized telescoping problem
DEPTH_PER_PARAM = 1


class TowerText:
    """Generator names and increment texts of a tower file, and sigma on text."""

    def __init__(self, text):
        self.gens = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("gen "):
                name, _, inc = line[4:].partition(":")
                self.gens.append((name.strip(), inc.strip()))
        self._forward = {}
        self._backward = {}
        for name, inc in self.gens:
            self._forward[name] = f"({name}+({inc}))"
            # sigma^-1(t) = t - sigma^-1(a_t), and a_t uses only lower names
            self._backward[name] = (
                f"({name}-({_substitute(inc, self._backward)}))")

    def shift(self, text, k=1):
        """Text of sigma^k applied to text."""
        table = self._forward if k > 0 else self._backward
        for _ in range(abs(k)):
            text = _substitute(text, table)
        return text

    def delta(self, text):
        """Text of sigma(v) - v."""
        return f"{self.shift(text)} - ({text})"


def _substitute(text, table):
    return _NAME.sub(lambda m: table.get(m.group(0), m.group(0)), text)


class Case:
    """A reduction input Delta(v) + c*r0; c is "0" and r0 None when the
    input is summable."""

    __slots__ = ("v", "c", "r0")

    def __init__(self, v, c="0", r0=None):
        self.v = v
        self.c = c
        self.r0 = r0

    @property
    def summable(self):
        return self.r0 is None

    def text(self, tower):
        """The input as text, with sigma written out."""
        out = tower.delta(self.v)
        if self.r0 is not None:
            out += f" + ({self.c})*({self.r0})"
        return out

    def __eq__(self, other):
        return (self.v, self.c, self.r0) == (other.v, other.c, other.r0)

    def __repr__(self):
        return f"Case({self.v!r}, c={self.c!r}, r0={self.r0!r})"


def _coeff(rng):
    c = rng.choice((-3, -2, -1, 1, 2, 3, 5))
    d = rng.choice((1, 1, 2, 3))
    return f"{c}/{d}" if d != 1 else str(c)


def _rounds(rng, values):
    """Every value once per round, each round in a fresh seeded order."""
    while True:
        batch = list(values)
        rng.shuffle(batch)
        yield from batch


class _Draws:
    """The properties of an input, each drawn round by round."""

    def __init__(self, rng):
        self.rng = rng
        self.k2 = _rounds(rng, LEVEL2_SHIFTS)
        self.k1 = _rounds(rng, LEVEL1_SHIFTS)
        self.level1 = _rounds(rng, LEVEL1_POOL)
        self.level2 = _rounds(rng, LEVEL2_POOL)
        self.numerator = _rounds(rng, NUMERATORS)


def dense_poly(rng, names, degree):
    """Text of a dense polynomial of total degree `degree` in `names`,
    integer coefficients in [-9, 9]."""
    terms = []

    def walk(i, left, mono):
        if i == len(names):
            c = rng.randint(-9, 9)
            if c:
                terms.append("*".join([f"({c})"] + mono))
            return
        for e in range(left + 1):
            walk(i + 1, left - e, mono + ([f"{names[i]}^{e}"] if e else []))

    walk(0, degree, [])
    return " + ".join(terms) or "1"


def poly_cases(tower, seed):
    """poly: dense polynomials p on bench.tower, input Delta(p) [+ c*r0].
    Each round has every degree three times, once with c*r0 added."""
    rng = random.Random(f"poly/{seed}")
    kinds = _rounds(rng, [(degree, with_r0) for degree in POLY_DEGREES
                          for with_r0 in (True, False, False)])
    names = [name for name, _ in tower.gens]
    while True:
        degree, with_r0 = next(kinds)
        p = dense_poly(rng, names, degree)
        yield Case(p, _coeff(rng), R0["poly"]) if with_r0 else Case(p)


def mixed_v(tower, draws, k2, monomial):
    """A monomial plus a level-1 and a level-2 proper part, over sigma^k1
    and sigma^k2 of pool irreducibles. (With two level-2 parts, parsing v
    alone meets the depth-2 gcd blow-up and takes minutes.)"""
    rng = draws.rng
    parts = [f"({_coeff(rng)})*{monomial}"]
    for pool, k in ((draws.level1, next(draws.k1)), (draws.level2, k2)):
        den = tower.shift(next(pool), k)
        parts.append(f"({_coeff(rng)})*({next(draws.numerator)})/({den})")
    return " + ".join(parts)


def session_cases(tower, seed):
    """session and oneshot: Delta(v) [+ c*r0] for mixed v on nested.tower.
    Each round has every level-2 shift three times, once with c*r0 added:
    the shift sets most of an input's cost, and the monomial much of the
    rest, so each shift also takes the monomials in rounds of its own."""
    draws = _Draws(random.Random(f"session/{seed}"))
    kinds = _rounds(draws.rng, [(k2, with_r0) for k2 in LEVEL2_SHIFTS
                                for with_r0 in (True, False, False)])
    monomials = {k2: _rounds(draws.rng, MONOMIALS) for k2 in LEVEL2_SHIFTS}
    while True:
        k2, with_r0 = next(kinds)
        v = mixed_v(tower, draws, k2, next(monomials[k2]))
        if with_r0:
            yield Case(v, _coeff(draws.rng), R0["session"])
        else:
            yield Case(v)


def creative_items(tower, seed):
    """creative: a parameterized telescoping problem on creative.tower,
    ("param", [f_1, ..., f_m]), then DEPTH_PER_PARAM depth_reduce inputs on
    nested.tower, ("depth", v), and so on."""
    draws = _Draws(random.Random(f"creative/{seed}"))
    problems = _rounds(draws.rng, CREATIVE_PROBLEMS)
    monomials = {k2: _rounds(draws.rng, MONOMIALS) for k2 in LEVEL2_SHIFTS}
    while True:
        family, m = next(problems)
        yield "param", [family.format(j=j) for j in range(2, m + 2)]
        for _ in range(DEPTH_PER_PARAM):
            k2 = next(draws.k2)
            yield "depth", mixed_v(tower, draws, k2, next(monomials[k2]))
