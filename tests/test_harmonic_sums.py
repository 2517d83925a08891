"""The harmonic sums of weight <= 4 as a tower: the algebraic basis that
reduction finds, and the bundled towers/hsums4.tower that records it."""

import time
from fractions import Fraction
from pathlib import Path

from sumred.algebra import lift, one_at
from sumred.exprio import format_value, parse_expression
from sumred.reduction import ReductionContext
from sumred.sequences import POLE, SequenceAssignment, eval_sequence
from sumred.telescope import telescope
from sumred.tower import Generator, TowerSpec
from sumred.towerfile import load_tower_file, parse_tower_text

HSUMS4 = Path(__file__).resolve().parent.parent / "towers" / "hsums4.tower"


def _compositions(weight):
    """The compositions of weight in lexicographic order."""
    if not weight:
        yield ()
    for a in range(1, weight + 1):
        for rest in _compositions(weight - a):
            yield (a,) + rest


def _exact(word, n):
    """S_word(n), with S_()(n) = 1 and S_(a, w)(n) = sum_{j<=n} S_w(j)/j^a."""
    if not word:
        return Fraction(1)
    return sum((_exact(word[1:], j) / Fraction(j) ** word[0]
                for j in range(1, n + 1)), Fraction(0))


def _basis(max_weight):
    """(tower, expr, counts) for the words of weight <= max_weight, visited
    by weight in lexicographic order. The increment of S_(a, w) is
    sigma(S_w)/(x+1)^a. A word whose increment has a nonzero remainder in
    the tower so far is adjoined as s<a><w...>; for any other, S_word is
    g + c, where g is the increment's certificate and c is read off the
    exact value at the first n >= 1 where g has no pole. expr maps every
    word to its value, and counts holds (new, redundant) per weight."""
    tower = parse_tower_text("gen x : 1\nseed x : x\n")
    expr = {(): one_at(tower.full_depth)}
    counts = []
    for weight in range(1, max_weight + 1):
        new = redundant = 0
        ctx = ReductionContext(tower)
        for word in _compositions(weight):
            inc = (tower.sigma(tower.lift_to_top(expr[word[1:]]))
                   / parse_expression(tower, "x + 1") ** word[0])
            res = telescope(ctx, inc)
            if not res.summable:
                name = "s" + "".join(map(str, word))
                tower = TowerSpec(tower.gens + (Generator(name, inc),))
                ctx = ReductionContext(tower)
                expr[word] = tower.var(name)
                new += 1
                continue
            values = eval_sequence(tower, res.g, SequenceAssignment(tower),
                                   1, 6)
            n, v = next((n, v) for n, v in values if v is not POLE)
            expr[word] = res.g + (_exact(word, n) - v)
            redundant += 1
        counts.append((new, redundant))
    return tower, expr, counts


def test_weight_four_basis_is_the_bundled_tower():
    started = time.process_time()
    built, expr, counts = _basis(4)
    # within a second, so that a deep tower's arithmetic stays cheap
    assert time.process_time() - started < 1.0
    assert counts == [(1, 0), (1, 1), (2, 2), (3, 5)]

    tower = load_tower_file(HSUMS4)
    assert tower.nlevels == built.nlevels == 8
    for gen, want in zip(tower.gens, built.gens):
        assert gen.name == want.name and gen.seed_reps == want.seed_reps
        assert (format_value(tower, gen.delta)
                == format_value(built, want.delta))

    # S_11 = (S_1^2 + S_2)/2: S_2 telescopes to 2*s11 - s1^2, and both
    # vanish at n = 0
    res = telescope(ReductionContext(tower),
                    parse_expression(tower, "1/(x + 1)^2"))
    assert res.summable
    assert res.g == parse_expression(tower, "2*s11 - s1^2")

    top = {word: lift(v, built.full_depth) for word, v in expr.items()}
    # the quasi-shuffle S_21 + S_12 = S_1*S_2 + S_3, with S_12 a generator
    assert top[(2, 1)] + top[(1, 2)] == top[(1,)] * top[(2,)] + top[(3,)]

    assign = SequenceAssignment(built)
    for word, v in top.items():
        got = eval_sequence(built, v, assign, 1, 6)
        assert got == [(n, _exact(word, n)) for n in range(1, 7)], word
