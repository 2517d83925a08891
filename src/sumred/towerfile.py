"""Line-oriented tower description files.

Grammar, one directive per line, '#' starts a comment:

    params n m        parameter names for the constant field
    gen x : 1         generator with its increment expression
    seed x : x        representative seed for that generator's level

Generator lines are read top to bottom; each increment expression may
use the parameters and the generators declared above it.  Seed lines
must name an already declared generator and parse to a monic irreducible
polynomial in that generator.  Any other first word, such as the
'option' lines of older files, is an unknown directive and a ParseError.
"""

from .errors import ParseError
from .exprio import parse_expression
from .tower import Generator, TowerSpec


def load_tower_file(path):
    """TowerSpec from a tower description file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read tower file {str(path)!r}: "
                         f"{e.strerror or e}") from None
    return parse_tower_text(text)


def parse_tower_text(text):
    """TowerSpec from the contents of a tower description file."""
    params = None
    records = []
    seeds = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "params":
            if params is not None:
                raise ParseError("second params line", line=lineno)
            if records:
                raise ParseError("params must come before generators",
                                 line=lineno)
            params = rest.split()
        elif word == "gen":
            name, expr = _split_decl(rest, lineno)
            records.append((name, expr, lineno))
            seeds[name] = []
        elif word == "seed":
            name, expr = _split_decl(rest, lineno)
            if name not in seeds:
                raise ParseError(f"seed for undeclared generator {name!r}",
                                 line=lineno)
            seeds[name].append((expr, lineno))
        else:
            raise ParseError(f"unknown directive {word!r}", line=lineno)
    if not records:
        raise ParseError("no generators declared", line=None)

    params = tuple(params or ())
    # lines are parsed in towers without seeds, so each seed is checked once,
    # by the final TowerSpec
    bare = []
    gens = []
    for name, expr, lineno in records:
        delta = _parse_at(TowerSpec(tuple(bare), params=params), expr, lineno)
        bare.append(Generator(name, delta))
        probe = TowerSpec(tuple(bare), params=params)
        reps = [_seed_poly(probe, sexpr, name, sline)
                for sexpr, sline in seeds[name]]
        gens.append(Generator(name, delta, seed_reps=reps))
    return TowerSpec(tuple(gens), params=params)


def _split_decl(rest, lineno):
    name, sep, expr = rest.partition(":")
    name = name.strip()
    expr = expr.strip()
    if not sep or not name or not expr:
        raise ParseError("expected 'name : expression'", line=lineno)
    return name, expr


def _parse_at(spec, expr, lineno):
    try:
        return parse_expression(spec, expr)
    except ParseError as e:
        raise ParseError(e.message, position=e.position,
                         line=lineno) from None


def _seed_poly(spec, expr, name, lineno):
    v = _parse_at(spec, expr, lineno)
    if not v.den.is_one():
        raise ParseError(f"seed for {name!r} is not a polynomial",
                         line=lineno)
    return v.num
