"""Command line front end.

Subcommands map one to one onto the library operations: reduce and
telescope produce a sigma-pair, param-telescope a basis of telescoper
rows, sigma-check a monomial certificate, well-generate and depth-reduce
the rebuilt tower, verify a pointwise numeric check, bench a timing
table over random summable inputs, checking each pair (g, 0) against
sigma(g) - g = f outside the timed part (each trial reduces in a fresh
context, but the trials share one tower, so trials after the first run
on the tower's warm factorizations, shift classes and level data).

Every subcommand has one output path. It parses its inputs, times its
library call with _timed and hands its own fields and text lines to
_finish, the only place that builds the document {command, tower,
fields, new_representatives, timing_ms}, prints it with --json (else the
lines and the time) and picks the exit code: 0 success, 1 when
--require-summable is set and the remainder is nonzero. _pair_out and
_rebuilt_out give the fields and lines of a sigma-pair and of a rebuilt
tower. main maps engine and usage errors to an error document and exit 2.
"""

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction

from .algebra import (Poly, RatFunc, load_int_cap_from_env, lower,
                      set_int_cap)
from .errors import ParseError, SummationError
from .exprio import format_poly, format_value, parse_expression
from .reduction import ReductionContext, complete_reduction
from .sequences import SequenceAssignment, verify_sigma_pair
from .telescope import (depth_reduce, parameterized_telescope, sigma_check,
                        telescope, well_generate)
from .tower import Generator, TowerSpec
from .towerfile import load_tower_file, parse_tower_text

_BENCH_TOWER = """\
gen x : 1
seed x : x
gen t1 : 1/(x+1)
gen t2 : 1/(x+1)^2
"""


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    args = parser.parse_args(_join_dash_values(parser, argv))
    try:
        previous = load_int_cap_from_env()
        try:
            return _SUBCOMMANDS[args.command][2](args)
        finally:
            set_int_cap(previous)
    except (SummationError, ZeroDivisionError) as e:
        doc = {"command": args.command, "error":
               {"type": type(e).__name__, "message": str(e)}}
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return 2


def _common(p, exprs="one"):
    p.add_argument("--tower", help="tower description file")
    p.add_argument("--seed-reps", action="append", default=[],
                   metavar="NAME:EXPR",
                   help="seed a shift-class representative (repeatable)")
    p.add_argument("--json", action="store_true",
                   help="machine readable output")
    if exprs == "one":
        p.add_argument("--expr", required=True,
                       help="input expression")
    elif exprs == "many":
        p.add_argument("--expr", action="append", required=True,
                       help="input expression (repeatable)")


def _args_summable(p):
    _common(p)
    p.add_argument("--require-summable", action="store_true")


def _args_sigma_check(p):
    _common(p)
    p.add_argument("--level", type=int, default=None,
                   help="tower level to check above (default: top)")


def _args_verify(p):
    _args_summable(p)
    p.add_argument("--verify-range", default="1..50", metavar="A..B",
                   help="index range for the pointwise check")
    p.add_argument("--start", type=int, default=0,
                   help="orbit start index")
    p.add_argument("--init", action="append", default=[], metavar="NAME=Q",
                   help="initial generator value (repeatable)")
    p.add_argument("--param", action="append", default=[], metavar="NAME=Q",
                   help="parameter value (repeatable)")


def _args_bench(p):
    p.description = ("Time reductions of random summable inputs. Each trial "
                     "reduces in a fresh context on one shared tower, so "
                     "trials after the first run on the tower's warm "
                     "factorizations, shift classes and level data.")
    _common(p, exprs="none")
    p.add_argument("--degrees", default="5,10,15",
                   help="comma separated total degrees, each >= 0")
    p.add_argument("--trials", type=int, default=3,
                   help="timed reductions per degree, >= 1")
    p.add_argument("--seed", type=int, default=0)


def _build_parser(argv=()):
    """The argument parser for argv.

    When argv starts with a subcommand, only that subcommand's parser is
    built: every later argument goes to it. The top-level usage, which an
    unrecognized argument prints, still names every subcommand. Any other
    argv (help, no command, an unknown one) gets the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="sumred",
        description="Exact telescoping and summation in towers of "
                    "shift extensions.")
    names = list(_SUBCOMMANDS)
    if argv and argv[0] in _SUBCOMMANDS:
        # the metavar argparse would print for the full list of choices
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(names) + "}")
        names = [argv[0]]
    else:
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_args, _run = _SUBCOMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return parser


def _join_dash_values(parser, argv):
    """argv with each value that begins with '-' joined to its option, as
    --expr=-1/x, which argparse would otherwise read as an option.

    Only the options of the subcommand argv names are looked at, each by
    its full name. The next token stays as it is when it is, or abbreviates,
    one of that subcommand's option strings (or is '--'), so --expr -h and
    --expr --json stay the usage errors they are.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return argv
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[argv[0]]
    options = sub._option_string_actions

    def is_option(tok):
        if tok in options:
            return True
        name = tok.partition("=")[0]
        return name.startswith("--") and any(o.startswith(name)
                                             for o in options)

    out = [argv[0]]
    rest = iter(argv[1:])
    for tok in rest:
        action = options.get(tok)
        out.append(tok)
        if action is not None and action.nargs is None:
            value = next(rest, None)
            if value is None:
                break
            if value.startswith("-") and not is_option(value):
                out[-1] = f"{tok}={value}"
            else:
                out.append(value)
    return out


# -- tower plumbing --------------------------------------------------------

def _load_tower(args, default_text=None):
    if args.tower:
        tower = load_tower_file(args.tower)
    elif default_text is not None:
        tower = parse_tower_text(default_text)
    else:
        raise ParseError("--tower FILE is required")
    if args.seed_reps:
        tower = _with_seeds(tower, args.seed_reps)
    return tower


def _with_seeds(tower, pairs):
    """Rebuild the tower with extra seed representatives."""
    extra = {}
    for item in pairs:
        name, sep, expr = item.partition(":")
        if not sep:
            raise ParseError(f"--seed-reps wants NAME:EXPR, got {item!r}")
        extra.setdefault(name.strip(), []).append(expr.strip())
    gens = []
    for gen in tower.gens:
        reps = list(gen.seed_reps)
        for expr in extra.pop(gen.name, []):
            reps.append(_seed_at(tower, gen.name, expr))
        gens.append(Generator(gen.name, gen.delta, seed_reps=reps))
    if extra:
        raise ParseError(f"--seed-reps names unknown generators: "
                         f"{sorted(extra)}")
    return TowerSpec(tuple(gens), params=tower.params)


def _seed_at(tower, name, expr):
    v = lower(parse_expression(tower, expr), tower.depth_of_name(name))
    if v is None:
        raise ParseError(
            f"seed for {name!r} uses higher generators: {expr!r}")
    if not v.den.is_one():
        raise ParseError(f"seed for {name!r} is not a polynomial in it: "
                         f"{expr!r}")
    return v.num


# -- the one output path ---------------------------------------------------

def _timed(fn, *args):
    """fn(*args) and its wall time in ms."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1000.0


def _finish(args, fields, human, ms=None, summable=True, ctx=None):
    """Print a command's document or its lines, return its exit code;
    with ctx the representatives it noted go last, then the time."""
    doc = {"command": args.command, "tower": args.tower, **fields}
    if ctx is not None:
        tower = ctx.tower
        notes = [f"level {level}: "
                 + format_poly(tower, irr, tower.depth_of_level(level))
                 for level, irr in ctx.notes]
        doc["new_representatives"] = notes
        human = human + [f"new representative {n}" for n in notes]
    if ms is not None:
        doc["timing_ms"] = round(ms, 3)
        human = human + [f"time: {ms:.1f} ms"]
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(human))
    return 1 if not summable and args.require_summable else 0


def _pair_out(spec, res):
    """The g, r and summable fields of a sigma-pair, and their lines."""
    gs, rs = format_value(spec, res.g), format_value(spec, res.r)
    return ({"g": gs, "r": rs, "summable": res.summable},
            [f"g = {gs}", f"r = {rs}",
             f"summable: {'yes' if res.summable else 'no'}"])


def _rebuilt_out(iso):
    """Fields and generator listing of the tower that iso maps into."""
    spec = iso.target
    gens = [{"name": gen.name, "delta": format_value(spec, gen.delta)}
            for gen in spec.gens]
    images = {old.name: format_value(spec, img)
              for old, img in zip(iso.source.gens, iso.images)}
    human = ["well generated tower:"]
    human += [f"  gen {row['name']} : {row['delta']}" for row in gens]
    return {"generators": gens, "images": images}, human


# -- subcommands -----------------------------------------------------------

def _load_input(args):
    """The tower, a fresh reduction context on it and the parsed --expr."""
    tower = _load_tower(args)
    ctx = ReductionContext(tower)
    return tower, ctx, parse_expression(tower, args.expr)


def _cmd_reduce(args):
    tower, ctx, f = _load_input(args)
    res, ms = _timed(telescope, ctx, f)
    pair, human = _pair_out(tower, res)
    return _finish(args, {"inputs": [format_value(tower, f)], **pair},
                   human, ms, res.summable, ctx)


def _cmd_param_telescope(args):
    tower = _load_tower(args)
    ctx = ReductionContext(tower)
    fs = [parse_expression(tower, e) for e in args.expr]
    basis, ms = _timed(parameterized_telescope, ctx, fs)
    rows = [{"coeffs": [format_value(tower, c) for c in row.coeffs],
             "g": format_value(tower, row.certificate)}
            for row in basis]
    human = ["basis rows:"]
    human += [f"  ({', '.join(row['coeffs'])})  g = {row['g']}"
              for row in rows]
    return _finish(args, {"inputs": [format_value(tower, f) for f in fs],
                          "basis": rows}, human, ms, ctx=ctx)


def _cmd_sigma_check(args):
    tower, ctx, a = _load_input(args)
    res, ms = _timed(sigma_check, ctx, a, args.level)
    gs, rs = format_value(tower, res.g), format_value(tower, res.remainder)
    if res.is_sigma_monomial:
        human = ["genuine new level: yes",
                 f"replacement increment r = {rs}",
                 f"g = {gs}"]
    else:
        human = ["genuine new level: no",
                 f"increment telescopes: g = {gs}"]
    return _finish(args, {"inputs": [format_value(tower, a)],
                          "is_sigma_monomial": res.is_sigma_monomial,
                          "g": gs, "r": rs}, human, ms)


def _cmd_well_generate(args):
    tower = _load_tower(args)
    (_spec, iso), ms = _timed(well_generate, ReductionContext(tower))
    fields, human = _rebuilt_out(iso)
    human.append("images:")
    human += [f"  {name} -> {img}" for name, img in fields["images"].items()]
    return _finish(args, fields, human, ms)


def _cmd_depth_reduce(args):
    tower, ctx, f = _load_input(args)
    res, ms = _timed(depth_reduce, ctx, f)
    pair, pair_lines = _pair_out(res.iso.target, res)
    rebuilt, human = _rebuilt_out(res.iso)
    human += pair_lines + [
        f"nesting depth: {res.depth_before} -> {res.depth_after}"]
    return _finish(args, {"inputs": [format_value(tower, f)], **pair,
                          "depth_before": res.depth_before,
                          "depth_after": res.depth_after, **rebuilt},
                   human, ms, res.summable)


def _cmd_verify(args):
    tower, ctx, f = _load_input(args)
    k_from, k_to = _parse_range(args.verify_range)
    if k_from < args.start:
        raise ParseError(f"--verify-range starts at {k_from}, "
                         f"before --start {args.start}")
    try:
        assign = SequenceAssignment(
            tower, start=args.start,
            inits=dict(_parse_kv(args.init)),
            params=dict(_parse_kv(args.param)))
    except ValueError as e:
        raise ParseError(str(e)) from None
    res, ms = _timed(telescope, ctx, f)
    report, check_ms = _timed(verify_sigma_pair, tower, f, res, assign,
                              k_from, k_to)
    ms += check_ms
    pair, human = _pair_out(tower, res)
    human.append(f"checked {report.checked} points on {k_from}..{k_to}, "
                 f"{report.skipped} skipped, {len(report.failures)} failures")
    human += [f"  k = {k}: residual {v}" for k, v in report.failures[:10]]
    code = _finish(args, {"inputs": [format_value(tower, f)], **pair,
                          "verification": {
                              "range": [k_from, k_to],
                              "checked": report.checked,
                              "skipped": report.skipped,
                              "failures": [[k, str(v)]
                                           for k, v in report.failures]}},
                   human, ms, res.summable)
    return 2 if report.failures else code


def _cmd_bench(args):
    tower = _load_tower(args, default_text=_BENCH_TOWER)
    degrees = _parse_degrees(args.degrees)
    if args.trials < 1:
        raise ParseError(f"--trials wants at least 1, got {args.trials}")
    table = []
    human = []
    for degree in degrees:
        times = []
        for trial in range(args.trials):
            rng = random.Random(args.seed * 1000003 + degree * 1009 + trial)
            f = tower.delta(_random_poly(tower, degree, rng))
            (g, r), ms = _timed(complete_reduction, ReductionContext(tower), f)
            times.append(ms)
            if not r.is_zero():
                raise SummationError(
                    f"benchmark reduction left a remainder at degree "
                    f"{degree}, trial {trial}")
            if tower.delta(g) != f:
                raise SummationError(
                    f"benchmark reduction gave a g with sigma(g) - g != f "
                    f"at degree {degree}, trial {trial}")
        row = {
            "degree": degree,
            "trials": args.trials,
            "mean_ms": round(statistics.fmean(times), 3),
            "median_ms": round(statistics.median(times), 3),
            "all_summable": True,
        }
        table.append(row)
        human.append(f"degree {degree}: trials {args.trials}, "
                     f"mean {row['mean_ms']} ms, "
                     f"median {row['median_ms']} ms, all summable")
    return _finish(args, {"seed": args.seed, "bench": table}, human)


# name -> (help, argument builder, handler), in the order of the help
# listing
_SUBCOMMANDS = {
    "reduce": ("sigma-pair of one element", _args_summable, _cmd_reduce),
    "telescope": ("decide summability of one element", _args_summable,
                  _cmd_reduce),
    "param-telescope": ("basis of telescoper rows for several elements",
                        lambda p: _common(p, exprs="many"),
                        _cmd_param_telescope),
    "sigma-check": ("certify an increment as a new summation level",
                    _args_sigma_check, _cmd_sigma_check),
    "well-generate": ("rebuild the tower with remainder increments",
                      lambda p: _common(p, exprs="none"), _cmd_well_generate),
    "depth-reduce": ("reduce after transporting to the rebuilt tower",
                     _args_summable, _cmd_depth_reduce),
    "verify": ("reduce, then check the pair pointwise", _args_verify,
               _cmd_verify),
    "bench": ("time reductions of random summable inputs", _args_bench,
              _cmd_bench),
}


def _random_poly(tower, degree, rng):
    """Dense random polynomial value, integer coefficients in [-9, 9]."""
    def build(depth, bound):
        if depth == 0:
            return Fraction(rng.randint(-9, 9))
        coeffs = []
        for e in range(bound + 1):
            c = build(depth - 1, bound - e)
            if depth - 1 >= 1:
                c = RatFunc.from_poly(c, depth - 1)
            coeffs.append(c)
        return Poly(tuple(coeffs))

    p = build(tower.full_depth, degree)
    return RatFunc.from_poly(p, tower.full_depth)


def _parse_degrees(text):
    try:
        degrees = [int(d) for d in text.split(",") if d.strip()]
    except ValueError:
        raise ParseError(f"--degrees wants comma separated integers, "
                         f"got {text!r}")
    if not degrees:
        raise ParseError(f"--degrees wants at least one degree, got {text!r}")
    if any(d < 0 for d in degrees):
        raise ParseError(f"--degrees wants degrees >= 0, got {text!r}")
    return degrees


def _parse_range(text):
    a, sep, b = text.partition("..")
    if not sep:
        raise ParseError(f"--verify-range wants A..B, got {text!r}")
    try:
        k_from, k_to = int(a), int(b)
    except ValueError:
        raise ParseError(f"--verify-range wants integers, got {text!r}")
    if k_from > k_to:
        raise ParseError("--verify-range is empty")
    return k_from, k_to


def _parse_kv(items):
    out = []
    for item in items:
        name, sep, val = item.partition("=")
        if not sep:
            raise ParseError(f"expected NAME=VALUE, got {item!r}")
        try:
            out.append((name.strip(), Fraction(val.strip())))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational value in {item!r}")
    return out
