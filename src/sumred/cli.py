"""Command line front end.

Subcommands map one to one onto the library operations: reduce and
telescope produce a sigma-pair, param-telescope a basis of telescoper
rows, sigma-check a monomial certificate, well-generate and depth-reduce
the rebuilt tower, verify a pointwise numeric check, bench a timing
table over random summable inputs, checking each pair (g, 0) against
sigma(g) - g = f outside the timed part (each trial reduces in a fresh
context, but the trials share one tower, so trials after the first run
on the tower's warm factorizations and level data).  Exit codes: 0
success, 1 when --require-summable is set and the remainder is nonzero,
2 for engine or usage errors.
"""

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction

from .algebra import Poly, RatFunc, load_int_cap_from_env, lower
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
    load_int_cap_from_env()
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    args = parser.parse_args(_join_dash_values(parser, argv))
    try:
        return _SUBCOMMANDS[args.command][2](args)
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
                     "factorizations and level data.")
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


def _rep_notes(ctx):
    out = []
    for kind, level, irr in ctx.notes:
        if kind == "new-representative":
            depth = ctx.tower.depth_of_level(level)
            out.append(f"level {level}: "
                       f"{format_poly(ctx.tower, irr, depth)}")
    return out


def _emit(args, doc, human):
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for line in human:
            print(line)
    return 0


# -- subcommands -----------------------------------------------------------

def _cmd_reduce(args):
    tower = _load_tower(args)
    ctx = ReductionContext(tower)
    f = parse_expression(tower, args.expr)
    t0 = time.perf_counter()
    res = telescope(ctx, f)
    ms = (time.perf_counter() - t0) * 1000.0
    gs, rs = format_value(tower, res.g), format_value(tower, res.r)
    doc = {
        "command": args.command,
        "tower": args.tower,
        "inputs": [format_value(tower, f)],
        "g": gs,
        "r": rs,
        "summable": res.summable,
        "new_representatives": _rep_notes(ctx),
        "timing_ms": round(ms, 3),
    }
    human = [f"g = {gs}", f"r = {rs}",
             f"summable: {'yes' if res.summable else 'no'}"]
    human += [f"new representative {n}" for n in doc["new_representatives"]]
    human.append(f"time: {ms:.1f} ms")
    code = _emit(args, doc, human)
    if args.require_summable and not res.summable:
        return 1
    return code


def _cmd_param_telescope(args):
    tower = _load_tower(args)
    ctx = ReductionContext(tower)
    fs = [parse_expression(tower, e) for e in args.expr]
    t0 = time.perf_counter()
    basis = parameterized_telescope(ctx, fs)
    ms = (time.perf_counter() - t0) * 1000.0
    rows = [{"coeffs": [format_value(tower, c) for c in row.coeffs],
             "g": format_value(tower, row.certificate)}
            for row in basis]
    doc = {
        "command": args.command,
        "tower": args.tower,
        "inputs": [format_value(tower, f) for f in fs],
        "basis": rows,
        "new_representatives": _rep_notes(ctx),
        "timing_ms": round(ms, 3),
    }
    human = ["basis rows:"]
    for row in rows:
        cs = ", ".join(row["coeffs"])
        human.append(f"  ({cs})  g = {row['g']}")
    human += [f"new representative {n}" for n in doc["new_representatives"]]
    human.append(f"time: {ms:.1f} ms")
    return _emit(args, doc, human)


def _cmd_sigma_check(args):
    tower = _load_tower(args)
    ctx = ReductionContext(tower)
    a = parse_expression(tower, args.expr)
    t0 = time.perf_counter()
    res = sigma_check(ctx, a, args.level)
    ms = (time.perf_counter() - t0) * 1000.0
    gs = format_value(tower, res.g)
    rs = format_value(tower, res.remainder)
    doc = {
        "command": args.command,
        "tower": args.tower,
        "inputs": [format_value(tower, a)],
        "is_sigma_monomial": res.is_sigma_monomial,
        "g": gs,
        "r": rs,
        "timing_ms": round(ms, 3),
    }
    if res.is_sigma_monomial:
        human = ["genuine new level: yes",
                 f"replacement increment r = {rs}",
                 f"g = {gs}"]
    else:
        human = ["genuine new level: no",
                 f"increment telescopes: g = {gs}"]
    human.append(f"time: {ms:.1f} ms")
    return _emit(args, doc, human)


def _tower_listing(spec):
    return [{"name": gen.name, "delta": format_value(spec, gen.delta)}
            for gen in spec.gens]


def _cmd_well_generate(args):
    tower = _load_tower(args)
    ctx = ReductionContext(tower)
    t0 = time.perf_counter()
    new_spec, iso = well_generate(ctx)
    ms = (time.perf_counter() - t0) * 1000.0
    images = {old.name: format_value(new_spec, img)
              for old, img in zip(tower.gens, iso.images)}
    doc = {
        "command": args.command,
        "tower": args.tower,
        "generators": _tower_listing(new_spec),
        "images": images,
        "timing_ms": round(ms, 3),
    }
    human = ["well generated tower:"]
    for row in doc["generators"]:
        human.append(f"  gen {row['name']} : {row['delta']}")
    human.append("images:")
    for name, img in images.items():
        human.append(f"  {name} -> {img}")
    human.append(f"time: {ms:.1f} ms")
    return _emit(args, doc, human)


def _cmd_depth_reduce(args):
    tower = _load_tower(args)
    ctx = ReductionContext(tower)
    f = parse_expression(tower, args.expr)
    t0 = time.perf_counter()
    res = depth_reduce(ctx, f)
    ms = (time.perf_counter() - t0) * 1000.0
    new_spec = res.iso.target
    gs = format_value(new_spec, res.g)
    rs = format_value(new_spec, res.r)
    images = {old.name: format_value(new_spec, img)
              for old, img in zip(tower.gens, res.iso.images)}
    doc = {
        "command": args.command,
        "tower": args.tower,
        "inputs": [format_value(tower, f)],
        "g": gs,
        "r": rs,
        "summable": res.summable,
        "depth_before": res.depth_before,
        "depth_after": res.depth_after,
        "generators": _tower_listing(new_spec),
        "images": images,
        "timing_ms": round(ms, 3),
    }
    human = ["well generated tower:"]
    for row in doc["generators"]:
        human.append(f"  gen {row['name']} : {row['delta']}")
    human += [f"g = {gs}", f"r = {rs}",
              f"summable: {'yes' if res.summable else 'no'}",
              f"nesting depth: {res.depth_before} -> {res.depth_after}",
              f"time: {ms:.1f} ms"]
    code = _emit(args, doc, human)
    if args.require_summable and not res.summable:
        return 1
    return code


def _cmd_verify(args):
    tower = _load_tower(args)
    ctx = ReductionContext(tower)
    f = parse_expression(tower, args.expr)
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
    t0 = time.perf_counter()
    res = telescope(ctx, f)
    report = verify_sigma_pair(tower, f, res, assign, k_from, k_to)
    ms = (time.perf_counter() - t0) * 1000.0
    gs, rs = format_value(tower, res.g), format_value(tower, res.r)
    doc = {
        "command": args.command,
        "tower": args.tower,
        "inputs": [format_value(tower, f)],
        "g": gs,
        "r": rs,
        "summable": res.summable,
        "verification": {
            "range": [k_from, k_to],
            "checked": report.checked,
            "skipped": report.skipped,
            "failures": [[k, str(v)] for k, v in report.failures],
        },
        "timing_ms": round(ms, 3),
    }
    human = [f"g = {gs}", f"r = {rs}",
             f"summable: {'yes' if res.summable else 'no'}",
             f"checked {report.checked} points on {k_from}..{k_to}, "
             f"{report.skipped} skipped, {len(report.failures)} failures"]
    for k, v in report.failures[:10]:
        human.append(f"  k = {k}: residual {v}")
    human.append(f"time: {ms:.1f} ms")
    code = _emit(args, doc, human)
    if report.failures:
        return 2
    if args.require_summable and not res.summable:
        return 1
    return code


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
            p = _random_poly(tower, degree, rng)
            f = tower.delta(p)
            ctx = ReductionContext(tower)
            t0 = time.perf_counter()
            g, r = complete_reduction(ctx, f)
            times.append((time.perf_counter() - t0) * 1000.0)
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
    doc = {
        "command": args.command,
        "tower": args.tower,
        "seed": args.seed,
        "bench": table,
    }
    return _emit(args, doc, human)


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
