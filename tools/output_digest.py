"""One digest per workload and seed over the printed results of the
benchmark's operations.

    python3 tools/output_digest.py [--root CHECKOUT] [--seeds 900,101]
                                   [--workloads session,oneshot]

For each workload (all four unless --workloads names some) and seed this
builds the benchmark's own inputs with the checkout's
benchmark/workloads.py, which it imports and does not change, runs a fixed
number of whole rounds of operations through the checkout's sumred, and
prints one SHA-256 over what they print:

 * poly and session: g and r of each telescope result;
 * creative: the coefficients and certificate of each basis row, and g, r,
   the nesting depths and the rebuilt generators of each depth_reduce
   result;
 * oneshot: the `sumred verify --json` document, with its timing_ms and
   the checkout's path masked;
 * every workload: the notes of each ReductionContext the operation makes
   outside sumred.reduction (captured by wrapping the checkout's
   ReductionContext.__init__; a context the reduction module makes for
   its own bookkeeping is not the operation's) and of session's
   long-lived context, one `level N: <poly>` per new
   representative. A context that took a class it should have noted from
   another context prints the same g and r, but not the same notes.

One more line, `proper <digest>`, covers proper parts the workloads do not
reach: g, r and notes of the multi-piece cases of
tests/test_reduction_goldens.py and of sigma^k(1/t1) - 1/t1 on
harmonic.tower for 1 <= |k| <= 12, each in a fresh context, and of the
values of test_proper_part_matches_the_stepping_chain (4 to 6 pieces over
two classes per level, seed 1818), one context per tower as in the test.
The test files are read from this script's checkout.

The line `deep <digest>` covers towers of more than 3 levels, which no
workload builds: g, r and notes of `telescope` on the inputs of DEEP, on
towers/hsums4.tower (8 levels) and on x with s_i : 1/(x+1)^i for
i = 1..8 (9 levels), each in a fresh context.

A typed failure is printed as its class name. Two checkouts give equal
digests when their operations print the same results. To compare a change
with its parent, unpack the parent into a directory of its own and point
--root at it (this script need not exist there):

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/output_digest.py --root ../parent
    python3 tools/output_digest.py
"""

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

# Operations per digest: whole rounds of each workload's input mix (two
# whole sessions for session).
OPS = {"poly": 54, "session": 84, "oneshot": 42, "creative": 56}

_TIMING = re.compile(r'"timing_ms": [0-9.e+-]+')

# The deep line's inputs per tower; None is the 9-level tower of s_i.
DEEP = (
    ("hsums4.tower", (
        "s1/(x+1)", "1/x", "s11/(x+2)^2", "s1^2/(x+1) + s111",
        "(s12 + s11)/(x+1)^2", "s121*s1/(x+1)", "(s1 + 1/(x+1))/(s11 + x)",
        "s1111/(x+1) - s112/(x+3)", "1/(x^2 + 1) - 1/(x^2 + 2*x + 2)")),
    (None, (
        "1/(x+1)^5", "s3/(x+1) + s8", "s1*s2/(x+1)^3", "1/x - s7",
        "(s1 + 1/(x+1))/(s2/(x+2)^2 + x)", "s8^2/(x+1)^8 + s4/(x+5)",
        "s2/(x+1)^6 - s6/(x+1)^2")),
)


def _printed(wl, item, out, root):
    from sumred.exprio import format_value

    name = wl.name
    if name in ("poly", "session"):
        tower = wl.towers[next(iter(wl.towers))]
        return [format_value(tower, out.g), format_value(tower, out.r)]
    if name == "oneshot":
        code, doc = out
        return [str(code), _TIMING.sub('"timing_ms": _', doc).replace(
            str(root), "<root>")]
    if item[0] == "param":
        tower = wl.towers["creative.tower"]
        return [[format_value(tower, c) for c in row.coeffs]
                + [format_value(tower, row.certificate)] for row in out]
    target = out.iso.target
    gens = [[gen.name, format_value(target, gen.delta)]
            for gen in target.gens]
    return [format_value(target, out.g), format_value(target, out.r),
            out.depth_before, out.depth_after, gens]


def _notes(ctx):
    from sumred.exprio import format_poly

    tower = ctx.tower
    return [f"level {level}: "
            + format_poly(tower, irr, tower.depth_of_level(level))
            for level, irr in ctx.notes]


def digest(workloads, root, name, seed):
    """SHA-256 over the printed results and the contexts' notes of
    OPS[name] operations."""
    from sumred.errors import SummationError
    from sumred.reduction import ReductionContext

    made = []
    init = ReductionContext.__init__

    def recording_init(ctx, *args, **kwargs):
        init(ctx, *args, **kwargs)
        if sys._getframe(1).f_globals["__name__"] != "sumred.reduction":
            made.append(ctx)

    ReductionContext.__init__ = recording_init
    try:
        wl = workloads.WORKLOADS[name](root, seed)
        sha = hashlib.sha256()
        for _ in range(OPS[name]):
            item = wl.next_item()
            del made[:]
            try:
                printed = _printed(wl, item, wl.run(item), root)
            except SummationError as e:
                printed = type(e).__name__
            used = made + ([wl.ctx] if name == "session" else [])
            sha.update(json.dumps([printed, [_notes(ctx) for ctx in used]])
                       .encode() + b"\n")
    finally:
        ReductionContext.__init__ = init
    return sha.hexdigest()


def proper_digest(root):
    """SHA-256 over g, r and the notes of the fixed proper-part cases."""
    from sumred.exprio import format_value
    from sumred.reduction import (ReductionContext, complete_reduction,
                                  reduce_proper)
    from sumred.towerfile import load_tower_file
    from conftest import H_TOWER, N_TOWER, P_TOWER
    from test_reduction import chain_values
    from test_reduction_goldens import MULTI_CASES, multi_value

    # sigma^k(1/t1) - 1/t1 as two pieces
    shifts = [("harmonic.tower", (("1", "t1", k, 1), ("-1", "t1", 0, 1)))
              for j in range(1, 13) for k in (j, -j)]
    sha = hashlib.sha256()
    for name, pieces in list(MULTI_CASES) + shifts:
        tower = load_tower_file(root / "towers" / name)
        ctx = ReductionContext(tower)
        g, r = complete_reduction(ctx, multi_value(tower, pieces))
        sha.update(json.dumps([format_value(tower, g), format_value(tower, r),
                               _notes(ctx)]).encode() + b"\n")
    for tower in (H_TOWER, N_TOWER, P_TOWER):
        ctx = ReductionContext(tower)
        for _depth, f in chain_values(tower, ctx):
            g, r = reduce_proper(ctx, f)
            sha.update(json.dumps([format_value(tower, g),
                                   format_value(tower, r), _notes(ctx)])
                       .encode() + b"\n")
    return sha.hexdigest()


def deep_digest(root):
    """SHA-256 over g, r and the notes of telescope on each input of DEEP."""
    from sumred.exprio import format_value, parse_expression
    from sumred.reduction import ReductionContext
    from sumred.telescope import telescope
    from sumred.towerfile import load_tower_file, parse_tower_text

    sha = hashlib.sha256()
    for name, texts in DEEP:
        tower = (load_tower_file(root / "towers" / name) if name else
                 parse_tower_text("gen x : 1\nseed x : x\n" + "".join(
                     f"gen s{i} : 1/(x+1)^{i}\n" for i in range(1, 9))))
        for text in texts:
            ctx = ReductionContext(tower)
            res = telescope(ctx, parse_expression(tower, text))
            sha.update(json.dumps([format_value(tower, res.g),
                                   format_value(tower, res.r), _notes(ctx)])
                       .encode() + b"\n")
    return sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve()
                                               .parent.parent),
                        help="the sumred checkout to run (default: this one)")
    parser.add_argument("--seeds", default="900,101")
    parser.add_argument("--workloads", default=",".join(OPS),
                        help="comma-separated workloads (default: all)")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = [name for name in names if name not in OPS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    root = Path(args.root).resolve()
    sys.dont_write_bytecode = True  # leave the checkout as it is
    sys.path[:0] = [str(root / "src"), str(root / "benchmark")]
    sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
    import workloads

    for name in names:
        for seed in args.seeds.split(","):
            print(name, seed, digest(workloads, root, name, int(seed)),
                  flush=True)
    print("proper", proper_digest(root), flush=True)
    print("deep", deep_digest(root), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
