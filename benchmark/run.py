"""Benchmark of sumred: one workload per run, every metric by name and unit.

    python3 benchmark/run.py --workload poly --seed 1 --seconds 25 --trace 0

Run from the repository root. With --trace 0 the run times operations for
--seconds seconds of wall time and reports the end-to-end metrics; with
--trace 1 it runs a fixed number of operations twice, untraced and traced,
and reports the per-layer metrics. Times are CPU times at the reference
speed (see clock.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See benchmark/README.md.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import clock

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("poly", "session", "oneshot", "creative")

# Operations per pass of a traced run: a fixed number of whole rounds (see
# workloads.py), so that two traced runs on one seed do exactly the same
# work.
TRACE_OPS = {"poly": 54, "session": 42, "oneshot": 42, "creative": 56}

# Set-up is timed this many times, each in a fresh interpreter; the run
# reports the median.
SETUP_REPEATS = 7

# Prints the set-up's CPU time and the median of six reference timings
# made around it.
_SETUP_CHILD = """\
import statistics, sys
sys.path[:0] = sys.argv[1:3]
from clock import cpu_seconds, reference_seconds
refs = [reference_seconds() for _ in range(3)]
t0 = cpu_seconds()
import sympy, sumred.cli
from sumred.towerfile import load_tower_file
for path in sys.argv[3:]:
    load_tower_file(path)
dt = cpu_seconds() - t0
refs += [reference_seconds() for _ in range(3)]
print(dt, statistics.median(refs))
"""


def main(argv=None):
    args = _parse_args(argv)
    src = ROOT / "src"
    missing = [p for p in (src / "sumred" / "__init__.py", ROOT / "towers")
               if not p.exists()]
    if missing:
        print(f"benchmark: run it from a sumred checkout; missing "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    tower_paths = [str(ROOT / "towers" / name)
                   for name in workloads.TOWERS[args.workload]]
    setups = [] if args.trace else [_setup_in_child(src, tower_paths)
                                    for _ in range(SETUP_REPEATS)]
    # the factorizer imports sympy on first use; import it untimed
    import sympy  # noqa: F401

    limit = workloads.LIMIT_S
    if args.trace:
        result = _traced(args, workloads, limit)
    else:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
        tally = workloads.run_pass(wl, limit, seconds=args.seconds)
        workloads.report_wrong(args.workload, tally)
        result = _result(tally, _end_to_end(tally, setups))
    print(json.dumps(result))
    return 0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_in_child(src, tower_paths):
    """Set-up CPU seconds in a fresh interpreter, at the reference speed."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(src), str(HERE),
         *tower_paths],
        capture_output=True, text=True, check=True, timeout=120)
    dt, ref = map(float, proc.stdout.split())
    return dt * clock.REFERENCE_S / ref


def _result(tally, metrics):
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def _quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _end_to_end(tally, setups):
    # with no certified operation, the time of the failed ones stands in
    lat_ms = [t * 1000.0 for t in tally.latencies
              or [t for _i, _o, t, _p in tally.ops]]
    print(f"operations {tally.attempted}: certified {tally.certified}, "
          f"typed failures {tally.typed}, timeouts {len(tally.timeouts)}, "
          f"wrong {len(tally.wrong)}; p90 has "
          f"{len(lat_ms) - int(0.9 * len(lat_ms))} samples above it; "
          f"host slowdown against the reference speed: median "
          f"{1 / statistics.median(tally.speed):.3f}, range "
          f"{1 / max(tally.speed):.3f} to {1 / min(tally.speed):.3f}",
          file=sys.stderr)
    attempted = max(tally.attempted, 1)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _m(statistics.median(setups), "s"),
        "latency_ms.p50": _m(_quantile(lat_ms, 0.5), "ms"),
        "latency_ms.p90": _m(_quantile(lat_ms, 0.9), "ms"),
        "throughput_ops_s": _m(tally.certified / tally.busy, "1/s"),
        "certified_ratio": _m(tally.certified / attempted, "ratio"),
        "check_ok_ratio": _m(1 - len(tally.wrong) / attempted, "ratio"),
        "peak_rss_mb": _m(peak_kb / 1024.0, "MB"),
    }


def _m(value, unit):
    return {"value": value, "unit": unit}


def _traced(args, workloads, limit):
    """Untraced pass, then the same operations traced; per-layer metrics."""
    import spans

    count = TRACE_OPS[args.workload]
    plain = workloads.run_pass(
        workloads.WORKLOADS[args.workload](ROOT, args.seed), limit,
        count=count)
    with spans.Tracer() as tracer:
        traced = workloads.run_pass(
            workloads.WORKLOADS[args.workload](ROOT, args.seed), limit,
            count=count, tracer=tracer)
    for tally in (plain, traced):
        workloads.report_wrong(args.workload, tally)
    both = [i for i in traced.completed_time if i in plain.completed_time]
    overhead = (sum(traced.completed_time[i] for i in both)
                / sum(plain.completed_time[i] for i in both))
    result = _result(plain, per_layer(tracer, overhead))
    result["correct"] = not plain.wrong and not traced.wrong
    return result


# Per-layer metrics reported by a traced run, each with its unit.
LAYER_METRICS = (
    ("algebra.poly_gcd.d1.calls", "count"),
    ("algebra.poly_gcd.d1.self_ms", "ms"),
    ("algebra.Poly.mul.calls", "count"),
    ("algebra.Poly.divmod.calls", "count"),
    ("algebra.RatFunc.init.calls", "count"),
    ("algebra.poly_gcd.d2plus.calls", "count"),
    ("algebra.poly_gcd.d2plus.self_ms", "ms"),
    ("algebra.poly_gcd.d2plus.max_ms", "ms"),
    ("algebra.poly_xgcd.self_ms", "ms"),
    ("algebra.coprime_split.self_ms", "ms"),
    ("algebra.modular_residue.self_ms", "ms"),
    ("algebra.padic_expand.self_ms", "ms"),
    ("tower.sigma_poly.l1.calls", "count"),
    ("tower.sigma_poly.l1.self_ms", "ms"),
    ("tower.sigma_poly.l2plus.calls", "count"),
    ("tower.sigma_poly.l2plus.steps", "count"),
    ("tower.sigma_poly.l2plus.self_ms", "ms"),
    ("sigmafactor.factor_monic.calls", "count"),
    ("sigmafactor.factor_monic.self_ms", "ms"),
    ("sigmafactor.factor_monic.max_ms", "ms"),
    ("sigmafactor.factor_monic.sigma_calls", "count"),
    ("sigmafactor.shift_equivalence.calls", "count"),
    ("sigmafactor.shift_equivalence.self_ms", "ms"),
    ("sigmafactor.shift_equivalence.hit_ratio", "ratio"),
    ("sigmafactor.unsupported.count", "count"),
    ("reduction.complete_reduction.calls", "count"),
    ("reduction.reduce_proper.self_ms", "ms"),
    ("reduction.reduce_polynomial.self_ms", "ms"),
    ("reduction.auxiliary_reduction.self_ms", "ms"),
    ("reduction.echelon_entry.self_ms", "ms"),
    ("reduction.memo.hit_ratio", "ratio"),
    ("reduction.classify.hit_ratio", "ratio"),
    ("reduction.factor.hit_ratio", "ratio"),
    ("reduction.new_representatives.count", "count"),
    ("effbasis.coordinate_of.calls", "count"),
    ("effbasis.coordinate_of.self_ms", "ms"),
    ("effbasis.leading_coordinate.calls", "count"),
    ("effbasis.leading_coordinate.self_ms", "ms"),
    ("effbasis.expand_remainder.calls", "count"),
    ("effbasis.expand_remainder.self_ms", "ms"),
    ("telescope.parameterized_telescope.self_ms", "ms"),
    ("telescope.nullspace_basis.self_ms", "ms"),
    ("telescope.well_generate.self_ms", "ms"),
    ("telescope.substitute.self_ms", "ms"),
    ("sequences.verify_sigma_pair.self_ms", "ms"),
    ("exprio.parse_expression.self_ms", "ms"),
    ("exprio.format_value.self_ms", "ms"),
    ("towerfile.load_tower_file.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer(tracer, overhead):
    layers = tracer.layers()
    counts = tracer.counts

    def calls(label):
        return layers.get(label, {}).get("calls", 0)

    def one_minus(part, whole):
        return 1.0 - part / whole if whole else 0.0

    values = dict(counts)
    for label, row in layers.items():
        for key, val in row.items():
            values[f"{label}.{key}"] = val
    values["sigmafactor.shift_equivalence.hit_ratio"] = (
        counts["sigmafactor.shift_equivalence.hits"]
        / calls("sigmafactor.shift_equivalence")
        if calls("sigmafactor.shift_equivalence") else 0.0)
    values["reduction.memo.hit_ratio"] = one_minus(
        calls("reduction.reduce_proper"),
        counts["reduction.complete_reduction.above_params"])
    values["reduction.classify.hit_ratio"] = one_minus(
        calls("reduction.factor"), calls("reduction.classify_den"))
    values["reduction.factor.hit_ratio"] = one_minus(
        calls("sigmafactor.factor_monic"), calls("reduction.factor"))
    values["trace.overhead_ratio"] = overhead
    return {name: _m(values.get(name, 0), unit)
            for name, unit in LAYER_METRICS}


if __name__ == "__main__":
    sys.exit(main())
