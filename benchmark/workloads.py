"""The four workloads and the loop that times them.

A workload builds its inputs from the seed (untimed), runs one operation
per input through sumred's public functions (timed), and checks the output
(untimed). An operation is timed in CPU time, and between operations the
loop times the fixed computation of clock.reference_seconds(), so that each
operation's time can be given at the reference speed (see clock.py). Every
operation also runs under a wall-clock time limit; one that runs past it
counts as failed, and, except in the long-lived session, the state it ran
in is thrown away.
"""

import contextlib
import io
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter

from sumred import cli
from sumred.algebra import lift
from sumred.errors import SummationError
from sumred.exprio import parse_expression
from sumred.reduction import ReductionContext
from sumred.telescope import depth_reduce, parameterized_telescope, telescope
from sumred.towerfile import load_tower_file

import checks
import clock
import inputs

# Per-input time limit, in wall-clock seconds. Every operation of the
# generated mixes ends within 0.5 s (see inputs.py for the sizes left out
# for run length), so the limit only stops an operation that has become
# about twenty times slower, and a run still ends in time.
LIMIT_S = 10.0

# Rounds of inputs in one session context (see Session).
SESSION_ROUNDS = 2

TOWERS = {
    "poly": ("bench.tower",),
    "session": ("nested.tower",),
    "oneshot": ("nested.tower",),
    "creative": ("creative.tower", "nested.tower"),
}


class OpTimeout(BaseException):
    """An operation ran past the per-input time limit.

    A BaseException, like KeyboardInterrupt, so that no handler inside the
    program mistakes it for an error of its own.
    """


@contextlib.contextmanager
def time_limit(seconds):
    def fire(_signum, _frame):
        raise OpTimeout

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class Workload:
    """Input stream, timed operation and output check of one workload.

    check(item, out) returns (failure, problems): failure names a typed
    failure the output reports (only `sumred verify` output can), problems
    lists what is wrong with the output. Inputs come in rounds of `round`
    operations that hold the same mix on every seed.
    """

    def __init__(self, root, seed):
        self.paths = {name: str(root / "towers" / name)
                      for name in TOWERS[self.name]}
        self.texts = {name: inputs.TowerText((root / "towers" / name)
                                             .read_text())
                      for name in TOWERS[self.name]}
        self.reset()

    def reset(self):
        """Fresh program state: towers reloaded, contexts dropped."""
        self.towers = {name: load_tower_file(path)
                       for name, path in self.paths.items()}

    def timed_out(self):
        """Throw away the state an operation ran in when it timed out."""
        self.reset()

    def _reduction_input(self, tower, case):
        f = tower.delta(parse_expression(tower, case.v))
        if not case.summable:
            f = f + lift(Fraction(case.c), tower.full_depth) * (
                parse_expression(tower, case.r0))
        return f


class Poly(Workload):
    name = "poly"
    round = 3 * len(inputs.POLY_DEGREES)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.stream = inputs.poly_cases(self.texts["bench.tower"], seed)

    def next_item(self):
        case = next(self.stream)
        tower = self.towers["bench.tower"]
        return case, self._reduction_input(tower, case)

    def run(self, item):
        return telescope(ReductionContext(self.towers["bench.tower"]), item[1])

    def check(self, item, out):
        case, f = item
        return None, checks.reduction(self.towers["bench.tower"], case, f, out)


class Session(Workload):
    """Sessions of SESSION_ROUNDS rounds of inputs, each in one long-lived
    context; a run makes as many whole sessions as its time allows, so a
    slower machine runs fewer sessions, not shorter ones. When a session
    starts, it reduces r0 and 1/q for every pool irreducible q, which makes
    q its class representative, as seeding representatives would."""

    name = "session"
    round = SESSION_ROUNDS * 3 * len(inputs.LEVEL2_SHIFTS)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.stream = inputs.session_cases(self.texts["nested.tower"], seed)
        self.served = 0

    def reset(self):
        super().reset()
        tower = self.towers["nested.tower"]
        self.ctx = ReductionContext(tower)
        r0 = parse_expression(tower, inputs.R0["session"])
        self.r0_remainder = telescope(self.ctx, r0).r
        for q in inputs.LEVEL1_POOL + inputs.LEVEL2_POOL:
            telescope(self.ctx, parse_expression(tower, f"1/({q})"))

    def timed_out(self):
        # The context lives on: its caches keep only finished results, so
        # an interrupted operation leaves it valid.
        pass

    def next_item(self):
        if self.served and self.served % self.round == 0:
            self.reset()
        self.served += 1
        case = next(self.stream)
        tower = self.towers["nested.tower"]
        return case, self._reduction_input(tower, case)

    def run(self, item):
        return telescope(self.ctx, item[1])

    def check(self, item, out):
        case, f = item
        tower = self.towers["nested.tower"]
        expected = None
        if not case.summable:
            expected = lift(Fraction(case.c), tower.full_depth) * (
                self.r0_remainder)
        return None, checks.reduction(tower, case, f, out, expected)


class Oneshot(Workload):
    """The session distribution, each input through `sumred verify`."""

    name = "oneshot"
    round = 3 * len(inputs.LEVEL2_SHIFTS)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.stream = inputs.session_cases(self.texts["nested.tower"], seed)

    def next_item(self):
        case = next(self.stream)
        tower = self.towers["nested.tower"]
        text = case.text(self.texts["nested.tower"])
        return case, self._reduction_input(tower, case), text

    def run(self, item):
        argv = ["verify", "--tower", self.paths["nested.tower"],
                "--expr", item[2], "--json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, item, out):
        case, f, _text = item
        return checks.verify_output(self.towers["nested.tower"], case, f,
                                    *out)


class Creative(Workload):
    """Parameterized telescoping on creative.tower alternating with
    depth_reduce on nested.tower, each problem in a fresh context."""

    name = "creative"
    round = len(inputs.CREATIVE_PROBLEMS) * (1 + inputs.DEPTH_PER_PARAM)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.stream = inputs.creative_items(self.texts["nested.tower"], seed)

    def next_item(self):
        kind, payload = next(self.stream)
        if kind == "param":
            tower = self.towers["creative.tower"]
            return kind, [parse_expression(tower, t) for t in payload]
        return kind, parse_expression(self.towers["nested.tower"], payload)

    def run(self, item):
        kind, payload = item
        if kind == "param":
            ctx = ReductionContext(self.towers["creative.tower"])
            return parameterized_telescope(ctx, payload)
        return depth_reduce(ReductionContext(self.towers["nested.tower"]),
                            payload)

    def check(self, item, out):
        kind, payload = item
        if kind == "param":
            return None, checks.param_basis(self.towers["creative.tower"],
                                            payload, out)
        return None, checks.depth_reduced(self.towers["nested.tower"],
                                          payload, out)


WORKLOADS = {w.name: w for w in (Poly, Session, Oneshot, Creative)}

# Operations a timed run makes at least, so that its p90 has ten beyond it.
MIN_OPS = 100

# Reference timings on each side of an operation whose median sets its
# speed. The host's speed changes from one operation to the next, so the
# window is kept to two timings before and two after (see README.md).
SPEED_WINDOW = 1


class Tally:
    """Outcomes of a list of operations, each (index, outcome, seconds,
    problems); outcome is "certified", "timeout", "wrong" or the name of
    a typed SummationError, and seconds the operation's CPU time at the
    reference speed.

    refs holds clock.reference_seconds() before each operation and after
    the last. An operation's CPU time is scaled by clock.REFERENCE_S over
    the median of the reference timings around it, which follows the
    host's speed as it changes within a run.
    """

    def __init__(self, ops, refs):
        self.speed = [
            clock.REFERENCE_S / statistics.median(
                refs[max(0, k - SPEED_WINDOW):k + SPEED_WINDOW + 2])
            for k in range(len(ops))]
        ops = [(i, out, t * f, p) for (i, out, t, p), f
               in zip(ops, self.speed)]
        self.ops = ops
        self.attempted = len(ops)
        self.latencies = [t for _i, out, t, _p in ops if out == "certified"]
        self.certified = len(self.latencies)
        self.busy = sum(t for _i, _o, t, _p in ops)
        self.timeouts = [i for i, out, _t, _p in ops if out == "timeout"]
        self.wrong = [(i, p) for i, out, _t, p in ops if out == "wrong"]
        self.typed = self.attempted - self.certified - len(
            self.timeouts) - len(self.wrong)
        # seconds of every operation that ran to its end
        self.completed_time = {i: t for i, out, t, _p in ops
                               if out != "timeout"}

    @property
    def failed(self):
        return self.attempted - self.certified


def run_pass(wl, limit, *, seconds=None, count=None, tracer=None):
    """Run `count` operations, or whole rounds of them for `seconds` of
    wall time, each under the time limit `limit`.

    With `seconds`, operations run until the time is up and at least
    MIN_OPS are done; only whole rounds are counted, so every run on every
    seed counts the same mix.
    """
    ops = []
    refs = [clock.reference_seconds()]
    deadline = None if seconds is None else perf_counter() + seconds
    least = -(-MIN_OPS // wl.round) * wl.round
    i = 0
    while (i < count if count is not None
           else perf_counter() < deadline or i < least):
        try:
            # building an input runs the program's parser and arithmetic
            with time_limit(limit):
                item = wl.next_item()
        except OpTimeout:
            item = None
        ops.append(_run_one(wl, i, item, limit, tracer))
        refs.append(clock.reference_seconds())
        i += 1
    if count is None:
        ops = ops[:len(ops) // wl.round * wl.round]
    return Tally(ops, refs[:len(ops) + 1])


def _run_one(wl, i, item, limit, tracer):
    out = None
    outcome = None
    problems = []
    t0 = clock.cpu_seconds()
    try:
        if item is None:
            raise OpTimeout
        if tracer is not None:
            tracer.enabled = True
        with time_limit(limit):
            out = wl.run(item)
    except OpTimeout:
        outcome = "timeout"
    except SummationError as e:
        outcome = type(e).__name__
    except Exception as e:  # an untyped crash is a wrong output
        outcome = "wrong"
        problems = [f"{type(e).__name__}: {e}"]
    finally:
        if tracer is not None:
            tracer.enabled = False
    dt = clock.cpu_seconds() - t0
    if outcome == "timeout":
        wl.timed_out()
    if outcome is None:
        outcome, problems = wl.check(item, out)
        outcome = "wrong" if problems else outcome or "certified"
    return i, outcome, dt, problems


def report_wrong(name, tally, file=sys.stderr):
    for i, problems in tally.wrong[:20]:
        print(f"{name}: wrong output at operation {i}: {'; '.join(problems)}",
              file=file)
