"""Spans and counts at sumred's layer boundaries, recorded from outside.

Tracer wraps sumred's functions in place: each name is replaced in every
sumred module that holds it (poly_gcd lives in algebra, sigmafactor and
exprio, for example) and restored when the tracer exits. A wrapper records
a span (label, start, end, parent) in memory, or only bumps a counter for
the hot arithmetic methods. Nothing is recorded while `enabled` is off, so
the benchmark's own input building and output checks stay out of the
numbers. Self time is a span's duration minus the time its child spans
cover.
"""

import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

import sumred.cli  # noqa: F401  (loads every sumred module)
from sumred.algebra import vdepth
from sumred.errors import UnsupportedFactorizationError

# (module, attribute) pairs recorded as spans; the label is the pair unless
# a labeler below refines it.
SPANNED = (
    ("algebra", "poly_gcd"),
    ("algebra", "poly_xgcd"),
    ("algebra", "coprime_split"),
    ("algebra", "modular_residue"),
    ("algebra", "padic_expand"),
    ("tower", "TowerSpec.sigma_poly"),
    ("sigmafactor", "factor_monic"),
    ("sigmafactor", "shift_equivalence"),
    ("reduction", "complete_reduction"),
    ("reduction", "reduce_proper"),
    ("reduction", "reduce_polynomial"),
    ("reduction", "auxiliary_reduction"),
    ("reduction", "ReductionContext.echelon_entry"),
    ("reduction", "ReductionContext.factor"),
    ("reduction", "ReductionContext.classify_den"),
    ("effbasis", "coordinate_of"),
    ("effbasis", "leading_coordinate"),
    ("effbasis", "expand_remainder"),
    ("telescope", "telescope"),
    ("telescope", "parameterized_telescope"),
    ("telescope", "nullspace_basis"),
    ("telescope", "well_generate"),
    ("telescope", "substitute"),
    ("telescope", "depth_reduce"),
    ("sequences", "verify_sigma_pair"),
    ("exprio", "parse_expression"),
    ("exprio", "format_value"),
    ("towerfile", "load_tower_file"),
    ("cli", "main"),
)

# Methods too hot for spans: only their calls are counted, under the label.
COUNTED = (
    ("algebra", "Poly.__mul__", "algebra.Poly.mul.calls"),
    ("algebra", "Poly.divmod", "algebra.Poly.divmod.calls"),
    ("algebra", "RatFunc.__init__", "algebra.RatFunc.init.calls"),
)

_SHORT = {
    "reduction.ReductionContext.echelon_entry": "reduction.echelon_entry",
    "reduction.ReductionContext.factor": "reduction.factor",
    "reduction.ReductionContext.classify_den": "reduction.classify_den",
    "tower.TowerSpec.sigma_poly": "tower.sigma_poly",
}


def _gcd_label(a, b, *_):
    coeffs = a.coeffs or b.coeffs
    if not coeffs or isinstance(coeffs[0], Fraction):
        return "algebra.poly_gcd.d1"
    return "algebra.poly_gcd.d2plus"


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._open = Counter()
        self._notes = []
        self._restore = []

    # -- install / remove ---------------------------------------------------

    def __enter__(self):
        try:
            for mod, attr in SPANNED:
                label = _SHORT.get(f"{mod}.{attr}", f"{mod}.{attr}")
                self._patch(mod, attr, self._spanned(label))
            for mod, attr, label in COUNTED:
                self._patch(mod, attr, self._counted(label))
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc):
        self.enabled = False
        self._unpatch()
        return False

    def _patch(self, mod, attr, make):
        module = sys.modules[f"sumred.{mod}"]
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[name]
            self._restore.append((owner, name, original))
            setattr(owner, name, make(original))
            return
        original = getattr(module, name)
        wrapper = make(original)
        for mname, m in list(sys.modules.items()):
            if mname.startswith("sumred.") and m is not None:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def _unpatch(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, label):
        before, after = _HOOKS.get(label, (None, None))

        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                name = label
                if before is not None:
                    name = before(self, args, kwargs) or label
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(idx)
                self._open[label] += 1
                result = None
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except UnsupportedFactorizationError:
                    if label == "sigmafactor.factor_monic":
                        self.counts["sigmafactor.unsupported.count"] += 1
                    raise
                finally:
                    end = perf_counter()
                    self._open[label] -= 1
                    self._stack.pop()
                    self.spans[idx] = (name, start, end, parent)
                    if after is not None:
                        after(self, args, result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _counted(self, label):
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.enabled:
                    self.counts[label] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    # -- results ------------------------------------------------------------

    def layers(self):
        """Per label: calls, self time and longest span, in ms."""
        durs = [end - start for _n, start, end, _p in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_n, _s, _e, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durs[i]
        out = {}
        for i, (name, _s, _e, _p) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_ms": 0.0,
                                        "max_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += (durs[i] - child[i]) * 1000.0
            row["max_ms"] = max(row["max_ms"], durs[i] * 1000.0)
        return out


def _sigma_before(tracer, args, kwargs):
    tower, _p, depth = args[:3]
    k = args[3] if len(args) > 3 else kwargs.get("k", 1)
    if tracer._open["sigmafactor.factor_monic"]:
        tracer.counts["sigmafactor.factor_monic.sigma_calls"] += 1
    if depth - tower.nparams <= 1:
        return "tower.sigma_poly.l1"
    tracer.counts["tower.sigma_poly.l2plus.steps"] += abs(k)
    return "tower.sigma_poly.l2plus"


def _shift_after(tracer, args, result):
    if result is not None:
        tracer.counts["sigmafactor.shift_equivalence.hits"] += 1


def _reduction_before(tracer, args, kwargs):
    ctx, f = args[0], args[1]
    depth = args[2] if len(args) > 2 else kwargs.get("depth")
    if depth is None:
        depth = vdepth(f)
    if not isinstance(f, Fraction) and depth > ctx.tower.nparams:
        tracer.counts["reduction.complete_reduction.above_params"] += 1
    return None


def _classify_before(tracer, args, kwargs):
    tracer._notes.append(len(args[0].notes))
    return None


def _classify_after(tracer, args, result):
    tracer.counts["reduction.new_representatives.count"] += (
        len(args[0].notes) - tracer._notes.pop())


# label -> (before, after). before(tracer, args, kwargs) may return a finer
# label; after(tracer, args, result) also runs when the call raised, with
# result None.
_HOOKS = {
    "algebra.poly_gcd": (lambda t, a, k: _gcd_label(*a), None),
    "tower.sigma_poly": (_sigma_before, None),
    "sigmafactor.shift_equivalence": (None, _shift_after),
    "reduction.complete_reduction": (_reduction_before, None),
    "reduction.classify_den": (_classify_before, _classify_after),
}
