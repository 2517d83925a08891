"""Output checks against how each input was built.

Every check returns a list of problems; an empty list means the output is
right. The benchmark counts an output with problems as wrong, never drops it.
"""

import json
from fractions import Fraction

from sumred import errors
from sumred.algebra import lift
from sumred.errors import SummationError
from sumred.exprio import parse_expression


def _is_zero(v):
    return v == 0 if isinstance(v, Fraction) else v.is_zero()


def sigma_pair(tower, f, g, r):
    """f = sigma(g) - g + r, exactly."""
    top = tower.lift_to_top
    if top(f) != tower.delta(top(g)) + top(r):
        return ["sigma-pair identity f = sigma(g) - g + r fails"]
    return []


def verdict(case, r, expected_r=None):
    """r = 0 for Delta(v), r != 0 for Delta(v) + c*r0, and r equal to
    expected_r (the remainder of c*r0) when that is given."""
    if case.summable:
        return [] if _is_zero(r) else ["summable input left a remainder"]
    if _is_zero(r):
        return ["non-summable input was reported summable"]
    if expected_r is not None and r != expected_r:
        return ["remainder differs from the remainder of c*r0"]
    return []


def reduction(tower, case, f, res, expected_r=None):
    """A TelescopeResult for the input f built from case."""
    out = sigma_pair(tower, f, res.g, res.r)
    out += verdict(case, res.r, expected_r)
    if res.summable != _is_zero(res.r):
        out.append("summable flag disagrees with r")
    return out


def param_basis(tower, fs, basis):
    """Every row satisfies sum c_l f_l = Delta(g)."""
    top = tower.lift_to_top
    out = []
    for i, row in enumerate(basis):
        combo = top(Fraction(0))
        for c, f in zip(row.coeffs, fs):
            combo = combo + lift(c, tower.full_depth) * top(f)
        if combo != tower.delta(top(row.certificate)):
            out.append(f"row {i}: sum c_l f_l != Delta(g)")
    if len(basis) < 1 or any(len(row.coeffs) != len(fs) for row in basis):
        out.append("basis rows have the wrong shape")
    return out


def depth_reduced(tower, f, res):
    """iso(f) = sigma(g) - g + r in the rebuilt tower, and the nesting
    depth does not grow."""
    out = sigma_pair(res.iso.target, res.iso.apply(tower.lift_to_top(f)),
                     res.g, res.r)
    if res.depth_after > res.depth_before:
        out.append("depth_reduce raised the nesting depth")
    if res.summable != _is_zero(res.r):
        out.append("summable flag disagrees with r")
    return out


def verify_output(tower, case, f, code, stdout):
    """The JSON of `sumred verify`: (failure type or None, problems).

    Exit 2 with a typed SummationError document is a failure, not a wrong
    output. Otherwise the exit code must be 0, the pointwise check clean,
    and g, r parsed back from the JSON must pass the reduction checks.
    """
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None, [f"exit {code}: output is not JSON"]
    err = doc.get("error")
    if err is not None:
        if code == 2 and _is_summation_error(err.get("type")):
            return err["type"], []
        return None, [f"exit {code}: untyped error {err.get('type')}"]
    out = []
    if code != 0:
        out.append(f"exit {code} without an error document")
    if doc.get("verification", {}).get("failures"):
        out.append("pointwise verification reported failures")
    try:
        g = parse_expression(tower, doc["g"])
        r = parse_expression(tower, doc["r"])
    except (KeyError, SummationError) as e:
        return None, out + [f"g or r does not parse back: {e}"]
    out += sigma_pair(tower, f, g, r)
    out += verdict(case, r)
    if doc.get("summable") != _is_zero(r):
        out.append("summable field disagrees with r")
    return None, out


def _is_summation_error(name):
    cls = getattr(errors, name or "", None)
    return isinstance(cls, type) and issubclass(cls, SummationError)
