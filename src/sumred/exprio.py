"""Expression text format: a small arithmetic grammar and a canonical printer.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-')* base ('^' exponent)?
    base   := INT | NAME | '(' expr ')'
    exponent := INT | '-' INT | '(' '-'? INT ')'

NAME resolves against the tower's parameters and generators. Each
sub-expression is built at the depth it needs: an integer is a Fraction at
depth 0, a name the variable at its own depth, and an operator lifts only
its shallower operand to the depth of the deeper one. The result is lifted
once, to the tower's full depth. lift is a ring embedding and canonical
forms are unique, so this is the value that arithmetic at full depth on
lifted atoms gives, with the same representation. The integer cap is
checked on every depth-0 intermediate as frac_at checks it, and a depth-0
power the cap would refuse is refused before it is built; values above
depth 0 are checked by the polynomials they build.

The printer emits descending powers at every level with the convention that
parse(format(v)) == v, which together with the reduced canonical form of
values makes printed strings usable as equality certificates.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction

from .algebra import (RatFunc, _is_zero_val, frac_at, frac_pow, lift, lower,
                      poly_gcd, vdepth)
from .errors import IntegerLimitError, ParseError


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")

_ATOM_DEN = re.compile(r"(?:\d+|[A-Za-z_][A-Za-z0-9_]*(?:\^\d+)?)\Z")


def parse_expression(tower, text):
    """Parse text into a value at the tower's full depth."""
    return _Parser(tower, text).run()


class _Parser:
    def __init__(self, tower, text):
        self.tower = tower
        self.text = text
        self.pos = 0
        self.tok = None
        self.tok_pos = 0
        self._advance()

    def run(self):
        v = self._expr()
        if self.tok is not None:
            raise ParseError(f"unexpected {self.tok!r}", position=self.tok_pos + 1)
        return lift(v, self.tower.full_depth)

    def _advance(self):
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos:].lstrip()
            if rest:
                raise ParseError(f"bad character {rest[0]!r}",
                                 position=self.pos + 1)
            self.tok = None
            self.tok_pos = len(self.text)
            return
        self.tok_pos = m.start(m.lastindex)
        self.tok = m.group(m.lastindex)
        self.pos = m.end()

    def _expect(self, what):
        raise ParseError(f"expected {what}, found "
                         + (f"{self.tok!r}" if self.tok is not None else "end of input"),
                         position=self.tok_pos + 1)

    def _expr(self):
        v = self._term()
        while self.tok in ("+", "-"):
            op = self.tok
            self._advance()
            v = _combine(_OPS[op], v, self._term())
        return v

    def _term(self):
        v = self._factor()
        while self.tok in ("*", "/"):
            op = self.tok
            pos = self.tok_pos
            self._advance()
            w = self._factor()
            if op == "/" and _is_zero_val(w):
                raise ParseError("division by zero", position=pos + 1)
            v = _combine(_OPS[op], v, w)
        return v

    def _factor(self):
        sign = 1
        while self.tok in ("+", "-"):
            if self.tok == "-":
                sign = -sign
            self._advance()
        v = self._base()
        if self.tok == "^":
            pos = self.tok_pos
            self._advance()
            n = self._exponent()
            if n < 0 and _is_zero_val(v):
                raise ParseError("zero raised to a negative power", position=pos + 1)
            v = v ** n if vdepth(v) else frac_pow(v, n)
        return v if sign > 0 else -v

    def _base(self):
        tok = self.tok
        if tok is None:
            self._expect("a value")
        if tok == "(":
            self._advance()
            v = self._expr()
            if self.tok != ")":
                self._expect("')'")
            self._advance()
            return v
        if tok.isdigit():
            self._advance()
            return frac_at(Fraction(_text_int(tok)), 0)
        if tok[0].isalpha() or tok[0] == "_":
            try:
                var = self.tower.var(tok)
            except KeyError:
                raise ParseError(f"unknown variable {tok!r}",
                                 position=self.tok_pos + 1) from None
            self._advance()
            return var
        self._expect("a value")

    def _exponent(self):
        neg = False
        closing = False
        if self.tok == "(":
            closing = True
            self._advance()
        if self.tok == "-":
            neg = True
            self._advance()
        if self.tok is None or not self.tok.isdigit():
            self._expect("an integer exponent")
        n = _text_int(self.tok)
        self._advance()
        if closing:
            if self.tok != ")":
                self._expect("')'")
            self._advance()
        return -n if neg else n


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}


def _combine(op, v, w):
    """op(v, w) with the shallower operand lifted to the depth of the
    other; a result at depth 0 is checked against the integer cap."""
    dv, dw = vdepth(v), vdepth(w)
    if dv < dw:
        v = lift(v, dw)
    elif dw < dv:
        w = lift(w, dv)
    elif not dv:
        return frac_at(op(v, w), 0)
    return op(v, w)


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------


def format_value(tower, v):
    """Canonical text for a value; parse_expression inverts it exactly."""
    s, _kind = _fmt(v, tower.names)
    return s


def format_poly(tower, p, depth):
    """Canonical text for a bare polynomial in the depth-level variable."""
    if p.is_zero():
        return "0"
    s, _kind = _fmt_poly(p, depth, tower.names)
    return s


# kinds order the need for parentheses: an ATOM never needs them, a PROD
# needs them only under '/' or '^', a SUM under any product, NEG under products
_ATOM, _NEG, _PROD, _SUM = 0, 1, 2, 3


def _fmt(v, names):
    if isinstance(v, Fraction):
        return _fmt_fraction(v)
    if v.den.is_one():
        return _fmt_poly(v.num, v.depth, names)
    num, den = _cleared_pair(v.num, v.den, v.depth)
    n_s, n_k = _fmt_poly(num, v.depth, names)
    d_s, _d_k = _fmt_poly(den, v.depth, names)
    neg = False
    if n_k == _NEG:
        neg = True
        n_s = n_s[1:]
    elif n_k >= _SUM:
        n_s = f"({n_s})"
    if not _ATOM_DEN.match(d_s):
        d_s = f"({d_s})"
    if neg:
        return f"-{n_s}/{d_s}", _NEG
    return f"{n_s}/{d_s}", _PROD


def _fmt_fraction(q):
    if q.denominator == 1:
        s = _int_text(q.numerator)
        return s, (_NEG if q < 0 else _ATOM)
    s = f"{_int_text(abs(q.numerator))}/{_int_text(q.denominator)}"
    if q < 0:
        return "-" + s, _NEG
    return s, _PROD


def _fmt_poly(p, depth, names):
    if p.is_zero():
        return "0", _ATOM
    name = names[depth]
    terms = []
    for j in range(p.degree(), -1, -1):
        c = p.coeffs[j]
        if _is_zero_val(c):
            continue
        terms.append(_fmt_term(c, name, j, names))
    out = terms[0][0]
    for t, _k in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    if len(terms) > 1:
        return out, _SUM
    return out, terms[0][1]


def _fmt_term(c, name, j, names):
    if j == 0:
        return _fmt(c, names)
    mono = name if j == 1 else f"{name}^{j}"
    head, tail = _coeff_parts(c, names)
    s = f"{head}{mono}{tail}"
    if head.startswith("-"):
        return s, _NEG
    return s, (_PROD if (head or tail) else _ATOM)


def _cleared_pair(num, den, depth):
    """Rescale num/den for display so den has no fractional coefficients;
    at the bottom level also clear num's rational content. Value-preserving."""
    if depth == 1:
        # a stored denominator is the lcm of its coefficients' denominators
        L = math.lcm(num.as_integers()[1], den.as_integers()[1])
        if L != 1:
            s = Fraction(L)
            return num.scale(s), den.scale(s)
        return num, den
    common = None
    for c in den.coeffs:
        if isinstance(c, Fraction) or c.den.is_one():
            continue
        if common is None:
            common = c.den
        else:
            common = common.exact_div(poly_gcd(common, c.den)) * c.den
    if common is not None:
        s = RatFunc.from_poly(common, depth - 1)
        return num.scale(s), den.scale(s)
    return num, den


def _coeff_parts(c, names):
    """Split a coefficient around its monomial: returns (prefix, suffix) so a
    term prints as prefix + monomial + suffix, e.g. 1/2 -> ("", "/2")."""
    c = lower(c)
    if isinstance(c, Fraction):
        a, b = c.numerator, c.denominator
        tail = "" if b == 1 else f"/{_int_text(b)}"
        if a == 1:
            return "", tail
        if a == -1:
            return "-", tail
        return f"{_int_text(a)}*", tail
    if c.den.is_one():  # lowered, so of positive degree: never +-1
        s, k = _fmt_poly(c.num, c.depth, names)
        if k >= _SUM:
            s = f"({s})"
        return f"{s}*", ""
    num, den = _cleared_pair(c.num, c.den, c.depth)
    n_s, n_k = _fmt_poly(num, c.depth, names)
    d_s, _d_k = _fmt_poly(den, c.depth, names)
    if not _ATOM_DEN.match(d_s):
        d_s = f"({d_s})"
    tail = f"/{d_s}"
    if n_s == "1":
        return "", tail
    if n_s == "-1":
        return "-", tail
    if n_k >= _SUM:
        n_s = f"({n_s})"
    return f"{n_s}*", tail


def _int_text(n):
    """str(n), or IntegerLimitError where Python refuses the conversion."""
    try:
        return str(n)
    except ValueError:
        raise _digit_limit_error() from None


def _text_int(digits):
    """int(digits), or IntegerLimitError where Python refuses the conversion."""
    try:
        return int(digits)
    except ValueError:
        raise _digit_limit_error() from None


def _digit_limit_error():
    return IntegerLimitError(
        f"integer has more than {sys.get_int_max_str_digits()} decimal "
        "digits, Python's limit for converting between integers and text")

