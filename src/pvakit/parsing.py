"""Text grammar for differential operators and expressions.

An operator entry is a sum of terms coeff*d^k, d the total derivative,
with all d factors rightmost; an expression is an operator entry without
d.  Generators are variable names with primes (u, u', u''') or a
parenthesized derivative marker u^(k) for k >= 4; integer powers are bare
(u^2) while fractional or negative exponents are parenthesized (u^(-1/2));
products and quotients use * and /, with division only by monomials.
Matrix operators separate entries with ',' and rows with ';'.  Error
positions count from the start of the given text.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .algebra import Context, Expression
from .errors import NonMonomialDivisor, ParseError
from .operators import MatrixDiffOp

_OPS = set("+-*/^()")
# nesting of unary signs and parentheses, well inside the recursion limit
_MAX_DEPTH = 100


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, object, int]] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.items.append(("num", int(text[i:j]), i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.items.append(("name", text[i:j], i))
                i = j
                continue
            if ch == "'":
                j = i
                while j < n and text[j] == "'":
                    j += 1
                self.items.append(("prime", j - i, i))
                i = j
                continue
            if ch in _OPS:
                self.items.append((ch, ch, i))
                i += 1
                continue
            raise ParseError("unexpected character %r" % ch, i)
        self.pos = 0

    def peek(self, k: int = 0):
        idx = self.pos + k
        return self.items[idx] if idx < len(self.items) else ("end", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1]), tok[2])
        return tok


class _Parser:
    """Parses (coefficient, d-power) pairs; an expression is a pair with
    d-power 0.  With `with_d` the name d is the total derivative, parsed as
    (1, 1); once a d factor appears, only further d factors may follow in
    the same product."""

    def __init__(self, text: str, ctx: Context, with_d: bool = False):
        self.toks = _Tokens(text)
        self.ctx = ctx
        self.depth = 0
        self.with_d = with_d
        if with_d and ("d" in ctx.var_names or "d" in ctx.params):
            raise ParseError("the operator symbol d collides with a name", 0)

    # entry := term (('+'|'-') term)*, its terms kept apart
    def entry(self):
        items = [self.term()]
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            coeff, power = self.term()
            items.append((-coeff if op == "-" else coeff, power))
        return items

    # expression := term (('+'|'-') term)*, summed, so without d
    def expression(self):
        value = self.term()
        while self.toks.peek()[0] in ("+", "-"):
            op, _, pos = self.toks.next()
            rhs = self.term()
            if value[1] or rhs[1]:
                raise ParseError("d may not appear inside a parenthesized sum", pos)
            value = (value[0] - rhs[0] if op == "-" else value[0] + rhs[0], 0)
        return value

    def term(self):
        ea, pa = self.factor()
        while self.toks.peek()[0] in ("*", "/"):
            op, _, pos = self.toks.next()
            eb, pb = self.factor()
            if op == "/":
                if pb:
                    raise ParseError("cannot divide by d", pos)
                if pa:
                    raise ParseError("d factors must come last", pos)
                ea = _arith(operator.truediv, ea, eb, pos)
            else:
                if pa and not pb and not (eb == self.ctx.one()):
                    raise ParseError("coefficients must precede d factors", pos)
                ea, pa = _arith(operator.mul, ea, eb, pos), pa + pb
        return ea, pa

    def factor(self):
        # every unary sign and every parenthesized group nests one factor
        tok = self.toks.peek()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("nested too deeply", tok[2])
        if tok[0] in ("+", "-"):
            self.toks.next()
            value = self.factor()
            if tok[0] == "-":
                value = (-value[0], value[1])
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        ea, pa = self.atom()
        while self.toks.peek()[0] == "^":
            pos = self.toks.next()[2]
            e = self._exponent()
            if pa:
                if e.denominator != 1 or e < 0:
                    raise ParseError("d powers must be nonnegative integers", pos)
                pa *= int(e)
            else:
                ea = _arith(operator.pow, ea, e, pos)
        return ea, pa

    def _exponent(self) -> Fraction:
        tok = self.toks.peek()
        if tok[0] == "num":
            self.toks.next()
            return Fraction(tok[1])
        if tok[0] == "(":
            self.toks.next()
            sign = 1
            if self.toks.peek()[0] == "-":
                self.toks.next()
                sign = -1
            num = self.toks.expect("num")[1]
            den = 1
            if self.toks.peek()[0] == "/":
                self.toks.next()
                num_tok = self.toks.expect("num")
                den = num_tok[1]
                if not den:
                    raise ParseError("zero denominator in exponent", num_tok[2])
            self.toks.expect(")")
            return Fraction(sign * num, den)
        raise ParseError("malformed exponent", tok[2])

    def atom(self):
        tok = self.toks.next()
        if tok[0] == "num":
            return self.ctx.num(tok[1]), 0
        if tok[0] == "(":
            inner = self.expression()
            self.toks.expect(")")
            return inner
        if tok[0] == "name":
            return self._name_atom(tok)
        raise ParseError("unexpected token %r" % (tok[1],), tok[2])

    def _name_atom(self, tok):
        name = tok[1]
        if self.with_d and name == "d":
            return self.ctx.one(), 1
        if name in self.ctx.var_names:
            order = 0
            if self.toks.peek()[0] == "prime":
                order = self.toks.next()[1]
            elif self._peek_derivative_marker() is not None:
                order = self._take_derivative_marker()
            return self.ctx.gen(name, order), 0
        if name in self.ctx.params:
            return self.ctx.param(name), 0
        raise ParseError("unknown name %r" % name, tok[2])

    def _peek_derivative_marker(self):
        """u^(k) with bare integer k >= 4 directly after a variable."""
        t0, t1, t2, t3 = (self.toks.peek(k) for k in range(4))
        if (
            t0[0] == "^"
            and t1[0] == "("
            and t2[0] == "num"
            and t2[1] >= 4
            and t3[0] == ")"
        ):
            return t2[1]
        return None

    def _take_derivative_marker(self) -> int:
        self.toks.next()  # ^
        self.toks.next()  # (
        k = self.toks.next()[1]
        self.toks.next()  # )
        return k

    def finish(self, value):
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % (tok[1],), tok[2])
        return value


def _arith(op, a, b, pos):
    """op(a, b); its errors, bar a non-monomial divisor, become ParseErrors
    at pos."""
    try:
        return op(a, b)
    except NonMonomialDivisor:
        raise
    except Exception as exc:
        raise ParseError(str(exc), pos) from None


def parse_expression(text: str, ctx: Context) -> Expression:
    p = _Parser(text, ctx)
    return p.finish(p.expression())[0]


def parse_operator_entry(text: str, ctx: Context) -> list[tuple[int, Expression]]:
    p = _Parser(text, ctx, with_d=True)
    return [(power, coeff) for coeff, power in p.finish(p.entry())]


def _split_top(text: str, sep: str, offset: int = 0) -> list[tuple[int, str]]:
    """The parts of text between top-level separators, each with its
    position in a text in which text itself starts at offset."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append((offset + start, text[start:i]))
            start = i + 1
    parts.append((offset + start, text[start:]))
    return parts


def parse_operator(text: str, ctx: Context) -> MatrixDiffOp:
    """Matrix operator: rows separated by ';', entries by ','; a lone '0'
    entry is the zero operator.  Error positions count from the start of
    text."""
    rows = []
    for row_start, row_text in _split_top(text, ";"):
        row = []
        for start, entry_text in _split_top(row_text, ",", row_start):
            stripped = entry_text.strip()
            if stripped in ("0", ""):
                row.append([])
                continue
            try:
                row.append(parse_operator_entry(stripped, ctx))
            except ParseError as exc:
                start += len(entry_text) - len(entry_text.lstrip())
                raise ParseError(exc.message, start + exc.pos) from None
        rows.append(row)
    if len({len(row) for row in rows}) > 1:
        raise ParseError("rows of the operator matrix differ in length", 0)
    return MatrixDiffOp(ctx, rows)
