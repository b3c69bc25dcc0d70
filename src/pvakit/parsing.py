"""Text grammar for expressions and differential operators.

Expressions: generators are variable names with primes (u, u', u''') or a
parenthesized derivative marker u^(k) for k >= 4; integer powers are bare
(u^2) while fractional or negative exponents are parenthesized (u^(-1/2));
products and quotients use * and /, with division only by monomials.
Operator entries extend the grammar with the symbol d for the total
derivative, written coeff*d^k with all d factors rightmost; matrix
operators separate entries with ',' and rows with ';'.
"""

from __future__ import annotations

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
    def __init__(self, text: str, ctx: Context, with_d: bool = False):
        self.toks = _Tokens(text)
        self.ctx = ctx
        self.depth = 0
        self.with_d = with_d and "d" not in ctx.var_names and "d" not in ctx.params

    # expression := term (('+'|'-') term)*
    def expression(self):
        value = self.term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            rhs = self.term()
            value = self._add(value, rhs, op == "-")
        return value

    def term(self):
        value = self.factor()
        while self.toks.peek()[0] in ("*", "/"):
            op, _, pos = self.toks.next()
            rhs = self.factor()
            value = self._mul(value, rhs, op == "/", pos)
        return value

    def factor(self):
        # every unary sign and every parenthesized group nests one factor
        tok = self.toks.peek()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("nested too deeply", tok[2])
        if tok[0] in ("+", "-"):
            self.toks.next()
            inner = self.factor()
            value = inner if tok[0] == "+" else self._neg(inner)
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        base = self.atom()
        while self.toks.peek()[0] == "^":
            pos = self.toks.next()[2]
            e = self._exponent()
            base = self._pow(base, e, pos)
        return base

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
            return self._num(tok[1])
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
            return self._d_atom()
        if name in self.ctx.var_names:
            order = 0
            if self.toks.peek()[0] == "prime":
                order = self.toks.next()[1]
            elif self._peek_derivative_marker() is not None:
                order = self._take_derivative_marker()
            return self._gen(name, order)
        if name in self.ctx.params:
            return self._param(name)
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

    # hooks overridden by the operator parser -----------------------------

    def _num(self, value):
        return self.ctx.num(value)

    def _gen(self, name, order):
        return self.ctx.gen(name, order)

    def _param(self, name):
        return self.ctx.param(name)

    def _add(self, a, b, subtract):
        return a - b if subtract else a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b, divide, pos):
        try:
            return a / b if divide else a * b
        except NonMonomialDivisor:
            raise
        except Exception as exc:
            raise ParseError(str(exc), pos) from None

    def _pow(self, a, e, pos):
        try:
            return a ** e
        except NonMonomialDivisor:
            raise
        except Exception as exc:
            raise ParseError(str(exc), pos) from None

    def _d_atom(self):
        raise ParseError("d is not allowed here", self.toks.peek()[2])

    def finish(self, value):
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % (tok[1],), tok[2])
        return value


def parse_expression(text: str, ctx: Context) -> Expression:
    p = _Parser(text, ctx)
    return p.finish(p.expression())


class _OpParser(_Parser):
    """Parses operator entries as pairs (expression, d-power).

    Values are (Expression, int) with the integer the total derivative
    power; once a d factor appears, only further d factors may follow in
    the same product.
    """

    def __init__(self, text: str, ctx: Context):
        super().__init__(text, ctx, with_d=True)
        if not self.with_d:
            raise ParseError("the operator symbol d collides with a name", 0)

    def _num(self, value):
        return (self.ctx.num(value), 0)

    def _gen(self, name, order):
        return (self.ctx.gen(name, order), 0)

    def _param(self, name):
        return (self.ctx.param(name), 0)

    def _d_atom(self):
        return (self.ctx.one(), 1)

    def _add(self, a, b, subtract):
        # only reachable inside parenthesized coefficient groups
        if a[1] or b[1]:
            raise ParseError("d may not appear inside a parenthesized sum", 0)
        return (a[0] - b[0] if subtract else a[0] + b[0], 0)

    def _neg(self, a):
        return (-a[0], a[1])

    def _mul(self, a, b, divide, pos):
        ea, pa = a
        eb, pb = b
        if divide:
            if pb:
                raise ParseError("cannot divide by d", pos)
            if pa:
                raise ParseError("d factors must come last", pos)
            return (super()._mul(ea, eb, True, pos), pa)
        if pa and not pb and not (eb == self.ctx.one()):
            raise ParseError("coefficients must precede d factors", pos)
        return (ea * eb, pa + pb)

    def _pow(self, a, e, pos):
        ea, pa = a
        if pa:
            if e.denominator != 1 or e < 0:
                raise ParseError("d powers must be nonnegative integers", pos)
            return (ea, pa * int(e))
        return (super()._pow(ea, e, pos), 0)

    def entry(self):
        items = []
        value = self.term()
        items.append(value)
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            value = self.term()
            if op == "-":
                value = (-value[0], value[1])
            items.append(value)
        return items


def parse_operator_entry(text: str, ctx: Context) -> list[tuple[int, Expression]]:
    p = _OpParser(text, ctx)
    items = p.entry()
    p.finish(None)
    return [(power, coeff) for coeff, power in items]


def _split_top(text: str, sep: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_operator(text: str, ctx: Context) -> MatrixDiffOp:
    """Matrix operator: rows separated by ';', entries by ','; a lone '0'
    entry is the zero operator."""
    rows = []
    for row_text in _split_top(text, ";"):
        row = []
        for entry_text in _split_top(row_text, ","):
            entry_text = entry_text.strip()
            if entry_text in ("0", ""):
                row.append([])
            else:
                row.append(parse_operator_entry(entry_text, ctx))
        rows.append(row)
    if len({len(row) for row in rows}) > 1:
        raise ParseError("rows of the operator matrix differ in length", 0)
    return MatrixDiffOp(ctx, rows)
