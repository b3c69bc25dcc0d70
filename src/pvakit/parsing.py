"""Text grammar for differential operators and expressions.

An operator entry is an element of the ring of scalar differential
operators: d is the total derivative, * composes (d*u = u*d + u') and ^k
is the k-th power, taken by square and multiply once
algebra.refuse_huge_power has let it pass, so (-d)^k and (0*d)^k answer
at once for any k.  An expression is an operator entry without d.
Generators are variable names with primes (u, u', u''') or a
parenthesized derivative marker u^(k) for k >= 4; integer powers are bare
(u^2) while fractional or negative exponents are parenthesized (u^(-1/2));
products and quotients use * and /, with division only of a d-free factor
by a monomial.  Matrix operators separate entries with ',' and rows with
';', inside one optional pair of brackets '[' ']'.  Error positions count
from the start of the given text.

A parameter name reads as the context's parameter of that name.  With a
mapping ``names`` (parse_expression, parse_operator_entry,
parse_operator), the text may name exactly its keys instead, and each
reads as the constant Expression of the context it maps to: a bound value,
or a parameter of the context under the name it shows as.  A variable
name is read before the mapping.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .algebra import Context, Expression, power, refuse_huge_power
from .errors import NonMonomialDivisor, ParseError
from .operators import LambdaPoly, MatrixDiffOp

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
            if ch.isdecimal():
                j = i
                while j < n and text[j].isdecimal():
                    j += 1
                try:
                    self.items.append(("num", int(text[i:j]), i))
                except ValueError:  # past the interpreter's digit limit
                    message = "integer literal too long (%d digits)" % (j - i)
                    raise ParseError(message, i) from None
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
    """Parses operator entries.  A value is an operators.LambdaPoly, or an
    Expression while made of d-free operands only, so d-free text runs on
    Expression arithmetic alone.  With `with_d`, d is the total derivative;
    `names` maps parameter names to constants (see the module docstring),
    by default each parameter of the context to itself."""

    def __init__(self, text: str, ctx: Context, with_d: bool = False, names=None):
        self.toks = _Tokens(text)
        self.ctx = ctx
        self.depth = 0
        self.with_d = with_d
        if names is None:
            names = {p: ctx.param(p) for p in ctx.params}
        self.names = names
        if with_d and ("d" in ctx.var_names or "d" in names):
            raise ParseError("the operator symbol d collides with a name", 0)

    # sum := term (('+'|'-') term)*
    def sum(self):
        terms = [self.term()]
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            rhs = self.term()
            terms.append(-rhs if op == "-" else rhs)
        if len(terms) == 1 or all(isinstance(t, Expression) for t in terms):
            return sum(terms[1:], terms[0])
        return sum(map(_entry, terms[1:]), _entry(terms[0]))

    def term(self):
        value = self.factor()
        while self.toks.peek()[0] in ("*", "/"):
            op, _, pos = self.toks.next()
            rhs = self.factor()
            if op == "*":
                value = _compose(value, rhs, pos)
            elif not isinstance(rhs, Expression):
                raise ParseError("cannot divide by d", pos)
            elif not isinstance(value, Expression):
                raise ParseError("only a d-free factor may be divided", pos)
            else:
                value = _arith(operator.truediv, value, rhs, pos)
        return value

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
                value = -value
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        value = self.atom()
        while self.toks.peek()[0] == "^":
            pos = self.toks.next()[2]
            e = self._exponent()
            if isinstance(value, Expression):
                value = _arith(operator.pow, value, e, pos)
                continue
            if e.denominator != 1 or e < 0:
                raise ParseError("d powers must be nonnegative integers", pos)
            k = int(e)
            if value:  # the top coefficient of value^k is value's to the k
                refuse_huge_power(value.coefficient(max(value.coeffs)), k)
            value = power(value, k, self.ctx.one(), lambda a, b: _compose(a, b, pos))
        return value

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
            return self.ctx.num(tok[1])
        if tok[0] == "(":
            inner = self.sum()
            self.toks.expect(")")
            return inner
        if tok[0] == "name":
            return self._name_atom(tok)
        raise ParseError("unexpected token %r" % (tok[1],), tok[2])

    def _name_atom(self, tok):
        name = tok[1]
        if self.with_d and name == "d":
            return LambdaPoly(self.ctx, {1: self.ctx.one()})
        if name in self.ctx.var_names:
            if self.toks.peek()[0] == "prime":
                return self.ctx.gen(name, self.toks.next()[1])
            t0, t1, t2, t3 = (self.toks.peek(k) for k in range(4))
            if (t0[0], t1[0], t2[0], t3[0]) != ("^", "(", "num", ")") or t2[1] < 4:
                return self.ctx.gen(name, 0)
            self.toks.pos += 4  # the derivative marker u^(k)
            return self.ctx.gen(name, t2[1])
        if name in self.names:
            return self.names[name]
        raise ParseError("unknown name %r" % name, tok[2])

    def finish(self, value):
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % (tok[1],), tok[2])
        return value


def _entry(value) -> LambdaPoly:
    """value as an entry; a d-free value multiplies."""
    return LambdaPoly.of(value) if isinstance(value, Expression) else value


def _compose(a, b, pos):
    if isinstance(a, Expression) and isinstance(b, Expression):
        return _arith(operator.mul, a, b, pos)
    return _entry(b).op_apply(_entry(a))


def _arith(op, a, b, pos):
    """op(a, b); its errors, bar a non-monomial divisor and running out of
    memory, become ParseErrors at pos."""
    try:
        return op(a, b)
    except (NonMonomialDivisor, MemoryError):
        raise
    except Exception as exc:
        raise ParseError(str(exc), pos) from None


def parse_expression(text: str, ctx: Context, names=None) -> Expression:
    p = _Parser(text, ctx, names=names)
    return p.finish(p.sum())


def parse_operator_entry(text: str, ctx: Context, names=None) -> LambdaPoly:
    p = _Parser(text, ctx, with_d=True, names=names)
    return _entry(p.finish(p.sum()))


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


def _unwrap(text: str) -> tuple[int, str]:
    """The text inside one optional outer '[' ']' pair, with its offset."""
    start = len(text) - len(text.lstrip())
    end = len(text.rstrip())
    opened = text.startswith("[", start)
    closed = text.endswith("]", start + opened, end)
    if opened and closed:
        return start + 1, text[start + 1:end - 1]
    if opened or closed:
        at = start if opened else end - 1
        raise ParseError("unmatched %r" % text[at], at)
    return 0, text


def parse_operator(text: str, ctx: Context, names=None) -> MatrixDiffOp:
    """Matrix operator: rows separated by ';', entries by ',', optionally
    wrapped in '[' ']' as a matrix renders; a lone '0' entry is the zero
    operator.  Error positions count from the start of text; ``names`` is
    read by every entry."""
    rows = []
    offset, body = _unwrap(text)
    for row_start, row_text in _split_top(body, ";", offset):
        row = []
        for start, entry_text in _split_top(row_text, ",", row_start):
            stripped = entry_text.strip()
            if stripped in ("0", ""):
                row.append([])
                continue
            try:
                row.append(parse_operator_entry(stripped, ctx, names))
            except ParseError as exc:
                start += len(entry_text) - len(entry_text.lstrip())
                raise ParseError(exc.message, start + exc.pos) from None
        rows.append(row)
        if len(row) != len(rows[0]):
            raise ParseError("rows of the operator matrix differ in length", row_start)
    return MatrixDiffOp(ctx, rows)
