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

Text is evaluated in one pass, with no Expression built per factor, '*'
or '^'.  While a term is d-free, its monomial factors (numbers,
generators, mapped names, their powers, and the monomials that divide)
fold into one coefficient and one monomial; the power of a number or a
parameter is that of the constant, so it passes refuse_huge_power
wherever it stands.  A d^k ends the run, and a trailing d^k makes the
term c*m*d^k at once.  Any other factor, a sum of several terms or one
that holds d, and every factor after a d, composes in order as it is
read, since entries do not commute (u*d*u).  A sum collects its terms
into one dict per power of d, with the order and the cancellations of
adding them one by one.

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

from .algebra import (
    ONE_MONO,
    Context,
    Expression,
    Monomial,
    mono_mul,
    mono_pow,
    power,
    refuse_huge_power,
)
from .errors import NonMonomialDivisor, ParseError
from .fields import _norm
from .operators import LambdaPoly, MatrixDiffOp

_OPS = set("+-*/^()")
_F1 = Fraction(1)
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
    Expression arithmetic alone.  A factor or a term may also be the
    tuple (c, m, k), the value c*m*d^k for a coefficient c and a monomial
    m, which the next step folds in without building it.  With `with_d`,
    d is the total derivative; `names` maps parameter names to constants
    (see the module docstring), by default each parameter of the context
    to itself."""

    def __init__(self, text: str, ctx: Context, with_d: bool = False, names=None):
        self.toks = _Tokens(text)
        self.ctx = ctx
        self.depth = 0
        self.with_d = with_d
        self.names = _default_names(ctx) if names is None else names
        if with_d and ("d" in ctx.var_names or "d" in self.names):
            raise ParseError("the operator symbol d collides with a name", 0)

    # sum := term (('+'|'-') term)*
    def sum(self):
        """One term as it is; several collected into one dict per power of
        d, in the order and with the cancellations of adding them one by
        one."""
        toks = self.toks
        value = self.term()
        if toks.peek()[0] not in _SIGNS:
            return _value(self.ctx, *value) if value.__class__ is tuple else value
        out: dict = {}
        entry = negate = False
        while True:
            if value.__class__ is tuple:
                c, m, k = value
                entry = entry or k > 0
                if c:
                    _add_term(out, k, m, -c if negate else c)
            else:
                if value.__class__ is LambdaPoly:
                    entry = True
                    items = value.coeffs.items()
                else:
                    items = ((0, value),)
                for k, a in items:
                    for m, c in a.terms.items():
                        _add_term(out, k, m, -c if negate else c)
            op = toks.peek()[0]
            if op not in _SIGNS:
                break
            toks.pos += 1
            negate = op == "-"
            value = self.term()
        ctx = self.ctx
        if entry:
            return LambdaPoly(ctx, {k: Expression(ctx, t) for k, t in out.items()})
        return Expression(ctx, out.get(0, {}))

    # term := factor (('*'|'/') factor)*
    def term(self):
        """The factors in order.  While the term is d-free, a monomial
        factor folds into the run coef*mono, and d^k ends it as
        coef*mono*d^k; any other factor, and every factor after a d,
        composes onto what came before as it is read."""
        toks = self.toks
        value = self.factor()
        if toks.peek()[0] not in _PRODUCT:
            return value
        left = None  # the factors before the run, composed
        coef, mono, dk = 1, ONE_MONO, 0  # the run coef*mono*d^dk
        op = pos = None
        while True:
            if op == "/":
                value = _divisor(value, dk or left.__class__ is LambdaPoly, pos)
            if value.__class__ is tuple and not dk and left.__class__ is not LambdaPoly:
                c, m, dk = value
                coef = _norm(coef * c)
                mono = mono_mul(mono, m)
            else:
                if value.__class__ is tuple:
                    value = _value(self.ctx, *value)
                left = self._run(left, coef, mono, dk, pos)
                left = value if left is None else _compose(left, value, pos)
                coef, mono, dk = 1, ONE_MONO, 0
            op = toks.peek()[0]
            if op not in _PRODUCT:
                break
            pos = toks.next()[2]
            value = self.factor()
        if left is None:
            return coef, mono, dk
        return self._run(left, coef, mono, dk, pos)

    def _run(self, left, coef, mono, dk, pos):
        """left composed with the run coef*mono*d^dk; left alone for a
        unit run, None for none at all."""
        if coef == 1 and not mono and not dk:
            return left
        run = _value(self.ctx, coef, mono, dk)
        return run if left is None else _compose(left, run, pos)

    def factor(self):
        # every unary sign and every parenthesized group nests one factor
        tok = self.toks.peek()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("nested too deeply", tok[2])
        if tok[0] in _SIGNS:
            self.toks.next()
            value = self.factor()
            if tok[0] == "-":
                if value.__class__ is tuple:
                    c, m, k = value
                    value = -c, m, k
                else:
                    value = -value
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        """An atom and its powers, left to right; a d-free value of at
        most one term as its (c, m, 0)."""
        value = self.atom()
        while self.toks.peek()[0] == "^":
            pos = self.toks.next()[2]
            e = self._exponent()
            if value.__class__ is tuple:
                value = self._power_of_monomial(value, e, pos)
                continue
            if isinstance(value, Expression):
                value = _arith(operator.pow, value, e, pos)
                continue
            _check_d_power(e, pos)
            k = int(e)
            if value:  # the top coefficient of value^k is value's to the k
                refuse_huge_power(value.coefficient(max(value.coeffs)), k)
            value = power(value, k, self.ctx.one(), lambda a, b: _compose(a, b, pos))
        return _folded(value) if value.__class__ is Expression else value

    def _power_of_monomial(self, value, e, pos):
        """(c*m*d^k)^e for a d-free monomial (k = 0) or a bare d^k (c = 1,
        m = 1): c^e is the power of the constant c, with its size guard
        and its errors, which are those of the power of c*m."""
        c, m, k = value
        if k:
            _check_d_power(e, pos)
            return 1, ONE_MONO, k * int(e)
        if not e:
            return 1, ONE_MONO, 0
        if c != 1:
            c = _arith(operator.pow, self.ctx.coeff_expr(c), e, pos).constant_coefficient()
            if not c:
                return 0, ONE_MONO, 0
        return c, mono_pow(m, e), 0

    def _exponent(self):
        """An int when integral, else a Fraction."""
        tok = self.toks.peek()
        if tok[0] == "num":
            self.toks.next()
            return tok[1]
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
            return _norm(Fraction(sign * num, den))
        raise ParseError("malformed exponent", tok[2])

    def atom(self):
        tok = self.toks.next()
        if tok[0] == "num":
            return tok[1], ONE_MONO, 0
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
            return _D
        var_names = self.ctx.var_names
        if name in var_names:
            i = var_names.index(name)
            toks = self.toks
            kind = toks.peek()[0]
            if kind == "prime":
                return 1, (((toks.next()[1], i), 1),), 0
            if kind != "^":
                return 1, (((0, i), 1),), 0
            t1, t2, t3 = toks.peek(1), toks.peek(2), toks.peek(3)
            if (t1[0], t2[0], t3[0]) != ("(", "num", ")") or t2[1] < 4:
                return 1, (((0, i), 1),), 0
            toks.pos += 4  # the derivative marker u^(k)
            return 1, (((t2[1], i), 1),), 0
        if name in self.names:
            return _folded(self.names[name])
        raise ParseError("unknown name %r" % name, tok[2])

    def finish(self, value):
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % (tok[1],), tok[2])
        return value


_SIGNS = ("+", "-")
_PRODUCT = ("*", "/")
_D = (1, ONE_MONO, 1)  # the factor d


def _default_names(ctx: Context) -> dict:
    return {p: ctx.param(p) for p in ctx.params}


def _folded(value: Expression):
    """A d-free value of at most one term as its (c, m, 0), any other as
    it is."""
    if len(value.terms) > 1:
        return value
    for m, c in value.terms.items():
        return c, m, 0
    return 0, ONE_MONO, 0


def _value(ctx: Context, c, m: Monomial, k: int):
    """c*m*d^k as an Expression, or as a LambdaPoly for k > 0."""
    expr = Expression(ctx, {m: c}) if c else ctx.zero()
    return LambdaPoly(ctx, {k: expr}) if k else expr


def _add_term(out: dict, k: int, m: Monomial, c) -> None:
    """Add c*m*d^k into out = {k: {m: c}}, dropping a sum that cancels and
    then an emptied power, as Expression and LambdaPoly addition do."""
    terms = out.setdefault(k, {})
    s = terms.get(m)
    if s is not None:
        c = _norm(s + c)
        if not c:
            del terms[m]
            if not terms:
                del out[k]
            return
    terms[m] = c


def _divisor(value, entry: bool, pos):
    """The inverse of the divisor value, as (c, m, 0), by the rules and
    with the errors of Expression division; `entry` tells whether the
    dividend holds d."""
    holds_d = value[2] if value.__class__ is tuple else value.__class__ is LambdaPoly
    if holds_d:
        raise ParseError("cannot divide by d", pos)
    if entry:
        raise ParseError("only a d-free factor may be divided", pos)
    if value.__class__ is not tuple:
        raise NonMonomialDivisor("division is only defined by monomials")
    c, m, _ = value
    if not c:
        raise NonMonomialDivisor("division by zero")
    return _norm(_F1 / c), mono_pow(m, -1), 0


def _check_d_power(e, pos) -> None:
    if e.denominator != 1 or e < 0:
        raise ParseError("d powers must be nonnegative integers", pos)


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
    if names is None:
        names = _default_names(ctx)
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
