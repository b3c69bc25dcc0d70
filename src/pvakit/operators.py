"""Matrix differential operators and polynomials in formal lambda/mu.

A scalar differential operator sum_k a_k d^k with Expression coefficients,
stored left-normalized (all derivatives to the right of coefficients), is
one value with its symbol sum_k a_k lambda^k: a LambdaPoly.  It reads as
its terms (k, a_k) in ascending k, and a MatrixDiffOp is a matrix of them;
the bracket {u_i lambda u_j} = H_ji(lambda) is the entry itself.
BiLambdaPoly carries two-variable bracket values, polynomials in lambda
and mu with Expression coefficients.
Every entry operation is built from one Leibniz step, d o x = x' + x d
(``_d_after``), which stores no zero term.  A gap d^g o x takes such steps
only while some coefficient is not constant, then moves every key by the
rest of the gap at once (``_d_power_after``): composition builds d^p o B
from the previous pivot's d^q o B with one gap, and the adjoint
sum_k (-d)^k o a_k is read in Horner form down the orders the entry has,
so d^p with a constant coefficient takes one step.  On symbols the
adjoint is the substitution lambda -> -lambda - d and composition is
d -> lambda + d; the shift (lambda + d)^k is composition with d^k on the
left.  A two-variable value is a one-variable symbol read at lambda + mu
(BiLambdaPoly.at_sum), so d -> lambda + mu + d is never expanded in two
variables.  One renderer, ``_render_symbol``, prints an entry (ascending
d^k) and a symbol (descending lambda^k) alike, with d^k or
lambda^a mu^b as the last factor of a term.
"""

from __future__ import annotations

import sys
from math import comb
from typing import Optional

from .algebra import ONE_MONO, Context, Expression, VectorExpr
from .fields import join_signed

_UNIT = {ONE_MONO: 1}  # the terms of the coefficient 1


def _collect(items, out=None) -> dict:
    """The (key, coeff) items summed over like keys, added into the dict
    out when given; the LambdaPoly or BiLambdaPoly built from the sum
    drops a key whose sum is zero."""
    out = {} if out is None else out
    for k, v in items:
        out[k] = out[k] + v if k in out else v
    return out


def _d_after(x: dict) -> dict[int, Expression]:
    """d o x for the entry x = {k: x_k}, its keys in any order: the Leibniz
    rule for one d, sum_k x_k' d^k + x_k d^(k+1), added into both keys;
    a zero term is not stored."""
    out: dict[int, Expression] = {}
    for k, a in x.items():
        for p, v in ((k, a.total_derivative()), (k + 1, a)):
            if v.terms:
                out[p] = out[p] + v if p in out else v
    return out


def _d_power_after(x: dict, g: int) -> dict[int, Expression]:
    """d^g o x for the entry x = {k: x_k}: Leibniz steps while some x_k is
    not constant, then, as d o c = c d for a constant c, every key moved by
    the rest of the gap in one step.  A last single d needs no test.  One
    key b d^k, b not constant, gives sum_j C(g, j) b^(j) d^(g+k-j): g + 1
    nonzero terms, refused past sys.maxsize (no dict holds more), since
    no b^(j) is constant: with u_i^(n) of top order in b, b' holds
    u_i^(n+1) only in (db/du_i^(n)) u_i^(n+1) != 0.  Two keys may cancel."""
    while g and (g == 1 or not all(a.is_constant() for a in x.values())):
        if g > sys.maxsize and len(x) == 1:
            raise MemoryError("d^%d o a non-constant coefficient" % g)
        x = _d_after(x)
        g -= 1
    return {k + g: a for k, a in x.items() if a.terms} if g else x


def _entry_compose(ea: "LambdaPoly", eb: dict):
    """(sum_p a_p d^p) o B as (power, coeff) items, for B = {k: b_k}:
    d^p o B built from the previous d^q o B by one d^(p-q); a unit a_p
    does not multiply."""
    cur = eb
    last = 0
    for p, a in ea:
        cur = _d_power_after(cur, p - last)
        last = p
        unit = a.terms == _UNIT
        for k, c in cur.items():
            yield k, c if unit else a * c


class MatrixDiffOp:
    """A matrix of LambdaPoly entries.  A row may give an entry as a
    LambdaPoly, an Expression (order zero) or (power, coeff) pairs in any
    order, like powers summed."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: Context, rows):
        self.ctx = ctx
        self.entries = tuple(tuple(self._coerce(e) for e in row) for row in rows)
        width = {len(r) for r in self.entries}
        if len(width) > 1:
            raise ValueError("ragged operator matrix")

    def _coerce(self, e) -> "LambdaPoly":
        if isinstance(e, LambdaPoly):
            return e
        if isinstance(e, Expression):
            return LambdaPoly.of(e)
        return LambdaPoly(self.ctx, _collect(e))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def single(ctx: Context, terms) -> "MatrixDiffOp":
        """1x1 operator from (power, coeff) pairs."""
        return MatrixDiffOp(ctx, [[terms]])

    @staticmethod
    def derivative(ctx: Context, power=1, size: Optional[int] = None) -> "MatrixDiffOp":
        size = ctx.nvars if size is None else size
        one = ctx.one()
        rows = [
            [[(power, one)] if i == j else [] for j in range(size)]
            for i in range(size)
        ]
        return MatrixDiffOp(ctx, rows)

    @staticmethod
    def identity(ctx: Context, size: Optional[int] = None) -> "MatrixDiffOp":
        return MatrixDiffOp.derivative(ctx, 0, size)

    @staticmethod
    def zero(ctx: Context, size: Optional[int] = None) -> "MatrixDiffOp":
        size = ctx.nvars if size is None else size
        return MatrixDiffOp(ctx, [[[] for _ in range(size)] for _ in range(size)])

    # -- shape -----------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def entry(self, i: int, j: int) -> "LambdaPoly":
        """The entry (i, j), which is also its symbol."""
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixDiffOp)
            and self.ctx == other.ctx
            and self.entries == other.entries
        )

    __hash__ = None

    # -- algebra -----------------------------------------------------------

    def apply(self, vec: VectorExpr) -> VectorExpr:
        """The image op . vec."""
        if len(vec) != self.ncols:
            raise ValueError("operator/vector size mismatch")
        out = []
        for row in self.entries:
            s = self.ctx.zero()
            for e, f in zip(row, vec):
                s = s + e.apply(f)
            out.append(s)
        return tuple(out)

    def __add__(self, other: "MatrixDiffOp") -> "MatrixDiffOp":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("operator size mismatch")
        rows = [[ea + eb for ea, eb in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)]
        return MatrixDiffOp(self.ctx, rows)

    def __neg__(self) -> "MatrixDiffOp":
        return MatrixDiffOp(self.ctx, [[-e for e in row] for row in self.entries])

    def __sub__(self, other: "MatrixDiffOp") -> "MatrixDiffOp":
        return self + (-other)

    def scale(self, q) -> "MatrixDiffOp":
        f = q if q.__class__ is Expression else self.ctx.coeff_expr(q)
        rows = [[e.mul_expr(f) for e in row] for row in self.entries]
        return MatrixDiffOp(self.ctx, rows)

    def adjoint(self) -> "MatrixDiffOp":
        n, m = self.nrows, self.ncols
        rows = [
            [self.entries[j][i].subst_neg_shift() for j in range(n)]
            for i in range(m)
        ]
        return MatrixDiffOp(self.ctx, rows)

    def compose(self, other: "MatrixDiffOp") -> "MatrixDiffOp":
        if self.ncols != other.nrows:
            raise ValueError("operator size mismatch in composition")
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                items: list[tuple[int, Expression]] = []
                for k in range(self.ncols):
                    items.extend(
                        _entry_compose(self.entries[i][k], other.entries[k][j].coeffs)
                    )
                row.append(items)
            rows.append(row)
        return MatrixDiffOp(self.ctx, rows)

    # -- rendering -----------------------------------------------------------

    def render_entry(self, i: int, j: int) -> str:
        return _render_symbol((_var_power("d", p), a) for p, a in self.entries[i][j])

    def render(self) -> str:
        if self.nrows == 1 and self.ncols == 1:
            return self.render_entry(0, 0)
        rows = [
            ", ".join(self.render_entry(i, j) for j in range(self.ncols))
            for i in range(self.nrows)
        ]
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return self.render()


class _SymbolPoly:
    """Polynomial in formal symbols with Expression coefficients, keyed by
    degree; a subclass says how a degree key is printed."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: Context, coeffs: dict):
        self.ctx = ctx
        self.coeffs = {k: v for k, v in coeffs.items() if v.terms}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        return type(self)(self.ctx, _collect(other.coeffs.items(), dict(self.coeffs)))

    def __neg__(self):
        return type(self)(self.ctx, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def mul_expr(self, f: Expression):
        """f times every coefficient."""
        return type(self)(self.ctx, {k: f * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def render(self) -> str:
        items = sorted(self.coeffs.items(), reverse=True)
        return _render_symbol((self._power(k), v) for k, v in items)

    def __repr__(self):
        return self.render()


def _var_power(name: str, k: int) -> str:
    return "" if k == 0 else name if k == 1 else "%s^%d" % (name, k)


def _render_symbol(items) -> str:
    """An entry or a symbol from (power text, coefficient) items, in order.
    The power is the last factor of a one-term coefficient's term, so a
    unit drops out; a sum is "(sum)*power", and at power zero it is listed."""
    terms = []
    for power, a in items:
        if not power or a.is_monomial():
            terms.extend(a.signed_terms(power))
        else:
            terms.append((False, "(%s)*%s" % (a.render(), power)))
    return join_signed(terms)


class LambdaPoly(_SymbolPoly):
    """A scalar differential operator sum_k a_k d^k and its symbol
    sum_k a_k lambda^k, one value: it reads as its terms (k, a_k) in
    ascending k and prints as a symbol."""

    __slots__ = ()

    @staticmethod
    def of(expr: Expression) -> "LambdaPoly":
        return LambdaPoly(expr.ctx, {0: expr})

    @staticmethod
    def _power(k: int) -> str:
        return _var_power("lam", k)

    def __iter__(self):
        return iter(sorted(self.coeffs.items()))

    def __len__(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int) -> Expression:
        return self.coeffs.get(k, self.ctx.zero())

    def apply(self, f: Expression) -> Expression:
        """sum_k a_k d^k f, one total derivative per gap between orders."""
        out = f.ctx.zero()
        last = 0
        for p, a in self:
            f = f.total_derivative(p - last)
            last = p
            out = out + a * f
        return out

    def shift_apply(self, times: int = 1) -> "LambdaPoly":
        """Apply (lambda + d)^times, with d acting on coefficients: the
        symbol of d^times composed with this one."""
        if times == 0:
            return self
        return self.op_apply(LambdaPoly(self.ctx, {times: self.ctx.one()}))

    def subst_neg_shift(self) -> "LambdaPoly":
        """Substitute lambda -> -lambda - d, the derivative acting on the
        coefficient it lands on: the adjoint sum_k (-d)^k o a_k of the
        entry, in Horner form down the orders it has: (-1)^top a_top, then
        at each order k below a d^(gap) on the left and (-1)^k a_k added,
        and a last d^k."""
        a = self.coeffs
        acc: dict[int, Expression] = {}
        last = max(a, default=0)
        for k in sorted(a, reverse=True):
            acc = _d_power_after(acc, last - k)
            last = k
            v = -a[k] if k % 2 else a[k]
            acc[0] = acc[0] + v if 0 in acc else v
        return LambdaPoly(self.ctx, _d_power_after(acc, last))

    def op_apply(self, entry: "LambdaPoly") -> "LambdaPoly":
        """Apply an operator entry with d replaced by (lambda + d), acting
        to the right on this polynomial: the entry composed with this one."""
        return LambdaPoly(self.ctx, _collect(_entry_compose(entry, self.coeffs)))


class BiLambdaPoly(_SymbolPoly):
    """Polynomial in commuting formal lambda and mu over Expressions."""

    __slots__ = ()

    @staticmethod
    def _power(key: tuple[int, int]) -> str:
        return "*".join(filter(None, map(_var_power, ("lam", "mu"), key)))

    @staticmethod
    def at_sum(x: LambdaPoly, a: int = 0, b: int = 0) -> "BiLambdaPoly":
        """lambda^a mu^b x(lambda + mu): each x_k nu^k spread binomially
        over lambda^j mu^(k-j); no coefficient is differentiated."""
        return BiLambdaPoly(x.ctx, _collect(
            ((a + j, b + k - j), v.scale(comb(k, j)) if 0 < j < k else v)
            for k, v in x.coeffs.items()
            for j in range(k + 1)
        ))

    def shift_both_neg(self, times: int = 1) -> "BiLambdaPoly":
        """(-lambda - mu - d)^times, the entry (-1)^times d^times read at
        lambda + mu as op_apply_both does."""
        sign = self.ctx.num((-1) ** times)
        return self.op_apply_both(LambdaPoly(self.ctx, {times: sign}))

    def op_apply_both(self, entry: LambdaPoly) -> "BiLambdaPoly":
        """Apply an operator entry with d replaced by (lambda + mu + d): on
        each term v lambda^a mu^b, the one-variable symbol of the entry
        composed with v, read at lambda + mu."""
        out = BiLambdaPoly(self.ctx, {})
        for (a, b), v in self.coeffs.items():
            out = out + BiLambdaPoly.at_sum(LambdaPoly.of(v).op_apply(entry), a, b)
        return out
