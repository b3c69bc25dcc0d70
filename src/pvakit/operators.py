"""Matrix differential operators and polynomials in formal lambda/mu.

A MatrixDiffOp is a matrix whose entries are finite sums a_k d^k with
Expression coefficients, stored left-normalized (all derivatives to the
right of coefficients).  LambdaPoly and BiLambdaPoly carry bracket values:
polynomials in lambda (resp. lambda and mu) with Expression coefficients.
Every entry operation is built from one Leibniz step, d o x = x' + x d
(``_d_after``), which stores no zero term.  A gap d^g o x takes such steps
only while some coefficient is not constant, then moves every key by the
rest of the gap at once (``_d_power_after``): composition builds d^p o B
from the previous pivot's d^q o B with one gap, and the adjoint
sum_k (-d)^k o a_k is read in Horner form down the orders the entry has,
so d^p with a constant coefficient takes one step.  An entry and its
symbol (d^k read as lambda^k) share this calculus: the adjoint is the
substitution lambda -> -lambda - d and composition is d -> lambda + d, so
LambdaPoly runs both on the entry routines below; the shift
(lambda + d)^k is composition with d^k on the left.
A two-variable value is a one-variable symbol read at lambda + mu
(BiLambdaPoly.at_sum), so d -> lambda + mu + d is never expanded in two
variables.  One renderer, ``_render_symbol``, prints an entry and a symbol
alike, with d^k or lambda^a mu^b as the last factor of a term.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Optional

from .algebra import ONE_MONO, Context, Expression, VectorExpr, memoised
from .fields import join_signed, rational

Entry = tuple[tuple[int, Expression], ...]  # ((power, coeff), ...) sorted by power
_UNIT = {ONE_MONO: 1}  # the terms of the coefficient 1


def _entry_norm(items) -> Entry:
    acc: dict[int, Expression] = {}
    for p, a in items:
        if a.is_zero():
            continue
        acc[p] = acc[p] + a if p in acc else a
    return tuple(sorted((p, a) for p, a in acc.items() if not a.is_zero()))


def _entry_apply(entry: Entry, f: Expression) -> Expression:
    out = f.ctx.zero()
    cache = f
    last = 0
    for p, a in entry:
        cache = cache.total_derivative(p - last)
        last = p
        out = out + a * cache
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
    the rest of the gap in one step.  A last single d needs no test."""
    while g and (g == 1 or not all(a.is_constant() for a in x.values())):
        x = _d_after(x)
        g -= 1
    return {k + g: a for k, a in x.items() if a.terms} if g else x


def _entry_adjoint(entry) -> dict[int, Expression]:
    """Formal adjoint sum_k (-d)^k o a_k of a scalar entry, in Horner form
    down the orders the entry has: (-1)^top a_top, then at each order k
    below a d^(gap) on the left and (-1)^k a_k added, and a last d^k."""
    a = dict(entry)
    acc: dict[int, Expression] = {}
    last = max(a, default=0)
    for k in sorted(a, reverse=True):
        acc = _d_power_after(acc, last - k)
        last = k
        v = -a[k] if k % 2 else a[k]
        acc[0] = acc[0] + v if 0 in acc else v
    return _d_power_after(acc, last)


def _entry_compose(ea: Entry, eb) -> Iterator[tuple[int, Expression]]:
    """(sum_p a_p d^p) o B as (power, coeff) items, d^p o B built from the
    previous d^q o B by one d^(p-q); a unit a_p does not multiply."""
    cur = dict(eb)
    last = 0
    for p, a in ea:
        cur = _d_power_after(cur, p - last)
        last = p
        unit = a.terms == _UNIT
        for k, c in cur.items():
            yield k, c if unit else a * c


class MatrixDiffOp:
    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: Context, rows):
        self.ctx = ctx
        norm = []
        for row in rows:
            norm.append(tuple(self._coerce(e) for e in row))
        self.entries = tuple(norm)
        width = {len(r) for r in self.entries}
        if len(width) > 1:
            raise ValueError("ragged operator matrix")

    def _coerce(self, e) -> Entry:
        if isinstance(e, Expression):
            return _entry_norm([(0, e)])
        return _entry_norm(e)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def single(ctx: Context, terms) -> "MatrixDiffOp":
        """1x1 operator from (power, coeff) pairs."""
        return MatrixDiffOp(ctx, [[terms]])

    @staticmethod
    def derivative(ctx: Context, power: int = 1, size: int = 1) -> "MatrixDiffOp":
        one = ctx.one()
        rows = [
            [[(power, one)] if i == j else [] for j in range(size)]
            for i in range(size)
        ]
        return MatrixDiffOp(ctx, rows)

    @staticmethod
    def identity(ctx: Context, size: Optional[int] = None) -> "MatrixDiffOp":
        size = ctx.nvars if size is None else size
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

    def entry(self, i: int, j: int) -> Entry:
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
        """The image op . vec, computed once per operator and tuple within a
        memo_scope; a list is applied afresh."""
        if vec.__class__ is tuple:
            return memoised(MatrixDiffOp._image, self, vec)
        return self._image(vec)

    def _image(self, vec) -> VectorExpr:
        if len(vec) != self.ncols:
            raise ValueError("operator/vector size mismatch")
        out = []
        for row in self.entries:
            s = self.ctx.zero()
            for e, f in zip(row, vec):
                s = s + _entry_apply(e, f)
            out.append(s)
        return tuple(out)

    def __add__(self, other: "MatrixDiffOp") -> "MatrixDiffOp":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("operator size mismatch")
        rows = []
        for ra, rb in zip(self.entries, other.entries):
            rows.append([list(ea) + list(eb) for ea, eb in zip(ra, rb)])
        return MatrixDiffOp(self.ctx, rows)

    def __neg__(self) -> "MatrixDiffOp":
        return self.scale(-1)

    def __sub__(self, other: "MatrixDiffOp") -> "MatrixDiffOp":
        return self + (-other)

    def _map(self, fn) -> "MatrixDiffOp":
        """fn applied to every coefficient."""
        rows = [[[(p, fn(a)) for p, a in e] for e in row] for row in self.entries]
        return MatrixDiffOp(self.ctx, rows)

    def scale(self, q) -> "MatrixDiffOp":
        q = rational(q)
        return self._map(lambda a: a.scale(q))

    def adjoint(self) -> "MatrixDiffOp":
        n, m = self.nrows, self.ncols
        rows = [
            [_entry_adjoint(self.entries[j][i]).items() for j in range(n)]
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
                        _entry_compose(self.entries[i][k], other.entries[k][j])
                    )
                row.append(items)
            rows.append(row)
        return MatrixDiffOp(self.ctx, rows)

    # -- symbols ---------------------------------------------------------

    def symbol(self, i: int, j: int) -> "LambdaPoly":
        """The entry (i, j) with d^k replaced by lambda^k."""
        return LambdaPoly(self.ctx, {p: a for p, a in self.entries[i][j]})

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
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return type(self)(self.ctx, out)

    def __neg__(self):
        return type(self)(self.ctx, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def mul_expr(self, f: Expression):
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
    """Polynomial in lambda with Expression coefficients; as the symbol of
    an operator entry, lambda^k stands for d^k."""

    __slots__ = ()

    @staticmethod
    def of(expr: Expression) -> "LambdaPoly":
        return LambdaPoly(expr.ctx, {0: expr})

    @staticmethod
    def _power(k: int) -> str:
        return _var_power("lam", k)

    def coefficient(self, k: int) -> Expression:
        return self.coeffs.get(k, self.ctx.zero())

    def shift_apply(self, times: int = 1) -> "LambdaPoly":
        """Apply (lambda + d)^times, with d acting on coefficients: the
        symbol of d^times composed with this one."""
        if times == 0:
            return self
        return self.op_apply(((times, self.ctx.one()),))

    def subst_neg_shift(self) -> "LambdaPoly":
        """Substitute lambda -> -lambda - d, the derivative acting on the
        coefficient it lands on: the symbol of the adjoint entry."""
        return LambdaPoly(self.ctx, _entry_adjoint(self.coeffs))

    def op_apply(self, entry: Entry) -> "LambdaPoly":
        """Apply an operator entry with d replaced by (lambda + d), acting
        to the right on this polynomial: the symbol of the entry composed
        with this one."""
        out: dict[int, Expression] = {}
        for k, v in _entry_compose(entry, self.coeffs.items()):
            out[k] = out[k] + v if k in out else v
        return LambdaPoly(self.ctx, out)


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
        out: dict[tuple[int, int], Expression] = {}
        for k, v in x.coeffs.items():
            for j in range(k + 1):
                key = (a + j, b + k - j)
                term = v.scale(comb(k, j)) if 0 < j < k else v
                out[key] = out[key] + term if key in out else term
        return BiLambdaPoly(x.ctx, out)

    def shift_both_neg(self, times: int = 1) -> "BiLambdaPoly":
        """(-lambda - mu - d)^times, the entry (-1)^times d^times read at
        lambda + mu as op_apply_both does."""
        return self.op_apply_both(((times, self.ctx.num((-1) ** times)),))

    def op_apply_both(self, entry: Entry) -> "BiLambdaPoly":
        """Apply an operator entry with d replaced by (lambda + mu + d): on
        each term v lambda^a mu^b, the one-variable symbol of the entry
        composed with v, read at lambda + mu."""
        out = BiLambdaPoly(self.ctx, {})
        for (a, b), v in self.coeffs.items():
            out = out + BiLambdaPoly.at_sum(LambdaPoly.of(v).op_apply(entry), a, b)
        return out
