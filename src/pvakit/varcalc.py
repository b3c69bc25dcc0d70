"""Variational calculus over an algebra of differential functions.

Provides the variational derivative and higher Euler operators, the first
variation (Frechet derivative) of a vector of expressions together with
its formal adjoint, the closedness test D_F = D_F^*, and the two exactness
algorithms: inversion of the total derivative and reconstruction of a
potential for a closed vector.  A potential certifies closedness: the
inductive reconstruction runs before the defect D_F - D_F^* is built.
Local functionals (expressions modulo total derivatives) and their
equality test live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .algebra import (
    Context,
    Expression,
    VectorExpr,
    _fill_succ,
    memoised,
    mono_weight,
    vec_dot,
    vec_is_zero,
)
from .errors import LogRequired, NotClosed, NotExact, OrderViolation
from .fields import _norm
from .operators import LambdaPoly, MatrixDiffOp


def variational_derivative(f: Expression) -> VectorExpr:
    """delta f / delta u: component i is the zeroth Euler operator
    sum_n (-d)^n (df/du_i^(n)), computed once per f within a memo_scope."""
    return memoised(_variational_derivative, f)


def _variational_derivative(f: Expression) -> VectorExpr:
    return tuple(euler_operator(f, i, 0) for i in range(f.ctx.nvars))


def euler_operator(f: Expression, i: int, m: int) -> Expression:
    """The m-th Euler operator sum_n C(n,m) (-1)^n d^(n-m) (df/du_i^(n)),
    evaluated in Horner form down the slices of D_f: the gap between two
    orders of u_i in f is one total derivative of the accumulator."""
    acc, last = f.ctx.zero(), m
    for n, p in sorted(frechet_entry(f, i).coeffs.items(), reverse=True):
        if n < m:
            break
        q = (-1) ** n * comb(n, m)
        acc = (p if q == 1 else p.scale(q)) + acc.total_derivative(last - n)
        last = n
    return acc.total_derivative(last - m)


def frechet_entry(f: Expression, j: int) -> LambdaPoly:
    """The entry sum_n (df/du_j^(n)) d^n of D_f, from its nonzero slices:
    one partial per order of u_j in f, none of which is zero, as
    ``partial`` cancels no term."""
    orders = {h[0] for mono in f.terms for h, _ in mono if h[1] == j}
    return LambdaPoly(f.ctx, {n: f.partial(j, n) for n in orders})


def frechet(F: VectorExpr) -> MatrixDiffOp:
    """First-variation operator of F: entry (i, j) is sum_n (dF_i/du_j^(n)) d^n."""
    ctx = F[0].ctx
    rows = [[frechet_entry(f, j) for j in range(ctx.nvars)] for f in F]
    return MatrixDiffOp(ctx, rows)


@dataclass
class ClosednessReport:
    closed: bool
    defect: MatrixDiffOp  # D_F - D_F^*


def frechet_defect(F: VectorExpr) -> MatrixDiffOp:
    """D_F - D_F^*: zero exactly when F is closed."""
    d = frechet(F)
    return d - d.adjoint()


def is_closed(F: VectorExpr) -> ClosednessReport:
    """D_F = D_F^* with the defect D_F - D_F^*.  The inductive algorithm
    runs first: when it returns f, F = delta f exactly, and a variational
    derivative is closed (the variational complex is a complex), so the
    defect is zero; it is built only when the algorithm raises, or when F
    has a length other than nvars."""
    if _inductive_potential(F)[0] is not None:
        return ClosednessReport(True, MatrixDiffOp.zero(F[0].ctx))
    defect = frechet_defect(F)
    return ClosednessReport(defect.is_zero(), defect)


def antiderivative(f: Expression, i: int, n: int) -> Expression:
    """Termwise preimage of d/du_i^(n) for f of differential order <= (n, i).

    Every monomial of f starts at or below (n, i), so the factor of
    u_i^(n) is its first one or absent: the first factor's exponent e is
    spliced to e + 1 (an int, or the interned ``_succ``), or (u_i^(n), 1)
    is put in front.

    Raises LogRequired when a term carries exponent -1 in u_i^(n), and
    OrderViolation when f depends on a jet variable above (n, i).
    """
    ctx = f.ctx
    g = (n, i)
    out = {}
    for m, c in f.terms.items():
        if m and m[0][0] > g:
            raise OrderViolation(
                "argument depends on %s, above the integration variable %s"
                % (ctx.gen_name(m[0][0]), ctx.gen_name(g))
            )
        if not m or m[0][0] != g:
            out[((g, 1),) + m] = c
            continue
        e = m[0][1]
        if e.__class__ is int:
            if e == -1:
                raise LogRequired(
                    "term %s needs a logarithm in %s"
                    % (Expression(ctx, {m: c}).render(), ctx.gen_name(g))
                )
            up = e + 1
        else:
            up = _fill_succ(e) if e._succ is None else e._succ
        out[((g, up),) + m[1:]] = _norm(c / Fraction(up))
    return Expression(ctx, out)


def _descend(f: Expression):
    """Peel total derivatives off f down the order-then-index filtration.

    At top pair (n, i) the slice d(f)/du_i^(n) is integrated in u_i^(n-1)
    and the resulting total derivative subtracted.  Returns (g, rest,
    stall) with f = d(g) + rest: rest is constant when stall is None, and
    otherwise stall is the error that stopped the descent (LogRequired,
    NotExact, or for f not exact OrderViolation: a slice above u_i^(n-1),
    as of u'^2) and rest is what was left there.
    """
    g = f.ctx.zero()
    cur = f
    prev = None
    while True:
        top = cur.diff_order()
        if top is None:
            return g, cur, None
        if prev is not None and top >= prev:
            return g, cur, NotExact("no descent at %s" % (top,))
        prev = top
        n, i = top
        if n == 0:
            return g, cur, NotExact("depends on undifferentiated variables only")
        try:
            piece = antiderivative(cur.partial(i, n), i, n - 1)
        except (LogRequired, OrderViolation) as exc:
            return g, cur, exc
        g = g + piece
        cur = cur - piece.total_derivative()


def _zero_mod_derivatives(f: Expression):
    """(g, c, stall) with f = c modulo total derivatives, or None when
    delta f != 0: the one zero test, int f = 0 exactly when c = 0.

    The descent runs first.  When it runs through, f = d(g) + c exactly,
    and g certifies int f = 0 iff c = 0, without delta: d(h) is never a
    nonzero constant, as it holds the derivative of h's top variable.  On
    a stall delta f decides exactness, and a constant term proves nothing:
    constants trade with weight -1 terms, d(u/u') = 1 - u u''/u'^2.  As d
    raises the weight sum_k n_k e_k of a monomial by one, only the
    weight-zero part of f can trade, and c is what its own descent leaves
    of it (a bare constant at once).
    """
    g, rest, stall = _descend(f)
    if stall is None:
        return g, rest.constant_coefficient(), None
    if not vec_is_zero(variational_derivative(f)):
        return None
    zero_weight = {m: c for m, c in f.terms.items() if mono_weight(m) == 0}
    _, rest, _ = _descend(Expression(f.ctx, zero_weight))
    return g, rest.constant_coefficient(), stall


def integrate_total(f: Expression):
    """Write f = d(g) + const, or raise NotExact / LogRequired; delta f is
    computed only when the descent, which runs first, stalls."""
    z = _zero_mod_derivatives(f)
    if z is None:
        raise NotExact("nonzero variational derivative, not a total derivative")
    g, c, stall = z
    if stall is not None:
        raise stall
    return g, c


def _scaling_potential(F: VectorExpr) -> Optional[Expression]:
    """f = sum_{d != 0} (u . F)_d / d over the exponent-sum grading when
    delta f = F, which certifies F closed; None for a degree-zero part of
    u . F, a length other than nvars, or delta f != F."""
    ctx = F[0].ctx
    if len(F) != ctx.nvars:
        return None
    w = vec_dot([ctx.gen(i, 0) for i in range(ctx.nvars)], F)
    f = ctx.zero()
    for d, comp in w.degree_components():
        if d == 0:
            return None
        f = f + comp.scale(Fraction(1) / d)
    return f if variational_derivative(f) == tuple(F) else None


def _triple(F: VectorExpr):
    """Filtration position (n, i, j) of a vector, None when all constant:
    (n, i) is the largest top, and F_j the last component with that top,
    the only ones that depend on u_i^(n)."""
    tops = [fk.diff_order() for fk in F]
    top = max((t for t in tops if t is not None), default=None)
    if top is None:
        return None
    return top + (max(k for k, t in enumerate(tops) if t == top),)


def _exactify_inductive(F: VectorExpr) -> Expression:
    """A potential of closed F, built down the filtration: at position
    (n, i, j), with m = ceil(n/2), the slice dF_j/du_i^(n) is integrated
    in (j, m) then (i, m) for even n, which needs j <= i, and in
    (i, m - 1) then (j, m) for odd n, which needs j < i; (-1)^m times that
    piece joins the potential and its delta leaves F."""
    ctx = F[0].ctx
    acc = ctx.zero()
    cur = list(F)
    prev = None
    while True:
        t = _triple(tuple(cur))
        if t is None:
            for k, fk in enumerate(cur):
                acc = acc + ctx.gen(k, 0) * ctx.coeff_expr(fk.constant_coefficient())
            return acc
        if prev is not None and t >= prev:
            raise NotClosed("potential reconstruction does not descend at %s" % (t,))
        prev = t
        n, i, j = t
        m, odd = (n + 1) // 2, n % 2
        if j + odd > i:
            raise NotClosed("vector is not closed (filtration position)")
        a, b = (i, j) if odd else (j, i)
        piece = antiderivative(antiderivative(cur[j].partial(i, n), a, m - odd), b, m)
        piece = piece.scale((-1) ** m)
        acc = acc + piece
        dd = variational_derivative(piece)
        cur = [fk - dk for fk, dk in zip(cur, dd)]


def _inductive_potential(F: VectorExpr):
    """(f, None) with delta f = F exactly, from the inductive algorithm, or
    (None, error) with the NotClosed, LogRequired or OrderViolation that
    stopped it; (None, None) for a length other than nvars, where the
    algorithm would rebuild only the components it sees."""
    if len(F) != F[0].ctx.nvars:
        return None, None
    try:
        return _exactify_inductive(F), None
    except (NotClosed, LogRequired, OrderViolation) as exc:
        return None, exc


def exactify(F: VectorExpr) -> Expression:
    """A potential f with delta f / delta u = F, for closed F.

    The scaling potential is the answer when its delta is F.  Otherwise the
    inductive double-antiderivative algorithm runs, and its potential
    satisfies the equation exactly.  Only when it raises is the defect
    D_F - D_F^* built: NotClosed when nonzero, and the algorithm's own
    error when F is closed.  A non-closed F always stops the algorithm,
    so this order answers as the defect-first one does.
    """
    if vec_is_zero(F):
        return F[0].ctx.zero()
    f = _scaling_potential(F)
    if f is None:
        f, stall = _inductive_potential(F)
    if f is not None:
        return f
    defect = frechet_defect(F)
    if not defect.is_zero():
        raise NotClosed("defect operator: %s" % defect.render())
    raise stall


@dataclass
class FunctionalComparison:
    equal: bool
    strict: Optional[bool] = None  # total-derivative membership certified
    antiderivative: Optional[Expression] = None


class LocalFunctional:
    """An expression regarded modulo total derivatives."""

    __slots__ = ("rep",)

    def __init__(self, rep: Expression):
        self.rep = rep

    @property
    def ctx(self) -> Context:
        return self.rep.ctx

    def compare(self, other: "LocalFunctional") -> FunctionalComparison:
        """Equality in V / dV with its certificate, descent first and delta
        only on a stall: for equal functionals, an antiderivative g of the
        difference (strict), or strict False when g would need a logarithm.
        Raises NotExact when they are equal but the descent stalls short of g."""
        z = _zero_mod_derivatives(self.rep - other.rep)
        if z is None or z[1]:
            return FunctionalComparison(False)
        g, _, stall = z
        if stall is None:
            return FunctionalComparison(True, True, g)
        if isinstance(stall, LogRequired):
            return FunctionalComparison(True, False, None)
        raise stall

    def is_zero(self) -> bool:
        """Zero in V / dV: the descent runs first, and when it runs through
        its constant decides; delta runs only when it stalls."""
        z = _zero_mod_derivatives(self.rep)
        return z is not None and not z[1]

    def __eq__(self, other):
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __add__(self, other: "LocalFunctional") -> "LocalFunctional":
        return LocalFunctional(self.rep + other.rep)

    def __sub__(self, other: "LocalFunctional") -> "LocalFunctional":
        return LocalFunctional(self.rep - other.rep)

    def render(self) -> str:
        return "int(%s)" % self.rep.render()

    def __repr__(self):
        return self.render()


def functional_equal(a, b) -> bool:
    """Equality in V / dV: the difference has zero variational derivative
    and leaves no constant modulo total derivatives, so f and f + d(u/u')
    are equal although d(u/u') has the constant term 1."""
    if isinstance(a, Expression):
        a = LocalFunctional(a)
    if isinstance(b, Expression):
        b = LocalFunctional(b)
    return a == b
