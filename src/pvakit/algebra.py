"""Differential algebra on jet variables u_i^(n) with rational exponents.

An Expression is a finite sum of monomials in the generators u_i^(n)
(i < ell a variable index, n >= 0 a derivative order) with exponents in QQ
and coefficients in QQ(parameters).  Generators are keyed by the pair
(n, i) so that tuple comparison matches the order-then-index filtration.
All values are immutable after construction, which is what lets
``memoised`` reuse a value computed from the same objects inside one
``memo_scope``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from typing import Optional, Union

from .errors import NonMonomialDivisor, NonRationalExponent
from .fields import _NUMBERS, Coefficient, _norm, join_signed, rational, render_signed

Gen = tuple[int, int]  # (derivative order n, variable index i), both >= 0
Monomial = tuple[tuple[Gen, Union[int, Fraction]], ...]  # sorted by Gen, descending

ONE_MONO: Monomial = ()

# what Expression arithmetic turns into constants: Coefficients and the
# numbers of ``fields``, of which ``rational`` refuses the floats.
# isinstance against this tuple may reach a numbers.Number ABC check, so
# the hot paths first test for an Expression
_COEFFICIENTS = (Coefficient,) + _NUMBERS
_F1 = Fraction(1)

# the memo of the innermost open memo_scope of this thread or task,
# (fn, id of each argument) -> (the arguments, fn(*arguments)); None
# outside a scope
_memo: ContextVar[Optional[dict]] = ContextVar("pvakit_memo", default=None)


@contextmanager
def memo_scope():
    """Within the block, ``memoised(fn, *args)`` computes fn once per
    identity of its arguments; the memo is dropped when the block ends.
    A hit returns exactly what recomputing would, since every value is
    immutable, and each entry keeps its arguments alive, so no id is
    reused while the memo lives.  A nested scope starts empty."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def memoised(fn, *args):
    """fn(*args), reused within a memo_scope for the same argument objects;
    the arguments must be immutable (an Expression, an operator, a tuple)."""
    memo = _memo.get()
    if memo is None:
        return fn(*args)
    key = (fn,) + tuple(map(id, args))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (args, fn(*args))
    return hit[1]


class _Exponent(Fraction):
    """A non-integral exponent, interned by ``_exp``, whose hash is computed
    once.  Its ``==``, ``<``, ``hash``, ``str``, ``repr``, ``copy`` and
    ``pickle`` are those of the plain Fraction of the same value;
    arithmetic on it gives plain Fractions.  ``_pred`` and ``_succ`` hold
    the interned e - 1 and e + 1, filled on first use by ``_fill_pred``
    and ``_fill_succ``, so that the derivations step an exponent by
    reading a slot, with no Fraction arithmetic and no re-interning."""

    __slots__ = ("_hash", "_pred", "_succ")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Fraction(%d, %d)" % (self._numerator, self._denominator)

    def __reduce__(self):
        return (_exp, (Fraction(self._numerator, self._denominator),))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


_EXPONENTS: dict[tuple[int, int], _Exponent] = {}


def _intern(n: int, d: int) -> _Exponent:
    """The one ``_Exponent`` equal to n/d, for coprime n and d > 1."""
    e = _EXPONENTS.get((n, d))
    if e is None:
        e = Fraction.__new__(_Exponent, n, d)
        e._hash = hash(Fraction(n, d))
        e._pred = e._succ = None
        _EXPONENTS[(n, d)] = e
    return e


def _fill_pred(e: _Exponent) -> _Exponent:
    """Set and return e._pred, the interned e - 1, and link it back."""
    d = e._denominator
    p = e._pred = _intern(e._numerator - d, d)
    p._succ = e
    return p


def _fill_succ(e: _Exponent) -> _Exponent:
    """Set and return e._succ, the interned e + 1, and link it back."""
    d = e._denominator
    s = e._succ = _intern(e._numerator + d, d)
    s._pred = e
    return s


def _exp(x) -> Union[int, Fraction]:
    """The canonical exponent equal to x: an int when x is integral, else
    the one interned ``_Exponent`` of that value, so that monomials, which
    are dict keys everywhere, hash their exponents without recomputing a
    Fraction hash (a modular inverse) at every lookup, and carry their
    neighbours e - 1 and e + 1 (see ``_Exponent``)."""
    cls = x.__class__
    if cls is int or cls is _Exponent:
        return x
    if isinstance(x, Fraction):
        n, d = x._numerator, x._denominator
        if d == 1:
            return n
        return _intern(n, d)
    if isinstance(x, int):
        return int(x)
    raise NonRationalExponent("exponent %r is not a rational number" % (x,))


def _exp_arg(x) -> Fraction:
    """Coerce a user-supplied exponent, rejecting floats outright."""
    if isinstance(x, float):
        raise NonRationalExponent("float exponent %r; use Fraction" % (x,))
    return Fraction(x)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        ga, ea = a[ia]
        gb, eb = b[ib]
        if ga > gb:
            out.append(a[ia])
            ia += 1
        elif gb > ga:
            out.append(b[ib])
            ib += 1
        else:
            e = ea + eb
            if e:
                if e.__class__ is not int:
                    e = _exp(e)
                out.append((ga, e))
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def mono_pow(a: Monomial, k) -> Monomial:
    """a^k for a nonzero int or Fraction k."""
    return tuple((g, _exp(e * k)) for g, e in a)


def mono_degree(a: Monomial):
    """Total exponent sum (the eigenvalue of the exponent-sum grading):
    an int when integral, else the interned exponent."""
    d = 0
    for _, e in a:
        d += e
    return d if d.__class__ is int else _exp(d)


def mono_weight(a: Monomial):
    """Derivative count sum n*e over the factors (u^(n))^e; the total
    derivative raises it by exactly one."""
    w = 0
    for (n, _), e in a:
        w += n * e
    return w


def mono_bump(a: Monomial, idx: int) -> Monomial:
    """One product-rule step of the total derivative at position idx:
    lower that generator's exponent by one and multiply by its derivative
    generator (order + 1, same variable).

    The result is spliced from slices of a.  Since a is sorted in
    descending order, the slot of the derivative generator lies before
    idx; a short scan back from idx finds it.  There that generator is
    inserted with exponent 1, or the exponent already present is raised
    (and the factor dropped when it reaches 0); then a[idx] is lowered
    (and dropped when it was 1).  Integer exponents step by int
    arithmetic, the others by reading the interned neighbours ``_pred``
    and ``_succ``."""
    g, e = a[idx]
    up: Gen = (g[0] + 1, g[1])
    j = idx
    while j and a[j - 1][0] <= up:
        j -= 1
    if e.__class__ is int:
        rest = a[idx + 1:] if e == 1 else ((g, e - 1),) + a[idx + 1:]
    else:
        p = e._pred
        rest = ((g, _fill_pred(e) if p is None else p),) + a[idx + 1:]
    if a[j][0] != up:
        return a[:j] + ((up, 1),) + a[j:idx] + rest
    x = a[j][1]
    if x.__class__ is int:
        if x == -1:
            return a[:j] + a[j + 1:idx] + rest
        x += 1
    else:
        x = _fill_succ(x) if x._succ is None else x._succ
    return a[:j] + ((up, x),) + a[j + 1:idx] + rest


def power(x, k: int, one, mul):
    """x^k for an integer k >= 0 by square and multiply, with one the unit
    and mul the product of x's ring, which need not be commutative: the
    powers of x commute."""
    out = one
    while k > 1:  # no square after the top bit
        if k & 1:
            out = mul(out, x)
        x = mul(x, x)
        k >>= 1
    return mul(out, x) if k else out


def refuse_huge_power(f: "Expression", k: int) -> None:
    """Raise MemoryError, before any multiplication, when f^k has a
    coefficient that no machine can hold: the largest or the smallest term
    of f has a scale c (a plain number, or the q of a Coefficient q N/D)
    with |c| != 1, and k times the larger bit length b of the numerator
    and denominator of c passes sys.maxsize.

    Order monomials by their exponent vectors, read lexicographically
    with the generators in descending order.  The exponent vector of a
    product is the sum of those of its factors, and for rational vectors
    v < w implies v + x < w + x, so the order is total and multiplication
    preserves it.  Hence the product of the largest terms of f and g is
    larger than every other product of a term of f and one of g, nothing
    cancels it, and its coefficient lc(f) lc(g) is not zero: the largest
    term of f g is the product of the largest terms.  By induction the
    largest term of f^k is that of f raised to k, with coefficient lc^k,
    and so is the smallest.  The larger of the numerator and denominator
    of c^k is that of c (at least 2, of b >= 2 bits) raised to k, so it
    has at least k (b - 1) + 1 > k b / 2 bits: past sys.maxsize / 2,
    more than any memory holds.  By Gauss's lemma (q N/D)^k = q^k N^k/D^k
    is already canonical, so its scale is q^k.

    For an operator A with top coefficient a (the coefficient of its
    highest d^r), a d^r o b d^s = a b d^(r+s) plus lower powers, and a b
    is not zero by the above, so the top coefficient of A^k is a^k, and
    the test applied to a refuses A^k in the same way.

    The test runs only for k > sys.maxsize >> 32: a smaller k passes
    sys.maxsize only with a coefficient of more than 2^32 bits, which
    alone fills 512 MB, so u^2 does no extra work."""
    if k <= sys.maxsize >> 32 or not f.terms:
        return
    gens = sorted({g for m in f.terms for g, _ in m}, reverse=True)

    def exponents(m):
        e = dict(m)
        return tuple(e.get(g, 0) for g in gens)

    for m in (max(f.terms, key=exponents), min(f.terms, key=exponents)):
        c = f.terms[m]
        if c.__class__ is Coefficient:
            c = c._k
        if abs(c) != 1:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if k * bits > sys.maxsize:
                raise MemoryError("a %d-bit number to the power %d" % (bits, k))


class Context:
    """Ambient algebra: variable names and coefficient parameters."""

    __slots__ = ("var_names", "params", "_zero")

    def __init__(self, var_names=("u",), params=()):
        var_names = tuple(var_names)
        params = tuple(params)
        if len(set(var_names) | set(params)) != len(var_names) + len(params):
            raise ValueError("variable and parameter names must be distinct")
        self.var_names = var_names
        self.params = params
        self._zero = None

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def __eq__(self, other):
        return (
            isinstance(other, Context)
            and self.var_names == other.var_names
            and self.params == other.params
        )

    def __hash__(self):
        return hash((self.var_names, self.params))

    def __repr__(self):
        return "Context(vars=%s, params=%s)" % (self.var_names, self.params)

    # -- element constructors -------------------------------------------

    def zero(self) -> "Expression":
        if self._zero is None:
            self._zero = Expression(self, {})
        return self._zero

    def one(self) -> "Expression":
        return self.num(1)

    def num(self, p, q=1) -> "Expression":
        value = rational(p) if q == 1 else _norm(Fraction(rational(p), rational(q)))
        if not value:
            return self.zero()
        return Expression(self, {ONE_MONO: value})

    def coeff_expr(self, c) -> "Expression":
        """The constant c, a number or a Coefficient."""
        if c.__class__ is not Coefficient:
            return self.num(c)
        return Expression(self, {ONE_MONO: c})

    def gen(self, var, order=0) -> "Expression":
        """The generator u_i^{(order)}; var is a name or a 0-based index."""
        i = var if isinstance(var, int) else self.var_names.index(var)
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        mono: Monomial = (((order, i), 1),)
        return Expression(self, {mono: 1})

    def param(self, name) -> "Expression":
        j = name if isinstance(name, int) else self.params.index(name)
        return Expression(
            self, {ONE_MONO: Coefficient.parameter(j, len(self.params))}
        )

    def parse(self, text: str) -> "Expression":
        from .parsing import parse_expression

        return parse_expression(text, self)

    # -- rendering --------------------------------------------------------

    def gen_name(self, g: Gen) -> str:
        n, i = g
        base = self.var_names[i]
        if n == 0:
            return base
        if n <= 3:
            return base + "'" * n
        return "%s^(%d)" % (base, n)


class Expression:
    """Element of the algebra of differential functions over a Context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        self.terms = terms

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == ONE_MONO for m in self.terms)

    def constant_coefficient(self):
        """The constant term: a plain rational, or a Coefficient when a
        parameter occurs."""
        return self.terms.get(ONE_MONO, 0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def diff_order(self) -> Optional[Gen]:
        """Largest (n, i) on which the expression depends, None for constants."""
        top: Optional[Gen] = None
        for m in self.terms:
            if m and (top is None or m[0][0] > top):
                top = m[0][0]
        return top

    def degree_components(self) -> list[tuple[Fraction, "Expression"]]:
        """Split into eigencomponents of the exponent-sum grading."""
        buckets: dict = {}
        for m, c in self.terms.items():
            buckets.setdefault(mono_degree(m), {})[m] = c
        return [
            (Fraction(d), Expression(self.ctx, t)) for d, t in sorted(buckets.items())
        ]

    # -- arithmetic ---------------------------------------------------------

    def _check_ctx(self, other: "Expression"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("expressions live in different contexts")

    def __add__(self, other):
        if other.__class__ is not Expression and isinstance(other, _COEFFICIENTS):
            other = self.ctx.coeff_expr(other)
        self._check_ctx(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = _norm(s + c)
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Expression(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Expression(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        # a number is read exactly before it is negated: -Decimal rounds
        if other.__class__ is not Expression and isinstance(other, _COEFFICIENTS):
            other = self.ctx.coeff_expr(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Expression and isinstance(other, _COEFFICIENTS):
            return self.scale(other)
        self._check_ctx(other)
        if not self.terms or not other.terms:
            return self.ctx.zero()
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                s = out.get(m)
                s = _norm(ca * cb if s is None else s + ca * cb)
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Expression(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, q) -> "Expression":
        """q times self, for a number or a Coefficient q."""
        if q.__class__ is not int and q.__class__ is not Coefficient:
            q = rational(q)
        if not q:
            return self.ctx.zero()
        return Expression(self.ctx, {m: _norm(c * q) for m, c in self.terms.items()})

    def __pow__(self, k):
        k = _exp_arg(k)
        if k.denominator == 1 and k >= 0:
            n = int(k)
            refuse_huge_power(self, n)
            return power(self, n, self.ctx.one(), Expression.__mul__)
        if not self.terms and k < 0:
            raise NonMonomialDivisor("division by zero")
        if not self.is_monomial():
            raise NonMonomialDivisor(
                "fractional or negative powers need a single-term base"
            )
        (m, c), = self.terms.items()
        if c == 1:
            return Expression(self.ctx, {mono_pow(m, k): 1})
        if k.denominator != 1:
            raise NonMonomialDivisor("fractional powers need a unit monomial base")
        return Expression(self.ctx, {mono_pow(m, -1): _norm(_F1 / c)}) ** -k

    def __truediv__(self, other):
        if isinstance(other, _NUMBERS):
            return self.scale(Fraction(1) / rational(other))
        if other.__class__ is Coefficient:
            other = self.ctx.coeff_expr(other)
        self._check_ctx(other)
        if not other.terms:
            raise NonMonomialDivisor("division by zero")
        if not other.is_monomial():
            raise NonMonomialDivisor("division is only defined by monomials")
        (m, c), = other.terms.items()
        return self * Expression(self.ctx, {mono_pow(m, -1): _norm(_F1 / c)})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) or other.__class__ is Coefficient:
            other = self.ctx.coeff_expr(other)
        if not isinstance(other, Expression):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    __hash__ = None

    # -- derivations ----------------------------------------------------------

    def partial(self, i: int, n: int) -> "Expression":
        """Partial derivative with respect to u_i^{(n)}: in each monomial
        the factor of u_i^{(n)} is spliced out and, unless its exponent was
        1, put back with the exponent one lower (an int, or the interned
        ``_pred``).  No two terms meet: the image keeps every other factor
        and the exponent e - 1, so it determines the monomial it came
        from, and e != 0, so no coefficient c*e cancels."""
        g = (n, i)
        out: dict = {}
        for m, c in self.terms.items():
            for t, (h, e) in enumerate(m):
                if h == g:
                    if e.__class__ is not int:
                        p = e._pred
                        if p is None:
                            p = _fill_pred(e)
                        nm = m[:t] + ((g, p),) + m[t + 1:]
                        c = _norm(c * e)
                    elif e == 1:
                        nm = m[:t] + m[t + 1:]
                    else:
                        nm = m[:t] + ((g, e - 1),) + m[t + 1:]
                        c = _norm(c * e)
                    out[nm] = c
                    break
                if h < g:
                    break
        return Expression(self.ctx, out)

    def total_derivative(self, times: int = 1) -> "Expression":
        """Apply the derivation sum_{i,n} u_i^{(n+1)} d/du_i^{(n)}, one
        ``mono_bump`` per factor of each monomial; a zero result ends the
        loop, so a constant dies after one derivative whatever ``times``.
        A linear expression (constant plus generators to the power 1)
        shifts every order by ``times`` > 1 in one step."""
        if times > 1 and all(
            not m or (len(m) == 1 and m[0][1] == 1)
            for m in self.terms
        ):
            out = {}
            for m, c in self.terms.items():
                if m:
                    (n, i), _ = m[0]
                    out[(((n + times, i), 1),)] = c
            return Expression(self.ctx, out)
        cur = self
        for _ in range(times):
            if not cur.terms:
                break
            out: dict = {}
            for m, c in cur.terms.items():
                for idx in range(len(m)):
                    nm = mono_bump(m, idx)
                    e = m[idx][1]
                    nc = c if e.__class__ is int and e == 1 else _norm(c * e)
                    s = out.get(nm)
                    if s is None:
                        out[nm] = nc
                    else:
                        s = _norm(s + nc)
                        if s:
                            out[nm] = s
                        else:
                            del out[nm]
            cur = Expression(cur.ctx, out)
        return cur

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        return join_signed(self.signed_terms(""))

    def signed_terms(self, last: str) -> list[tuple[bool, str]]:
        """Each term, highest monomial first, as (negative, text without
        that sign) for ``fields.join_signed``; a nonempty ``last`` is
        written as the last factor of every term."""
        ctx, terms = self.ctx, self.terms
        return [
            _render_term(ctx, m, terms[m], last) for m in sorted(terms, reverse=True)
        ]

    def __repr__(self):
        return self.render()


def _render_exponent(e) -> str:
    if isinstance(e, int) and e >= 0:
        return "^%d" % e
    return "^(%s)" % e


def _render_term(ctx: Context, m: Monomial, c, last: str) -> tuple[bool, str]:
    """One term c*m*last as (negative, text without that sign).  A
    coefficient over a non-constant denominator keeps its sign in its
    text, which is moved out here, so no sum prints "+ -"."""
    factors = []
    for g, e in m:
        name = ctx.gen_name(g)
        factors.append(name if e == 1 else name + _render_exponent(e))
    if last:
        factors.append(last)
    negative, ctext = render_signed(c, ctx.params)
    if ctext[0] == "-":
        negative, ctext = True, ctext[1:]
    if ctext == "1" and factors:
        return negative, "*".join(factors)
    return negative, "*".join([ctext] + factors)


VectorExpr = tuple[Expression, ...]


def vec_sub(a: VectorExpr, b: VectorExpr) -> VectorExpr:
    return tuple(x - y for x, y in zip(a, b))

def vec_is_zero(a: VectorExpr) -> bool:
    return all(x.is_zero() for x in a)

def vec_dot(a, b) -> Expression:
    out = a[0].ctx.zero()
    for x, y in zip(a, b):
        out = out + x * y
    return out
