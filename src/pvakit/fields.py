"""Exact arithmetic in the field QQ(p_1, ..., p_k) of rational functions.

A coefficient takes one of two forms.

* A plain rational (no parameter occurs) is a Python number: an ``int``
  when the value is integral, else a ``Fraction`` whose denominator is not
  1.  ``_norm`` turns an integral Fraction into its int.  Since
  ``int / int`` is a float in Python, every division that can meet two
  ints goes through ``Fraction``, and ``rational`` refuses floats at every
  entry point.  The hot paths read the ``_numerator``/``_denominator``
  slots of a ``Fraction`` directly; its public properties only wrap them.
* A Coefficient, when a parameter occurs, holds k * N / D.  k is a nonzero
  plain rational.  N and D are sparse polynomials (maps exponent-tuple ->
  int) with integer values, each primitive (its values have gcd 1) with a
  positive leading coefficient (leading: at the largest exponent tuple),
  and coprime.  D is None when it is 1, the common case; then N is not
  constant.  This form is canonical, so ``==`` and ``hash`` compare
  (k, N, D), and a Coefficient never equals a number.  It meets a number
  through ``__radd__``, ``__rsub__``, ``__rmul__`` and ``__rtruediv__``,
  and every operation whose result holds no parameter returns a plain
  rational.

``scale`` and ``-`` change only k and share N and D.  A product over
D = None is k1*k2 times N1*N2 and runs no gcd: by Gauss's lemma a product
of primitive polynomials is primitive, and its leading coefficient is the
product of the two positive leading coefficients.  A sum of like terms
q1*c + q2*c (one N, D = None) only adds k1 + k2.  Any other sum meets
through the ratio a/b = k2/k1 of its scales, a missing D read as 1:
k1*N1/D1 + k2*N2/D2 = (k1/b) * (b*N1/D1 + a*N2/D2).  ``_quotient``
normalises every sum and product that is not a fast path; over a
non-constant D it runs the polynomial gcd and exact division (primitive
pseudo-remainder sequence).  A power is taken of the constant
``ctx.coeff_expr(c)``, through ``Expression.__pow__`` and its size guard.

``num`` and ``den`` are read-only views in the normalized form that
``render`` reads: a denominator monic in its leading monomial, int or
Fraction values.  ``render`` and ``render_signed`` also take a plain
rational.  ``join_signed`` is the one place where signed terms become a
sum: of a parameter polynomial here, of an Expression, of an operator
entry and of a lambda-symbol.  Everything is immutable.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd
from operator import add
from typing import Union

from .errors import NonRationalCoefficient

Exps = tuple[int, ...]
Poly = dict[Exps, Union[int, Fraction]]  # the num/den views
IntPoly = dict[Exps, int]
UniPoly = dict[int, IntPoly]  # univariate in one parameter, IntPoly coefficients

_F1 = Fraction(1)
_NUMBERS = (int, Fraction, numbers.Number)  # int and Fraction match by exact type
_ZEROS: dict[int, tuple] = {}


def _zeros(nvars: int) -> Exps:
    z = _ZEROS.get(nvars)
    if z is None:
        z = _ZEROS[nvars] = (0,) * nvars
    return z


def rational(q):
    """q as an exact rational: an int when integral, else a Fraction.

    Accepts ints, Fractions and whatever ``Fraction`` reads exactly
    (strings, Decimals, other Rationals); a float, or any other real that
    is not a Rational, raises NonRationalCoefficient.
    """
    if q.__class__ is int:
        return q
    if not isinstance(q, Fraction):
        if isinstance(q, int):
            return int(q)
        if isinstance(q, numbers.Real) and not isinstance(q, numbers.Rational):
            raise NonRationalCoefficient(
                "coefficient %r is not a rational number; use Fraction" % (q,)
            )
        q = Fraction(q)
    elif q.__class__ is not Fraction:
        q = Fraction(q._numerator, q._denominator)
    return q._numerator if q._denominator == 1 else q


def _norm(q):
    """The plain rational q with an integral Fraction made its int; any
    other value unchanged."""
    return q._numerator if q.__class__ is Fraction and q._denominator == 1 else q


def _ratio(n: int, d: int):
    """n / d as a plain rational, for ints n and d > 0."""
    return n if d == 1 else _norm(Fraction(n, d))


# -- integer polynomials --------------------------------------------------


def _is_const(p: IntPoly) -> bool:
    """Whether the nonzero p is a constant; for a primitive p with a
    positive leading coefficient, whether it is 1."""
    return len(p) == 1 and not any(next(iter(p)))


def _primitive(p: IntPoly) -> tuple[int, IntPoly]:
    """(c, p / c) for the nonzero p: c is the integer content of p, signed
    so that p / c has a positive leading coefficient."""
    c = gcd(*p.values())
    if p[max(p)] < 0:
        c = -c
    if c == 1:
        return 1, p
    return c, {e: q // c for e, q in p.items()}


def _lincomb(m: int, a: IntPoly, n: int, b: IntPoly) -> IntPoly:
    """m*a + n*b."""
    out = dict(a) if m == 1 else {e: m * q for e, q in a.items()}
    for e, q in b.items():
        s = out.get(e)
        if s is None:
            out[e] = n * q
        else:
            s += n * q
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _pmul(a: IntPoly, b: IntPoly) -> IntPoly:
    out: IntPoly = {}
    get = out.get
    for ea, qa in a.items():
        for eb, qb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + qa * qb
    if len(a) > 1 and len(b) > 1 and not all(out.values()):
        return {e: q for e, q in out.items() if q}
    return out


def _pvars(a: IntPoly, b: IntPoly) -> list[int]:
    used = set()
    for src in (a, b):
        for e in src:
            for j, x in enumerate(e):
                if x:
                    used.add(j)
    return sorted(used)


def _to_univar(a: IntPoly, v: int) -> UniPoly:
    """View a as a univariate polynomial in parameter v."""
    out: UniPoly = {}
    for e, q in a.items():
        out.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1 :]] = q
    return out


def _from_univar(u: UniPoly, v: int) -> IntPoly:
    out: IntPoly = {}
    for d, coeff in u.items():
        for e, q in coeff.items():
            out[e[:v] + (d,) + e[v + 1 :]] = q
    return out


def _usub(u: UniPoly, w: UniPoly) -> UniPoly:
    out = dict(u)
    for d, c in w.items():
        s = _lincomb(1, out[d], -1, c) if d in out else {e: -q for e, q in c.items()}
        if s:
            out[d] = s
        elif d in out:
            del out[d]
    return out


def _ucontent(u: UniPoly) -> IntPoly:
    """The gcd of the coefficients of u, primitive."""
    g = None
    for c in u.values():
        g = c if g is None else _pgcd(g, c)
        if _is_const(g):
            break
    return _primitive(g)[1]


def _uprimitive(u: UniPoly) -> UniPoly:
    """u divided by the gcd of its coefficients and by their integer content."""
    cont = _ucontent(u)
    if not _is_const(cont):
        u = {d: _pdiv_exact(c, cont) for d, c in u.items()}
    n = gcd(*(q for c in u.values() for q in c.values()))
    if n != 1:
        u = {d: {e: q // n for e, q in c.items()} for d, c in u.items()}
    return u


def _pseudo_rem(a: UniPoly, b: UniPoly) -> UniPoly:
    db = max(b)
    lb = b[db]
    r = a
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        r = {d: _pmul(c, lb) for d, c in r.items()}
        r = _usub(r, {d + dr - db: _pmul(c, lr) for d, c in b.items()})
    return r


def _pgcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd of the nonzero a and b, primitive with a positive leading
    coefficient."""
    nvars = len(next(iter(a)))
    # common monomial part
    mono = tuple(min(min(e[j] for e in a), min(e[j] for e in b)) for j in range(nvars))
    if len(a) == 1 or len(b) == 1:
        return {mono: 1}
    if any(mono):
        a = {tuple(x - m for x, m in zip(e, mono)): q for e, q in a.items()}
        b = {tuple(x - m for x, m in zip(e, mono)): q for e, q in b.items()}
    v = _pvars(a, b)[-1]
    ua, ub = _to_univar(a, v), _to_univar(b, v)
    if max(ua) < max(ub):
        ua, ub = ub, ua
    cont = _pgcd(_ucontent(ua), _ucontent(ub))
    ua, ub = _uprimitive(ua), _uprimitive(ub)
    while ub:
        r = _pseudo_rem(ua, ub)
        ua, ub = ub, (_uprimitive(r) if r else {})
    g = _primitive(_pmul(_from_univar(ua, v), cont))[1]
    if any(mono):
        g = {tuple(x + m for x, m in zip(e, mono)): q for e, q in g.items()}
    return g


def _pdiv_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact division a / b of nonzero integer polynomials; b must divide a."""
    if _is_const(b):
        (c,) = b.values()
        if any(q % c for q in a.values()):
            raise ArithmeticError("inexact polynomial division")
        return {e: q // c for e, q in a.items()}
    v = _pvars(a, b)[-1]
    ua, ub = _to_univar(a, v), _to_univar(b, v)
    db = max(ub)
    lb = ub[db]
    quo: UniPoly = {}
    while ua:
        da = max(ua)
        if da < db:
            raise ArithmeticError("inexact polynomial division")
        qc = _pdiv_exact(ua[da], lb)
        quo[da - db] = qc
        ua = _usub(ua, {d + da - db: _pmul(c, qc) for d, c in ub.items()})
    return _from_univar(quo, v)


def _quotient(k, S: IntPoly, T: IntPoly, nvars: int):
    """The coefficient k * S / T, for a nonzero plain rational k and integer
    polynomials S and T != 0: the one normalisation of every sum and
    product that is not a fast path."""
    if not S:
        return 0
    cs, S = _primitive(S)
    ct, T = _primitive(T)
    k = _norm(k * Fraction(cs, ct))
    if not _is_const(T) and not _is_const(S):
        g = _pgcd(S, T)
        if not _is_const(g):
            S = _pdiv_exact(S, g)
            T = _pdiv_exact(T, g)
    if not _is_const(T):
        return _parametric(k, S, T, nvars)
    return k if _is_const(S) else _parametric(k, S, None, nvars)


class Coefficient:
    """An element of QQ(p_1, ..., p_k) in which a parameter occurs, held as
    the canonical k * N / D of the module docstring in ``_k``, ``_n`` and
    ``_d``; ``nvars`` is the number of parameters.  Every operation gives
    a plain rational when no parameter is left.
    """

    __slots__ = ("nvars", "_k", "_n", "_d")

    @staticmethod
    def parameter(j: int, nvars: int) -> "Coefficient":
        e = tuple(1 if k == j else 0 for k in range(nvars))
        return _parametric(1, {e: 1}, None, nvars)

    # -- views -----------------------------------------------------------

    @property
    def num(self) -> Poly:
        """The numerator over the denominator ``den``, which is monic in
        its leading monomial; int or Fraction values."""
        k = self._k
        d = self._d
        if d is not None:
            lc = d[max(d)]
            if lc != 1:
                k = _F1 * k / lc
        return {e: _norm(k * q) for e, q in self._n.items()}

    @property
    def den(self) -> Poly:
        d = self._d or {_zeros(self.nvars): 1}
        lc = d[max(d)]
        return dict(d) if lc == 1 else {e: _ratio(q, lc) for e, q in d.items()}

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        nvars = self.nvars
        k1, n1, d1 = self._k, self._n, self._d
        if other.__class__ is Coefficient:
            k2, n2, d2 = other._k, other._n, other._d
        else:
            if not isinstance(other, _NUMBERS):
                return NotImplemented
            k2 = rational(other)
            if not k2:
                return self
            n2, d2 = {_zeros(nvars): 1}, None
        if d1 is None and d2 is None and (n1 is n2 or n1 == n2):
            k = _norm(k1 + k2)
            return _parametric(k, n1, None, nvars) if k else 0
        # k1*N1/D1 + k2*N2/D2 = (k1/b) * (b*N1/D1 + a*N2/D2) with a/b = k2/k1
        r = Fraction(k2, k1)
        a, b = r._numerator, r._denominator
        unit = {_zeros(nvars): 1}
        d1, d2 = d1 or unit, d2 or unit
        if d1 == d2:
            S, T = _lincomb(b, n1, a, n2), d1
        else:
            S, T = _lincomb(b, _pmul(n1, d2), a, _pmul(n2, d1)), _pmul(d1, d2)
        return _quotient(Fraction(k1, b), S, T, nvars)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Coefficient and isinstance(other, _NUMBERS):
            other = rational(other)  # read exactly before negating: -Decimal rounds
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self) -> "Coefficient":
        return _parametric(-self._k, self._n, self._d, self.nvars)

    def __mul__(self, other):
        if other.__class__ is not Coefficient:
            return self.scale(other) if isinstance(other, _NUMBERS) else NotImplemented
        k = _norm(self._k * other._k)
        N = _pmul(self._n, other._n)
        d1, d2 = self._d, other._d
        if d1 is None and d2 is None:  # Gauss's lemma: N is primitive
            return _parametric(k, N, None, self.nvars)
        T = d2 if d1 is None else d1 if d2 is None else _pmul(d1, d2)
        return _quotient(k, N, T, self.nvars)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Coefficient:
            return self * (1 / other)
        if not isinstance(other, _NUMBERS):
            return NotImplemented
        other = rational(other)
        if not other:
            raise ZeroDivisionError("division by zero coefficient")
        return self.scale(_F1 / other)

    def __rtruediv__(self, q):
        n, nvars = self._n, self.nvars
        d = self._d or {_zeros(nvars): 1}
        return _parametric(_norm(_F1 / self._k), d, None if _is_const(n) else n, nvars).scale(q)

    def scale(self, q):
        if q.__class__ is not int and not isinstance(q, Fraction):
            q = rational(q)
        if not q:
            return 0
        return _parametric(_norm(self._k * q), self._n, self._d, self.nvars)

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not Coefficient:
            return NotImplemented
        return self._k == other._k and self._n == other._n and self._d == other._d

    def __hash__(self):
        d = self._d
        return hash((self._k, frozenset(self._n.items()), d and frozenset(d.items())))

    def __repr__(self):
        names = tuple("p%d" % j for j in range(self.nvars))
        return "Coefficient(%s)" % render(self, names)


_new = object.__new__


def _parametric(k, n: IntPoly, d, nvars: int) -> Coefficient:
    """The parametric coefficient k * n / d, already in canonical form."""
    out = _new(Coefficient)
    out.nvars = nvars
    out._k = k
    out._n = n
    out._d = d
    return out


# -- rendering ---------------------------------------------------------------


def render(c, names: tuple[str, ...]) -> str:
    """The coefficient c, a plain rational or a Coefficient, as text in the
    parameter names ``names``."""
    if c.__class__ is not Coefficient:
        return str(c)
    num = c.num
    text = _render_poly(num, names)
    if c._d is None:
        return text
    den = c.den
    if len(num) > 1:
        text = "(%s)" % text
    den_text = _render_poly(den, names)
    return "%s/%s" % (text, den_text if _is_atomic_poly(den) else "(%s)" % den_text)


def render_signed(c, names: tuple[str, ...]) -> tuple[bool, str]:
    """(sign is negative, text without that sign) for the coefficient c
    written in front of a monomial.  A plain rational or a one-term
    numerator over a constant denominator gives up its sign, and a sum over
    a constant denominator is parenthesised; a non-constant denominator
    renders as "(sum)/den", which needs neither."""
    if c.__class__ is not Coefficient:
        return c < 0, str(abs(c))
    if c._d is not None:
        return False, render(c, names)
    if len(c._n) > 1:
        return False, "(%s)" % _render_poly(c.num, names)
    if c._k < 0:
        return True, _render_poly((-c).num, names)
    return False, _render_poly(c.num, names)


def _is_atomic_poly(p: Poly) -> bool:
    if len(p) != 1:
        return False
    (e, q), = p.items()
    return q == 1 and sum(1 for x in e if x) <= 1


def _render_poly(p: Poly, names: tuple[str, ...]) -> str:
    terms = []
    for e in sorted(p, reverse=True):
        q = p[e]
        factors = []
        for j, x in enumerate(e):
            if x == 0:
                continue
            factors.append(names[j] if x == 1 else "%s^%d" % (names[j], x))
        mag = abs(q)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        terms.append((q < 0, body))
    return join_signed(terms)


def join_signed(terms) -> str:
    """The (negative, body) pairs as one sum: " - body" for a negative term,
    "-body" in front, "0" for none; every sum that pvakit prints."""
    parts = []
    for negative, body in terms:
        if parts:
            parts.append(" - " if negative else " + ")
        elif negative:
            parts.append("-")
        parts.append(body)
    return "".join(parts) if parts else "0"
