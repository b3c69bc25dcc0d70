"""Exact arithmetic in the field QQ(p_1, ..., p_k) of rational functions.

A Coefficient takes one of two forms.

* A plain rational (no parameter occurs) holds only ``const``: an ``int``
  when the value is integral, else a ``Fraction`` whose denominator is not
  1.  ``+ - * scale neg ==`` on two plain rationals is one Python-number
  operation plus one object; ``num``/``den`` are built only when something
  asks for them.  Since ``int / int`` is a float in Python, every
  reciprocal that can meet an ``int`` divides through ``Fraction``
  (``_F1 / x``), and ``rational`` refuses floats at every entry point.
  The hot paths read the ``_numerator``/``_denominator`` slots of a
  ``Fraction`` directly; its public properties only wrap them.
* A parametric coefficient holds a normalized quotient num/den of sparse
  polynomials (maps exponent-tuple -> int or Fraction): numerator and
  denominator coprime, denominator monic in its leading monomial
  (tuple-lexicographic order), and at least one of them non-constant.

Zero is the plain rational 0.  Everything is immutable.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Union

from .errors import NonRationalCoefficient

Exps = tuple[int, ...]
Poly = dict[Exps, Union[int, Fraction]]

_F0 = Fraction(0)
_F1 = Fraction(1)
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


def _pconst(q: Fraction, nvars: int) -> Poly:
    return {(0,) * nvars: q} if q else {}


def _pis_const(a: Poly) -> bool:
    return len(a) == 0 or (len(a) == 1 and not any(next(iter(a))))


def _pconst_value(a: Poly) -> Fraction:
    if not a:
        return _F0
    return next(iter(a.values()))


def _padd(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, q in b.items():
        s = out.get(e)
        if s is None:
            out[e] = q
        else:
            s = s + q
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _pneg(a: Poly) -> Poly:
    return {e: -q for e, q in a.items()}


def _pscale(a: Poly, q: Fraction) -> Poly:
    if not q:
        return {}
    return {e: c * q for e, c in a.items()}


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if _pis_const(a):
        return _pscale(b, _pconst_value(a))
    if _pis_const(b):
        return _pscale(a, _pconst_value(b))
    out: Poly = {}
    for ea, qa in a.items():
        for eb, qb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e)
            s = qa * qb if s is None else s + qa * qb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _plead(a: Poly) -> Exps:
    return max(a)


def _pmonic(a: Poly) -> Poly:
    """Scale so the leading coefficient is 1."""
    if not a:
        return a
    lc = a[_plead(a)]
    if lc == 1:
        return a
    return _pscale(a, _F1 / lc)


def _pvars(a: Poly, b: Poly) -> list[int]:
    used = set()
    for src in (a, b):
        for e in src:
            for j, x in enumerate(e):
                if x:
                    used.add(j)
    return sorted(used)


def _to_univar(a: Poly, v: int) -> dict[int, Poly]:
    """View a as a univariate polynomial in parameter v with Poly coefficients."""
    out: dict[int, Poly] = {}
    for e, q in a.items():
        d = e[v]
        ered = e[:v] + (0,) + e[v + 1 :]
        out.setdefault(d, {})[ered] = q
    return out


def _from_univar(u: dict[int, Poly], v: int) -> Poly:
    out: Poly = {}
    for d, coeff in u.items():
        for e, q in coeff.items():
            out[e[:v] + (d,) + e[v + 1 :]] = q
    return out


def _udegree(u: dict[int, Poly]) -> int:
    return max(u)


def _uscale(u: dict[int, Poly], s: Poly) -> dict[int, Poly]:
    return {d: _pmul(c, s) for d, c in u.items()}


def _usub(u: dict[int, Poly], w: dict[int, Poly]) -> dict[int, Poly]:
    out = dict(u)
    for d, c in w.items():
        s = _padd(out.get(d, {}), _pneg(c))
        if s:
            out[d] = s
        elif d in out:
            del out[d]
    return out


def _ucontent(u: dict[int, Poly]) -> Poly:
    g: Poly = {}
    for c in u.values():
        g = _pgcd(g, c)
        if _pis_const(g) and g:
            break
    return g if g else _pconst(_F1, 0)


def _uprimitive(u: dict[int, Poly]) -> dict[int, Poly]:
    cont = _ucontent(u)
    if _pis_const(cont):
        return u
    return {d: _pdiv_exact(c, cont) for d, c in u.items()}


def _pseudo_rem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    da, db = _udegree(a), _udegree(b)
    lb = b[db]
    r = dict(a)
    while r and _udegree(r) >= db:
        dr = _udegree(r)
        lr = r[dr]
        r = _uscale(r, lb)
        shifted = {d + dr - db: _pmul(c, lr) for d, c in b.items()}
        r = _usub(r, shifted)
    return r


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Gcd in QQ[p_1..p_k], normalized monic; gcd(0, b) = monic b."""
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
    if _pis_const(a) or _pis_const(b):
        return _pconst(_F1, len(next(iter(a))))
    nvars = len(next(iter(a)))
    # common monomial part
    mono = tuple(min(min(e[j] for e in a), min(e[j] for e in b)) for j in range(nvars))
    if any(mono):
        a = {tuple(x - m for x, m in zip(e, mono)): q for e, q in a.items()}
        b = {tuple(x - m for x, m in zip(e, mono)): q for e, q in b.items()}
    if len(a) == 1 or len(b) == 1:
        g: Poly = {mono: _F1}
        return g
    if a == b:
        return _pmonic({tuple(x + m for x, m in zip(e, mono)): q for e, q in a.items()})
    used = _pvars(a, b)
    if not used:
        return {mono: _F1}
    v = used[-1]
    ua, ub = _to_univar(a, v), _to_univar(b, v)
    if _udegree(ua) < _udegree(ub):
        ua, ub = ub, ua
    cont = _pgcd(_ucontent(ua), _ucontent(ub))
    ua, ub = _uprimitive(ua), _uprimitive(ub)
    while ub:
        r = _pseudo_rem(ua, ub)
        ua, ub = ub, (_uprimitive(r) if r else {})
    g = _pmul(_from_univar(ua, v), cont)
    if any(mono):
        g = {tuple(x + m for x, m in zip(e, mono)): q for e, q in g.items()}
    return _pmonic(g)


def _pdiv_exact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; b must divide a."""
    if not a:
        return {}
    if _pis_const(b):
        return _pscale(a, _F1 / _pconst_value(b))
    used = _pvars(a, b)
    v = used[-1]
    ua, ub = _to_univar(a, v), _to_univar(b, v)
    db = _udegree(ub)
    lb = ub[db]
    quo: dict[int, Poly] = {}
    while ua:
        da = _udegree(ua)
        if da < db:
            raise ArithmeticError("inexact polynomial division")
        qc = _pdiv_exact(ua[da], lb)
        quo[da - db] = qc
        shifted = {d + da - db: _pmul(c, qc) for d, c in ub.items()}
        ua = _usub(ua, shifted)
    return _from_univar(quo, v)


class Coefficient:
    """An element of QQ(p_1, ..., p_k), kept in canonical reduced form.

    ``const`` is the value of a plain rational (int or Fraction) and None
    for a parametric coefficient, whose polynomials live in ``_num`` and
    ``_den`` (None for a plain rational); see the module docstring.
    """

    __slots__ = ("const", "nvars", "_num", "_den")

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise ZeroDivisionError("zero denominator in coefficient")
        nvars = len(next(iter(den)))
        if not num:
            den = _pconst(_F1, nvars)
        elif not _pis_const(den):
            g = _pgcd(num, den)
            if not _pis_const(g):
                num = _pdiv_exact(num, g)
                den = _pdiv_exact(den, g)
        if num and not _pis_const(den):
            lc = den[_plead(den)]
            if lc != 1:
                num = _pscale(num, _F1 / lc)
                den = _pscale(den, _F1 / lc)
        elif _pis_const(den):
            c = _pconst_value(den)
            if c != 1:
                num = _pscale(num, _F1 / c)
                den = _pconst(_F1, nvars)
        self.nvars = nvars
        if _pis_const(num) and _pis_const(den):
            self.const = rational(_pconst_value(num))
            self._num = self._den = None
        else:
            self.const = None
            self._num = num
            self._den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(q, nvars: int) -> "Coefficient":
        return _plain(rational(q), nvars)

    @staticmethod
    def parameter(j: int, nvars: int) -> "Coefficient":
        e = tuple(1 if k == j else 0 for k in range(nvars))
        return _parametric({e: 1}, {_zeros(nvars): 1}, nvars)

    # -- predicates ----------------------------------------------------

    @property
    def num(self) -> Poly:
        n = self._num
        if n is None:
            c = self.const
            return {_zeros(self.nvars): c} if c else {}
        return n

    @property
    def den(self) -> Poly:
        d = self._den
        return {_zeros(self.nvars): 1} if d is None else d

    def is_zero(self) -> bool:
        return self.const == 0

    def is_one(self) -> bool:
        return self.const == 1

    def as_fraction(self) -> Fraction:
        c = self.const
        if c is None:
            raise ValueError("coefficient is not a plain rational")
        return c if c.__class__ is Fraction else Fraction(c)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Coefficient") -> "Coefficient":
        a = self.const
        b = other.const
        if a is not None and b is not None:
            c = a + b
            if c.__class__ is not int and c._denominator == 1:
                c = c._numerator
            return _plain(c, self.nvars)
        den = self.den
        if den == other.den:
            num = _padd(self.num, other.num)
            if _pis_const(den):  # polynomials: no gcd
                if _pis_const(num):
                    return _plain(rational(_pconst_value(num)), self.nvars)
                return _parametric(num, den, self.nvars)
            return Coefficient(num, den)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, den))
        return Coefficient(num, _pmul(den, other.den))

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __neg__(self) -> "Coefficient":
        c = self.const
        if c is not None:
            return _plain(-c, self.nvars)
        return _parametric(_pneg(self._num), self._den, self.nvars)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        a = self.const
        if a is not None:
            b = other.const
            if b is not None:
                c = a * b
                if c.__class__ is not int and c._denominator == 1:
                    c = c._numerator
                return _plain(c, self.nvars)
            return other.scale(a)
        b = other.const
        if b is not None:
            return self.scale(b)
        return Coefficient(_pmul(self._num, other._num), _pmul(self._den, other._den))

    def __truediv__(self, other: "Coefficient") -> "Coefficient":
        b = other.const
        if b == 0:
            raise ZeroDivisionError("division by zero coefficient")
        if b is not None:
            return self.scale(_F1 / b)
        return Coefficient(_pmul(self.num, other._den), _pmul(self.den, other._num))

    def scale(self, q) -> "Coefficient":
        c = self.const
        if c is not None:
            c = c * q
            t = c.__class__
            if t is not int:
                if t is Fraction:
                    if c._denominator == 1:
                        c = c._numerator
                else:
                    c = rational(c)
            return _plain(c, self.nvars)
        if q.__class__ is not int and not isinstance(q, Fraction):
            q = rational(q)
        if not q:
            return _plain(0, self.nvars)
        return _parametric(_pscale(self._num, q), self._den, self.nvars)

    def __pow__(self, k: int) -> "Coefficient":
        if k < 0:
            return _plain(1, self.nvars) / self ** (-k)
        out = _plain(1, self.nvars)
        for _ in range(k):
            out = out * self
        return out

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        c = self.const
        if c is not None:
            return c == other.const and self.nvars == other.nvars
        return (
            other.const is None
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self):
        c = self.const
        if c is not None:
            return hash(c)
        return hash((frozenset(self._num.items()), frozenset(self._den.items())))

    def subst(self, values) -> "Coefficient":
        """Set parameter j to values[j] wherever that is not None; the
        parameters left symbolic keep their order."""
        values = [v if v is None else rational(v) for v in values]

        def evaluate(p: Poly) -> Poly:
            out: Poly = {}
            for e, q in p.items():
                for x, v in zip(e, values):
                    if v is not None:
                        q *= v ** x
                kept = tuple(x for x, v in zip(e, values) if v is None)
                out[kept] = out.get(kept, 0) + q
            return {e: q for e, q in out.items() if q}

        return Coefficient(evaluate(self.num), evaluate(self.den))

    # -- rendering -----------------------------------------------------

    def render(self, names: tuple[str, ...]) -> str:
        if self.const is not None:
            return str(self.const)
        num = _render_poly(self._num, names)
        if _pis_const(self._den):
            return num
        den = _render_poly(self._den, names)
        if len(self._num) > 1:
            num = "(%s)" % num
        if len(self._den) > 1 or not _is_atomic_poly(self._den):
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    def render_signed(self, names: tuple[str, ...]) -> tuple[bool, str]:
        """(sign is negative, text without that sign) for the coefficient
        written in front of a monomial.  A one-term numerator over a
        constant denominator gives up its sign, and a sum over a constant
        denominator is parenthesised; a non-constant denominator renders as
        "(sum)/den", which needs neither."""
        c = self.const
        if c is not None:
            return c < 0, str(abs(c))
        num = self._num
        if not _pis_const(self._den):
            return False, self.render(names)
        if len(num) > 1:
            return False, "(%s)" % _render_poly(num, names)
        (q,) = num.values()
        if q < 0:
            return True, _render_poly(_pneg(num), names)
        return False, _render_poly(num, names)

    def __repr__(self):
        names = tuple("p%d" % j for j in range(self.nvars))
        return "Coefficient(%s)" % self.render(names)


_new = object.__new__


def _plain(q, nvars: int) -> Coefficient:
    """The plain rational q (an int, or a Fraction with denominator > 1)."""
    out = _new(Coefficient)
    out.const = q
    out.nvars = nvars
    out._num = out._den = None
    return out


def _parametric(num: Poly, den: Poly, nvars: int) -> Coefficient:
    """A parametric coefficient whose num/den is already normalized."""
    out = _new(Coefficient)
    out.const = None
    out.nvars = nvars
    out._num = num
    out._den = den
    return out


def _is_atomic_poly(p: Poly) -> bool:
    if len(p) != 1:
        return False
    (e, q), = p.items()
    return q == 1 and sum(1 for x in e if x) <= 1


def _render_poly(p: Poly, names: tuple[str, ...]) -> str:
    if not p:
        return "0"
    parts = []
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
        if not parts:
            parts.append(body if q > 0 else "-" + body)
        else:
            parts.append((" + " if q > 0 else " - ") + body)
    return "".join(parts)
