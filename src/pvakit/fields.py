"""Exact arithmetic in the field QQ(p_1, ..., p_k) of rational functions.

Polynomials over the parameters are sparse maps exponent-tuple -> Fraction.
A Coefficient is a normalized quotient num/den: numerator and denominator
coprime, denominator monic in its leading monomial (tuple-lexicographic
order), zero stored as the empty numerator.  Everything is immutable.
"""

from __future__ import annotations

from fractions import Fraction

Exps = tuple[int, ...]
Poly = dict[Exps, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)
_ZEROS: dict[int, tuple] = {}


def _pconst(q: Fraction, nvars: int) -> Poly:
    return {(0,) * nvars: q} if q else {}


def _pis_const(a: Poly) -> bool:
    return len(a) == 0 or (len(a) == 1 and not any(next(iter(a))))


def _pconst_value(a: Poly) -> Fraction:
    if not a:
        return Fraction(0)
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
    return _pscale(a, 1 / lc)


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
        return _pscale(a, 1 / _pconst_value(b))
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

    The plain-rational case carries a fast tag so that the dominant
    parameter-free arithmetic avoids polynomial dictionaries.
    """

    __slots__ = ("num", "den", "const")

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise ZeroDivisionError("zero denominator in coefficient")
        if not num:
            den = _pconst(_F1, len(next(iter(den))))
        elif not _pis_const(den):
            g = _pgcd(num, den)
            if not _pis_const(g):
                num = _pdiv_exact(num, g)
                den = _pdiv_exact(den, g)
        if num and not _pis_const(den):
            lc = den[_plead(den)]
            if lc != 1:
                num = _pscale(num, 1 / lc)
                den = _pscale(den, 1 / lc)
        elif _pis_const(den):
            c = _pconst_value(den)
            if c != 1:
                num = _pscale(num, 1 / c)
                den = _pconst(_F1, len(next(iter(den))))
        self.num = num
        self.den = den
        self.const = _pconst_value(num) if _pis_const(num) and _pis_const(den) else None

    @staticmethod
    def _raw(num: Poly, den: Poly, const) -> "Coefficient":
        out = Coefficient.__new__(Coefficient)
        out.num = num
        out.den = den
        out.const = const
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(q, nvars: int) -> "Coefficient":
        if not isinstance(q, Fraction):
            q = Fraction(q)
        zeros = _ZEROS.get(nvars)
        if zeros is None:
            zeros = _ZEROS[nvars] = (0,) * nvars
        return Coefficient._raw({zeros: q} if q else {}, {zeros: _F1}, q)

    @staticmethod
    def parameter(j: int, nvars: int) -> "Coefficient":
        e = tuple(1 if k == j else 0 for k in range(nvars))
        return Coefficient._raw({e: _F1}, {(0,) * nvars: _F1}, None)

    # -- predicates ----------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(next(iter(self.den)))

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.const == 1

    def as_fraction(self) -> Fraction:
        if self.const is None:
            raise ValueError("coefficient is not a plain rational")
        return self.const

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if self.const is not None and other.const is not None:
            cq = self.const + other.const
            if not cq:
                return Coefficient._raw({}, self.den, _F0)
            return Coefficient._raw({next(iter(self.den)): cq}, self.den, cq)
        if self.den == other.den:
            return Coefficient(_padd(self.num, other.num), dict(self.den))
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return Coefficient(num, _pmul(self.den, other.den))

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __neg__(self) -> "Coefficient":
        return Coefficient._raw(
            _pneg(self.num),
            self.den,
            -self.const if self.const is not None else None,
        )

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        if self.const is not None:
            return other.scale(self.const)
        if other.const is not None:
            return self.scale(other.const)
        return Coefficient(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other: "Coefficient") -> "Coefficient":
        if other.is_zero():
            raise ZeroDivisionError("division by zero coefficient")
        if other.const is not None:
            return self.scale(1 / other.const)
        return Coefficient(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def scale(self, q) -> "Coefficient":
        if not q:
            return Coefficient.from_fraction(_F0, self.nvars)
        c = self.const
        if c is not None:
            cq = c * q
            if not cq:
                return Coefficient._raw({}, self.den, _F0)
            return Coefficient._raw({next(iter(self.den)): cq}, self.den, cq)
        return Coefficient._raw(_pscale(self.num, q), self.den, None)

    def __pow__(self, k: int) -> "Coefficient":
        if k < 0:
            return Coefficient.from_fraction(1, self.nvars) / self ** (-k)
        out = Coefficient.from_fraction(1, self.nvars)
        for _ in range(k):
            out = out * self
        return out

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    def subst(self, values) -> "Coefficient":
        """Set parameter j to values[j] wherever that is not None; the
        parameters left symbolic keep their order."""

        def evaluate(p: Poly) -> Poly:
            out: Poly = {}
            for e, q in p.items():
                for x, v in zip(e, values):
                    if v is not None:
                        q *= Fraction(v) ** x
                kept = tuple(x for x, v in zip(e, values) if v is None)
                out[kept] = out.get(kept, _F0) + q
            return {e: q for e, q in out.items() if q}

        return Coefficient(evaluate(self.num), evaluate(self.den))

    # -- rendering -----------------------------------------------------

    def render(self, names: tuple[str, ...]) -> str:
        num = _render_poly(self.num, names)
        if _pis_const(self.den):
            return num
        den = _render_poly(self.den, names)
        if len(self.num) > 1:
            num = "(%s)" % num
        if len(self.den) > 1 or not _is_atomic_poly(self.den):
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    def __repr__(self):
        names = tuple("p%d" % j for j in range(self.nvars))
        return "Coefficient(%s)" % self.render(names)


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
