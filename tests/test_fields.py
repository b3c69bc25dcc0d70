import copy
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pvakit import Context, HierarchySpec, MatrixDiffOp, NonRationalCoefficient, fields
from pvakit.algebra import _exp, mono_degree
from pvakit.fields import Coefficient, _pgcd, _pmul

import reference


def C(q, nvars=2):
    return Coefficient.from_fraction(Fraction(q), nvars)


def P(j, nvars=2):
    return Coefficient.parameter(j, nvars)


def test_rational_fast_path():
    a = C("3/2")
    b = C("-1/2")
    assert (a + b).as_fraction() == 1
    assert (a * b).as_fraction() == Fraction(-3, 4)
    assert (a / b).as_fraction() == -3
    assert (-a).as_fraction() == Fraction(-3, 2)
    assert a.scale(2).as_fraction() == 3
    assert C(0).is_zero() and C(1).is_one()


def test_parameter_arithmetic():
    c = P(0)
    one = C(1)
    assert (c * c + c).render(("c", "t")) == "c^2 + c"
    assert ((c + one) - c).is_one()
    assert (c - c).is_zero()
    assert (c ** 3).render(("c", "t")) == "c^3"


def test_fraction_cancellation():
    c = P(0)
    one = C(1)
    # (c^2 - 1) / (c + 1) = c - 1
    num = c * c - one
    den = c + one
    q = num / den
    assert q == c - one
    # (1/c) * c = 1
    assert ((one / c) * c).is_one()
    # cross cancellation keeps products reduced
    t = P(1)
    r = ((c + one) / (t + one)) * ((t + one) / (c + one))
    assert r.is_one()


def test_denominator_monic():
    c = P(0)
    q = C(1) / (c.scale(2))
    # denominator normalized to c, factor folded into the numerator
    assert q.render(("c", "t")) == "1/2/c"
    assert (q * c.scale(2)).is_one()


def test_gcd_multivariate():
    c, t = {(1, 0): 1}, {(0, 1): 1}
    one = {(0, 0): 1}
    # gcd((c+t)^2, (c+t)) = c+t up to normalization
    s = {(1, 0): 1, (0, 1): 1}
    s2 = _pmul(s, s)
    g = _pgcd(s2, s)
    assert g == s
    assert _pgcd(one, s) == one
    assert _pgcd(c, t) == one
    # integer content and sign are normalized away: gcd(-2(c+t)^2, 3(c+t)(t-c)) = c+t
    assert _pgcd({e: -2 * q for e, q in s2.items()}, _pmul({(1, 0): -3, (0, 1): 3}, s)) == s


def test_field_axioms_random():
    rng = random.Random(3)

    def rand_coeff():
        out = C(rng.randint(-3, 3), 2)
        for _ in range(rng.randint(0, 2)):
            out = out * P(rng.randrange(2)) + C(rng.randint(-2, 2), 2)
        if rng.random() < 0.3:
            d = P(rng.randrange(2)) + C(rng.randint(1, 3), 2)
            out = out / d
        return out

    for _ in range(150):
        a, b, c = rand_coeff(), rand_coeff(), rand_coeff()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        if not c.is_zero():
            assert (a / c) * c == a


# -- the int-first kernel against the dict-based reference --------------------

NAMES = ("c", "t", "s")


def _rational_values(draw):
    q = draw(st.fractions(min_value=-6, max_value=6, max_denominator=4))
    return int(q) if q.denominator == 1 and draw(st.booleans()) else q


@st.composite
def coefficient_pairs(draw, nvars):
    """(library Coefficient, reference Coefficient) built by the same
    sequence of field operations over nvars parameters."""

    def leaf():
        if nvars and draw(st.integers(0, 2)) == 0:
            j = draw(st.integers(0, nvars - 1))
            return Coefficient.parameter(j, nvars), reference.Coefficient.parameter(j, nvars)
        q = _rational_values(draw)
        return Coefficient.from_fraction(q, nvars), reference.Coefficient.from_fraction(q, nvars)

    pool = [leaf() for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 4))):
        (a, ra), (b, rb) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        op = draw(st.sampled_from(["+", "-", "*", "/", "scale", "neg", "pow"]))
        if op == "+":
            pool.append((a + b, ra + rb))
        elif op == "-":
            pool.append((a - b, ra - rb))
        elif op == "*":
            pool.append((a * b, ra * rb))
        elif op == "/" and not rb.is_zero():
            pool.append((a / b, ra / rb))
        elif op == "scale":
            q = _rational_values(draw)
            pool.append((a.scale(q), ra.scale(q)))
        elif op == "neg":
            pool.append((-a, -ra))
        elif op == "pow" and not (ra.is_zero()):
            k = draw(st.integers(-2, 3))
            pool.append((a ** k, ra ** k))
    return draw(st.sampled_from(pool))


def assert_same(c, r):
    """c (library) and r (reference) hold the same element the same way."""
    names = NAMES[: r.nvars]
    assert c.nvars == r.nvars
    assert c.num == r.num and c.den == r.den
    assert (c.const is None) == (r.const is None)
    assert c.render(names) == r.render(names)
    assert repr(c) == repr(r)
    assert c.render_signed(names) == reference.render_signed(r, names)
    assert c.is_zero() == r.is_zero() and c.is_one() == r.is_one()
    if r.const is None:
        with pytest.raises(ValueError):
            c.as_fraction()
    else:
        q = c.as_fraction()
        assert type(q) is Fraction and q == r.as_fraction()


def assert_exact(c):
    """const is an int exactly when integral, and no value is a float."""
    if c.const is not None:
        assert type(c.const) in (int, Fraction)
        assert (type(c.const) is int) == (Fraction(c.const).denominator == 1)
    for poly in (c.num, c.den):
        for q in poly.values():
            assert type(q) in (int, Fraction)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 3))
def test_kernel_matches_reference(data, nvars):
    a, ra = data.draw(coefficient_pairs(nvars))
    b, rb = data.draw(coefficient_pairs(nvars))
    assert_same(a, ra)
    results = [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra)]
    q = _rational_values(data.draw)
    results.append((a.scale(q), ra.scale(q)))
    k = data.draw(st.integers(-3, 3))
    results.append((outcome(pow, a, k), outcome(pow, ra, k)))
    results.append((outcome(lambda x, y: x / y, a, b), outcome(lambda x, y: x / y, ra, rb)))
    values = [
        data.draw(st.one_of(st.none(), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3)))
        for _ in range(nvars)
    ]
    results.append((outcome(a.subst, values), outcome(ra.subst, values)))
    for c, r in results:
        if r is ZeroDivisionError:
            assert c is ZeroDivisionError
            continue
        assert_same(c, r)
        assert_exact(c)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(0, 3))
def test_kernel_has_no_floats(data, nvars):
    """Every result of a chain of field operations keeps its constant an int
    when integral and holds no float anywhere."""
    c, _ = data.draw(coefficient_pairs(nvars))
    assert_exact(c)
    assert_exact(c.scale(data.draw(st.integers(-3, 3))))


def assert_canonical(c):
    """c is stored as its canonical k * N / D: k a nonzero plain rational, N
    and D integer-valued, primitive, with positive leading coefficients and
    coprime, D None for 1 and then N not constant."""
    if c.const is not None:
        assert c._k is None and c._n is None and c._d is None
        return
    k, N, D = c._k, c._n, c._d
    assert type(k) is int and k or type(k) is Fraction and k.denominator != 1
    for P in [N] if D is None else [N, D]:
        assert P and all(type(q) is int and q for q in P.values())
        assert math.gcd(*P.values()) == 1 and P[max(P)] > 0
        assert all(len(e) == c.nvars for e in P)
    unit = {(0,) * c.nvars: 1}
    if D is None:
        assert N != unit
    else:
        assert D != unit and _pgcd(N, D) == unit


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_stored_form_is_canonical(data, nvars):
    a, _ = data.draw(coefficient_pairs(nvars))
    b, _ = data.draw(coefficient_pairs(nvars))
    for c in (a, b, a + b, a - b, a * b, -a, a.scale(_rational_values(data.draw))):
        assert_canonical(c)
    if not b.is_zero():
        assert_canonical(a / b)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_same_element_along_different_paths(data, nvars):
    (a, _), (b, _), (c, _) = (data.draw(coefficient_pairs(nvars)) for _ in range(3))
    pairs = [((a + b) * c, a * c + b * c), (a - a, C(0, nvars)), (a + b - b, a)]
    if not b.is_zero():
        pairs.append((a * (C(1, nvars) / b) * b, a))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)


def test_scale_and_negation_share_n_and_d():
    c, t = P(0), P(1)
    for x in (c.scale(Fraction(2, 3)) + t, (c + C(1)) / (t - C(2))):
        for y in (x.scale(Fraction(-5, 7)), x.scale(3), -x):
            assert y._n is x._n and y._d is x._d and y != x


def _refuse(*args):
    raise AssertionError("gcd called")


def test_like_terms_add_their_k_over_the_shared_n(monkeypatch):
    n = (P(0) * P(0) - P(1)).scale(Fraction(1, 3))
    x, y = n.scale(Fraction(3, 4)), n.scale(-5)
    monkeypatch.setattr(fields, "gcd", _refuse)  # a sum over one N runs no gcd
    for total, k in ((x + y, Fraction(-17, 12)), (x + x, Fraction(1, 2)), (y - y, None)):
        if k is None:
            assert total.is_zero()
        else:
            assert total._n is n._n and total._k == k


def test_products_over_denominator_one_run_no_gcd(monkeypatch):
    c, t = P(0), P(1)
    factors = [c + C(1), c.scale(Fraction(-2, 3)) + t, t * t - c.scale(3), C(Fraction(1, 2)) - c]
    expected = [x.num for x in (factors[0] * factors[1], factors[1] * factors[2] * factors[3])]
    monkeypatch.setattr(fields, "_pgcd", _refuse)
    monkeypatch.setattr(fields, "gcd", _refuse)
    products = [factors[0] * factors[1], factors[1] * factors[2] * factors[3]]
    assert [x.num for x in products] == expected
    for x in products:
        assert_canonical(x)


def test_plain_rationals_are_python_numbers():
    a, b = C(3, 0), C(Fraction(1, 2), 0)
    assert type(a.const) is int and type(b.const) is Fraction
    assert type((b + b).const) is int and (b + b).const == 1
    assert type((a / C(3, 0)).const) is int
    assert type((C(1, 0) / a).const) is Fraction
    assert type((a ** -1).const) is Fraction and (a ** -1).const == Fraction(1, 3)
    assert type((b ** 0).const) is int
    assert type(a.as_fraction()) is Fraction
    # equal values in different numbers of parameters differ, as before
    assert C(1, 1) != C(1, 2)
    assert C(0, 2).num == {} and C(2, 2).num == {(0, 0): 2}


FLOAT_ENTRIES = {
    "Context.num": lambda ctx, u: ctx.num(0.1),
    "Context.num denominator": lambda ctx, u: ctx.num(1, 0.5),
    "Expression.scale": lambda ctx, u: u.scale(0.1),
    "Expression * float": lambda ctx, u: u * 0.1,
    "float * Expression": lambda ctx, u: 0.1 * u,
    "Expression + float": lambda ctx, u: u + 0.1,
    "Expression - float": lambda ctx, u: u - 0.1,
    "float - Expression": lambda ctx, u: 0.1 - u,
    "Expression / float": lambda ctx, u: u / 0.5,
    "MatrixDiffOp.scale": lambda ctx, u: MatrixDiffOp.derivative(ctx).scale(0.1),
    "Coefficient.from_fraction": lambda ctx, u: Coefficient.from_fraction(0.1, 1),
    "Coefficient.scale": lambda ctx, u: Coefficient.parameter(0, 1).scale(0.5),
    "Coefficient.scale plain": lambda ctx, u: C(3, 1).scale(0.5),
    "Coefficient.subst": lambda ctx, u: Coefficient.parameter(0, 1).subst([0.5]),
    "HierarchySpec parameter": lambda ctx, u: HierarchySpec("hd", {"alpha": 0.1}).normalized(),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRIES))
def test_floats_are_refused(entry):
    ctx = Context(("u",), ("c",))
    with pytest.raises(NonRationalCoefficient):
        FLOAT_ENTRIES[entry](ctx, ctx.gen(0))


def test_exact_inputs_still_accepted():
    ctx = Context(("u",), ("c",))
    u = ctx.gen(0)
    assert ctx.num("3/2") == ctx.num(3, 2) == ctx.num(Decimal("1.5"))
    assert u.scale(True) == u
    assert (u + 1) - 1 == u and u / 2 == u.scale(Fraction(1, 2))
    assert type(Coefficient.from_fraction(Fraction(4, 2), 1).const) is int


# -- interned exponents -------------------------------------------------------

exponent_values = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gens = st.tuples(st.integers(0, 3), st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(gens, exponent_values.filter(bool)), max_size=4), min_size=1, max_size=6))
def test_interned_exponents_act_as_fractions(raw):
    plain = [tuple(sorted(((g, Fraction(e)) for g, e in dict(m).items()), reverse=True)) for m in raw]
    interned = [tuple((g, _exp(e)) for g, e in m) for m in plain]
    for p, m in zip(plain, interned):
        assert p == m and hash(p) == hash(m)
        for (_, e), (_, x) in zip(p, m):
            assert x == e and hash(x) == hash(e) and not (x < e or e < x)
            if e.denominator == 1:  # integral exponents stay ints
                assert type(x) is int
            else:
                assert str(x) == str(e) and repr(x) == repr(e)
                assert x is _exp(Fraction(e.numerator, e.denominator))
    order = sorted(range(len(plain)), key=plain.__getitem__)
    assert order == sorted(range(len(interned)), key=interned.__getitem__)
    assert {m: i for i, m in enumerate(interned)} == {m: i for i, m in enumerate(plain)}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(gens, st.one_of(st.integers(-4, 4), exponent_values).filter(bool)), max_size=5))
def test_mono_degree_matches_reference(raw):
    m = tuple(sorted(((g, _exp(Fraction(e))) for g, e in dict(raw).items()), reverse=True))
    got = mono_degree(m)
    assert got == reference.mono_degree(m)
    assert (type(got) is int) == (Fraction(got).denominator == 1)


def test_mono_degree_of_int_exponents_makes_no_fraction(monkeypatch):
    calls = []
    for name in ("__add__", "__radd__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, f=original: calls.append(b) or f(a, b))
    assert mono_degree((((1, 0), 3), ((0, 0), -1))) == 2
    assert calls == []
    assert mono_degree((((1, 0), _exp(Fraction(1, 2))), ((0, 0), 1))) == Fraction(3, 2)
    assert calls


def test_interned_exponents_hash_without_fraction_hash(monkeypatch):
    ctx = Context(("u",))
    f = ctx.parse("u^(1/2)*u'^(-3/2) + 2*u'^(5/2)")
    keys = list(f.total_derivative().terms) + list(f.terms)
    calls = []
    original = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: calls.append(self) or original(self))
    assert len({m: 0 for m in keys}) == len(keys)
    assert calls == []


def test_interned_exponents_copy_and_pickle():
    e = _exp(Fraction(3, 2))
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
