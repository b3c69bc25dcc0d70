import copy
import math
import operator
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pvakit import (
    Context,
    Expression,
    HierarchySpec,
    MatrixDiffOp,
    NonRationalCoefficient,
    PvakitError,
    fields,
)
from pvakit.algebra import _exp, mono_degree
from pvakit.fields import Coefficient, _pgcd, _pmul
from pvakit.varcalc import antiderivative

import reference
from test_fastpaths import CTXS3, coefficients, stepped_expressions


def C(q, nvars=2):
    """The plain rational q, an int or Fraction as Expression stores it; a
    number carries no parameter count, so nvars is unused."""
    return fields._norm(Fraction(q))


def P(j, nvars=2):
    return Coefficient.parameter(j, nvars)


def test_rational_fast_path():
    a = C("3/2")
    b = C("-1/2")
    assert a + b == 1
    assert a * b == Fraction(-3, 4)
    assert a / b == -3
    assert -a == Fraction(-3, 2)
    assert a * 2 == 3
    assert C(0) == 0 and type(C(1)) is int


def test_parameter_arithmetic():
    c = P(0)
    one = C(1)
    assert fields.render(c * c + c, ("c", "t")) == "c^2 + c"
    assert (c + one) - c == 1
    assert c - c == 0
    assert fields.render(c ** 3, ("c", "t")) == "c^3"


def test_fraction_cancellation():
    c = P(0)
    one = C(1)
    # (c^2 - 1) / (c + 1) = c - 1
    num = c * c - one
    den = c + one
    q = num / den
    assert q == c - one
    # (1/c) * c = 1
    assert (one / c) * c == 1
    # cross cancellation keeps products reduced
    t = P(1)
    r = ((c + one) / (t + one)) * ((t + one) / (c + one))
    assert r == 1


def test_denominator_monic():
    c = P(0)
    q = C(1) / (c.scale(2))
    # denominator normalized to c, factor folded into the numerator
    assert fields.render(q, ("c", "t")) == "1/2/c"
    assert q * c.scale(2) == 1


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
        assert a - a == 0
        if c != 0:
            assert div(a, c) * c == a


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
        return fields._norm(q), reference.Coefficient.from_fraction(q, nvars)

    pool = [leaf() for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 4))):
        (a, ra), (b, rb) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        op = draw(st.sampled_from(["+", "-", "*", "/", "scale", "neg", "pow"]))
        if op == "+":
            pool.append((fields._norm(a + b), ra + rb))
        elif op == "-":
            pool.append((fields._norm(a - b), ra - rb))
        elif op == "*":
            pool.append((fields._norm(a * b), ra * rb))
        elif op == "/" and not rb.is_zero():
            pool.append((div(a, b), ra / rb))
        elif op == "scale":
            q = _rational_values(draw)
            pool.append((scale(a, q), ra.scale(q)))
        elif op == "neg":
            pool.append((-a, -ra))
        elif op == "pow" and not (ra.is_zero()):
            k = draw(st.integers(-2, 3))
            pool.append((power(a, k), ra ** k))
    return draw(st.sampled_from(pool))


def div(a, b):
    """a / b as Expression divides: a plain dividend through Fraction."""
    return a / b if isinstance(a, Coefficient) else fields._norm(Fraction(a) / b)


def power(a, k):
    """a ** k as Expression raises a coefficient: a plain base through Fraction."""
    return a ** k if isinstance(a, Coefficient) else fields._norm(Fraction(a) ** k)


def scale(a, q):
    return a.scale(q) if isinstance(a, Coefficient) else fields._norm(a * q)


def assert_same(c, r):
    """c (library) and r (reference) hold the same element the same way: a
    plain rational as a number, anything else as a Coefficient."""
    names = NAMES[: r.nvars]
    assert isinstance(c, Coefficient) == (r.const is None)
    if r.const is None:
        assert c.nvars == r.nvars
        assert c.num == r.num and c.den == r.den
        assert repr(c) == repr(r)
    else:
        assert c == r.const
    assert fields.render(c, names) == r.render(names)
    assert fields.render_signed(c, names) == reference.render_signed(r, names)


def assert_exact(c):
    """A plain rational is an int exactly when integral, and no value is a
    float."""
    if not isinstance(c, Coefficient):
        assert type(c) is int or type(c) is Fraction and c.denominator != 1
        return
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
    results = [(fields._norm(x), r) for x, r in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb))]
    results.append((-a, -ra))
    q = _rational_values(data.draw)
    results.append((scale(a, q), ra.scale(q)))
    k = data.draw(st.integers(-3, 3))
    results.append((outcome(power, a, k), outcome(pow, ra, k)))
    results.append((outcome(div, a, b), outcome(lambda x, y: x / y, ra, rb)))
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
    assert_exact(scale(c, data.draw(st.integers(-3, 3))))


def assert_canonical(c):
    """c is a plain rational, or stored as its canonical k * N / D: k a
    nonzero plain rational, N and D integer-valued, primitive, with positive
    leading coefficients and coprime, D None for 1 and then N not constant."""
    if not isinstance(c, Coefficient):
        assert type(c) is int or type(c) is Fraction and c.denominator != 1
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
    for c in (a, b, a + b, a - b, a * b, -a, scale(a, _rational_values(data.draw))):
        assert_canonical(fields._norm(c))
    if b:
        assert_canonical(div(a, b))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_same_element_along_different_paths(data, nvars):
    (a, _), (b, _), (c, _) = (data.draw(coefficient_pairs(nvars)) for _ in range(3))
    pairs = [((a + b) * c, a * c + b * c), (a - a, C(0, nvars)), (a + b - b, a)]
    if b:
        pairs.append((a * div(C(1, nvars), b) * b, a))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)


def _assert_stored_exactly(f):
    """Every value in f.terms is an int, a Fraction whose denominator is not
    1, or a canonical Coefficient in which a parameter occurs."""
    for c in f.terms.values():
        assert_canonical(c)
        assert_exact(c)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_expression_coefficients_stay_canonical(data):
    """The sums, products, scalings, derivations, antiderivatives, monomial
    quotients and negative and fractional powers of Expressions store no
    float, no integral Fraction and no Coefficient equal to a number."""
    ctx = data.draw(st.sampled_from(CTXS3))
    f, g = data.draw(stepped_expressions(ctx)), data.draw(stepped_expressions(ctx))
    q = _rational_values(data.draw)
    c = data.draw(coefficients(ctx, fractions_of_c=True))
    assume(g.terms)
    m, cm = data.draw(st.sampled_from(sorted(g.terms.items(), key=repr)))
    mono, unit = Expression(ctx, {m: cm}), Expression(ctx, {m: 1})
    results = [f + g, f - g, f * g, f.scale(q), f.scale(c), f * c, f.total_derivative()]
    results += [f / mono, mono ** -1, mono ** -2, unit ** Fraction(1, 2), unit ** Fraction(-3, 2)]
    for i in range(ctx.nvars):
        for n in range(4):
            results.append(f.partial(i, n))
            try:
                results.append(antiderivative(f, i, n))
            except PvakitError:
                pass
    for r in results:
        _assert_stored_exactly(r)


def test_integral_sums_are_stored_as_ints():
    """Like terms whose Fractions add up to an integer merge into an int in
    a sum, a product and a total derivative."""
    ctx = Context(("u",), ("c",))
    h = ctx.parse("1/2*u*u'' + 1/4*u'^2")
    half = ctx.parse("1/2*u + 1/2*u'")
    for f in (h.total_derivative(), h + h, half * ctx.parse("u + u'"), ctx.parse("c/2*u + c*u/2")):
        _assert_stored_exactly(f)
    assert 1 in h.total_derivative().terms.values()


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
            assert total == 0
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
    """A coefficient in which no parameter occurs is stored as an int or a
    Fraction, and a Coefficient operation whose result holds no parameter
    gives that number."""
    ctx = Context(("u",), ("c",))
    u, c = ctx.gen(0), P(0, 1)
    assert u.terms == {(((0, 0), 1),): 1} and type(ctx.num(1, 2).constant_coefficient()) is Fraction
    assert type((u.scale(Fraction(1, 2)) + u.scale(Fraction(1, 2))).terms[(((0, 0), 1),)]) is int
    assert (u / 3).terms == {(((0, 0), 1),): Fraction(1, 3)}
    assert ((3 * u) ** -1).terms == {(((0, 0), -1),): Fraction(1, 3)}
    assert ((2 * u) ** 0).terms == {(): 1}
    assert type((c + 1) - c) is int and c / c == 1 and type(c.scale(2) / c) is int
    assert c.scale(Fraction(1, 2)) / c == Fraction(1, 2) and 1 / c * c == 1
    assert c != 1 and c - c == 0 and type(c * 0) is int
    assert fields.render(Fraction(-1, 2), ("c",)) == "-1/2"
    assert fields.render_signed(Fraction(-1, 2), ("c",)) == (True, "1/2")


@pytest.mark.parametrize("coefficient_first", [True, False],
                         ids=["coefficient-left", "expression-left"])
@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv],
    ids=["add", "sub", "mul", "truediv"])
def test_coefficient_meets_expression(op, coefficient_first):
    """A Coefficient and an Expression meet in either order as the constant
    Expression of the Coefficient does: Coefficient defers to Expression.
    Only dividing by an Expression is refused, by a Coefficient as by 2."""
    ctx = Context(("u",), ("c",))
    c, e = P(0, 1), ctx.gen(0)
    if coefficient_first and op is operator.truediv:
        for left in (c, 2):
            with pytest.raises(TypeError):
                left / e
    elif coefficient_first:
        assert op(c, e) == op(ctx.coeff_expr(c), e)
    else:
        assert op(e, c) == op(e, ctx.coeff_expr(c))
    for method in (c.__add__, c.__mul__, c.__truediv__):
        assert method(e) is NotImplemented


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
    "fields.rational": lambda ctx, u: fields.rational(0.1),
    "Coefficient.scale": lambda ctx, u: Coefficient.parameter(0, 1).scale(0.5),
    "Coefficient + float": lambda ctx, u: Coefficient.parameter(0, 1) + 0.5,
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
    assert type(ctx.num(Fraction(4, 2)).constant_coefficient()) is int
    # Expression arithmetic reads a Decimal exactly, as scale does
    half = Fraction(1, 2)
    assert u + Decimal("0.5") == Decimal("0.5") + u == u + half
    assert u - Decimal("0.5") == u - half and Decimal("0.5") - u == half - u
    assert u * Decimal(2) == Decimal(2) * u == u.scale(Decimal(2)) == u.scale(2)
    assert u / Decimal("0.5") == u.scale(2)


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
