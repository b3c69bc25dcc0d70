import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pvakit import Context, NonRationalExponent

from conftest import rand_expr


def test_normalization_merges_and_cancels(ctx1):
    u = ctx1.gen(0)
    up = ctx1.gen(0, 1)
    assert u * up + up * u == (u * up).scale(2)
    assert (u - u).is_zero()
    half = Fraction(1, 2)
    assert (u ** half) * (u ** half) == u
    assert ((u + up) - up) == u


def test_normalize_idempotent_homomorphism(ctx2):
    rng = random.Random(5)
    for _ in range(30):
        a = rand_expr(rng, ctx2)
        b = rand_expr(rng, ctx2)
        assert (a + b) * (a + b) == a * a + a * b + a * b + b * b
        assert a + b == b + a


def test_total_derivative_examples(ctx1):
    u = ctx1.gen(0)
    up, upp, u3 = ctx1.gen(0, 1), ctx1.gen(0, 2), ctx1.gen(0, 3)
    assert u.total_derivative() == up
    assert (u ** Fraction(-1, 2)).total_derivative() == (
        u ** Fraction(-3, 2) * up
    ).scale(Fraction(-1, 2))
    assert (u * upp).total_derivative() == up * upp + u * u3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 4), st.integers(-3, 3)),
        max_size=4,
    ),
    st.integers(-2, 2),
    st.integers(0, 6),
    st.booleans(),
)
def test_linear_total_derivative_shifts_in_one_step(gens, const, times, ctx_param):
    """A constant plus generators to the power 1, with numbers or a
    parameter as coefficients, takes ``times`` derivatives in one shift;
    the result is that of one derivative at a time."""
    ctx = Context(("u", "v"), ("c",))
    c = ctx.param("c") if ctx_param else ctx.one()
    f = ctx.num(const)
    for i, n, k in gens:
        f = f + (ctx.gen(i, n) * c).scale(k)
    stepwise = f
    for _ in range(times):
        stepwise = stepwise.total_derivative()
    assert f.total_derivative(times) == stepwise
    huge = 10 ** 20
    if gens and not f.is_constant():
        assert f.total_derivative(huge).diff_order()[0] >= huge


def test_partial_examples(ctx1):
    u = ctx1.gen(0)
    up = ctx1.gen(0, 1)
    f = u * up * up
    assert f.partial(0, 1) == (u * up).scale(2)
    assert (u ** Fraction(-1, 4)).partial(0, 2).is_zero()


def test_diff_order_and_degrees(ctx1):
    assert ctx1.gen(0, 4).diff_order() == (4, 0)
    assert ctx1.num(7).diff_order() is None
    u = ctx1.gen(0)
    half = (u ** Fraction(-1, 2))
    comps = half.degree_components()
    assert len(comps) == 1 and comps[0][0] == Fraction(-1, 2)
    mixed = u * u + ctx1.gen(0, 2)
    degs = [d for d, _ in mixed.degree_components()]
    assert degs == [1, 2]
    assert len(mixed.degree_components()) != 1  # not homogeneous


def test_exponent_must_be_rational(ctx1):
    u = ctx1.gen(0)
    with pytest.raises((NonRationalExponent, TypeError, ValueError)):
        u ** 0.5


def test_constants_are_kernel_of_derivative(ctx2):
    rng = random.Random(11)
    for _ in range(40):
        f = rand_expr(rng, ctx2, fancy_exps=True)
        df = f.total_derivative()
        if f.is_constant():
            assert df.is_zero()
        else:
            assert not df.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2), st.data())
def test_partial_total_commutator(n, i, data):
    # [d/du_i^(n), d] = d/du_i^(n-1)
    ctx = Context(("u", "v", "w"))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    f = rand_expr(rng, ctx, fancy_exps=True)
    lhs = f.total_derivative().partial(i, n) - f.partial(i, n).total_derivative()
    rhs = f.partial(i, n - 1) if n > 0 else ctx.zero()
    assert lhs == rhs


def test_derivations_product_rule(ctx3):
    rng = random.Random(13)
    for _ in range(40):
        f = rand_expr(rng, ctx3)
        g = rand_expr(rng, ctx3)
        assert (f * g).total_derivative() == f.total_derivative() * g + f * g.total_derivative()
        assert (f * g).partial(1, 2) == f.partial(1, 2) * g + f * g.partial(1, 2)


def test_scaling_grading_commutes_with_derivative(ctx2):
    # the exponent-sum grading commutes with the total derivative
    rng = random.Random(17)

    def grade(f):
        out = f.ctx.zero()
        for d, comp in f.degree_components():
            out = out + comp.scale(d)
        return out

    for _ in range(40):
        f = rand_expr(rng, ctx2, fancy_exps=True)
        assert grade(f.total_derivative()) == grade(f).total_derivative()


def test_derivative_raises_order_by_one(ctx1):
    rng = random.Random(19)
    for _ in range(30):
        f = rand_expr(rng, ctx1)
        if f.is_constant():
            continue
        n, i = f.diff_order()
        dn, di = f.total_derivative().diff_order()
        assert dn == n + 1 and di == i


def test_division_and_powers(ctx2):
    u, v = ctx2.gen(0), ctx2.gen(1)
    assert (u * v + v * v) / v == u + v
    e = (u + v) ** 2
    assert e == u * u + (u * v).scale(2) + v * v
    from pvakit import NonMonomialDivisor

    with pytest.raises(NonMonomialDivisor):
        u / (u + v)
    with pytest.raises(NonMonomialDivisor):
        (u + v) ** Fraction(1, 2)


def test_context_rules():
    with pytest.raises(ValueError):
        Context(("u", "u"))
    with pytest.raises(ValueError):
        Context(("u",), ("u",))


def test_render_canonical_order(ctx1c):
    f = ctx1c.parse("5/2*u^3 + 5*c*u*u'' + 5/2*c*u'^2 + c^2*u^(4)")
    assert f.render() == "c^2*u^(4) + 5*c*u''*u + 5/2*c*u'^2 + 5/2*u^3"
    assert ctx1c.parse(f.render()) == f
