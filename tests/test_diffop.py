import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pvakit import Context, LocalFunctional, MatrixDiffOp
from pvakit.algebra import vec_dot
from pvakit.parsing import parse_operator

from conftest import rand_operator, rand_vector


def test_apply(ctx1c):
    u = ctx1c.gen(0)
    d = MatrixDiffOp.derivative(ctx1c)
    assert d.apply((u,)) == (ctx1c.gen(0, 1),)
    H = MatrixDiffOp.single(
        ctx1c, [(0, u.total_derivative()), (1, u.scale(2)), (3, ctx1c.param("c"))]
    )
    assert H.apply((u,)) == (ctx1c.parse("3*u*u' + c*u'''"),)
    ident = MatrixDiffOp.identity(ctx1c)
    v = (ctx1c.parse("u^2 + u'"),)
    assert ident.apply(v) == v


def test_apply_size_mismatch(ctx2):
    d = MatrixDiffOp.derivative(ctx2, 1, 2)
    with pytest.raises(ValueError):
        d.apply((ctx2.gen(0),))


def test_derivative_is_square_in_the_context_variables(ctx2):
    assert MatrixDiffOp.derivative(ctx2) == MatrixDiffOp.derivative(ctx2, 1, 2)


def test_adjoint(ctx1):
    u = ctx1.gen(0)
    d = MatrixDiffOp.derivative(ctx1)
    assert d.adjoint() == -d
    A = MatrixDiffOp.single(ctx1, [(0, u.total_derivative()), (1, u.scale(2))])
    assert A.adjoint() == -A
    assert A.adjoint().adjoint() == A


def test_compose(ctx1):
    u = ctx1.gen(0)
    d = MatrixDiffOp.derivative(ctx1)
    assert d.compose(d) == MatrixDiffOp.derivative(ctx1, 2)
    half = Fraction(1, 2)
    left = MatrixDiffOp.single(ctx1, [(1, (u ** half).scale(2))])
    right = MatrixDiffOp(ctx1, [[u ** half]])
    K = left.compose(right)
    assert K == MatrixDiffOp.single(ctx1, [(0, u.total_derivative()), (1, u.scale(2))])


def test_symbol(ctx1c):
    u = ctx1c.gen(0)
    H = MatrixDiffOp.single(
        ctx1c, [(0, u.total_derivative()), (1, u.scale(2)), (3, ctx1c.param("c"))]
    )
    assert H.entry(0, 0).render() == "c*lam^3 + 2*u*lam + u'"
    assert MatrixDiffOp.zero(ctx1c, 1).entry(0, 0).is_zero()
    d2 = MatrixDiffOp.derivative(ctx1c, 2)
    assert d2.adjoint().entry(0, 0).render() == "lam^2"


def test_adjoint_antihomomorphism(ctx2):
    rng = random.Random(41)
    for _ in range(25):
        A = rand_operator(rng, ctx2)
        B = rand_operator(rng, ctx2)
        assert A.adjoint().adjoint() == A
        assert A.compose(B).adjoint() == B.adjoint().compose(A.adjoint())
        assert (A + B).adjoint() == A.adjoint() + B.adjoint()


def test_integration_by_parts_duality(ctx2):
    rng = random.Random(43)
    for _ in range(20):
        A = rand_operator(rng, ctx2, max_power=2, nterms=1)
        P = rand_vector(rng, ctx2, nterms=1, nfactors=2, max_order=2)
        Q = rand_vector(rng, ctx2, nterms=1, nfactors=2, max_order=2)
        lhs = vec_dot(Q, A.apply(P))
        rhs = vec_dot(P, A.adjoint().apply(Q))
        assert LocalFunctional(lhs - rhs).is_zero()


def test_apply_linear(ctx2):
    rng = random.Random(47)
    for _ in range(20):
        A = rand_operator(rng, ctx2)
        B = rand_operator(rng, ctx2)
        P = rand_vector(rng, ctx2)
        Q = rand_vector(rng, ctx2)
        s1 = tuple(a + b for a, b in zip(A.apply(P), A.apply(Q)))
        assert A.apply(tuple(p + q for p, q in zip(P, Q))) == s1
        assert (A + B).apply(P) == tuple(a + b for a, b in zip(A.apply(P), B.apply(P)))


def test_render_matrix(ctx2):
    v = ctx2.gen(1)
    op = MatrixDiffOp(ctx2, [[[(1, ctx2.one())], [(1, v)]], [[], [(0, v)]]])
    assert op.render() == "[d, v*d; 0, v]"


def test_symbol_matrix(ctx2):
    v = ctx2.gen(1)
    op = MatrixDiffOp(ctx2, [[[(1, ctx2.one())], [(1, v)]], [[], [(0, v)]]])
    assert op.entry(0, 0).render() == "lam"
    assert op.entry(0, 1).render() == "v*lam"
    assert op.entry(1, 0).is_zero()
    assert op.entry(1, 1).render() == "v"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_symbol_of_sum_is_additive(seed):
    import random as _random

    from pvakit import Context

    rng = _random.Random(seed)
    ctx = Context(("u", "v"))
    A = rand_operator(rng, ctx)
    B = rand_operator(rng, ctx)
    for i in range(2):
        for j in range(2):
            assert (A + B).entry(i, j) == A.entry(i, j) + B.entry(i, j)


def test_scale_by_a_parameter_or_a_function(ctx1c):
    K = MatrixDiffOp.derivative(ctx1c, 3)
    c = ctx1c.param("c")
    want = parse_operator("c*d^3", ctx1c)
    assert K.scale(c) == want
    assert K.scale(c.constant_coefficient()) == want
    assert K.scale(ctx1c.gen(0)) == parse_operator("u*d^3", ctx1c)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_negation_is_scale_by_minus_one(seed):
    H = rand_operator(random.Random(seed), Context(("u", "v")))
    assert -H == H.scale(-1)
