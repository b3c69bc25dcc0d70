"""make_plan reads the solver off K: a triangle of pivots m0 o d^r o m1.
Its solve must give the value of the reference plan that names the shape
of K (tests/reference.py), or raise the same exception type, on every
step of the shipped Lenard families and on random pivots and random
two-variable triangles shaped like the cnw_hd operator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pvakit import Context, LogRequired, MatrixDiffOp, NotExact, make_plan
from pvakit.hierarchies import FAMILIES, HierarchySpec, _Binding, generate

import reference

# the reference plan kind and chain monomials of each family other than
# the "derivative" ones
REFERENCE_PLANS = {
    "hd": ("chain", ("2*u^(1/2)", "u^(1/2)")),
    "kn": ("chain", ("u'^(-1)", "u'^(-1)")),
    "cnw_hd": ("cnw_hd", ()),
}


def _outcome(solve, Y):
    """The solution, or the type of the exception the solve raised."""
    try:
        return solve(Y)
    except (NotExact, LogRequired) as exc:
        return type(exc)


@pytest.mark.parametrize(
    "name", [name for name, fam in FAMILIES.items() if fam.kind != "dirac"]
)
def test_family_solves_match_reference(name):
    spec = HierarchySpec(name)
    fam = FAMILIES[name]
    read = _Binding(fam, spec.params)
    H, K = read.operator(fam.H), read.operator(fam.K)
    kind, chain = REFERENCE_PLANS.get(name, ("derivative", ()))
    want = reference.make_plan(K, kind, [read.expr(t) for t in chain])
    got = make_plan(K)
    for step in generate(spec).steps:
        Y = H.apply(step.F)
        assert _outcome(got.solve, Y) == _outcome(want.solve, Y)


CTXS = (Context(("u",), ("c",)), Context(("u", "v"), ("c",)))
EXPONENTS = (1, 2, -1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))
rationals = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def scalars(draw, ctx):
    """q, q*c or q*(c + 1): rational and parametric constants."""
    q = ctx.num(draw(rationals))
    c = ctx.param("c")
    return q * draw(st.sampled_from([ctx.one(), c, c + ctx.one()]))


@st.composite
def monomials(draw, ctx):
    """A scalar times up to two powers of generators of order up to 2."""
    m = draw(scalars(ctx))
    for _ in range(draw(st.integers(0, 2))):
        g = ctx.gen(draw(st.integers(0, ctx.nvars - 1)), draw(st.integers(0, 2)))
        m = m * g ** draw(st.sampled_from(EXPONENTS))
    return m


@st.composite
def expressions(draw, ctx):
    total = ctx.zero()
    for _ in range(draw(st.integers(1, 3))):
        total = total + draw(monomials(ctx))
    return total


@st.composite
def chains(draw, ctx):
    """Reference chain monomials of m0 o d^r o m1, r = 0, 1 or 2; for r = 2
    the inner factor is a constant, which folds into m0."""
    r = draw(st.integers(0, 2))
    m0, m1 = draw(monomials(ctx)), draw(monomials(ctx))
    if r == 0:
        return [m0 * m1]
    return [m0] + [draw(scalars(ctx)) for _ in range(r - 1)] + [m1]


def _targets(draw, ctx, K):
    """K X for a random X, which is solvable, and a random vector."""
    X = tuple(draw(expressions(ctx)) for _ in range(K.ncols))
    return [K.apply(X), tuple(draw(expressions(ctx)) for _ in range(K.nrows))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_pivot_matches_chain_plan(data):
    ctx = data.draw(st.sampled_from(CTXS))
    want = reference.ChainPlan(ctx, data.draw(chains(ctx)))
    K = want.operator()
    got = make_plan(K)
    for Y in _targets(data.draw, ctx, K):
        assert _outcome(got.solve, Y) == _outcome(want.solve, Y)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_triangle_matches_composed_chain_plans(data):
    """K = [[A, P], [Q, 0]] with pivots Q and P, as cnw_hd's
    [[u' + 2 u d, v d], [v' + v d, 0]]; the reference solves the second
    row by Q's chain plan and the first, less A X_1, by P's."""
    ctx = CTXS[1]
    P = reference.ChainPlan(ctx, data.draw(chains(ctx)))
    Q = reference.ChainPlan(ctx, data.draw(chains(ctx)))
    A = MatrixDiffOp.single(
        ctx, [(data.draw(st.integers(0, 2)), data.draw(expressions(ctx)))]
    )
    K = MatrixDiffOp(
        ctx,
        [
            [A.entry(0, 0), P.operator().entry(0, 0)],
            [Q.operator().entry(0, 0), []],
        ],
    )

    def solve(Y):
        (x1,) = Q.solve((Y[1],))
        (x2,) = P.solve((Y[0] - A.apply((x1,))[0],))
        return (x1, x2)

    got = make_plan(K)
    for Y in _targets(data.draw, ctx, K):
        assert _outcome(got.solve, Y) == _outcome(solve, Y)

