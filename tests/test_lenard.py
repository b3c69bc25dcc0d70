import json
import re
from fractions import Fraction

import pytest

from pvakit import (
    Context,
    MatrixDiffOp,
    NotExact,
    PlanMismatch,
    lenard_extend,
    make_plan,
    parse_operator,
    verify_sequence,
)
from pvakit.hierarchies import FAMILIES, _Binding
from pvakit.lenard import HierarchyRecord, HierarchyStep

from conftest import kdv_pair


def test_make_plan_validates(ctx1, ctx1c):
    u = ctx1.gen(0)
    half = Fraction(1, 2)
    K = MatrixDiffOp.single(ctx1, [(0, u.total_derivative()), (1, u.scale(2))])
    plan = make_plan(K)
    # u' + 2 u d = 2 u^(1/2) o d o u^(1/2)
    assert plan.pivots == [(0, 0, (u ** half).scale(2), 1, u ** half)]
    # a constant inner factor folds into m0: d o c o d = c d^2
    c = ctx1c.param("c")
    K = MatrixDiffOp.single(ctx1c, [(2, c)])
    assert make_plan(K).pivots == [(0, 0, c, 2, None)]


@pytest.mark.parametrize(
    "vars_, text, message",
    [
        ("u", "d, d", "K is 1 x 2, not square"),
        ("u,v", "d, d; d, d", "K has no triangle"),
        ("u", "(u + 1)*d", "K entry (0, 0) = (u + 1)*d is not"),
        ("u", "u*d^2 + u'*d", "K entry (0, 0) = u'*d + u*d^2 is not"),
        ("u,v", "v*d, u*d; u*d^2 + u'*d, 0", "K entry (1, 0) = u'*d + u*d^2 is not"),
    ],
)
def test_make_plan_rejects(vars_, text, message):
    """No triangle of pivots m0 o d^r o m1: K not square, no row with a
    single unsolved entry, a leading coefficient that is not a monomial,
    and d o u o d, whose inner factor is not constant."""
    with pytest.raises(PlanMismatch, match=re.escape(message)):
        make_plan(parse_operator(text, Context(vars_.split(","))))


def test_derivative_plan_solutions(ctx1):
    K = MatrixDiffOp.derivative(ctx1)
    plan = make_plan(K)
    u = ctx1.gen(0)
    X = plan.solve((u * ctx1.gen(0, 1),))
    assert X == ((u ** 2).scale(Fraction(1, 2)),)
    with pytest.raises(NotExact):
        plan.solve((u,))
    with pytest.raises(PlanMismatch, match="^vector length does not match the plan$"):
        plan.solve((u, u))


def test_chain_plan_solves_square_root_factorization(ctx1):
    u = ctx1.gen(0)
    K = MatrixDiffOp.single(ctx1, [(0, u.total_derivative()), (1, u.scale(2))])
    plan = make_plan(K)
    Y = K.apply((u ** Fraction(-5, 2),))
    X = plan.solve(Y)
    assert X == (u ** Fraction(-5, 2),)


def test_kdv_extension_values(ctx1c):
    H, K = kdv_pair(ctx1c)
    rec = lenard_extend(H, K, [(ctx1c.one(),)], 3, name="kdv")
    assert rec.step(1).F == (ctx1c.gen(0),)
    assert rec.step(2).F == (ctx1c.parse("3/2*u^2 + c*u''"),)
    assert rec.step(3).F == (
        ctx1c.parse("5/2*u^3 + 5*c*u*u'' + 5/2*c*u'^2 + c^2*u^(4)"),
    )
    assert rec.step(3).h is not None
    verify_sequence(H, K, rec)
    v = rec.verification
    assert v.passed()
    assert v.chain and v.orthogonality and v.involution_h and v.involution_k
    assert all(v.closed)


def test_seed_validation(ctx1c):
    H, K = kdv_pair(ctx1c)
    with pytest.raises(NotExact):
        lenard_extend(H, K, [(ctx1c.one(),), (ctx1c.one(),)], 3)


def test_unknown_kind_is_refused(ctx1c):
    H, K = kdv_pair(ctx1c)
    with pytest.raises(ValueError, match="hamiltonian, symplectic or dirac"):
        lenard_extend(H, K, [(ctx1c.one(),)], 2, kind="Hamiltonian")


def test_dirac_seed_validation():
    """NLS seeds must satisfy H P_0 = (J o K) P_1: P_1 = (u v, 0) does, and
    a repeated P_0 does not."""
    fam = FAMILIES["nls"]
    read = _Binding(fam, {})
    H, K = read.operator(fam.H), read.operator(fam.K)
    P0 = read.vector(fam.seeds[0])
    P1 = read.vector(("u*v", "0"))
    one = lenard_extend(H, K, [P0], 3, kind="dirac")
    two = lenard_extend(H, K, [P0, P1], 3, kind="dirac")
    assert [s.F for s in two.steps] == [s.F for s in one.steps]
    with pytest.raises(NotExact, match="^seed vectors do not satisfy the recursion$"):
        lenard_extend(H, K, [P0, P0], 3, kind="dirac")


def test_recursion_order1_hd_values():
    """HD's K = u' + 2 u d, solved as 2 u^(1/2) o d o u^(1/2), against the
    closed forms of the first two steps."""
    ctx = Context(("u",), ("alpha", "beta"))
    u = ctx.gen(0)
    H = MatrixDiffOp.single(ctx, [(1, ctx.param("alpha")), (3, ctx.param("beta"))])
    K = MatrixDiffOp.single(ctx, [(0, u.total_derivative()), (1, u.scale(2))])
    rec = lenard_extend(H, K, [(u ** Fraction(-1, 2),)], 2)
    chain = [s.F[0] for s in rec.steps]
    q = Fraction
    upow = lambda e: u ** q(e)
    want1 = ctx.param("alpha") * upow(q(-3, 2)).scale(q(1, 4)) + ctx.param("beta") * (
        upow(q(-5, 4)) * upow(q(-1, 4)).total_derivative(2)
    )
    assert chain[1] == want1
    want2 = (
        ctx.param("alpha") ** 2 * upow(q(-5, 2)).scale(q(3, 32))
        + ctx.param("alpha") * ctx.param("beta")
        * (upow(q(-7, 4)) * upow(q(-3, 4)).total_derivative(2)).scale(q(5, 12))
        + ctx.param("beta") ** 2
        * (upow(q(-7, 4)) * upow(q(-3, 4)).total_derivative(4)).scale(q(1, 6))
    )
    assert chain[2] == want2


def test_verify_detects_corruption(ctx1c):
    H, K = kdv_pair(ctx1c)
    rec = lenard_extend(H, K, [(ctx1c.one(),)], 3)
    bad_steps = [
        HierarchyStep(s.n, s.F if s.n != 2 else (s.F[0] + ctx1c.gen(0, 1),), s.h, s.flow)
        for s in rec.steps
    ]
    bad = HierarchyRecord("kdv", "hamiltonian", {}, bad_steps)
    verify_sequence(H, K, bad)
    assert not bad.verification.chain
    assert not bad.verification.orthogonality
    assert not bad.verification.passed()


def test_verify_empty_record(ctx1c):
    H, K = kdv_pair(ctx1c)
    rec = HierarchyRecord("empty", "hamiltonian", {}, [])
    verify_sequence(H, K, rec)
    assert rec.verification.passed()


def test_linear_chain_with_offset_start(ctx1):
    H = MatrixDiffOp.derivative(ctx1, 3)
    K = MatrixDiffOp.derivative(ctx1)
    rec = lenard_extend(H, K, [(ctx1.gen(0),)], 4, start_index=1)
    assert [s.n for s in rec.steps] == [1, 2, 3, 4]
    for s in rec.steps:
        assert s.F == (ctx1.gen(0, 2 * (s.n - 1)),)


def test_extension_stops_at_depth(ctx1):
    """Seeds past depth are still checked against the recursion, but only
    the steps start_index ... depth come back."""
    H = MatrixDiffOp.derivative(ctx1, 3)
    K = MatrixDiffOp.derivative(ctx1)
    seeds = [(ctx1.gen(0, 2 * n),) for n in range(3)]
    for depth, start, want in ((0, 0, [0]), (1, 0, [0, 1]), (1, 1, [1]), (0, 1, []), (3, 1, [1, 2, 3])):
        rec = lenard_extend(H, K, seeds, depth, start_index=start)
        assert [s.n for s in rec.steps] == want
        for s in rec.steps:
            assert s.F == (ctx1.gen(0, 2 * (s.n - start)),)
            assert s.flow == (ctx1.gen(0, 2 * (s.n - start) + 3),)
    with pytest.raises(NotExact, match="^seed vectors do not satisfy the recursion$"):
        lenard_extend(H, K, seeds + [(ctx1.gen(0),)], 0)


def test_record_json_shape(ctx1c):
    H, K = kdv_pair(ctx1c)
    rec = verify_sequence(H, K, lenard_extend(H, K, [(ctx1c.one(),)], 2, name="kdv"))
    data = rec.to_json()
    assert set(data) == {"name", "kind", "params", "steps", "verification"}
    assert set(data["steps"][0]) == {"n", "F", "h", "flow"}
    assert set(data["verification"]) == {
        "chain",
        "orthogonality",
        "involution_H",
        "involution_K",
        "gradients",
        "closed",
    }
    assert json.loads(json.dumps(data)) == data
