"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its runtime and asserting the stated budget.

All comparisons are exact: vectors and flows by canonical equality,
densities modulo total derivatives.  Run with `pytest -s` to see the
per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from pvakit import (
    Context,
    LambdaPoly,
    LocalFunctional,
    MatrixDiffOp,
    beltrami_bracket,
    check_compatible,
    check_pva,
    check_symplectic,
    euler_operator,
    evolutionary_commutator,
    exactify,
    functional_bracket,
    functional_equal,
    integrate_total,
    is_closed,
    jacobi_operator_residual,
    lambda_bracket,
    two_form_from_potential,
    variational_derivative,
)
from pvakit.algebra import vec_dot, vec_is_zero
from pvakit.brackets import (
    nested_bracket_composed,
    nested_bracket_left,
    nested_bracket_right,
)
from pvakit.hierarchies import HierarchySpec, generate, golden_verify

from conftest import kdv_pair, rand_expr, rand_operator, rand_vector

_DURATIONS = {}


def _pass(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    _DURATIONS.setdefault(num, 0.0)
    _DURATIONS[num] += elapsed
    print("ACCEPTANCE %s (%s): PASS in %.2fs (budget %ds)" % (num, label, elapsed, budget))
    assert elapsed < budget, "criterion %s exceeded its %ds budget" % (num, budget)


# -- 1: KdV ----------------------------------------------------------------


def test_criterion_1_kdv_golden():
    t0 = time.monotonic()
    spec = HierarchySpec("kdv", depth=3)
    report = golden_verify(spec)
    assert report.passed, report.to_json()
    rec = generate(spec)
    ctx = rec.steps[0].F[0].ctx
    # the classical equation and the next one up sit at H F^1 and H F^2
    assert rec.step(1).flow == (ctx.parse("3*u*u' + c*u'''"),)
    assert rec.step(2).flow == (
        ctx.parse("15/2*u^2*u' + 10*c*u'*u'' + 5*c*u*u''' + c^2*u^(5)"),
    )
    _pass(1, "kdv golden", t0, 5)


# -- 2: dispersionless limit -------------------------------------------------


def test_criterion_2_dispersionless():
    t0 = time.monotonic()
    rec = generate(HierarchySpec("dispersionless_kdv", depth=8))
    ctx = rec.steps[0].F[0].ctx
    u = ctx.gen(0)
    double = 1
    fact = 1
    for n in range(9):
        if n:
            double *= 2 * n - 1
            fact *= n
        assert rec.step(n).F == ((u ** n).scale(Fraction(double, fact)),)
        assert functional_equal(
            rec.step(n).h.rep, (u ** (n + 1)).scale(Fraction(double, fact * (n + 1)))
        )
    assert rec.verification.passed()
    _pass(2, "dispersionless kdv closed form n<=8", t0, 5)


# -- 3: linear limit ---------------------------------------------------------


def test_criterion_3_linear():
    t0 = time.monotonic()
    rec = generate(HierarchySpec("linear_kdv", depth=9))
    ctx = rec.steps[0].F[0].ctx
    for step in rec.steps:
        n = step.n - 1  # F^{n+1} = u^(2n)
        assert step.F == (ctx.gen(0, 2 * n),)
        assert functional_equal(
            step.h.rep, (ctx.gen(0, n) ** 2).scale(Fraction((-1) ** n, 2))
        )
    assert rec.verification.passed()
    _pass(3, "linear kdv closed form n<=8", t0, 5)


# -- 4: HD -------------------------------------------------------------------


def test_criterion_4_hd():
    t0 = time.monotonic()
    assert golden_verify(HierarchySpec("hd", depth=2)).passed
    # alpha = 1, beta = 0 closed form through n = 5
    rec = generate(HierarchySpec("hd", {"alpha": 1, "beta": 0}, depth=5))
    ctx = rec.steps[0].F[0].ctx
    u = ctx.gen(0)
    for n in range(6):
        num, den = 1, 2 ** n
        for k in range(1, n + 1):
            num *= 2 * k - 1
            den *= 2 * k
        assert rec.step(n).F == ((u ** (Fraction(-1, 2) - n)).scale(Fraction(num, den)),)
    # Recursion-terminating degenerate member of the two-variable family of
    # the same type: with the first-order part switched off the chain dies
    # at the third step.  The one-variable chain provably never terminates:
    # there Ker H is just the constants, so F^n != 0 by induction.
    rec0 = generate(HierarchySpec("cnw_hd", {"alpha": 0, "beta": None}, depth=3))
    assert vec_is_zero(rec0.step(3).F)
    _pass(4, "hd golden + closed form + degenerate termination", t0, 10)


# -- 5: CNW ------------------------------------------------------------------


def test_criterion_5_cnw():
    t0 = time.monotonic()
    spec = HierarchySpec("cnw", depth=3)
    assert golden_verify(spec).passed
    rec = generate(spec)
    ctx = rec.steps[0].F[0].ctx
    # the four displayed equations: two trivial ones, the transport flow,
    # and the coupled system itself
    assert vec_is_zero(rec.step(0).flow)
    chainK = MatrixDiffOp.derivative(ctx, 1, 2)
    assert vec_is_zero(chainK.apply(rec.step(1).F))
    assert rec.step(1).flow == (ctx.parse("u'"), ctx.parse("v'"))
    assert rec.step(2).flow == (
        ctx.parse("c*u''' + 3*u*u' + v*v'"),
        ctx.parse("u*v' + u'*v"),
    )
    _pass(5, "cnw golden incl. coupled wave system", t0, 10)


# -- 6: CNW of HD type ---------------------------------------------------------


def test_criterion_6_cnw_hd():
    t0 = time.monotonic()
    spec = HierarchySpec("cnw_hd", depth=2)
    assert golden_verify(spec).passed
    rec = generate(spec)
    ctx = rec.steps[0].F[0].ctx
    c = ctx.param("c")
    inv_v = ctx.gen(1) ** -1
    # first displayed flow: ((d + c d^3)(1/v), -d(u/v^2))
    f1 = rec.step(1).flow
    assert f1[0] == inv_v.total_derivative() + c * inv_v.total_derivative(3)
    assert f1[1] == (-(ctx.gen(0) * inv_v ** 2)).total_derivative()
    # second displayed flow is the image of F^2 under the diagonal operator
    f2 = rec.step(2).flow
    F2 = rec.step(2).F
    assert f2[0] == F2[0].total_derivative() + c * F2[0].total_derivative(3)
    assert f2[1] == F2[1].total_derivative()
    _pass(6, "cnw-hd golden (chain-consistent signs)", t0, 10)


# -- 7: NLS --------------------------------------------------------------------


def test_criterion_7_nls():
    t0 = time.monotonic()
    assert golden_verify(HierarchySpec("nls", depth=4)).passed
    _pass(7, "nls golden h0..h4, gradients, flows", t0, 10)


# -- 8: pKdV and KN --------------------------------------------------------------


def test_criterion_8_pkdv():
    t0 = time.monotonic()
    assert golden_verify(HierarchySpec("pkdv", depth=3)).passed
    _pass("8a", "pkdv golden P1..P3, h1..h3", t0, 10)


def test_criterion_8_kn():
    t0 = time.monotonic()
    assert golden_verify(HierarchySpec("kn", depth=1)).passed
    _pass("8b", "kn golden P0, P1, h1", t0, 10)


# -- 9: structure checks -----------------------------------------------------------


def test_criterion_9_structure_checks():
    t0 = time.monotonic()
    ctx = Context(("u",), ("c",))
    u = ctx.gen(0)
    up, upp = ctx.gen(0, 1), ctx.gen(0, 2)
    c = ctx.param("c")
    # Hamiltonian positives
    assert check_pva(MatrixDiffOp.derivative(ctx)).passed
    H, K = kdv_pair(ctx)
    assert check_pva(H).passed
    # compatibility: the linear span of the three basic operators, the
    # coupled-wave pair, and the two-variable pair of HD type
    plain = Context(("u",))
    pu = plain.gen(0)
    trio = [
        MatrixDiffOp.single(plain, [(0, pu.total_derivative()), (1, pu.scale(2))]),
        MatrixDiffOp.derivative(plain),
        MatrixDiffOp.derivative(plain, 3),
    ]
    assert check_compatible(trio).passed
    from pvakit.hierarchies import FAMILIES
    from pvakit.parsing import parse_operator

    cnw, cnw_hd = FAMILIES["cnw"], FAMILIES["cnw_hd"]
    ctx2 = Context(("u", "v"), ("c",))
    Hc, Kc = parse_operator(cnw.H, ctx2), parse_operator(cnw.K, ctx2)
    assert check_compatible([Hc, Kc]).passed
    ctx2b = Context(("u", "v"), ("alpha", "beta"))
    Hh, Kh = parse_operator(cnw_hd.H, ctx2b), parse_operator(cnw_hd.K, ctx2b)
    assert check_compatible([Hh, Kh]).passed
    # symplectic positives: odd constant-coefficient powers, both
    # first-order forms, and the two localized operators
    for S in (
        MatrixDiffOp.derivative(ctx, 1),
        MatrixDiffOp.derivative(ctx, 3),
        MatrixDiffOp.derivative(ctx, 5),
        MatrixDiffOp.single(ctx, [(0, up), (1, u.scale(2))]),
        MatrixDiffOp.single(ctx, [(0, upp), (1, up.scale(2))]),
    ):
        assert check_symplectic(S).passed
    d = MatrixDiffOp.derivative(ctx)
    inv = MatrixDiffOp(ctx, [[up ** -1]])
    sokolov = two_form_from_potential(((up ** -1).scale(Fraction(-1, 2)),))
    assert sokolov == inv.compose(d).compose(inv)
    assert check_symplectic(sokolov).passed
    dorfman = two_form_from_potential(
        ((up ** -1).scale(Fraction(-1, 2)).total_derivative(2),)
    )
    assert dorfman == d.compose(inv).compose(d).compose(inv).compose(d)
    assert check_symplectic(dorfman).passed
    # negative controls: the even power fails both checks with a recorded
    # witness, and a skew-adjoint two-form fails the Hamiltonian test with
    # a nonzero generator-triple residual
    rep = check_pva(MatrixDiffOp.derivative(ctx, 2))
    assert not rep.passed and rep.failures and rep.failures[0].residual_text
    rep = check_symplectic(MatrixDiffOp.derivative(ctx, 2))
    assert not rep.passed and rep.failures and rep.failures[0].residual_text
    rep = check_pva(MatrixDiffOp.single(ctx, [(0, upp), (1, up.scale(2))]))
    assert not rep.passed
    assert rep.failures[0].triple == (1, 1, 1)
    assert not rep.failures[0].residual.is_zero()
    _pass(9, "structure checks (see xfail note for 2uu'+2u^2d)", t0, 30)


@pytest.mark.xfail(
    strict=True,
    reason="the stated negative control is actually Hamiltonian and "
    "symplectic: 2uu' + 2u^2 d equals D_F - D_F* for F = u^2 u' and its "
    "bracket satisfies the generator-triple Jacobi identity (verified by "
    "independent expansion), so this assertion documents an error in the "
    "reference expectations",
)
def test_criterion_9_stated_negative_control():
    ctx = Context(("u",))
    u = ctx.gen(0)
    op = MatrixDiffOp.single(
        ctx, [(0, (u * u.total_derivative()).scale(2)), (1, (u * u).scale(2))]
    )
    assert not check_pva(op).passed


# -- 10: exactness algorithms -----------------------------------------------------


def test_criterion_10_exactness():
    t0 = time.monotonic()
    ctx3 = Context(("u_1", "u_2", "u_3"))
    F = (ctx3.gen(2, 1), -ctx3.gen(1, 2), -ctx3.gen(0, 1))
    f = exactify(F)
    assert f == (
        ctx3.gen(0) * ctx3.gen(2, 1)
        - ctx3.gen(1) * ctx3.gen(1, 2)
        - ctx3.gen(2) * ctx3.gen(0, 1)
    ).scale(Fraction(1, 2))
    # localized four-variable case: the grading shortcut degenerates and
    # the inductive double-antiderivative descent takes over
    ctx4 = Context(("u_1", "u_2", "u_3", "u_4"))
    u1 = ctx4.gen(0)
    u1p, u2p, u2pp, u3p, u4p = (
        ctx4.gen(0, 1),
        ctx4.gen(1, 1),
        ctx4.gen(1, 2),
        ctx4.gen(2, 1),
        ctx4.gen(3, 1),
    )
    i4 = ctx4.gen(3) ** -1
    F4 = (
        (i4 ** 2) * u3p,
        (i4 ** 3 * u2p * u4p).scale(2) - (i4 ** 2) * u2pp,
        (i4 ** 3 * u1 * u4p).scale(2) - (i4 ** 2) * u1p,
        -(i4 ** 3 * u1 * u3p).scale(2) - (i4 ** 3) * u2p * u2p,
    )
    w = ctx4.zero()
    for i, fi in enumerate(F4):
        w = w + ctx4.gen(i) * fi
    assert [deg for deg, _ in w.degree_components()] == [0]
    f4 = exactify(F4)
    assert variational_derivative(f4) == F4
    want = (i4 ** 2 * u2p * u2p).scale(Fraction(1, 2)) + (i4 ** 2) * u1 * u3p
    assert functional_equal(f4, want)
    _pass(10, "exactness algorithms (shortcut + inductive)", t0, 5)


# -- 11: property suites ------------------------------------------------------------

CASES = 200


def _bracket_context():
    return Context(("u", "v"), ("c",))


def _suite_ops(ctx):
    u = ctx.gen(0)
    H = MatrixDiffOp(
        ctx,
        [
            [[(0, u.total_derivative()), (1, u.scale(2)), (3, ctx.param("c"))], [(1, ctx.gen(1))]],
            [[(0, ctx.gen(1, 1)), (1, ctx.gen(1))], []],
        ],
    )
    return H, MatrixDiffOp.identity(ctx)


def test_criterion_11a_partial_total_commutators():
    t0 = time.monotonic()
    rng = random.Random(101)
    ctx = Context(("u", "v", "w"))
    for _ in range(CASES):
        f = rand_expr(rng, ctx, fancy_exps=True)
        i = rng.randrange(3)
        n = rng.randint(0, 4)
        lhs = f.total_derivative().partial(i, n) - f.partial(i, n).total_derivative()
        rhs = f.partial(i, n - 1) if n else ctx.zero()
        assert lhs == rhs
    _pass("11a", "commutator of slot and total derivatives", t0, 120)


def test_criterion_11b_sesquilinearity():
    t0 = time.monotonic()
    rng = random.Random(102)
    ctx = _bracket_context()
    H, I = _suite_ops(ctx)
    for _ in range(CASES):
        f = rand_expr(rng, ctx, nterms=2, nfactors=2, max_order=4)
        g = rand_expr(rng, ctx, nterms=2, nfactors=2, max_order=4)
        op = H if rng.random() < 0.5 else I
        base = lambda_bracket(op, f, g)
        left = lambda_bracket(op, f.total_derivative(), g)
        assert left == LambdaPoly(ctx, {k + 1: -v for k, v in base.coeffs.items()})
        right = lambda_bracket(op, f, g.total_derivative())
        assert right == base.shift_apply()
    _pass("11b", "sesquilinearity, both brackets", t0, 120)


def _arrow(x, m):
    """sum_k x_k (lam+d)^k m with the shift acting on m only."""
    out = LambdaPoly(m.ctx, {})
    for k, v in x.coeffs.items():
        t = LambdaPoly.of(m).shift_apply(k)
        out = out + LambdaPoly(m.ctx, {a: v * b for a, b in t.coeffs.items()})
    return out


def test_criterion_11c_leibniz_rules():
    t0 = time.monotonic()
    rng = random.Random(103)
    ctx = _bracket_context()
    H, I = _suite_ops(ctx)
    for _ in range(CASES):
        f = rand_expr(rng, ctx, nterms=1, nfactors=2, max_order=3)
        g = rand_expr(rng, ctx, nterms=1, nfactors=2, max_order=3)
        h = rand_expr(rng, ctx, nterms=1, nfactors=2, max_order=3)
        op = H if rng.random() < 0.5 else I
        assert lambda_bracket(op, f, g * h) == lambda_bracket(op, f, g).mul_expr(
            h
        ) + lambda_bracket(op, f, h).mul_expr(g)
        assert lambda_bracket(op, f * g, h) == _arrow(
            lambda_bracket(op, f, h), g
        ) + _arrow(lambda_bracket(op, g, h), f)
    _pass("11c", "left and right product rules, both brackets", t0, 120)


def test_criterion_11d_variational_kills_derivatives():
    t0 = time.monotonic()
    rng = random.Random(104)
    ctx = Context(("u", "v", "w"))
    for _ in range(CASES):
        f = rand_expr(rng, ctx, fancy_exps=True)
        assert vec_is_zero(variational_derivative(f.total_derivative()))
    _pass("11d", "variational derivative annihilates derivatives", t0, 120)


def test_criterion_11e_exact_vectors_closed():
    t0 = time.monotonic()
    rng = random.Random(105)
    ctx = Context(("u", "v"))
    for _ in range(CASES):
        f = rand_expr(rng, ctx, fancy_exps=True)
        assert is_closed(variational_derivative(f)).closed
    _pass("11e", "gradients are closed", t0, 120)


def test_criterion_11f_inversion_round_trips():
    t0 = time.monotonic()
    rng = random.Random(106)
    ctx = Context(("u", "v"))
    for _ in range(CASES):
        g = rand_expr(rng, ctx, fancy_exps=True)
        g2, const = integrate_total(g.total_derivative())
        assert const == 0 and (g2 - g).is_constant()
    for _ in range(CASES):
        f = rand_expr(rng, ctx, nfactors=2, max_order=3)
        F = variational_derivative(f)
        assert variational_derivative(exactify(F)) == F
    _pass("11f", "derivative inversion and potential round trips", t0, 120)


def test_criterion_11g_adjoint_algebra():
    t0 = time.monotonic()
    rng = random.Random(107)
    ctx = Context(("u", "v", "w"))
    for _ in range(CASES):
        A = rand_operator(rng, ctx, max_power=3, nterms=1)
        B = rand_operator(rng, ctx, max_power=3, nterms=1)
        assert A.adjoint().adjoint() == A
        assert A.compose(B).adjoint() == B.adjoint().compose(A.adjoint())
    _pass("11g", "adjoint involution and anti-homomorphism", t0, 120)


def test_criterion_11h_integration_by_parts_duality():
    t0 = time.monotonic()
    rng = random.Random(108)
    ctx = Context(("u", "v"))
    for _ in range(CASES):
        A = rand_operator(rng, ctx, max_power=2, nterms=1)
        P = rand_vector(rng, ctx, nterms=1, nfactors=2, max_order=2)
        Q = rand_vector(rng, ctx, nterms=1, nfactors=2, max_order=2)
        diff = vec_dot(Q, A.apply(P)) - vec_dot(P, A.adjoint().apply(Q))
        assert LocalFunctional(diff).is_zero()
    _pass("11h", "pairing duality of adjoints", t0, 120)


def test_criterion_11i_beltrami_triple_identities():
    t0 = time.monotonic()
    rng = random.Random(109)
    ctx = Context(("u", "v"))
    I = MatrixDiffOp.identity(ctx)
    for _ in range(CASES):
        f = rand_expr(rng, ctx, nterms=1, nfactors=2, max_order=2)
        g = rand_expr(rng, ctx, nterms=1, nfactors=2, max_order=2)
        ui = ctx.gen(rng.randrange(2))
        lhs1 = nested_bracket_left(I, ui, lambda_bracket(I, f, g)) - nested_bracket_right(
            I, f, lambda_bracket(I, ui, g)
        )
        rhs1 = nested_bracket_composed(I, lambda_bracket(I, ui, f), g)
        assert (lhs1 - rhs1).is_zero()
        lhs2 = nested_bracket_left(I, f, lambda_bracket(I, g, ui)) + nested_bracket_right(
            I, g, lambda_bracket(I, f, ui)
        )
        rhs2 = nested_bracket_composed(I, lambda_bracket(I, f, g), ui)
        assert (lhs2 - rhs2).is_zero()
    _pass("11i", "commutative-bracket triple identities", t0, 120)


def test_criterion_11j_jacobi_forms_agree():
    t0 = time.monotonic()
    rng = random.Random(110)
    ctx = Context(("u",), ("c",))
    H, _ = kdv_pair(ctx)
    assert check_pva(H).passed  # generator-triple form
    for _ in range(CASES):
        F = rand_vector(rng, ctx, nterms=1, nfactors=2, max_order=2)
        G = rand_vector(rng, ctx, nterms=1, nfactors=2, max_order=2)
        assert vec_is_zero(jacobi_operator_residual(H, F, G))
    # and the operator form detects the failure the triple form reports
    upp, up = ctx.gen(0, 2), ctx.gen(0, 1)
    bad = MatrixDiffOp.single(ctx, [(0, upp), (1, up.scale(2))])
    assert not check_pva(bad).passed
    seen = False
    for _ in range(20):
        F = rand_vector(rng, ctx, nterms=1, nfactors=2, max_order=2)
        G = rand_vector(rng, ctx, nterms=1, nfactors=2, max_order=2)
        if not vec_is_zero(jacobi_operator_residual(bad, F, G)):
            seen = True
            break
    assert seen
    _pass("11j", "equivalence of the two Jacobi formulations", t0, 120)


def test_criterion_11k_euler_operators_from_bracket():
    t0 = time.monotonic()
    rng = random.Random(111)
    ctx = Context(("u", "v"))
    for _ in range(CASES):
        f = rand_expr(rng, ctx, nterms=2, nfactors=2, max_order=3, fancy_exps=True)
        i = rng.randrange(2)
        lp = beltrami_bracket(f, ctx.gen(i))
        for m in range(5):
            assert lp.coefficient(m) == euler_operator(f, i, m)
    _pass("11k", "bracket against generators collects Euler operators", t0, 120)


def test_criterion_11_total_budget():
    total = sum(v for k, v in _DURATIONS.items() if str(k).startswith("11"))
    print("ACCEPTANCE 11 (property suites total): %.2fs (budget 120s)" % total)
    assert total < 120


# -- 12: involution and commuting flows -----------------------------------------------


def test_criterion_12_involution_and_flows():
    t0 = time.monotonic()
    # all pairwise brackets of stored densities vanish and the first four
    # flows commute, for the three families named
    kdv = generate(HierarchySpec("kdv", depth=4))
    ctxk = kdv.steps[0].F[0].ctx
    Hk, Kk = kdv_pair(ctxk)
    hs = [s.h for s in kdv.steps if s.h is not None]
    assert len(hs) == 5
    for a in hs:
        for b in hs:
            assert functional_bracket(Hk, a, b).is_zero()
            assert functional_bracket(Kk, a, b).is_zero()
    flows = [s.flow for s in kdv.steps[:4]]
    for P in flows:
        for Q in flows:
            assert vec_is_zero(evolutionary_commutator(P, Q))

    cnw = generate(HierarchySpec("cnw", depth=3))
    assert cnw.verification.involution_h and cnw.verification.involution_k
    flows = [s.flow for s in cnw.steps[:4]]
    for P in flows:
        for Q in flows:
            assert vec_is_zero(evolutionary_commutator(P, Q))

    nls = generate(HierarchySpec("nls", depth=4))
    ctxn = nls.steps[0].F[0].ctx
    J = MatrixDiffOp(
        ctxn, [[[], [(0, -ctxn.one())]], [[(0, ctxn.one())], []]]
    )
    hs = [s.h for s in nls.steps if s.h is not None]
    assert len(hs) == 5
    for a in hs:
        for b in hs:
            assert functional_bracket(J, a, b).is_zero()
    flows = [s.flow for s in nls.steps[:4]]
    for P in flows:
        for Q in flows:
            assert vec_is_zero(evolutionary_commutator(P, Q))
    _pass(12, "involution and commuting flows (kdv, cnw, nls)", t0, 60)
