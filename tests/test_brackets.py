import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from pvakit import (
    Context,
    IndividualFailure,
    LambdaPoly,
    LocalFunctional,
    MatrixDiffOp,
    beltrami_bracket,
    check_compatible,
    check_pva,
    check_symplectic,
    euler_operator,
    evolutionary_commutator,
    frechet,
    functional_bracket,
    hamiltonian_vector_field,
    jacobi_operator_residual,
    jacobi_triple_residual,
    lambda_bracket,
    skew_image,
    two_form_from_potential,
    variational_derivative,
)
from pvakit import brackets
from pvakit.algebra import vec_is_zero
from pvakit.operators import BiLambdaPoly
from pvakit.parsing import parse_expression, parse_operator

import reference
from conftest import kdv_pair, rand_expr, rand_vector


def test_lambda_bracket_on_generators(ctx1c):
    u = ctx1c.gen(0)
    H, K = kdv_pair(ctx1c)
    assert lambda_bracket(K, u, u) == LambdaPoly(ctx1c, {1: ctx1c.one()})
    assert lambda_bracket(H, u, u).render() == "c*lam^3 + 2*u*lam + u'"
    up = ctx1c.gen(0, 1)
    assert lambda_bracket(K, up, up) == LambdaPoly(ctx1c, {3: ctx1c.num(-1)})


def test_beltrami_values(ctx1c):
    u = ctx1c.gen(0)
    assert beltrami_bracket(u, u) == LambdaPoly(ctx1c, {0: ctx1c.one()})
    f = (u ** 3).scale(Fraction(1, 2))
    assert beltrami_bracket(f, u).coefficient(0) == (u * u).scale(Fraction(3, 2))
    # rows of the first variation through the bracket against generators
    up = ctx1c.gen(0, 1)
    F = ((up ** -1).scale(Fraction(-1, 2)),)
    D = frechet(F)
    assert beltrami_bracket(u, F[0]) == D.entry(0, 0)


def test_beltrami_collects_euler_operators(ctx2):
    rng = random.Random(53)
    for _ in range(20):
        f = rand_expr(rng, ctx2, fancy_exps=True)
        for i in range(2):
            lp = beltrami_bracket(f, ctx2.gen(i))
            for m in range(6):
                assert lp.coefficient(m) == euler_operator(f, i, m)


def test_functional_bracket(ctx1c):
    H, K = kdv_pair(ctx1c)
    u = ctx1c.gen(0)
    f = (u ** 2).scale(Fraction(1, 2))
    assert functional_bracket(K, f, f).is_zero()
    h2 = ctx1c.parse("1/2*u^3 + 1/2*c*u*u''")
    h3 = ctx1c.parse("5/8*u^4 + 5/3*c*u^2*u'' + 5/6*c*u*u'^2 + 1/2*c^2*u*u^(4)")
    assert functional_bracket(H, h2, h3).is_zero()
    assert functional_bracket(K, h2, h3).is_zero()


def test_functional_bracket_central_extension_triple():
    ctx = Context(("p", "q", "z"))
    z = ctx.gen(2)
    H = MatrixDiffOp(ctx, [[[], [(0, -z)], []], [[(0, z)], [], []], [[], [], []]])
    assert check_pva(H).passed
    out = functional_bracket(H, ctx.gen(0), ctx.gen(1))
    assert out == LocalFunctional(z)
    assert functional_bracket(H, ctx.gen(1), ctx.gen(0)) == LocalFunctional(-z)


def test_check_pva(ctx1c):
    H, K = kdv_pair(ctx1c)
    assert check_pva(K).passed
    assert check_pva(H).passed
    # not skew-adjoint
    rep = check_pva(MatrixDiffOp.derivative(ctx1c, 2))
    assert not rep.passed and rep.failures[0].kind == "skew"
    # skew-adjoint but not a Hamiltonian structure
    upp = ctx1c.gen(0, 2)
    up = ctx1c.gen(0, 1)
    S = MatrixDiffOp.single(ctx1c, [(0, upp), (1, up.scale(2))])
    rep = check_pva(S)
    assert not rep.passed
    assert rep.failures[0].kind == "jacobi"
    assert rep.failures[0].triple == (1, 1, 1)
    assert not rep.failures[0].residual.is_zero()


def test_quadratic_first_order_operator_is_hamiltonian(ctx1):
    # 2 u u' + 2 u^2 d equals D_F - D_F* for F = u^2 u', hence it passes
    # both the Hamiltonian and the symplectic test
    u = ctx1.gen(0)
    op = MatrixDiffOp.single(ctx1, [(0, (u * u.total_derivative()).scale(2)), (1, (u * u).scale(2))])
    assert two_form_from_potential((u * u * u.total_derivative(),)) == op
    assert check_pva(op).passed
    assert check_symplectic(op).passed


def test_pencil_with_a_symbolic_parameter_is_hamiltonian(ctx1c):
    c = ctx1c.param("c")
    H = parse_operator("u' + 2*u*d", ctx1c)
    pencil = H + MatrixDiffOp.derivative(ctx1c, 3).scale(c)
    assert pencil == parse_operator("u' + 2*u*d + c*d^3", ctx1c)
    assert check_pva(pencil).passed


def test_check_compatible(ctx1, ctx1c):
    u = ctx1.gen(0)
    H1 = MatrixDiffOp.single(ctx1, [(0, u.total_derivative()), (1, u.scale(2))])
    H2 = MatrixDiffOp.derivative(ctx1)
    H3 = MatrixDiffOp.derivative(ctx1, 3)
    assert check_compatible([H1, H2, H3]).passed
    H, K = kdv_pair(ctx1c)
    assert check_compatible([H, H]).passed
    with pytest.raises(IndividualFailure) as exc:
        check_compatible([MatrixDiffOp.derivative(ctx1, 2), H2])
    assert exc.value.indices == [0]


def test_check_compatible_two_variable_pairs():
    from pvakit.hierarchies import FAMILIES
    from pvakit.parsing import parse_operator

    cnw, cnw_hd = FAMILIES["cnw"], FAMILIES["cnw_hd"]
    ctx = Context(("u", "v"), ("c",))
    H, K = parse_operator(cnw.H, ctx), parse_operator(cnw.K, ctx)
    assert check_pva(H).passed and check_pva(K).passed
    assert check_compatible([H, K]).passed
    ctx2 = Context(("u", "v"), ("alpha", "beta"))
    H2, K2 = parse_operator(cnw_hd.H, ctx2), parse_operator(cnw_hd.K, ctx2)
    assert check_compatible([H2, K2]).passed


# Hamiltonian operators in u, v over QQ(c): the cnw operator, the
# identity and the swap of d, and one-slot first- and third-order pieces
COMPAT_POOL = (
    "u' + 2*u*d + c*d^3, v*d; v' + v*d, 0",
    "d, 0; 0, d",
    "0, d; d, 0",
    "v' + 2*v*d, 0; 0, 0",
    "0, u*d; u' + u*d, 0",
    "0, 0; 0, u' + 2*u*d",
    "d^3, 0; 0, 0",
    "0, 0; 0, v' + 2*v*d",
    "u' + 2*u*d, 0; 0, 0",
)


def test_pairwise_compatibility_matches_mixed_reference():
    """On every pair and triple of the pool, the pairwise check gives the
    reference's verdict and failing triples, and each mixed residual is
    sum_{a<b} t_a t_b times the residual reported for ops (a, b)."""
    ctx = Context(("u", "v"), ("c",))
    pool = [parse_operator(t, ctx) for t in COMPAT_POOL]
    verdicts = []
    for size in (2, 3):
        for idx in combinations(range(len(pool)), size):
            ops = [pool[a] for a in idx]
            ref = reference.check_compatible(ops)
            got = check_compatible(ops)
            verdicts.append(got.passed)
            assert got.passed == ref.passed
            assert {f.triple for f in got.failures} == {f.triple for f in ref.failures}
            assert all(f.kind == "jacobi" and f.pair for f in got.failures)
            big, names = reference.mixing_context(ctx, size)
            for rf in ref.failures:
                mixed = BiLambdaPoly(big, {})
                for f in got.failures:
                    if f.triple != rf.triple:
                        continue
                    a, b = f.pair
                    t = big.param(names[a - 1]) * big.param(names[b - 1])
                    mixed = mixed + BiLambdaPoly(big, {
                        key: t * parse_expression(v.render(), big)
                        for key, v in f.residual.coeffs.items()
                    })
                assert mixed == rf.residual
    assert (verdicts.count(True), verdicts.count(False)) == (32, 88)


def test_check_compatible_needs_one_shared_context(ctx1, ctx1c):
    with pytest.raises(ValueError, match="^a compatibility check needs at least one operator$"):
        check_compatible([])
    with pytest.raises(ValueError, match="^operators must share one context$"):
        check_compatible([MatrixDiffOp.derivative(ctx1), MatrixDiffOp.derivative(ctx1c)])


def _hydro(rng, ctx):
    """g d + 1/2 g' for a random g(u): Hamiltonian for every g."""
    g = rand_expr(rng, ctx, nterms=2, nfactors=2, max_order=0, fancy_exps=True)
    return MatrixDiffOp.single(ctx, [(0, g.total_derivative().scale(Fraction(1, 2))), (1, g)])


def _hamiltonian_pairs():
    """Pairs of operators that each pass check_pva: all pairs of
    COMPAT_POOL, and in one variable random hydrodynamic operators against
    each other, against d^3 and against the kdv operator."""
    ctx2 = Context(("u", "v"), ("c",))
    pool = [parse_operator(t, ctx2) for t in COMPAT_POOL]
    pairs = list(combinations(pool, 2))
    ctx1 = Context(("u",), ("c",))
    rng = random.Random(41)
    kdv, d = kdv_pair(ctx1)
    for _ in range(6):
        pairs += [(_hydro(rng, ctx1), other)
                  for other in (_hydro(rng, ctx1), d.compose(d).compose(d), kdv)]
    return pairs


def test_cross_terms_are_the_residual_of_the_sum():
    """Once H_a and H_b pass on their own, the cross residual
    B_ab = T(H_a, H_b) + T(H_b, H_a) equals R(H_a + H_b) on every triple,
    i > j included, on pairs that pass and on pairs that fail."""
    failing = 0
    for Ha, Hb in _hamiltonian_pairs():
        assert check_pva(Ha).passed and check_pva(Hb).passed
        H = Ha + Hb
        n = H.ctx.nvars
        zero = True
        for i, j, k in product(range(n), repeat=3):
            B = brackets._jacobi_cross(Ha, Hb, i, j, k) + brackets._jacobi_cross(Hb, Ha, i, j, k)
            assert B == jacobi_triple_residual(H, i, j, k)
            zero = zero and B.is_zero()
        assert check_compatible([Ha, Hb]).passed == zero
        failing += not zero
    assert failing >= 10


def test_pairs_evaluate_only_their_cross_terms(monkeypatch):
    """check_compatible evaluates R only on each operator by itself: the
    residual of a pair's sum is never built."""
    ctx = Context(("u", "v"), ("c",))
    ops = [parse_operator(t, ctx) for t in COMPAT_POOL[:3]]
    calls = []
    original = brackets.jacobi_triple_residual

    def counted(H, i, j, k):
        calls.append(H)
        return original(H, i, j, k)

    monkeypatch.setattr(brackets, "jacobi_triple_residual", counted)
    check_compatible(ops)
    assert len(calls) == 3 * 6
    assert all(any(H is op for op in ops) for H in calls)


def test_check_symplectic(ctx1c):
    up, upp = ctx1c.gen(0, 1), ctx1c.gen(0, 2)
    u = ctx1c.gen(0)
    assert check_symplectic(MatrixDiffOp.derivative(ctx1c, 3)).passed
    assert check_symplectic(MatrixDiffOp.derivative(ctx1c, 5)).passed
    assert check_symplectic(
        MatrixDiffOp.single(ctx1c, [(0, up), (1, u.scale(2))])
    ).passed
    assert check_symplectic(
        MatrixDiffOp.single(ctx1c, [(0, upp), (1, up.scale(2))])
    ).passed
    rep = check_symplectic(MatrixDiffOp.derivative(ctx1c, 2))
    assert not rep.passed and rep.failures[0].kind == "skew"


def test_sokolov_dorfman_two_forms(ctx1):
    up = ctx1.gen(0, 1)
    half = Fraction(1, 2)
    d = MatrixDiffOp.derivative(ctx1)
    inv = MatrixDiffOp(ctx1, [[up ** -1]])
    S = two_form_from_potential(((up ** -1).scale(-half),))
    assert S == inv.compose(d).compose(inv)
    assert check_symplectic(S).passed
    G = ((up ** -1).scale(-half).total_derivative(2),)
    SG = two_form_from_potential(G)
    assert SG == d.compose(inv).compose(d).compose(inv).compose(d)
    assert check_symplectic(SG).passed


def test_two_form_of_gradient_vanishes(ctx2):
    rng = random.Random(59)
    for _ in range(25):
        f = rand_expr(rng, ctx2, fancy_exps=True)
        assert two_form_from_potential(variational_derivative(f)).is_zero()


def test_hamiltonian_vector_field(ctx1c):
    H, K = kdv_pair(ctx1c)
    h2 = ctx1c.parse("1/2*u^3 + 1/2*c*u*u''")
    assert hamiltonian_vector_field(K, h2) == (ctx1c.parse("3*u*u' + c*u'''"),)
    assert hamiltonian_vector_field(H, h2) == (
        ctx1c.parse("15/2*u^2*u' + 10*c*u'*u'' + 5*c*u*u''' + c^2*u^(5)"),
    )
    assert vec_is_zero(hamiltonian_vector_field(H, ctx1c.num(3)))


def test_evolutionary_commutator(ctx1c):
    up = ctx1c.gen(0, 1)
    assert vec_is_zero(evolutionary_commutator((up,), (up,)))
    kdvflow = ctx1c.parse("3*u*u' + c*u'''")
    assert vec_is_zero(evolutionary_commutator((up,), (kdvflow,)))
    # spatial translation acts as the total derivative on any vector
    rng = random.Random(61)
    for _ in range(15):
        Q = rand_vector(rng, ctx1c, nterms=2, nfactors=2, max_order=3)
        assert vec_is_zero(evolutionary_commutator((up,), Q))


def test_skew_commutativity_iff_skew_adjoint(ctx1c):
    rng = random.Random(67)
    H, _ = kdv_pair(ctx1c)
    up = ctx1c.gen(0, 1)
    not_skew = MatrixDiffOp.single(ctx1c, [(0, up), (1, ctx1c.gen(0))])
    assert not (not_skew.adjoint() + not_skew).is_zero()
    hit = False
    for _ in range(15):
        f = rand_expr(rng, ctx1c, nterms=2, nfactors=2, max_order=2)
        g = rand_expr(rng, ctx1c, nterms=2, nfactors=2, max_order=2)
        assert lambda_bracket(H, f, g) == skew_image(lambda_bracket(H, g, f))
        if lambda_bracket(not_skew, f, g) != skew_image(lambda_bracket(not_skew, g, f)):
            hit = True
    assert hit


def test_operator_jacobi_residual_cross_validation(ctx1c):
    rng = random.Random(71)
    H, _ = kdv_pair(ctx1c)
    upp, up = ctx1c.gen(0, 2), ctx1c.gen(0, 1)
    bad = MatrixDiffOp.single(ctx1c, [(0, upp), (1, up.scale(2))])
    saw_bad = False
    for _ in range(12):
        F = rand_vector(rng, ctx1c, nterms=1, nfactors=2, max_order=2)
        G = rand_vector(rng, ctx1c, nterms=1, nfactors=2, max_order=2)
        assert vec_is_zero(jacobi_operator_residual(H, F, G))
        if not vec_is_zero(jacobi_operator_residual(bad, F, G)):
            saw_bad = True
    assert saw_bad


def test_functional_bracket_antisymmetric_for_skew(ctx1c):
    rng = random.Random(79)
    H, _ = kdv_pair(ctx1c)
    for _ in range(12):
        f = rand_expr(rng, ctx1c, nterms=2, nfactors=2, max_order=2)
        g = rand_expr(rng, ctx1c, nterms=2, nfactors=2, max_order=2)
        total = functional_bracket(H, f, g) + functional_bracket(H, g, f)
        assert total.is_zero()


def test_check_report_json(ctx1c):
    rep = check_pva(MatrixDiffOp.derivative(ctx1c, 2))
    data = rep.to_json()
    assert data["passed"] is False
    assert data["failures"][0]["residual_text"]
    assert "triple" in data["failures"][0]


# two-variable operators over QQ(c), or their skew parts A - A^*: passing,
# failing the skew test, and failing on triples, mirrored ones (i > j)
# among them; with the triples each check reports, in product order
_NOT_SKEW = "u*d, v*d; v*d + v', u*d"
_TRIPLES = [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
_CASES = [
    ("0, u*d; u*d + u', 0", False, [], []),
    (_NOT_SKEW, False, [None], [None]),
    (
        _NOT_SKEW,
        True,
        [(1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1)],
        _TRIPLES,
    ),
    ("c*d^3 + 2*u*d + u', v*d; v*d + v', 0", False, [], _TRIPLES),
]


@pytest.mark.parametrize("text, skew_part, pva, symplectic", _CASES)
def test_check_reports_match_reference(text, skew_part, pva, symplectic):
    A = parse_operator(text, Context(("u", "v"), ("c",)))
    H = A - A.adjoint() if skew_part else A
    for check, ref, triples in (
        (check_pva, reference.check_pva, pva),
        (check_symplectic, reference.check_symplectic, symplectic),
    ):
        got = check(H).to_json()
        assert got == ref(H).to_json()
        assert [f["triple"] for f in got["failures"]] == triples


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize(
    "name, check",
    [("jacobi_triple_residual", check_pva), ("symplectic_triple_residual", check_symplectic)],
)
def test_mirrored_triples_are_not_evaluated(nvars, name, check, monkeypatch):
    """A skew operator gets N^2 (N + 1) / 2 residuals, those with i <= j;
    one that fails the skew test gets none."""
    ctx = Context(("u", "v", "w")[:nvars])
    calls = []
    original = getattr(brackets, name)

    def counted(H, i, j, k):
        calls.append((i, j, k))
        return original(H, i, j, k)

    monkeypatch.setattr(brackets, name, counted)
    assert check(MatrixDiffOp.derivative(ctx, 1, nvars)).passed
    assert len(calls) == nvars**2 * (nvars + 1) // 2
    assert all(i <= j for i, j, _ in calls)
    calls.clear()
    assert not check(MatrixDiffOp.identity(ctx)).passed
    assert calls == []


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("check", [check_pva, check_symplectic])
def test_diagonal_first_term_is_lifted_once(nvars, check, monkeypatch):
    """Both triple residuals lift T_ij and T_ji for i < j and T_ii once:
    N^2 (N - 1) + N^2 = N^3 lifts for a skew operator."""
    ctx = Context(("u", "v", "w")[:nvars])
    calls = []
    original = brackets._lift

    def counted(x, bracket):
        calls.append(x)
        return original(x, bracket)

    monkeypatch.setattr(brackets, "_lift", counted)
    assert check(MatrixDiffOp.derivative(ctx, 1, nvars)).passed
    assert len(calls) == nvars**3


@pytest.mark.parametrize("size", [1, 3])
def test_operator_must_be_nvars_square(ctx2, size):
    """A 3 x 3 operator in two variables used to pass (its third row and
    column were never read), a 1 x 1 one raised IndexError."""
    op = MatrixDiffOp.derivative(ctx2, 1, size)
    for check in (check_pva, check_symplectic, lambda H: check_compatible([H])):
        with pytest.raises(ValueError, match="expected 2 x 2"):
            check(op)
    with pytest.raises(ValueError, match="expected 2 x 2"):
        lambda_bracket(op, ctx2.gen(0), ctx2.gen(1))
