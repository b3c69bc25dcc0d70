import json
from fractions import Fraction

import pytest

from pvakit import PvakitError, functional_equal, parse_expression, parse_operator
from pvakit.algebra import vec_is_zero
from pvakit.hierarchies import (
    FAMILIES,
    HierarchySpec,
    _Binding,
    generate,
    golden_verify,
)
from pvakit.lenard import _dirac_J
from pvakit.varcalc import variational_derivative

import reference


@pytest.mark.parametrize("name", list(FAMILIES))
def test_golden_all(name):
    report = golden_verify(HierarchySpec(name))
    assert report.passed, report.to_json()


def _rank(rows):
    """Rank of a list of coefficient vectors (numbers and Coefficients) by
    Gaussian elimination over the coefficient field."""
    rows = [list(r) for r in rows]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] == 0:
                continue
            factor = Fraction(1) * rows[r][col] / lead  # int / int is a float
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


@pytest.mark.parametrize("name", list(FAMILIES))
def test_densities_linearly_independent(name):
    rec = generate(HierarchySpec(name))
    hs = [s.h.rep for s in rec.steps if s.h is not None and not s.h.rep.is_zero()]
    assert hs
    monomials = sorted({m for h in hs for m in h.terms}, reverse=True)
    zero = hs[0].ctx.zero().constant_coefficient()
    rows = [[h.terms.get(m, zero) for m in monomials] for h in hs]
    assert _rank(rows) == len(hs)


def test_dispersionless_closed_form():
    rec = generate(HierarchySpec("dispersionless_kdv", depth=8))
    ctx = rec.steps[0].F[0].ctx
    u = ctx.gen(0)
    df = 1
    fact = 1
    for n in range(9):
        if n:
            df *= 2 * n - 1
            fact *= n
        assert rec.step(n).F == ((u ** n).scale(Fraction(df, fact)),)
        want_h = (u ** (n + 1)).scale(Fraction(df, fact * (n + 1)))
        assert functional_equal(rec.step(n).h.rep, want_h)


def test_linear_closed_form():
    rec = generate(HierarchySpec("linear_kdv", depth=9))
    ctx = rec.steps[0].F[0].ctx
    for step in rec.steps:
        n = step.n - 1
        assert step.F == (ctx.gen(0, 2 * n),)
        want = (ctx.gen(0, n) ** 2).scale(Fraction((-1) ** n, 2))
        assert functional_equal(step.h.rep, want)


def test_hd_closed_form_alpha_one():
    rec = generate(HierarchySpec("hd", {"alpha": 1, "beta": 0}, depth=5))
    ctx = rec.steps[0].F[0].ctx
    u = ctx.gen(0)
    for n in range(6):
        num = 1
        for k in range(1, n + 1):
            num *= 2 * k - 1
        den = 2 ** n
        for k in range(1, n + 1):
            den *= 2 * k
        want = (u ** (Fraction(-1, 2) - n)).scale(Fraction(num, den))
        assert rec.step(n).F == (want,)
    assert functional_equal(rec.step(0).h.rep, (u ** Fraction(1, 2)).scale(2))


def test_hd_degree_law():
    rec = generate(HierarchySpec("hd", depth=3))
    for s in rec.steps:
        (f,) = s.F
        assert [d for d, _ in f.degree_components()] == [Fraction(-2 * s.n - 1, 2)]


def test_cnw_hd_alpha_zero_terminates():
    rec = generate(HierarchySpec("cnw_hd", {"alpha": 0, "beta": None}, depth=4))
    ctx = rec.steps[0].F[0].ctx
    v = ctx.gen(1)
    vp, vpp = ctx.gen(1, 1), ctx.gen(1, 2)
    c = ctx.param("c")
    want2 = (
        ctx.zero(),
        c * (vp ** 2 * v ** -4).scale(Fraction(3, 2)) - c * (vpp * v ** -3),
    )
    assert rec.step(2).F == want2
    assert vec_is_zero(rec.step(3).F)
    assert vec_is_zero(rec.step(4).F)
    assert rec.verification.passed()


def test_nls_structure_is_polynomial():
    rec = generate(HierarchySpec("nls", depth=4))
    for s in rec.steps:
        for f in s.F:
            assert f.is_polynomial() or f.is_zero()
        for f in s.flow:
            assert f.is_polynomial() or f.is_zero()
        if s.h is not None:
            assert variational_derivative(s.h.rep) == tuple(s.F)


@pytest.mark.parametrize("depth", range(1, 9))
def test_nls_pair_matches_coupled_recursion(depth):
    """The Dirac pair run through lenard_extend gives the gradients, flows
    and densities of the coupled recursion for (f_n, g_n)."""
    rec = generate(HierarchySpec("nls", depth=depth))
    J = parse_operator("0, -1; 1, 0", rec.steps[0].F[0].ctx)
    want = reference._nls_steps(J, depth)
    assert [s.n for s in rec.steps] == [s.n for s in want]
    for got, ref in zip(rec.steps, want):
        assert got.F == ref.F
        assert got.flow == ref.flow
        assert got.h == ref.h


def test_nls_pair_is_isotropic():
    """J is skew, so its graph is isotropic, and K^* H + H^* K = 0 makes
    L_{H,K} isotropic."""
    fam = FAMILIES["nls"]
    read = _Binding(fam, {})
    H, K = read.operator(fam.H), read.operator(fam.K)
    J = _dirac_J(read.ctx)
    assert J == parse_operator("0, -1; 1, 0", read.ctx)
    assert (J.adjoint() + J).is_zero()
    assert (K.adjoint().compose(H) + H.adjoint().compose(K)).is_zero()


def test_record_json_deterministic():
    a = generate(HierarchySpec("kdv", depth=2)).to_json()
    b = generate(HierarchySpec("kdv", depth=2)).to_json()
    assert a == b
    data = json.loads(json.dumps(a))
    assert data["name"] == "kdv"
    assert data["params"] == {"c": "c"}
    assert [s["n"] for s in data["steps"]] == [0, 1, 2]


def test_spec_validation():
    with pytest.raises(PvakitError):
        HierarchySpec("whatever").normalized()
    with pytest.raises(PvakitError):
        HierarchySpec("kdv", {"zeta": 1}).normalized()
    with pytest.raises(PvakitError):
        HierarchySpec("cnw_hd", {"c": 1, "alpha": 1}).normalized()
    with pytest.raises(PvakitError):
        HierarchySpec("kdv", depth=0).normalized()
    spec = HierarchySpec("cnw_hd", {"c": Fraction(2)}).normalized()
    assert spec.params == {"alpha": Fraction(1), "beta": Fraction(2)}


def test_bound_parameter_matches_symbolic_limit():
    bound = generate(HierarchySpec("kdv", {"c": Fraction(0)}, depth=3))
    free = generate(HierarchySpec("dispersionless_kdv", depth=3))
    for n in range(4):
        assert [f.render() for f in bound.step(n).F] == [
            f.render() for f in free.step(n).F
        ]


@pytest.mark.parametrize("name", ["kdv", "cnw", "pkdv"])
@pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 2), Fraction(-3), Fraction(7, 5)])
def test_substituting_c_commutes_with_generation(name, q):
    """Each value of the free record, rendered and read back with c bound
    to q, is the bound record's value."""
    free = generate(HierarchySpec(name))
    bound = generate(HierarchySpec(name, {"c": q}))
    ctx = bound.steps[0].F[0].ctx
    assert ctx.params == ()

    def read(f):
        return parse_expression(f.render(), ctx, {"c": ctx.num(q)})

    for a, b in zip(free.steps, bound.steps):
        assert tuple(read(f) for f in a.F) == b.F
        assert tuple(read(f) for f in a.flow) == b.flow
        assert functional_equal(read(a.h.rep), b.h.rep)


def test_golden_verify_checks_the_given_record():
    spec = HierarchySpec("kdv")
    rec = generate(spec)
    assert golden_verify(spec, rec).passed
    step = rec.step(2)
    step.h = step.h + step.h
    report = golden_verify(spec, rec)
    assert [f.triple for f in report.failures] == [(2, "h")]


@pytest.mark.parametrize("n, part, detail", [
    (2, "F", """want ["c*u'' + 3/2*u^2"], got ["2*c*u'' + 3*u^2"]"""),
    (1, "flow", """want ["c*u''' + 3*u'*u"], got ["2*c*u''' + 6*u'*u"]"""),
], ids=["F", "flow"])
def test_golden_verify_reports_a_wrong_vector(n, part, detail):
    spec = HierarchySpec("kdv")
    rec = generate(spec)
    step = rec.step(n)
    setattr(step, part, tuple(x + x for x in getattr(step, part)))
    report = golden_verify(spec, rec)
    assert [(f.kind, f.triple, f.residual_text) for f in report.failures] == [
        ("golden", (n, part), detail)
    ]


def test_golden_verify_reports_a_failed_verification():
    spec = HierarchySpec("kdv")
    rec = generate(spec)
    rec.verification.chain = False
    report = golden_verify(spec, rec)
    assert [(f.kind, f.triple) for f in report.failures] == [("verification", None)]


def test_golden_requires_reference_bindings():
    """Reference values hold for every binding: kdv's at c = 1, and
    cnw_hd's at alpha = 0, where H is beta*d^3 (+) 0."""
    assert golden_verify(HierarchySpec("kdv", {"c": Fraction(1)})).passed
    assert golden_verify(HierarchySpec("cnw_hd", {"alpha": 0, "beta": None})).passed


# the paper's cnw_hd reference values at alpha = 1, term by term
_CNW_HD_AT_ALPHA_1 = (
    {
        2: (
            "-u*v^(-3)",
            "3/2*u^2*v^(-4) + 1/2*v^(-2) + 3/2*beta*v'^2*v^(-4)"
            " - beta*v''*v^(-3)",
        ),
    },
    {2: "-1/2*u^2*v^(-3) - 1/2*v^(-1) + 1/2*beta*v'^2*v^(-3)"},
    {
        1: (
            "-v'*v^(-2) - beta*v'''*v^(-2) + 6*beta*v''*v'*v^(-3)"
            " - 6*beta*v'^3*v^(-4)",
            "2*v'*v^(-3)*u - u'*v^(-2)",
        ),
        2: (
            "3*v'*v^(-4)*u - u'*v^(-3) + 3*beta*v'''*v^(-4)*u"
            " - beta*u'''*v^(-3) - 36*beta*v''*v'*v^(-5)*u"
            " + 9*beta*v''*u'*v^(-4) + 9*beta*u''*v'*v^(-4)"
            " + 60*beta*v'^3*v^(-6)*u - 36*beta*v'^2*u'*v^(-5)",
            "-v'*v^(-3) - 6*v'*v^(-5)*u^2 + 3*u'*v^(-4)*u"
            " - beta*v'''*v^(-3) + 6*beta*v''*v'*v^(-4)"
            " - 6*beta*v'^3*v^(-5)",
        ),
    },
)


def _cnw_hd_values(golden, alpha):
    """(n, part) -> the value of golden at alpha, with beta symbolic."""
    read = _Binding(FAMILIES["cnw_hd"], {"alpha": alpha, "beta": None})
    return {
        (n, part): read.expr(t) if part == "h" else read.vector(t)
        for part, texts in zip(("F", "h", "flow"), golden)
        for n, t in texts.items()
    }


def test_cnw_hd_reference_values_at_alpha_1_are_the_papers():
    """Read at alpha = 1, the cnw_hd reference values written for every
    alpha equal the paper's term by term; at alpha = 2 each value that
    carries alpha differs from the paper's text read there."""
    for alpha, same in ((Fraction(1), True), (Fraction(2), False)):
        new = _cnw_hd_values(FAMILIES["cnw_hd"].golden, alpha)
        old = _cnw_hd_values(_CNW_HD_AT_ALPHA_1, alpha)
        assert [new[k] == v for k, v in old.items()] == [same] * len(old)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_generated_content_render_round_trips(name):
    rec = generate(HierarchySpec(name))
    ctx = rec.steps[0].F[0].ctx
    for step in rec.steps:
        for f in list(step.F) + list(step.flow):
            assert ctx.parse(f.render()) == f
        if step.h is not None:
            assert ctx.parse(step.h.rep.render()) == step.h.rep
