"""Differential properties: the spliced derivations (total derivative,
partials, antiderivative) equal their factor-by-factor references in
reference.py and step exponents through the interned neighbours, the
Horner variational derivative and Euler operators equal their
slice-by-slice references, the Frechet entries, one partial per order
that f has, equal the scan of every order, the operator adjoint and composition, built
from one Leibniz step d o x = x' + x d, equal the binomial expansions in
reference.py (symbol keys in any order), an entry reads as its terms
summed and sorted as in reference.py, applies as sum_k a_k d^k and is the
bracket of two generators, the lambda-bracket is the symbol
of D_g o H o D_f^* and the generator bracket that of D_x o H,
certificate-first closedness and exactify agree
with the defect-first references, the symbol routines, nested brackets and
structure checks agree with their one-loop-per-rule references (the
two-variable read-off at lambda + mu with the iterated shift and the
binomial spread, and both triple residuals of a skew operator satisfy the
mirror identity the checks rely on), the lazy zero test agrees with the
certified comparison, rendered text parses back to what was rendered,
and parsed operator products are compositions."""

import copy
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pvakit import (
    BiLambdaPoly,
    Context,
    Expression,
    LambdaPoly,
    LocalFunctional,
    MatrixDiffOp,
    NotExact,
    OrderViolation,
    PvakitError,
    check_pva,
    check_symplectic,
    euler_operator,
    exactify,
    frechet,
    integrate_total,
    is_closed,
    jacobi_triple_residual,
    lambda_bracket,
    symplectic_triple_residual,
    variational_derivative,
)
from pvakit.algebra import _Exponent, _exp, _fill_pred, _fill_succ, mono_bump
from pvakit.brackets import (
    nested_bracket_composed,
    nested_bracket_left,
    nested_bracket_right,
)
from pvakit.fields import Coefficient, _norm
from pvakit.hierarchies import FAMILIES
from pvakit.parsing import parse_expression, parse_operator
from pvakit.varcalc import antiderivative, frechet_entry

import reference

CTXS = (Context(("u",), ("c",)), Context(("u", "v"), ("c",)))
CTXS3 = CTXS + (Context(("u", "v", "w"), ("c",)),)
EXPONENTS = (1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))

rationals = st.builds(
    Fraction,
    st.integers(-4, 4).filter(bool),
    st.integers(1, 3),
)


@st.composite
def coefficients(draw, ctx, fractions_of_c=False):
    """q, or q + r*c, or (q + r*c)/(c + k) when fractions_of_c."""
    n = len(ctx.params)
    c = _norm(draw(rationals))
    if draw(st.booleans()):
        c = c + Coefficient.parameter(0, n).scale(draw(rationals))
    if fractions_of_c and draw(st.booleans()):
        c = c / (Coefficient.parameter(0, n) + draw(rationals))
    return c


@st.composite
def expressions(draw, ctx, max_terms=3, max_order=3, fractions_of_c=False):
    """A sum of up to max_terms monomials with rational, negative and
    half-integer exponents and coefficients in QQ(c)."""
    total = ctx.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        term = ctx.coeff_expr(draw(coefficients(ctx, fractions_of_c)))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, ctx.nvars - 1))
            n = draw(st.integers(0, max_order))
            term = term * ctx.gen(i, n) ** draw(st.sampled_from(EXPONENTS))
        total = total + term
    return total


@st.composite
def entries(draw, ctx, fractions_of_c=False):
    return [
        (draw(st.integers(0, 3)), draw(expressions(ctx, 2, 2, fractions_of_c)))
        for _ in range(draw(st.integers(0, 2)))
    ]


@st.composite
def operators(draw, ctx):
    rows = [[draw(entries(ctx)) for _ in range(ctx.nvars)] for _ in range(ctx.nvars)]
    return MatrixDiffOp(ctx, rows)


contexts = st.sampled_from(CTXS)


STEP_EXPONENTS = (-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, Fraction(3, 2), 2)


@st.composite
def stepped_expressions(draw, ctx, coeffs=coefficients):
    """A sum of monomials with exponents in STEP_EXPONENTS, some holding
    u_i^(n+1)^(-1) * u_i^(n)^e, where the bump of u_i^(n) raises the
    exponent -1 to 0 (and with e = 1 also drops u_i^(n)); coeffs(ctx)
    draws the coefficients."""
    total = ctx.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = ctx.coeff_expr(draw(coeffs(ctx)))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, ctx.nvars - 1))
            n = draw(st.integers(0, 3))
            term = term * ctx.gen(i, n) ** draw(st.sampled_from(STEP_EXPONENTS))
        if draw(st.booleans()):
            i = draw(st.integers(0, ctx.nvars - 1))
            n = draw(st.integers(0, 2))
            e = draw(st.sampled_from(STEP_EXPONENTS))
            term = term * ctx.gen(i, n + 1) ** -1 * ctx.gen(i, n) ** e
        total = total + term
    return total


def _canonical(m):
    """Every exponent of m is an int or the interned _Exponent."""
    return all(e.__class__ is int or e is _exp(Fraction(e)) for _, e in m)


def _antiderivative_outcome(fn, f, i, n):
    try:
        return fn(f, i, n)
    except PvakitError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_spliced_derivations(data):
    """mono_bump, partial, total_derivative and antiderivative equal the
    references that rebuild each monomial and step by Fraction arithmetic."""
    ctx = data.draw(st.sampled_from(CTXS3))
    f = data.draw(stepped_expressions(ctx))
    for m in f.terms:
        for idx in range(len(m)):
            got = mono_bump(m, idx)
            assert got == reference.mono_bump(m, idx)
            assert _canonical(got)
    for times in (1, 2):
        got = f.total_derivative(times)
        assert got == reference.total_derivative(f, times)
        assert all(_canonical(m) for m in got.terms)
    for i in range(ctx.nvars):
        for n in range(5):
            got = f.partial(i, n)
            assert got == reference.partial(f, i, n)
            assert all(_canonical(m) for m in got.terms)
            got = _antiderivative_outcome(antiderivative, f, i, n)
            assert got == _antiderivative_outcome(reference.antiderivative, f, i, n)
            if isinstance(got, Expression):
                assert all(_canonical(m) for m in got.terms)


def test_bump_merges_to_zero_and_drops_unit_factor():
    ctx = Context(("u",))
    u, u1, u2, u3 = (ctx.gen(0, n) for n in range(4))
    f = u1 ** -1 * u2
    assert f.total_derivative() == reference.total_derivative(f)
    assert f.total_derivative() == u3 / u1 - u2 ** 2 / u1 ** 2
    g = u2 ** -1 * u1
    assert g.total_derivative() == reference.total_derivative(g)
    # the bump of u' meets u''^(-1): both factors vanish, leaving 1
    assert g.total_derivative() == ctx.one() - u1 * u3 / u2 ** 2
    assert mono_bump(next(iter(g.terms)), 1) == ()


def test_neighbours_are_interned():
    for x in (Fraction(-5, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(7, 2)):
        e = _exp(x)
        assert e.__class__ is _Exponent
        p = e._pred or _fill_pred(e)
        s = e._succ or _fill_succ(e)
        assert p is _exp(x - 1) and e._pred is p and p._succ is e
        assert s is _exp(x + 1) and e._succ is s and s._pred is e
    ctx = Context(("u",))
    half = Fraction(1, 2)
    (m,) = (ctx.gen(0, 1) ** half * ctx.gen(0, 0) ** half).terms
    (_, e0), (_, e1) = mono_bump(m, 1)
    assert e0 is _exp(Fraction(3, 2)) and e1 is _exp(-half)
    (m,) = (ctx.gen(0, 2) ** half).partial(0, 2).terms
    assert m[0][1] is _exp(-half)
    (m,) = antiderivative(ctx.gen(0, 2) ** half, 0, 2).terms
    assert m[0][1] is _exp(Fraction(3, 2))


def test_exponent_copy_and_pickle_round_trip():
    for x in (Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3)):
        e = _exp(x)
        _fill_pred(e), _fill_succ(e)
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        back = pickle.loads(pickle.dumps(e))
        assert back is e and back == x and hash(back) == hash(x)
        assert repr(e) == repr(x) and str(e) == str(x)
    ctx = Context(("u", "v"), ("c",))
    f = ctx.parse("c*u'^(1/2)*v^(-3/2) + u''^(-1/2)")
    (m,) = [m for m in f.terms if len(m) == 2]
    assert pickle.loads(pickle.dumps(m)) == m
    assert all(a is b for (_, a), (_, b) in zip(pickle.loads(pickle.dumps(m)), m))
    assert copy.deepcopy(f.terms) == f.terms


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_frechet_entry_visits_the_orders_f_has(data):
    """One partial per order of u_j in f equals the scan of every order up
    to the top with the zero slices dropped; orders up to 8 leave gaps."""
    ctx = data.draw(contexts)
    f = data.draw(expressions(ctx, max_order=8))
    j = data.draw(st.integers(0, ctx.nvars - 1))
    assert tuple(frechet_entry(f, j)) == reference.frechet_entry(f, j)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_horner_variational_derivative(data):
    f = data.draw(expressions(data.draw(contexts), max_order=8))
    assert variational_derivative(f) == reference.variational_derivative(f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chained_euler_operator(data):
    ctx = data.draw(contexts)
    f = data.draw(expressions(ctx, max_order=8))
    i = data.draw(st.integers(0, ctx.nvars - 1))
    m = data.draw(st.integers(0, 3))
    assert euler_operator(f, i, m) == reference.euler_operator(f, i, m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chained_adjoint(data):
    ctx = data.draw(contexts)
    op = data.draw(operators(ctx))
    n = ctx.nvars
    want = MatrixDiffOp(
        ctx,
        [[reference.entry_adjoint(op.entry(j, i)) for j in range(n)] for i in range(n)],
    )
    assert op.adjoint() == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chained_compose(data):
    ctx = data.draw(contexts)
    a = data.draw(operators(ctx))
    b = data.draw(operators(ctx))
    n = ctx.nvars
    want = MatrixDiffOp(
        ctx,
        [
            [
                [
                    item
                    for k in range(n)
                    for item in reference.entry_compose(a.entry(i, k), b.entry(k, j))
                ]
                for j in range(n)
            ]
            for i in range(n)
        ],
    )
    assert a.compose(b) == want


@st.composite
def raw_entries(draw, ctx):
    """Items of an entry as a row may give them: those of `entries`, some
    repeated or negated (like powers that add up or cancel) and some with
    a zero coefficient, shuffled."""
    items = draw(entries(ctx))
    if items:
        items += draw(st.lists(st.sampled_from(items), max_size=2))
        items += [(p, -a) for p, a in draw(st.lists(st.sampled_from(items), max_size=1))]
    items += [(draw(st.integers(0, 3)), ctx.zero()) for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(items))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_an_entry_is_its_terms_and_its_symbol(data):
    """An entry reads as its normalised terms in ascending power, applies
    as sum_k a_k d^k f, and is the lambda-bracket of two generators,
    {u_i lam u_j} = H_ji(lam)."""
    ctx = data.draw(contexts)
    items = data.draw(raw_entries(ctx))
    entry = MatrixDiffOp(ctx, [[items]]).entry(0, 0)
    assert tuple(entry) == reference.entry_norm(items)
    f = data.draw(expressions(ctx))
    want = ctx.zero()
    for p, a in items:
        want = want + a * reference.total_derivative(f, p)
    assert entry.apply(f) == want
    H = data.draw(operators(ctx))
    i, j = (data.draw(st.integers(0, ctx.nvars - 1)) for _ in range(2))
    assert lambda_bracket(H, ctx.gen(i), ctx.gen(j)) == H.entry(j, i)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_horner_lambda_bracket(data):
    ctx = data.draw(contexts)
    H = data.draw(operators(ctx))
    f = data.draw(expressions(ctx, 2))
    g = data.draw(expressions(ctx, 2))
    assert lambda_bracket(H, f, g) == reference.lambda_bracket(H, f, g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_brackets_are_symbols_of_compositions(data):
    """{f_lam g} is the symbol of D_g o H o D_f^*, and {u_i lam x} the
    symbol of column i of D_x o H."""
    ctx = data.draw(contexts)
    H = data.draw(operators(ctx))
    f = data.draw(expressions(ctx, 2))
    g = data.draw(expressions(ctx, 2))
    DgH = frechet((g,)).compose(H)
    want = DgH.compose(frechet((f,)).adjoint())
    assert lambda_bracket(H, f, g) == want.entry(0, 0)
    i = data.draw(st.integers(0, ctx.nvars - 1))
    assert lambda_bracket(H, ctx.gen(i), g) == DgH.entry(0, i)


def test_leibniz_step_is_linear_for_constant_coefficients(monkeypatch):
    """The Leibniz step stores no zero term, so the adjoint of d^p and the
    Hamiltonian check of d^p take at most p total derivatives, not
    p(p+1)/2."""
    calls = []
    total_derivative = Expression.total_derivative

    def counted(self, times=1):
        calls.append(times)
        return total_derivative(self, times)

    monkeypatch.setattr(Expression, "total_derivative", counted)
    ctx = CTXS[0]
    for p, skew in ((400, False), (401, True)):
        H = parse_operator("d^%d" % p, ctx)
        calls.clear()
        assert H.adjoint() == H.scale((-1) ** p)
        assert len(calls) <= p
        calls.clear()
        assert check_pva(H).passed == skew
        assert len(calls) <= p


def test_symbol_keys_in_any_order():
    """A symbol's coefficients arrive in dict order; each Leibniz step adds
    into both d^k and d^(k+1), so keys 2, 0, 1 meet at 1 and 2."""
    ctx = CTXS[0]
    u, u1 = ctx.gen(0), ctx.gen(0, 1)
    x = LambdaPoly(ctx, {2: u, 0: u * u, 1: u1})
    assert list(x.coeffs) != sorted(x.coeffs)
    items = list(x.coeffs.items())
    entry = ((1, u), (3, ctx.one()))
    want = MatrixDiffOp.single(ctx, reference.entry_compose(entry, items))
    assert x.op_apply(entry) == want.entry(0, 0)
    assert x.subst_neg_shift() == reference.subst_neg_shift(x)


@st.composite
def operator_triples(draw, ctxs, ops):
    """An operator drawn by ops over one of ctxs, and a generator triple."""
    ctx = draw(st.sampled_from(ctxs))
    H = draw(ops(ctx))
    return (H,) + tuple(draw(st.integers(0, ctx.nvars - 1)) for _ in range(3))


def _skew_part(text, ctx):
    A = parse_operator(text, ctx)
    return A - A.adjoint()


# skew operators in two and three variables and diagonal triples (i, i, k)
# on which the Jacobi, resp. the closedness, residual is nonzero
_SKEW2 = _skew_part("u*d, v*d; v*d + v', u*d", CTXS3[1])
_SKEW3 = _skew_part("u*d, w*d, 0; v, u*d, w*d; 0, v*d, w'", CTXS3[2])


@settings(max_examples=40, deadline=None)
@given(operator_triples(CTXS, operators))
@example((_SKEW2, 0, 0, 1))
@example((_SKEW3, 1, 1, 2))
def test_shared_loop_jacobi_residual(case):
    assert jacobi_triple_residual(*case) == reference.jacobi_triple_residual(*case)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_jacobi_residual_is_the_nested_bracket_identity(data):
    """R_ijk = {u_i lam {u_j mu u_k}} - {u_j mu {u_i lam u_k}}
    - {{u_i lam u_j} _(lam+mu) u_k}, with {u_j mu u_k} = H_kj(mu)."""
    ctx = data.draw(st.sampled_from(CTXS3))
    H = data.draw(structure_operators(ctx))
    i, j, k = (data.draw(st.integers(0, ctx.nvars - 1)) for _ in range(3))
    want = (
        nested_bracket_left(H, ctx.gen(i), H.entry(k, j))
        - nested_bracket_right(H, ctx.gen(j), H.entry(k, i))
        - nested_bracket_composed(H, H.entry(j, i), ctx.gen(k))
    )
    assert jacobi_triple_residual(H, i, j, k) == want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_partial_merges_no_terms(data):
    """d/du_i^(n) maps the terms holding u_i^(n) one to one: no two images
    meet and none cancels."""
    ctx = data.draw(st.sampled_from(CTXS3))
    f = data.draw(stepped_expressions(ctx))
    i = data.draw(st.integers(0, ctx.nvars - 1))
    n = data.draw(st.integers(0, 3))
    holding = [m for m in f.terms if any(g == (n, i) for g, _ in m)]
    assert len(f.partial(i, n).terms) == len(holding)


@st.composite
def lambda_polys(draw, ctx):
    keys = draw(st.sets(st.integers(0, 3), max_size=3))
    return LambdaPoly(ctx, {k: draw(expressions(ctx, 2, 2)) for k in keys})


@st.composite
def bilambda_polys(draw, ctx):
    keys = draw(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=3))
    return BiLambdaPoly(ctx, {k: draw(expressions(ctx, 2, 2)) for k in keys})


@st.composite
def structure_operators(draw, ctx, skew=None):
    """An operator with at most one term a*d^k per entry (k <= 2, a one
    product of powers of the u_i and u_i'), or its skew-adjoint part
    A - A^* so that the triple checks run past the skew test (always when
    skew, drawn when None); larger draws can take seconds per Jacobi
    check."""
    rows = [
        [
            [(draw(st.integers(0, 2)), draw(expressions(ctx, 1, 1)))
             for _ in range(draw(st.integers(0, 1)))]
            for _ in range(ctx.nvars)
        ]
        for _ in range(ctx.nvars)
    ]
    A = MatrixDiffOp(ctx, rows)
    if skew is None:
        skew = draw(st.booleans())
    return A - A.adjoint() if skew else A


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_symbols_run_on_entry_routines(data):
    ctx = data.draw(st.sampled_from(CTXS3))
    entry = MatrixDiffOp(ctx, [[data.draw(entries(ctx))]]).entry(0, 0)
    x = data.draw(lambda_polys(ctx))
    assert x.subst_neg_shift() == reference.subst_neg_shift(x)
    assert x.op_apply(entry) == reference.op_apply(x, entry)
    y = data.draw(bilambda_polys(ctx))
    n = data.draw(st.integers(0, 3))
    assert y.shift_both_neg(n) == reference.shift_both_neg(y, n)
    assert y.op_apply_both(entry) == reference.op_apply_both(y, entry)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multinomial_shift(data):
    """(s(lam+mu+d))^n read off at lam + mu equals n steps of
    (lam+mu+d), and so does an entry up to d^5 applied through it."""
    ctx = data.draw(st.sampled_from(CTXS3))
    y = data.draw(bilambda_polys(ctx))
    n = data.draw(st.integers(0, 6))
    assert y.shift_both_neg(n) == reference.shift(y, -1, n)
    entry = MatrixDiffOp(
        ctx,
        [[[(data.draw(st.integers(0, 5)), data.draw(expressions(ctx, 2, 2)))
           for _ in range(data.draw(st.integers(0, 3)))]]],
    ).entry(0, 0)
    assert y.op_apply_both(entry) == reference.op_apply_both(y, entry)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mirror_identity(data):
    """For skew-adjoint S both triple residuals satisfy
    R_ijk(lam, mu) = -R_jik(mu, lam), checked where R_ijk is nonzero."""
    ctx = data.draw(st.sampled_from(CTXS3))
    S = data.draw(structure_operators(ctx, skew=True))
    residual = data.draw(
        st.sampled_from([jacobi_triple_residual, symplectic_triple_residual])
    )
    i, j, k = (data.draw(st.integers(0, ctx.nvars - 1)) for _ in range(3))
    r = residual(S, i, j, k)
    assume(not r.is_zero())
    m = residual(S, j, i, k)
    assert r == BiLambdaPoly(ctx, {(b, a): -v for (a, b), v in m.coeffs.items()})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_lift_for_nested_brackets(data):
    ctx = data.draw(st.sampled_from(CTXS3))
    H = data.draw(structure_operators(ctx))
    f = data.draw(expressions(ctx, 2, 2))
    x = data.draw(lambda_polys(ctx))
    assert nested_bracket_left(H, f, x) == reference.nested_bracket_left(H, f, x)
    assert nested_bracket_right(H, f, x) == reference.nested_bracket_right(H, f, x)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_composed_bracket_reads_symbols_at_sum(data):
    """{x(lam)_{lam+mu} g} read off at lam + mu equals the binomial
    spread of every term."""
    ctx = data.draw(st.sampled_from(CTXS3))
    H = data.draw(structure_operators(ctx))
    x = data.draw(lambda_polys(ctx))
    g = data.draw(expressions(ctx, 2, 2))
    assert nested_bracket_composed(H, x, g) == reference.nested_bracket_composed(H, x, g)


@settings(max_examples=30, deadline=None)
@given(operator_triples(CTXS3, structure_operators))
@example((_SKEW2, 1, 1, 0))
@example((_SKEW3, 1, 1, 2))
def test_one_triple_checker(case):
    S = case[0]
    assert symplectic_triple_residual(*case) == reference.symplectic_triple_residual(
        *case
    )
    assert check_symplectic(S).to_json() == reference.check_symplectic(S).to_json()
    assert check_pva(S).to_json() == reference.check_pva(S).to_json()


# monomials of exponent-sum degree -1: u_k times one of them has degree 0
DEGREE_MINUS_ONE = (
    lambda ctx, i, n: ctx.gen(i, n) ** -1,
    lambda ctx, i, n: ctx.gen(i, n) ** -2 * ctx.gen(0, 1),
    lambda ctx, i, n: ctx.gen(i, n) ** Fraction(-3, 2) * ctx.gen(0, 0) ** Fraction(1, 2),
)


@st.composite
def closedness_inputs(draw):
    """delta f, alone or plus a random vector, a degree-zero part of u . F,
    or one component too many or too few."""
    ctx = draw(contexts)
    F = variational_derivative(draw(expressions(ctx, fractions_of_c=draw(st.booleans()))))
    kind = draw(st.sampled_from(["gradient", "noise", "degree_zero", "length"]))
    if kind == "noise":
        F = tuple(x + draw(expressions(ctx, 2)) for x in F)
    elif kind == "degree_zero":
        k = draw(st.integers(0, ctx.nvars - 1))
        mono = draw(st.sampled_from(DEGREE_MINUS_ONE))(
            ctx, draw(st.integers(0, ctx.nvars - 1)), draw(st.integers(0, 2))
        )
        term = ctx.coeff_expr(draw(coefficients(ctx))) * mono
        F = tuple(x + term if j == k else x for j, x in enumerate(F))
    elif kind == "length":
        if ctx.nvars == 1 or draw(st.booleans()):
            F = F + (draw(expressions(ctx, 2)),)
        else:
            F = F[:1]
    return F


def _outcome(fn, F):
    """fn(F), or the type and message of what it raised (ValueError for
    an operator size mismatch)."""
    try:
        return fn(F)
    except (PvakitError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(closedness_inputs())
def test_certified_is_closed(F):
    got, want = _outcome(is_closed, F), _outcome(reference.is_closed, F)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.closed == want.closed
        assert got.defect == want.defect


@settings(max_examples=60, deadline=None)
@given(closedness_inputs())
def test_certified_exactify(F):
    assert _outcome(exactify, F) == _outcome(reference.exactify, F)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lazy_zero_test_agrees_with_compare(data):
    """d = d(g) + q (+ a logarithmic derivative) (+ noise): the lazy test
    and compare agree, and without noise both read "q == 0"."""
    ctx = data.draw(contexts)
    g = data.draw(expressions(ctx, 2))
    if data.draw(st.booleans()):
        w = ctx.gen(data.draw(st.integers(0, ctx.nvars - 1)), data.draw(st.integers(0, 2)))
        g = g + w / w.total_derivative()
    q = data.draw(st.sampled_from([ctx.zero(), ctx.one(), ctx.param("c")]))
    d = g.total_derivative() + q
    if data.draw(st.booleans()):
        w = ctx.gen(data.draw(st.integers(0, ctx.nvars - 1)), data.draw(st.integers(0, 2)))
        d = d + w.total_derivative() / w
    noisy = data.draw(st.booleans())
    if noisy:
        d = d + data.draw(expressions(ctx, 1))
    lazy = LocalFunctional(d).is_zero()
    if not noisy:
        assert lazy == q.is_zero()
    try:
        certified = LocalFunctional(d).compare(LocalFunctional(ctx.zero()))
    except (NotExact, OrderViolation):
        return
    assert lazy == certified.equal
    if certified.strict:
        assert certified.antiderivative.total_derivative() == d


def _zero_tests(f, h, is_zero, compare, integrate):
    """The outcomes of the zero test of f, of the comparison of f + h with
    h, and of the integration of f, each a value or what it raised."""
    return (
        _outcome(is_zero, f),
        _outcome(lambda d: compare(d + h, h), f),
        _outcome(integrate, f),
    )


def _agree_with_reference(f, h):
    got = _zero_tests(
        f,
        h,
        lambda f: LocalFunctional(f).is_zero(),
        lambda a, b: LocalFunctional(a).compare(LocalFunctional(b)),
        integrate_total,
    )
    want = _zero_tests(
        f,
        h,
        reference.functional_is_zero,
        reference.functional_compare,
        reference.integrate_total,
    )
    assert got == want


# a log stall, slices nonlinear in the top derivative (OrderViolation),
# an undifferentiated stall, d(u/u') with its constant 1, 1 - d(u/u'),
# and a log stall beside d(u/u')
STALLS = (
    "0",
    "u'/u",
    "u''/u'",
    "u'^2",
    "u'*v'",
    "u",
    "1 - u*u''/u'^2",
    "u*u''/u'^2",
    "c*u^2*u'' + u'^(1/2) + 1 - u*u''/u'^2",
    "u'/u + 1 - u*u''/u'^2",
)


@pytest.mark.parametrize("text", STALLS)
def test_zero_tests_match_reference_on_stalls(text):
    ctx = CTXS[1]
    f = ctx.parse(text)
    _agree_with_reference(f, ctx.zero())
    _agree_with_reference(f, ctx.parse("u^2*v'"))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_descent_first_zero_tests_match_reference(data):
    """f = stall + d(g) + q + noise, each part optional: the descent-first
    is_zero, compare and integrate_total give the delta-first values, or
    raise the same error with the same message."""
    ctx = data.draw(contexts)
    f = ctx.parse(data.draw(st.sampled_from(STALLS)).replace("v", ctx.var_names[-1]))
    if data.draw(st.booleans()):
        f = f + data.draw(expressions(ctx, 2)).total_derivative()
    f = f + data.draw(st.sampled_from([ctx.zero(), ctx.one(), ctx.param("c")]))
    if data.draw(st.booleans()):
        f = f + data.draw(expressions(ctx, 1))
    _agree_with_reference(f, data.draw(expressions(ctx, 2)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_render_parses_back(data):
    ctx = data.draw(contexts)
    e = data.draw(expressions(ctx, fractions_of_c=True))
    assert ctx.parse(e.render()) == e


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_render_entry_parses_back(data):
    ctx = data.draw(contexts)
    op = MatrixDiffOp(ctx, [[data.draw(entries(ctx, fractions_of_c=True))]])
    assert parse_operator(op.render_entry(0, 0), ctx).entry(0, 0) == op.entry(0, 0)


@st.composite
def entry_texts(draw, ctx):
    return MatrixDiffOp(ctx, [[draw(entries(ctx, fractions_of_c=True))]]).render_entry(0, 0)


@settings(max_examples=60, deadline=None)
@given(entry_texts(CTXS[1]), entry_texts(CTXS[1]), st.integers(0, 3))
@example("2*d", "2*d", 2)
@example("u*d", "d", 2)
@example("d", "u*d", 1)
@example("d", "2*d", 0)
def test_parsed_products_are_compositions(a, b, k):
    """Parsed (A)*(B), (A)^k, (A) - (B) and -(A) equal compose, repeated
    compose, - and scale(-1) of the parsed parts.  The examples hold the
    texts that parsed wrong when a product multiplied coefficients and
    d-powers apart: (2*d)^2, (u*d)^2, d*(u*d), d*(2*d) and (u*d)*d."""
    ctx = CTXS[1]
    A, B = parse_operator(a, ctx), parse_operator(b, ctx)
    power = MatrixDiffOp.identity(ctx, 1)
    for _ in range(k):
        power = power.compose(A)
    assert parse_operator("(%s)*(%s)" % (a, b), ctx) == A.compose(B)
    assert parse_operator("(%s)^%d" % (a, k), ctx) == power
    assert parse_operator("(%s) - (%s)" % (a, b), ctx) == A - B
    assert parse_operator("-(%s)" % a, ctx) == A.scale(-1)


@st.composite
def small_entry_texts(draw, ctx):
    """An entry of at most two terms q*g^e*d^p: q a rational or q + r*c, g
    one or a generator of order at most 1, e and p at most 2.  Its 7th
    power stays small, where that of an entry_texts entry can run to
    millions of characters."""
    factors = [ctx.one()] + [ctx.gen(i, n) for i in range(ctx.nvars) for n in (0, 1)]
    terms = []
    for _ in range(draw(st.integers(0, 2))):
        f = draw(st.sampled_from(factors)) ** draw(st.integers(1, 2))
        q = ctx.coeff_expr(draw(coefficients(ctx)))
        terms.append((draw(st.integers(0, 2)), q * f))
    return MatrixDiffOp(ctx, [[terms]]).render_entry(0, 0)


@settings(max_examples=60, deadline=None)
@given(small_entry_texts(CTXS[1]), st.integers(0, 7))
@example("u*d + v", 7)
@example("u'*d^2 - 2*u", 6)
@example("(c + 1)*d + u", 5)
def test_parsed_powers_are_repeated_compositions(a, k):
    """A parsed (A)^k, taken by square and multiply, equals A composed
    with itself k times, for k with several bits set."""
    ctx = CTXS[1]
    A = parse_operator(a, ctx)
    power = MatrixDiffOp.identity(ctx, 1)
    for _ in range(k):
        power = power.compose(A)
    assert parse_operator("(%s)^%d" % (a, k), ctx) == power


def signed_coefficients(ctx):
    """-1, 1, or a coefficient that may be a sum in c or sit over c + k."""
    return st.one_of(st.sampled_from([-1, 1]), coefficients(ctx, fractions_of_c=True))


# a unit coefficient written out in front of a power of d, lambda or mu
UNIT_FACTOR = re.compile(r"(?<![\d/^])1\*(d|lam|mu)")


def _assert_signed_text(text):
    assert "+ -" not in text and not UNIT_FACTOR.search(text), text


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rendered_sums_parse_back_without_plus_minus(data):
    """Expressions and 1x1 and 2x2 operators with unit, parametric-sum and
    non-constant-denominator coefficients parse back to themselves, and
    neither they nor the lambda- and lambda/mu-symbols of the same
    coefficients print "+ -" or a unit coefficient before d, lam or mu."""
    ctx = data.draw(contexts)
    exprs = [data.draw(stepped_expressions(ctx, signed_coefficients)) for _ in range(4)]
    powers = data.draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    for e in exprs:
        text = e.render()
        _assert_signed_text(text)
        assert parse_expression(text, ctx) == e
    items = list(zip(powers, exprs))
    ops = [
        MatrixDiffOp(ctx, [[items[:2]]]),
        MatrixDiffOp(ctx, [[[items[0]], [items[1]]], [[items[2]], items[2:]]]),
    ]
    for op in ops:
        text = op.render()
        _assert_signed_text(text)
        assert parse_operator(text, ctx) == op
    _assert_signed_text(LambdaPoly(ctx, dict(items)).render())
    bi = {(p, q): e for p, q, e in zip(powers, reversed(powers), exprs)}
    _assert_signed_text(BiLambdaPoly(ctx, bi).render())


def test_render_keeps_parentheses_of_sums(ctx1c):
    e = ctx1c.parse("(8/3 - 8*c)*u^2")
    assert e.render() == "(-8*c + 8/3)*u^2"
    op = parse_operator("(c + 1/2)*d^3", ctx1c)
    assert op.render_entry(0, 0) == "(c + 1/2)*d^3"


def test_render_entry_writes_negative_terms_as_minus():
    ctx = Context(("u",), ("c",))
    H = parse_operator(FAMILIES["kn"].H, ctx)
    text = H.render()
    assert "+ -" not in text
    assert text == (
        "(-u'''*u'^(-3) + 3*u''^2*u'^(-4))*d - 3*u''*u'^(-3)*d^2 + u'^(-2)*d^3"
    )
    assert parse_operator(text, ctx) == H
