import os
import random
import subprocess
import sys
from fractions import Fraction

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest

import pvakit
from pvakit import (
    Context,
    LocalFunctional,
    LogRequired,
    NotClosed,
    NotExact,
    OrderViolation,
    antiderivative,
    euler_operator,
    exactify,
    frechet,
    functional_equal,
    integrate_total,
    is_closed,
    variational_derivative,
)
from pvakit.algebra import vec_is_zero
from pvakit.operators import MatrixDiffOp
from pvakit.varcalc import FunctionalComparison, _exactify_inductive

import reference
from conftest import rand_expr


def test_variational_derivative_examples(ctx1c):
    f = ctx1c.parse("1/2*u^3 + 1/2*c*u*u''")
    (vd,) = variational_derivative(f)
    assert vd == ctx1c.parse("3/2*u^2 + c*u''")
    g = ctx1c.parse("u^2*u'")
    assert vec_is_zero(variational_derivative(g.total_derivative()))
    h = ctx1c.parse("1/2*u*u^(4)")
    assert variational_derivative(h) == (ctx1c.gen(0, 4),)


def test_variational_derivative_kills_derivatives(ctx3):
    rng = random.Random(23)
    for _ in range(40):
        f = rand_expr(rng, ctx3, fancy_exps=True)
        assert vec_is_zero(variational_derivative(f.total_derivative()))


def test_euler_operators(ctx1):
    u = ctx1.gen(0)
    f = u * ctx1.gen(0, 2)
    assert euler_operator(f, 0, 0) == variational_derivative(f)[0]
    assert euler_operator(f, 0, 0) == ctx1.gen(0, 2).scale(2)
    assert euler_operator(f, 0, 2) == u
    assert euler_operator(ctx1.num(5), 0, 1).is_zero()


def test_frechet_examples(ctx1):
    up = ctx1.gen(0, 1)
    assert frechet((ctx1.gen(0, 2),)) == MatrixDiffOp.derivative(ctx1, 2)
    # first variation of -1/(2 u') and its skew defect
    F = ((up ** -1).scale(Fraction(-1, 2)),)
    D = frechet(F)
    assert D == MatrixDiffOp.single(ctx1, [(1, (up ** -2).scale(Fraction(1, 2)))])
    defect = D - frechet(F).adjoint()
    inv = MatrixDiffOp(ctx1, [[up ** -1]])
    assert defect == inv.compose(MatrixDiffOp.derivative(ctx1)).compose(inv)
    # exact vectors have self-adjoint first variation
    G = variational_derivative(ctx1.gen(0) * ctx1.gen(0, 2))
    assert G == (ctx1.gen(0, 2).scale(2),)
    assert frechet(G) == frechet(G).adjoint()


def test_is_closed(ctx1, ctx3):
    F = (ctx3.gen(2, 1), -ctx3.gen(1, 2), -ctx3.gen(0, 1))
    assert is_closed(F).closed
    assert is_closed((ctx1.gen(0),)).closed
    rep = is_closed((ctx1.gen(0, 1),))
    assert not rep.closed
    assert rep.defect == MatrixDiffOp.derivative(ctx1).scale(2)


def test_antiderivative(ctx1):
    u = ctx1.gen(0)
    up, upp = ctx1.gen(0, 1), ctx1.gen(0, 2)
    assert antiderivative(upp, 0, 2) == (upp ** 2).scale(Fraction(1, 2))
    assert antiderivative(u * up * up, 0, 1) == (u * up ** 3).scale(Fraction(1, 3))
    with pytest.raises(LogRequired):
        antiderivative(u ** -1, 0, 0)
    with pytest.raises(OrderViolation):
        antiderivative(upp, 0, 1)


def test_integrate_total(ctx1):
    u = ctx1.gen(0)
    up, upp, u3 = ctx1.gen(0, 1), ctx1.gen(0, 2), ctx1.gen(0, 3)
    g, c = integrate_total(u * up)
    assert g == (u ** 2).scale(Fraction(1, 2)) and c == 0
    g, c = integrate_total(up * upp + u * u3)
    assert g == u * upp and c == 0
    g, c = integrate_total(u * up + ctx1.num(4))
    assert g == (u ** 2).scale(Fraction(1, 2)) and c == 4 and type(c) is int
    with pytest.raises(NotExact):
        integrate_total(u)
    with pytest.raises(LogRequired):
        integrate_total(up / u)


def test_integrate_round_trip(ctx2):
    rng = random.Random(29)
    for _ in range(60):
        g = rand_expr(rng, ctx2, fancy_exps=True)
        g2, c = integrate_total(g.total_derivative())
        assert c == 0
        assert (g2 - g).is_constant()


def test_exactify_shortcut(ctx3, ctx1c):
    F = (ctx3.gen(2, 1), -ctx3.gen(1, 2), -ctx3.gen(0, 1))
    f = exactify(F)
    u1, u2, u3 = (ctx3.gen(i) for i in range(3))
    assert f == (u1 * ctx3.gen(2, 1) - u2 * ctx3.gen(1, 2) - u3 * ctx3.gen(0, 1)).scale(
        Fraction(1, 2)
    )
    # second-order gradient with parameter
    F2 = (ctx1c.parse("3/2*u^2 + c*u''"),)
    f2 = exactify(F2)
    assert functional_equal(f2, ctx1c.parse("1/2*u^3 + 1/2*c*u*u''"))
    # fractional power
    ctx = Context(("u",))
    F3 = (ctx.gen(0) ** Fraction(-1, 2),)
    assert exactify(F3) == (ctx.gen(0) ** Fraction(1, 2)).scale(2)


def test_exactify_inductive_localized():
    # four-variable closed vector whose grading pairing vanishes, solved by
    # the double-antiderivative descent
    ctx = Context(("u_1", "u_2", "u_3", "u_4"))
    u1 = ctx.gen(0)
    u1p, u2p, u2pp, u3p, u4p = (
        ctx.gen(0, 1),
        ctx.gen(1, 1),
        ctx.gen(1, 2),
        ctx.gen(2, 1),
        ctx.gen(3, 1),
    )
    i4 = ctx.gen(3) ** -1
    F = (
        (i4 ** 2) * u3p,
        (i4 ** 3 * u2p * u4p).scale(2) - (i4 ** 2) * u2pp,
        (i4 ** 3 * u1 * u4p).scale(2) - (i4 ** 2) * u1p,
        -(i4 ** 3 * u1 * u3p).scale(2) - (i4 ** 3) * u2p * u2p,
    )
    assert is_closed(F).closed
    # the grading shortcut does not apply here
    w = ctx.zero()
    for i, fi in enumerate(F):
        w = w + ctx.gen(i) * fi
    assert [d for d, _ in w.degree_components()] == [0]
    f = exactify(F)
    assert variational_derivative(f) == F
    want = (i4 ** 2 * u2p * u2p).scale(Fraction(1, 2)) + (i4 ** 2) * u1 * u3p
    assert functional_equal(f, want)


def test_exactify_errors_and_degenerate(ctx1):
    with pytest.raises(NotClosed):
        exactify((ctx1.gen(0, 1),))
    assert exactify((ctx1.zero(),)).is_zero()


def test_closedness_when_the_inductive_algorithm_stalls(ctx1):
    """The inductive algorithm certifies closedness when it returns; when
    it raises, the defect decides.  u^(-1) is closed, but its potential
    needs log u; u' and 1/u'' are not closed, and the algorithm stops on
    them with NotClosed and OrderViolation."""
    F = (ctx1.parse("u^(-1)"),)
    with pytest.raises(LogRequired):
        _exactify_inductive(F)
    rep = is_closed(F)
    assert rep.closed and rep.defect == MatrixDiffOp.zero(ctx1)
    with pytest.raises(LogRequired, match=r"^term u\^\(-1\) needs a logarithm in u$"):
        exactify(F)
    for text, stall, defect in (
        ("u'", NotClosed, "2*d"),
        ("u''^(-1)", OrderViolation,
         "-2*u^(4)*u''^(-3) + 6*u'''^2*u''^(-4) - 4*u'''*u''^(-3)*d"),
    ):
        F = (ctx1.parse(text),)
        with pytest.raises(stall):
            _exactify_inductive(F)
        rep = is_closed(F)
        assert not rep.closed and rep.defect.render() == defect
        with pytest.raises(NotClosed) as info:
            exactify(F)
        assert str(info.value) == "defect operator: " + defect


def test_closedness_of_a_vector_of_the_wrong_length(ctx1, ctx2):
    """A vector of a length other than nvars goes to the defect, which
    refuses it as the reference does, although the inductive algorithm
    would rebuild the components it sees."""
    for F in ((ctx2.gen(0),), (ctx1.gen(0), ctx1.gen(0, 2))):
        with pytest.raises(ValueError) as want:
            reference.is_closed(F)
        for fn in (is_closed, exactify):
            with pytest.raises(ValueError) as got:
                fn(F)
            assert str(got.value) == str(want.value)


@pytest.mark.skipif(resource is None, reason="RLIMIT_CPU of a child process needs resource")
def test_a_twenty_digit_order_is_closed_or_not_at_once():
    """u^(N) for N = 10^20 - 1 stops the inductive algorithm at its first
    step, and its defect 2*d^N is one term; u^(N + 1) is rebuilt from one
    piece, u^(M)^2 / 2 up to sign for M = (N + 1) / 2, whose delta shifts
    one linear term.  A child with 2 s of CPU time answers all four calls."""
    code = """if True:
        from pvakit import Context, NotClosed, exactify, is_closed
        ctx = Context(("u",))
        for n in (10**20 - 1, 10**20):
            F = (ctx.gen(0, n),)
            rep = is_closed(F)
            print(rep.closed, rep.defect.render())
            try:
                print(exactify(F).render())
            except NotClosed as exc:
                print(exc)
    """
    root = os.path.dirname(os.path.dirname(pvakit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (2, 2))

    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, env=env, preexec_fn=capped, timeout=20,
    )
    assert r.returncode == 0, r.stderr.decode()[-2000:]
    N = "99999999999999999999"
    assert r.stdout.decode().splitlines() == [
        "False 2*d^" + N,
        "defect operator: 2*d^" + N,
        "True 0",
        "1/2*u^(1%s)*u" % ("0" * 20),
    ]


def test_inductive_step_guards_both_parities(ctx2):
    """At (n, i, j) an even n needs j <= i and an odd n needs j < i; the
    closed vectors of either parity are rebuilt."""
    u, v = ctx2.gen(0), ctx2.gen(1)
    for F in ((ctx2.gen(0, 1), ctx2.zero()), (ctx2.zero(), ctx2.gen(0, 2))):
        with pytest.raises(NotClosed, match=r"^vector is not closed \(filtration position\)$"):
            _exactify_inductive(F)
    for f in (u * ctx2.gen(1, 1), u * ctx2.gen(1, 2), ctx2.gen(0, 1) ** 2 * v):
        F = variational_derivative(f)
        assert variational_derivative(_exactify_inductive(F)) == F


def test_exactify_round_trip(ctx2):
    rng = random.Random(31)
    done = 0
    for _ in range(80):
        f = rand_expr(rng, ctx2, nfactors=2, max_order=3)
        F = variational_derivative(f)
        g = exactify(F)
        assert variational_derivative(g) == F
        done += 1
    assert done == 80


def test_functional_equality(ctx1):
    u = ctx1.gen(0)
    up, upp = ctx1.gen(0, 1), ctx1.gen(0, 2)
    a = (up ** 2).scale(Fraction(1, 2))
    assert functional_equal(a, a + up * upp)
    assert not functional_equal(u, u + 1)
    cmp = LocalFunctional(a + up * upp).compare(LocalFunctional(a))
    assert cmp.equal and cmp.strict
    # equality that holds only after adjoining a logarithm
    log_diff = up / u
    cmp2 = LocalFunctional(log_diff).compare(LocalFunctional(ctx1.zero()))
    assert cmp2.equal and cmp2.strict is False


def test_functional_equality_when_derivative_has_constant_term(ctx1c):
    # d(u/u') = 1 - u*u''/u'^2 has the literal constant 1, yet it is a
    # total derivative; the constant to test is the one the descent leaves
    u, up = ctx1c.gen(0), ctx1c.gen(0, 1)
    f = ctx1c.parse("c*u^2*u'' + u'^(1/2)")
    g = u / up
    cmp = LocalFunctional(f).compare(LocalFunctional(f + g.total_derivative()))
    assert cmp.equal and cmp.strict
    assert cmp.antiderivative.total_derivative() == -g.total_derivative()
    assert LocalFunctional(f) == LocalFunctional(f + g.total_derivative())
    assert functional_equal(f, f + g.total_derivative())
    # u*u''/u'^2 = 1 - d(u/u') is the constant 1 modulo total derivatives
    rest = ctx1c.one() - g.total_derivative()
    assert not LocalFunctional(rest).is_zero()
    assert not LocalFunctional(rest).compare(LocalFunctional(ctx1c.zero())).equal
    assert LocalFunctional(rest) == LocalFunctional(ctx1c.one())


def test_zero_tests_on_a_slice_nonlinear_in_the_top_derivative(ctx2):
    # the slice 2u' of u'^2 (and u' of u'v') depends on a variable above
    # the one it would be integrated in: the descent stalls, delta decides
    u, v = ctx2.gen(0), ctx2.gen(1)
    for f in (u.total_derivative() ** 2, u.total_derivative() * v.total_derivative()):
        assert not LocalFunctional(f).is_zero()
        assert LocalFunctional(f).compare(LocalFunctional(ctx2.zero())).equal is False
        with pytest.raises(NotExact) as err:
            integrate_total(f)
        assert str(err.value) == "nonzero variational derivative, not a total derivative"


def test_compare_across_a_traded_constant(ctx1c):
    # d(u/u') = 1 - u*u''/u'^2: the descent finds u/u' itself
    f = ctx1c.parse("c*u^2*u'' + u'^(1/2)")
    g = ctx1c.gen(0) / ctx1c.gen(0, 1)
    cmp = LocalFunctional(f + g.total_derivative()).compare(LocalFunctional(f))
    assert cmp == FunctionalComparison(True, True, g)
    g2, c = integrate_total(g.total_derivative())
    assert g2 == g and c == 0


def test_closedness_of_exact_vectors(ctx2):
    rng = random.Random(37)
    for _ in range(40):
        f = rand_expr(rng, ctx2, fancy_exps=True)
        assert is_closed(variational_derivative(f)).closed
