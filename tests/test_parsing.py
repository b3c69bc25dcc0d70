import random
from fractions import Fraction

import pytest

from pvakit import (
    Context,
    Expression,
    MatrixDiffOp,
    NonMonomialDivisor,
    ParseError,
    parse_expression,
    parse_operator,
    parse_operator_entry,
)

from conftest import rand_expr


def test_basic_expressions(ctx1c):
    f = ctx1c.parse("3/2*u^2 + c*u''")
    u = ctx1c.gen(0)
    assert f == (u * u).scale(Fraction(3, 2)) + ctx1c.param("c") * ctx1c.gen(0, 2)
    assert ctx1c.parse("u^(-1/2)") == u ** Fraction(-1, 2)
    assert ctx1c.parse("-u + 2") == ctx1c.num(2) - u
    assert ctx1c.parse("u'''") == ctx1c.gen(0, 3)
    assert ctx1c.parse("(u + 1)^2") == u * u + u.scale(2) + ctx1c.one()


def test_derivative_marker_vs_power(ctx1):
    u = ctx1.gen(0)
    assert ctx1.parse("u^(4)") == ctx1.gen(0, 4)  # fourth derivative
    assert ctx1.parse("u^4") == u ** 4  # fourth power
    assert ctx1.parse("u^(-1)") == u ** -1
    assert ctx1.parse("u^(4)^2") == ctx1.gen(0, 4) ** 2
    assert ctx1.parse("u'^2") == ctx1.gen(0, 1) ** 2
    assert ctx1.parse("u'^(-1)") == ctx1.gen(0, 1) ** -1


def test_division_rules(ctx2):
    u, v = ctx2.gen(0), ctx2.gen(1)
    assert ctx2.parse("u/v") == u / v
    assert ctx2.parse("3/2") == ctx2.num(3, 2)
    with pytest.raises(NonMonomialDivisor):
        ctx2.parse("(u+v)/(u+1)")


def test_errors_carry_position(ctx1):
    with pytest.raises(ParseError) as exc:
        ctx1.parse("u + ")
    assert exc.value.pos == 4
    with pytest.raises(ParseError):
        ctx1.parse("q + 1")
    with pytest.raises(ParseError):
        ctx1.parse("u ^ x")
    with pytest.raises(ParseError):
        ctx1.parse("u) ")
    # positions count from the start of the whole text: the '/' dividing
    # a factor that holds d, an entry of a matrix operator, and the start
    # of the first row whose length differs from the first row's
    with pytest.raises(ParseError) as exc:
        parse_operator("u*d/v", Context(("u", "v")))
    assert exc.value.pos == 3
    assert str(exc.value) == "only a d-free factor may be divided (at position 3)"
    with pytest.raises(ParseError) as exc:
        parse_operator("d, 0; 0,  v*q", Context(("u", "v")))
    assert exc.value.pos == 12
    assert str(exc.value) == "unknown name 'q' (at position 12)"
    with pytest.raises(ParseError) as exc:
        parse_operator("d, 0; d", Context(("u", "v")))
    assert str(exc.value) == "rows of the operator matrix differ in length (at position 5)"
    with pytest.raises(ParseError) as exc:
        parse_operator("d; d, d; d", Context(("u", "v")))
    assert exc.value.pos == 2


@pytest.mark.parametrize("text, message", [
    (" [d, 0; 0,  v*q]", "unknown name 'q' (at position 14)"),
    ("[d, 0; d]", "rows of the operator matrix differ in length (at position 6)"),
    ("[d, 0; 0, d", "unmatched '[' (at position 0)"),
    ("d, 0; 0, d] ", "unmatched ']' (at position 10)"),
    ("[[d, 0; 0, d]]", "unexpected character '[' (at position 1)"),
])
def test_bracketed_matrix_errors_count_from_the_given_text(text, message):
    """One outer '[' ']' pair is read as the matrix brackets; an unmatched
    bracket, or a second pair, is an error at the bracket."""
    with pytest.raises(ParseError) as exc:
        parse_operator(text, Context(("u", "v")))
    assert str(exc.value) == message


def test_parameter_names_read_through_a_mapping():
    """With a mapping, a bound name reads as its value and a shown name as
    the context's parameter; any other name, the context's own parameter
    names included, is unknown at its position, and d may not be a key."""
    ctx = Context(("u", "v"), ("c",))
    u, c = ctx.gen(0), ctx.param("c")
    names = {"alpha": ctx.num(Fraction(1, 2)), "beta": c}
    got = parse_expression("alpha*u + beta*v'", ctx, names)
    assert got == u.scale(Fraction(1, 2)) + c * ctx.gen(1, 1)
    op = parse_operator("alpha*d + beta*d^3, 0; 0, alpha*d", ctx, names)
    assert op.render() == "[1/2*d + c*d^3, 0; 0, 1/2*d]"
    assert tuple(parse_operator_entry("d*beta*u", ctx, names)) == (
        (0, c * ctx.gen(0, 1)), (1, c * u))
    for text, pos in (("alpha + c", 8), ("u*gamma", 2)):
        with pytest.raises(ParseError) as exc:
            parse_expression(text, ctx, names)
        assert (exc.value.message, exc.value.pos) == ("unknown name %r" % text[pos:], pos)
    with pytest.raises(ParseError) as exc:
        parse_operator("d, 0; 0,  c*d", ctx, names)
    assert str(exc.value) == "unknown name 'c' (at position 10)"
    assert parse_expression("c*u", ctx) == c * u  # no mapping: the context's names
    # the operator symbol d may not be a mapped name, as it may not be a
    # variable or a parameter of the context
    with pytest.raises(ParseError, match="collides"):
        parse_operator("d", ctx, {"d": ctx.num(2)})
    assert parse_expression("d*u", ctx, {"d": ctx.num(2)}) == u.scale(2)


def test_running_out_of_memory_is_not_a_parse_error(ctx1, monkeypatch):
    def exhausted(a, b):
        raise MemoryError

    monkeypatch.setattr(Expression, "__mul__", exhausted)
    with pytest.raises(MemoryError):
        ctx1.parse("u*u")


def test_round_trip_random():
    rng = random.Random(73)
    ctx = Context(("u", "v", "w"), ("c", "alpha"))
    for _ in range(120):
        f = rand_expr(rng, ctx, nterms=3, fancy_exps=True)
        if rng.random() < 0.4:
            f = f * ctx.param(rng.choice(["c", "alpha"]))
        assert ctx.parse(f.render()) == f


def test_operator_grammar(ctx1c):
    H = parse_operator("u' + 2*u*d + c*d^3", ctx1c)
    u = ctx1c.gen(0)
    want = MatrixDiffOp.single(
        ctx1c, [(0, u.total_derivative()), (1, u.scale(2)), (3, ctx1c.param("c"))]
    )
    assert H == want
    assert parse_operator(H.render_entry(0, 0), ctx1c) == H


def test_operator_matrix(ctx2):
    v = ctx2.gen(1)
    op = parse_operator("u' + 2*u*d, v*d; v*d + v', 0", ctx2)
    assert op.nrows == 2 and op.ncols == 2
    assert tuple(op.entry(1, 1)) == ()
    assert tuple(op.entry(0, 1)) == ((1, v),)
    # matrix text round trip, brackets and all
    assert parse_operator(op.render(), ctx2) == op


def test_operator_grammar_rejections(ctx1):
    with pytest.raises(ParseError):
        parse_operator("u/d", ctx1)
    with pytest.raises(ParseError):
        parse_operator("d^(1/2)", ctx1)
    with pytest.raises(ParseError) as exc:
        parse_operator("(u*d)^(1/2)", ctx1)
    assert exc.value.pos == 5
    with pytest.raises(ParseError):
        parse_operator("u*d/u", ctx1)


def test_operator_products_compose(ctx1):
    """* composes and ^k composes k times, wherever d stands."""
    def op(text):
        return parse_operator(text, ctx1).render()

    assert op("d*u") == "u' + u*d"
    assert op("(u + d)*d") == "u*d + d^2"
    assert op("(2*d)^2") == "4*d^2"
    assert op("(u*d)^2") == "u'*u*d + u^2*d^2"
    assert op("d*(u*d)") == "u'*d + u*d^2"
    assert op("d*(2*d)") == "2*d^2"
    assert op("(u*d)*d") == "u*d^2"
    assert op("d^0") == op("(u*d)^0") == "1"


def test_constant_coefficient_powers_take_one_step(ctx1c):
    """(c*d^p)^k = c^k*d^(p*k) for a constant c, a number or a parameter;
    a coefficient that is not constant is still composed k times."""
    def op(text):
        return parse_operator(text, ctx1c).render()

    assert op("(2*d)^3") == op("(2*d)*(2*d)*(2*d)") == "8*d^3"
    assert op("(c*d^2)^3") == op("(c*d^2)*(c*d^2)*(c*d^2)") == "c^3*d^6"
    assert op("(-d)^3") == "-d^3"
    assert op("(u*d)^2") == op("(u*d)*(u*d)") == "u'*u*d + u^2*d^2"


def test_parenthesized_coefficients(ctx1c):
    op = parse_operator("(u + c)*d^2", ctx1c)
    want = MatrixDiffOp.single(ctx1c, [(2, ctx1c.gen(0) + ctx1c.param("c"))])
    assert op == want
