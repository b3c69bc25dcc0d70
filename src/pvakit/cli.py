"""Command-line front end.

Session options (--vars/--params or --config) fix the ambient algebra;
subcommands expose the checkers, the variational calculus and the
hierarchy generators.  Exit status: 0 on success or a passing check, 1 on
a failing check or an unsolvable computation (or when memory runs out), 2
on usage or syntax errors.  A command decides exit 1 for a failing check
itself; ``_Group.invoke`` decides it for every library error.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction

import click

from .algebra import Context
from .brackets import (
    check_compatible,
    check_pva,
    check_symplectic,
    lambda_bracket,
)
from .errors import PvakitError
from .fields import render
from .hierarchies import (
    FAMILIES,
    HierarchySpec,
    generate,
    golden_verify,
)
from .lenard import run_chain
from .operators import MatrixDiffOp
from .parsing import parse_expression, parse_operator
from .varcalc import exactify, frechet, integrate_total, variational_derivative


def _session(vars_, params, config) -> Context:
    names = [[s.strip() for s in t.split(",") if s.strip()] for t in (vars_, params)]
    if config:
        try:
            with open(config) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise TypeError("expected a JSON object, not %r" % (data,))
            for i, key in enumerate(("variables", "parameters")):
                given = data.get(key, names[i])
                # every name as --vars could give it: stripped, not blank, no ','
                if not isinstance(given, list) or not all(
                    isinstance(s, str) and s and s == s.strip() and "," not in s
                    for s in given
                ):
                    raise TypeError("%r must be a list of names, not %r" % (key, given))
                names[i] = given
        except (OSError, ValueError, TypeError) as exc:
            raise click.UsageError("unreadable --config file: %s" % exc)
    vars_, params = names
    if not vars_:
        raise click.UsageError("the session needs at least one variable")
    try:
        return Context(vars_, params)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _echo(text: str, err: bool = False):
    """click.echo to the current sys.stdout or sys.stderr.  Without a file,
    click caches a wrapper per stream, keyed weakly by the stream but
    holding it strongly, so every redirected stream that main() wrote to
    stays alive, text and all, when main() runs in process."""
    click.echo(text, file=click.get_text_stream("stderr" if err else "stdout"))


def _echo_json(record):
    """record.to_json() on stdout in pieces: no whole string, no flush per line."""
    out = click.get_text_stream("stdout")
    text = json.JSONEncoder(indent=2, sort_keys=True).iterencode(record.to_json())
    while piece := "".join(itertools.islice(text, 4096)):
        out.write(piece)
    print(file=out, flush=True)


def _fail(message: str):
    _echo("error: %s" % message, err=True)
    sys.exit(1)


def _parse(ctx: Context, text: str):
    try:
        return parse_expression(text, ctx)
    except PvakitError as exc:
        raise click.UsageError(str(exc))


def _parse_vector(ctx: Context, texts) -> tuple:
    """One expression per variable, parsed in order."""
    if len(texts) != ctx.nvars:
        raise click.UsageError(
            "expected %d component%s" % (ctx.nvars, "" if ctx.nvars == 1 else "s")
        )
    return tuple(_parse(ctx, t) for t in texts)


def _parse_op(ctx: Context, text: str) -> MatrixDiffOp:
    try:
        op = parse_operator(text, ctx)
    except PvakitError as exc:
        raise click.UsageError(str(exc))
    if (op.nrows, op.ncols) != (ctx.nvars, ctx.nvars):
        raise click.UsageError(
            "operator %r must be %d x %d" % (text, ctx.nvars, ctx.nvars)
        )
    return op


def _emit_report(report, as_json: bool):
    if as_json:
        _echo_json(report)
    elif report.passed:
        _echo("pass")
    else:
        _echo("fail")
        for f in report.failures:
            where = " at %s" % (f.triple,) if f.triple else ""
            if f.pair:
                where += " for ops %s" % (f.pair,)
            _echo("  %s%s: %s" % (f.kind, where, f.residual_text))
    sys.exit(0 if report.passed else 1)


class _Group(click.Group):
    """The command group, and the one place where an error becomes exit
    status 1: a PvakitError that a command does not turn into a usage
    error, a MemoryError and a result with a number past the
    interpreter's digit limit each end the run with a one-line error, not
    a traceback."""

    def invoke(self, com):
        try:
            return super().invoke(com)
        except PvakitError as exc:
            _fail(str(exc))
        except MemoryError:
            _fail("out of memory")
        except ValueError as exc:
            if "integer string conversion" not in str(exc):
                raise
            _fail(str(exc).partition(";")[0])


@click.group(cls=_Group)
@click.option("--vars", "vars_", default="u", help="comma-separated variable names")
@click.option("--params", default="", help="comma-separated parameter names")
@click.option("--config", default=None, type=click.Path(exists=True),
              help="JSON file with {variables, parameters}")
@click.pass_context
def main(com, vars_, params, config):
    """Exact calculus for Hamiltonian structures of evolution PDEs."""
    com.obj = _session(vars_, params, config)


@main.command()
@click.argument("expr")
@click.pass_obj
def vder(ctx, expr):
    """Variational derivative of EXPR, one component per line."""
    f = _parse(ctx, expr)
    for component in variational_derivative(f):
        _echo(component.render())


@main.command()
@click.argument("expr")
@click.pass_obj
def integrate(ctx, expr):
    """Write EXPR as d(g) + const and print both."""
    g, c = integrate_total(_parse(ctx, expr))
    _echo(g.render())
    _echo("const: %s" % render(c, ctx.params))


@main.command("exactify")
@click.argument("components", nargs=-1, required=True)
@click.pass_obj
def exactify_cmd(ctx, components):
    """Potential f with delta f/delta u = (COMPONENTS...)."""
    _echo(exactify(_parse_vector(ctx, components)).render())


@main.command("frechet")
@click.argument("components", nargs=-1, required=True)
@click.option("--adjoint", is_flag=True, help="print the formal adjoint instead")
@click.pass_obj
def frechet_cmd(ctx, components, adjoint):
    """First-variation operator of the vector (COMPONENTS...)."""
    op = frechet(_parse_vector(ctx, components))
    _echo((op.adjoint() if adjoint else op).render())


@main.command()
@click.option("--op", "op_text", required=True, help="bracket operator")
@click.argument("f")
@click.argument("g")
@click.pass_obj
def bracket(ctx, op_text, f, g):
    """{f_lam g} for the bracket defined by --op."""
    H = _parse_op(ctx, op_text)
    _echo(lambda_bracket(H, _parse(ctx, f), _parse(ctx, g)).render())


@main.command("check-pva")
@click.option("--op", "op_text", required=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_obj
def check_pva_cmd(ctx, op_text, as_json):
    """Skew-adjointness and Jacobi identity for --op."""
    _emit_report(check_pva(_parse_op(ctx, op_text)), as_json)


@main.command("check-compat")
@click.option("--op", "op_texts", required=True, multiple=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_obj
def check_compat_cmd(ctx, op_texts, as_json):
    """Compatibility of several Hamiltonian operators."""
    _emit_report(check_compatible([_parse_op(ctx, t) for t in op_texts]), as_json)


@main.command("check-symplectic")
@click.option("--op", "op_text", required=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_obj
def check_symplectic_cmd(ctx, op_text, as_json):
    """Skew-adjointness and the two-form closedness condition for --op."""
    _emit_report(check_symplectic(_parse_op(ctx, op_text)), as_json)


@main.command("lenard")
@click.option("--op-h", "h_text", required=True, help="recursion operator H")
@click.option("--op-k", "k_text", required=True, help="solved operator K")
@click.option("--seed", "seed_texts", required=True, multiple=True,
              help="seed vector, components separated by ','")
@click.option("--depth", default=3, show_default=True, type=click.IntRange(min=0))
@click.option("--kind", default="hamiltonian",
              type=click.Choice(["hamiltonian", "symplectic"]))
@click.option("--json", "as_json", is_flag=True)
@click.pass_obj
def lenard_cmd(ctx, h_text, k_text, seed_texts, depth, kind, as_json):
    """Extend seed vectors through K F^{n+1} = H F^n, with the solver read
    off K (a triangle of pivots m0 o d^r o m1 with monomials m0, m1)."""
    H = _parse_op(ctx, h_text)
    K = _parse_op(ctx, k_text)
    seeds = [_parse_vector(ctx, text.split(",")) for text in seed_texts]
    rec = run_chain(H, K, seeds, depth, name="lenard", kind=kind)
    if as_json:
        _echo_json(rec)
    else:
        for s in rec.steps:
            _echo("F^%d = (%s)" % (s.n, ", ".join(x.render() for x in s.F)))
            if s.h is not None:
                _echo("h_%d = %s" % (s.n, s.h.rep.render()))
    sys.exit(0 if rec.verification.passed() else 1)


def _parse_binding(text: str):
    if "=" not in text:
        return text, None
    name, _, value = text.partition("=")
    try:
        return name.strip(), Fraction(value.strip())
    except (ValueError, ZeroDivisionError):
        raise click.UsageError("--param %s: %r is not a rational number" % (text, value))


@main.command("hierarchy")
@click.argument("name", type=click.Choice(list(FAMILIES)))
@click.option("--param", "param_texts", multiple=True,
              help="NAME for a symbolic parameter or NAME=VALUE to bind it")
@click.option("--depth", default=None, type=click.IntRange(min=1))
@click.option("--verify", "do_verify", is_flag=True,
              help="also compare against the stored reference values")
@click.option("--json", "as_json", is_flag=True)
def hierarchy_cmd(name, param_texts, depth, do_verify, as_json):
    """Generate a shipped hierarchy (and optionally check its goldens)."""
    params = dict(_parse_binding(t) for t in param_texts)
    try:
        spec = HierarchySpec(name, params, depth)
    except PvakitError as exc:
        raise click.UsageError(str(exc))
    rec = generate(spec)
    ok = rec.verification.passed()
    if as_json:
        _echo_json(rec)
    else:
        for s in rec.steps:
            _echo("F^%d = (%s)" % (s.n, ", ".join(x.render() for x in s.F)))
            _echo(
                "h_%d = %s" % (s.n, s.h.rep.render() if s.h is not None else "-")
            )
            _echo("flow_%d = (%s)" % (s.n, ", ".join(x.render() for x in s.flow)))
        _echo("verification: %s" % ("pass" if ok else "fail"))
    if do_verify:
        report = golden_verify(spec, rec)
        if not as_json:
            _echo("golden: %s" % ("pass" if report.passed else "fail"))
        ok = ok and report.passed
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
