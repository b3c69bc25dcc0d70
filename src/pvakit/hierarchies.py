"""The shipped integrable hierarchies, as one table.

Each row of FAMILIES names the variables and parameters of one family, its
operators H and K in the operator grammar, the seed vectors, the chain
kind, the start index and the default depth, and the reference values.
generate reads a row's texts straight into the record's context, each
parameter name as its bound value or as the symbolic parameter it shows
as, runs the Lenard recursion, whose solver is read off K, and verifies
the chain, both through lenard.run_chain, the one place where a run opens
its memo.  The one "dirac" row, NLS, is the Dirac structure
L_{H,K} = {(H P, K P)} paired with the graph of J = (0, -1; 1, 0), and
its solver is read off J o K.

A HierarchySpec, the request for one row, is complete once it is made.
golden_verify compares a generated record against the reference values,
which hold for every binding of the family's parameters: exact equality
for gradient vectors and flows, equality modulo total derivatives for
densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Optional

from .algebra import Context
from .brackets import CheckFailure, CheckReport
from .errors import PvakitError
from .fields import rational
from .lenard import HierarchyRecord, run_chain
from .operators import MatrixDiffOp
from .parsing import parse_expression, parse_operator
from .varcalc import LocalFunctional


@dataclass
class Family:
    """One shipped hierarchy.

    ``kind`` is "hamiltonian" (K F^{n+1} = H F^n, gradients F^n),
    "symplectic" (gradients K F^n) or "dirac": the seeds are P_0, P_1, ...
    with (J o K) P_{n+1} = H P_n, which pairs L_{H,K} with the graph of
    J = (0, -1; 1, 0), and each step records the gradient K P_n and the
    flow H P_n.  ``params`` maps each parameter to its default (None:
    symbolic); ``shown`` renames a symbolic parameter in the record's
    context, and a binding may use that name in place of the parameter's
    own; the texts name the parameters by their own names.  ``golden`` is
    the reference values as text, three dicts step -> F, h and flow, or a
    function (ctx, depth) -> the same dicts of expressions; they hold for
    every binding of the parameters.
    """

    variables: tuple
    H: str
    K: str
    seeds: tuple
    depth: int
    golden: object
    params: dict = field(default_factory=dict)
    shown: dict = field(default_factory=dict)
    kind: str = "hamiltonian"
    start: int = 0


def _odd_ff(n: int) -> int:
    """1 * 3 * ... * (2n - 1); empty product for n = 0."""
    out = 1
    for k in range(1, n + 1):
        out *= 2 * k - 1
    return out


def _golden_dispersionless(ctx: Context, depth: int):
    u = ctx.gen(0)
    F = {}
    h = {}
    for n in range(depth + 1):
        F[n] = ((u ** n).scale(Fraction(_odd_ff(n), factorial(n))),)
        h[n] = (u ** (n + 1)).scale(Fraction(_odd_ff(n), factorial(n + 1)))
    return F, h, {}


def _golden_linear(ctx: Context, depth: int):
    F = {}
    h = {}
    for step in range(1, depth + 1):
        n = step - 1
        F[step] = (ctx.gen(0, 2 * n),)
        h[step] = (ctx.gen(0, n) ** 2).scale(Fraction((-1) ** n, 2))
    return F, h, {}


FAMILIES = {
    "kdv": Family(
        ("u",), "u' + 2*u*d + c*d^3", "d", (("1",),), 3,
        params={"c": None},
        golden=(
            {
                0: ("1",),
                1: ("u",),
                2: ("3/2*u^2 + c*u''",),
                3: ("5/2*u^3 + 5*c*u*u'' + 5/2*c*u'^2 + c^2*u^(4)",),
            },
            {
                0: "u",
                1: "1/2*u^2",
                2: "1/2*u^3 + 1/2*c*u*u''",
                3: "5/8*u^4 + 5/3*c*u^2*u'' + 5/6*c*u*u'^2 + 1/2*c^2*u*u^(4)",
            },
            {
                0: ("u'",),
                1: ("3*u*u' + c*u'''",),
                2: ("15/2*u^2*u' + 10*c*u'*u'' + 5*c*u*u''' + c^2*u^(5)",),
            },
        ),
    ),
    "dispersionless_kdv": Family(
        ("u",), "u' + 2*u*d", "d", (("1",),), 8, golden=_golden_dispersionless
    ),
    "linear_kdv": Family(
        ("u",), "d^3", "d", (("u",),), 9, start=1, golden=_golden_linear
    ),
    "hd": Family(
        ("u",), "alpha*d + beta*d^3", "u' + 2*u*d", (("u^(-1/2)",),), 2,
        params={"alpha": None, "beta": None},
        golden=(
            {
                0: ("u^(-1/2)",),
                1: (
                    "1/4*alpha*u^(-3/2) - 1/4*beta*u''*u^(-5/2)"
                    " + 5/16*beta*u'^2*u^(-7/2)",
                ),
                2: (
                    "3/32*alpha^2*u^(-5/2) - 5/16*alpha*beta*u''*u^(-7/2)"
                    " + 35/64*alpha*beta*u'^2*u^(-9/2) - 1/8*beta^2*u^(4)*u^(-7/2)"
                    " + 7/8*beta^2*u'''*u'*u^(-9/2) + 21/32*beta^2*u''^2*u^(-9/2)"
                    " - 231/64*beta^2*u''*u'^2*u^(-11/2)"
                    " + 1155/512*beta^2*u'^4*u^(-13/2)",
                ),
            },
            {
                0: "2*u^(1/2)",
                1: "-1/2*alpha*u^(-1/2) + 1/2*beta*u''*u^(-3/2)"
                " - 5/8*beta*u'^2*u^(-5/2)",
                2: "-1/16*alpha^2*u^(-3/2) + 5/24*alpha*beta*u''*u^(-5/2)"
                " - 35/96*alpha*beta*u'^2*u^(-7/2) + 1/12*beta^2*u^(4)*u^(-5/2)"
                " - 7/12*beta^2*u'''*u'*u^(-7/2) - 7/16*beta^2*u''^2*u^(-7/2)"
                " + 77/32*beta^2*u''*u'^2*u^(-9/2) - 385/256*beta^2*u'^4*u^(-11/2)",
            },
            {},
        ),
    ),
    "cnw": Family(
        ("u", "v"), "u' + 2*u*d + c*d^3, v*d; v' + v*d, 0", "d, 0; 0, d",
        (("0", "1"), ("1", "0")), 3,
        params={"c": None},
        golden=(
            {
                0: ("0", "1"),
                1: ("1", "0"),
                2: ("u", "v"),
                3: ("c*u'' + 3/2*u^2 + 1/2*v^2", "u*v"),
            },
            {
                0: "v",
                1: "u",
                2: "1/2*u^2 + 1/2*v^2",
                3: "1/2*c*u*u'' + 1/2*u^3 + 1/2*u*v^2",
            },
            {
                0: ("0", "0"),
                1: ("u'", "v'"),
                2: ("c*u''' + 3*u*u' + v*v'", "u*v' + u'*v"),
            },
        ),
    ),
    # beta is shown as c.  H(alpha, beta) = alpha H(1, beta/alpha), and
    # neither K nor the seeds F^0, F^1 involve alpha, so for n >= 1 F^n and
    # h_n (modulo total derivatives) are alpha^(n-1) times their values at
    # (1, beta/alpha), and flow_n is alpha^n times its value there.  Every
    # value is a polynomial in alpha and beta, so this holds at alpha = 0.
    "cnw_hd": Family(
        ("u", "v"), "alpha*d + beta*d^3, 0; 0, alpha*d",
        "u' + 2*u*d, v*d; v' + v*d, 0",
        (("0", "1"), ("v^(-1)", "-u*v^(-2)")), 2,
        params={"alpha": Fraction(1), "beta": None},
        shown={"beta": "c"},
        # the 1/v^2 and 1/v terms carry the sign forced by K F^2 = H F^1
        golden=(
            {
                0: ("0", "1"),
                1: ("v^(-1)", "-u*v^(-2)"),
                2: (
                    "-alpha*u*v^(-3)",
                    "alpha*(3/2*u^2*v^(-4) + 1/2*v^(-2))"
                    " + beta*(3/2*v'^2*v^(-4) - v''*v^(-3))",
                ),
            },
            {
                0: "v",
                1: "u*v^(-1)",
                2: "alpha*(-1/2*u^2*v^(-3) - 1/2*v^(-1)) + 1/2*beta*v'^2*v^(-3)",
            },
            {
                0: ("0", "0"),
                1: (
                    "-alpha*v'*v^(-2)"
                    " + beta*(-v'''*v^(-2) + 6*v''*v'*v^(-3) - 6*v'^3*v^(-4))",
                    "alpha*(2*v'*v^(-3)*u - u'*v^(-2))",
                ),
                2: (
                    "alpha^2*(3*v'*v^(-4)*u - u'*v^(-3))"
                    " + alpha*beta*(3*v'''*v^(-4)*u - u'''*v^(-3)"
                    " - 36*v''*v'*v^(-5)*u + 9*v''*u'*v^(-4) + 9*u''*v'*v^(-4)"
                    " + 60*v'^3*v^(-6)*u - 36*v'^2*u'*v^(-5))",
                    "alpha^2*(-v'*v^(-3) - 6*v'*v^(-5)*u^2 + 3*u'*v^(-4)*u)"
                    " + alpha*beta*(-v'''*v^(-3) + 6*v''*v'*v^(-4)"
                    " - 6*v'^3*v^(-5))",
                ),
            },
        ),
    ),
    "nls": Family(
        ("u", "v"), "d*v^(-1), -4*v; d*u^(-1), d*u^(-1)*d + 4*u",
        "v^(-1), 0; u^(-1), u^(-1)*d", (("0", "1/4"),), 4, kind="dirac",
        golden=(
            {
                0: ("0", "0"),
                1: ("u", "v"),
                2: ("v'", "-u'"),
                3: ("-u'' - 2*u^3 - 2*u*v^2", "-v'' - 2*u^2*v - 2*v^3"),
                4: (
                    "-v''' - 6*u^2*v' - 6*v^2*v'",
                    "u''' + 6*u^2*u' + 6*v^2*u'",
                ),
            },
            {
                0: "0",
                1: "1/2*u^2 + 1/2*v^2",
                2: "1/2*u*v' - 1/2*u'*v",
                3: "1/2*u'^2 + 1/2*v'^2 - 1/2*u^4 - u^2*v^2 - 1/2*v^4",
                4: "1/2*u'*v'' - 1/2*u''*v' + 2*v^3*u' - 2*u^3*v'",
            },
            {
                0: ("-v", "u"),
                1: ("u'", "v'"),
                2: ("v'' + 2*u^2*v + 2*v^3", "-u'' - 2*u^3 - 2*u*v^2"),
                3: (
                    "-u''' - 6*u^2*u' - 6*v^2*u'",
                    "-v''' - 6*u^2*v' - 6*v^2*v'",
                ),
            },
        ),
    ),
    "pkdv": Family(
        ("u",), "u'' + 2*u'*d + c*d^3", "d", (("1",),), 3,
        params={"c": None},
        kind="symplectic",
        golden=(
            {
                0: ("1",),
                1: ("u'",),
                2: ("c*u''' + 3/2*u'^2",),
                3: ("c^2*u^(5) + 5*c*u'*u''' + 5/2*c*u''^2 + 5/2*u'^3",),
            },
            {
                0: "0",
                1: "-1/2*u'^2",
                2: "1/2*c*u''^2 - 1/2*u'^3",
                3: "-1/2*c^2*u'''^2 + 5/2*c*u'*u''^2 - 5/8*u'^4",
            },
            {
                0: ("1",),
                1: ("u'",),
                2: ("c*u''' + 3/2*u'^2",),
                3: ("c^2*u^(5) + 5*c*u'*u''' + 5/2*c*u''^2 + 5/2*u'^3",),
            },
        ),
    ),
    "kn": Family(
        ("u",),
        "(3*u''^2*u'^(-4) - u'''*u'^(-3))*d - 3*u''*u'^(-3)*d^2 + u'^(-2)*d^3",
        "u'^(-2)*d - u''*u'^(-3)",
        (("u'",),), 1,
        kind="symplectic",
        golden=(
            {0: ("u'",), 1: ("u''' - 3/2*u''^2*u'^(-1)",)},
            {0: "0", 1: "1/2*u''^2*u'^(-2)"},
            {0: ("u'",), 1: ("u''' - 3/2*u''^2*u'^(-1)",)},
        ),
    ),
}


@dataclass
class HierarchySpec:
    """Requested hierarchy: name, coefficient bindings, recursion depth.

    A parameter bound to None stays symbolic; a Fraction fixes its value.
    cnw_hd also accepts the single binding "c", shorthand for alpha = 1,
    beta = c.  Making a spec checks it and sets ``params`` to a new dict of
    every family parameter (None or a Fraction) and ``depth`` to an int;
    a complete spec is its own completion, so ``replace`` re-checks it.
    """

    name: str
    params: dict = field(default_factory=dict)
    depth: Optional[int] = None

    def __post_init__(self):
        fam = FAMILIES.get(self.name)
        if fam is None:
            raise PvakitError("unknown hierarchy %r" % self.name)
        params = self.params
        by_shown = {v: k for k, v in fam.shown.items()}
        if by_shown.keys() & params.keys():
            if fam.params.keys() & params.keys():
                raise PvakitError(
                    "bind either %s or %s, not both"
                    % ("/".join(by_shown), "/".join(fam.params))
                )
            params = {by_shown.get(k, k): v for k, v in params.items()}
        if params.keys() - fam.params.keys():
            names = ", ".join(fam.params)
            raise PvakitError(
                "hierarchy %s takes %s"
                % (self.name, "parameters " + names if names else "no parameters")
            )
        full = {k: params.get(k, v) for k, v in fam.params.items()}
        self.params = {
            k: (v if v is None else Fraction(rational(v))) for k, v in full.items()
        }
        self.depth = self.depth if self.depth is not None else fam.depth
        if self.depth.__class__ is not int:
            raise PvakitError("depth must be an integer")
        if self.depth < 1:
            raise PvakitError("depth must be at least 1")


def _params_json(params: dict) -> dict:
    return {k: (k if v is None else str(v)) for k, v in params.items()}


class _Binding:
    """A family's text read in the context of one spec, the record's: each
    parameter name reads as its bound value, or as the symbolic parameter
    of the context under the name it shows as."""

    def __init__(self, fam: Family, params: dict):
        shown = {k: fam.shown.get(k, k) for k, v in params.items() if v is None}
        self.ctx = ctx = Context(fam.variables, tuple(shown.values()))
        self.names = {
            k: ctx.num(v) if v is not None else ctx.param(shown[k])
            for k, v in params.items()
        }

    def expr(self, text: str):
        return parse_expression(text, self.ctx, self.names)

    def vector(self, texts) -> tuple:
        return tuple(self.expr(t) for t in texts)

    def operator(self, text: str) -> MatrixDiffOp:
        return parse_operator(text, self.ctx, self.names)


def generate(spec: HierarchySpec) -> HierarchyRecord:
    fam = FAMILIES[spec.name]
    read = _Binding(fam, spec.params)
    H = read.operator(fam.H)
    K = read.operator(fam.K)
    seeds = [read.vector(s) for s in fam.seeds]
    params = _params_json(spec.params)
    return run_chain(H, K, seeds, spec.depth, fam.start, spec.name, fam.kind, params)


def golden_verify(
    spec: HierarchySpec, record: Optional[HierarchyRecord] = None
) -> CheckReport:
    """Compare a hierarchy against the reference values.

    ``record`` is the result of ``generate(spec)`` when the caller already
    has it; without it the hierarchy is generated here.  Gradient vectors
    and flows must match exactly; densities are compared modulo total
    derivatives.  The chain verification flags must all pass.  Failures
    come part by part (F, h, flow), each in the record's step order.
    """
    rec = generate(spec) if record is None else record
    fam = FAMILIES[spec.name]
    read = _Binding(fam, spec.params)
    text = not callable(fam.golden)
    golden = fam.golden if text else fam.golden(read.ctx, spec.depth)
    failures = []
    for part, refs in zip(("F", "h", "flow"), golden):
        parse = read.expr if part == "h" else read.vector
        for step in rec.steps:
            if step.n not in refs:
                continue
            want = parse(refs[step.n]) if text else refs[step.n]
            got = getattr(step, part)
            if part != "h":
                if tuple(got) == tuple(want):
                    continue
                texts = ([w.render() for w in want], [g.render() for g in got])
            elif got is not None and got == LocalFunctional(want):
                continue
            else:
                texts = (want.render(), got.rep.render() if got else None)
            failures.append(
                CheckFailure("golden", (step.n, part), "want %s, got %s" % texts)
            )
    if not rec.verification.passed():
        failures.append(
            CheckFailure(
                "verification", None, str(rec.verification.to_json())
            )
        )
    return CheckReport(not failures, failures)
