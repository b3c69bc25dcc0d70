"""Constructors for the shipped integrable hierarchies.

Each generator wires the ambient algebra, the operator pair, the seed
vectors and the structured solver for one example family, runs the
recursion to the requested depth, attaches conserved densities, and
verifies the result.  golden_verify compares a generated record against
embedded reference values: exact equality for gradient vectors and flows,
equality modulo total derivatives for densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import Context, Expression, VectorExpr, vec_dot
from .brackets import CheckFailure, CheckReport, functional_bracket
from .errors import PvakitError
from .lenard import (
    HierarchyRecord,
    HierarchyStep,
    _attach_density,
    _invert_total,
    lenard_extend,
    make_plan,
    verify_sequence,
)
from .operators import MatrixDiffOp
from .varcalc import LocalFunctional, is_closed, variational_derivative

NAMES = (
    "kdv",
    "dispersionless_kdv",
    "linear_kdv",
    "hd",
    "cnw",
    "cnw_hd",
    "nls",
    "pkdv",
    "kn",
)

_DEFAULT_DEPTH = {
    "kdv": 3,
    "dispersionless_kdv": 8,
    "linear_kdv": 9,
    "hd": 2,
    "cnw": 3,
    "cnw_hd": 2,
    "nls": 4,
    "pkdv": 3,
    "kn": 1,
}

_PARAM_NAMES = {
    "kdv": ("c",),
    "dispersionless_kdv": (),
    "linear_kdv": (),
    "hd": ("alpha", "beta"),
    "cnw": ("c",),
    "cnw_hd": ("alpha", "beta"),
    "nls": (),
    "pkdv": ("c",),
    "kn": (),
}

# unbound parameters default to symbolic, except where a family is
# conventionally pinned (cnw_hd: alpha = 1, beta = c)
_PARAM_DEFAULTS = {
    "cnw_hd": {"alpha": Fraction(1)},
}


@dataclass
class HierarchySpec:
    """Requested hierarchy: name, coefficient bindings, recursion depth.

    A parameter bound to None stays symbolic; a Fraction fixes its value.
    cnw_hd also accepts the single binding "c", shorthand for alpha = 1,
    beta = c.
    """

    name: str
    params: dict = field(default_factory=dict)
    depth: Optional[int] = None

    def normalized(self) -> "HierarchySpec":
        if self.name not in NAMES:
            raise PvakitError("unknown hierarchy %r" % self.name)
        params = dict(self.params)
        if self.name == "cnw_hd" and "c" in params:
            if "alpha" in params or "beta" in params:
                raise PvakitError("bind either c or alpha/beta, not both")
            params = {"alpha": Fraction(1), "beta": params["c"]}
        allowed = _PARAM_NAMES[self.name]
        for key in params:
            if key not in allowed:
                raise PvakitError(
                    "hierarchy %s takes parameters %s" % (self.name, allowed)
                )
        defaults = _PARAM_DEFAULTS.get(self.name, {})
        full = {k: params.get(k, defaults.get(k)) for k in allowed}
        full = {
            k: (v if v is None else Fraction(v)) for k, v in full.items()
        }
        depth = self.depth if self.depth is not None else _DEFAULT_DEPTH[self.name]
        if depth < 1:
            raise PvakitError("depth must be at least 1")
        return HierarchySpec(self.name, full, depth)


def _make_context(var_names, params: dict, rename: Optional[dict] = None) -> Context:
    symbolic = [k for k, v in params.items() if v is None]
    shown = [rename.get(k, k) if rename else k for k in symbolic]
    return Context(var_names, tuple(shown))


def _coeff(ctx: Context, params: dict, key: str, rename: Optional[dict] = None):
    v = params[key]
    if v is None:
        return ctx.param(rename.get(key, key) if rename else key)
    return ctx.num(v)


def _params_json(params: dict) -> dict:
    return {k: (k if v is None else str(v)) for k, v in params.items()}


# ---------------------------------------------------------------------------
# builders


def _gen_kdv(spec: HierarchySpec, dispersionless: bool = False) -> HierarchyRecord:
    params = dict(spec.params)
    if dispersionless:
        params = {"c": Fraction(0)}
    ctx = _make_context(("u",), params)
    c = _coeff(ctx, params, "c")
    u = ctx.gen(0)
    H = MatrixDiffOp.single(
        ctx, [(0, u.total_derivative()), (1, u.scale(2)), (3, c)]
    )
    K = MatrixDiffOp.derivative(ctx)
    plan = make_plan(K, "derivative")
    rec = lenard_extend(
        H,
        K,
        plan,
        [(ctx.one(),)],
        spec.depth,
        name=spec.name,
        params=_params_json(spec.params if not dispersionless else {}),
    )
    return verify_sequence(H, K, rec)


def _gen_linear_kdv(spec: HierarchySpec) -> HierarchyRecord:
    ctx = Context(("u",))
    H = MatrixDiffOp.derivative(ctx, 3)
    K = MatrixDiffOp.derivative(ctx)
    plan = make_plan(K, "derivative")
    rec = lenard_extend(
        H, K, plan, [(ctx.gen(0),)], spec.depth, start_index=1, name=spec.name
    )
    return verify_sequence(H, K, rec)


def _hd_operators(ctx: Context, alpha, beta):
    u = ctx.gen(0)
    H = MatrixDiffOp.single(ctx, [(1, alpha), (3, beta)])
    K = MatrixDiffOp.single(ctx, [(0, u.total_derivative()), (1, u.scale(2))])
    return H, K


def _gen_hd(spec: HierarchySpec) -> HierarchyRecord:
    ctx = _make_context(("u",), spec.params)
    alpha = _coeff(ctx, spec.params, "alpha")
    beta = _coeff(ctx, spec.params, "beta")
    H, K = _hd_operators(ctx, alpha, beta)
    u = ctx.gen(0)
    half = Fraction(1, 2)
    plan = make_plan(K, "chain", [(u ** half).scale(2), u ** half])
    rec = lenard_extend(
        H,
        K,
        plan,
        [(u ** (-half),)],
        spec.depth,
        name=spec.name,
        params=_params_json(spec.params),
    )
    return verify_sequence(H, K, rec)


def _cnw_operators(ctx: Context, c):
    u, v = ctx.gen(0), ctx.gen(1)
    H = MatrixDiffOp(
        ctx,
        [
            [[(0, u.total_derivative()), (1, u.scale(2)), (3, c)], [(1, v)]],
            [[(0, v.total_derivative()), (1, v)], []],
        ],
    )
    K = MatrixDiffOp.derivative(ctx, 1, 2)
    return H, K


def _gen_cnw(spec: HierarchySpec) -> HierarchyRecord:
    ctx = _make_context(("u", "v"), spec.params)
    c = _coeff(ctx, spec.params, "c")
    H, K = _cnw_operators(ctx, c)
    plan = make_plan(K, "derivative")
    seeds = [
        (ctx.zero(), ctx.one()),
        (ctx.one(), ctx.zero()),
    ]
    rec = lenard_extend(
        H, K, plan, seeds, spec.depth, name=spec.name, params=_params_json(spec.params)
    )
    return verify_sequence(H, K, rec)


def _cnw_hd_operators(ctx: Context, alpha, beta):
    u, v = ctx.gen(0), ctx.gen(1)
    H = MatrixDiffOp(
        ctx,
        [
            [[(1, alpha), (3, beta)], []],
            [[], [(1, alpha)]],
        ],
    )
    K = MatrixDiffOp(
        ctx,
        [
            [[(0, u.total_derivative()), (1, u.scale(2))], [(1, v)]],
            [[(0, v.total_derivative()), (1, v)], []],
        ],
    )
    return H, K


def _gen_cnw_hd(spec: HierarchySpec) -> HierarchyRecord:
    ctx = _make_context(("u", "v"), spec.params, rename={"beta": "c"})
    alpha = _coeff(ctx, spec.params, "alpha")
    beta = _coeff(ctx, spec.params, "beta", rename={"beta": "c"})
    H, K = _cnw_hd_operators(ctx, alpha, beta)
    plan = make_plan(K, "cnw_hd")
    u, v = ctx.gen(0), ctx.gen(1)
    seeds = [
        (ctx.zero(), ctx.one()),
        (ctx.one() / v, -(u / (v * v))),
    ]
    rec = lenard_extend(
        H, K, plan, seeds, spec.depth, name=spec.name, params=_params_json(spec.params)
    )
    return verify_sequence(H, K, rec)


def _gen_pkdv(spec: HierarchySpec) -> HierarchyRecord:
    ctx = _make_context(("u",), spec.params)
    c = _coeff(ctx, spec.params, "c")
    u = ctx.gen(0)
    T = MatrixDiffOp.single(
        ctx,
        [(0, u.total_derivative(2)), (1, u.total_derivative().scale(2)), (3, c)],
    )
    S = MatrixDiffOp.derivative(ctx)
    plan = make_plan(S, "derivative")
    rec = lenard_extend(
        T,
        S,
        plan,
        [(ctx.one(),)],
        spec.depth,
        name=spec.name,
        kind="symplectic",
        params=_params_json(spec.params),
    )
    return verify_sequence(T, S, rec)


def _gen_kn(spec: HierarchySpec) -> HierarchyRecord:
    ctx = Context(("u",))
    up_inv = ctx.gen(0, 1) ** -1
    plan_factors = [up_inv, up_inv]
    d = MatrixDiffOp.derivative(ctx)
    S = MatrixDiffOp.mult(ctx, up_inv).compose(d).compose(
        MatrixDiffOp.mult(ctx, up_inv)
    )
    T = d.compose(S).compose(d)
    plan = make_plan(S, "chain", plan_factors)
    rec = lenard_extend(
        T,
        S,
        plan,
        [(ctx.gen(0, 1),)],
        spec.depth,
        name=spec.name,
        kind="symplectic",
    )
    return verify_sequence(T, S, rec)


def _nls_j(ctx: Context) -> MatrixDiffOp:
    one = ctx.one()
    return MatrixDiffOp(ctx, [[[], [(0, -one)]], [[(0, one)], []]])


def _gen_nls(spec: HierarchySpec) -> HierarchyRecord:
    """Coupled first-order recursion for the two generating functions
    (f_n, g_n), zero integration constants:

        f_{n+1}    = v d((f_n + d g_n)/u) + 4 u v g_n,
        d g_{n+1}  = -u d(f_n/v) - v d((f_n + d g_n)/u),

    from (f_0, g_0) = (0, 1/4); gradients are (f_n/v, (f_n + d g_n)/u) and
    flows are built from the next pair."""
    ctx = Context(("u", "v"))
    u, v = ctx.gen(0), ctx.gen(1)
    depth = spec.depth
    fs = [ctx.zero()]
    gs = [ctx.num(1, 4)]
    for _ in range(depth + 1):
        fn, gn = fs[-1], gs[-1]
        mixed = ((fn + gn.total_derivative()) / u).total_derivative()
        f_next = v * mixed + (u * v * gn).scale(4)
        g_next = _invert_total(-(u * (fn / v).total_derivative()) - v * mixed)
        fs.append(f_next)
        gs.append(g_next)

    def gradient(n: int) -> VectorExpr:
        return (fs[n] / v, (fs[n] + gs[n].total_derivative()) / u)

    steps = []
    for n in range(depth + 1):
        F = gradient(n)
        nxt = gradient(n + 1)
        flow = (-nxt[1], nxt[0])
        steps.append(HierarchyStep(n, F, _attach_density(F), flow))
    rec = HierarchyRecord(spec.name, "dirac", {}, steps)
    return _verify_nls(rec, _nls_j(ctx))


def _verify_nls(rec: HierarchyRecord, J: MatrixDiffOp) -> HierarchyRecord:
    steps = rec.steps
    ver = rec.verification
    Fs = [s.F for s in steps]
    JF = [J.apply(F) for F in Fs]
    ver.chain = all(
        steps[m + 1].F == (steps[m].flow[1], -steps[m].flow[0])
        for m in range(len(steps) - 1)
    )
    ver.orthogonality = all(
        LocalFunctional(vec_dot(Fs[m], JF[n])).is_zero()
        for m in range(len(Fs))
        for n in range(len(Fs))
    )
    hs = [s.h for s in steps if s.h is not None]
    inv = all(functional_bracket(J, a, b).is_zero() for a in hs for b in hs)
    ver.involution_h = inv
    ver.involution_k = inv
    ver.closed = [is_closed(F).closed for F in Fs]
    ver.gradients = all(
        s.h is None or variational_derivative(s.h.rep) == tuple(s.F) for s in steps
    )
    return rec


_BUILDERS = {
    "kdv": _gen_kdv,
    "dispersionless_kdv": lambda s: _gen_kdv(s, dispersionless=True),
    "linear_kdv": _gen_linear_kdv,
    "hd": _gen_hd,
    "cnw": _gen_cnw,
    "cnw_hd": _gen_cnw_hd,
    "nls": _gen_nls,
    "pkdv": _gen_pkdv,
    "kn": _gen_kn,
}


def generate(spec: HierarchySpec) -> HierarchyRecord:
    spec = spec.normalized()
    return _BUILDERS[spec.name](spec)


# ---------------------------------------------------------------------------
# golden data


def _odd_ff(n: int) -> int:
    """1 * 3 * ... * (2n - 1); empty product for n = 0."""
    out = 1
    for k in range(1, n + 1):
        out *= 2 * k - 1
    return out


def _golden_kdv(ctx: Context):
    F = {
        0: ("1",),
        1: ("u",),
        2: ("3/2*u^2 + c*u''",),
        3: ("5/2*u^3 + 5*c*u*u'' + 5/2*c*u'^2 + c^2*u^(4)",),
    }
    h = {
        0: "u",
        1: "1/2*u^2",
        2: "1/2*u^3 + 1/2*c*u*u''",
        3: "5/8*u^4 + 5/3*c*u^2*u'' + 5/6*c*u*u'^2 + 1/2*c^2*u*u^(4)",
    }
    flow = {
        0: ("u'",),
        1: ("3*u*u' + c*u'''",),
        2: ("15/2*u^2*u' + 10*c*u'*u'' + 5*c*u*u''' + c^2*u^(5)",),
    }
    parse = ctx.parse
    return (
        {n: tuple(parse(t) for t in v) for n, v in F.items()},
        {n: parse(t) for n, t in h.items()},
        {n: tuple(parse(t) for t in v) for n, v in flow.items()},
    )


def _golden_dispersionless(ctx: Context, depth: int):
    u = ctx.gen(0)
    F = {}
    h = {}
    for n in range(depth + 1):
        F[n] = ((u ** n).scale(Fraction(_odd_ff(n), _factorial(n))),)
        h[n] = (u ** (n + 1)).scale(Fraction(_odd_ff(n), _factorial(n + 1)))
    return F, h, {}


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _golden_linear(ctx: Context, depth: int):
    u = ctx.gen(0)
    F = {}
    h = {}
    for step in range(1, depth + 1):
        n = step - 1
        F[step] = (ctx.gen(0, 2 * n),)
        h[step] = (ctx.gen(0, n) ** 2).scale(Fraction((-1) ** n, 2))
    return F, h, {}


def _golden_hd(ctx: Context, alpha: Expression, beta: Expression):
    u = ctx.gen(0)
    q = Fraction
    upow = lambda e: u ** q(e)
    d2 = lambda e: upow(e).total_derivative(2)
    d4 = lambda e: upow(e).total_derivative(4)
    F0 = upow(q(-1, 2))
    F1 = alpha * upow(q(-3, 2)).scale(q(1, 4)) + beta * (upow(q(-5, 4)) * d2(q(-1, 4)))
    F2 = (
        alpha * alpha * upow(q(-5, 2)).scale(q(3, 32))
        + alpha * beta * (upow(q(-7, 4)) * d2(q(-3, 4))).scale(q(5, 12))
        + beta * beta * (upow(q(-7, 4)) * d4(q(-3, 4))).scale(q(1, 6))
    )
    h0 = upow(q(1, 2)).scale(2)
    h1 = -(alpha * upow(q(-1, 2)).scale(q(1, 2))) - beta * (
        upow(q(-1, 4)) * d2(q(-1, 4))
    ).scale(2)
    h2 = (
        -(alpha * alpha * upow(q(-3, 2)).scale(q(1, 16)))
        - alpha * beta * (upow(q(-3, 4)) * d2(q(-3, 4))).scale(q(5, 18))
        - beta * beta * (upow(q(-3, 4)) * d4(q(-3, 4))).scale(q(1, 9))
    )
    return (
        {0: (F0,), 1: (F1,), 2: (F2,)},
        {0: h0, 1: h1, 2: h2},
        {},
    )


def _golden_cnw(ctx: Context):
    parse = ctx.parse
    F = {
        0: ("0", "1"),
        1: ("1", "0"),
        2: ("u", "v"),
        3: ("c*u'' + 3/2*u^2 + 1/2*v^2", "u*v"),
    }
    h = {
        0: "v",
        1: "u",
        2: "1/2*u^2 + 1/2*v^2",
        3: "1/2*c*u*u'' + 1/2*u^3 + 1/2*u*v^2",
    }
    flow = {
        0: ("0", "0"),
        1: ("u'", "v'"),
        2: ("c*u''' + 3*u*u' + v*v'", "u*v' + u'*v"),
    }
    return (
        {n: tuple(parse(t) for t in v) for n, v in F.items()},
        {n: parse(t) for n, t in h.items()},
        {n: tuple(parse(t) for t in v) for n, v in flow.items()},
    )


def _golden_cnw_hd(ctx: Context, c_name: str = "c"):
    # the 1/v^2 and 1/v terms carry the sign forced by K F^2 = H F^1
    parse = ctx.parse
    c = c_name
    F = {
        0: ("0", "1"),
        1: ("v^(-1)", "-u*v^(-2)"),
        2: (
            "-u*v^(-3)",
            "3/2*u^2*v^(-4) + 1/2*v^(-2) + 3/2*%s*v'^2*v^(-4) - %s*v''*v^(-3)" % (c, c),
        ),
    }
    h = {
        0: "v",
        1: "u*v^(-1)",
        2: "-1/2*u^2*v^(-3) - 1/2*v^(-1) + 1/2*%s*v'^2*v^(-3)" % c,
    }
    pf = {n: tuple(parse(t) for t in v) for n, v in F.items()}
    ph = {n: parse(t) for n, t in h.items()}
    cc = ctx.param(c_name)
    flow = {}
    for n in (1, 2):
        f1, f2 = pf[n]
        flow[n] = (
            f1.total_derivative() + cc * f1.total_derivative(3),
            f2.total_derivative(),
        )
    flow[0] = (ctx.zero(), ctx.zero())
    return pf, ph, flow


def _golden_nls(ctx: Context):
    parse = ctx.parse
    F = {
        0: ("0", "0"),
        1: ("u", "v"),
        2: ("v'", "-u'"),
        3: ("-u'' - 2*u^3 - 2*u*v^2", "-v'' - 2*u^2*v - 2*v^3"),
        4: (
            "-v''' - 6*u^2*v' - 6*v^2*v'",
            "u''' + 6*u^2*u' + 6*v^2*u'",
        ),
    }
    h = {
        0: "0",
        1: "1/2*u^2 + 1/2*v^2",
        2: "1/2*u*v' - 1/2*u'*v",
        3: "1/2*u'^2 + 1/2*v'^2 - 1/2*u^4 - u^2*v^2 - 1/2*v^4",
        4: "1/2*u'*v'' - 1/2*u''*v' + 2*v^3*u' - 2*u^3*v'",
    }
    flow = {
        0: ("-v", "u"),
        1: ("u'", "v'"),
        2: ("v'' + 2*u^2*v + 2*v^3", "-u'' - 2*u^3 - 2*u*v^2"),
        3: (
            "-u''' - 6*u^2*u' - 6*v^2*u'",
            "-v''' - 6*u^2*v' - 6*v^2*v'",
        ),
    }
    return (
        {n: tuple(parse(t) for t in v) for n, v in F.items()},
        {n: parse(t) for n, t in h.items()},
        {n: tuple(parse(t) for t in v) for n, v in flow.items()},
    )


def _golden_pkdv(ctx: Context):
    parse = ctx.parse
    F = {
        0: ("1",),
        1: ("u'",),
        2: ("c*u''' + 3/2*u'^2",),
        3: ("c^2*u^(5) + 5*c*u'*u''' + 5/2*c*u''^2 + 5/2*u'^3",),
    }
    h = {
        0: "0",
        1: "-1/2*u'^2",
        2: "1/2*c*u''^2 - 1/2*u'^3",
        3: "-1/2*c^2*u'''^2 + 5/2*c*u'*u''^2 - 5/8*u'^4",
    }
    flow = {n: v for n, v in F.items()}
    return (
        {n: tuple(parse(t) for t in v) for n, v in F.items()},
        {n: parse(t) for n, t in h.items()},
        {n: tuple(parse(t) for t in v) for n, v in flow.items()},
    )


def _golden_kn(ctx: Context):
    parse = ctx.parse
    F = {
        0: ("u'",),
        1: ("u''' - 3/2*u''^2*u'^(-1)",),
    }
    h = {
        0: "0",
        1: "1/2*u''^2*u'^(-2)",
    }
    flow = {n: v for n, v in F.items()}
    return (
        {n: tuple(parse(t) for t in v) for n, v in F.items()},
        {n: parse(t) for n, t in h.items()},
        {n: tuple(parse(t) for t in v) for n, v in flow.items()},
    )


_GOLDEN_BINDINGS = {
    # families whose stored reference values exist only for one binding
    "kdv": {"c": None},
    "cnw": {"c": None},
    "cnw_hd": {"alpha": Fraction(1), "beta": None},
    "pkdv": {"c": None},
}


def _golden_data(spec: HierarchySpec, ctx: Context):
    name = spec.name
    want = _GOLDEN_BINDINGS.get(name)
    if want is not None and spec.params != want:
        raise PvakitError(
            "no reference values for %s with bindings %s" % (name, spec.params)
        )
    if name == "kdv":
        return _golden_kdv(ctx)
    if name == "dispersionless_kdv":
        return _golden_dispersionless(ctx, spec.depth)
    if name == "linear_kdv":
        return _golden_linear(ctx, spec.depth)
    if name == "hd":
        alpha = _coeff(ctx, spec.params, "alpha")
        beta = _coeff(ctx, spec.params, "beta")
        return _golden_hd(ctx, alpha, beta)
    if name == "cnw":
        return _golden_cnw(ctx)
    if name == "cnw_hd":
        return _golden_cnw_hd(ctx)
    if name == "nls":
        return _golden_nls(ctx)
    if name == "pkdv":
        return _golden_pkdv(ctx)
    if name == "kn":
        return _golden_kn(ctx)
    raise PvakitError("no golden data for %r" % name)


def golden_verify(
    spec: HierarchySpec, record: Optional[HierarchyRecord] = None
) -> CheckReport:
    """Compare a hierarchy against the reference values.

    ``record`` is the result of ``generate(spec)`` when the caller already
    has it; without it the hierarchy is generated here.  Gradient vectors
    and flows must match exactly; densities are compared modulo total
    derivatives.  The chain verification flags must all pass.
    """
    spec = spec.normalized()
    rec = generate(spec) if record is None else record
    ctx = rec.steps[0].F[0].ctx
    gF, gh, gflow = _golden_data(spec, ctx)
    failures = []
    present = {s.n for s in rec.steps}
    for n, want in gF.items():
        if n not in present:
            continue
        got = rec.step(n).F
        if tuple(got) != tuple(want):
            failures.append(
                CheckFailure(
                    "golden",
                    (n, "F"),
                    "want %s, got %s"
                    % ([w.render() for w in want], [g.render() for g in got]),
                )
            )
    for n, want in gh.items():
        if n not in present:
            continue
        got = rec.step(n).h
        if got is None or got != LocalFunctional(want):
            failures.append(
                CheckFailure(
                    "golden",
                    (n, "h"),
                    "want %s, got %s"
                    % (want.render(), got.rep.render() if got else None),
                )
            )
    for n, want in gflow.items():
        if n not in present:
            continue
        got = rec.step(n).flow
        if tuple(got) != tuple(want):
            failures.append(
                CheckFailure(
                    "golden",
                    (n, "flow"),
                    "want %s, got %s"
                    % ([w.render() for w in want], [g.render() for g in got]),
                )
            )
    if not rec.verification.passed():
        failures.append(
            CheckFailure(
                "verification", None, str(rec.verification.to_json())
            )
        )
    return CheckReport(not failures, failures)
