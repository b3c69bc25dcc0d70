"""The three workloads of the pvakit benchmark.

Each builder takes the seeded ``random.Random`` and returns a Workload: a
fixed list of ops, each tagged with one of four groups.  An op's ``run``
is the only part that is timed; ``check`` looks at its output afterwards
and returns None when the output is right, ``("known", why)`` for a known
defect of pvakit, or ``("error", why)`` for anything else.

* ``hierarchy_verify`` calls ``pvakit hierarchy NAME --depth D --verify
  --json`` in process for all nine families; the seed only orders them.
  Groups are the recursion paths (derivative, chain, symplectic, dirac).
* ``structure_checks`` is a stream of short CLI commands (``check-pva``,
  ``check-compat``, ``check-symplectic``, ``bracket``) on operators whose
  verdict is known by construction.  Groups are the four commands.
* ``exactness`` is a stream of direct library calls on random
  differential functions (``integrate_total``, ``exactify``,
  ``is_closed``, ``LocalFunctional.compare``).  Groups are the four calls.

Only the generated inputs reach pvakit; all of pvakit is reached through
``env``, so the tracer can re-bind what the ops call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

HASH_FILE = Path(__file__).with_name("hierarchy_sha256.json")

# default depth + 1, except hd (depth 3 costs about 11 s with --verify)
# and nls
HIERARCHY_DEPTH = {
    "kdv": 4,
    "dispersionless_kdv": 9,
    "linear_kdv": 10,
    "hd": 2,
    "cnw": 4,
    "cnw_hd": 3,
    "nls": 6,
    "pkdv": 4,
    "kn": 2,
}

HIERARCHY_PATH = {
    "kdv": "derivative",
    "dispersionless_kdv": "derivative",
    "linear_kdv": "derivative",
    "cnw": "derivative",
    "hd": "chain",
    "cnw_hd": "chain",
    "pkdv": "symplectic",
    "kn": "symplectic",
    "nls": "dirac",
}

GROUPS = {
    "hierarchy_verify": ("derivative", "chain", "symplectic", "dirac"),
    "structure_checks": ("check-pva", "check-compat", "check-symplectic", "bracket"),
    "exactness": ("integrate_total", "exactify", "is_closed", "compare"),
}


class Env:
    """The freshly imported pvakit package and the CLI entry point to use."""

    def __init__(self, pk, main):
        self.pk = pk
        self.main = main

    def cli(self, argv):
        """Run the CLI in process; return (exit code, stdout)."""
        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                self.main(argv, prog_name="pvakit")
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()


class Op:
    __slots__ = ("group", "label", "run", "check")

    def __init__(self, group, label, run, check):
        self.group = group
        self.label = label
        self.run = run  # env -> output
        self.check = check  # (env, output) -> None | (kind, why)


class Workload:
    def __init__(self, name, ops, notes=None):
        self.name = name
        self.groups = GROUPS[name]
        self.ops = ops
        self.notes = dict(notes or {})  # what set-up noticed about pvakit


class Draw:
    """The two random streams of a builder.

    ``shape`` is seeded with a constant and draws the structure of every
    input: variables, orders and exponents, operator sizes and powers, and
    which coefficients carry a parameter.  ``coef`` is seeded with
    ``--seed`` and draws the rational coefficient values and the order of
    the ops.  Every seed so runs the same mix of shapes with its own
    numbers, and the cost of a pass hardly depends on the seed.
    """

    SHAPE_SEED = 907127500

    def __init__(self, seed):
        self.shape = random.Random(self.SHAPE_SEED)
        self.coef = random.Random(seed)


def build(name, seed, env, tiny=False):
    return BUILDERS[name](Draw(seed), env, tiny)


def warm_up(env):
    """A few tiny calls through every layer, identical for all workloads."""
    env.cli(["--params", "c", "check-pva", "--op", "u' + 2*u*d + c*d^3"])
    env.cli(["--params", "c", "vder", "1/2*u^3 + 1/2*c*u*u''"])
    env.cli(["hierarchy", "kdv", "--depth", "1", "--verify", "--json"])


# ---------------------------------------------------------------------------
# hierarchy_verify


def load_hashes():
    with open(HASH_FILE) as fh:
        return json.load(fh)


def hierarchy_argv(family):
    return ["hierarchy", family, "--depth", str(HIERARCHY_DEPTH[family]),
            "--verify", "--json"]


def _hierarchy_check(key, want):
    def check(env, out):
        code, text = out
        if code != 0:
            return ("error", "%s exited %s" % (key, code))
        got = hashlib.sha256(text.encode()).hexdigest()
        if got != want:
            return ("error", "%s: --json output differs from the recorded bytes" % key)
        return None
    return check


def build_hierarchy(draw, env, tiny):
    hashes = load_hashes()
    # tiny: the cheapest family of each recursion path
    families = ["dispersionless_kdv", "cnw_hd", "kn", "nls"] if tiny else list(HIERARCHY_DEPTH)
    draw.coef.shuffle(families)
    ops = []
    for family in families:
        argv = hierarchy_argv(family)
        key = " ".join(argv[1:4])
        ops.append(Op(
            HIERARCHY_PATH[family], key,
            lambda env, argv=argv: env.cli(argv),
            _hierarchy_check(key, hashes.get(key)),
        ))
    return Workload("hierarchy_verify", ops)


# ---------------------------------------------------------------------------
# random inputs

_EXPONENTS = (1, 1, 2, 2, 3, -1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))


def rand_rational(rng):
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))


def rand_coeff(draw, ctx):
    """A nonzero rational, times a parameter in half the cases."""
    c = ctx.num(rand_rational(draw.coef))
    if ctx.params and draw.shape.random() < 0.5:
        c = c * ctx.param(draw.shape.choice(ctx.params))
    return c


def rand_expr(draw, ctx, nterms, nfactors, max_order):
    """Sum of ``nterms`` random terms with negative and half-integer
    exponents and symbolic coefficients in about half the terms."""
    total = ctx.zero()
    for _ in range(nterms):
        t = rand_coeff(draw, ctx)
        for _ in range(draw.shape.randint(1, nfactors)):
            var = ctx.gen(draw.shape.randrange(ctx.nvars), draw.shape.randint(0, max_order))
            t = t * var ** draw.shape.choice(_EXPONENTS)
        total = total + t
    return total


# ---------------------------------------------------------------------------
# structure_checks


def expression_text(pk, e, notes):
    """CLI text of an expression: ``render()`` when it parses back.

    ``render()`` leaves out the parentheses around a coefficient that is a
    sum with a fraction in it, so (8/3 - 8*c)*u^(4) comes out as
    ``-8*c + 8/3*u^(4)``; ``render_entry`` does the same to a constant
    coefficient of ``d^k``.  Such an expression is written term by term
    with its coefficients in parentheses instead, and counted in ``notes``.
    """
    text = e.render()
    if pk.parse_expression(text, e.ctx) == e:
        return text
    notes["render() texts that do not parse back"] += 1
    terms = []
    for m, c in e.terms.items():
        factors = ["(%s)" % c.render(e.ctx.params)]
        for g, x in m:
            power = "^%d" % x if x == int(x) and x >= 0 else "^(%s)" % x
            factors.append(e.ctx.gen_name(g) + ("" if x == 1 else power))
        terms.append("*".join(factors))
    text = " + ".join(terms)
    if pk.parse_expression(text, e.ctx) != e:
        raise AssertionError("expression text does not parse back: %s" % text)
    return text


def operator_text(pk, op, notes):
    """CLI text of an operator: render_entry joined with ', ' and '; '.

    An entry whose text does not parse back is written coefficient by
    coefficient with expression_text; the whole text must parse back to
    ``op``.
    """
    rows = []
    for i in range(op.nrows):
        row = []
        for j in range(op.ncols):
            text = op.render_entry(i, j)
            entry = op.entry(i, j)
            if entry and pk.parse_operator(text, op.ctx).entry(0, 0) != entry:
                notes["render_entry texts that do not parse back"] += 1
                text = " + ".join(
                    "(%s)*d^%d" % (expression_text(pk, a, notes), p) if p
                    else "(%s)" % expression_text(pk, a, notes)
                    for p, a in entry
                )
            row.append(text)
        rows.append(", ".join(row))
    text = "; ".join(rows)
    if pk.parse_operator(text, op.ctx) != op:
        raise AssertionError("operator text does not parse back: %s" % text)
    return text


def _session(ctx):
    argv = ["--vars", ",".join(ctx.var_names)]
    if ctx.params:
        argv += ["--params", ",".join(ctx.params)]
    return argv


def _hydro(pk, draw):
    """g(u) d + 1/2 g(u)', plus a constant times d^3 when g is affine:
    Hamiltonian for every g."""
    ctx = pk.Context(("u",), ("c",))
    u = ctx.gen(0)
    affine = draw.shape.random() < 0.35
    choices = (0, 1) if affine else (0, 1, 2, 3, -1, -2, Fraction(1, 2),
                                     Fraction(-1, 2), Fraction(3, 2))
    exps = draw.shape.sample(choices, draw.shape.randint(1, len(choices) if affine else 3))
    g = ctx.zero()
    for e in exps:
        g = g + rand_coeff(draw, ctx) * u ** e
    terms = [(0, g.total_derivative().scale(Fraction(1, 2))), (1, g)]
    if affine:
        terms.append((3, rand_coeff(draw, ctx)))
    return pk.MatrixDiffOp.single(ctx, terms)


def _const_skew(pk, draw):
    """Constant-coefficient skew-adjoint matrix: Hamiltonian and symplectic."""
    n = draw.shape.randint(1, 3)
    ctx = pk.Context(("u", "v", "w")[:n], ("c",))
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            powers = (1, 3) if i == j else (0, 1, 2, 3)
            for p in draw.shape.sample(powers, draw.shape.randint(1, 2)):
                a = rand_coeff(draw, ctx)
                rows[i][j].append((p, a))
                if i != j:
                    rows[j][i].append((p, a.scale(-(-1) ** p)))
    return pk.MatrixDiffOp(ctx, rows)


def _kdv(pk, draw):
    """r (u' + 2 u d + c d^3) for a random rational r."""
    ctx = pk.Context(("u",), ("c",))
    u = ctx.gen(0)
    terms = [(0, u.total_derivative()), (1, u.scale(2)), (3, ctx.param("c"))]
    return pk.MatrixDiffOp.single(ctx, terms).scale(rand_rational(draw.coef))


def _compat_pair(pk, draw, family):
    """A compatible operator pair of a shipped family, scaled by random
    rationals, with symbolic parameters."""
    M = pk.MatrixDiffOp
    if family in ("kdv", "hd"):
        params = ("c",) if family == "kdv" else ("alpha", "beta")
        ctx = pk.Context(("u",), params)
        u = ctx.gen(0)
        lie = [(0, u.total_derivative()), (1, u.scale(2))]
        if family == "kdv":
            H = M.single(ctx, lie + [(3, ctx.param("c"))])
            K = M.derivative(ctx)
        else:
            H = M.single(ctx, [(1, ctx.param("alpha")), (3, ctx.param("beta"))])
            K = M.single(ctx, lie)
    else:
        params = ("c",) if family == "cnw" else ("alpha", "beta")
        ctx = pk.Context(("u", "v"), params)
        u, v = ctx.gen(0), ctx.gen(1)
        wave = M(ctx, [
            [[(0, u.total_derivative()), (1, u.scale(2))], [(1, v)]],
            [[(0, v.total_derivative()), (1, v)], []],
        ])
        if family == "cnw":
            H = wave + M(ctx, [[[(3, ctx.param("c"))], []], [[], []]])
            K = M.derivative(ctx, 1, 2)
        else:
            alpha, beta = ctx.param("alpha"), ctx.param("beta")
            H = M(ctx, [[[(1, alpha), (3, beta)], []], [[], [(1, alpha)]]])
            K = wave
    pair = [H.scale(rand_rational(draw.coef)), K.scale(rand_rational(draw.coef))]
    draw.coef.shuffle(pair)
    return pair


def _self_adjoint_part(pk, draw, ctx):
    """a d^2 + a' d for a random nonzero a: self-adjoint, so adding it to a
    skew-adjoint operator breaks skew-adjointness."""
    a = ctx.zero()
    while a.is_zero():
        a = rand_expr(draw, ctx, 1, 2, 1)
    rows = [[[] for _ in range(ctx.nvars)] for _ in range(ctx.nvars)]
    rows[0][0] = [(1, a.total_derivative()), (2, a)]
    return pk.MatrixDiffOp(ctx, rows)


def _report_check(expect_pass):
    def check(env, out):
        code, text = out
        try:
            report = json.loads(text)
        except ValueError:
            return ("error", "exit %s, output is not a JSON report" % code)
        if expect_pass:
            if code != 0 or not report["passed"] or report["failures"]:
                return ("error", "expected pass, got exit %s" % code)
            return None
        skew_only = [f["triple"] for f in report["failures"]] == [None]
        if code != 1 or report["passed"] or not skew_only:
            return ("error", "expected one skew failure, got exit %s" % code)
        return None
    return check


def _bracket_check(H, f, g):
    def check(env, out):
        code, text = out
        pk = env.pk
        fg = pk.lambda_bracket(H, f, g)
        if code != 0 or text.strip() != fg.render():
            return ("error", "bracket output differs from {f_lam g}")
        if pk.skew_image(pk.lambda_bracket(H, g, f)) != fg:
            return ("error", "{g_lam f} != -{f_(-lam-d) g}")
        return None
    return check


# per pass: (group, kind, count); 160 ops
STRUCTURE_MIX = (
    ("check-pva", "hydro", 30),
    ("check-pva", "const_skew", 14),
    ("check-pva", "hydro_not_skew", 6),
    ("check-compat", "kdv", 6),
    ("check-compat", "hd", 6),
    ("check-compat", "cnw", 6),
    ("check-compat", "cnw_hd", 6),
    ("check-symplectic", "two_form", 24),
    ("check-symplectic", "const_skew", 10),
    ("check-symplectic", "two_form_not_skew", 6),
    ("bracket", "kdv", 20),
    ("bracket", "hydro", 26),
)


def _structure_op(pk, draw, group, kind, notes):
    if group == "check-compat":
        pair = _compat_pair(pk, draw, kind)
        argv = _session(pair[0].ctx) + ["check-compat", "--json"]
        for op in pair:
            argv += ["--op", operator_text(pk, op, notes)]
        return argv, _report_check(True)
    if group == "bracket":
        H = _kdv(pk, draw) if kind == "kdv" else _hydro(pk, draw)
        ctx = H.ctx
        f = rand_expr(draw, ctx, draw.shape.randint(1, 2), 2, 2)
        g = rand_expr(draw, ctx, draw.shape.randint(1, 2), 2, 2)
        argv = _session(ctx) + ["bracket", "--op", operator_text(pk, H, notes),
                                "--", expression_text(pk, f, notes), expression_text(pk, g, notes)]
        return argv, _bracket_check(H, f, g)
    if kind in ("hydro", "hydro_not_skew"):
        op = _hydro(pk, draw)
    elif kind == "const_skew":
        op = _const_skew(pk, draw)
    else:
        ctx = pk.Context(("u", "v", "w")[:draw.shape.randint(1, 3)], ("c",))
        F = tuple(rand_expr(draw, ctx, 2, 2, 2) for _ in range(ctx.nvars))
        op = pk.two_form_from_potential(F)
    expect_pass = not kind.endswith("not_skew")
    if not expect_pass:
        op = op + _self_adjoint_part(pk, draw, op.ctx)
    argv = _session(op.ctx) + [group, "--json", "--op", operator_text(pk, op, notes)]
    return argv, _report_check(expect_pass)


def build_structure(draw, env, tiny):
    notes = Counter()
    ops = []
    for group, kind, count in STRUCTURE_MIX:
        for _ in range(1 if tiny else count):
            argv, check = _structure_op(env.pk, draw, group, kind, notes)
            ops.append(Op(group, "%s %s" % (group, kind),
                          lambda env, argv=argv: env.cli(argv), check))
    draw.coef.shuffle(ops)
    return Workload("structure_checks", ops, notes)


# ---------------------------------------------------------------------------
# exactness

EXACTNESS_PER_GROUP = 60
# compare ops per pass whose g has a term x/x' (x = u_i^(n)), so that d g
# has a constant term: LocalFunctional.compare calls f and f + d g unequal
KNOWN_FALSE_NEGATIVES = 2


def _exactness_op(pk, draw, group, ctx, log_ratio=False):
    f = rand_expr(draw, ctx, 2, 3, 3)
    g = rand_expr(draw, ctx, 2, 3, 3)
    if log_ratio:
        w = ctx.gen(draw.shape.randrange(ctx.nvars), draw.shape.randint(0, 2))
        g = g + rand_coeff(draw, ctx) * w / w.total_derivative()
    if group == "integrate_total":
        x = g.total_derivative()

        def check(env, out):
            antider, const = out
            if antider.total_derivative() + ctx.coeff_expr(const) != x:
                return ("error", "d(g) + const != input")
            return None
        return (lambda env: env.pk.integrate_total(x)), check
    if group in ("exactify", "is_closed"):
        F = pk.variational_derivative(f)
        if group == "is_closed":
            return (lambda env: env.pk.is_closed(F)), (
                lambda env, out: None if out.closed else ("error", "gradient not closed"))

        def check(env, out):
            if env.pk.variational_derivative(out) != F:
                return ("error", "delta(potential) != F")
            return None
        return (lambda env: env.pk.exactify(F)), check
    a = pk.LocalFunctional(f)
    b = pk.LocalFunctional(f + g.total_derivative())

    def check(env, out):
        if out.equal:
            return None
        diff = a.rep - b.rep
        if (all(c.is_zero() for c in env.pk.variational_derivative(diff))
                and not diff.constant_coefficient().is_zero()):
            # int(f) = int(f + d g) in V/dV, but d g has a constant term
            return ("known", "compare false negative: d g has a constant term")
        return ("error", "f and f + d g compare unequal")
    return (lambda env: a.compare(b)), check


def build_exactness(draw, env, tiny):
    pk = env.pk
    ctxs = (pk.Context(("u",), ("c",)), pk.Context(("u", "v"), ("c",)))
    per_group = 2 if tiny else EXACTNESS_PER_GROUP
    ops = []
    for group in GROUPS["exactness"]:
        for k in range(per_group):
            ctx = ctxs[k % 2]
            log_ratio = group == "compare" and k < KNOWN_FALSE_NEGATIVES
            run, check = _exactness_op(pk, draw, group, ctx, log_ratio)
            label = "%s %s" % (group, ",".join(ctx.var_names))
            ops.append(Op(group, label, run, check))
    draw.coef.shuffle(ops)
    return Workload("exactness", ops)


BUILDERS = {
    "hierarchy_verify": build_hierarchy,
    "structure_checks": build_structure,
    "exactness": build_exactness,
}
