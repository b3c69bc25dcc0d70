"""Reference versions of library routines, kept as the definitions read.

The first functions differentiate every slice from scratch; the library
computes the same values along one chain of derivatives (Horner form).
The verifiers below evaluate orthogonality and involution separately, with
a second verifier for the one-operator NLS chain, and gen_bracket carries
its own loop; the library reads every check from one pairing matrix per
operator and shares one loop between the generator bracket and
lambda_bracket.  is_closed always builds the defect operator, and exactify
decides closedness by it before it looks for a potential; the library
first certifies closedness by delta of the scaling potential.  The symbol
routines below carry their own binomial loops, and the nested brackets
and structure checks one loop per slot; the library runs symbols on the
operator-entry routines and shares one lift, one slice loop and one
triple checker.  shift applies (lambda + mu + d) once per step, the
triple residuals shift every slice in two variables, nested_bracket_composed
spreads each term binomially on its own, and check_pva and
check_symplectic evaluate every triple; the library reads one-variable
symbols at lambda + mu and builds each triple with i > j from its mirror.
check_compatible mixes the operators with fresh parameters t1, t2, ...;
the library checks every pairwise sum in the operators' own context.
test_fastpaths.py and test_verify_reference.py pin each pair together.
"""

from fractions import Fraction
from itertools import product
from math import comb

from pvakit.algebra import Context, vec_dot, vec_is_zero
from pvakit.brackets import CheckFailure, CheckReport, functional_bracket
from pvakit.brackets import check_pva as lib_check_pva
from pvakit.errors import IndividualFailure, NotClosed
from pvakit.operators import BiLambdaPoly, LambdaPoly, MatrixDiffOp
from pvakit.parsing import parse_operator
from pvakit.varcalc import (
    ClosednessReport,
    LocalFunctional,
    _exactify_inductive,
    frechet,
    variational_derivative as vder,
)


def variational_derivative(f):
    """sum_n (-d)^n (df/du_i^(n)), one total derivative power per slice."""
    ctx = f.ctx
    out = []
    for i in range(ctx.nvars):
        acc = ctx.zero()
        for n in range(f.max_order() + 1):
            p = f.partial(i, n)
            if not p.is_zero():
                acc = acc + p.total_derivative(n).scale((-1) ** n)
        out.append(acc)
    return tuple(out)


def euler_operator(f, i, m):
    """sum_n C(n,m) (-1)^n d^(n-m) (df/du_i^(n))."""
    acc = f.ctx.zero()
    for n in range(m, f.max_order() + 1):
        p = f.partial(i, n)
        if not p.is_zero():
            acc = acc + p.total_derivative(n - m).scale((-1) ** n * comb(n, m))
    return acc


def entry_adjoint(entry):
    """sum_k (-d)^k o a_k expanded, as (power, coeff) pairs."""
    out = []
    for p, a in entry:
        sign = -1 if p % 2 else 1
        for k in range(p + 1):
            out.append((k, a.total_derivative(p - k).scale(sign * comb(p, k))))
    return out


def entry_compose(ea, eb):
    """(a d^p) o (b d^q) expanded by the Leibniz rule."""
    out = []
    for p, a in ea:
        for q, b in eb:
            for k in range(p + 1):
                out.append((k + q, a * b.total_derivative(p - k).scale(comb(p, k))))
    return out


def subst_neg_shift(x):
    """x with lambda -> -lambda - d, the derivative acting on the
    coefficient it lands on."""
    out = {}
    for k, v in x.coeffs.items():
        sign = -1 if k % 2 else 1
        dv = v
        for j in range(k, -1, -1):
            term = dv.scale(sign * comb(k, j))
            out[j] = out[j] + term if j in out else term
            if j:
                dv = dv.total_derivative()
    return LambdaPoly(x.ctx, out)


def op_apply(x, entry):
    """An operator entry with d replaced by (lambda + d), applied to x."""
    out = LambdaPoly(x.ctx, {})
    shifted = x
    last = 0
    for p, a in entry:
        shifted = shifted.shift_apply(p - last)
        last = p
        out = out + shifted.mul_expr(a)
    return out


def shift(x, sign, times):
    """(sign * (lambda + mu + d))^times applied to x, d acting on
    coefficients."""
    cur = x
    for _ in range(times):
        out = {}

        def put(key, val):
            out[key] = out[key] + val if key in out else val

        for (a, b), v in cur.coeffs.items():
            put((a + 1, b), v.scale(sign))
            put((a, b + 1), v.scale(sign))
            dv = v.total_derivative().scale(sign)
            if not dv.is_zero():
                put((a, b), dv)
        cur = BiLambdaPoly(x.ctx, out)
    return cur


def shift_both_neg(x, times):
    return shift(x, -1, times)


def op_apply_both(x, entry):
    """An operator entry with d replaced by (lambda + mu + d), applied to x."""
    out = BiLambdaPoly(x.ctx, {})
    shifted = x
    last = 0
    for p, a in entry:
        shifted = shift(shifted, 1, p - last)
        last = p
        out = out + shifted.mul_expr(a)
    return out


def lambda_bracket(H, f, g):
    """{f_lam g}, applying (-lam-d) to each slice m times over."""
    ctx = f.ctx
    zero = LambdaPoly(ctx, {})
    A = []
    for i in range(ctx.nvars):
        acc = zero
        for m in range(f.max_order() + 1):
            p = f.partial(i, m)
            if p.is_zero():
                continue
            term = LambdaPoly.of(p)
            for _ in range(m):
                term = -term.shift_apply()
            acc = acc + term
        A.append(acc)
    out = zero
    for j in range(ctx.nvars):
        cj = zero
        for i in range(ctx.nvars):
            entry = H.entry(j, i)
            if entry and not A[i].is_zero():
                cj = cj + op_apply(A[i], entry)
        shifted = cj
        last = 0
        for n in range(g.max_order() + 1):
            p = g.partial(j, n)
            if p.is_zero():
                continue
            shifted = shifted.shift_apply(n - last)
            last = n
            out = out + shifted.mul_expr(p)
    return out


def gen_bracket(H, i, x):
    """{u_i lam x} = sum_{h,n} dx/du_h^(n) (lam+d)^n H_hi(lam)."""
    ctx = x.ctx
    out = LambdaPoly(ctx, {})
    for h in range(ctx.nvars):
        sym = H.symbol(h, i)
        if sym.is_zero():
            continue
        shifted = sym
        last = 0
        for n in range(x.max_order() + 1):
            p = x.partial(h, n)
            if p.is_zero():
                continue
            shifted = shifted.shift_apply(n - last)
            last = n
            out = out + shifted.mul_expr(p)
    return out


def jacobi_triple_residual(H, i, j, k):
    """The generator-triple Jacobi residual, built on gen_bracket."""
    ctx = H.ctx
    res = BiLambdaPoly(ctx, {})
    for b, xb in H.symbol(k, j).coeffs.items():
        lp = gen_bracket(H, i, xb)
        res = res + BiLambdaPoly(ctx, {(a, b): v for a, v in lp.coeffs.items()})
    for a, ya in H.symbol(k, i).coeffs.items():
        lp = gen_bracket(H, j, ya)
        res = res - BiLambdaPoly(ctx, {(a, b): v for b, v in lp.coeffs.items()})
    for a, za in H.symbol(j, i).coeffs.items():
        for h in range(ctx.nvars):
            entry = H.entry(k, h)
            if not entry:
                continue
            for n in range(za.max_order() + 1):
                p = za.partial(h, n)
                if p.is_zero():
                    continue
                B = shift_both_neg(BiLambdaPoly(ctx, {(a, 0): p}), n)
                res = res - op_apply_both(B, entry)
    return res


def nested_bracket_left(H, f, x):
    """{f_lam x}, the degrees of x read as powers of mu."""
    ctx = f.ctx
    out = BiLambdaPoly(ctx, {})
    for b, xb in x.coeffs.items():
        lp = lambda_bracket(H, f, xb)
        out = out + BiLambdaPoly(ctx, {(a, b): v for a, v in lp.coeffs.items()})
    return out


def nested_bracket_right(H, f, x):
    """{f_mu x}, the degrees of x read as powers of lambda."""
    ctx = f.ctx
    out = BiLambdaPoly(ctx, {})
    for a, xa in x.coeffs.items():
        lp = lambda_bracket(H, f, xa)
        out = out + BiLambdaPoly(ctx, {(a, b): v for b, v in lp.coeffs.items()})
    return out


def nested_bracket_composed(H, x, g):
    """{x(lam)_{lam+mu} g}, each term of each bracket spread binomially
    over lambda and mu one key at a time."""
    ctx = g.ctx
    out = BiLambdaPoly(ctx, {})
    for a, xa in x.coeffs.items():
        lp = lambda_bracket(H, xa, g)
        for k, w in lp.coeffs.items():
            for j in range(k + 1):
                out = out + BiLambdaPoly(ctx, {(a + j, k - j): w.scale(comb(k, j))})
    return out


def check_pva(H):
    """Skew-adjointness, then the Jacobi residual on every triple."""
    defect = H.adjoint() + H
    if not defect.is_zero():
        return CheckReport(False, [CheckFailure("skew", None, defect.render(), defect)])
    failures = []
    for i, j, k in product(range(H.ctx.nvars), repeat=3):
        r = jacobi_triple_residual(H, i, j, k)
        if not r.is_zero():
            failures.append(CheckFailure("jacobi", (i + 1, j + 1, k + 1), r.render(), r))
    return CheckReport(not failures, failures)


def symplectic_triple_residual(S, i, j, k):
    """The two-form closedness residual, one slice loop per term."""
    ctx = S.ctx
    res = BiLambdaPoly(ctx, {})
    for b, sb in S.symbol(k, i).coeffs.items():
        for n in range(sb.max_order() + 1):
            p = sb.partial(j, n)
            if not p.is_zero():
                res = res + BiLambdaPoly(ctx, {(n, b): p})
    for a, sa in S.symbol(k, j).coeffs.items():
        for n in range(sa.max_order() + 1):
            p = sa.partial(i, n)
            if not p.is_zero():
                res = res - BiLambdaPoly(ctx, {(a, n): p})
    for a, sa in S.symbol(i, j).coeffs.items():
        for n in range(sa.max_order() + 1):
            p = sa.partial(k, n)
            if not p.is_zero():
                res = res + shift_both_neg(BiLambdaPoly(ctx, {(a, 0): p}), n)
    return res


def check_symplectic(S):
    """Skew-adjointness, then the closedness residual on every triple."""
    defect = S.adjoint() + S
    if not defect.is_zero():
        return CheckReport(False, [CheckFailure("skew", None, defect.render(), defect)])
    failures = []
    for i, j, k in product(range(S.ctx.nvars), repeat=3):
        r = symplectic_triple_residual(S, i, j, k)
        if not r.is_zero():
            failures.append(
                CheckFailure("symplectic", (i + 1, j + 1, k + 1), r.render(), r)
            )
    return CheckReport(not failures, failures)


def mixing_context(ctx, count):
    """ctx with fresh parameters t1, t2, ... appended, one per operator,
    skipping names already taken."""
    taken = set(ctx.params) | set(ctx.var_names)
    names = []
    k = 1
    while len(names) < count:
        if "t%d" % k not in taken:
            names.append("t%d" % k)
        k += 1
    return Context(ctx.var_names, ctx.params + tuple(names)), names


def reembed(op, ctx):
    """op over a context with the same variables and more parameters,
    through its rendered text."""
    rows = (
        ", ".join(op.render_entry(i, j) for j in range(op.ncols))
        for i in range(op.nrows)
    )
    return parse_operator("; ".join(rows), ctx)


def check_compatible(ops):
    """The generic combination sum t_a H_a over QQ(params, t1, ...) must
    pass the Hamiltonian test."""
    if len({op.ctx for op in ops}) != 1:
        raise ValueError("operators must share one context")
    bad = [idx for idx, H in enumerate(ops) if not lib_check_pva(H).passed]
    if bad:
        raise IndividualFailure(bad)
    big, names = mixing_context(ops[0].ctx, len(ops))
    n = ops[0].nrows
    total = MatrixDiffOp.zero(big, n)
    for name, H in zip(names, ops):
        t = big.param(name)
        diag = MatrixDiffOp(big, [[[(0, t)] if i == j else [] for j in range(n)] for i in range(n)])
        total = total + diag.compose(reembed(H, big))
    return lib_check_pva(total)


def is_closed(F):
    """D_F = D_F^*, decided by the defect operator D_F - D_F^*."""
    d = frechet(F)
    defect = d - d.adjoint()
    return ClosednessReport(defect.is_zero(), defect)


def exactify(F):
    """Closedness by the defect first, then the grading shortcut checked by
    delta, then the inductive algorithm."""
    if vec_is_zero(F):
        return F[0].ctx.zero()
    report = is_closed(F)
    if not report.closed:
        raise NotClosed("defect operator: %s" % report.defect.render())
    ctx = F[0].ctx
    w = ctx.zero()
    for i, fi in enumerate(F):
        w = w + ctx.gen(i, 0) * fi
    f = ctx.zero()
    for d, comp in w.degree_components():
        if d == 0:
            return _exactify_inductive(F)
        f = f + comp.scale(Fraction(1) / d)
    if vder(f) == tuple(F):
        return f
    return _exactify_inductive(F)


def verify_sequence(H, K, record):
    """Verification flags of a Hamiltonian or symplectic chain, every
    pairing and every bracket evaluated on its own."""
    steps = record.steps
    ver = record.verification
    if not steps:
        ver.chain = ver.orthogonality = True
        ver.involution_h = ver.involution_k = ver.gradients = True
        ver.closed = []
        return record
    Fs = [s.F for s in steps]
    HF = [H.apply(F) for F in Fs]
    KF = [K.apply(F) for F in Fs]
    ver.chain = all(KF[m + 1] == HF[m] for m in range(len(Fs) - 1))
    ortho = True
    for m in range(len(Fs)):
        for n in range(len(Fs)):
            for image in (HF[n], KF[n]):
                if not LocalFunctional(vec_dot(Fs[m], image)).is_zero():
                    ortho = False
    ver.orthogonality = ortho
    gradients = [F if record.kind == "hamiltonian" else KFn for F, KFn in zip(Fs, KF)]
    ver.closed = [is_closed(g).closed for g in gradients]
    ok = True
    for s, g in zip(steps, gradients):
        if s.h is not None and vder(s.h.rep) != tuple(g):
            ok = False
    ver.gradients = ok
    if record.kind == "hamiltonian":
        hs = [s.h for s in steps if s.h is not None]
        ver.involution_h = all(
            functional_bracket(H, a, b).is_zero() for a in hs for b in hs
        )
        ver.involution_k = all(
            functional_bracket(K, a, b).is_zero() for a in hs for b in hs
        )
    else:
        ver.involution_h = all(
            LocalFunctional(vec_dot(Fs[m], HF[n])).is_zero()
            for m in range(len(Fs))
            for n in range(len(Fs))
        )
        ver.involution_k = all(
            LocalFunctional(vec_dot(Fs[m], KF[n])).is_zero()
            for m in range(len(Fs))
            for n in range(len(Fs))
        )
    return record


def verify_nls(rec, J):
    """Verification flags of the NLS chain with its one operator J."""
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
    ver.gradients = all(s.h is None or vder(s.h.rep) == tuple(s.F) for s in steps)
    return rec
