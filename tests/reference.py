"""Reference versions of library routines, kept as the definitions read.

The first functions differentiate every slice from scratch; the library
computes the same values along one chain of derivatives (Horner form).
The verifiers below evaluate orthogonality and involution separately, with
a second verifier for the one-operator NLS chain, and gen_bracket carries
its own loop; the library reads every check from one pairing matrix per
operator and shares one loop between the generator bracket and
lambda_bracket.  is_closed always builds the defect operator, and exactify
decides closedness by it before it looks for a potential; the library
first certifies closedness by delta of the scaling potential.
test_fastpaths.py and test_verify_reference.py pin each pair together.
"""

from fractions import Fraction
from math import comb

from pvakit.algebra import vec_dot, vec_is_zero
from pvakit.brackets import functional_bracket
from pvakit.errors import NotClosed
from pvakit.operators import BiLambdaPoly, LambdaPoly
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
                cj = cj + A[i].op_apply(entry)
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
                B = BiLambdaPoly(ctx, {(a, 0): p}).shift_both_neg(n)
                res = res - B.op_apply_both(entry)
    return res


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
