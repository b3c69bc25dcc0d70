"""Slice-by-slice reference versions of the chained fast paths.

Each function here differentiates every slice from scratch, as the
definitions read.  The library computes the same values along one chain of
derivatives (Horner form); the properties in test_fastpaths.py pin the two
together.
"""

from math import comb

from pvakit.operators import LambdaPoly


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
