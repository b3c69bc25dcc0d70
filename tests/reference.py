"""Reference versions of library routines, kept as the definitions read.

mono_bump, partial, total_derivative and antiderivative rebuild each
monomial factor by factor and step exponents by Fraction arithmetic; the
library splices tuple slices and reads the interned neighbours of an
exponent.  mono_degree sums every exponent as a Fraction; the library sums
int exponents as ints.  The next functions differentiate every slice anew:
frechet_entry takes a partial at every order up to the top and drops the
zero slices; the library takes one per order of u_j in f, computes
variational_derivative and euler_operator down those slices along one
chain of derivatives (Horner form, one total derivative per gap), and
builds entry_adjoint and entry_compose, binomial expansions here, from one
Leibniz step d o x = x' + x d (the adjoint in Horner form from the top).
The verifiers below evaluate orthogonality and involution separately, with
a second verifier for the one-operator NLS chain, and gen_bracket carries
its own loop; the library reads every check from the nonzero pairings
of each operator and shares one loop between the generator bracket and
lambda_bracket.  _nls_steps writes out the coupled NLS recursion; the
library runs the NLS Dirac pair (H, K) through lenard_extend.  is_closed
always builds the defect operator, and exactify decides closedness by it
before it looks for a potential; the library first certifies closedness
by the inductive potential, whose delta is F exactly when it runs
through, and exactify builds the defect only when both the scaling
potential and that algorithm fail.  entry_norm sums like powers of
(power, coeff) items by hand; the library's entry is one LambdaPoly, the
entry and its symbol alike, which reads as its terms in ascending power.
The symbol routines below carry their own binomial and shift loops, and
the nested brackets and structure checks one loop per slot; the library
runs symbols on the operator-entry routines, reads the slices of an
expression off its Frechet entries, and shares one lift and one triple
checker.  shift applies (lambda + mu + d) once per step, the
triple residuals shift every slice in two variables, nested_bracket_composed
spreads each term binomially on its own, and check_pva and
check_symplectic evaluate every triple; the library reads one-variable
symbols at lambda + mu and builds each triple with i > j from its mirror.
check_compatible mixes the operators with fresh parameters t1, t2, ...;
the library checks every pairwise sum in the operators' own context.
The three solver plans take their kind, and a chain its monomials, from
the caller; the library reads one triangle of pivots m0 o d^r o m1 off K.
functional_is_zero, functional_compare and integrate_total compute the
variational derivative first and descend only when it vanishes; the
library descends first and computes it only when the descent stalls.
Coefficient, at the end, keeps every value as two polynomial dicts with
Fraction values; the library keeps a plain rational as a bare int or
Fraction, and a Coefficient only where a parameter occurs.
test_fastpaths.py, test_fields.py, test_hierarchies.py and
test_verify_reference.py pin each pair together.
"""

from fractions import Fraction
from itertools import product
from math import comb

from pvakit.algebra import (
    ONE_MONO,
    Context,
    Expression,
    _exp,
    mono_weight,
    vec_dot,
    vec_is_zero,
)
from pvakit.brackets import CheckFailure, CheckReport, functional_bracket
from pvakit.brackets import check_pva as lib_check_pva
from pvakit.errors import (
    IndividualFailure,
    LogRequired,
    NotClosed,
    NotExact,
    OrderViolation,
    PlanMismatch,
)
from pvakit.fields import _norm, render
from pvakit.lenard import HierarchyStep, _attach_density
from pvakit.operators import BiLambdaPoly, LambdaPoly, MatrixDiffOp
from pvakit.parsing import parse_operator
from pvakit.varcalc import (
    ClosednessReport,
    FunctionalComparison,
    _exactify_inductive,
    frechet,
    variational_derivative as vder,
)


def _max_order(f):
    """The highest derivative order in f, 0 for a constant."""
    g = f.diff_order()
    return g[0] if g else 0


def mono_degree(a):
    """Total exponent sum, summed from Fraction(0) and made canonical."""
    d = Fraction(0)
    for _, e in a:
        d += e
    return _exp(d)


def mono_set_exp(a, g, e):
    """Return a with the exponent of g replaced by e (e may be 0)."""
    e = _exp(e)
    out = [(h, x) for h, x in a if h != g]
    if e:
        out.append((g, e))
        out.sort(reverse=True)
    return tuple(out)


def mono_bump(a, idx):
    """One product-rule step of the total derivative at position idx:
    lower that generator's exponent by one and multiply by its derivative
    generator (order + 1, same variable)."""
    g, e = a[idx]
    up = (g[0] + 1, g[1])
    out = []
    placed = False
    for t in range(len(a)):
        h, x = a[t]
        if not placed:
            if h == up:
                placed = True
                merged = x + 1
                if merged:
                    out.append((up, _exp(merged)))
                continue
            if h < up:
                out.append((up, 1))
                placed = True
        if t == idx:
            if e != 1:
                out.append((g, _exp(e - 1)))
        else:
            out.append((h, x))
    if not placed:
        out.append((up, 1))
    return tuple(out)


def _accumulate(out, nm, nc):
    s = out.get(nm)
    s = _norm(nc if s is None else s + nc)
    if not s:
        if nm in out:
            del out[nm]
    else:
        out[nm] = s


def partial(f, i, n):
    """Partial derivative with respect to u_i^{(n)}, by mono_set_exp."""
    g = (n, i)
    out = {}
    for m, c in f.terms.items():
        for h, e in m:
            if h == g:
                _accumulate(out, mono_set_exp(m, g, e - 1), _norm(c * e))
                break
            if h < g:
                break
    return Expression(f.ctx, out)


def total_derivative(f, times=1):
    """sum_{i,n} u_i^{(n+1)} d/du_i^{(n)}, one mono_bump per factor."""
    cur = f
    for _ in range(times):
        out = {}
        for m, c in cur.terms.items():
            for idx in range(len(m)):
                _accumulate(out, mono_bump(m, idx), _norm(c * m[idx][1]))
        cur = Expression(cur.ctx, out)
    return cur


def antiderivative(f, i, n):
    """Termwise preimage of d/du_i^(n), the exponent of u_i^(n) found by a
    scan of the whole monomial."""
    ctx = f.ctx
    g = (n, i)
    out = {}
    for m, c in f.terms.items():
        if m and m[0][0] > g:
            raise OrderViolation(
                "argument depends on %s, above the integration variable %s"
                % (ctx.gen_name(m[0][0]), ctx.gen_name(g))
            )
        e = 0
        for h, x in m:
            if h == g:
                e = x
                break
        if e == -1:
            raise LogRequired(
                "term %s needs a logarithm in %s"
                % (Expression(ctx, {m: c}).render(), ctx.gen_name(g))
            )
        nm = mono_set_exp(m, g, e + 1)
        out[nm] = _norm(c / Fraction(e + 1))
    return Expression(ctx, out)


def variational_derivative(f):
    """sum_n (-d)^n (df/du_i^(n)), one total derivative power per slice."""
    ctx = f.ctx
    out = []
    for i in range(ctx.nvars):
        acc = ctx.zero()
        for n in range(_max_order(f) + 1):
            p = f.partial(i, n)
            if not p.is_zero():
                acc = acc + p.total_derivative(n).scale((-1) ** n)
        out.append(acc)
    return tuple(out)


def frechet_entry(f, j):
    """The nonzero slices (n, df/du_j^(n)) of D_f, a partial at every order
    up to the top."""
    slices = ((n, f.partial(j, n)) for n in range(_max_order(f) + 1))
    return tuple((n, p) for n, p in slices if not p.is_zero())


def euler_operator(f, i, m):
    """sum_n C(n,m) (-1)^n d^(n-m) (df/du_i^(n))."""
    acc = f.ctx.zero()
    for n in range(m, _max_order(f) + 1):
        p = f.partial(i, n)
        if not p.is_zero():
            acc = acc + p.total_derivative(n - m).scale((-1) ** n * comb(n, m))
    return acc


def entry_norm(items):
    """(power, coeff) items as an entry's terms: like powers summed, zero
    sums dropped, in ascending power."""
    acc = {}
    for p, a in items:
        acc[p] = acc[p] + a if p in acc else a
    return tuple(sorted((p, a) for p, a in acc.items() if not a.is_zero()))


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
        for m in range(_max_order(f) + 1):
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
        for n in range(_max_order(g) + 1):
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
        sym = H.entry(h, i)
        if sym.is_zero():
            continue
        shifted = sym
        last = 0
        for n in range(_max_order(x) + 1):
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
    for b, xb in H.entry(k, j).coeffs.items():
        lp = gen_bracket(H, i, xb)
        res = res + BiLambdaPoly(ctx, {(a, b): v for a, v in lp.coeffs.items()})
    for a, ya in H.entry(k, i).coeffs.items():
        lp = gen_bracket(H, j, ya)
        res = res - BiLambdaPoly(ctx, {(a, b): v for b, v in lp.coeffs.items()})
    for a, za in H.entry(j, i).coeffs.items():
        for h in range(ctx.nvars):
            entry = H.entry(k, h)
            if not entry:
                continue
            for n in range(_max_order(za) + 1):
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
    for b, sb in S.entry(k, i).coeffs.items():
        for n in range(_max_order(sb) + 1):
            p = sb.partial(j, n)
            if not p.is_zero():
                res = res + BiLambdaPoly(ctx, {(n, b): p})
    for a, sa in S.entry(k, j).coeffs.items():
        for n in range(_max_order(sa) + 1):
            p = sa.partial(i, n)
            if not p.is_zero():
                res = res - BiLambdaPoly(ctx, {(a, n): p})
    for a, sa in S.entry(i, j).coeffs.items():
        for n in range(_max_order(sa) + 1):
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


# -- zero tests modulo total derivatives, variational derivative first ---


def _descend(f):
    """f = d(g) + rest down the order-then-index filtration: (g, rest,
    stall), rest constant when stall is None; an OrderViolation of the
    antiderivative propagates."""
    g = f.ctx.zero()
    cur = f
    prev = None
    while True:
        top = cur.diff_order()
        if top is None:
            return g, cur, None
        if prev is not None and top >= prev:
            return g, cur, NotExact("no descent at %s" % (top,))
        prev = top
        n, i = top
        if n == 0:
            return g, cur, NotExact("depends on undifferentiated variables only")
        try:
            piece = antiderivative(cur.partial(i, n), i, n - 1)
        except LogRequired as exc:
            return g, cur, exc
        g = g + piece
        cur = cur - piece.total_derivative()


def integrate_total(f):
    """f = d(g) + const, after a nonzero variational derivative is refused."""
    if not vec_is_zero(vder(f)):
        raise NotExact("nonzero variational derivative, not a total derivative")
    g, rest, stall = _descend(f)
    if stall is not None:
        raise stall
    return g, rest.constant_coefficient()


def _constant_mod_derivatives(f):
    """The constant c with f = d(g) + c for f with zero variational
    derivative, read off the weight-zero part of f."""
    zero_weight = {m: c for m, c in f.terms.items() if mono_weight(m) == 0}
    if all(m == ONE_MONO for m in zero_weight):
        return f.constant_coefficient()
    _, rest, _ = _descend(Expression(f.ctx, zero_weight))
    return rest.constant_coefficient()


def functional_compare(a, b):
    """LocalFunctional(a).compare(LocalFunctional(b)), variational
    derivative first."""
    d = a - b
    if not vec_is_zero(vder(d)):
        return FunctionalComparison(False)
    g, rest, stall = _descend(d)
    if stall is None:
        if rest.is_zero():
            return FunctionalComparison(True, True, g)
        return FunctionalComparison(False)
    if _constant_mod_derivatives(d):
        return FunctionalComparison(False)
    if isinstance(stall, LogRequired):
        return FunctionalComparison(True, False, None)
    raise stall


def functional_is_zero(f):
    """LocalFunctional(f).is_zero(): zero variational derivative and no
    constant left modulo total derivatives."""
    if not vec_is_zero(vder(f)):
        return False
    return not _constant_mod_derivatives(f)


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
                if not functional_is_zero(vec_dot(Fs[m], image)):
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
            functional_is_zero(functional_bracket(H, a, b).rep) for a in hs for b in hs
        )
        ver.involution_k = all(
            functional_is_zero(functional_bracket(K, a, b).rep) for a in hs for b in hs
        )
    else:
        ver.involution_h = all(
            functional_is_zero(vec_dot(Fs[m], HF[n]))
            for m in range(len(Fs))
            for n in range(len(Fs))
        )
        ver.involution_k = all(
            functional_is_zero(vec_dot(Fs[m], KF[n]))
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
        functional_is_zero(vec_dot(Fs[m], JF[n]))
        for m in range(len(Fs))
        for n in range(len(Fs))
    )
    hs = [s.h for s in steps if s.h is not None]
    inv = all(
        functional_is_zero(functional_bracket(J, a, b).rep) for a in hs for b in hs
    )
    ver.involution_h = inv
    ver.involution_k = inv
    ver.closed = [is_closed(F).closed for F in Fs]
    ver.gradients = all(s.h is None or vder(s.h.rep) == tuple(s.F) for s in steps)
    return rec


def _nls_steps(J: MatrixDiffOp, depth: int) -> list:
    """Coupled first-order recursion for the two generating functions
    (f_n, g_n), zero integration constants:

        f_{n+1}    = v d((f_n + d g_n)/u) + 4 u v g_n,
        d g_{n+1}  = -u d(f_n/v) - v d((f_n + d g_n)/u),

    from (f_0, g_0) = (0, 1/4); gradients are F^n = (f_n/v, (f_n + d g_n)/u)
    and flows are J F^{n+1}."""
    ctx = J.ctx
    u, v = ctx.gen(0), ctx.gen(1)
    fs = [ctx.zero()]
    gs = [ctx.num(1, 4)]
    for _ in range(depth + 1):
        fn, gn = fs[-1], gs[-1]
        mixed = ((fn + gn.total_derivative()) / u).total_derivative()
        fs.append(v * mixed + (u * v * gn).scale(4))
        gs.append(_invert_total(-(u * (fn / v).total_derivative()) - v * mixed))
    Fs = [(f / v, (f + g.total_derivative()) / u) for f, g in zip(fs, gs)]
    return [
        HierarchyStep(n, Fs[n], _attach_density(Fs[n]), J.apply(Fs[n + 1]))
        for n in range(depth + 1)
    ]


# -- solver plans for K F^{n+1} = H F^n, one class per shape of K ---------
#
# The library reads one triangular solver off K; here the caller names the
# plan kind and, for a chain, its monomials.  ChainPlan takes a 1 x 1
# operator over any context.


def _invert_total(f):
    """d^{-1} with zero integration constant; the constant part must vanish."""
    g, c = integrate_total(f)
    if c:
        raise NotExact(
            "constant obstruction %s in a derivative inversion" % render(c, f.ctx.params)
        )
    return g


class DerivativePlan:
    """Solver for K = diag(d, ..., d): componentwise inversion of d."""

    def __init__(self, ctx, size=None):
        self.ctx = ctx
        self.size = ctx.nvars if size is None else size

    def operator(self):
        return MatrixDiffOp.derivative(self.ctx, 1, self.size)

    def solve(self, Y):
        if len(Y) != self.size:
            raise PlanMismatch("vector length does not match the plan")
        return tuple(_invert_total(y) for y in Y)


class ChainPlan:
    """Solver for a scalar K = m_0 . d o m_1 o d o ... o m_r built from
    invertible monomials."""

    def __init__(self, ctx, monomials):
        self.ctx = ctx
        self.monomials = list(monomials)
        for m in self.monomials:
            if not m.is_monomial():
                raise PlanMismatch("chain factors must be monomials")
        self.size = 1

    def operator(self):
        op = MatrixDiffOp(self.ctx, [[self.monomials[-1]]])
        d = MatrixDiffOp.derivative(self.ctx, 1, 1)
        for m in reversed(self.monomials[:-1]):
            op = MatrixDiffOp(self.ctx, [[m]]).compose(d.compose(op))
        return op

    def solve(self, Y):
        (cur,) = Y
        for m in self.monomials[:-1]:
            cur = _invert_total(cur / m)
        return (cur / self.monomials[-1],)


class CnwHdPlan:
    """Solver for the two-variable operator
    [[u' + 2 u d, v d], [v' + v d, 0]]:
    the second row is d(v X_1), so X_1 comes from the second component and
    X_2 from the first."""

    def __init__(self, ctx):
        if ctx.nvars != 2:
            raise PlanMismatch("this plan needs exactly two variables")
        self.ctx = ctx
        self.size = 2

    def operator(self):
        ctx = self.ctx
        u = ctx.gen(0, 0)
        v = ctx.gen(1, 0)
        return MatrixDiffOp(
            ctx,
            [
                [[(0, u.total_derivative()), (1, u.scale(2))], [(1, v)]],
                [[(0, v.total_derivative()), (1, v)], []],
            ],
        )

    def solve(self, Y):
        ctx = self.ctx
        u = ctx.gen(0, 0)
        v = ctx.gen(1, 0)
        x1 = _invert_total(Y[1]) / v
        rest = Y[0] - u.total_derivative() * x1 - u.scale(2) * x1.total_derivative()
        x2 = _invert_total(rest / v)
        return (x1, x2)


def make_plan(K, kind, monomials=None):
    """Build a solver plan and validate that it reproduces K."""
    ctx = K.ctx
    if kind == "derivative":
        plan = DerivativePlan(ctx, K.nrows)
    elif kind == "chain":
        plan = ChainPlan(ctx, monomials)
    elif kind == "cnw_hd":
        plan = CnwHdPlan(ctx)
    else:
        raise PlanMismatch("unknown plan kind %r" % kind)
    if plan.operator() != K:
        raise PlanMismatch("plan does not compose out to the given operator")
    return plan


# -- the dict-based coefficient field ---------------------------------------
#
# Every Coefficient holds its numerator and denominator as polynomial dicts
# with Fraction values, plain rationals included; the library keeps a plain
# rational as one int or Fraction and interns non-integral exponents.

Exps = tuple[int, ...]
Poly = dict[Exps, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)
_ZEROS: dict[int, tuple] = {}


def _pconst(q: Fraction, nvars: int) -> Poly:
    return {(0,) * nvars: q} if q else {}


def _pis_const(a: Poly) -> bool:
    return len(a) == 0 or (len(a) == 1 and not any(next(iter(a))))


def _pconst_value(a: Poly) -> Fraction:
    if not a:
        return Fraction(0)
    return next(iter(a.values()))


def _padd(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, q in b.items():
        s = out.get(e)
        if s is None:
            out[e] = q
        else:
            s = s + q
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _pneg(a: Poly) -> Poly:
    return {e: -q for e, q in a.items()}


def _pscale(a: Poly, q: Fraction) -> Poly:
    if not q:
        return {}
    return {e: c * q for e, c in a.items()}


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if _pis_const(a):
        return _pscale(b, _pconst_value(a))
    if _pis_const(b):
        return _pscale(a, _pconst_value(b))
    out: Poly = {}
    for ea, qa in a.items():
        for eb, qb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e)
            s = qa * qb if s is None else s + qa * qb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _plead(a: Poly) -> Exps:
    return max(a)


def _pmonic(a: Poly) -> Poly:
    """Scale so the leading coefficient is 1."""
    if not a:
        return a
    lc = a[_plead(a)]
    if lc == 1:
        return a
    return _pscale(a, 1 / lc)


def _pvars(a: Poly, b: Poly) -> list[int]:
    used = set()
    for src in (a, b):
        for e in src:
            for j, x in enumerate(e):
                if x:
                    used.add(j)
    return sorted(used)


def _to_univar(a: Poly, v: int) -> dict[int, Poly]:
    """View a as a univariate polynomial in parameter v with Poly coefficients."""
    out: dict[int, Poly] = {}
    for e, q in a.items():
        d = e[v]
        ered = e[:v] + (0,) + e[v + 1 :]
        out.setdefault(d, {})[ered] = q
    return out


def _from_univar(u: dict[int, Poly], v: int) -> Poly:
    out: Poly = {}
    for d, coeff in u.items():
        for e, q in coeff.items():
            out[e[:v] + (d,) + e[v + 1 :]] = q
    return out


def _udegree(u: dict[int, Poly]) -> int:
    return max(u)


def _uscale(u: dict[int, Poly], s: Poly) -> dict[int, Poly]:
    return {d: _pmul(c, s) for d, c in u.items()}


def _usub(u: dict[int, Poly], w: dict[int, Poly]) -> dict[int, Poly]:
    out = dict(u)
    for d, c in w.items():
        s = _padd(out.get(d, {}), _pneg(c))
        if s:
            out[d] = s
        elif d in out:
            del out[d]
    return out


def _ucontent(u: dict[int, Poly]) -> Poly:
    g: Poly = {}
    for c in u.values():
        g = _pgcd(g, c)
        if _pis_const(g) and g:
            break
    return g if g else _pconst(_F1, 0)


def _uprimitive(u: dict[int, Poly]) -> dict[int, Poly]:
    cont = _ucontent(u)
    if _pis_const(cont):
        return u
    return {d: _pdiv_exact(c, cont) for d, c in u.items()}


def _pseudo_rem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    da, db = _udegree(a), _udegree(b)
    lb = b[db]
    r = dict(a)
    while r and _udegree(r) >= db:
        dr = _udegree(r)
        lr = r[dr]
        r = _uscale(r, lb)
        shifted = {d + dr - db: _pmul(c, lr) for d, c in b.items()}
        r = _usub(r, shifted)
    return r


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Gcd in QQ[p_1..p_k], normalized monic; gcd(0, b) = monic b."""
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
    if _pis_const(a) or _pis_const(b):
        return _pconst(_F1, len(next(iter(a))))
    nvars = len(next(iter(a)))
    # common monomial part
    mono = tuple(min(min(e[j] for e in a), min(e[j] for e in b)) for j in range(nvars))
    if any(mono):
        a = {tuple(x - m for x, m in zip(e, mono)): q for e, q in a.items()}
        b = {tuple(x - m for x, m in zip(e, mono)): q for e, q in b.items()}
    if len(a) == 1 or len(b) == 1:
        g: Poly = {mono: _F1}
        return g
    if a == b:
        return _pmonic({tuple(x + m for x, m in zip(e, mono)): q for e, q in a.items()})
    used = _pvars(a, b)
    if not used:
        return {mono: _F1}
    v = used[-1]
    ua, ub = _to_univar(a, v), _to_univar(b, v)
    if _udegree(ua) < _udegree(ub):
        ua, ub = ub, ua
    cont = _pgcd(_ucontent(ua), _ucontent(ub))
    ua, ub = _uprimitive(ua), _uprimitive(ub)
    while ub:
        r = _pseudo_rem(ua, ub)
        ua, ub = ub, (_uprimitive(r) if r else {})
    g = _pmul(_from_univar(ua, v), cont)
    if any(mono):
        g = {tuple(x + m for x, m in zip(e, mono)): q for e, q in g.items()}
    return _pmonic(g)


def _pdiv_exact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; b must divide a."""
    if not a:
        return {}
    if _pis_const(b):
        return _pscale(a, 1 / _pconst_value(b))
    used = _pvars(a, b)
    v = used[-1]
    ua, ub = _to_univar(a, v), _to_univar(b, v)
    db = _udegree(ub)
    lb = ub[db]
    quo: dict[int, Poly] = {}
    while ua:
        da = _udegree(ua)
        if da < db:
            raise ArithmeticError("inexact polynomial division")
        qc = _pdiv_exact(ua[da], lb)
        quo[da - db] = qc
        shifted = {d + da - db: _pmul(c, qc) for d, c in ub.items()}
        ua = _usub(ua, shifted)
    return _from_univar(quo, v)


class Coefficient:
    """An element of QQ(p_1, ..., p_k), kept in canonical reduced form.

    The plain-rational case carries a fast tag so that the dominant
    parameter-free arithmetic avoids polynomial dictionaries.
    """

    __slots__ = ("num", "den", "const")

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise ZeroDivisionError("zero denominator in coefficient")
        if not num:
            den = _pconst(_F1, len(next(iter(den))))
        elif not _pis_const(den):
            g = _pgcd(num, den)
            if not _pis_const(g):
                num = _pdiv_exact(num, g)
                den = _pdiv_exact(den, g)
        if num and not _pis_const(den):
            lc = den[_plead(den)]
            if lc != 1:
                num = _pscale(num, 1 / lc)
                den = _pscale(den, 1 / lc)
        elif _pis_const(den):
            c = _pconst_value(den)
            if c != 1:
                num = _pscale(num, 1 / c)
                den = _pconst(_F1, len(next(iter(den))))
        self.num = num
        self.den = den
        self.const = _pconst_value(num) if _pis_const(num) and _pis_const(den) else None

    @staticmethod
    def _raw(num: Poly, den: Poly, const) -> "Coefficient":
        out = Coefficient.__new__(Coefficient)
        out.num = num
        out.den = den
        out.const = const
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(q, nvars: int) -> "Coefficient":
        if not isinstance(q, Fraction):
            q = Fraction(q)
        zeros = _ZEROS.get(nvars)
        if zeros is None:
            zeros = _ZEROS[nvars] = (0,) * nvars
        return Coefficient._raw({zeros: q} if q else {}, {zeros: _F1}, q)

    @staticmethod
    def parameter(j: int, nvars: int) -> "Coefficient":
        e = tuple(1 if k == j else 0 for k in range(nvars))
        return Coefficient._raw({e: _F1}, {(0,) * nvars: _F1}, None)

    # -- predicates ----------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(next(iter(self.den)))

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.const == 1

    def as_fraction(self) -> Fraction:
        if self.const is None:
            raise ValueError("coefficient is not a plain rational")
        return self.const

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if self.const is not None and other.const is not None:
            cq = self.const + other.const
            if not cq:
                return Coefficient._raw({}, self.den, _F0)
            return Coefficient._raw({next(iter(self.den)): cq}, self.den, cq)
        if self.den == other.den:
            return Coefficient(_padd(self.num, other.num), dict(self.den))
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return Coefficient(num, _pmul(self.den, other.den))

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __neg__(self) -> "Coefficient":
        return Coefficient._raw(
            _pneg(self.num),
            self.den,
            -self.const if self.const is not None else None,
        )

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        if self.const is not None:
            return other.scale(self.const)
        if other.const is not None:
            return self.scale(other.const)
        return Coefficient(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other: "Coefficient") -> "Coefficient":
        if other.is_zero():
            raise ZeroDivisionError("division by zero coefficient")
        if other.const is not None:
            return self.scale(1 / other.const)
        return Coefficient(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def scale(self, q) -> "Coefficient":
        if not q:
            return Coefficient.from_fraction(_F0, self.nvars)
        c = self.const
        if c is not None:
            cq = c * q
            if not cq:
                return Coefficient._raw({}, self.den, _F0)
            return Coefficient._raw({next(iter(self.den)): cq}, self.den, cq)
        return Coefficient._raw(_pscale(self.num, q), self.den, None)

    def __pow__(self, k: int) -> "Coefficient":
        if k < 0:
            return Coefficient.from_fraction(1, self.nvars) / self ** (-k)
        out = Coefficient.from_fraction(1, self.nvars)
        for _ in range(k):
            out = out * self
        return out

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- rendering -----------------------------------------------------

    def render(self, names: tuple[str, ...]) -> str:
        num = _render_poly(self.num, names)
        if _pis_const(self.den):
            return num
        den = _render_poly(self.den, names)
        if len(self.num) > 1:
            num = "(%s)" % num
        if len(self.den) > 1 or not _is_atomic_poly(self.den):
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    def __repr__(self):
        names = tuple("p%d" % j for j in range(self.nvars))
        return "Coefficient(%s)" % self.render(names)


def _is_atomic_poly(p: Poly) -> bool:
    if len(p) != 1:
        return False
    (e, q), = p.items()
    return q == 1 and sum(1 for x in e if x) <= 1


def _render_poly(p: Poly, names: tuple[str, ...]) -> str:
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        q = p[e]
        factors = []
        for j, x in enumerate(e):
            if x == 0:
                continue
            factors.append(names[j] if x == 1 else "%s^%d" % (names[j], x))
        mag = abs(q)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if q > 0 else "-" + body)
        else:
            parts.append((" + " if q > 0 else " - ") + body)
    return "".join(parts)


def render_signed(coeff, names):
    """(sign is negative, text) of a coefficient in front of a monomial, as
    the term renderer split it off the polynomial dicts."""
    negative = False
    if len(coeff.num) == 1 and _pis_const(coeff.den):
        (exps, q), = coeff.num.items()
        if q < 0:
            negative = True
            coeff = -coeff
    ctext = coeff.render(names)
    if len(coeff.num) > 1 and _pis_const(coeff.den):
        ctext = "(%s)" % ctext
    return negative, ctext
