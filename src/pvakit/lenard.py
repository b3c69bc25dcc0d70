"""Recursion driver for bi-Hamiltonian, bi-symplectic and Dirac chains.

Extends a seed F^0 (, F^1) through K F^{n+1} = H F^n with a solver read
off K (off J o K for a Dirac chain, see lenard_extend): a triangle of
pivots m0 o d^r o m1 with monomials m0 and m1, which every K of the
paper's Lenard pairs is (d, u' + 2 u d, u'^(-2) d - u'' u'^(-3) and the
two-variable wave operator).  It fixes integration constants to zero,
attaches conserved densities through the exactness algorithms, and
verifies the produced chain (orthogonality, involution, closedness) from
the set of nonzero pairings int F^m . op F^n of each operator.  By the
Lenard lemma every pairing vanishes when H and K are skew-adjoint and the
recursion holds; by its Dirac form every pairing of J vanishes when J is
skew, L_{H,K} is isotropic and each step carries a witness P_n with
K P_n = F^n and H P_n = flow_n.  Such a chain is certified with empty
sets and nothing evaluated.  Otherwise (for a dirac record also one with
no witness or a failed one) a skew operator is evaluated on the triangle
m < n only.  A bracket of two densities is evaluated only where a
density's variational derivative is not its step's gradient.  The
verifier's state is linear in the depth plus the number of nonzero
pairings.

run_chain, the one place where a run (hierarchies.generate, the lenard
command) opens its algebra.memo_scope, extends and verifies inside it, so
each value is computed once for that run: delta of a density, which
attaching it certifies and the gradient check reads again, and each image
op . F^n (_image), which the recursion, the flows and the verifier read
again.  The memo is keyed by the identity of the arguments and dropped
when the run ends; a record changed in between carries new objects, so
its values are computed afresh and nothing the verifier checks is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional

from .algebra import Expression, VectorExpr, memo_scope, memoised, vec_dot
from .errors import LogRequired, NotClosed, NotExact, PlanMismatch
from .fields import Coefficient, render
from .operators import LambdaPoly, MatrixDiffOp
from .varcalc import (
    LocalFunctional,
    exactify,
    integrate_total,
    is_closed,
    variational_derivative,
)


def _image(op: MatrixDiffOp, vec) -> VectorExpr:
    """op . vec, once per operator and vector in a memo_scope; tuple() of a
    tuple is itself, so a list gets a new key and is applied afresh."""
    return memoised(type(op).apply, op, tuple(vec))


def _invert_total(f: Expression) -> Expression:
    """d^{-1} with zero integration constant; the constant part must vanish."""
    g, c = integrate_total(f)
    if c:
        raise NotExact(
            "constant obstruction %s in a derivative inversion" % render(c, f.ctx.params)
        )
    return g


def _log_primitive(L: Expression) -> Optional[Expression]:
    """The unit monomial m = prod_g g^sigma_g read off L as its
    log-derivative d(m)/m = sum_g sigma_g g'/g: each term of L is a
    rational sigma_g times two factors, the lower being g.  None when a
    term is not of that shape; the caller checks m by composing back."""
    ctx = L.ctx
    m = ctx.one()
    for mono, c in L.terms.items():
        if c.__class__ is Coefficient or len(mono) != 2:
            return None
        (n, i), _ = mono[1]
        m = m * ctx.gen(i, n) ** c
    return m


def _factor(K: MatrixDiffOp, i: int, j: int):
    """(m0, r, m1) with K_ij = m0 o d^r o m1 for monomials m0 and m1.

    m0 m1 is the leading coefficient a_r and r m0 d(m1) the next one, so
    d(m1)/m1 = a_{r-1} / (r a_r); the factors count only if they compose
    back to the entry."""
    ctx = K.ctx
    entry = K.entry(i, j)
    r = max(entry.coeffs)
    top = entry.coeffs[r]
    if top.is_monomial():
        below = entry.coefficient(r - 1)
        m1 = _log_primitive(below / top.scale(r)) if r else ctx.one()
        if m1 is not None:
            m0 = top / m1
            if LambdaPoly.of(m1).op_apply(LambdaPoly(ctx, {r: m0})) == entry:
                return m0, r, m1
    raise PlanMismatch(
        "K entry (%d, %d) = %s is not m0 o d^r o m1 with monomials m0, m1"
        % (i, j, K.render_entry(i, j))
    )


class _TrianglePlan:
    """Solver for K X = Y along a triangle of pivots (i, j, m0, r, m1), in
    solving order: K_ij is the one entry of row i in a column not solved
    before it, and equals m0 o d^r o m1 (a monomial 1 is stored as None)."""

    def __init__(self, K: MatrixDiffOp, pivots: list):
        self.K = K
        self.pivots = pivots

    def solve(self, Y: VectorExpr) -> VectorExpr:
        if len(Y) != self.K.nrows:
            raise PlanMismatch("vector length does not match the plan")
        X = [None] * self.K.ncols
        for i, j, m0, r, m1 in self.pivots:
            rest = Y[i]
            for k, e in enumerate(self.K.entries[i]):
                if e and k != j:
                    rest = rest - e.apply(X[k])
            if m0 is not None:
                rest = rest / m0
            for _ in range(r):
                if not rest.terms:
                    break
                rest = _invert_total(rest)
            X[j] = rest if m1 is None else rest / m1
        return tuple(X)


def make_plan(K: MatrixDiffOp) -> _TrianglePlan:
    """Read a solver for K X = Y off K, or raise PlanMismatch.

    Row by row, the first row with exactly one nonzero entry in a column
    not yet solved gives the next pivot, which must factor as
    m0 o d^r o m1 with monomials m0 and m1; X_j is then
    m1^{-1} d^{-r}((Y_i - the row's solved entries applied) / m0), with
    zero integration constants.
    """
    n = K.nrows
    if K.ncols != n:
        raise PlanMismatch("K is %d x %d, not square" % (n, K.ncols))
    one = K.ctx.one()
    solved: set = set()
    pivots = []
    while len(pivots) < n:
        for i, row in enumerate(K.entries):
            open_cols = [j for j, e in enumerate(row) if e and j not in solved]
            if len(open_cols) == 1:
                break
        else:
            raise PlanMismatch(
                "K has no triangle: no row has exactly one nonzero entry in"
                " the columns %s left unsolved"
                % sorted(set(range(n)) - solved)
            )
        (j,) = open_cols
        m0, r, m1 = _factor(K, i, j)
        pivots.append((i, j, None if m0 == one else m0, r, None if m1 == one else m1))
        solved.add(j)
    return _TrianglePlan(K, pivots)


@dataclass
class HierarchyStep:
    """One step of a chain; P is the witness P_n of a dirac step
    (F = K P_n, flow = H P_n), which the JSON leaves out."""

    n: int
    F: VectorExpr
    h: Optional[LocalFunctional]
    flow: VectorExpr
    P: Optional[VectorExpr] = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "F": [f.render() for f in self.F],
            "h": self.h.rep.render() if self.h is not None else None,
            "flow": [f.render() for f in self.flow],
        }


@dataclass
class Verification:
    chain: Optional[bool] = None
    orthogonality: Optional[bool] = None
    involution_h: Optional[bool] = None
    involution_k: Optional[bool] = None
    gradients: Optional[bool] = None
    closed: list = field(default_factory=list)

    def passed(self) -> bool:
        flags = [
            self.chain,
            self.orthogonality,
            self.involution_h,
            self.involution_k,
            self.gradients,
        ]
        return all(f is not False for f in flags) and all(self.closed)

    def to_json(self) -> dict:
        return {
            "chain": self.chain,
            "orthogonality": self.orthogonality,
            "involution_H": self.involution_h,
            "involution_K": self.involution_k,
            "gradients": self.gradients,
            "closed": list(self.closed),
        }


@dataclass
class HierarchyRecord:
    name: str
    kind: str  # "hamiltonian" | "symplectic" | "dirac"
    params: dict
    steps: list
    verification: Verification = field(default_factory=Verification)

    def step(self, n: int) -> HierarchyStep:
        for s in self.steps:
            if s.n == n:
                return s
        raise KeyError(n)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "params": self.params,
            "steps": [s.to_json() for s in self.steps],
            "verification": self.verification.to_json(),
        }


def _attach_density(gradient: VectorExpr) -> Optional[LocalFunctional]:
    try:
        return LocalFunctional(exactify(gradient))
    except (NotClosed, LogRequired):
        return None


def _dirac_J(ctx) -> MatrixDiffOp:
    """J = (0, -1; 1, 0), whose graph is the Dirac structure that a dirac
    chain pairs with L_{H,K}; it is isotropic since J is skew."""
    one, zero = ctx.one(), ctx.zero()
    return MatrixDiffOp(ctx, [[zero, -one], [one, zero]])


def lenard_extend(
    H: MatrixDiffOp,
    K: MatrixDiffOp,
    seeds,
    depth: int,
    start_index: int = 0,
    name: str = "",
    kind: str = "hamiltonian",
    params: Optional[dict] = None,
) -> HierarchyRecord:
    """Extend the seed vectors F^start_index, ... through K F^{n+1} = H F^n
    and return exactly the steps start_index ... depth.

    The solver is read off K (make_plan).  Seeds must already satisfy the
    recursion pairwise; every seed is checked, also one past depth.  Kernel
    slack is fixed by zero integration constants: the solver works by
    monomial division and d^{-1}, both homogeneous for the exponent-sum
    grading, so a homogeneous step stays homogeneous without any
    projection.  In a run_chain the flows reuse the solver's images H F^n.

    A "dirac" chain pairs the Dirac structure L_{H,K} = {(H P, K P)},
    isotropic when K^* H + H^* K = 0, with the graph of J (_dirac_J): each
    P_n gives the flow H P_n and the gradient F^n = K P_n, and
    (H P_n, K P_{n+1}) lies on the graph, H P_n = J F^{n+1}.  So the seeds
    P_0, P_1, ... extend through (J o K) P_{n+1} = H P_n, with the solver
    read off J o K, and each step keeps its P_n for verify_sequence.
    """
    if kind not in ("hamiltonian", "symplectic", "dirac"):
        raise ValueError("kind %r is not hamiltonian, symplectic or dirac" % (kind,))
    plan = make_plan(_dirac_J(K.ctx).compose(K) if kind == "dirac" else K)
    chain = [tuple(s) for s in seeds]
    if any(_image(H, F) != _image(plan.K, G) for F, G in zip(chain, chain[1:])):
        raise NotExact("seed vectors do not satisfy the recursion")
    while len(chain) <= depth - start_index:
        try:
            chain.append(plan.solve(_image(H, chain[-1])))
        except (NotExact, LogRequired) as exc:
            raise type(exc)(
                "step %d: %s" % (start_index + len(chain), exc)
            ) from exc
    steps = []
    for n, F in enumerate(chain[:max(depth - start_index + 1, 0)], start_index):
        gradient = F if kind == "hamiltonian" else _image(K, F)
        flow = F if kind == "symplectic" else _image(H, F)
        h = _attach_density(gradient)
        P = F if kind == "dirac" else None
        steps.append(HierarchyStep(n, F if P is None else gradient, h, flow, P))
    return HierarchyRecord(name, kind, params or {}, steps)


def _witnessed(H: MatrixDiffOp, K: MatrixDiffOp, steps) -> bool:
    """Whether L_{H,K} is isotropic and every dirac step carries a P_n with
    K P_n = F^n and H P_n = flow_n."""
    return (
        all(s.P is not None for s in steps)
        and (K.adjoint().compose(H) + H.adjoint().compose(K)).is_zero()
        and all(
            _image(K, s.P) == tuple(s.F) and _image(H, s.P) == tuple(s.flow)
            for s in steps
        )
    )


def verify_sequence(
    H: MatrixDiffOp, K: MatrixDiffOp, record: HierarchyRecord
) -> HierarchyRecord:
    """Fill the verification flags of a record in place and return it.

    Checks the recursion K F^{n+1} = H F^n, the gradient/density relation,
    closedness of every gradient (certain where that relation holds), and
    the pairings int F^m . (op F^n) of every operator, of which only the
    set of nonzero pairs (m, n) is kept:

    * orthogonality: no operator has a nonzero pairing;
    * involution of the densities under op: one walk over the pairs (m, n)
      in order (for a skew op only m < n, since the diagonal vanishes and
      int dh_n . op dh_m = -int dh_m . op dh_n) up to the first failure.
      A pair fails when (n, m) is in the set for a symplectic chain, whose
      bracket {int h_m, int h_n} is a pairing, or when both densities have
      the step's gradient as variational derivative, since the bracket
      int dh_n . op dh_m is then the pairing (n, m).  Any other pair is
      evaluated from the dh of the gradient check, with op applied at most
      once per density, or vanishes if a step has no density.  So no pair
      is walked when the set is empty and every density is exact.

    Besides the images op F^n, the state is the nonzero pairings, so it is
    linear in the depth plus their number.

    Lenard lemma: if H and K are skew-adjoint and the recursion holds on
    the recorded steps 0 .. N-1, every pairing of both operators vanishes.
    Write a_{m,n} = int F^m . H F^n and b_{m,n} = int F^m . K F^n.  For
    m > n, the recursion at n and at m - 1 and skewness of K and of H give

        a_{m,n} = b_{m,n+1} = -int F^{n+1} . K F^m
                = -int F^{n+1} . H F^{m-1} = a_{m-1,n+1};

    the walk (m, n) -> (m-1, n+1) -> ... -> (n, m) stays inside the box of
    recorded steps, and skewness gives a_{n,m} = -a_{m,n}, so a_{m,n} = 0;
    the diagonal vanishes by skewness alone.  The K pairings follow from
    b_{m,n+1} = a_{m,n} and b_{m,0} = -b_{0,m}.  So when both operators
    are skew (op^* + op = 0, tested once per call) and ``chain`` holds, no
    pairing is evaluated and both sets stay empty.  Otherwise a skew
    operator still has int F^m . J F^n = -int F^n . J F^m and a zero
    diagonal, so only the triangle m < n is evaluated and each nonzero
    pairing enters the set with its mirror; a non-skew operator gets all
    N^2 pairings.

    A "dirac" chain (NLS) pairs L_{H,K} with the graph of J (_dirac_J),
    and J is its one operator: the chain check is flow_n = J F^{n+1}.  The
    lemma takes Dorfman's Dirac form (section 4 of arXiv 0907.1275).
    Suppose L_{H,K} is isotropic, K^* H + H^* K = 0, and every step
    carries a witness P_n with K P_n = F^n and H P_n = flow_n.  Write
    c_{m,n} = int F^m . J F^n and b(P, Q) = int K P . H Q.  For n >= 1 the
    chain check and the witness give J F^n = flow_{n-1} = H P_{n-1}, so

        c_{m,n} = b(P_m, P_{n-1}),

    and b is skew, since b(P, Q) = int P . K^* H Q
    = -int P . H^* K Q = -b(Q, P).  With skewness of J,

        c_{m,n} = -b(P_{n-1}, P_m) = -c_{n-1,m+1} = c_{m+1,n-1};

    the walk (m, n) -> (m+1, n-1) -> ... for m < n stays inside the box of
    recorded steps and ends at c_{k,k} = 0 or at
    c_{k,k+1} = c_{k+1,k} = -c_{k,k+1}, so every pairing vanishes.  So
    when ``chain`` holds, J is skew, L_{H,K} is isotropic (tested once per
    call) and every witness checks exactly, no pairing is evaluated.  The
    witnesses are not trusted: both relations are re-checked here.  A
    record with no witness on some step, or a witness that fails either
    relation, falls back to J's skew triangle.
    """
    steps = record.steps
    ver = record.verification
    kind = record.kind
    Fs = [s.F for s in steps]
    ops = (_dirac_J(K.ctx),) if kind == "dirac" else (H, K)
    images = [[_image(op, F) for F in Fs] for op in ops]
    KF = images[-1]
    targets = [s.flow for s in steps] if kind == "dirac" else images[0]
    ver.chain = all(KF[m + 1] == targets[m] for m in range(len(Fs) - 1))
    skew = [(op.adjoint() + op).is_zero() for op in ops]
    certified = (
        ver.chain and all(skew) and (kind != "dirac" or _witnessed(H, K, steps))
    )
    gradients = KF if kind == "symplectic" else Fs
    deltas = [None if s.h is None else variational_derivative(s.h.rep) for s in steps]
    exact = [d is not None and d == tuple(g) for d, g in zip(deltas, gradients)]
    ver.closed = [ok or is_closed(g).closed for g, ok in zip(gradients, exact)]
    ver.gradients = all(ok or s.h is None for s, ok in zip(steps, exact))
    nonzero, involution = [], []
    for op, opF, is_skew in zip(ops, images, skew):
        S, op_dh = set(), {}

        def walk(full):
            idx = range(len(Fs) if full else 0)
            return combinations(idx, 2) if is_skew else product(idx, repeat=2)

        def vanishes(m, n):
            if kind == "symplectic" or exact[m] and exact[n]:
                return (n, m) not in S
            if deltas[m] is None or deltas[n] is None:
                return True
            if m not in op_dh:
                op_dh[m] = opF[m] if exact[m] else _image(op, deltas[m])
            return LocalFunctional(vec_dot(deltas[n], op_dh[m])).is_zero()

        for m, n in walk(not certified):
            if not LocalFunctional(vec_dot(Fs[m], opF[n])).is_zero():
                S.update({(m, n), (n, m)} if is_skew else {(m, n)})
        nonzero.append(S)
        involution.append(all(vanishes(m, n) for m, n in walk(S or not ver.gradients)))
    ver.orthogonality = not any(nonzero)
    ver.involution_h, ver.involution_k = involution[0], involution[-1]
    return record


def run_chain(
    H: MatrixDiffOp,
    K: MatrixDiffOp,
    seeds,
    depth: int,
    start_index: int = 0,
    name: str = "",
    kind: str = "hamiltonian",
    params: Optional[dict] = None,
) -> HierarchyRecord:
    """One run: lenard_extend, then verify_sequence, in one memo_scope."""
    with memo_scope():
        rec = lenard_extend(H, K, seeds, depth, start_index, name, kind, params)
        return verify_sequence(H, K, rec)
