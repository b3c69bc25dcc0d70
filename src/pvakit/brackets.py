"""Lambda-bracket calculus and structure verification.

The bracket of two expressions induced by a matrix differential operator H
(with {u_i lam u_j} = H_ji(lam)) is computed by the master expansion

    {f_lam g} = sum_{i,j,m,n} dg/du_j^(n) (lam+d)^n H_ji(lam+d)->
                 (-lam-d)^m df/du_i^(m),

all derivatives resolved rightward.  The second slot enters through one
chain rule, ``_right``: {y_lam g} from the brackets {y_lam u_j} and the
row of D_g; the same sum of compositions over a row of H gives
{f_lam u_j} from the adjoint symbols of f.  The generator bracket
{u_i lam x} is that chain rule with y = u_i, and the Jacobi residual is
the nested-bracket identity on a generator triple.
On top of it sit the Beltrami bracket (H = identity), brackets of local
functionals, and the checkers for Hamiltonian, compatible and symplectic
operators; the latter two report residual witnesses per generator triple.
Both triple residuals read T_ij(lam, mu) - T_ji(mu, lam) (``_mirrored``)
and a third term {X_ij(lam) _(lam+mu) u_k} (``_composed``), both from the
generator bracket of H, resp. the Beltrami bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional, Sequence, Union

from .algebra import Expression, VectorExpr, vec_dot, vec_sub
from .errors import IndividualFailure
from .operators import BiLambdaPoly, LambdaPoly, MatrixDiffOp, _collect
from .varcalc import (
    LocalFunctional,
    frechet,
    frechet_defect,
    frechet_entry,
    variational_derivative,
)


def lambda_bracket(H: MatrixDiffOp, f: Expression, g: Expression) -> LambdaPoly:
    """{f_lam g} for the bracket with {u_i lam u_j} = H_ji(lam)."""
    _check_shape(H)
    A = [_adjoint_symbol(f, i) for i in range(f.ctx.nvars)]
    row = frechet((g,)).entries[0]
    return _right(lambda j: _right(A.__getitem__, H.entries[j]), row)


def _right(G, row) -> LambdaPoly:
    """sum_j E_j(lam+d) G(j) over a row of entries E_j, G(j) a symbol read
    only where E_j is nonzero.  Over the row of D_x with G(j) = {y_lam u_j}
    it is {y_lam x} = sum_{j,n} dx/du_j^(n) (lam+d)^n G(j), the chain rule
    in the second slot; over the row j of H with G(i) = A_i it is
    {f_lam u_j} = sum_i H_ji(lam+d) A_i."""
    out = LambdaPoly(row[0].ctx, {})
    for j, entry in enumerate(row):
        if entry:
            y = G(j)
            if y:
                out = out + y.op_apply(entry)
    return out


def _adjoint_symbol(f: Expression, i: int) -> LambdaPoly:
    """A_i = sum_m (-lam-d)^m df/du_i^(m): the symbol of the adjoint of
    the entry sum_m df/du_i^(m) d^m of D_f."""
    return frechet_entry(f, i).subst_neg_shift()


def beltrami_bracket(f: Expression, g: Expression) -> LambdaPoly:
    """The bracket with {u_i lam u_j} = delta_ij; its value against a
    generator collects the higher Euler operators of f."""
    return lambda_bracket(MatrixDiffOp.identity(f.ctx), f, g)


def skew_image(x: LambdaPoly) -> LambdaPoly:
    """-{g_{-lam-d} f} built from {g_lam f}: negate and substitute."""
    return -x.subst_neg_shift()


def _lift(x: LambdaPoly, bracket) -> BiLambdaPoly:
    """sum_d bracket(x_d) mu^d over the coefficients x_d of x, the degree
    of each bracket read as a power of lambda; no two keys (e, d) meet."""
    out = {}
    for d, xd in x.coeffs.items():
        for e, v in bracket(xd).coeffs.items():
            out[e, d] = v
    return BiLambdaPoly(x.ctx, out)


def _composed(x: LambdaPoly, bracket) -> BiLambdaPoly:
    """sum_a lam^a bracket(x_a)(lam + mu) over the coefficients x_a of x:
    {x(lam) _(lam+mu) y} from the brackets bracket(z) = {z_nu y}."""
    out = {}
    for a, xa in x.coeffs.items():
        _collect(BiLambdaPoly.at_sum(bracket(xa), a).coeffs.items(), out)
    return BiLambdaPoly(x.ctx, out)


def _swap(x: BiLambdaPoly) -> BiLambdaPoly:
    """x(mu, lam): the two slots exchanged."""
    return BiLambdaPoly(x.ctx, {(b, a): v for (a, b), v in x.coeffs.items()})


def nested_bracket_left(H: MatrixDiffOp, f: Expression, x: LambdaPoly) -> BiLambdaPoly:
    """{f_lam x} applied to the coefficients of x, whose degrees are read
    as powers of mu."""
    return _lift(x, lambda xb: lambda_bracket(H, f, xb))


def nested_bracket_right(H: MatrixDiffOp, f: Expression, x: LambdaPoly) -> BiLambdaPoly:
    """{f_mu x} applied to the coefficients of x, whose degrees are read
    as powers of lambda; only tests call it (acceptance criterion 11i)."""
    return _swap(nested_bracket_left(H, f, x))


def nested_bracket_composed(
    H: MatrixDiffOp, x: LambdaPoly, g: Expression
) -> BiLambdaPoly:
    """{x(lam)_{lam+mu} g}: the bracket of each coefficient x_a against g,
    read at lam + mu and times lam^a."""
    return _composed(x, lambda z: lambda_bracket(H, z, g))


def functional_bracket(
    H: MatrixDiffOp, a: Union[LocalFunctional, Expression], b
) -> LocalFunctional:
    """{int a, int b} = int (delta b/delta u . H delta a/delta u)."""
    fa = a.rep if isinstance(a, LocalFunctional) else a
    fb = b.rep if isinstance(b, LocalFunctional) else b
    va = variational_derivative(fa)
    vb = variational_derivative(fb)
    return LocalFunctional(vec_dot(vb, H.apply(va)))


def hamiltonian_vector_field(H: MatrixDiffOp, h) -> VectorExpr:
    """Characteristics of the flow of int h: H applied to delta h/delta u."""
    f = h.rep if isinstance(h, LocalFunctional) else h
    return H.apply(variational_derivative(f))


def evolutionary_commutator(P: VectorExpr, Q: VectorExpr) -> VectorExpr:
    """Characteristics of [X_P, X_Q]: D_Q(d) P - D_P(d) Q."""
    return vec_sub(frechet(Q).apply(P), frechet(P).apply(Q))


# ---------------------------------------------------------------------------
# structure checks


@dataclass
class CheckFailure:
    kind: str  # "skew" | "jacobi" | "symplectic" | "golden" | "verification"
    triple: Optional[tuple] = None  # 1-based indices when applicable
    residual_text: str = ""
    residual: object = None
    # 1-based positions (a, b) of the operators whose sum H_a + H_b gave
    # this failure, set only by check_compatible
    pair: Optional[tuple] = None

    def to_json(self) -> dict:
        out = {"triple": self.triple, "residual_text": self.residual_text}
        if self.pair is not None:
            out["pair"] = self.pair
        return out


@dataclass
class CheckReport:
    passed: bool
    failures: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "failures": [f.to_json() for f in self.failures],
        }


def _mirrored(X: MatrixDiffOp, bracket, i: int, j: int, k: int) -> BiLambdaPoly:
    """{u_i lam X_kj(mu)} - {u_j mu X_ki(lam)} from the generator bracket
    bracket(a, x) = {u_a lam x}: T_ij(lam, mu) - T_ji(mu, lam) with
    T_ab = {u_a lam X_kb(mu)}, T_ii evaluated once."""
    def first(a: int, b: int) -> BiLambdaPoly:
        return _lift(X.entry(k, b), lambda x: bracket(a, x))
    t = first(i, j)
    return t - _swap(t if i == j else first(j, i))


def jacobi_triple_residual(H: MatrixDiffOp, i: int, j: int, k: int) -> BiLambdaPoly:
    """Residual of the Jacobi identity on a generator triple, zero for a
    Hamiltonian operator:

      {u_i lam {u_j mu u_k}} - {u_j mu {u_i lam u_k}}
        - {{u_i lam u_j} _(lam+mu) u_k},

    with {u_j mu u_k} = H_kj(mu).  The generator bracket {u_a lam x} is
    the right slot with G(h) = {u_a lam u_h} = H_ha(lam).
    """
    def bracket(a: int, x: Expression) -> LambdaPoly:
        return _right(lambda h: H.entry(h, a), frechet((x,)).entries[0])
    res = _mirrored(H, bracket, i, j, k)
    return res - nested_bracket_composed(H, H.entry(j, i), H.ctx.gen(k))


def _check_shape(H: MatrixDiffOp):
    n = H.ctx.nvars
    if (H.nrows, H.ncols) != (n, n):
        raise ValueError(
            "operator is %d x %d, expected %d x %d" % (H.nrows, H.ncols, n, n)
        )


def _check_triples(H: MatrixDiffOp, kind: str, residual) -> CheckReport:
    """Skew-adjointness of H, then residual(H, i, j, k) on every generator
    triple; a nonzero residual is a failure of the given kind.

    Once H is skew-adjoint, the residual is only evaluated for i <= j: both
    residuals satisfy the mirror identity

      R_ijk(lam, mu) = -R_jik(mu, lam).

    Proof.  Swapping i <-> j and lam <-> mu negates the first two terms,
    T_ij(lam, mu) - T_ji(mu, lam) (see _mirrored).  The third term is
    {X_ij(lam) _(lam+mu) u_k} with X_ij(lam) = H_ji(lam), resp. S_ij(lam),
    for the bracket of H, resp. the Beltrami bracket: for each coefficient
    z_a of X_ij(lam) = sum_a z_a lam^a, the one-variable symbol
    {z_a _nu u_k} read at nu = lam + mu, times lam^a.  Skewness gives
    X_ij(lam) = -sum_p (-lam-d)^p x_p with X_ji(mu) = sum_p x_p mu^p, and
    sesquilinearity in the first slot, {d a _nu b} = -nu {a _nu b}, turns
    (-lam-d)^p at nu = lam + mu into (-lam + lam + mu)^p = mu^p; so the
    third term of R_ijk is minus that of R_jik, read at (mu, lam).

    Failures are reported in product order, a mirrored residual built by
    negating R_jik and swapping its two slots."""
    _check_shape(H)
    defect = H.adjoint() + H
    if not defect.is_zero():
        return CheckReport(False, [CheckFailure("skew", None, defect.render(), defect)])
    failures = []
    evaluated = {}
    for i, j, k in product(range(H.ctx.nvars), repeat=3):
        if i <= j:
            r = evaluated[i, j, k] = residual(H, i, j, k)
        else:
            r = -_swap(evaluated[j, i, k])
        if not r.is_zero():
            failures.append(CheckFailure(kind, (i + 1, j + 1, k + 1), r.render(), r))
    return CheckReport(not failures, failures)


def check_pva(H: MatrixDiffOp) -> CheckReport:
    """Hamiltonian test: skew-adjointness plus the Jacobi identity on all
    generator triples."""
    return _check_triples(H, "jacobi", jacobi_triple_residual)


def check_compatible(ops: Sequence[MatrixDiffOp]) -> CheckReport:
    """Compatibility: every linear combination sum t_a H_a must pass the
    Hamiltonian test.  The Jacobi residual R is quadratic in H, so
    R(sum t_a H_a) = sum t_a^2 R(H_a) + sum_{a<b} t_a t_b B_ab with
    B_ab = R(H_a + H_b) - R(H_a) - R(H_b); once each H_a passes, this
    holds exactly when every pairwise sum H_a + H_b passes.  Failures are
    those of the pairwise checks, in pair order, tagged with the pair."""
    if len({op.ctx for op in ops}) != 1:
        raise ValueError("operators must share one context")
    bad = [idx for idx, H in enumerate(ops) if not check_pva(H).passed]
    if bad:
        raise IndividualFailure(bad)
    failures = []
    for a, b in combinations(range(len(ops)), 2):
        for f in check_pva(ops[a] + ops[b]).failures:
            f.pair = (a + 1, b + 1)
            failures.append(f)
    return CheckReport(not failures, failures)


def symplectic_triple_residual(S: MatrixDiffOp, i: int, j: int, k: int) -> BiLambdaPoly:
    """Residual of the closedness condition for a skew-adjoint operator
    viewed as a two-form:

      sum_n [ dS_ki(mu)/du_j^(n) lam^n - dS_kj(lam)/du_i^(n) mu^n
            + (-lam-mu-d)^n dS_ij(lam)/du_k^(n) ].

    The first two are those of the Jacobi residual with i <-> j for the
    Beltrami bracket {u_a lam x}, the symbol of the Frechet entry of x.
    """
    res = _mirrored(S, lambda a, x: frechet_entry(x, a), j, i, k)
    # the third term, with A_k of each coefficient as in lambda_bracket
    return res + _composed(S.entry(i, j), lambda z: _adjoint_symbol(z, k))


def check_symplectic(S: MatrixDiffOp) -> CheckReport:
    """Skew-adjointness plus the two-form closedness condition on all
    generator triples."""
    return _check_triples(S, "symplectic", symplectic_triple_residual)


def two_form_from_potential(F: VectorExpr) -> MatrixDiffOp:
    """The symplectic operator D_F - D_F^* attached to a vector F."""
    return frechet_defect(F)


def jacobi_operator_residual(
    H: MatrixDiffOp, F: VectorExpr, G: VectorExpr
) -> VectorExpr:
    """Difference of the two sides of the operator form of the Jacobi
    identity, evaluated on concrete vectors F, G; zero for Hamiltonian H."""
    HF = H.apply(F)
    HG = H.apply(G)
    lhs_inner = (
        frechet(G).apply(HF),
        frechet(HF).adjoint().apply(G),
        tuple(-x for x in frechet(F).apply(HG)),
        frechet(F).adjoint().apply(HG),
    )
    lhs = H.apply(
        tuple(a + b + c + d for a, b, c, d in zip(*lhs_inner))
    )
    rhs = vec_sub(frechet(HG).apply(HF), frechet(HF).apply(HG))
    return vec_sub(lhs, rhs)
