"""Exact symbolic calculus for Hamiltonian structures of evolution PDEs.

Jet-variable expressions with rational exponents and parameterized
rational coefficients, variational calculus with exactness algorithms,
lambda-bracket verification of Hamiltonian / compatible / symplectic
operators, and recursion-scheme generation of integrable hierarchies with
their conserved densities.
"""

from .algebra import Context, Expression, VectorExpr
from .brackets import (
    CheckFailure,
    CheckReport,
    beltrami_bracket,
    check_compatible,
    check_pva,
    check_symplectic,
    evolutionary_commutator,
    functional_bracket,
    hamiltonian_vector_field,
    jacobi_operator_residual,
    jacobi_triple_residual,
    lambda_bracket,
    skew_image,
    symplectic_triple_residual,
    two_form_from_potential,
)
from .errors import (
    IndividualFailure,
    LogRequired,
    NonMonomialDivisor,
    NonRationalCoefficient,
    NonRationalExponent,
    NotClosed,
    NotExact,
    OrderViolation,
    ParseError,
    PlanMismatch,
    PvakitError,
)
from .fields import Coefficient
from .hierarchies import HierarchySpec, generate, golden_verify
from .lenard import (
    HierarchyRecord,
    HierarchyStep,
    Verification,
    lenard_extend,
    make_plan,
    run_chain,
    verify_sequence,
)
from .operators import BiLambdaPoly, LambdaPoly, MatrixDiffOp
from .parsing import parse_expression, parse_operator, parse_operator_entry
from .varcalc import (
    ClosednessReport,
    FunctionalComparison,
    LocalFunctional,
    antiderivative,
    euler_operator,
    exactify,
    frechet,
    functional_equal,
    integrate_total,
    is_closed,
    variational_derivative,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
