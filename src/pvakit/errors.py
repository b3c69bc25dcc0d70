"""Exception types shared across the package."""


class PvakitError(Exception):
    """Base class for all package errors."""


class NonRationalExponent(PvakitError):
    """A monomial exponent is not a rational number."""


class NonRationalCoefficient(PvakitError):
    """A coefficient is not a rational number (a float, say)."""


class NonMonomialDivisor(PvakitError):
    """Division is only defined by single-term (monomial) expressions."""


class LogRequired(PvakitError):
    """An antiderivative would need a logarithm, which the algebra lacks.

    Raised when integrating a term with exponent -1 in the integration
    variable.
    """


class OrderViolation(PvakitError):
    """The argument depends on jet variables above the allowed order."""


class NotExact(PvakitError):
    """The element is not a total derivative (variational derivative != 0)."""


class NotClosed(PvakitError):
    """The vector is not closed: its first variation is not self-adjoint."""


class PlanMismatch(PvakitError):
    """The solved operator K is not a triangle of pivots m0 o d^r o m1 with
    monomials m0 and m1, so no solver can be read off it."""


class IndividualFailure(PvakitError):
    """Some operators in a compatibility check fail on their own."""

    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(
            "operators at positions %s are not Hamiltonian by themselves"
            % (self.indices,)
        )


class ParseError(PvakitError):
    """Syntax error in the text grammar, with position information."""

    def __init__(self, message, pos):
        self.message = message
        self.pos = pos
        super().__init__("%s (at position %d)" % (message, pos))
