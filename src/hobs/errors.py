"""Exception types raised across the package."""


class HobsError(Exception):
    """Base class for all errors raised by hobs."""


class NonSquareError(HobsError):
    """Input matrix is not square."""


class NonFiniteInput(HobsError):
    """Input matrix has a NaN or infinite entry."""


class HermiticityViolation(HobsError):
    """Skew-Hermitian part of the input exceeds tolerance."""


class EigensolverFailure(HobsError):
    """The dense eigensolver did not converge."""


class DimensionMismatch(HobsError):
    """Operands live in spaces of different dimension."""


class EvaluationError(HobsError):
    """A real function could not be evaluated where it was needed."""


class ZeroInput(HobsError):
    """The zero element was passed where a nonzero one is required."""


class NotAProjector(HobsError):
    """Matrix is not an orthogonal projector within tolerance."""


class NonQuadraticFirstMoment(HobsError):
    """Per-line first moments are not induced by any Hermitian operator."""


class NotCommuting(HobsError):
    """A pair in the operator family fails the commutation threshold."""


class DegeneracyResolutionFailure(HobsError):
    """The refined joint eigenspaces do not reconstruct a family member."""


class NotOrthogonalFamily(HobsError):
    """Projector family is not pairwise orthogonal (or contains zero)."""


class ExprSyntaxError(HobsError):
    """Expression text violates the grammar.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(HobsError):
    """Function called with the wrong number of arguments."""


class NaNInput(HobsError):
    """NaN passed to an evaluation that requires real input."""
