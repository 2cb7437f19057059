"""Exception hierarchy shared across the package.

Everything raised on purpose derives from K3LabError.  PreconditionError
covers violated input contracts (CLI exit code 2), VerificationFailure
covers falsified identities discovered at run time (CLI exit code 3).
"""


class K3LabError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(K3LabError):
    """An input violates a documented precondition."""


class VerificationFailure(K3LabError):
    """A verification run falsified an identity it was asked to check."""


class FieldMismatch(PreconditionError):
    """Operands live over different coefficient fields."""


class VariableCountMismatch(PreconditionError):
    """Polynomials over incompatible variable sets were combined."""


class BadPrime(PreconditionError):
    """A prime is unusable: even, not prime, too large, or divides a denominator."""


class BadReduction(PreconditionError):
    """A system does not reduce well modulo the requested prime."""


class DegenerateSystem(PreconditionError):
    """A quadric system is degenerate (dependent members or vanishing discriminant)."""


class DegenerateBranch(PreconditionError):
    """A branch form has a repeated root, so the double cover degenerates."""


class NotSplit(PreconditionError):
    """A quadratic form is not split, so the requested factorization does not exist."""


class NotInSpan(PreconditionError):
    """det/Pf of a linear matrix does not lie in the span of the system's quadrics."""


class NoSplitMember(PreconditionError):
    """A full sweep of the base found no nondegenerate split member."""


class DivisibilityViolation(PreconditionError):
    """A divisibility hypothesis on a self-intersection number fails."""


class SingularMatrix(PreconditionError):
    """A matrix expected to be invertible is singular."""
