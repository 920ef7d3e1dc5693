"""Exception types shared across the package."""


class OpcheckError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(OpcheckError):
    """Operands have incompatible shapes."""


class NonHermitian(OpcheckError):
    """A matrix required to be Hermitian is not, beyond validation tolerance."""


class NotPositiveSemidefinite(OpcheckError):
    """A matrix required to be PSD has a significantly negative eigenvalue."""


class NoConvergence(OpcheckError):
    """An iterative procedure exhausted its budget without converging."""


class DomainError(OpcheckError):
    """An eigenvalue falls outside the domain of a scalar function."""


class NotContraction(OpcheckError):
    """Operator norm exceeds 1 beyond tolerance."""


class HypothesisViolated(OpcheckError):
    """A check was invoked on inputs that fail its domination hypothesis."""


class ClassViolation(OpcheckError):
    """A map's declared positivity class is too weak for the requested check."""


class InvalidSpec(OpcheckError):
    """A campaign specification is malformed."""


class SearchExhausted(OpcheckError):
    """A counterexample search ran out of trials before finding all targets."""


class InstanceGenerationFailure(OpcheckError):
    """Random instance generation could not satisfy a check's preconditions."""
