"""Exception taxonomy for the richardson package."""


class RichardsonError(Exception):
    """Base class for all package errors."""


class CapacityError(RichardsonError):
    """More pairs requested than the level set can hold."""


class ProblemFormatError(RichardsonError):
    """Problem file violates the schema; message carries the field path."""


class SingularEvaluationError(RichardsonError):
    """A residual or coefficient evaluation hit an exact pole, which the
    message names (as `solver.find_poles` triples for residuals)."""


class ConsistencyError(RichardsonError):
    """A quantity that must be real carries too large an imaginary part."""


class InitializationError(RichardsonError):
    """Weak-coupling seed construction failed to converge."""


class DegenerateNullSpaceError(RichardsonError):
    """Cluster matrix null space is not one-dimensional at the requested point."""


class DegenerateTangentError(RichardsonError):
    """The derivative linear system at a critical point is singular."""


class UnresolvedRootError(RichardsonError):
    """A bracketed determinant sign change holds no validated root.

    Raised by `critical.critical_point` for a point with non-finite numbers
    or critical residuals above tolerance; a scan skips such a bracket (a
    sign change with no zero, as when the branch hops at a collapse).
    """


class ContinuationError(RichardsonError):
    """A solution branch could not be continued to the requested coupling."""


class OracleDimensionError(RichardsonError):
    """Pair basis dimension exceeds the exact-diagonalization guard; the
    message gives the dimension and the guard."""


class OracleConvergenceError(RichardsonError):
    """Lanczos in `oracle.ground_energy` met neither its stopping rule nor
    the full basis within its step cap."""
