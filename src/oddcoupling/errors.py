"""Exception hierarchy.

Two broad classes matter for the CLI exit codes: bad input
(:class:`ValidationError`, exit 2) and numerical / budget failures
(:class:`NumericalError`, exit 3).
"""


class ValidationError(ValueError):
    """Malformed or inadmissible input."""


class NumericalError(RuntimeError):
    """A numerical procedure failed, diverged, or exceeded its budget."""


class SelfLoopError(ValidationError):
    """Edge (i, i) rejected: self-interactions are dynamically inert."""


class DuplicateEdgeError(ValidationError):
    """The same vertex pair appeared twice, in either orientation."""


class AllZeroError(ValidationError):
    """Coupling function would be identically zero."""


class NotARootError(ValidationError):
    """Value passed as a root of the coupling function is not one."""


class NotAnEquilibriumError(ValidationError):
    """Point failed the equilibrium residual check."""


class NotOnManifoldError(ValidationError):
    """Continuation was started at a point with too small a kernel."""


class CycleCapExceededError(NumericalError):
    """Simple-cycle enumeration found more cycles than the cap allows."""


class SearchBudgetExceededError(NumericalError):
    """A backtracking search or a zero scan exceeded its budget."""


class NoConvergenceError(NumericalError):
    """Newton iteration did not reach the residual tolerance."""


class StepUnderflowError(NumericalError):
    """ODE integrator reduced the step below the representable minimum."""


class NonFiniteFieldError(NumericalError):
    """The vector field turned non-finite along a trajectory."""


class BlockMismatchError(NumericalError):
    """Restriction of an equilibrium to a block is not an equilibrium."""


class UnknownExampleError(ValidationError):
    """Requested corpus example does not exist."""
