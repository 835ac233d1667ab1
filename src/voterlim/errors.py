"""Exception types shared across the library."""


class VoterlimError(Exception):
    """Base class for all library errors."""


class ValidationError(VoterlimError):
    """Invalid parameters, file contents or experiment configuration."""


class DomainError(VoterlimError):
    """Coordinate outside the unit interval or unit square."""


class UnsupportedVariantError(VoterlimError):
    """Operation not defined for this kernel, such as limit prediction on a signed one."""


class SizeLimitError(VoterlimError):
    """Requested dense problem size exceeds the configured guard."""


class SolverConvergenceError(VoterlimError):
    """Solution left the representable floating-point range."""
