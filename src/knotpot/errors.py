"""Exception types shared across the package.

Everything derives from KnotpotError so callers can catch the library
wholesale; the finer classes separate "your input is bad" from "the
computation ran into geometry" (obstructed paths, flat solutions),
which the CLI maps to distinct exit codes.
"""


class KnotpotError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KnotpotError, ValueError):
    """Argument outside the mathematical domain of a special function."""


class StepTooLargeError(KnotpotError):
    """A step moved a point too far to continue its logs.

    Raised when the point build cannot continue a log to a branch
    within a quarter turn, and when a point build or reduced_residual
    overflows or meets a log that is not finite. Signals the
    continuation driver to halve its step; it is not a user-facing
    failure unless halving bottoms out.
    """


class SpecFormatError(KnotpotError, ValueError):
    """Potential spec document failed to parse."""


class ValidationError(KnotpotError, ValueError):
    """An argument, or a potential spec document that parsed, violates an invariant."""


class SingularPointError(KnotpotError, ValueError):
    """Parameter point sits on a singularity of the potential.

    Raised when a variable vanishes, a dilogarithm argument hits 1, or
    a residual denominator vanishes; the message names the offender.
    """


class ZeroDenominatorError(ValidationError):
    """Slope with q = 0 (meridian filling is out of scope)."""


class SingularJacobianError(KnotpotError):
    """A Newton step's linear system is singular (an exactly zero pivot)."""


class NoConvergenceError(KnotpotError):
    """Newton exhausted its iterations or could not take a step."""


class NoGeometricRootError(KnotpotError):
    """Every converged root of the complete-structure system is flat."""


class PathObstructionError(KnotpotError):
    """Continuation path hit a singularity or a degenerate filling.

    For Dehn filling this usually means the slope is exceptional; the
    CLI reports it as data, not as a crash. `partial` holds the samples
    an obstructed deformation trace emitted before it stopped, and is
    empty for a filling.
    """

    def __init__(self, message, t_reached=None, partial=()):
        super().__init__(message)
        self.t_reached = t_reached
        self.partial = list(partial)
