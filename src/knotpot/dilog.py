"""Complex special functions and branch-continued logarithms.

Public face of the dilogarithm kernel, which lives in _dilog_pure:
principal logarithm, Li2, the Rogers dilogarithm and the Bloch-Wigner
function, all in plain Python.

On top of the kernel this module adds ContinuedLog, the record of a
particular branch of log w, and continue_log, which keeps a logarithm
on a consistent sheet while its argument moves in small steps. The
point build (potential._build_point) writes the same continuation out
inline and keeps only the continued value; ContinuedLog.from_value
recovers the winding of such a value.
"""

import cmath
import math

from ._dilog_pure import bloch_wigner_d, li2, principal_log, rogers_r
from ._records import FrozenRecord
from .errors import StepTooLargeError

_TWO_PI = 2.0 * math.pi
_MAX_JUMP = math.pi / 2.0


class ContinuedLog(FrozenRecord):
    """A chosen branch of log w: value = principal_log(w) + 2*pi*i*winding."""

    _fields = ("value", "winding")

    def __init__(self, value: complex, winding: int = 0):
        self.__dict__.update(value=value, winding=winding)

    @classmethod
    def from_value(cls, value: complex) -> "ContinuedLog":
        """The branch whose value is exactly `value`, winding recovered."""
        p = principal_log(cmath.exp(value))
        return cls(value, round((value.imag - p.imag) / _TWO_PI))


def continued(w) -> ContinuedLog:
    """ContinuedLog of w on the principal branch (winding 0)."""
    return ContinuedLog(principal_log(w), 0)


def continue_log(prev: ContinuedLog, w) -> ContinuedLog:
    """Branch of log w closest to prev, for small steps of w.

    Picks the winding that minimises the imaginary-part jump from
    prev.value. Raises StepTooLargeError when even the nearest branch
    is a quarter turn or more away; the continuation driver treats
    that as "halve the step and retry".
    """
    p = principal_log(w)
    k = round((prev.value.imag - p.imag) / _TWO_PI)
    value = complex(p.real, p.imag + _TWO_PI * k)
    if abs(value.imag - prev.value.imag) >= _MAX_JUMP:
        raise StepTooLargeError(
            "log continuation jump %.3f >= pi/2" % abs(value.imag - prev.value.imag)
        )
    return ContinuedLog(value, k)
