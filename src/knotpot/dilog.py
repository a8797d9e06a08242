"""Complex special functions and the record of a log's branch.

Public face of the dilogarithm kernel, which lives in _dilog_pure:
principal logarithm, Li2, the Rogers dilogarithm and the Bloch-Wigner
function, all in plain Python.

On top of the kernel this module adds ContinuedLog, the record of a
particular branch of log w. The point build (potential._build_point)
continues every log and keeps only its value; ContinuedLog.from_value
recovers the winding of such a value.
"""

import cmath

from ._dilog_pure import _TWO_PI, bloch_wigner_d, li2, principal_log, rogers_r
from ._records import FrozenRecord


class ContinuedLog(FrozenRecord):
    """A chosen branch of log w: value = principal_log(w) + 2*pi*i*winding."""

    _fields = ("value", "winding")
    _defaults = {"winding": 0}

    @classmethod
    def from_value(cls, value: complex) -> "ContinuedLog":
        """The branch whose value is exactly `value`, winding recovered."""
        p = principal_log(cmath.exp(value))
        return cls(value, round((value.imag - p.imag) / _TWO_PI))
