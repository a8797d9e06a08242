"""Geometric invariants of solved structures.

Volume comes out of the potential two independent ways: the imaginary
part of V_alpha, and the signed Bloch-Wigner sum over the dilogarithm
arguments (signed_d_sum). solve_filling accepts a solution only when
the two agree to its newton_tol, or to solver._BRANCH_TOL (1e-6) where
newton_tol is tighter. The Chern-Simons
value is recovered modulo 1/2, and only up to one global additive
constant shared by all slopes: differences between slopes are the
well-defined content. Core geodesic length and torsion come from the
tracked meridian log-holonomy. The module composes the potential's
evaluators and compiles nothing of its own.
"""

import math
from dataclasses import dataclass

from . import dilog
from .errors import ValidationError
from .potential import (
    ParamPoint,
    PotentialSpec,
    Shapes,
    eval_v_alpha,
    log_gradient,
    signed_d_sum,
)
from .solver import CriticalPoint, FillingSolution, Slope, _check_slope

_PI = math.pi
_PI2 = math.pi * math.pi
_CS_AMBIGUITY = 0.5


@dataclass(frozen=True)
class InvariantReport:
    volume: float
    volume_from_shapes: float
    cs_value: float  # representative in [0, 1/2)
    cs_ambiguity: float  # always 1/2; values are classes mod this
    geodesic_length: float
    geodesic_torsion: float  # representative in [0, 2 pi / q)
    v_alpha: complex
    length_sign: int  # sign of Re(complex length) before |.|


def _point_of(slope: Slope, sol) -> ParamPoint:
    if isinstance(sol, FillingSolution):
        # a cocycle shift (r, s) of the solution's slope reads its point
        if (sol.slope.p, sol.slope.q) != (slope.p, slope.q):
            raise ValidationError("solution fills slope %s, not %s" % (sol.slope, slope))
        return sol.critical.point
    if isinstance(sol, CriticalPoint):
        return sol.point
    if isinstance(sol, ParamPoint):
        return sol
    raise TypeError("expected a solution or point, got %r" % type(sol))


def volume_from_shapes(sh: Shapes) -> float:
    """Bloch-Wigner volume sum D(c2)+D(d4)+D(a5)+D(b5)+D(d5)."""
    return sum(dilog.bloch_wigner_d(z) for z in sh.as_tuple())


def _cs_class(v_alpha: complex):
    """(cs_value, 1/2): -Re(V_alpha)/(2 pi^2) reduced into [0, 1/2).

    A global additive constant (one number for the whole manifold,
    independent of slope) is not determined here; reported values
    compare across slopes only through their differences.
    """
    raw = -v_alpha.real / (2 * _PI2)
    return raw % _CS_AMBIGUITY, _CS_AMBIGUITY


def _core_geodesic(slope: Slope, pt: ParamPoint):
    """(length, torsion, sign of Re lambda) of the filling's core geodesic.

    Complex length lambda = 2(s pi i - log xi)/q; length is |Re| (the
    continuation may land on either orientation) and torsion is the
    representative of Im in [0, 2 pi / q).
    """
    lam = 2 * (slope.s * _PI * 1j - pt.logs[pt.spec.meridian]) / slope.q
    return abs(lam.real), lam.imag % (2 * _PI / slope.q), 1 if lam.real >= 0 else -1


def rogers_combo(spec: PotentialSpec, pt: ParamPoint) -> complex:
    """Signed Rogers sum over the dilog terms plus the pi^2 constant.

    Each term is Li2(m) + log(m) log(1 - m) / 2 with the principal Li2
    the point stores (ParamPoint.li2_values) and its continued logs:
    log(1 - m) as tracked, log m from the continued variable logs
    (the monomial_logs kernel). Where both logs are principal the term
    is the Rogers dilogarithm dilog.rogers_r(m), bit for bit. Its
    defect against V + (u/2)(v/2), which takes the same principal Li2
    and continued logs, stays constant along continued paths: the
    tests check this on traces whose logs wind, and that it is exactly
    0 up to rounding on the branch through the complete structure.
    """
    log_m = spec.tables.monomial_logs(pt)
    a, t = pt.li2_values, pt.tracked_logs
    total = 0j
    for sign, j in spec.tables.dilogs:
        total += sign * (a[j] + 0.5 * log_m[j] * t[j])
    return total + spec.tables.constant


def im_v_alpha_parts(spec: PotentialSpec, pt: ParamPoint, slope=None):
    """(D-sum, log-modulus correction) whose total is Im V (or Im V_alpha).

    The first part is signed_d_sum, sum sign * D(m); the second is
    sum_v log|v| Im(v dV_alpha/dv), which vanishes at critical points,
    summed from 0.0 in variable order over the log-gradient with the
    slope's term (2 pi i - 2 p log xi) / q added to its meridian entry.
    Valid at any regular point with principal branches.
    """
    grad = log_gradient(spec, pt)
    if slope is not None:
        grad[-1] += (2j * _PI - 2 * slope.p * pt.logs[spec.meridian]) / slope.q
    corr = 0.0
    for v, g in zip(spec.variables, grad):
        corr += math.log(abs(pt.values[v])) * g.imag
    return signed_d_sum(spec, pt), corr


def report_for(spec: PotentialSpec, slope: Slope, sol: FillingSolution) -> InvariantReport:
    """Full invariant report for an accepted filling solution.

    sol may also be a CriticalPoint or a ParamPoint: the report reads
    only the point. A slope that solve_filling refuses raises the same
    error here (solver._check_slope), and a FillingSolution of another
    p/q raises ValidationError; a cocycle shift (r, s) of its slope is
    reported.
    """
    _check_slope(slope)
    pt = _point_of(slope, sol)
    va = eval_v_alpha(spec, slope, pt)
    cs, amb = _cs_class(va)
    length, torsion, length_sign = _core_geodesic(slope, pt)
    return InvariantReport(
        volume=va.imag,
        volume_from_shapes=signed_d_sum(spec, pt),
        cs_value=cs,
        cs_ambiguity=amb,
        geodesic_length=length,
        geodesic_torsion=torsion,
        v_alpha=va,
        length_sign=length_sign,
    )
