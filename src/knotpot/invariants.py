"""Geometric invariants of solved structures.

Volume comes out of the potential two independent ways: the imaginary
part of V_alpha, and the signed Bloch-Wigner sum over the dilogarithm
arguments (signed_d_sum). solve_filling accepts a solution only when
the two agree to its newton_tol, or to solver._BRANCH_TOL (1e-6) where
newton_tol is tighter. The Chern-Simons
value is recovered modulo 1/2, and only up to one global additive
constant shared by all slopes: differences between slopes are the
well-defined content. Core geodesic length and torsion come from the
tracked meridian log-holonomy.
"""

import math
from dataclasses import dataclass

from . import dilog
from .potential import (
    ParamPoint,
    PotentialSpec,
    Shapes,
    _gradient,
    _tracked,
    eval_v_alpha,
    signed_d_sum,
)
from .solver import CriticalPoint, FillingSolution, Slope

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


def _point_of(sol) -> ParamPoint:
    if isinstance(sol, FillingSolution):
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

    Agrees with V + (u/2)(v/2) on the deformation space up to a branch
    constant that is locally constant along continued paths (exactly 0
    on the branch through the complete structure).
    """
    tab = spec.tables
    mvals = _tracked(spec, pt)[0]
    s = 0j
    for sign, j in tab.dilogs:
        s += sign * dilog.rogers_r(mvals[j])
    return s + tab.constant


def im_v_alpha_parts(spec: PotentialSpec, pt: ParamPoint, slope=None):
    """(D-sum, log-modulus correction) whose total is Im V (or Im V_alpha).

    The first part is sum sign * D(m); the second is
    sum_v log|v| Im(v dV_alpha/dv), which vanishes at critical points.
    Valid at any regular point with principal branches.
    """
    g = _gradient(spec, pt, spec.tables.gradient)
    if slope is not None:
        lx = pt.logs[spec.meridian]
        g[-1] += (2j * _PI - 2 * slope.p * lx) / slope.q
    corr = 0.0
    for v, gv in zip(spec.variables, g):
        corr += math.log(abs(pt.values[v])) * gv.imag
    return signed_d_sum(spec, pt), corr


def report_for(spec: PotentialSpec, slope: Slope, sol: FillingSolution) -> InvariantReport:
    """Full invariant report for an accepted filling solution.

    sol may also be a CriticalPoint or a ParamPoint: the report reads
    only the point.
    """
    pt = _point_of(sol)
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
