"""Newton solver and continuation driver.

Three entry points, all built on damped Newton iterations in the log
coordinates of the parameter point:

  solve_complete    the complete structure, meridian pinned to 1
  trace_deformation samples of the deformation space along a u-segment
  solve_filling     the Dehn-filling critical point for a slope p/q

Throughout, u = log xi^2 and v = log eta^2 are the branch-continued
log-holonomies of meridian and longitude, seeded u = v = 0 at the
complete structure; windings evolve only by continuation. Every
Newton loop steps on the continued-log gradient and stops once the
branch-free reduced residuals are within newton_tol (default
_NEWTON_TOL); solve_filling states when a filling is accepted.
"""

import cmath
import math
import sys

from ._records import FrozenRecord, RecordBase
from .dilog import ContinuedLog
from .errors import (
    KnotpotError,
    NoConvergenceError,
    NoGeometricRootError,
    PathObstructionError,
    SingularJacobianError,
    SingularPointError,
    StepTooLargeError,
    ValidationError,
    ZeroDenominatorError,
)
from .potential import (
    _ZERO_TOL,
    PotentialSpec,
    _eta_log_and_size,
    _gradient,
    _hessian,
    advance_point_logs,
    d_eta_log,
    eta_log,
    eval_v_alpha,
    log_hessian,
    make_point,
    reduced_residual,
    signed_d_sum,
)

_TWO_PI_I = 2j * math.pi

_NEWTON_TOL = 1e-12

# the loosest newton_tol a filling is solved at; looser, the flat and
# volume-route tests below stop telling a flat endpoint from a loose
# solve (at 1e-2 the flat filling -3/1 is accepted, at volume 8e-6)
_MAX_NEWTON_TOL = 1e-3

_EPS = sys.float_info.epsilon

# a converged endpoint whose total shape volume is below this is a
# flat representation, not a hyperbolic filling; the smallest genuine
# filling volumes are O(1), numeric dust at a flat endpoint is O(1e-5)
_FLAT_TOL = 1e-4

# at a geometric endpoint Im V_alpha and the shape-volume sum agree to
# residual accuracy: to within newton_tol, or this where newton_tol is
# tighter; a larger gap means a dilog argument crossed its cut on the
# way, i.e. the path left the geometric branch
_BRANCH_TOL = 1e-6


class Slope(FrozenRecord):
    """Slope p/q in lowest terms with its canonical cocycle (r, s).

    ps - qr = 1; q >= 1; 0 <= s < q for q > 1 and (r, s) = (-1, 0)
    for q = 1.
    """

    _fields = ("p", "q", "r", "s")

    def __str__(self):
        return "%d/%d" % (self.p, self.q)


class CriticalPoint(RecordBase):
    """A converged point with its reduced residual and Newton count."""

    _fields = ("point", "residual_inf_norm", "newton_iters")


class FillingSolution(RecordBase):
    """The critical point of V_alpha for a slope, with its tracked u =
    log xi^2 and v = log eta^2 and the bound filling_tol its
    filling_residual was accepted within."""

    _fields = ("slope", "critical", "u", "v", "path_steps", "filling_tol")

    @property
    def filling_residual(self) -> float:
        return abs(
            self.slope.p * self.u.value + self.slope.q * self.v.value - _TWO_PI_I
        )


class DeformationSample(RecordBase):
    """One sample of the deformation space at u = log xi^2 on a traced
    segment, with v = log eta^2 continued from v(0) = 0."""

    _fields = ("u", "point", "v")


def _check_newton_tol(newton_tol) -> None:
    # nan, inf, 0 and negatives fail the test too
    if not 0 < newton_tol <= _MAX_NEWTON_TOL:
        msg = "newton_tol must be at most %g and greater than 0, got %g"
        raise ValidationError(msg % (_MAX_NEWTON_TOL, newton_tol))


def normalize_slope(p_raw: int, q_raw: int) -> Slope:
    """Lowest-terms slope with q >= 1 and the canonical cocycle."""
    if q_raw == 0:
        raise ZeroDenominatorError("slope with q = 0 (meridian) is not a filling")
    g = math.gcd(p_raw, q_raw)
    p, q = p_raw // g, q_raw // g
    if q < 0:
        p, q = -p, -q
    if q == 1:
        s, r = 0, -1
    else:
        s = pow(p, -1, q)  # exists since gcd(p, q) = 1
        r = (p * s - 1) // q
    return Slope(p, q, r, s)


def _solve(a, b) -> list:
    """x with a x = b, by Gaussian elimination with partial pivoting.

    a is a list of n rows of n numbers and b a list of n; neither is
    modified. Raises SingularJacobianError on an exactly zero pivot,
    where LAPACK's getrf reports a singular factor.
    """
    n = len(b)
    m = [row + [bi] for row, bi in zip(a, b)]  # augmented, row by row
    for c in range(n):
        p = c
        best = abs(m[c][c])
        for r in range(c + 1, n):
            size = abs(m[r][c])
            if size > best:
                p, best = r, size
        if not best:
            raise SingularJacobianError("singular Jacobian (zero pivot in column %d)" % c)
        top = m[p]
        m[p] = m[c]
        m[c] = top
        pivot = top[c]
        for r in range(c + 1, n):
            row = m[r]
            f = row[c] / pivot
            for j in range(c + 1, n + 1):
                row[j] -= f * top[j]
    x = [0j] * n
    for c in range(n - 1, -1, -1):
        row = m[c]
        acc = row[n]
        for j in range(c + 1, n):
            acc -= row[j] * x[j]
        x[c] = acc / row[c]
    return x


def _resid_inf(pt) -> float:
    return max(map(abs, reduced_residual(pt)))


def _damped_step(pt, deltas):
    """pt with its first len(deltas) variable logs moved by -deltas.

    The step of both Newton loops: halved on each branch jump or
    singular trial point, at most 40 times, after which it raises
    NoConvergenceError.
    """
    variables = pt.spec.variables
    scale = 1.0
    for _ in range(40):
        trial = dict(pt.logs)
        for v, d in zip(variables, deltas):
            trial[v] -= scale * d
        try:
            return advance_point_logs(pt, trial)
        except (StepTooLargeError, SingularPointError):
            scale *= 0.5
    raise NoConvergenceError("could not step without a branch jump")


def _newton_fiber(spec, pt, xi_log, tol) -> CriticalPoint:
    """Newton on the non-meridian variables at a fixed meridian log.

    Drives the continued-log gradient to zero, branch-continuing from
    pt at each trial step (halving on a branch jump), and accepts on
    the reduced residuals. The gradient and hessian are evaluated on
    the non-meridian block only. A converged point with a variable
    within _ZERO_TOL of 0 sits on a log pole, where the residual is
    small only because the variable is, and raises SingularPointError
    as make_point would.
    """
    variables = spec.variables
    k = len(variables) - 1
    tab = spec.tables
    logmap = dict(pt.logs)
    logmap[spec.meridian] = xi_log
    pt = advance_point_logs(pt, logmap)
    for it in range(50):
        resid = _resid_inf(pt)
        if resid <= tol:
            for v in variables:
                if abs(pt.values[v]) < _ZERO_TOL:
                    raise SingularPointError("variable %s = 0 (log pole)" % v)
            return CriticalPoint(pt, resid, it)
        g = _gradient(spec, pt, tab.fiber_gradient)
        h = _hessian(spec, pt, tab.fiber_hessian_cells, k)
        pt = _damped_step(pt, _solve(h, g))
    raise NoConvergenceError("fiber Newton: no convergence in 50 iterations")


# Fixed complete-structure seed grid: 16 starting pairs for the two
# fiber variables in spec order, a coarse cover of the unit-scale region
# where tetrahedron shapes of cusped knots live. Order matters.
_SEED_FIRST = (-0.5 + 0.8j, 0.5 + 0.8j, -0.5 - 0.8j, 0.3 + 0.6j)
_SEED_SECOND = (0.3 + 0.6j, 0.5 + 0.8j, -1.3, 1.3)
DEFAULT_SEEDS = tuple((a, b) for a in _SEED_FIRST for b in _SEED_SECOND)


def solve_complete(
    spec: PotentialSpec, seeds=None, newton_tol: float = _NEWTON_TOL
) -> CriticalPoint:
    """Complete structure: meridian pinned to 1, geometric root selected.

    Runs Newton from each seed in order (by default DEFAULT_SEEDS, laid
    onto the two fiber variables in spec order) and returns the first
    converged root whose dilog arguments are all off the real
    axis with total shape volume sum sign*D > 0; later seeds are not
    run. A root found with negative total volume is replaced by its
    complex conjugate (same equations, opposite orientation). The
    root's logs are all principal, whatever windings the seed's Newton
    path gave them, so every filling continues from the same sheet.
    A newton_tol that is not finite, positive and at most
    _MAX_NEWTON_TOL raises ValidationError.
    """
    _check_newton_tol(newton_tol)
    if seeds is None:
        fiber = spec.variables[:-1]
        if len(fiber) != 2:
            raise ValidationError(
                "default seed grid needs two fiber variables; pass seeds explicitly"
            )
        seeds = [dict(zip(fiber, s)) for s in DEFAULT_SEEDS]
    meridian = spec.meridian
    best_resid = math.inf
    for seed in seeds:
        values = dict(seed)
        values[meridian] = 1.0
        try:
            pt0 = make_point(spec, values)
            cp = _newton_fiber(spec, pt0, 0j, newton_tol)
        except ValidationError:
            raise  # the spec or the seed is at fault, not the seed's path
        except KnotpotError:
            continue
        best_resid = min(best_resid, cp.residual_inf_norm)
        vol = signed_d_sum(spec, cp.point)
        if vol < -_FLAT_TOL:
            conj_values = {v: cp.point.values[v].conjugate() for v in spec.variables}
            pt = make_point(spec, conj_values)
            cp = CriticalPoint(pt, _resid_inf(pt), cp.newton_iters)
            vol = signed_d_sum(spec, pt)
        if vol > _FLAT_TOL and all(
            abs(cp.point.tracked_values[j].imag) > 1e-9 for _, j in spec.tables.dilogs
        ):
            # a seed's Newton path may wind a log: restart them principal
            logs = [*cp.point.logs.values(), *cp.point.tracked_logs]
            if any(ContinuedLog.from_value(lw).winding for lw in logs):
                pt = make_point(spec, cp.point.values)
                cp = CriticalPoint(pt, _resid_inf(pt), cp.newton_iters)
            return cp
    if best_resid == math.inf:
        raise NoConvergenceError("no seed converged for %s" % spec.name)
    raise NoGeometricRootError(
        "all converged roots are flat (best residual %.3e)" % best_resid
    )


def trace_deformation(
    spec: PotentialSpec,
    u_end: complex,
    samples: int,
    complete: CriticalPoint | None = None,
    newton_tol: float = _NEWTON_TOL,
):
    """Sample the deformation space along u from 0 to u_end.

    u = log xi^2, so the meridian moves along xi = exp(u/2). Each of
    the `samples` evenly spaced targets is reached by warm-started
    Newton on the fiber variables; the step is halved whenever a fiber
    solve fails, up to 20 times per sample, after which it raises
    PathObstructionError carrying the samples emitted so far as its
    partial trace. Emits one DeformationSample per target. A newton_tol
    as solve_complete refuses, a non-finite u_end or samples < 1 raises
    ValidationError before anything is solved.
    """
    _check_newton_tol(newton_tol)
    u_end = complex(u_end)
    if not cmath.isfinite(u_end):
        raise ValidationError("u_end must be finite, got %r" % u_end)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if complete is None:
        complete = solve_complete(spec, newton_tol=newton_tol)
    pt = complete.point
    out = []
    t = 0.0
    for k in range(1, samples + 1):
        target = k / samples
        step = target - t
        halvings = 0
        while t < target - 1e-15:
            nxt = min(target, t + step)
            try:
                cp = _newton_fiber(spec, pt, (nxt * u_end) / 2.0, newton_tol)
                pt = cp.point
                t = nxt
            except KnotpotError as e:
                step /= 2.0
                halvings += 1
                if halvings > 20:
                    raise PathObstructionError(
                        "deformation path obstructed at u = %s (%s)"
                        % (t * u_end, e),
                        t_reached=t,
                        partial=out,
                    ) from e
        out.append(DeformationSample(t * u_end, pt, 2 * eta_log(spec, pt)))
    return out


def _newton_filling(spec, pt, p, q, t, tol):
    """Newton on {x-equation, y-equation, p u + q v = 2 pi i t}.

    Returns the accepted point, the iterations taken, and at that point
    the reduced residual, u = 2 log xi, v = 2 log eta and the bound the
    filling equation was accepted within.
    """
    k = len(spec.variables) - 1
    meridian = spec.meridian
    tab = spec.tables
    # the filling equation sums n terms, p u and q times each term of
    # v = 2 eta_log; each is rounded to eps of itself, so the sum is
    # known to about n eps times their summed magnitudes
    n = 1 + len(tab.eta_prefactor) + len(tab.eta_factors)
    for it in range(60):
        u2 = 2 * pt.logs[meridian]
        eta, size = _eta_log_and_size(spec, pt)
        v2 = 2 * eta
        fill = p * u2 + q * v2 - _TWO_PI_I * t
        bound = max(tol, n * _EPS * (abs(p * u2) + 2 * abs(q) * size))
        # the filling equation is cheaper to test, and the reduced
        # residual is only needed once it holds
        if abs(fill) <= bound:
            resid = _resid_inf(pt)
            if resid <= tol:
                return pt, it, resid, u2, v2, bound
        # Jacobian: the hessian's non-meridian rows, then the row of
        # the filling equation
        f = _gradient(spec, pt, tab.fiber_gradient) + [fill]
        jac = log_hessian(spec, pt)
        row = [2 * q * d for d in d_eta_log(spec, pt)]
        row[k] += 2 * p
        jac[k] = row
        pt = _damped_step(pt, _solve(jac, f))
    raise NoConvergenceError("filling Newton: no convergence")


def solve_filling(
    spec: PotentialSpec,
    slope: Slope,
    complete: CriticalPoint | None = None,
    newton_tol: float = _NEWTON_TOL,
) -> FillingSolution:
    """Critical point of V_alpha for a slope, by homotopy from u = 0.

    Solves {x-equation, y-equation, p u + q v = 2 pi i t} while t
    scales from 0 to 1, warm-starting each Newton solve at the
    previous t and halving the t-step whenever Newton or the branch
    continuation fails. A filling is accepted when its Newton solve at
    t = 1 has converged: the reduced residuals within newton_tol, and
    the filling equation within newton_tol or within its float rounding
    floor, n eps (|p u| + |q| sum |terms of v|) over its n summed terms,
    whichever is larger (the floor passes newton_tol only for large p
    or q, where q v cannot be known to newton_tol; the bound used is
    the solution's filling_tol); its D-sum is
    >= _FLAT_TOL, and Im V_alpha is within max(_BRANCH_TOL, newton_tol)
    of the D-sum; otherwise it raises PathObstructionError: the slope is
    possibly exceptional. A newton_tol as solve_complete refuses, or a
    slope whose p or q does not convert to float, raises ValidationError.
    """
    _check_newton_tol(newton_tol)
    p, q = slope.p, slope.q
    try:
        float(p), float(q)
    except OverflowError:
        raise ValidationError("slope p and q must be within float range") from None
    if complete is None:
        complete = solve_complete(spec, newton_tol=newton_tol)
    pt = complete.point
    t = 0.0
    dt = 0.25
    steps = 0
    iters = 0
    while t < 1.0 - 1e-15:
        target = min(1.0, t + dt)
        try:
            pt2, it, resid, u_val, v_val, fill_tol = _newton_filling(
                spec, pt, p, q, target, newton_tol
            )
            pt, t = pt2, target
            steps += 1
            iters += it
            dt = min(dt * 2.0, 1.0)
        except KnotpotError as e:
            dt /= 2.0
            if dt < 1e-7:
                raise PathObstructionError(
                    "filling path for %s obstructed at t = %.6f (%s); "
                    "slope possibly exceptional" % (slope, t, e),
                    t_reached=t,
                ) from e

    # the t values are dyadic, so the last Newton solve ran at t = 1.0
    vol_shapes = signed_d_sum(spec, pt)
    if vol_shapes < _FLAT_TOL:
        raise PathObstructionError(
            "filling for %s converged to a flat solution; slope possibly exceptional"
            % slope,
            t_reached=1.0,
        )
    v_alpha = eval_v_alpha(spec, slope, pt)
    if abs(v_alpha.imag - vol_shapes) > max(_BRANCH_TOL, newton_tol):
        raise PathObstructionError(
            "filling for %s left the geometric branch (volume routes disagree "
            "by %.3e); slope possibly exceptional"
            % (slope, abs(v_alpha.imag - vol_shapes)),
            t_reached=1.0,
        )
    return FillingSolution(
        slope=slope,
        critical=CriticalPoint(pt, resid, iters),
        u=ContinuedLog.from_value(u_val),
        v=ContinuedLog.from_value(v_val),
        path_steps=steps,
        filling_tol=fill_tol,
    )
