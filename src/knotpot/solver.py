"""Newton solver and continuation driver.

Three entry points, all built on damped Newton iterations in the log
coordinates of the parameter point, and a fourth that walks a box of
slopes:

  solve_complete    the complete structure, meridian pinned to 1
  trace_deformation samples of the deformation space along a u-segment
  solve_filling     the Dehn-filling critical point for a slope p/q
  scan_fillings     solve_filling on every slope of a box, as knotpot scan

Throughout, u = log xi^2 and v = log eta^2 are the branch-continued
log-holonomies of meridian and longitude, seeded u = v = 0 at the
complete structure; windings evolve only by continuation. All three
solve by the one damped-Newton loop, _newton, which steps on the
continued-log gradient and stops once the branch-free reduced
residuals are within newton_tol (default _NEWTON_TOL); solve_filling
states when a filling is accepted.
"""

import cmath
import functools
import math
import sys

from ._records import RecordBase
from .dilog import ContinuedLog
from .errors import (
    KnotpotError,
    NoConvergenceError,
    NoGeometricRootError,
    PathObstructionError,
    SingularPointError,
    StepTooLargeError,
    ValidationError,
    ZeroDenominatorError,
)
from .potential import (
    PotentialSpec,
    _check_float_range,
    _solve,
    _tracked,
    advance_point_logs,
    eval_v_alpha,
    log_gradient,
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

# trace_deformation returns every sample at once, and the CLI prints
# none before the last; knotpot scan, too, keeps every row it prints.
# A trace sample holds about 1.5 kB, so 10**6 samples run about 30 s and
# hold about 1.5 GB; a scan solves about 5,000 slopes a second and its
# CLI holds about 0.75 kB per row, so a box of 10**6 candidates, about
# 6 * 10**5 slopes in lowest terms, runs about 2 minutes and holds about
# 0.5 GB
_MAX_SAMPLES = 10**6
_MAX_SCAN_SLOPES = 10**6

# a converged endpoint whose total shape volume is below this is a
# flat representation, not a hyperbolic filling; the smallest genuine
# filling volumes are O(1), numeric dust at a flat endpoint is O(1e-5)
_FLAT_TOL = 1e-4

# at a geometric endpoint Im V_alpha and the shape-volume sum agree to
# residual accuracy: to within newton_tol, or this where newton_tol is
# tighter; a larger gap means a dilog argument crossed its cut on the
# way, i.e. the path left the geometric branch
_BRANCH_TOL = 1e-6

# normalize_slope's refusal of q = 0, which _check_slope repeats
_MERIDIAN_MSG = "slope with q = 0 (meridian) is not a filling"
# _check_slope's refusal of q < 0 and of a common factor
_LOWEST_MSG = "slope %s is not in lowest terms with q >= 1"


class Slope(RecordBase):
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


def _check_slope(slope) -> None:
    # the one slope rule of solve_filling and report_for: q = 0 raises
    # as normalize_slope does, and the filling row of the Jacobian holds
    # 2p and 2q; r and s are left free, for the shifted cocycles
    p, q = slope.p, slope.q
    if q == 0:
        raise ZeroDenominatorError(_MERIDIAN_MSG)
    if q < 0 or math.gcd(p, q) != 1:
        raise ValidationError(_LOWEST_MSG % slope)
    _check_float_range(2 * p, "slope p and q")
    _check_float_range(2 * q, "slope p and q")


def normalize_slope(p_raw: int, q_raw: int) -> Slope:
    """Lowest-terms slope with q >= 1 and the canonical cocycle."""
    if q_raw == 0:
        raise ZeroDenominatorError(_MERIDIAN_MSG)
    g = math.gcd(p_raw, q_raw)
    p, q = p_raw // g, q_raw // g
    if q < 0:
        p, q = -p, -q
    s = pow(p, -1, q)  # exists since gcd(p, q) = 1; 0 where q = 1
    r = (p * s - 1) // q
    return Slope(p, q, r, s)


def _resid_inf(pt) -> float:
    return max(map(abs, reduced_residual(pt)))


def _damped_step(pt, deltas):
    """pt with its first len(deltas) variable logs moved by -deltas.

    The step of the Newton loop: halved on each branch jump or
    singular trial point, at most 40 times, after which it raises
    NoConvergenceError. Each trial point is built by advance_point_logs
    from pt's logs, the deltas and the scale, whose compiled build_point
    forms the moved logs itself.
    """
    scale = 1.0
    for _ in range(40):
        try:
            return advance_point_logs(pt, pt.logs, deltas, scale)
        except (StepTooLargeError, SingularPointError):
            scale *= 0.5
    raise NoConvergenceError("could not step without a branch jump")


def _newton(pt, system, cap, failure):
    """Damped Newton from pt: the one Newton loop of the solver.

    system(pt) returns (r, None) to accept pt, or (r, x) to step to pt
    moved by -x (_damped_step), x solved from the Newton system at pt;
    r is a float and a function of pt alone. Returns (pt, r,
    iterations) at the accepted point, and raises
    NoConvergenceError(failure) after cap steps. A value of the system
    that leaves float range (OverflowError) raises StepTooLargeError:
    the step to pt went too far.

    Exit on a cycle: each point whose r did not fall below the
    previous iterate's is recorded by its variable and tracked logs,
    and when a recorded point recurs bit for bit the loop raises that
    error at once. The error stays true: the next iterate is a function
    of those logs alone, so a repeated point repeats forever, and every
    point of the cycle has been refused, so the full cap of iterations
    would end in this same error. r cannot fall all the way round a
    cycle, so the rule catches every cycle within two of its periods.
    system solves for x before the loop looks for a cycle, and that
    raises nothing the exit would have spared: a recurring point was
    solved without error when it was first recorded, and its solve is
    a function of the same logs.
    """
    prev, seen = math.inf, {}
    for it in range(cap):
        try:
            r, x = system(pt)
        except OverflowError as e:
            raise StepTooLargeError("Newton system overflow (%s)" % e) from e
        if x is None:
            return pt, r, it
        if r >= prev:
            state = (*pt.logs.values(), *pt.tracked_logs)
            # == and hash take -0.0 for 0.0, so a match is confirmed by
            # repr, which costs too much to form for every state
            if any(repr(s) == repr(state) for s in seen.get(state, ())):
                break
            seen.setdefault(state, []).append(state)
        prev = r
        pt = _damped_step(pt, x)
    # after a break too: the remaining iterations would only cycle
    raise NoConvergenceError(failure)


def _newton_fiber(spec, pt, xi_log, tol) -> CriticalPoint:
    """Newton on the non-meridian variables at a fixed meridian log.

    Drives the continued-log gradient to zero, branch-continuing from
    pt at each trial step (halving on a branch jump), and accepts on
    the reduced residuals, at most 50 iterations of _newton. Each
    iteration is one call of the spec's compiled fiber_step
    (potential.SpecTables): the residual, and where it is above tol
    the step solved from the non-meridian block of the gradient and
    hessian; it refuses a converged point on a log pole.
    """
    logmap = dict(pt.logs)
    logmap[spec.meridian] = xi_log
    pt = advance_point_logs(pt, logmap)
    system = functools.partial(spec.tables.fiber_step, tol=tol)
    msg = "fiber Newton: no convergence in 50 iterations"
    return CriticalPoint(*_newton(pt, system, 50, msg))


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
        args = cp.point.tracked_values[: spec.tables.dilog_arg_count]
        if vol > _FLAT_TOL and all(abs(m.imag) > 1e-9 for m in args):
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


def _start(spec, complete, newton_tol):
    """(spec, point) both continuations start from: complete's point, or
    that of the complete structure of spec solved at newton_tol, and its
    own spec.

    A complete of a spec not equal to spec raises ValidationError. The
    continuation solves with the point's own spec, which every point
    built from it shares: each kernel then knows them by identity, not
    by a comparison of every term of an equal spec.
    """
    if complete is None:
        complete = solve_complete(spec, newton_tol=newton_tol)
    pt = complete.point
    _tracked(spec, pt)
    return pt.spec, pt


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
    partial trace. A fiber solve that cycles without converging (see
    _newton) counts as a failed solve and halves the step, and so does
    a solved point whose log eta the spec's longitude kernel refuses
    (past float range), or whose (u/2)(v/2), a term of the Rogers
    defect, is not finite: each sub-step reads v = 2 log eta from that
    kernel, as the filling Newton does, so no sample holds a v or a
    (u/2)(v/2) that is not finite. Emits one DeformationSample per
    target. A newton_tol as solve_complete refuses, a non-finite u_end,
    samples < 1 or above _MAX_SAMPLES, or a complete whose point
    belongs to a spec not equal to spec raises ValidationError before
    anything is solved.
    """
    _check_newton_tol(newton_tol)
    u_end = complex(u_end)
    if not cmath.isfinite(u_end):
        raise ValidationError("u_end must be finite, got %r" % u_end)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if samples > _MAX_SAMPLES:
        raise ValidationError("samples must be at most 10**6, got %d" % samples)
    spec, pt = _start(spec, complete, newton_tol)
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
                v = 2 * spec.tables.longitude(cp.point)[0]
                # the Rogers defect of the sample holds (u/2)(v/2)
                if not cmath.isfinite((nxt * u_end / 2) * (v / 2)):
                    raise StepTooLargeError("(u/2)(v/2) overflow")
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
        out.append(DeformationSample(t * u_end, pt, v))
    return out


def _newton_filling(spec, pt, p, q, t, tol):
    """Newton on {x-equation, y-equation, p u + q v = 2 pi i t}.

    At most 60 iterations of _newton, with r = |p u + q v - 2 pi i t|.
    Returns the accepted point, the iterations taken, and at that point
    the reduced residual, u = 2 log xi, v = 2 log eta and the bound the
    filling equation was accepted within.
    """
    k = len(spec.variables) - 1
    # the filling equation sums n terms, p u and q times each term of
    # v = 2 log eta; each is rounded to eps of itself, so the sum is
    # known to about n eps times their summed magnitudes; |q| is
    # scaled by n eps before it meets size, so no product overflows
    n = 1 + len(spec.tables.eta_prefactor) + len(spec.tables.eta_factors)
    accepted = None

    def system(pt):
        nonlocal accepted
        u2 = 2 * pt.logs[spec.meridian]
        eta, size, d_eta = spec.tables.longitude(pt)
        v2 = 2 * eta
        fill = p * u2 + q * v2 - _TWO_PI_I * t
        r = abs(fill)
        bound = max(tol, n * _EPS * abs(p * u2) + 2 * abs(q) * (n * _EPS * size))
        # the filling equation is cheaper to test, and the reduced
        # residual is only needed once it holds
        if r <= bound:
            resid = _resid_inf(pt)
            if resid <= tol:
                accepted = resid, u2, v2, bound
                return r, None
        # the gradient's and the hessian's non-meridian rows, then the
        # filling equation and its Jacobian row
        f = log_gradient(spec, pt)
        f[k] = fill
        jac = log_hessian(spec, pt)
        jac[k] = [2 * q * d for d in d_eta]
        jac[k][k] += 2 * p
        return r, _solve(jac, f)

    pt, _, it = _newton(pt, system, 60, "filling Newton: no convergence")
    return (pt, it, *accepted)


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
    possibly exceptional. Raises ValidationError before anything is
    solved on: a newton_tol as solve_complete refuses; a slope that
    _check_slope refuses, as report_for does: q < 0 or gcd(p, q) != 1,
    or q = 0 (ZeroDenominatorError, as normalize_slope), its r and s
    unchecked, or 2p or 2q beyond float range (the filling row of the
    Jacobian holds both); or a complete whose point belongs to a spec
    not equal to spec.
    """
    _check_newton_tol(newton_tol)
    _check_slope(slope)
    p, q = slope.p, slope.q
    spec, pt = _start(spec, complete, newton_tol)
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


def scan_fillings(spec, pmax, qmax, newton_tol=_NEWTON_TOL):
    """solve_filling on every slope p/q with |p| <= pmax, 1 <= q <= qmax
    and gcd(p, q) = 1, in `knotpot scan` order: q outer, p ascending.

    Returns an iterator of (slope, FillingSolution, or the
    PathObstructionError that refused the slope), which solves each
    slope only when its row is asked for, so a caller holds one
    solution at a time. Each slope continues from the complete
    structure of spec, solved once at newton_tol before the iterator is
    returned. Raises ValidationError before anything is solved on: a
    newton_tol as solve_complete refuses; a bound below 1; 2 pmax or
    2 qmax beyond float range (each slope's filling Jacobian holds 2p
    and 2q); or a box of more than _MAX_SCAN_SLOPES candidate slopes,
    (2 pmax + 1) qmax.
    """
    _check_newton_tol(newton_tol)
    if pmax < 1 or qmax < 1:
        raise ValidationError("scan bounds must be >= 1")
    _check_float_range(2 * max(pmax, qmax), "scan bounds")
    slopes = (2 * pmax + 1) * qmax
    if slopes > _MAX_SCAN_SLOPES:
        msg = "scan box holds (2 pmax + 1) qmax = %d candidate slopes, more than 10**6"
        raise ValidationError(msg % slopes)
    complete = solve_complete(spec, newton_tol=newton_tol)

    def rows():
        box = ((p, q) for q in range(1, qmax + 1) for p in range(-pmax, pmax + 1))
        for slope in (normalize_slope(p, q) for p, q in box if math.gcd(p, q) == 1):
            try:
                yield slope, solve_filling(spec, slope, complete, newton_tol)
            except PathObstructionError as e:
                yield slope, e

    return rows()
