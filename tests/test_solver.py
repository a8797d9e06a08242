"""Solver tests: slope arithmetic, the linear solve, complete structure,
deformation tracing, and filling continuation."""

import cmath
import json
import math
import random

import pytest

import _oracles as O
from knotpot import solver
from knotpot.dilog import ContinuedLog
from knotpot.errors import (
    KnotpotError,
    NoConvergenceError,
    NoGeometricRootError,
    PathObstructionError,
    SingularJacobianError,
    ValidationError,
    ZeroDenominatorError,
)
from knotpot.invariants import report_for
from knotpot.potential import (
    dump_spec,
    eta_log,
    eval_eta,
    eval_v,
    eval_v_alpha,
    load_spec,
    make_point,
    reduced_residual,
    signed_d_sum,
)
from knotpot.solver import (
    normalize_slope,
    solve_complete,
    solve_filling,
    trace_deformation,
)

TWO_PI_I = 2j * math.pi

# the default seed grid as the built-in spec's seeds, named
GRID = [dict(zip(("x", "y"), s)) for s in solver.DEFAULT_SEEDS]


# ------------------------------------------------------ normalize_slope


def test_normalize_slope_examples():
    s = normalize_slope(3, 2)
    assert (s.p, s.q, s.r, s.s) == (3, 2, 1, 1)
    s = normalize_slope(5, 1)
    assert (s.p, s.q, s.r, s.s) == (5, 1, -1, 0)
    s = normalize_slope(-6, -4)
    assert (s.p, s.q, s.r, s.s) == (3, 2, 1, 1)


def test_normalize_slope_invariants():
    rng = random.Random(43)
    for _ in range(300):
        p = rng.randint(-40, 40)
        q = rng.randint(-15, 15)
        if q == 0:
            with pytest.raises(ZeroDenominatorError):
                normalize_slope(p, q)
            continue
        s = normalize_slope(p, q)
        assert math.gcd(s.p, s.q) == 1
        assert s.q >= 1
        assert s.p * s.s - s.q * s.r == 1
        if s.q > 1:
            assert 0 <= s.s < s.q
        else:
            assert (s.r, s.s) == (-1, 0)


def test_normalize_slope_rejects_meridian():
    with pytest.raises(ZeroDenominatorError):
        normalize_slope(0, 0)


def test_slope_str():
    assert str(normalize_slope(7, 1)) == "7/1"


# --------------------------------------------------------------- _solve


def _rel_gap(x, want):
    return max(abs(a - b) for a, b in zip(x, want)) / max(map(abs, want))


def _random_system(rng, n):
    while True:
        a = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
             for _ in range(n)]
        if O.cond2_oracle(a) < 100:
            b = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            return a, b


@pytest.mark.parametrize("n", [2, 3])
def test_solve_matches_mpmath_on_random_systems(n):
    rng = random.Random(n)
    for _ in range(200):
        a, b = _random_system(rng, n)
        a0, b0 = [row[:] for row in a], b[:]
        x = solver._solve(a, b)
        assert (a, b) == (a0, b0)  # inputs untouched
        assert all(type(xi) is complex for xi in x)
        assert _rel_gap(x, O.solve_oracle(a, b)) <= 1e-13


def test_solve_pivots_on_a_tiny_leading_entry():
    # without row exchanges the 1e-20 pivot swamps the answer
    a = [[1e-20j, 1, 2], [1, 1, 0], [0, 1j, 1]]
    b = [1, 2, 3j]
    assert _rel_gap(solver._solve(a, b), O.solve_oracle(a, b)) <= 1e-13


def _recorded_systems(monkeypatch, run):
    systems = []
    orig = solver._solve

    def record(a, b):
        systems.append(([row[:] for row in a], b[:]))
        return orig(a, b)

    monkeypatch.setattr(solver, "_solve", record)
    run()
    monkeypatch.undo()
    return systems


def test_solve_matches_mpmath_on_newton_systems(spec, complete, monkeypatch):
    # the 3 x 3 filling systems along scan paths and the 2 x 2 fiber
    # systems along a trace, as the Newton loops assemble them
    def run():
        for p, q in ((7, 1), (-9, 2), (5, 2), (-40, 1), (13, 3), (-37, 8)):
            solve_filling(spec, normalize_slope(p, q), complete=complete)
        trace_deformation(spec, 1.5 + 0.5j, 8, complete=complete)

    systems = _recorded_systems(monkeypatch, run)
    assert {len(b) for _, b in systems} == {2, 3}
    for a, b in systems:
        assert _rel_gap(solver._solve(a, b), O.solve_oracle(a, b)) <= 1e-13


@pytest.mark.parametrize(
    "a",
    [
        [[0j, 0j], [0j, 0j]],
        [[1 + 1j, 2 + 2j], [2 + 2j, 4 + 4j]],  # rank 1: second pivot is exactly 0
        [[1, 2, 3], [0, 0, 0], [4, 5, 6]],
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # zero first column
    ],
)
def test_solve_singular_matrix_raises(a):
    with pytest.raises(SingularJacobianError):
        solver._solve(a, [1j] * len(a))


# ------------------------------------------------------- solve_complete


def test_complete_structure_oracles(spec, complete):
    x = complete.point.values["x"]
    y = complete.point.values["y"]
    assert abs(x - O.complete_root()) < 1e-12
    assert abs(x**3 - x - 1) < 1e-12
    assert abs(y - (x + 1)) < 1e-12
    assert complete.residual_inf_norm <= 1e-12
    assert complete.newton_iters > 0
    eta = eval_eta(spec, complete.point)[0]
    assert abs(eta - 1) < 1e-10
    assert abs(eval_v(spec, complete.point).imag - O.COMPLETE_VOLUME) < 1e-8


def test_complete_meridian_pinned(spec, complete):
    assert complete.point.values["xi"] == 1
    assert complete.point.logs["xi"] == 0
    assert ContinuedLog.from_value(complete.point.logs["xi"]).winding == 0


def _x_inverted(spec):
    """The built-in with x replaced by 1/x: every exponent of x negated,
    and the coefficient of each quad term with one x."""
    doc = json.loads(dump_spec(spec))
    lon = doc["longitude"]
    monomials = [t["arg"] for t in doc["dilog_terms"]]
    for expr in (lon, lon["alternate"]):
        monomials += [expr["prefactor"]] + [f["arg"] for f in expr["factors"]]
    for m in monomials:
        if "x" in m:
            m["x"] = -m["x"]
    for t in doc["quad_terms"]:
        if t["vars"].count("x") == 1:
            t["coeff"][0] = -t["coeff"][0]
    return load_spec(json.dumps(doc))


def _scan_8x3(spec, complete):
    """{(p, q): volume Im V_alpha, or None where the filling is refused}."""
    out = {}
    for q in (1, 2, 3):
        for p in range(-8, 9):
            if math.gcd(p, q) == 1:
                slope = normalize_slope(p, q)
                try:
                    pt = solve_filling(spec, slope, complete=complete).critical.point
                except (PathObstructionError, NoConvergenceError):
                    out[p, q] = None
                else:
                    out[p, q] = eval_v_alpha(spec, slope, pt).imag
    return out


def _fillings(spec, complete, slopes):
    """Per slope the filling's u, v, counts and point values, or its error."""
    out = {}
    for p, q in slopes:
        try:
            sol = solve_filling(spec, normalize_slope(p, q), complete=complete)
        except KnotpotError as e:
            out[p, q] = repr(e)
        else:
            out[p, q] = (sol.u.value, sol.v.value, sol.critical.newton_iters,
                         sol.path_steps, sol.critical.point.values)
    return out


def test_alternate_only_factor_changes_no_filling(spec, complete):
    # eval_eta evaluates the alternate longitude from the variable
    # values, so a factor that only it has is not tracked: no point
    # build continues its log or halves a Newton step on a jump of it.
    # Tracked, this one (exactly 1) moved 17 slopes, -28/1 to -12/1.
    doc = json.loads(dump_spec(spec))
    doc["longitude"]["alternate"]["factors"].append({"exp": 0, "arg": {"x": 3}})
    variant = load_spec(json.dumps(doc))
    assert len(variant.tables.monomials) == len(spec.tables.monomials) == 5
    slopes = [(p, q) for q in range(1, 9) for p in range(-40, 41) if math.gcd(p, q) == 1]
    assert len(slopes) == 415
    want = _fillings(spec, complete, slopes)
    assert _fillings(variant, solve_complete(variant), slopes) == want


def test_complete_structure_has_principal_logs(spec, complete):
    # the default grid reaches the built-in's root on the x -> 1/x copy
    # with log x one turn off; the returned point starts every log on
    # its principal sheet, so the copy fills exactly like the built-in
    inv = _x_inverted(spec)
    cp = solve_complete(inv)
    assert abs(1 / cp.point.values["x"] - O.complete_root()) < 1e-12
    assert abs(eta_log(inv, cp.point)) <= 1e-12
    for lw in [*cp.point.logs.values(), *cp.point.tracked_logs]:
        assert ContinuedLog.from_value(lw).winding == 0
    got, want = _scan_8x3(inv, cp), _scan_8x3(spec, complete)
    assert [k for k in got if got[k] is None] == [k for k in want if want[k] is None]
    for k, vol in want.items():
        if vol is not None:
            assert abs(got[k] - vol) <= 1e-9, k


def test_complete_deterministic(spec):
    a = solve_complete(spec)
    b = solve_complete(spec)
    assert a.point.values["x"] == b.point.values["x"]
    assert a.point.values["y"] == b.point.values["y"]
    assert a.newton_iters == b.newton_iters


def test_complete_custom_seeds(spec):
    x = O.complete_root()
    cp = solve_complete(spec, seeds=[{"x": x * 1.01, "y": (x + 1) * 0.99}])
    assert abs(cp.point.values["x"] - x) < 1e-12


def test_complete_rejects_default_grid_for_renamed_variables(spec):
    # the default grid is laid onto the fiber variables by position, so
    # it serves a renamed copy; it refuses only a spec with another
    # number of fiber variables
    text = dump_spec(spec).replace('"x"', '"a"').replace('"y"', '"b"')
    renamed = load_spec(text)
    assert renamed.variables == ("a", "b", "xi")
    x = O.complete_root()
    cp = solve_complete(renamed)
    assert abs(cp.point.values["a"] - x) < 1e-12
    assert abs(cp.point.values["b"] - (x + 1)) < 1e-12
    cp = solve_complete(renamed, seeds=[{"a": x * 1.01, "b": (x + 1) * 0.99}])
    assert abs(cp.point.values["a"] - x) < 1e-12
    doc = json.loads(dump_spec(spec))
    doc["variables"] = ["x", "y", "z", "xi"]
    with pytest.raises(ValidationError, match="two fiber variables"):
        solve_complete(load_spec(json.dumps(doc)))


def test_complete_raises_spec_errors(spec):
    # a spec fault is not a seed that failed to converge
    doc = json.loads(dump_spec(spec))
    doc["quad_terms"][0]["coeff"] = [3, 2]
    half = load_spec(json.dumps(doc))
    with pytest.raises(ValidationError, match="integer quad exponents, got 3/2"):
        solve_complete(half)


def test_complete_no_usable_seed(spec):
    # (1, 1) is a singular point, so the only seed dies at construction
    with pytest.raises(NoConvergenceError):
        solve_complete(spec, seeds=[{"x": 1.0, "y": 1.0}])


def _full_grid_complete(spec, seeds, newton_tol=1e-12):
    """solve_complete as a loop over every seed before choosing a root.

    The reference for the early return: collect each distinct converged
    root in seed order, then take the first geometric one, conjugating
    a root of negative volume.
    """
    roots, best = [], math.inf
    for seed in seeds:
        values = dict(seed, xi=1.0)
        try:
            cp = solver._newton_fiber(spec, make_point(spec, values), 0j, newton_tol)
        except KnotpotError:
            continue
        key = tuple(
            (round(cp.point.values[v].real, 9), round(cp.point.values[v].imag, 9))
            for v in spec.variables
        )
        if key not in [k for k, _ in roots]:
            roots.append((key, cp))
        best = min(best, cp.residual_inf_norm)
    if not roots:
        raise NoConvergenceError("no seed converged for %s" % spec.name)
    for _, cp in roots:
        vol = signed_d_sum(spec, cp.point)
        if vol < -1e-4:
            conj = {v: z.conjugate() for v, z in cp.point.values.items()}
            pt = make_point(spec, conj)
            cp = solver.CriticalPoint(pt, solver._resid_inf(pt), cp.newton_iters)
            vol = signed_d_sum(spec, pt)
        if vol > 1e-4 and all(
            abs(t.argument.evaluate(cp.point.values).imag) > 1e-9
            for t in spec.dilog_terms
        ):
            return cp
    raise NoGeometricRootError(
        "all converged roots are flat (best residual %.3e)" % best
    )


@pytest.mark.parametrize(
    "order",
    [
        [0],
        [3, 2, 0],  # flat, then a root that is conjugated
        [3, 7, 15, 2, 0],
        [5, 12, 3, 1, 0],  # two singular seeds first
        [6, 14, 11],  # one root, conjugated, reached three times
        list(range(16)),
        list(reversed(range(16))),
    ],
)
def test_complete_early_return_matches_full_grid(spec, order):
    seeds = [GRID[i] for i in order]
    got = solve_complete(spec, seeds=seeds)
    want = _full_grid_complete(spec, seeds)
    assert got.point == want.point
    assert repr(got.point.values) == repr(want.point.values)
    assert got.newton_iters == want.newton_iters
    assert got.residual_inf_norm == want.residual_inf_norm


@pytest.mark.parametrize(
    "order, error",
    [([3, 7], NoGeometricRootError), ([7, 3], NoGeometricRootError),
     ([5, 12], NoConvergenceError)],
)
def test_complete_without_geometric_root_matches_full_grid(spec, order, error):
    # no early return: every seed runs, so the message keeps the best
    # residual over all of them
    seeds = [GRID[i] for i in order]
    with pytest.raises(error) as got:
        solve_complete(spec, seeds=seeds)
    with pytest.raises(error) as want:
        _full_grid_complete(spec, seeds)
    assert str(got.value) == str(want.value)


def test_complete_default_grid_stops_at_first_geometric_root(spec, complete):
    assert complete.newton_iters == 4  # seed 0's iterations
    assert complete.point == _full_grid_complete(spec, GRID).point


# ---------------------------------------------------- trace_deformation


def test_trace_empty_path(spec, complete):
    samples = trace_deformation(spec, 0j, 1, complete=complete)
    assert len(samples) == 1
    assert samples[0].u == 0
    assert abs(samples[0].v) < 1e-9
    assert abs(samples[0].point.values["x"] - complete.point.values["x"]) < 1e-14


def test_trace_empty_path_gives_every_sample(spec, complete):
    samples = trace_deformation(spec, 0j, 3, complete=complete)
    assert [s.u for s in samples] == [0j, 0j, 0j]
    for s in samples:
        assert s.point.values == complete.point.values
        assert abs(s.v) < 1e-9


def test_trace_refuses_no_samples_as_a_knotpot_error(spec):
    with pytest.raises(ValidationError, match="samples must be >= 1"):
        trace_deformation(spec, 0.1j, 0)


@pytest.mark.parametrize(
    "u_end", [complex(math.nan), complex(math.inf), complex(0, math.inf)]
)
def test_trace_refuses_a_non_finite_u_end(spec, u_end):
    # refused before the complete structure is solved, not reported as
    # an obstruction of the path
    with pytest.raises(ValidationError, match="u_end must be finite"):
        trace_deformation(spec, u_end, 4)


def test_trace_sample_contract(spec, complete):
    n = 8
    u_end = 0.05j
    samples = trace_deformation(spec, u_end, n, complete=complete)
    assert len(samples) == n
    for k, smp in enumerate(samples, start=1):
        assert abs(smp.u - u_end * k / n) < 1e-14
        assert max(abs(r) for r in reduced_residual(smp.point)) <= 1e-10
        # xi = e^{u/2}: u is the log-holonomy of the meridian squared
        assert abs(smp.point.values["xi"] - cmath.exp(smp.u / 2)) < 1e-12
    # v is continued from v(0) = 0, so it starts near 0 and moves smoothly
    assert abs(samples[0].v) < 0.2
    steps = [abs(b.v - a.v) for a, b in zip(samples, samples[1:])]
    assert max(steps) < 0.2


def test_trace_v_matches_eta(spec, complete):
    for smp in trace_deformation(spec, 0.08j, 4, complete=complete):
        eta = eval_eta(spec, smp.point)[0]
        assert abs(cmath.exp(smp.v / 2) - eta) < 1e-9


def test_trace_obstruction_carries_partials(spec, complete):
    with pytest.raises(PathObstructionError) as ei:
        trace_deformation(spec, 10.0 + 0j, 4, complete=complete)
    err = ei.value
    assert 0 <= err.t_reached < 1
    assert isinstance(err.partial, list)
    for smp in err.partial:
        assert max(abs(r) for r in reduced_residual(smp.point)) <= 1e-10


# (u_end, sample index, x there on the branch that the 256-, 512- and
# 1024-sample traces share); the 32-sample trace reads 0.0892-0.0009i,
# -0.5611+0.4596i and -0.2728+0.2991i there instead
_BRANCH_JUMPS = [
    (-5.183059355989387 - 0.00326387386572169j, 8, 0.1393 + 0.0011j),
    (-0.9854607716274699 - 6.249100060732669j, 27, -1.3718 + 0.4219j),
    (0.004515441246690435 - 7.170558961921196j, 17, -1.0051 + 0.6420j),
]


def _x_at(spec, complete, u_end, samples, index):
    smp = trace_deformation(spec, u_end, samples, complete=complete)[index]
    assert smp.u == pytest.approx(u_end * (index + 1) / samples, abs=1e-12)
    return smp.point.values["x"]


@pytest.mark.parametrize("u_end, index, fine", _BRANCH_JUMPS)
def test_trace_branch_jump_reference(spec, complete, u_end, index, fine):
    # the reference the xfail below compares against: sample index of
    # 32 is sample 8 * index + 7 of 256
    assert abs(_x_at(spec, complete, u_end, 256, 8 * index + 7) - fine) < 1e-4


@pytest.mark.xfail(
    strict=True,
    reason="trace_deformation jumps solution branches: with 32 samples the "
    "fiber Newton lands on another root than with 256, 512 or 1024 samples, "
    "which agree with each other",
)
@pytest.mark.parametrize("u_end, index, fine", _BRANCH_JUMPS)
def test_trace_stays_on_one_branch_when_sampled_finer(spec, complete, u_end, index, fine):
    x32 = _x_at(spec, complete, u_end, 32, index)
    x256 = _x_at(spec, complete, u_end, 256, 8 * index + 7)
    assert abs(x32 - x256) < 1e-9


# --------------------------------------------------------- solve_filling


def test_filling_oracle_slope_seven(spec, complete):
    sol = solve_filling(spec, normalize_slope(7, 1), complete=complete)
    assert abs(sol.u.value - (-0.180404556313123 + 0.604356626391897j)) < 1e-10
    assert sol.filling_residual <= 1e-9
    assert sol.critical.residual_inf_norm <= 1e-10
    assert sol.path_steps >= 1
    # u and v really are log xi^2 and log eta^2 on the tracked branch
    pt = sol.critical.point
    assert abs(cmath.exp(sol.u.value / 2) - pt.values["xi"]) < 1e-12
    assert abs(cmath.exp(sol.v.value / 2) - eval_eta(spec, pt)[0]) < 1e-9


def test_filling_equation_exact(spec, complete):
    for p, q in ((7, 1), (-7, 1), (5, 2), (7, 3), (16, 1)):
        s = normalize_slope(p, q)
        sol = solve_filling(spec, s, complete=complete)
        assert abs(p * sol.u.value + q * sol.v.value - TWO_PI_I) <= 1e-9
        assert max(abs(r) for r in reduced_residual(sol.critical.point)) <= 1e-10


@pytest.mark.parametrize(
    "p, q", [(10**400, 1), (1, 10**400), (-(10**400), 3)], ids=["p", "q", "negative-p"]
)
def test_filling_refuses_a_slope_beyond_float_range(spec, complete, p, q):
    with pytest.raises(ValidationError, match="float range"):
        solve_filling(spec, normalize_slope(p, q), complete=complete)


def test_filling_runs_a_slope_near_the_float_limit(spec, complete):
    # such a filling barely moves the point from the complete structure
    sol = solve_filling(spec, normalize_slope(10**300, 1), complete=complete)
    assert abs(sol.critical.point.values["x"] - complete.point.values["x"]) < 1e-9
    assert abs(signed_d_sum(spec, sol.critical.point) - O.COMPLETE_VOLUME) <= 1e-14


# the cusp shape dv/du at the complete structure, from the fiber tangent
# of log_hessian (ROADMAP item 7)
_TAU = 2.4902446675066088 - 2.9794470664789774j


def _filling_volume(spec, complete, p, q):
    sol = solve_filling(spec, normalize_slope(p, q), complete=complete)
    return signed_d_sum(spec, sol.critical.point)


def test_filling_accepts_large_q_below_the_complete_volume(spec, complete):
    # q v is known only to about q eps, so from q of about 10^5 on the
    # filling equation is accepted at its float rounding floor; the
    # volumes rise toward the complete volume as pi^2/Q shrinks
    vols = [_filling_volume(spec, complete, 1, 10**k) for k in (4, 5, 6)]
    assert vols[0] < vols[1] < vols[2] < O.COMPLETE_VOLUME


@pytest.mark.parametrize("p, q", [(1, 10**10), (1, 10**300)], ids=["q-1e10", "q-1e300"])
def test_filling_accepts_a_slope_at_float_resolution(spec, complete, p, q):
    # pi^2/Q is below float resolution, so the filling is the complete
    # structure to within rounding
    assert abs(_filling_volume(spec, complete, p, q) - O.COMPLETE_VOLUME) <= 1e-14


@pytest.mark.parametrize(
    "p, q", [(1, 10**4), (1, 10**5), (1, 10**6), (10**5, 1), (10**6, 1)]
)
def test_large_slope_core_length_is_two_pi_over_q(spec, complete, p, q):
    # Neumann-Zagier: the core geodesic has length 2 pi/Q + O(Q^-2),
    # Q = |p + q tau|^2 / |Im tau|
    slope = normalize_slope(p, q)
    sol = solve_filling(spec, slope, complete=complete)
    length = report_for(spec, slope, sol).geodesic_length
    big_q = abs(p + q * _TAU) ** 2 / abs(_TAU.imag)
    assert abs(length * big_q / (2 * math.pi) - 1) <= 1e-6


def test_filling_default_complete(spec):
    sol = solve_filling(spec, normalize_slope(7, 1))
    assert abs(sol.u.value.real + 0.180404556313123) < 1e-10


def test_filling_warm_start_determinism(spec, complete):
    a = solve_filling(spec, normalize_slope(5, 2), complete=complete)
    b = solve_filling(spec, normalize_slope(5, 2), complete=complete)
    assert a.u.value == b.u.value
    assert a.v.value == b.v.value
    assert a.path_steps == b.path_steps
    assert a.critical.point.values["x"] == b.critical.point.values["x"]


def test_filling_zero_slope_is_flat(spec, complete):
    with pytest.raises(PathObstructionError, match="flat") as ei:
        solve_filling(spec, normalize_slope(0, 1), complete=complete)
    assert ei.value.partial == []  # only a trace has partial samples


def test_filling_branch_departure_detected(spec, complete):
    # the path for -1/1 crosses a dilog cut; the endpoint is a critical
    # point but not on the geometric branch, and is reported as such
    with pytest.raises(PathObstructionError, match="possibly exceptional"):
        solve_filling(spec, normalize_slope(-1, 1), complete=complete)


def test_filling_conjugate_point_solves_negated_target(spec, complete):
    # conjugating a (p,q) solution flips the filling target to -2 pi i;
    # the x/y equations are conjugation-invariant
    sol = solve_filling(spec, normalize_slope(7, 1), complete=complete)
    conj_vals = {
        v: sol.critical.point.values[v].conjugate() for v in spec.variables
    }
    conj_pt = make_point(spec, conj_vals)
    assert max(abs(r) for r in reduced_residual(conj_pt)) <= 1e-9
    lhs = 7 * sol.u.value.conjugate() + sol.v.value.conjugate()
    assert abs(lhs + TWO_PI_I) <= 1e-9


@pytest.mark.parametrize("tol", [1e-9, 1e-8, 1e-6])
def test_filling_accepts_what_a_looser_newton_tol_converges(spec, complete, tol):
    # newton_tol is the one tolerance: every slope the default accepts
    # is accepted at a looser one, within it and at the same volume
    want = {k: vol for k, vol in _scan_8x3(spec, complete).items() if vol is not None}
    assert len(want) == 30
    loose = solve_complete(spec, newton_tol=tol)
    for (p, q), vol in want.items():
        slope = normalize_slope(p, q)
        sol = solve_filling(spec, slope, complete=loose, newton_tol=tol)
        assert sol.critical.residual_inf_norm <= tol, (p, q)
        assert sol.filling_residual <= tol, (p, q)
        assert abs(eval_v_alpha(spec, slope, sol.critical.point).imag - vol) <= 1e-9, (p, q)


@pytest.mark.parametrize("tol", [1e-5, 1e-4, 1e-3])
def test_loose_newton_tol_reports_no_hyperbolic_slope_exceptional(spec, complete, tol):
    # the volume routes agree to the accuracy of the solve, newton_tol,
    # so a tolerance looser than _BRANCH_TOL refuses no slope that the
    # default accepts, and accepts none that it refuses
    want = _scan_8x3(spec, complete)
    assert sum(vol is not None for vol in want.values()) == 30
    loose = solve_complete(spec, newton_tol=tol)
    for (p, q), vol in want.items():
        slope = normalize_slope(p, q)
        if vol is None:
            with pytest.raises(PathObstructionError):
                solve_filling(spec, slope, complete=loose, newton_tol=tol)
            continue
        sol = solve_filling(spec, slope, complete=loose, newton_tol=tol)
        assert abs(eval_v_alpha(spec, slope, sol.critical.point).imag - vol) <= 1e-6, (p, q)


@pytest.mark.parametrize("tol", [2e-3, 1.0])
def test_filling_refuses_newton_tol_above_the_cap(spec, complete, tol):
    with pytest.raises(ValidationError, match="newton_tol must be at most 0.001"):
        solve_filling(spec, normalize_slope(7, 1), complete=complete, newton_tol=tol)


_ENTRY_POINTS = {
    "solve_complete": lambda spec, cp, tol: solve_complete(spec, newton_tol=tol),
    "trace_deformation": lambda spec, cp, tol: trace_deformation(
        spec, 0.1j, 4, complete=cp, newton_tol=tol
    ),
    "solve_filling": lambda spec, cp, tol: solve_filling(
        spec, normalize_slope(7, 1), complete=cp, newton_tol=tol
    ),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, 2e-3, 1.0])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_refuse_a_bad_newton_tol(spec, complete, entry, tol):
    # a nan, 0 or negative tolerance would read as a path that never
    # converges, and a loose one would accept an unrefined seed
    with pytest.raises(ValidationError, match="newton_tol must be at most 0.001"):
        _ENTRY_POINTS[entry](spec, complete, tol)


def test_filling_obstructed_when_newton_never_converges(spec, complete):
    # no residual reaches 1e-300, so every Newton solve runs out of
    # iterations, the t-step halves until it collapses, and the path
    # stops where it began
    with pytest.raises(PathObstructionError) as ei:
        solve_filling(spec, normalize_slope(7, 1), complete=complete, newton_tol=1e-300)
    assert ei.value.t_reached == 0.0
    assert "filling path for 7/1 obstructed at t = 0.000000" in str(ei.value)
    assert "filling Newton: no convergence" in str(ei.value)
