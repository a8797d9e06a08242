"""Acceptance suite: one test per release criterion.

Each test computes its verdict, records it through the acceptance
fixture (conftest prints the block at the end of the run), and then
asserts. Criteria 1-3 run the three `knotpot selftest` groups at
acceptance sizes, so the suite and the command share one
implementation of each identity check. Criterion 6 checks conjugation paired with reversing the
slope's orientation; the -p/q fillings of the chiral 5_2 are distinct
manifolds, so their volumes are reported, not compared. Criterion 9
needs an external reference package and is skipped when that package
is not installed.
"""

import math
import random
import time

import pytest

from knotpot import selftest
from knotpot.cli import main as cli_main
from knotpot.errors import NoConvergenceError, PathObstructionError
from knotpot.invariants import (
    eval_v_alpha,
    im_v_alpha_parts,
    report_for,
    rogers_combo,
    volume_from_shapes,
)
from knotpot.potential import (
    ParamPoint,
    eta_log,
    eval_v,
    reduced_residual,
    shapes_from_point,
)
from knotpot.solver import (
    FillingSolution,
    Slope,
    normalize_slope,
    scan_fillings,
    solve_filling,
    trace_deformation,
)

_TWO_PI_I = 2j * math.pi


def _dist_mod(a, period):
    # distance of a from the nearest multiple of period
    r = a % period
    return min(r, period - r)


def _conjugate_point(pt):
    # complex conjugate of a point, every stored log conjugated with it
    values = {v: complex(w).conjugate() for v, w in pt.values.items()}
    return ParamPoint(
        pt.spec,
        values,
        {v: lw.conjugate() for v, lw in pt.logs.items()},
        tuple(m.evaluate(values) for m in pt.spec.tables.monomials),
        tuple(lw.conjugate() for lw in pt.tracked_logs),
    )


@pytest.fixture(scope="module")
def scan(spec):
    """Full scan pmax=8 qmax=3, shared by criteria 4 and 5.

    Returns (rows, elapsed) where rows are (slope, solution or None).
    """
    t0 = time.perf_counter()
    rows = [
        (slope, sol if isinstance(sol, FillingSolution) else None)
        for slope, sol in scan_fillings(spec, 8, 3)
    ]
    return rows, time.perf_counter() - t0


def _check_group(acceptance, number, label, seconds, group, **kw):
    # a knotpot selftest group at acceptance size: its verdict is the
    # criterion's, within a time bound
    t0 = time.perf_counter()
    res = group(**kw)
    dt = time.perf_counter() - t0
    ok = res.passed and dt < seconds
    acceptance(
        number,
        label,
        "PASS" if ok else "FAIL",
        "worst err/tol %.2e, %s, %.3f s" % (res.worst, res.detail, dt),
    )
    assert res.passed, res
    assert dt < seconds


def test_criterion_01_dilog_identities(acceptance):
    _check_group(
        acceptance,
        1,
        "dilog identity suite",
        5.0,
        selftest.dilog_identities,
        n=500,
        seed=20260814,
    )


def test_criterion_02_derivatives(acceptance):
    _check_group(
        acceptance,
        2,
        "gradient and hessian vs central differences",
        5.0,
        selftest.derivative_checks,
        n=100,
        seed=77,
    )


def test_criterion_03_complete_structure(acceptance):
    _check_group(
        acceptance, 3, "complete structure of 5_2", 1.0, selftest.complete_structure_check
    )


def test_criterion_04_filling_equation(acceptance, spec, scan):
    rows, dt = scan
    converged = [(sl, sol) for sl, sol in rows if sol is not None]
    assert converged
    worst_fill = 0.0
    worst_red = 0.0
    for slope, sol in converged:
        res = abs(slope.p * sol.u.value + slope.q * sol.v.value - _TWO_PI_I)
        worst_fill = max(worst_fill, res)
        worst_red = max(
            worst_red, max(abs(r) for r in reduced_residual(sol.critical.point))
        )
    ok = worst_fill <= 1e-9 and worst_red <= 1e-10 and dt < 60.0
    acceptance(
        4,
        "filling equation over scan pmax=8 qmax=3",
        "PASS" if ok else "FAIL",
        "%d/%d converged, |pu+qv-2pi i| <= %.1e, reduced <= %.1e, %.2f s"
        % (len(converged), len(rows), worst_fill, worst_red, dt),
    )
    assert worst_fill <= 1e-9
    assert worst_red <= 1e-10
    assert dt < 60.0


def test_criterion_05_thurston_bound_and_monotonicity(acceptance, spec, scan, complete):
    rows, _ = scan
    vols = [
        report_for(spec, sl, sol).volume for sl, sol in rows if sol is not None
    ]
    in_range = all(0 < v < 2.82813 for v in vols)
    seq = []
    for p in range(8, 17):
        slope = normalize_slope(p, 1)
        sol = solve_filling(spec, slope, complete=complete)
        rep = report_for(spec, slope, sol)
        seq.append((rep.volume, rep.geodesic_length))
    vol_up = all(a[0] < b[0] for a, b in zip(seq, seq[1:]))
    len_down = all(a[1] > b[1] for a, b in zip(seq, seq[1:]))
    ok = in_range and vol_up and len_down
    acceptance(
        5,
        "volumes in (0, complete) and p=8..16 monotone",
        "PASS" if ok else "FAIL",
        "%d volumes in range, vol %.6f -> %.6f rising, length %.4f -> %.4f falling"
        % (len(vols), seq[0][0], seq[-1][0], seq[0][1], seq[-1][1]),
    )
    assert in_range
    assert vol_up
    assert len_down


def test_criterion_06_well_definedness(acceptance, spec, complete):
    # cocycle part: cs and torsion must not move under (r,s) -> (r+kp, s+kq)
    worst_shift = 0.0
    sols = {}
    for p, q in ((7, 1), (5, 2), (7, 3)):
        slope = normalize_slope(p, q)
        sol = solve_filling(spec, slope, complete=complete)
        sols[(p, q)] = (slope, sol)
        rep0 = report_for(spec, slope, sol)
        cs0, tor0 = rep0.cs_value, rep0.geodesic_torsion
        for k in (-2, -1, 1, 2):
            shifted = Slope(p, q, slope.r + k * p, slope.s + k * q)
            rep1 = report_for(spec, shifted, sol)
            cs1, tor1 = rep1.cs_value, rep1.geodesic_torsion
            worst_shift = max(worst_shift, abs(cs1 - cs0), abs(tor1 - tor0))
    cocycle_ok = worst_shift <= 1e-12

    # conjugate part: complex conjugation carries the solution for the
    # oriented slope (p, q, r, s) to the solution for the reversed slope
    # (-p, -q, -r, -s), the same manifold with the conjugate
    # representation: V_alpha is conjugated, so the volume is negated,
    # cs is unchanged mod 1/2, the core length is kept and its torsion
    # negated. The -p/q fillings are different manifolds (5_2 is
    # chiral), so their volumes are only reported, not compared.
    worst_conj = 0.0
    for slope, sol in sols.values():
        pt = sol.critical.point
        conj = _conjugate_point(pt)
        rev = Slope(-slope.p, -slope.q, -slope.r, -slope.s)
        rep = report_for(spec, slope, sol)
        # (a) conj solves the hyperbolicity and reversed filling equations
        u = 2 * conj.logs[spec.meridian]
        v = 2 * eta_log(spec, conj)
        worst_conj = max(
            worst_conj,
            max(abs(r) for r in reduced_residual(conj)),
            abs(slope.p * u + slope.q * v + _TWO_PI_I),
        )
        # (b) V_alpha of the reversed slope at conj is the conjugate:
        # its volume is negated and its cs class kept
        va = eval_v_alpha(spec, slope, pt)
        va_rev = eval_v_alpha(spec, rev, conj)
        worst_conj = max(
            worst_conj,
            abs(va_rev - va.conjugate()),
            abs(va_rev.imag + rep.volume),
            _dist_mod(-va_rev.real / (2 * math.pi**2) - rep.cs_value, 0.5),
        )
        # (c) the Bloch-Wigner route, which does not go through V_alpha
        worst_conj = max(
            worst_conj,
            abs(volume_from_shapes(shapes_from_point(conj)) + rep.volume),
        )
        # (d) same core length, torsion negated mod 2 pi / q
        rep1 = report_for(spec, slope, conj)
        worst_conj = max(
            worst_conj,
            abs(rep1.geodesic_length - rep.geodesic_length),
            _dist_mod(
                rep1.geodesic_torsion + rep.geodesic_torsion, 2 * math.pi / slope.q
            ),
        )
    conj_ok = worst_conj <= 1e-9

    chiral = []
    for p, q in ((7, 1), (5, 2), (7, 3)):
        slope_n = normalize_slope(-p, q)
        try:
            sol_n = solve_filling(spec, slope_n, complete=complete)
        except (PathObstructionError, NoConvergenceError):
            continue
        slope_p, sol_p = sols[(p, q)]
        chiral.append(
            "vol(%s)=%.6f vs vol(%s)=%.6f"
            % (
                slope_p,
                report_for(spec, slope_p, sol_p).volume,
                slope_n,
                report_for(spec, slope_n, sol_n).volume,
            )
        )
    ok = cocycle_ok and conj_ok
    detail = (
        "cocycle shifts invariant to %.1e; conjugation with reversed slope "
        "exact to %.1e; chiral: %s"
        % (worst_shift, worst_conj, "; ".join(chiral) or "no -p/q slope converged")
    )
    acceptance(
        6,
        "cocycle invariance and conjugation with reversed slope",
        "PASS" if ok else "FAIL",
        detail,
    )
    assert cocycle_ok
    assert conj_ok, "conjugate point misses the reversed slope by %.2e" % worst_conj


def test_criterion_07_im_v_alpha_identity(acceptance, spec):
    rng = random.Random(20260814)
    slope = normalize_slope(7, 1)
    worst = 0.0
    for pt in selftest._regular_points(spec, rng, 100):
        lhs = eval_v_alpha(spec, slope, pt).imag
        d_sum, corr = im_v_alpha_parts(spec, pt, slope)
        worst = max(worst, abs(lhs - (d_sum + corr)))
    ok = worst <= 1e-9
    acceptance(
        7,
        "Im V_alpha = D-sum + log-modulus correction",
        "PASS" if ok else "FAIL",
        "max err %.2e at 100 regular points" % worst,
    )
    assert worst <= 1e-9


def test_criterion_08_rogers_defect_constant(acceptance, spec, complete):
    samples = trace_deformation(spec, 0.1j, 32, complete=complete)
    assert len(samples) >= 32
    defects = [
        rogers_combo(spec, s.point) - (eval_v(spec, s.point) + (s.u / 2) * (s.v / 2))
        for s in samples
    ]
    spread = max(abs(d - defects[0]) for d in defects)
    ok = spread <= 1e-9
    acceptance(
        8,
        "Rogers combination minus V + (u/2)(v/2) constant on trace",
        "PASS" if ok else "FAIL",
        "spread %.2e over %d samples, |defect| %.2e" % (spread, len(samples), abs(defects[0])),
    )
    assert spread <= 1e-9


def test_criterion_09_external_cross_check(acceptance, spec, complete):
    try:
        import snappy  # noqa: F401
    except ImportError:
        acceptance(
            9,
            "external reference cross-check",
            "SKIP",
            "snappy not installed; documented as optional, not CI-gated",
        )
        pytest.skip("snappy not installed")
    worst_vol = 0.0
    reports = {}
    for p, q in ((7, 1), (8, 1)):
        slope = normalize_slope(p, q)
        sol = solve_filling(spec, slope, complete=complete)
        rep = report_for(spec, slope, sol)
        reports[(p, q)] = (rep.volume, rep.cs_value)
        mfd = snappy.Manifold("5_2(%d,%d)" % (p, q))
        ref = float(mfd.volume())
        worst_vol = max(worst_vol, abs(reports[(p, q)][0] - ref))
    d_ours = (reports[(7, 1)][1] - reports[(8, 1)][1]) % 0.5
    d_ref = (
        float(snappy.Manifold("5_2(7,1)").chern_simons())
        - float(snappy.Manifold("5_2(8,1)").chern_simons())
    ) % 0.5
    d_err = min(abs(d_ours - d_ref), 0.5 - abs(d_ours - d_ref))
    ok = worst_vol <= 1e-6 and d_err <= 1e-6
    acceptance(
        9,
        "external reference cross-check",
        "PASS" if ok else "FAIL",
        "volume err %.2e, cs diff err %.2e" % (worst_vol, d_err),
    )
    assert worst_vol <= 1e-6
    assert d_err <= 1e-6


def test_criterion_10_scan_determinism(acceptance, tmp_path):
    argv = ["--format", "csv", "scan", "--pmax", "8", "--qmax", "3"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(["--output", str(a)] + argv) == 0
    assert cli_main(["--output", str(b)] + argv) == 0
    same = a.read_bytes() == b.read_bytes()
    acceptance(
        10,
        "repeated scans byte-identical",
        "PASS" if same else "FAIL",
        "%d bytes" % len(a.read_bytes()),
    )
    assert same
