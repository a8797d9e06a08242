"""Acceptance suite: one test per release criterion.

Each test computes its verdict, records it through the acceptance
fixture (conftest prints the block at the end of the run), and then
asserts. Criterion 6 checks conjugation paired with reversing the
slope's orientation; the -p/q fillings of the chiral 5_2 are distinct
manifolds, so their volumes are reported, not compared. Criterion 9
needs an external reference package and is skipped when that package
is not installed.
"""

import cmath
import math
import random
import time

import pytest

from knotpot.cli import main as cli_main
from knotpot.dilog import bloch_wigner_d, li2, principal_log
from knotpot.errors import KnotpotError, NoConvergenceError, PathObstructionError
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
    eval_eta,
    eval_v,
    log_gradient,
    log_hessian,
    make_point,
    reduced_residual,
    shapes_from_point,
)
from knotpot.solver import (
    Slope,
    normalize_slope,
    solve_complete,
    solve_filling,
    trace_deformation,
)

_PI2_6 = math.pi * math.pi / 6.0
_TWO_PI_I = 2j * math.pi


def _rand_z(rng, lo=0.08, hi=4.0):
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi + 0.1, math.pi - 0.1))


def _offish(z):
    return abs(z.imag) > 0.05 and abs(z) > 0.05 and abs(z - 1) > 0.05


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
        tuple(None if lw is None else lw.conjugate() for lw in pt.tracked_logs),
    )


def _regular_points(spec, rng, count):
    # principal-branch points with every dilog argument clear of 0, 1
    # and the cut, and every variable clear of the negative real axis
    pts = []
    while len(pts) < count:
        values = {v: _rand_z(rng, 0.3, 2.5) for v in spec.variables}
        try:
            pt = make_point(spec, values)
        except KnotpotError:
            continue
        ok = all(
            abs(m.imag) > 0.05 and abs(m - 1) > 0.05 and abs(m) > 0.05
            for m in (t.argument.evaluate(values) for t in spec.dilog_terms)
        ) and all(math.pi - abs(cmath.phase(v)) > 0.05 for v in values.values())
        if ok:
            pts.append(pt)
    return pts


@pytest.fixture(scope="module")
def scan(spec, complete):
    """Full scan pmax=8 qmax=3, shared by criteria 4 and 5.

    Returns (rows, elapsed) where rows are (slope, solution or None).
    """
    t0 = time.perf_counter()
    rows = []
    for q in (1, 2, 3):
        for p in range(-8, 9):
            if math.gcd(p, q) != 1:
                continue
            slope = normalize_slope(p, q)
            try:
                sol = solve_filling(spec, slope, complete=complete)
            except (PathObstructionError, NoConvergenceError):
                rows.append((slope, None))
            else:
                rows.append((slope, sol))
    return rows, time.perf_counter() - t0


def test_criterion_01_dilog_identities(acceptance):
    n = 500
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    worst = 0.0
    counts = [0, 0, 0, 0]
    while min(counts) < n:
        z = _rand_z(rng)
        if not _offish(z):
            continue
        if counts[0] < n:
            lhs = li2(z) + li2(1 / z)
            rhs = -_PI2_6 - 0.5 * principal_log(-z) ** 2
            worst = max(worst, abs(lhs - rhs))
            counts[0] += 1
        if counts[1] < n and _offish(1 - z):
            lhs = li2(z) + li2(1 - z)
            rhs = _PI2_6 - principal_log(z) * principal_log(1 - z)
            worst = max(worst, abs(lhs - rhs))
            counts[1] += 1
        if counts[2] < n:
            d = bloch_wigner_d(z)
            worst = max(worst, abs(bloch_wigner_d(z.conjugate()) + d))
            worst = max(worst, abs(bloch_wigner_d(1 / z) + d))
            worst = max(worst, abs(bloch_wigner_d(1 - 1 / z) - d))
            counts[2] += 1
        if counts[3] < n:
            w = _rand_z(rng, 0.2, 2.0)
            if _offish(w) and abs(1 - z * w) > 0.05:
                args = (z, w, (1 - z) / (1 - z * w), 1 - z * w, (1 - w) / (1 - z * w))
                if all(_offish(a) for a in args):
                    worst = max(worst, abs(sum(bloch_wigner_d(a) for a in args)))
                    counts[3] += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    acceptance(
        1,
        "dilog identity suite",
        "PASS" if ok else "FAIL",
        "max err %.2e over %d pts per identity, %.2f s" % (worst, n, dt),
    )
    assert worst <= 1e-10
    assert dt < 5.0


def test_criterion_02_derivatives(acceptance, spec):
    rng = random.Random(77)
    h = 1e-6
    t0 = time.perf_counter()
    worst = 0.0
    for pt in _regular_points(spec, rng, 100):
        g = log_gradient(spec, pt)
        hess = log_hessian(spec, pt)
        for j, v in enumerate(spec.variables):
            up = dict(pt.values)
            dn = dict(pt.values)
            up[v] = pt.values[v] * math.exp(h)
            dn[v] = pt.values[v] * math.exp(-h)
            pu = make_point(spec, up)
            pd = make_point(spec, dn)
            fd = (eval_v(spec, pu) - eval_v(spec, pd)) / (2 * h)
            worst = max(worst, abs(fd - g[j]) / max(1.0, abs(g[j])))
            # hessian column j against differenced gradient
            fdg = [
                (a - b) / (2 * h)
                for a, b in zip(log_gradient(spec, pu), log_gradient(spec, pd))
            ]
            for i in range(len(spec.variables)):
                worst = max(
                    worst, abs(fdg[i] - hess[i][j]) / max(1.0, abs(hess[i][j]))
                )
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 5.0
    acceptance(
        2,
        "gradient and hessian vs central differences",
        "PASS" if ok else "FAIL",
        "max rel err %.2e at 100 points, %.2f s" % (worst, dt),
    )
    assert worst <= 1e-6
    assert dt < 5.0


def test_criterion_03_complete_structure(acceptance, spec):
    t0 = time.perf_counter()
    cp = solve_complete(spec)
    pt = cp.point
    x = pt.values["x"]
    y = pt.values["y"]
    cubic = abs(x**3 - x - 1)
    elim = abs(y - (x + 1))
    eta, _ = eval_eta(spec, pt)
    eta_err = abs(eta - 1)
    vol_v = eval_v(spec, pt).imag
    vol_d = volume_from_shapes(shapes_from_point(pt))
    dt = time.perf_counter() - t0
    ok = (
        cubic <= 1e-12
        and elim <= 1e-12
        and eta_err <= 1e-10
        and abs(vol_v - 2.82812208833) <= 1e-8
        and abs(vol_d - 2.82812208833) <= 1e-8
        and abs(vol_v - vol_d) <= 1e-9
        and dt < 1.0
    )
    acceptance(
        3,
        "complete structure of 5_2",
        "PASS" if ok else "FAIL",
        "cubic %.1e, eta %.1e, vol %.11f both routes, %.3f s" % (cubic, eta_err, vol_v, dt),
    )
    assert cubic <= 1e-12
    assert elim <= 1e-12
    assert eta_err <= 1e-10
    assert abs(vol_v - 2.82812208833) <= 1e-8
    assert abs(vol_d - 2.82812208833) <= 1e-8
    assert abs(vol_v - vol_d) <= 1e-9
    assert dt < 1.0


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
        # (b) V_alpha of the reversed slope at conj is the conjugate
        va = eval_v_alpha(spec, slope, pt)
        worst_conj = max(
            worst_conj,
            abs(eval_v_alpha(spec, rev, conj) - va.conjugate()),
            abs(report_for(spec, rev, conj).volume + rep.volume),
            _dist_mod(report_for(spec, rev, conj).cs_value - rep.cs_value, 0.5),
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
    for pt in _regular_points(spec, rng, 100):
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
