"""Invariant extraction tests: V_alpha, the two volume routes, CS and
core-geodesic well-definedness, and the Rogers-combination identities."""

import json
import math

import pytest

import _oracles as O
from knotpot.invariants import (
    InvariantReport,
    eval_v_alpha,
    im_v_alpha_parts,
    report_for,
    rogers_combo,
    volume_from_shapes,
)
from knotpot.errors import ValidationError
from knotpot.potential import (
    dump_spec,
    eval_v,
    load_spec,
    make_point,
    shapes_from_point,
)
from knotpot.solver import (
    Slope,
    normalize_slope,
    solve_complete,
    solve_filling,
    trace_deformation,
)
from test_potential import regular_points

PI = math.pi

# volumes frozen from an independent prototype run cross-checked with
# Neumann-Zagier length asymptotics; tolerances per contract
VOLUME_TABLE = {
    (7, 1): 2.537725256304,
    (-7, 1): 1.757126029188,
    (8, 1): 2.585608684946,
    (16, 1): 2.744789034116,
    (5, 2): 2.612074766626,
    (7, 3): 2.726766281514,
    (1, 1): 1.398508884151,
}


@pytest.fixture(scope="module")
def seven(spec, complete):
    return solve_filling(spec, normalize_slope(7, 1), complete=complete)


# ---------------------------------------------------------- eval_v_alpha


def test_v_alpha_all_ones_limit(spec):
    slope = normalize_slope(3, 2)  # s = 1, q = 2
    want = slope.s * PI**2 / slope.q
    errs = []
    for t in (1e-2, 1e-4):
        pt = make_point(
            spec, {"x": 1 + 2 * t, "y": 1 + t * 1j, "xi": 1 - t + t * 1j}
        )
        errs.append(abs(eval_v_alpha(spec, slope, pt) - want))
    assert errs[0] > errs[1]
    assert errs[1] < 1e-2


def test_v_alpha_cocycle_shift_is_pi_squared(spec, seven):
    pt = seven.critical.point
    base = normalize_slope(7, 1)
    shifted = Slope(7, 1, base.r + 7, base.s + 1)
    delta = eval_v_alpha(spec, shifted, pt) - eval_v_alpha(spec, base, pt)
    assert abs(delta - PI**2) < 1e-12


def test_v_alpha_imag_is_shape_volume_at_solution(spec, seven):
    got = eval_v_alpha(spec, normalize_slope(7, 1), seven.critical.point)
    sh = shapes_from_point(seven.critical.point)
    assert abs(got.imag - volume_from_shapes(sh)) < 1e-9


# -------------------------------------------------------------- volumes


def test_volume_oracle_table(spec, complete):
    for (p, q), want in VOLUME_TABLE.items():
        sol = solve_filling(spec, normalize_slope(p, q), complete=complete)
        slope = normalize_slope(p, q)
        vol = report_for(spec, slope, sol).volume
        assert abs(vol - want) < 1e-9, (p, q)
        assert abs(volume_from_shapes(shapes_from_point(sol.critical.point)) - vol) < 1e-9
        assert 0 < vol < O.COMPLETE_VOLUME


def test_volume_of_complete_without_slope(spec, complete):
    vol = eval_v(spec, complete.point).imag
    assert abs(vol - O.COMPLETE_VOLUME) < 1e-8


def test_volume_from_shapes_symmetries(spec, complete):
    sh = shapes_from_point(complete.point)
    assert abs(volume_from_shapes(sh) - O.COMPLETE_VOLUME) < 1e-9
    conj = type(sh)(*[z.conjugate() for z in sh.as_tuple()])
    assert abs(volume_from_shapes(conj) + O.COMPLETE_VOLUME) < 1e-9
    # b5 = 1/d4 makes that pair cancel identically
    from knotpot.dilog import bloch_wigner_d

    assert abs(bloch_wigner_d(sh.d4) + bloch_wigner_d(sh.b5)) < 1e-13


def test_volume_from_shapes_real_is_zero():
    from knotpot.potential import Shapes

    assert volume_from_shapes(Shapes(2.0, 3.0, 0.5, 1 / 3, 6.0)) == 0.0


# ------------------------------------------------------------ CS value


def test_cs_representative_and_ambiguity(spec, seven):
    rep = report_for(spec, normalize_slope(7, 1), seven)
    cs, amb = rep.cs_value, rep.cs_ambiguity
    assert amb == 0.5
    assert 0 <= cs < 0.5
    assert abs(cs - 0.2012304604) < 1e-9


def test_cs_cocycle_invariance(spec, seven):
    base = normalize_slope(7, 1)
    cs0 = report_for(spec, base, seven).cs_value
    for k in (-2, -1, 1, 2):
        shifted = Slope(7, 1, base.r + k * 7, base.s + k * 1)
        csk = report_for(spec, shifted, seven).cs_value
        assert abs(csk - cs0) < 1e-12


def test_cs_cocycle_invariance_q_three(spec, complete):
    slope = normalize_slope(7, 3)
    sol = solve_filling(spec, slope, complete=complete)
    cs0 = report_for(spec, slope, sol).cs_value
    for k in (-2, -1, 1, 2):
        shifted = Slope(slope.p, slope.q, slope.r + k * slope.p, slope.s + k * slope.q)
        csk = report_for(spec, shifted, sol).cs_value
        assert abs(csk - cs0) < 1e-12


# -------------------------------------------------------- core geodesic


def test_core_geodesic_oracle(spec, seven):
    rep = report_for(spec, normalize_slope(7, 1), seven)
    length, torsion = rep.geodesic_length, rep.geodesic_torsion
    assert abs(length - 0.180404556313123) < 1e-10
    assert 0 <= torsion < 2 * PI
    # lambda = 2(s pi i - u/2)/q with q=1, s=0: length = |Re u|
    assert abs(length - abs(seven.u.value.real)) < 1e-14


def test_core_geodesic_torsion_cocycle_invariance(spec, complete):
    slope = normalize_slope(5, 2)
    sol = solve_filling(spec, slope, complete=complete)
    rep0 = report_for(spec, slope, sol)
    len0, tor0 = rep0.geodesic_length, rep0.geodesic_torsion
    assert 0 <= tor0 < 2 * PI / slope.q
    for k in (-2, -1, 1, 2):
        shifted = Slope(slope.p, slope.q, slope.r + k * slope.p, slope.s + k * slope.q)
        repk = report_for(spec, shifted, sol)
        lenk, tork = repk.geodesic_length, repk.geodesic_torsion
        assert lenk == len0
        assert abs(tork - tor0) < 1e-12


def test_core_geodesic_lengths_shrink_along_q_one(spec, complete):
    lengths = []
    for p in range(8, 13):
        sol = solve_filling(spec, normalize_slope(p, 1), complete=complete)
        lengths.append(report_for(spec, normalize_slope(p, 1), sol).geodesic_length)
    assert all(a > b > 0 for a, b in zip(lengths, lengths[1:]))


# ------------------------------------------------- Im V_alpha identity


def test_im_v_identity_without_slope(spec):
    for pt in regular_points(spec, 30, seed=211):
        d_sum, corr = im_v_alpha_parts(spec, pt)
        assert abs(eval_v(spec, pt).imag - (d_sum + corr)) < 1e-9


def test_im_v_alpha_identity_with_slope(spec):
    slope = normalize_slope(7, 1)
    for pt in regular_points(spec, 30, seed=223):
        d_sum, corr = im_v_alpha_parts(spec, pt, slope)
        want = eval_v_alpha(spec, slope, pt).imag
        assert abs(want - (d_sum + corr)) < 1e-9


def test_im_v_alpha_correction_vanishes_at_solution(spec, seven):
    d_sum, corr = im_v_alpha_parts(spec, seven.critical.point, normalize_slope(7, 1))
    assert abs(corr) < 1e-9
    assert abs(d_sum - VOLUME_TABLE[7, 1]) < 1e-9


# --------------------------------------------------------- rogers combo


def test_rogers_defect_zero_on_complete_branch(spec, complete):
    samples = trace_deformation(spec, 0.1j, 8, complete=complete)
    for smp in samples:
        defect = rogers_combo(spec, smp.point) - (
            eval_v(spec, smp.point) + (smp.u / 2) * (smp.v / 2)
        )
        assert abs(defect) < 1e-12


def test_rogers_defect_locally_constant_generic_direction(spec, complete):
    samples = trace_deformation(spec, 0.09 + 0.06j, 16, complete=complete)
    defects = [
        rogers_combo(spec, smp.point)
        - (eval_v(spec, smp.point) + (smp.u / 2) * (smp.v / 2))
        for smp in samples
    ]
    spread = max(abs(d - defects[0]) for d in defects)
    assert spread < 1e-9


def test_rogers_filling_display_matches_defect_form(spec, seven):
    # V_alpha - pi i (u/2)/q - s pi^2/q == V + (u/2)(v/2) at a filling
    # solution (substitute v = (2 pi i - p u)/q), so the two displayed
    # Rogers identities share one defect
    slope = normalize_slope(7, 1)
    pt = seven.critical.point
    lhs = rogers_combo(spec, pt) - (
        eval_v_alpha(spec, slope, pt)
        - 1j * PI * (seven.u.value / 2) / slope.q
        - slope.s * PI**2 / slope.q
    )
    rhs = rogers_combo(spec, pt) - (
        eval_v(spec, pt) + (seven.u.value / 2) * (seven.v.value / 2)
    )
    assert abs(lhs - rhs) < 1e-9


def test_rogers_conjugation(spec):
    for pt in regular_points(spec, 10, seed=227):
        conj_pt = make_point(
            spec, {v: pt.values[v].conjugate() for v in spec.variables}
        )
        assert abs(
            rogers_combo(spec, conj_pt) - rogers_combo(spec, pt).conjugate()
        ) < 1e-12


# ------------------------------------------------------------- reports


def test_report_fields(spec, seven):
    rep = report_for(spec, normalize_slope(7, 1), seven)
    assert isinstance(rep, InvariantReport)
    assert abs(rep.volume - rep.volume_from_shapes) < 1e-9
    assert rep.cs_ambiguity == 0.5
    assert 0 <= rep.cs_value < 0.5
    assert rep.geodesic_length > 0
    assert 0 <= rep.geodesic_torsion < 2 * PI
    assert rep.length_sign in (-1, 1)
    assert abs(rep.v_alpha.imag - rep.volume) < 1e-12


def test_report_for_q_two(spec, complete):
    slope = normalize_slope(5, 2)
    sol = solve_filling(spec, slope, complete=complete)
    rep = report_for(spec, slope, sol)
    assert abs(rep.volume - VOLUME_TABLE[5, 2]) < 1e-9
    assert 0 <= rep.geodesic_torsion < 2 * PI / 2
    # a report reads only the point, whichever record carries it
    assert report_for(spec, slope, sol.critical) == rep



@pytest.mark.parametrize("field", ["variables", "dilog_terms"])
def test_report_reads_shapes_by_variable_name(spec, field):
    # the 5_2 potential with its variables, or its dilog terms, in another order
    doc = json.loads(dump_spec(spec))
    doc[field] = doc[field][::-1] if field == "dilog_terms" else ["y", "x", "xi"]
    other = load_spec(json.dumps(doc))
    complete = solve_complete(other)
    slope = normalize_slope(7, 1)
    sol = solve_filling(other, slope, complete=complete)
    rep = report_for(other, slope, sol)
    assert abs(rep.volume - VOLUME_TABLE[7, 1]) < 1e-9
    assert abs(volume_from_shapes(shapes_from_point(sol.critical.point)) - rep.volume) < 1e-9
    assert abs(rep.volume_from_shapes - rep.volume) < 1e-9


def test_report_falls_back_to_term_sum_without_5_2_terms(spec):
    # the 5_2 potential with its meridian renamed: no shape map applies,
    # and the report's D-sum needs none
    renamed = load_spec(dump_spec(spec).replace('"xi"', '"m"'))
    slope = normalize_slope(7, 1)
    sol = solve_filling(renamed, slope)
    with pytest.raises(ValidationError):
        shapes_from_point(sol.critical.point)
    rep = report_for(renamed, slope, sol)
    assert abs(rep.volume - VOLUME_TABLE[7, 1]) < 1e-9
    assert abs(rep.volume_from_shapes - rep.volume) < 1e-9
