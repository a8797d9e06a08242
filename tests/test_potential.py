"""Potential data model and evaluation tests."""

import cmath
import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

import _oracles as O
from knotpot import cli, dilog, potential, selftest, solver
from knotpot._records import RecordBase
from knotpot.dilog import ContinuedLog, bloch_wigner_d, li2, principal_log
from knotpot.errors import (
    SingularPointError,
    SpecFormatError,
    StepTooLargeError,
    ValidationError,
)
from knotpot.potential import (
    LongitudeExpr,
    LongitudeSpec,
    Monomial,
    ParamPoint,
    advance_point_logs,
    builtin_five_two,
    d_eta_log,
    dump_spec,
    eta_log,
    eval_eta,
    eval_longitude_expr,
    eval_v,
    eval_v_alpha,
    load_spec,
    log_gradient,
    log_hessian,
    make_point,
    reduced_residual,
    shapes_from_point,
    signed_d_sum,
)
from knotpot.invariants import im_v_alpha_parts, rogers_combo
from knotpot.solver import (
    CriticalPoint,
    DeformationSample,
    FillingSolution,
    normalize_slope,
    trace_deformation,
)

PI = math.pi


def regular_points(spec, n, seed):
    """Random points whose dilog arguments stay off 0, 1 and the cuts."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        vals = {
            "x": complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            "y": complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            "xi": complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        }
        if any(abs(v) < 0.2 or abs(v.imag) < 0.05 for v in vals.values()):
            continue
        args = [t.argument.evaluate(vals) for t in spec.dilog_terms]
        if any(
            abs(m) < 0.05 or abs(m - 1) < 0.05 or abs(m.imag) < 0.05 for m in args
        ):
            continue
        out.append(make_point(spec, vals))
    return out


def advance(pt, values):
    """pt moved to nearby values, each variable log on the branch nearest pt's."""
    logs = {}
    for v, lw in pt.logs.items():
        p = cmath.log(values[v])
        logs[v] = p + 2j * PI * round((lw.imag - p.imag) / (2 * PI))
    return advance_point_logs(pt, logs)


def winding(lw):
    return ContinuedLog.from_value(lw).winding


# ------------------------------------------------------------- builtin


def test_builtin_shape(spec):
    assert len(spec.dilog_terms) == 5
    assert spec.constant_pi2 == Fraction(-1, 6)
    assert spec.variables == ("x", "y", "xi")
    assert spec.meridian == "xi"
    assert dict(spec.longitude.prefactor.exponents) == {"x": -1, "y": 1, "xi": 6}
    assert [t.sign for t in spec.dilog_terms] == [-1, 1, -1, 1, 1]
    assert spec.longitude.alternate is not None


def test_builtin_quad_terms(spec):
    got = [(t.coeff, t.var_a, t.var_b) for t in spec.quad_terms]
    assert got == [
        (Fraction(2), "xi", "x"),
        (Fraction(-2), "xi", "y"),
        (Fraction(-6), "xi", "xi"),
    ]


# ----------------------------------------------------------------- I/O


def test_spec_round_trip_bit_exact(spec):
    text = dump_spec(spec)
    again = load_spec(text)
    assert again == spec
    assert dump_spec(again) == text


def test_load_spec_accepts_bytes_and_files(spec, tmp_path):
    text = dump_spec(spec)
    assert load_spec(text.encode()) == spec
    path = tmp_path / "five_two.json"
    path.write_text(text)
    with open(path, "rb") as fh:
        assert load_spec(fh) == spec


def _doc(spec):
    return json.loads(dump_spec(spec))


def test_load_spec_rejects_zero_sign(spec):
    doc = _doc(spec)
    doc["dilog_terms"][0]["sign"] = 0
    with pytest.raises(ValidationError):
        load_spec(json.dumps(doc))


def test_load_spec_rejects_undeclared_variable(spec):
    doc = _doc(spec)
    doc["dilog_terms"][0]["arg"] = {"w": 1}
    with pytest.raises(ValidationError, match="w"):
        load_spec(json.dumps(doc))
    doc = _doc(spec)
    doc["quad_terms"][0]["vars"] = ["xi", "w"]
    with pytest.raises(ValidationError, match="quad_terms\\[0\\]: undeclared variable 'w'"):
        load_spec(json.dumps(doc))


def test_load_spec_rejects_unknown_fields(spec):
    doc = _doc(spec)
    doc["comment"] = "nope"
    with pytest.raises(ValidationError):
        load_spec(json.dumps(doc))
    doc = _doc(spec)
    doc["dilog_terms"][0]["weight"] = 2
    with pytest.raises(ValidationError):
        load_spec(json.dumps(doc))


def test_load_spec_rejects_bad_rationals(spec):
    for bad in ([2, 4], [1, 0], [1, -6], [1.5, 2]):
        doc = _doc(spec)
        doc["constant_pi2"] = bad
        with pytest.raises(ValidationError):
            load_spec(json.dumps(doc))


@pytest.mark.parametrize(
    "path, match",
    [
        (("dilog_terms", 0, "sign"), "sign"),
        (("quad_terms", 0, "coeff", 0), "rational"),
        (("quad_terms", 0, "coeff", 1), "rational"),
        (("constant_pi2", 0), "rational"),
        (("dilog_terms", 0, "arg", "y"), "exponent"),
        (("longitude", "prefactor", "xi"), "exponent"),
        (("longitude", "factors", 0, "exp"), "exp"),
        (("longitude", "alternate", "factors", 0, "exp"), "exp"),
    ],
)
def test_load_spec_rejects_booleans_and_floats_for_integers(spec, path, match):
    # true == 1 and 1.0 == 1 in Python; the document format has integers
    for bad in (True, False, 1.0, -1.0):
        doc = _doc(spec)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(ValidationError, match=match):
            load_spec(json.dumps(doc))


def test_load_spec_requires_meridian_last(spec):
    doc = _doc(spec)
    doc["meridian"] = "x"
    with pytest.raises(ValidationError):
        load_spec(json.dumps(doc))


def _four_one_doc(quad_terms):
    """V = Li2(x m) - Li2(m/x), the figure-eight potential, meridian m,
    with a stand-in longitude."""
    return {
        "name": "4_1",
        "variables": ["x", "m"],
        "meridian": "m",
        "dilog_terms": [
            {"sign": 1, "arg": {"x": 1, "m": 1}},
            {"sign": -1, "arg": {"x": -1, "m": 1}},
        ],
        "quad_terms": quad_terms,
        "constant_pi2": [0, 1],
        "longitude": {"prefactor": {"x": 1}, "factors": [{"exp": 1, "arg": {"x": 1}}]},
    }


def test_load_spec_accepts_a_meridian_in_no_quad_term():
    # a zero coefficient changes nothing, so no quad term need hold the
    # meridian: the spec without one solves as its zero-coefficient twin
    bare = load_spec(json.dumps(_four_one_doc([])))
    twin = load_spec(json.dumps(_four_one_doc([{"coeff": [0, 1], "vars": ["m", "m"]}])))
    seeds = [{"x": 0.5 + 0.8j}]
    got, want = (solver.solve_complete(s, seeds=seeds) for s in (bare, twin))
    assert repr(got.point.values) == repr(want.point.values)
    assert abs(got.point.values["x"] - cmath.exp(1j * PI / 3)) < 1e-12
    volume = signed_d_sum(bare, got.point)
    assert volume == signed_d_sum(twin, want.point)
    assert abs(volume - 2 * bloch_wigner_d(cmath.exp(1j * PI / 3))) < 1e-12


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["longitude"].pop("prefactor"), "longitude: needs prefactor and factors"),
        (
            lambda d: d["longitude"]["alternate"].pop("factors"),
            "longitude.alternate: needs prefactor and factors",
        ),
        (lambda d: d.update(variables=["x", "x", "xi"]), "variables: names must be distinct"),
        (
            lambda d: d["dilog_terms"][0].update(arg=[1, 2]),
            "dilog_terms[0]: monomial must be a var -> exponent map",
        ),
        (lambda d: d["quad_terms"][0].update(vars=["x"]), "quad_terms[0]: vars must be a pair"),
    ],
    ids=[
        "no_prefactor",
        "no_alternate_factors",
        "repeated_variable",
        "arg_not_a_map",
        "vars_not_a_pair",
    ],
)
def test_load_spec_names_the_faulty_field(spec, edit, message):
    doc = _doc(spec)
    edit(doc)
    with pytest.raises(ValidationError) as ei:
        load_spec(json.dumps(doc))
    assert str(ei.value) == message


@pytest.mark.parametrize(
    "path",
    [("dilog_terms",), ("quad_terms",), ("longitude", "factors"),
     ("longitude", "alternate", "factors")],
)
def test_load_spec_rejects_term_lists_that_are_not_lists(spec, path):
    for bad in (None, 3, 1.5, True):
        doc = _doc(spec)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(ValidationError, match="must be a list"):
            load_spec(json.dumps(doc))


def test_load_spec_rejects_bytes_that_are_not_utf8(spec):
    with pytest.raises(SpecFormatError, match="utf-8"):
        load_spec(b"\x80" + dump_spec(spec).encode())


def test_load_spec_rejects_an_integer_too_long_to_convert(spec):
    text = dump_spec(spec).replace('"sign": -1', '"sign": ' + "1" * 5000, 1)
    with pytest.raises(SpecFormatError, match="digits"):
        load_spec(text)


def test_load_spec_parse_error_has_position():
    with pytest.raises(SpecFormatError, match="line"):
        load_spec('{"name": "x",')


# -------------------------------------------------------------- points


def test_make_point_principal(spec):
    pt = make_point(spec, {"x": 2, "y": 3, "xi": 1})
    assert pt.logs["xi"] == 0
    assert all(winding(lw) == 0 for lw in pt.logs.values())
    # 1 - y/xi, a negative real near -2 (y round-trips through exp),
    # logs onto the upper edge of the cut
    j = spec.tables.monomials.index(spec.dilog_terms[1].argument)
    lw = pt.tracked_logs[j]
    assert lw == principal_log(1 - pt.tracked_values[j]) and lw.imag == PI
    assert abs(lw - principal_log(-2)) < 1e-15
    for v in spec.variables:
        assert abs(cmath.exp(pt.logs[v]) - pt.values[v]) < 1e-12


def test_make_point_all_ones_singular(spec):
    with pytest.raises(SingularPointError):
        make_point(spec, {"x": 1, "y": 1, "xi": 1})


def test_make_point_names_offending_monomial(spec):
    # only y/x hits 1 here
    with pytest.raises(SingularPointError, match="= 1") as ei:
        make_point(spec, {"x": 2, "y": 2, "xi": 5})
    assert "x" in str(ei.value) and "y" in str(ei.value)


def test_make_point_zero_variable(spec):
    with pytest.raises(SingularPointError):
        make_point(spec, {"x": 0, "y": 3, "xi": 1})


def test_make_point_requires_exact_cover(spec):
    with pytest.raises(ValidationError):
        make_point(spec, {"x": 2, "y": 3})


def test_advance_point_continues_branches(spec):
    pt = make_point(spec, {"x": -2 + 0.1j, "y": 3, "xi": 1})
    # walk x across the negative real axis; principal log would jump
    cur = pt
    for im in (0.05, 0.0, -0.05, -0.1):
        cur = advance(cur, {"x": -2 + im * 1j, "y": 3, "xi": 1})
    assert winding(cur.logs["x"]) == 1  # crossed the principal cut
    assert cur.logs["x"].imag > PI
    assert abs(cmath.exp(cur.logs["x"]) - (-2 - 0.1j)) < 1e-12


def test_advance_point_step_too_large(spec):
    pt = make_point(spec, {"x": 2, "y": 3, "xi": 1})
    with pytest.raises(StepTooLargeError):
        advance(pt, {"x": -2, "y": 3, "xi": 1})
    # the tracked logs of 1 - y/x and 1 - x/xi jump by pi even when the
    # variable log is handed over already continued
    logs = dict(pt.logs, x=cmath.log(-2))
    with pytest.raises(StepTooLargeError, match="jump"):
        advance_point_logs(pt, logs)


def test_advance_point_logs_overflow_is_a_step_too_large(spec, complete):
    # exp of the log overflows: the solvers must halve, not crash
    pt = complete.point
    huge = dict(pt.logs)
    huge["xi"] = 1e300 + 0j
    with pytest.raises(StepTooLargeError, match="overflow"):
        advance_point_logs(pt, huge)
    bad = dict(huge, xi=complex(math.nan, 0.0))
    with pytest.raises(StepTooLargeError, match="not finite"):
        advance_point_logs(pt, bad)
    # an infinite log is a step too far, as a NaN one is
    for lx in (complex(0.0, math.inf), complex(-math.inf, 0.0)):
        with pytest.raises(StepTooLargeError, match="not finite"):
            advance_point_logs(pt, dict(pt.logs, x=lx))
    # a finite log whose exp underflows to 0 is the log pole make_point
    # refuses, which the damped step also halves on
    with pytest.raises(SingularPointError, match="variable x = 0"):
        advance_point_logs(pt, dict(pt.logs, x=complex(-1e308, 0.0)))


def test_advance_point_logs_monomial_power_overflow(spec):
    # exp(300) is finite, its cube is not
    doc = _doc(spec)
    doc["dilog_terms"][0]["arg"] = {"x": 3, "xi": -1}
    cubic = load_spec(json.dumps(doc))
    pt = make_point(cubic, {"x": 0.5 + 0.5j, "y": 0.3 + 0.6j, "xi": 1.1})
    logs = dict(pt.logs)
    logs["x"] = 300 + 0.5j
    with pytest.raises(StepTooLargeError, match="overflow"):
        advance_point_logs(pt, logs)


# -------------------------------------------------------------- eval_v


def test_eval_v_all_ones_limit(spec):
    # V -> (-1+1-1+1+1) pi^2/6 - pi^2/6 = 0 as (x,y,xi) -> (1,1,1)
    vals = []
    for t in (1e-2, 1e-4, 1e-6):
        pt = make_point(
            spec, {"x": 1 + 2 * t, "y": 1 + t * 1j, "xi": 1 - t + t * 1j}
        )
        vals.append(abs(eval_v(spec, pt)))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-4


def test_eval_v_independent_resummation(spec):
    # term-by-term against the mpmath oracle, continued logs all trivial
    pt = make_point(spec, {"x": 2, "y": 3, "xi": 1})
    want = 0j
    for t in spec.dilog_terms:
        want += t.sign * O.li2_oracle(t.argument.evaluate(pt.values))
    # log xi = 0 kills the quadratic terms
    want += float(spec.constant_pi2) * PI**2
    assert abs(eval_v(spec, pt) - want) < 1e-13


def test_eval_v_imag_at_complete(spec, complete):
    assert abs(eval_v(spec, complete.point).imag - O.COMPLETE_VOLUME) < 1e-10


def test_eval_v_schwarz_reflection(spec):
    for pt in regular_points(spec, 20, seed=101):
        conj_pt = make_point(
            spec, {v: pt.values[v].conjugate() for v in spec.variables}
        )
        lhs = eval_v(spec, conj_pt)
        rhs = eval_v(spec, pt).conjugate()
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------- derivatives


def test_log_gradient_display_point(spec):
    pt = make_point(spec, {"x": 2, "y": 3, "xi": 1})
    g = log_gradient(spec, pt)
    # x-component: the displayed log[xi^2 (1-xi/x) / ((1-y/x)(1-x/xi))]
    # evaluates to log 1; the term-sum form lands on the 2 pi i lift,
    # so the check is multiplicative
    assert abs(cmath.exp(g[0]) - 1) < 1e-14
    assert abs(g[0] - (-2j * PI)) < 1e-13
    assert abs(g[1] - math.log(3 / 8)) < 1e-14
    assert abs(g[1].imag) == 0


def test_log_gradient_matches_display_products(spec):
    # exp(g_x) = xi^2 (1-xi/x)/((1-y/x)(1-x/xi));
    # exp(g_y) = (1-y/x)/(xi^2 (1-y/xi)(1-1/(y xi)))
    for pt in regular_points(spec, 25, seed=103):
        x, y, xi = (pt.values[v] for v in ("x", "y", "xi"))
        g = log_gradient(spec, pt)
        disp_x = xi**2 * (1 - xi / x) / ((1 - y / x) * (1 - x / xi))
        disp_y = (1 - y / x) / (xi**2 * (1 - y / xi) * (1 - 1 / (y * xi)))
        assert abs(cmath.exp(g[0]) - disp_x) < 1e-10 * max(1.0, abs(disp_x))
        assert abs(cmath.exp(g[1]) - disp_y) < 1e-10 * max(1.0, abs(disp_y))


def test_log_gradient_finite_differences(spec):
    h = 1e-6
    for pt in regular_points(spec, 30, seed=107):
        g = log_gradient(spec, pt)
        for i, v in enumerate(spec.variables):
            up = dict(pt.values)
            dn = dict(pt.values)
            up[v] = pt.values[v] * cmath.exp(h)
            dn[v] = pt.values[v] * cmath.exp(-h)
            fd = (
                eval_v(spec, advance(pt, up))
                - eval_v(spec, advance(pt, dn))
            ) / (2 * h)
            assert abs(fd - g[i]) < 1e-6 * max(1.0, abs(g[i]))


def test_log_hessian_display_point(spec):
    pt = make_point(spec, {"x": 2, "y": 3, "xi": 1})
    h = log_hessian(spec, pt)
    # (x,x): terms y/x, xi/x, x/xi give 3 + 1 - 2
    assert abs(h[0][0] - 2) < 1e-14


def test_log_hessian_symmetry_and_fd(spec):
    dh = 1e-6
    for pt in regular_points(spec, 15, seed=109):
        h = log_hessian(spec, pt)
        assert h == [list(col) for col in zip(*h)]
        for j, v in enumerate(spec.variables):
            up = dict(pt.values)
            dn = dict(pt.values)
            up[v] = pt.values[v] * cmath.exp(dh)
            dn[v] = pt.values[v] * cmath.exp(-dh)
            fd = [
                (a - b) / (2 * dh)
                for a, b in zip(
                    log_gradient(spec, advance(pt, up)),
                    log_gradient(spec, advance(pt, dn)),
                )
            ]
            for i, row in enumerate(h):
                assert abs(fd[i] - row[j]) < 1e-6 * max(1.0, abs(row[j]))


def test_array_evaluators_return_plain_lists(spec, complete):
    n = len(spec.variables)
    for pt in regular_points(spec, 5, seed=131) + [complete.point]:
        g = log_gradient(spec, pt)
        d = d_eta_log(spec, pt)
        h = log_hessian(spec, pt)
        assert type(g) is list and type(d) is list and type(h) is list
        assert len(g) == len(d) == len(h) == n
        assert all(type(row) is list and len(row) == n for row in h)
        cells = [z for row in h for z in row]
        assert all(type(z) is complex for z in g + d + cells)
        # a fresh matrix per call: the filling Newton overwrites a row
        again = log_hessian(spec, pt)
        assert again == h and again is not h
        assert all(a is not b for a, b in zip(again, h))


# ----------------------------------------------------------- longitude


def test_eval_longitude_display_point(spec):
    # (x, y, xi) = (1, 2, 1) pins the primary form to (2/1)(1 - 1/2);
    # x/xi = 1 makes this a singular ParamPoint, so evaluate the
    # expression directly on the values
    val = eval_longitude_expr(spec.longitude, {"x": 1, "y": 2, "xi": 1})
    assert abs(val - 1) < 1e-15


def test_eta_is_one_at_complete(spec, complete):
    primary, alternate = eval_eta(spec, complete.point)
    assert abs(primary - 1) < 1e-10
    assert alternate is not None
    assert abs(alternate - 1) < 1e-10


def test_eta_forms_agree_on_deformation_samples(spec, complete):
    samples = trace_deformation(spec, 0.12j, 6, complete=complete)
    for smp in samples:
        primary, alternate = eval_eta(spec, smp.point)
        assert alternate is not None
        assert abs(primary - alternate) < 1e-9


def test_singular_alternate_leaves_its_slot_empty(spec):
    # an alternate factor (1 - x)^-1 at x = 1 divides by zero (0j ** -1
    # would raise ZeroDivisionError): the expression is refused as
    # singular, and eval_eta returns the primary alone
    doc = json.loads(dump_spec(spec))
    doc["longitude"]["alternate"]["factors"].append({"exp": -1, "arg": {"x": 1}})
    odd = load_spec(json.dumps(doc))
    pt = make_point(odd, {"x": 1.0, "y": 0.5 + 0.5j, "xi": 1.2 + 0.3j})
    with pytest.raises(SingularPointError, match=r"1 - x\^1 = 0 in denominator"):
        eval_longitude_expr(odd.longitude.alternate, pt.values)
    assert eval_eta(odd, pt) == (eval_longitude_expr(odd.longitude, pt.values), None)


# -------------------------------------------------------------- shapes


def test_shapes_display_point(spec):
    # values round-trip through exp(log), so equality is ulp-level
    pt = make_point(spec, {"x": 2, "y": 3, "xi": 1})
    sh = shapes_from_point(pt)
    for got, want in zip(sh.as_tuple(), (3, 2, 2 / 3, 1 / 2, 3)):
        assert abs(got - want) < 1e-14


def test_shapes_identities(spec):
    for pt in regular_points(spec, 20, seed=113):
        sh = shapes_from_point(pt)
        assert abs(sh.d4 * sh.b5 - 1) < 1e-12
        assert abs(sh.a5 * sh.b5 * sh.d5 - 1) < 1e-12


# ----------------------------------------------------------- residuals


def test_reduced_residual_display_point(spec):
    pt = make_point(spec, {"x": 2, "y": 3, "xi": 1})
    r1, r2 = reduced_residual(pt)
    assert abs(r1) < 1e-15
    assert abs(r2 - (-0.625)) < 1e-15


def test_reduced_residual_at_complete(spec, complete):
    r1, r2 = reduced_residual(complete.point)
    assert abs(r1) < 1e-12
    assert abs(r2) < 1e-12


def test_reduced_residual_zero_denominator(spec):
    # xi = x makes 1 - xi/x vanish, a denominator of the first
    # equation; no such point is built, so the residual needs no guard
    with pytest.raises(SingularPointError, match=r"^arg x\^-1 xi\^1 = 1$"):
        make_point(spec, {"x": 2, "y": 3, "xi": 2})


def _xyxi(pt):
    return pt.values["x"], pt.values["y"], pt.values["xi"]


def test_edge_residuals_parametrization_identities(spec):
    # the built-in spec's point, read through the triangulation oracle
    res = O.edge_residuals(*_xyxi(make_point(spec, {"x": 2, "y": 3, "xi": 1})))
    assert len(res) == 5
    assert abs(res[0]) < 1e-14  # d4 b5 = 1
    assert abs(res[1]) < 1e-14  # a5 b5 d5 = 1


def test_edge_residuals_vanish_at_complete(spec, complete):
    # the built-in's critical point solves the triangulation's edge
    # equations, and its signed D-sum is the triangulation's volume
    pt = complete.point
    assert max(abs(r) for r in O.edge_residuals(*_xyxi(pt))) <= 1e-10
    shapes_vol = sum(O.d_oracle(z) for z in O.five_two_shapes(*_xyxi(pt)))
    assert abs(signed_d_sum(spec, pt) - shapes_vol) < 1e-12


# ------------------------------------------------- gradient identities


def test_gradient_matches_reduced_equations(spec):
    # exp(g_x) LHS1 = xi^2 and exp(g_y) xi^2 = LHS2: the displayed
    # gradient logs and the reduced equations are the same equations
    for pt in regular_points(spec, 25, seed=127):
        x, y, xi = (pt.values[v] for v in ("x", "y", "xi"))
        g = log_gradient(spec, pt)
        lhs1 = (1 - y / x) * (1 - x / xi) / (1 - xi / x)
        lhs2 = (1 - y / x) / ((1 - y / xi) * (1 - 1 / (y * xi)))
        assert abs(cmath.exp(g[0]) * lhs1 - xi**2) < 1e-10 * abs(xi**2)
        assert abs(cmath.exp(g[1]) * xi**2 - lhs2) < 1e-10 * max(1.0, abs(lhs2))


def test_xi_gradient_is_minus_log_eta_squared(spec, complete):
    # exp(xi-component) * eta^2 = 1 on the deformation space
    samples = trace_deformation(spec, 0.1j, 5, complete=complete)
    for smp in samples:
        g = log_gradient(spec, smp.point)
        eta = eval_eta(spec, smp.point)[0]
        assert abs(cmath.exp(g[2]) * eta**2 - 1) < 1e-9


# ------------------------------------- lowered tables vs plain reading
#
# The evaluators read index tables compiled from the spec. The naive_*
# functions below read the spec directly, term by term, in the order
# the tables must keep; the two must agree bit for bit.


def naive_eval_v(spec, pt):
    s = 0j
    for t in spec.dilog_terms:
        s += t.sign * li2(t.argument.evaluate(pt.values))
    for t in spec.quad_terms:
        s += float(t.coeff) * pt.logs[t.var_a] * pt.logs[t.var_b]
    return s + float(spec.constant_pi2) * (PI * PI)


def naive_signed_d_sum(spec, pt):
    return sum(
        t.sign * bloch_wigner_d(t.argument.evaluate(pt.values))
        for t in spec.dilog_terms
    )


def one_minus_logs(pt):
    # the continued log(1 - m) keyed by tracked Monomial m
    return dict(zip(pt.spec.tables.monomials, pt.tracked_logs))


def naive_log_gradient(spec, pt):
    one_minus = one_minus_logs(pt)
    g = []
    for v in spec.variables:
        acc = 0j
        for t in spec.dilog_terms:
            a = t.argument.exponent(v)
            if a:
                acc -= t.sign * a * one_minus[t.argument]
        for t in spec.quad_terms:
            c = float(t.coeff)
            if t.var_a == v:
                acc += c * pt.logs[t.var_b]
            if t.var_b == v:
                acc += c * pt.logs[t.var_a]
        g.append(acc)
    return g


def naive_log_hessian(spec, pt):
    n = len(spec.variables)
    idx = {v: i for i, v in enumerate(spec.variables)}
    h = [[0j] * n for _ in range(n)]
    for t in spec.dilog_terms:
        m = t.argument.evaluate(pt.values)
        f = t.sign * m / (1 - m)
        vs = [v for v, _ in t.argument.exponents]
        for u in vs:
            au = t.argument.exponent(u)
            for v in vs:
                h[idx[u]][idx[v]] += au * t.argument.exponent(v) * f
    for t in spec.quad_terms:
        c = float(t.coeff)
        h[idx[t.var_a]][idx[t.var_b]] += c
        h[idx[t.var_b]][idx[t.var_a]] += c
    return h


def naive_eta_log(spec, pt):
    s = 0j
    for v, e in spec.longitude.prefactor.exponents:
        s += e * pt.logs[v]
    for e, m in spec.longitude.factors:
        s += e * one_minus_logs(pt)[m]
    return s


def naive_d_eta_log(spec, pt):
    out = []
    for v in spec.variables:
        acc = complex(spec.longitude.prefactor.exponent(v))
        for e, m in spec.longitude.factors:
            a = m.exponent(v)
            if a:
                mv = m.evaluate(pt.values)
                acc -= e * a * mv / (1 - mv)
        out.append(acc)
    return out


def naive_reduced_residual(pt):
    spec = pt.spec
    out = []
    for v in spec.variables[:-1]:
        quad_exp = {}
        for t in spec.quad_terms:
            if t.var_a == v:
                quad_exp[t.var_b] = quad_exp.get(t.var_b, Fraction(0)) + t.coeff
            if t.var_b == v:
                quad_exp[t.var_a] = quad_exp.get(t.var_a, Fraction(0)) + t.coeff
        sigma = -1 if quad_exp.get(spec.meridian, Fraction(0)) < 0 else 1
        lhs = 1 + 0j
        for t in spec.dilog_terms:
            a = t.argument.exponent(v)
            if a:
                lhs *= (1 - t.argument.evaluate(pt.values)) ** (sigma * t.sign * a)
        rhs = 1 + 0j
        for vp, c in quad_exp.items():
            rhs *= pt.values[vp] ** int(sigma * c)
        out.append(lhs - rhs)
    return tuple(out)


def _bits(x):
    """Exact comparison key: repr also tells -0.0 from 0.0."""
    return x, repr(x)


def assert_matches_naive(spec, pt):
    pairs = [
        (log_gradient(spec, pt), naive_log_gradient(spec, pt)),
        (log_hessian(spec, pt), naive_log_hessian(spec, pt)),
        (reduced_residual(pt), naive_reduced_residual(pt)),
        (eta_log(spec, pt), naive_eta_log(spec, pt)),
        (d_eta_log(spec, pt), naive_d_eta_log(spec, pt)),
        (eval_v(spec, pt), naive_eval_v(spec, pt)),
        (signed_d_sum(spec, pt), naive_signed_d_sum(spec, pt)),
    ]
    for got, want in pairs:
        assert _bits(got) == _bits(want)


def _variant_specs(spec):
    """The built-in and copies of it that lower to other tables, with name maps.

    Beside a reordered and a renamed copy: one tracked monomial shared
    by three dilog terms; quad terms in swapped and diagonal slots; a
    primary longitude factor that is no dilog argument.
    """
    doc = _doc(spec)
    doc["variables"] = ["y", "x", "xi"]
    doc["dilog_terms"].reverse()
    doc["quad_terms"].reverse()
    reordered = load_spec(json.dumps(doc))
    text = dump_spec(spec)
    for old, new in (('"x"', '"a"'), ('"y"', '"b"'), ('"xi"', '"c"')):
        text = text.replace(old, new)
    renamed = load_spec(text)
    doc = _doc(spec)
    first = doc["dilog_terms"][0]
    doc["dilog_terms"] += [dict(first), dict(first, sign=-first["sign"])]
    repeated = load_spec(json.dumps(doc))
    doc = _doc(spec)
    doc["quad_terms"] += [
        {"coeff": [1, 1], "vars": ["y", "x"]},
        {"coeff": [3, 1], "vars": ["x", "x"]},
    ]
    quads = load_spec(json.dumps(doc))
    doc = _doc(spec)
    doc["longitude"]["factors"].append({"exp": -2, "arg": {"x": 3, "y": -1}})
    factor = load_spec(json.dumps(doc))
    same = {"x": "x", "y": "y", "xi": "xi"}
    return [
        (spec, same),
        (reordered, same),
        (renamed, {"x": "a", "y": "b", "xi": "c"}),
        (repeated, same),
        (quads, same),
        (factor, same),
    ]


@pytest.mark.parametrize(
    "which",
    range(6),
    ids=["builtin", "reordered", "renamed", "repeated_dilog", "extra_quads", "extra_factor"],
)
def test_tables_match_plain_reading_bit_for_bit(spec, which):
    vspec, names = _variant_specs(spec)[which]
    rng = random.Random(4242 + which)
    for base in regular_points(spec, 40, seed=811):
        vals = {names[v]: base.values[v] for v in ("x", "y", "xi")}
        pt = make_point(vspec, vals)
        assert_matches_naive(vspec, pt)
        # advanced points carry continued, not principal, branches
        for _ in range(3):
            vals = {
                v: w * complex(1 + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
                for v, w in vals.items()
            }
            try:
                pt = advance(pt, vals)
            except (StepTooLargeError, SingularPointError):
                break
            assert_matches_naive(vspec, pt)


def test_tables_on_points_with_windings(spec, complete):
    # a long trace leaves several continued logs off the principal sheet
    samples = trace_deformation(spec, 2 + 1j, 16, complete=complete)
    windings = set()
    for smp in samples:
        assert_matches_naive(spec, smp.point)
        windings.update(winding(lw) for lw in smp.point.logs.values())
        windings.update(winding(lw) for lw in smp.point.tracked_logs)
    assert windings != {0}


_SLOPE_7_1 = normalize_slope(7, 1)

# every evaluator that reads a point's tracked monomials, as f(spec, pt)
_EVALUATORS = (
    eval_v,
    lambda s, pt: eval_v_alpha(s, _SLOPE_7_1, pt),
    signed_d_sum,
    log_gradient,
    log_hessian,
    eta_log,
    d_eta_log,
    rogers_combo,
    lambda s, pt: im_v_alpha_parts(s, pt, _SLOPE_7_1),
)


def test_tables_with_another_spec_object(spec):
    # an equal spec object lowers to the same tables, so it reads the
    # point's record bit for bit; a spec that differs, if only in the
    # order of its terms or the names of its variables, has tables the
    # record was not built for and is refused
    twin = load_spec(dump_spec(spec))
    assert twin == spec and twin is not spec
    pts = regular_points(spec, 10, seed=99)
    for pt in pts:
        for got, want in (
            (log_gradient(twin, pt), naive_log_gradient(twin, pt)),
            (log_hessian(twin, pt), naive_log_hessian(twin, pt)),
            (eval_v(twin, pt), naive_eval_v(twin, pt)),
            (eta_log(twin, pt), naive_eta_log(twin, pt)),
        ):
            assert _bits(got) == _bits(want)
        for evaluate in _EVALUATORS:
            assert _bits(evaluate(twin, pt)) == _bits(evaluate(spec, pt))
    for other, _ in _variant_specs(spec)[1:]:
        for evaluate in _EVALUATORS:
            with pytest.raises(ValidationError, match="spec other than"):
                evaluate(other, pts[0])


@pytest.mark.parametrize(
    "pair, refused",
    [(["xi", "x"], True), (["xi", "xi"], False), (["x", "x"], False)],
    ids=["xi_x", "xi_xi", "x_x"],
)
def test_half_integer_quad_coefficient_refused_where_it_enters_a_residual(
    spec, pair, refused
):
    # (xi, x) 1/2 puts xi^(1/2) in x's residual; (xi, xi) enters no
    # residual row, and (x, x) enters x's twice, as x^1
    doc = _doc(spec)
    doc["quad_terms"][0] = {"coeff": [1, 2], "vars": pair}
    if refused:
        with pytest.raises(ValidationError) as ei:
            load_spec(json.dumps(doc))
        assert str(ei.value) == "reduced residual needs integer quad exponents, got 1/2"
        return
    half = load_spec(json.dumps(doc))
    assert half.quad_terms[0].coeff == Fraction(1, 2)
    pt = make_point(half, {"x": 0.3 + 0.6j, "y": 0.5 + 0.8j, "xi": 1.1 + 0.1j})
    assert _bits(log_gradient(half, pt)) == _bits(naive_log_gradient(half, pt))
    assert all(cmath.isfinite(r) for r in reduced_residual(pt))


def test_longitude_only_factor_at_one_is_refused_at_build(spec):
    factor = _variant_specs(spec)[5][0]  # primary factor 1 - x^3/y, no dilog
    x, xi = 0.5 + 0.8j, 1.1 + 0.1j
    refused = r"^arg x\^3 y\^-1 = 1$"
    with pytest.raises(SingularPointError, match=refused):
        make_point(factor, {"x": x, "y": x**3, "xi": xi})
    # a step onto y = x^3 from a point beside it
    pt = make_point(factor, {"x": x, "y": x**3 * 1.001, "xi": xi})
    lx = pt.logs["x"]
    with pytest.raises(SingularPointError, match=refused):
        advance_point_logs(pt, {"x": lx, "y": 3 * lx, "xi": pt.logs["xi"]})


# the reprs @dataclass gives these records; the scan digest hashes
# reprs, so the written-out records must print the same text
_FIVE_TWO_REPR = (
    "PotentialSpec(name='5_2', variables=('x', 'y', 'xi'), dilog_terms=("
    "DilogTerm(sign=-1, argument=Monomial(exponents=(('xi', -1), ('y', -1)))), "
    "DilogTerm(sign=1, argument=Monomial(exponents=(('xi', -1), ('y', 1)))), "
    "DilogTerm(sign=-1, argument=Monomial(exponents=(('x', -1), ('y', 1)))), "
    "DilogTerm(sign=1, argument=Monomial(exponents=(('x', -1), ('xi', 1)))), "
    "DilogTerm(sign=1, argument=Monomial(exponents=(('x', 1), ('xi', -1))))), "
    "quad_terms=(QuadLogTerm(coeff=Fraction(2, 1), var_a='xi', var_b='x'), "
    "QuadLogTerm(coeff=Fraction(-2, 1), var_a='xi', var_b='y'), "
    "QuadLogTerm(coeff=Fraction(-6, 1), var_a='xi', var_b='xi')), "
    "constant_pi2=Fraction(-1, 6), longitude=LongitudeSpec("
    "prefactor=Monomial(exponents=(('x', -1), ('xi', 6), ('y', 1))), "
    "factors=((1, Monomial(exponents=(('xi', -1), ('y', -1)))),), "
    "alternate=LongitudeExpr("
    "prefactor=Monomial(exponents=(('x', -1), ('xi', 6), ('y', 1))), "
    "factors=((1, Monomial(exponents=(('x', -1), ('xi', 1)))), "
    "(-1, Monomial(exponents=(('x', 1), ('xi', -1)))), "
    "(-1, Monomial(exponents=(('xi', -1), ('y', 1))))))))"
)


def test_record_contract(spec, complete):
    pt = ParamPoint(spec, {"x": 2 + 0j, "y": 3j, "xi": 0.5 + 0j}, {}, (), ())
    assert repr(ContinuedLog(1j, 2)) == "ContinuedLog(value=1j, winding=2)"
    assert repr(normalize_slope(7, 3)) == "Slope(p=7, q=3, r=2, s=1)"
    assert repr(shapes_from_point(pt)) == (
        "Shapes(c2=1.5j, d4=(4+0j), a5=-0.6666666666666666j, b5=(0.25+0j), d5=6j)"
    )
    assert repr(builtin_five_two()) == _FIVE_TWO_REPR

    # frozen records hash and compare by value
    twin = load_spec(dump_spec(spec))
    assert twin == spec and twin is not spec
    assert hash(twin) == hash(spec)
    m = Monomial.from_dict({"x": 1, "xi": -1})
    index = {m: "x/xi"}
    assert index[Monomial.from_dict({"xi": -1, "x": 1})] == "x/xi"
    lon = spec.longitude
    assert LongitudeSpec(lon.prefactor, lon.factors) != LongitudeExpr(
        lon.prefactor, lon.factors
    )
    assert LongitudeSpec(lon.prefactor, lon.factors) == LongitudeSpec(
        lon.prefactor, lon.factors, None
    )
    assert ContinuedLog(1j) == ContinuedLog(1j, 0) != ContinuedLog(1j, 1)

    # ... and refuse assignment and deletion
    for record, name in (
        (normalize_slope(7, 3), "p"),
        (ContinuedLog(1j, 2), "value"),
        (pt, "values"),
        (spec, "name"),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(TypeError):
        hash(pt)  # frozen, but its values are a dict

    # the solution records are mutable and so unhashable
    sol = CriticalPoint(pt, 0.0, 1)
    assert sol == CriticalPoint(pt, 0.0, 1) != CriticalPoint(pt, 0.0, 2)
    sol.newton_iters = 2
    assert sol.newton_iters == 2
    filling = FillingSolution(
        normalize_slope(7, 1), complete, ContinuedLog(0j), ContinuedLog(0j), 3, 1e-12
    )
    sample = DeformationSample(0j, pt, 0j)
    for record in (sol, filling, sample):
        with pytest.raises(TypeError):
            hash(record)

    # every record binds its fields by position or by name, fills only
    # its declared defaults, and refuses a missing, extra, unknown or
    # repeated field
    records, todo = [], [RecordBase]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if "_fields" in vars(cls):
                records.append(cls)
    declared = [
        (potential, "Monomial DilogTerm QuadLogTerm LongitudeExpr LongitudeSpec"),
        (potential, "PotentialSpec ParamPoint Shapes"),
        (dilog, "ContinuedLog"),
        (solver, "Slope CriticalPoint FillingSolution DeformationSample"),
        (cli, "Record"),
        (selftest, "GroupResult"),
    ]
    assert set(records) == {getattr(m, n) for m, names in declared for n in names.split()}
    assert {cls.__qualname__: cls._defaults for cls in records if cls._defaults} == {
        "ContinuedLog": {"winding": 0},
        "LongitudeSpec": {"alternate": None},
        "Record": {"table": None, "columns": (), "rows": ()},
    }
    for cls in records:
        fields = cls._fields
        args = tuple(object() for _ in fields)
        rec = cls(*args)
        assert [getattr(rec, f) for f in fields] == list(args)
        assert rec == cls(**dict(zip(fields, args)))
        assert rec == cls(args[0], **dict(zip(fields[1:], args[1:])))
        # defaults are declared last, so the required fields lead
        n = len(fields) - len(cls._defaults)
        bare = cls(*args[:n])
        assert [getattr(bare, f) for f in fields] == [*args[:n], *cls._defaults.values()]
        for bad, kwargs in (
            (args[: n - 1], {}),  # missing
            (args + (None,), {}),  # extra
            (args, {"nonesuch": None}),  # unknown
            (args[:1], {fields[0]: args[0]}),  # repeated
        ):
            with pytest.raises(TypeError):
                cls(*bad, **kwargs)
