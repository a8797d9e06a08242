"""Potential data model and evaluation tests."""

import ast
import cmath
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

import _oracles as O
import knotpot
from knotpot import cli, dilog, invariants, potential, selftest, solver
from knotpot._records import RecordBase
from knotpot.dilog import ContinuedLog, bloch_wigner_d, li2, principal_log
from knotpot.errors import (
    SingularJacobianError,
    SingularPointError,
    SpecFormatError,
    StepTooLargeError,
    ValidationError,
)
from knotpot.potential import (
    DilogTerm,
    LongitudeExpr,
    Monomial,
    ParamPoint,
    advance_point_logs,
    builtin_five_two,
    dump_spec,
    eta_log,
    eval_eta,
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
from knotpot.invariants import im_v_alpha_parts, report_for, rogers_combo
from knotpot.solver import (
    CriticalPoint,
    DeformationSample,
    FillingSolution,
    normalize_slope,
    trace_deformation,
)
from test_trace_digest import trace_runs

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
    assert spec.longitude.factors == ((1, Monomial.from_dict({"y": -1, "xi": -1})),)


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
            # the second form of eta that documents once carried
            lambda d: d["longitude"].update(alternate=dict(d["longitude"])),
            "longitude: unknown field(s) ['alternate']",
        ),
        (lambda d: d.update(variables=["x", "x", "xi"]), "variables: names must be distinct"),
        (lambda d: d.update(variables="xi"), "variables: must be a non-empty list of strings"),
        (lambda d: d.update(variables=[]), "variables: must be a non-empty list of strings"),
        (
            lambda d: d.update(variables=["x", 2, "xi"]),
            "variables: must be a non-empty list of strings",
        ),
        (
            lambda d: d["dilog_terms"][0].update(arg=[1, 2]),
            "dilog_terms[0]: monomial must be a var -> exponent map",
        ),
        (lambda d: d["quad_terms"][0].update(vars=["x"]), "quad_terms[0]: vars must be a pair"),
        (
            # the meridian alone: no fiber variable for a solver to solve
            lambda d: d.update(
                variables=["xi"],
                dilog_terms=[{"sign": 1, "arg": {"xi": 1}}],
                quad_terms=[{"coeff": [-6, 1], "vars": ["xi", "xi"]}],
                longitude={"prefactor": {"xi": 1}, "factors": []},
            ),
            "variables: must declare a fiber variable before the meridian",
        ),
    ],
    ids=[
        "no_prefactor",
        "alternate_refused",
        "repeated_variable",
        "variables_a_string",
        "variables_empty",
        "variables_hold_a_number",
        "arg_not_a_map",
        "vars_not_a_pair",
        "meridian_alone",
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
    [("dilog_terms",), ("quad_terms",), ("longitude", "factors")],
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


def test_load_spec_rejects_a_document_nested_too_deep():
    # deeper than the JSON parser recurses, at the top or in a field
    deep = "[" * 3000 + "]" * 3000
    for text in (deep, '{"name": %s}' % deep):
        with pytest.raises(SpecFormatError, match="parse error: maximum recursion depth"):
            load_spec(text)


def _balanced_terms(count):
    # count dilog terms on one argument, of alternating sign: each adds
    # a product to the same hessian cell
    return [{"sign": 1 - 2 * (k % 2), "arg": {"x": 1, "xi": -1}} for k in range(count)]


def _at_depth(frames, f):
    # f() called from `frames` more Python frames down the stack
    return f() if frames == 0 else _at_depth(frames - 1, f)


def test_a_long_spec_loads_and_solves_at_any_stack_depth(spec, complete):
    # 3,000 more terms make the hessian cells and gradient entries they
    # enter chains of 3,000 operations, which the kernels write in
    # statements of at most _CHAIN: the spec compiles however deep the
    # stack it is lowered from (the compiler's nesting limit is the
    # recursion limit less the frames in use), through load_spec and as
    # a spec built in code, and solves as the built-in does
    doc = _doc(spec)
    doc["dilog_terms"] += _balanced_terms(3000)
    extra = tuple(DilogTerm(t["sign"], Monomial.from_dict(t["arg"])) for t in _balanced_terms(3000))
    seven = normalize_slope(7, 1)
    volume = report_for(spec, seven, solver.solve_filling(spec, seven, complete)).volume
    for frames in (0, 200):
        built = potential.PotentialSpec(
            spec.name, spec.variables, spec.dilog_terms + extra,
            spec.quad_terms, spec.constant_pi2, spec.longitude,
        )
        _at_depth(frames, lambda: built.tables)
        for long in (_at_depth(frames, lambda: load_spec(json.dumps(doc))), built):
            got = _at_depth(frames, lambda: solver.solve_complete(long))
            assert all(abs(got.point.values[v] - complete.point.values[v]) < 1e-12 for v in spec.variables)
            fill = _at_depth(frames, lambda: solver.solve_filling(long, seven, got))
            assert abs(report_for(long, seven, fill).volume - volume) < 1e-12
    # 1,000 such terms, which cancel, compile and solve to the built-in's root
    doc["dilog_terms"][5:] = _balanced_terms(1000)
    got = solver.solve_complete(load_spec(json.dumps(doc))).point.values
    assert all(abs(got[v] - complete.point.values[v]) < 1e-12 for v in spec.variables)


_KASHAEV = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "spec_5_2_kashaev.json")


def _v_terms(spec, pt):
    # the terms V sums, in the plain reading's order
    return (
        [t.sign * li2(t.argument.evaluate(pt.values)) for t in spec.dilog_terms]
        + [float(t.coeff) * pt.logs[t.var_a] * pt.logs[t.var_b] for t in spec.quad_terms]
        + [float(spec.constant_pi2) * PI * PI]
    )


def _d_terms(spec, pt):
    return [t.sign * bloch_wigner_d(t.argument.evaluate(pt.values)) for t in spec.dilog_terms]


def _error_bound(value, terms, spec, pt):
    """How far value(spec, pt) can be from its value at the exact root
    that pt, a solved point, stands for.

    The fiber Newton step from pt, J^-1 times the residual left at pt,
    is to first order the distance to that root: the bound is the
    value's change over that step plus the rounding of a sum of its
    terms, n eps sum |term| for n terms.
    """
    moved = solver._damped_step(pt, spec.tables.fiber_step(pt, -1.0)[1])
    parts = terms(spec, pt)
    rounding = len(parts) * sys.float_info.epsilon * sum(map(abs, parts))
    return abs(value(spec, moved) - value(spec, pt)) + rounding


def test_the_kashaev_potential_has_the_builtins_critical_values(spec, complete):
    # V_K(x, y) = 2 (pi^2/6 - Li2(y)) + (pi^2/6 - Li2(1/x)) - log x log y,
    # read off the summand of 5_2's Kashaev sum, is a second source for
    # the 5_2 potential that shares no term with the built-in: at its
    # complete structure its D-sum is the built-in's, and its V minus
    # the conjugate of the built-in's. Its meridian m enters no term; a
    # placeholder, so no slope of it is filled
    with open(_KASHAEV) as fh:
        kashaev = load_spec(fh)
    got = solver.solve_complete(kashaev)
    for value, terms, sign in ((signed_d_sum, _d_terms, 1), (eval_v, _v_terms, -1)):
        want = value(spec, complete.point)
        want = want if sign > 0 else -want.conjugate()
        bound = _error_bound(value, terms, kashaev, got.point)
        bound += _error_bound(value, terms, spec, complete.point)
        assert abs(value(kashaev, got.point) - want) <= bound


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
    # exp(300) is finite, its cube is not; exp(-300) is not 0, its cube
    # underflows to 0, whose reciprocal is refused as an overflow
    for exponent, lx in ((3, 300 + 0.5j), (-3, -300 + 0.5j)):
        doc = _doc(spec)
        doc["dilog_terms"][0]["arg"] = {"x": exponent, "xi": -1}
        cubic = load_spec(json.dumps(doc))
        pt = make_point(cubic, {"x": 0.5 + 0.5j, "y": 0.3 + 0.6j, "xi": 1.1})
        logs = dict(pt.logs)
        logs["x"] = lx
        with pytest.raises(StepTooLargeError, match="overflow"):
            advance_point_logs(pt, logs)


def test_residual_power_underflow_is_a_step_too_large(spec):
    # x's residual row gains y^-3, and y^3 underflows to 0 at log y =
    # -260: the plain reading's ** raises ZeroDivisionError there, the
    # kernels refuse the point as an overflow, so the solvers halve
    doc = _doc(spec)
    doc["quad_terms"].append({"coeff": [-3, 1], "vars": ["x", "y"]})
    quad = load_spec(json.dumps(doc))
    pt = quad.tables.build_point({"x": 0.3 + 0.6j, "y": -260 + 0.5j, "xi": 0.1 + 0.2j}, None)
    with pytest.raises(ZeroDivisionError):
        naive_reduced_residual(pt)
    for kernel in (reduced_residual, lambda pt: quad.tables.fiber_step(pt, 0.0)):
        with pytest.raises(StepTooLargeError, match="^residual overflow"):
            kernel(pt)


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
        d = spec.tables.longitude(pt)[2]
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


def test_eval_eta_at_a_regular_point(spec):
    # (x, y, xi) = (2, 4, 1): eta = (y xi^6 / x)(1 - 1/(y xi)) = (4/2)(1 - 1/4),
    # read off the point's values, each an exp of its log
    eta, empty = eval_eta(spec, make_point(spec, {"x": 2, "y": 4, "xi": 1}))
    assert abs(eta - 1.5) < 1e-15 and empty is None


def test_eval_eta_refuses_a_point_of_another_spec(spec, complete):
    # the point's tracked monomials are read in its own spec's table
    # order, so a spec that differs only by a term, or in its names, is
    # refused rather than evaluated on the values
    doc = _doc(spec)
    doc["quad_terms"].append({"coeff": [1, 1], "vars": ["x", "y"]})
    extra_quad = load_spec(json.dumps(doc))
    renamed = load_spec(dump_spec(spec).replace('"x"', '"a"').replace('"y"', '"b"'))
    for other in (extra_quad, renamed):
        with pytest.raises(ValidationError, match="point belongs to a spec other than"):
            eval_eta(other, complete.point)


def test_eval_eta_refuses_a_longitude_power_that_underflows(spec):
    # x^-100 at x = 1e-4: x^100 underflows to 0, and `**` divides by it
    doc = _doc(spec)
    doc["longitude"]["prefactor"] = {"x": -100}
    pt = make_point(load_spec(json.dumps(doc)), {"x": 1e-4, "y": 0.5 + 0.5j, "xi": 1j})
    with pytest.raises(SingularPointError, match=r"^longitude overflow \("):
        eval_eta(pt.spec, pt)


def test_eta_is_one_at_complete(spec, complete):
    eta, empty = eval_eta(spec, complete.point)
    assert abs(eta - 1) < 1e-10
    assert empty is None


@pytest.mark.parametrize(
    "prefactor, reason",
    [
        ({"y": 8 * 10**307}, None),
        ({"y": 9 * 10**307}, "term size inf"),
        ({"x": 692 * 10**305, "y": 10**307}, "term size inf"),
        ({"y": 17 * 10**307}, "absolute value too large"),
    ],
    ids=["in_range", "v_part", "term_sum", "term_modulus"],
)
def test_eta_log_refuses_where_v_leaves_float_range(spec, complete, prefactor, reason):
    # longitude prefactor exponents near float range, at the complete
    # structure's values: log eta is the plain reading's sum bit for bit
    # where twice its summed term moduli is finite, which bounds the
    # parts of v = 2 log eta; it is refused where a term's modulus
    # overflows or that bound does (at 9 * 10**307 the plain sum is
    # finite, but its imaginary part doubles past float range)
    doc = _doc(spec)
    doc["longitude"]["prefactor"].update(prefactor)
    other = load_spec(json.dumps(doc))
    pt = make_point(other, complete.point.values)
    if reason is None:
        assert _bits(eta_log(other, pt)) == _bits(naive_eta_log(other, pt))
        assert cmath.isfinite(2 * eta_log(other, pt))
        return
    with pytest.raises(StepTooLargeError, match=r"^longitude overflow \(%s\)$" % reason):
        eta_log(other, pt)
    if reason == "absolute value too large":
        with pytest.raises(OverflowError, match=reason):
            naive_eta_size(other, pt)
    else:
        assert 2 * naive_eta_size(other, pt) == math.inf


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


def naive_monomial_logs(spec, pt):
    # the continued log m of each tracked monomial m: principal_log(m)
    # moved by the winding k that brings it nearest sum e log v over
    # m's factors v^e
    logs = [pt.logs[v] for v in spec.variables]
    out = []
    for m, row in zip(pt.tracked_values, spec.tables.monomial_rows):
        p = principal_log(m)
        s = 0j
        for i, e in row:
            s += e * logs[i]
        k = round((s - p).imag / (2 * PI))
        out.append(complex(p.real, p.imag + 2 * PI * k) if k else p)
    return out


def naive_rogers_combo(spec, pt):
    tab = spec.tables
    log_m = naive_monomial_logs(spec, pt)
    s = 0j
    for sign, j in tab.dilogs:
        s += sign * (li2(pt.tracked_values[j]) + 0.5 * log_m[j] * pt.tracked_logs[j])
    return s + tab.constant


def naive_im_v_alpha_parts(spec, pt, slope=None):
    # the body of im_v_alpha_parts, on plain readings
    g = naive_log_gradient(spec, pt)
    if slope is not None:
        lx = pt.logs[spec.meridian]
        g[-1] += (2j * PI - 2 * slope.p * lx) / slope.q
    corr = 0.0
    for v, gv in zip(spec.variables, g):
        corr += math.log(abs(pt.values[v])) * gv.imag
    return naive_signed_d_sum(spec, pt), corr


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


def naive_eta_size(spec, pt):
    # the moduli of naive_eta_log's terms, summed in the same order
    size = 0.0
    for v, e in spec.longitude.prefactor.exponents:
        size += abs(e * pt.logs[v])
    for e, m in spec.longitude.factors:
        size += abs(e * one_minus_logs(pt)[m])
    return size


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


def naive_longitude(spec, pt):
    # the triple of the compiled longitude kernel, which refuses a log
    # eta whose v = 2 log eta may leave float range: where a term's
    # modulus overflows (abs raises) or twice the summed moduli does
    size = naive_eta_size(spec, pt)
    if not 2 * size < math.inf:
        raise StepTooLargeError("longitude overflow (term size %r)" % (2 * size))
    return naive_eta_log(spec, pt), size, naive_d_eta_log(spec, pt)


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


def naive_fiber_system(spec, pt):
    # the hessian's non-meridian block and the gradient's non-meridian
    # entries, which the fiber Newton solves with
    k = len(spec.variables) - 1
    h = naive_log_hessian(spec, pt)
    return [row[:k] for row in h[:k]], naive_log_gradient(spec, pt)[:k]


def naive_fiber_step(spec, pt, tol):
    # the fiber Newton's step from the plain reading: the max norm of
    # the reduced residual, and where it is above tol the step _solve
    # takes on the plain reading's fiber system; a point it would
    # accept with a variable within _ZERO_TOL of 0 is a log pole
    r = solver._resid_inf(pt)
    if r > tol:
        return r, solver._solve(*naive_fiber_system(spec, pt))
    for v in spec.variables:
        if abs(pt.values[v]) < potential._ZERO_TOL:
            raise SingularPointError("variable %s = 0 (log pole)" % v)
    return r, None


_SEVEN = normalize_slope(7, 1)
# a slope whose q divides the meridian term by more than 1
_FIVE_TWO = normalize_slope(5, 2)


def _fiber_outcome(step, pt, tol):
    # the step by repr, which tells each float's bits and reads a NaN
    # as equal to itself, or its refusal of an accepted log pole
    try:
        return repr(step(pt, tol))
    except SingularPointError as e:
        return str(e)


def assert_fiber_step_matches_naive(spec, pt):
    r = solver._resid_inf(pt)
    # a tol of r itself accepts the point, or refuses it on a log pole;
    # the float below it steps
    below = math.nextafter(r, -math.inf)
    for tol in (r, below):
        got = _fiber_outcome(spec.tables.fiber_step, pt, tol)
        assert got == _fiber_outcome(functools.partial(naive_fiber_step, spec), pt, tol)
    assert spec.tables.fiber_step(pt, below)[1] is not None


def assert_matches_naive(spec, pt):
    assert_fiber_step_matches_naive(spec, pt)
    pairs = [
        (spec.tables.longitude(pt), naive_longitude(spec, pt)),
        (log_gradient(spec, pt), naive_log_gradient(spec, pt)),
        (log_hessian(spec, pt), naive_log_hessian(spec, pt)),
        (reduced_residual(pt), naive_reduced_residual(pt)),
        (eta_log(spec, pt), naive_eta_log(spec, pt)),
        (spec.tables.longitude(pt)[2], naive_d_eta_log(spec, pt)),
        (eval_v(spec, pt), naive_eval_v(spec, pt)),
        (signed_d_sum(spec, pt), naive_signed_d_sum(spec, pt)),
        (spec.tables.monomial_logs(pt), naive_monomial_logs(spec, pt)),
        (rogers_combo(spec, pt), naive_rogers_combo(spec, pt)),
        (im_v_alpha_parts(spec, pt), naive_im_v_alpha_parts(spec, pt)),
        (im_v_alpha_parts(spec, pt, _SEVEN), naive_im_v_alpha_parts(spec, pt, _SEVEN)),
        (im_v_alpha_parts(spec, pt, _FIVE_TWO), naive_im_v_alpha_parts(spec, pt, _FIVE_TWO)),
    ]
    for got, want in pairs:
        assert _bits(got) == _bits(want)


def _variant_specs(spec):
    """The built-in and copies of it that lower to other tables, with name maps.

    Beside a reordered and a renamed copy: one tracked monomial shared
    by three dilog terms; quad terms in swapped and diagonal slots; a
    longitude factor that is no dilog argument.
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


_VARIANT_IDS = [
    "builtin", "reordered", "renamed", "repeated_dilog", "extra_quads", "extra_factor"
]


@pytest.mark.parametrize("which", range(6), ids=_VARIANT_IDS)
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



@pytest.mark.parametrize("chain", [1, 2])
@pytest.mark.parametrize("which", range(6), ids=_VARIANT_IDS)
def test_tables_match_plain_reading_at_every_chain_split(which, chain, monkeypatch):
    # the kernels with every chain split after each 1 or 2 operations,
    # so every statement boundary of _chain meets the plain reading: of
    # a built-in lowered afresh, as the fixture's tables are lowered
    monkeypatch.setattr(potential, "_CHAIN", chain)
    test_tables_match_plain_reading_bit_for_bit(builtin_five_two(), which)

def test_fiber_step_refuses_a_converged_log_pole(spec, complete):
    # the first try of a trace to u = -2000 in 3 samples: the fiber
    # Newton at log xi = -1000/3 converges in 6 steps, to x near 4e-181
    # and y near 1e-164, where the residual is small only because x and
    # y are; the kernel refuses the point as the plain reading does
    pt = complete.point
    pt = advance_point_logs(pt, dict(pt.logs, xi=(-2000 / 3) / 2.0))
    for _ in range(6):
        pt = solver._damped_step(pt, spec.tables.fiber_step(pt, -1.0)[1])
    r = solver._resid_inf(pt)
    assert r < 1e-12 and abs(pt.values["x"]) < potential._ZERO_TOL
    with pytest.raises(SingularPointError, match=r"^variable x = 0 \(log pole\)$"):
        spec.tables.fiber_step(pt, r)
    assert_fiber_step_matches_naive(spec, pt)


def test_fiber_step_raises_on_a_singular_block_as_solve_does(spec):
    # a fiber variable that no term holds leaves its hessian row and
    # column zero: the kernel's elimination stops at the zero pivot
    # _solve stops at, with _solve's error
    doc = _doc(spec)
    doc["variables"] = ["x", "y", "z", "xi"]
    zspec = load_spec(json.dumps(doc))
    base = regular_points(spec, 1, seed=17)[0]
    pt = make_point(zspec, dict(base.values, z=1.5 + 0.5j))
    with pytest.raises(SingularJacobianError) as want:
        solver._solve(*naive_fiber_system(zspec, pt))
    with pytest.raises(SingularJacobianError) as got:
        zspec.tables.fiber_step(pt, 0.0)
    assert str(got.value) == str(want.value)
    assert str(want.value) == "singular Jacobian (zero pivot in column 2)"


def test_compile_and_exec_are_called_in_one_place():
    # the spec kernels and the per-size solve are the package's only
    # generated code, and potential._compile its one compile and exec
    calls = []
    src = os.path.dirname(potential.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            calls += [
                (name, node.func.id)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("compile", "exec", "eval")
            ]
    assert calls == [("potential.py", "exec"), ("potential.py", "compile")]


def _names_in(module):
    """Every name, attribute and imported name the module's source holds."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_solver_names_no_point_threshold():
    # the point build and the fiber step kernel judge a point; the
    # solver names neither threshold, not even to import it
    assert not _names_in(solver) & {"_ZERO_TOL", "_ONE_TOL"}


def test_solver_compiles_no_code():
    # the elimination is compiled beside its generator, in potential
    assert not _names_in(solver) & {"_compile", "_solve_source"}


def test_kernels_call_the_one_d_and_principal_log(spec):
    # the kernels bind dilog's own D and principal log, not a copy
    bound = list(spec.tables.eval_v.__globals__.values())
    assert any(v is dilog._d_from_li2 for v in bound)
    assert any(v is dilog.principal_log for v in bound)


def test_no_kernel_text_names_a_slope():
    # the slope's terms belong to the invariants layer, not the kernels
    assert not [name for name, text in potential._KERNELS.items() if "slope" in text]


def test_every_kernel_is_read_by_the_program():
    # each kernel is called as <spec>.tables.<name> somewhere in the
    # package outside the generator, so no kernel is kept for tests alone
    src = os.path.dirname(potential.__file__)
    read = set()
    for fname in os.listdir(src):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname)) as f:
            tree = ast.parse(f.read())
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_compile_kernels":
                skip.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "tables"
                and id(node) not in skip
            ):
                read.add(node.attr)
    assert set(potential._KERNELS) <= read, set(potential._KERNELS) - read


def test_every_public_name_is_exported_or_read():
    # each public function or class of a knotpot module is in
    # knotpot.__all__ or named in the package's code, so no function is
    # kept for tests alone
    src = os.path.dirname(potential.__file__)
    defined, named = {}, set()
    for fname in os.listdir(src):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname)) as f:
            tree = ast.parse(f.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defined[node.name] = fname
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unread = {n: f for n, f in defined.items() if n not in knotpot.__all__ and n not in named}
    assert not unread, unread


def test_im_v_alpha_parts_takes_its_d_sum_from_signed_d_sum(spec, complete, monkeypatch):
    # one D-sum routine: the first part is signed_d_sum's own result
    calls, marker = [], object()

    def counted(s, pt):
        calls.append(pt)
        return marker

    monkeypatch.setattr(invariants, "signed_d_sum", counted)
    assert im_v_alpha_parts(spec, complete.point)[0] is marker
    assert calls == [complete.point]


def test_every_kernel_binding_is_read():
    # each name _compile_kernels binds is read by some kernel of the
    # built-in, so no binding outlives the text that read it
    tables = builtin_five_two().tables
    read = set()
    for name in potential._KERNELS:
        read.update(getattr(tables, name).__code__.co_names)
    bound = set(tables.eval_v.__globals__) - set(potential._KERNELS) - {"__builtins__"}
    assert bound and bound <= read, bound - read


def test_every_kernel_is_compiled_when_the_spec_is_lowered(monkeypatch):
    # load_spec, or the first tables read of a spec built in code,
    # compiles every kernel, and no command compiles one after it
    fresh = builtin_five_two()
    for lowered in (load_spec(dump_spec(fresh)), fresh):
        assert set(potential._KERNELS) <= set(lowered.tables.__dict__)
    texts = []
    compile_ = potential._compile

    def record(source, namespace):
        texts.append(source)
        return compile_(source, namespace)

    monkeypatch.setattr(potential, "_compile", record)
    monkeypatch.setitem(potential.BUILTINS, "5_2", lambda: fresh)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["fill", "--slope", "7/1"], ["complete"], ["trace", "--u-end=0.1i"]):
            assert cli.main(argv) == 0
    kernels = tuple("def %s(" % name for name in potential._KERNELS)
    assert not [text for text in texts if text.startswith(kernels)]


def test_each_kernel_constant_is_bound_once(spec):
    # one name per constant, however many kernels read it; equal type
    # and repr, so 2.0 and 2 or 0.0 and -0.0 would keep a name each
    ns = spec.tables.build_point.__globals__
    keys = [(type(v), repr(v)) for k, v in ns.items() if k.startswith("_k")]
    assert len(keys) == len(set(keys)) > 0


def test_tables_on_points_with_windings(spec, complete):
    # a long trace leaves several continued logs off the principal
    # sheet; on the digest trace to -2 - i a tracked log(1 - m) winds,
    # which the build rewinds, and on the one to 1.5 + 0.5i a continued
    # log m leaves principal_log(m) by 2 pi k, k != 0
    runs = {u: samples for u, samples, _ in trace_runs()}
    samples = trace_deformation(spec, 2 + 1j, 16, complete=complete)
    windings, tracked, monomial = set(), set(), set()
    for smp in samples + runs[-2 - 1j] + runs[1.5 + 0.5j]:
        pt = smp.point
        assert_matches_naive(spec, pt)
        windings.update(winding(lw) for lw in pt.logs.values())
        windings.update(winding(lw) for lw in pt.tracked_logs)
        for m, lm in zip(pt.tracked_values, spec.tables.monomial_logs(pt)):
            monomial.add(round((lm - principal_log(m)).imag / (2 * PI)))
    for smp in runs[-2 - 1j]:
        tracked.update(winding(lw) for lw in smp.point.tracked_logs)
    assert windings != {0} and tracked != {0} and monomial != {0}


# the exponents of CPython's two algorithms for complex ** int, up to
# |e| = 100 and beyond it, and operands with -0.0 parts, subnormals,
# huge and tiny parts, infinities and NaNs
_POWER_EXPONENTS = (1, 2, 3, 7, 100, 101)
_POWER_PARTS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e160, -1e160,
    1e308, -1e308, 1.0, -1.0, 0.75, math.inf, -math.inf, math.nan,
)


def _power_of(e, finite):
    # w ** e as the kernels write it out, compiled into f(w)
    lines = {}
    name = potential._power(lines, "w", e, finite)
    text = "def f(w):%s\n    return %s" % (potential._indented(lines.values(), "    "), name)
    return potential._compile(text, {"_isinf": cmath.isinf})["f"]


def _power_outcome(f, w):
    # the repr, which tells -0.0 and NaN apart, or the error's type
    # and, for an overflow, its message
    try:
        return repr(f(w))
    except ZeroDivisionError:
        return ZeroDivisionError
    except OverflowError as err:
        return OverflowError, str(err)


def test_written_out_powers_match_pow_bit_for_bit():
    rng = random.Random(31)
    operands = [complex(a, b) for a in _POWER_PARTS for b in _POWER_PARTS]
    operands += [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-4, 4)) for _ in range(50)]
    operands += [
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.randint(-320, 308)
        for _ in range(200)
    ]
    for e in _POWER_EXPONENTS + tuple(-e for e in _POWER_EXPONENTS):
        written = _power_of(e, finite=False)
        for w in operands:
            want = _power_outcome(lambda w: w ** e, w)
            assert _power_outcome(written, w) == want, (e, w)
            if abs(e) == 1 and w and cmath.isfinite(w):
                # a finite nonzero base: power 1 is written unchecked
                assert _power_outcome(_power_of(e, finite=True), w) == want, (e, w)
    # (1 + 0j) * w is not w where a part of w is -0.0
    assert repr(_power_of(1, finite=True)(complex(-0.0, -1.0))) == "-1j"


_SLOPE_7_1 = normalize_slope(7, 1)

# every evaluator that reads a point's tracked monomials, as f(spec, pt)
_EVALUATORS = (
    eval_v,
    lambda s, pt: eval_v_alpha(s, _SLOPE_7_1, pt),
    signed_d_sum,
    log_gradient,
    log_hessian,
    eta_log,
    lambda s, pt: s.tables.longitude(pt)[2],
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


@pytest.mark.parametrize("which", range(6), ids=_VARIANT_IDS)
def test_each_dilog_argument_takes_one_li2_per_point(spec, which, monkeypatch):
    # every evaluator, and report_for, reads the Li2 values a point
    # stores on its first read: one li2 call per distinct dilog argument
    vspec, names = _variant_specs(spec)[which]
    calls = []

    def counting(z):
        calls.append(z)
        return li2(z)

    monkeypatch.setattr(potential, "li2", counting)
    readers = _EVALUATORS + (lambda s, pt: report_for(s, _SLOPE_7_1, pt),)
    for base in regular_points(spec, 3, seed=17):
        pt = make_point(vspec, {names[v]: w for v, w in base.values.items()})
        assert calls == []
        for _ in range(2):
            for evaluate in readers:
                evaluate(vspec, pt)
        args = {t.argument for t in vspec.dilog_terms}
        assert len(calls) == len(args)
        assert set(calls) == {m.evaluate(pt.values) for m in args}
        del calls[:]


def test_stored_li2_values_are_not_fields(spec):
    # a point with hashable fields, so its hash can be compared
    built = make_point(spec, {"x": 0.3 + 0.6j, "y": 0.5 + 0.8j, "xi": 1.1 + 0.1j})
    pt, twin = (
        ParamPoint(spec, None, None, built.tracked_values, built.tracked_logs)
        for _ in range(2)
    )
    before = hash(pt), repr(pt)
    assert pt.li2_values == tuple(li2(m) for m in built.tracked_values[:5])
    assert "li2_values" in vars(pt) and "li2_values" not in vars(twin)
    assert pt == twin and (hash(pt), repr(pt)) == (hash(twin), repr(twin)) == before
    assert "li2_values" not in ParamPoint._fields
    for name in ("li2_values", "tracked_values"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pt, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(pt, name)
    assert pt.li2_values == twin.li2_values


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
    "constant_pi2=Fraction(-1, 6), longitude=LongitudeExpr("
    "prefactor=Monomial(exponents=(('x', -1), ('xi', 6), ('y', 1))), "
    "factors=((1, Monomial(exponents=(('xi', -1), ('y', -1)))),)))"
)


def test_record_contract(spec, complete):
    pt = ParamPoint(spec, {"x": 2 + 0j, "y": 3j, "xi": 0.5 + 0j}, {}, (), ())
    assert repr(ContinuedLog(1j, 2)) == "ContinuedLog(value=1j, winding=2)"
    assert repr(normalize_slope(7, 3)) == "Slope(p=7, q=3, r=2, s=1)"
    assert repr(shapes_from_point(pt)) == (
        "Shapes(c2=1.5j, d4=(4+0j), a5=-0.6666666666666666j, b5=(0.25+0j), d5=6j)"
    )
    assert repr(builtin_five_two()) == _FIVE_TWO_REPR

    # records hash and compare by value
    twin = load_spec(dump_spec(spec))
    assert twin == spec and twin is not spec
    assert hash(twin) == hash(spec)
    m = Monomial.from_dict({"x": 1, "xi": -1})
    index = {m: "x/xi"}
    assert index[Monomial.from_dict({"xi": -1, "x": 1})] == "x/xi"
    # equal fields make equal records only within one class
    assert DilogTerm(1, m) != LongitudeExpr(1, m)
    assert DilogTerm(1, m) == DilogTerm(sign=1, argument=m)
    assert ContinuedLog(1j) == ContinuedLog(1j, 0) != ContinuedLog(1j, 1)

    # a record holding a point hashes through the point's values dict,
    # so it is frozen but unhashable
    sol = CriticalPoint(pt, 0.0, 1)
    assert sol == CriticalPoint(pt, 0.0, 1) != CriticalPoint(pt, 0.0, 2)
    filling = FillingSolution(
        normalize_slope(7, 1), complete, ContinuedLog(0j), ContinuedLog(0j), 3, 1e-12
    )
    sample = DeformationSample(0j, pt, 0j)
    for record in (pt, sol, filling, sample):
        with pytest.raises(TypeError):
            hash(record)

    # every record binds its fields by position or by name, fills only
    # its declared defaults, refuses a missing, extra, unknown or
    # repeated field, and refuses assignment and deletion once built
    records, todo = [], [RecordBase]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if "_fields" in vars(cls):
                records.append(cls)
    declared = [
        (potential, "Monomial DilogTerm QuadLogTerm LongitudeExpr"),
        (potential, "PotentialSpec ParamPoint Shapes"),
        (dilog, "ContinuedLog"),
        (solver, "Slope CriticalPoint FillingSolution DeformationSample"),
        (cli, "Record"),
        (selftest, "GroupResult"),
    ]
    assert set(records) == {getattr(m, n) for m, names in declared for n in names.split()}
    assert {cls.__qualname__: cls._defaults for cls in records if cls._defaults} == {
        "ContinuedLog": {"winding": 0},
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
        for name in fields + ("nonesuch",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, name)
        assert [getattr(rec, f) for f in fields] == list(args)
