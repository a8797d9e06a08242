"""Command-line front end tests, run in-process through cli.main."""

import importlib
import json
import math
import os
import subprocess
import sys

import pytest

import _oracles as O
import knotpot
from knotpot import cli, selftest, solver
from knotpot.cli import CSV_HEADER, main, parse_slope, parse_u_end
from knotpot.errors import NoConvergenceError, ValidationError
from knotpot.potential import builtin_five_two, dump_spec, load_spec
from test_potential import _balanced_terms


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- parsing


def test_parse_slope_forms():
    assert (parse_slope("7").p, parse_slope("7").q) == (7, 1)
    assert (parse_slope("-7/2").p, parse_slope("-7/2").q) == (-7, 2)
    assert (parse_slope(" 6/4 ").p, parse_slope("6/4").q) == (3, 2)
    with pytest.raises(ValidationError):
        parse_slope("seven")
    with pytest.raises(ValidationError):
        parse_slope("1/2/3")


def test_parse_u_end_accepts_i_suffix():
    assert parse_u_end("0.1i") == 0.1j
    assert parse_u_end("1+2i") == 1 + 2j
    assert parse_u_end("-0.5") == -0.5
    with pytest.raises(ValidationError):
        parse_u_end("pi")


# ------------------------------------------------------------ complete


def test_complete_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "complete")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert abs(doc["volume"] - O.COMPLETE_VOLUME) < 1e-8
    assert abs(doc["volume"] - doc["volume_from_shapes"]) < 1e-9
    assert abs(doc["x"]["re"] - O.complete_root().real) < 1e-10
    assert abs(doc["eta"]["re"] - 1) < 1e-9
    assert doc["residual"] < 1e-10
    # one "arg <monomial>" key per dilog term, in spec order, and their
    # signed D-sum is the printed volume_from_shapes
    spec = builtin_five_two()
    values = {v: complex(doc[v]["re"], doc[v]["im"]) for v in spec.variables}
    args = [k for k in doc if k.startswith("arg ")]
    assert len(args) == len(spec.dilog_terms)
    d_sum = 0.0
    for t, key in zip(spec.dilog_terms, args):
        z = complex(doc[key]["re"], doc[key]["im"])
        assert key == "arg %s" % t.argument
        assert abs(z - t.argument.evaluate(values)) < 1e-12
        d_sum += t.sign * O.d_oracle(z)
    assert abs(d_sum - doc["volume_from_shapes"]) < 1e-12


def test_unknown_builtin_exits_usage(capsys):
    code, _, err = run(capsys, "--spec", "builtin:unknown", "complete")
    assert code == 1
    assert "unknown builtin" in err


def test_missing_spec_file_exits_usage(capsys):
    code, _, err = run(capsys, "--spec", "/no/such/spec.json", "complete")
    assert code == 1


def test_spec_file_round_trip(capsys, tmp_path):
    path = tmp_path / "five_two.json"
    path.write_text(dump_spec(builtin_five_two()))
    code, out, _ = run(capsys, "--spec", str(path), "--format", "json", "complete")
    assert code == 0
    assert abs(json.loads(out)["volume"] - O.COMPLETE_VOLUME) < 1e-8
    # the dumped file is the built-in: every command prints the same bytes
    for argv in (["complete"], ["fill", "--slope=7/1"], ["trace", "--u-end=0.1i"]):
        got = run(capsys, "--spec", str(path), *argv)
        assert got == run(capsys, "--spec", "builtin:5_2", *argv)
        assert got[0] == 0


def test_malformed_spec_file_exits_usage(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"')
    code, _, err = run(capsys, "--spec", str(path), "complete")
    assert code == 1


def test_spec_file_of_the_wrong_kind_exits_usage(capsys, tmp_path):
    text = dump_spec(builtin_five_two())
    doc = json.loads(text)
    doc["dilog_terms"] = None
    path = tmp_path / "bad.json"
    for data in (
        b"\x80" + text.encode(),  # not UTF-8
        text.replace('"sign": -1', '"sign": ' + "1" * 5000, 1).encode(),  # int() refuses
        json.dumps(doc).encode(),
        b"[" * 3000 + b"]" * 3000,  # nested deeper than the parser recurses
    ):
        path.write_bytes(data)
        code, out, err = run(capsys, "--spec", str(path), "complete")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_a_long_spec_solves(capsys, tmp_path):
    # 3,000 more dilog terms on one argument, which cancel: the spec
    # compiles where it is read and solves to the built-in's volume
    doc = json.loads(dump_spec(builtin_five_two()))
    doc["dilog_terms"] += _balanced_terms(3000)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    for argv in (["complete"], ["fill", "--slope=7/1"]):
        code, out, err = run(capsys, "--spec", str(path), "--format", "json", *argv)
        assert (code, err) == (0, "")
        want = json.loads(run(capsys, "--format", "json", *argv)[1])["volume"]
        assert abs(json.loads(out)["volume"] - want) < 1e-12


_COLLIDING = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "spec_5_2_colliding_names.json"
)


def _spec_variant(tmp_path, kind):
    """A copy of the built-in spec written to a file, and the built-in
    name of each of its variables.

    "renamed" calls x and y a and b; "reordered" declares y before x;
    "colliding" is the committed copy that calls x, y and xi w1,
    __import__ and ParamPoint, names that would collide with the
    compiled kernels' own identifiers and globals if a spec's text
    reached their source.
    """
    if kind == "colliding":
        return _COLLIDING, {"w1": "x", "__import__": "y", "ParamPoint": "xi"}
    text = dump_spec(builtin_five_two())
    names = {"x": "x", "y": "y", "xi": "xi"}
    if kind == "renamed":
        text = text.replace('"x"', '"a"').replace('"y"', '"b"')
        names = {"a": "x", "b": "y", "xi": "xi"}
    else:
        doc = json.loads(text)
        doc["variables"] = ["y", "x", "xi"]
        text = json.dumps(doc)
    path = tmp_path / (kind + ".json")
    path.write_text(text)
    return str(path), names


def _builtin_key(key, names):
    """key with its variables renamed to the built-in's, also inside an
    "arg <monomial>" key, whose factors are ordered by variable name."""
    if not key.startswith("arg "):
        return names.get(key, key)
    factors = sorted((names.get(v, v), e) for v, e in (f.split("^") for f in key[4:].split()))
    return "arg " + " ".join("%s^%s" % f for f in factors)


def _assert_same_doc(got, want, names, where="doc"):
    """got, with its variables renamed to the built-in's, equals want,
    numbers to 1e-12."""
    if isinstance(want, dict):
        got = {_builtin_key(k, names): v for k, v in got.items()}
        assert got.keys() == want.keys(), where
        for k in want:
            _assert_same_doc(got[k], want[k], names, "%s/%s" % (where, k))
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_doc(g, w, names, "%s/%d" % (where, i))
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize("kind", ["renamed", "reordered", "colliding"])
@pytest.mark.parametrize(
    "argv",
    [
        ["fill", "--slope", "7/1"],
        ["fill", "--slope", "5/2"],
        ["fill", "--slope=-7/1"],
        ["fill", "--slope", "11/3"],
        ["scan", "--pmax", "8", "--qmax", "3"],
        ["trace", "--u-end=0.1i"],
        ["fill", "--slope", "-7/1"],
    ],
)
def test_spec_file_with_other_variables_matches_builtin(capsys, tmp_path, kind, argv):
    # the default seeds are laid onto the fiber variables by position
    path, names = _spec_variant(tmp_path, kind)
    code, out, err = run(capsys, "--spec", path, "--format", "json", *argv)
    assert (code, err) == (0, "")
    want_code, want, _ = run(capsys, "--format", "json", *argv)
    assert want_code == 0
    _assert_same_doc(json.loads(out), json.loads(want), names)


@pytest.mark.parametrize("kind", ["renamed", "reordered"])
def test_complete_with_other_variables_matches_builtin(capsys, tmp_path, kind):
    path, names = _spec_variant(tmp_path, kind)
    for fmt in ("table", "csv"):
        code, out, err = run(capsys, "--spec", path, "--format", fmt, "complete")
        assert (code, err) == (0, "") and "volume_from_shapes" in out
    code, out, err = run(capsys, "--spec", path, "--format", "json", "complete")
    assert (code, err) == (0, "")
    want_code, want, _ = run(capsys, "--format", "json", "complete")
    assert want_code == 0
    got, want = json.loads(out), json.loads(want)
    if kind == "reordered":
        # the default seeds are laid onto the fiber variables by
        # position, so Newton starts elsewhere and takes another count
        # of iterations (7 against 4) to the same root
        del got["newton_iters"], want["newton_iters"]
    _assert_same_doc(got, want, names)


def test_spec_with_an_alternate_longitude_exits_usage(capsys, tmp_path):
    # the second closed form of eta that spec documents once carried is
    # an unknown field now, refused before anything is solved
    doc = json.loads(dump_spec(builtin_five_two()))
    doc["longitude"]["alternate"] = dict(doc["longitude"])
    path = tmp_path / "alternate.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--spec", str(path), "complete")
    assert (code, out, err) == (1, "", "error: longitude: unknown field(s) ['alternate']\n")


@pytest.mark.parametrize(
    "path, field",
    [
        (("quad_terms", 0, "coeff", 0), "quad_terms[0].coeff: numerator"),
        (("quad_terms", 0, "coeff", 1), "quad_terms[0].coeff: denominator"),
        (("constant_pi2", 0), "constant_pi2: numerator"),
        (("constant_pi2", 1), "constant_pi2: denominator"),
        (("dilog_terms", 0, "arg", "y"), "dilog_terms[0]: exponent of 'y'"),
        (("longitude", "prefactor", "xi"), "longitude.prefactor: exponent of 'xi'"),
        (("longitude", "factors", 0, "exp"), "longitude.factors[0]: exp"),
        (("longitude", "factors", 0, "arg", "y"), "longitude.factors[0]: exponent of 'y'"),
    ],
)
def test_spec_integer_beyond_float_range_exits_usage(capsys, tmp_path, path, field):
    # the evaluators read every integer of a spec as a float, so
    # load_spec refuses one that overflows it, naming the field
    doc = json.loads(dump_spec(builtin_five_two()))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 10**400
    msg = field + " must be within float range"
    with pytest.raises(ValidationError) as ei:
        load_spec(json.dumps(doc))
    assert str(ei.value) == msg
    spec_path = tmp_path / "big.json"
    spec_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--spec", str(spec_path), "complete")
    assert (code, out, err) == (1, "", "error: %s\n" % msg)


def _set_dilog_exponent(doc, e):
    doc["dilog_terms"][0]["arg"]["y"] = e


def _add_longitude_factor(doc, e):
    doc["longitude"]["factors"].append({"exp": e, "arg": {"x": e}})


@pytest.mark.parametrize(
    "edit, e, term",
    [
        (_set_dilog_exponent, 10**300, "dilog_terms[0]: product of exponents"),
        (_set_dilog_exponent, -(10**300), "dilog_terms[0]: product of exponents"),
        (
            _add_longitude_factor,
            10**200,
            "longitude.factors[1]: product of exp and exponent",
        ),
    ],
    ids=["dilog", "dilog-negative", "longitude-factor"],
)
def test_spec_exponent_product_beyond_float_range_exits_usage(
    capsys, tmp_path, edit, e, term
):
    # each exponent is within float range, but the lowering forms
    # a_u * a_v for the hessian and e * a_v for d log eta, which are not
    doc = json.loads(dump_spec(builtin_five_two()))
    edit(doc, e)
    msg = term + " must be within float range"
    with pytest.raises(ValidationError) as ei:
        load_spec(json.dumps(doc))
    assert str(ei.value) == msg
    spec_path = tmp_path / "product.json"
    spec_path.write_text(json.dumps(doc))
    for argv in (["complete"], ["fill", "--slope=7/1"], ["trace", "--u-end=0.1i"]):
        code, out, err = run(capsys, "--spec", str(spec_path), *argv)
        assert (code, out, err) == (1, "", "error: %s\n" % msg)


def test_overflowing_primary_longitude_fails_complete(capsys, tmp_path):
    # the built-in with (1 - m)^10000 for the longitude's first factor,
    # which overflows at the complete structure
    doc = json.loads(dump_spec(builtin_five_two()))
    doc["longitude"]["factors"][0]["exp"] = 10**4
    path = tmp_path / "power.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--spec", str(path), "complete")
    assert (code, out) == (2, "")
    assert err == "error: longitude overflow (complex exponentiation)\n"


def _prefactor_spec(tmp_path, prefactor):
    # the built-in with its longitude prefactor exponents updated
    doc = json.loads(dump_spec(builtin_five_two()))
    doc["longitude"]["prefactor"].update(prefactor)
    path = tmp_path / "prefactor.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _refuse_constant(name):
    # json.loads calls this on NaN, Infinity and -Infinity, which are
    # not JSON
    raise ValueError("%s is not JSON" % name)


_LONGITUDE_TERM = {"y": 17 * 10**307}
_LONGITUDE_SUM = {"x": 692 * 10**305, "y": 10**307}


@pytest.mark.parametrize(
    "prefactor, slope, reason",
    [
        (_LONGITUDE_TERM, "7/1", "longitude overflow (absolute value too large)"),
        ({"y": 41 * 10**306}, "1/2", "Newton system overflow (absolute value too large)"),
        (_LONGITUDE_SUM, "0/1", "longitude overflow (term size inf)"),
    ],
    ids=["longitude_term", "filling_equation", "longitude_sum"],
)
def test_overflowing_longitude_obstructs_fill(capsys, tmp_path, prefactor, slope, reason):
    # the built-in with longitude prefactor exponents near float range:
    # a term of log eta has finite parts but a modulus beyond it, or
    # log eta's terms sum to an infinite size, which the longitude
    # kernel refuses, or q v in the filling equation has a modulus
    # beyond it, which the Newton loop refuses as a step too large; the
    # filling halves and the slope is reported obstructed
    path = _prefactor_spec(tmp_path, prefactor)
    code, out, err = run(capsys, "--spec", path, "fill", "--slope", slope)
    assert (code, out) == (3, "")
    assert err == (
        "slope %s: filling path for %s obstructed at t = 0.000000 (%s); "
        "slope possibly exceptional\n" % (slope, slope, reason)
    )


@pytest.mark.parametrize(
    "prefactor, reason",
    [
        (_LONGITUDE_TERM, "longitude overflow (absolute value too large)"),
        (_LONGITUDE_SUM, "longitude overflow (term size inf)"),
    ],
    ids=["longitude_term", "longitude_sum"],
)
def test_overflowing_longitude_obstructs_trace(capsys, tmp_path, prefactor, reason):
    # the longitude kernel that refuses the filling refuses the trace's
    # v = 2 log eta alike: the step halves until the trace is obstructed
    # before its first sample, and no row holds a v that is not finite
    path = _prefactor_spec(tmp_path, prefactor)
    want = "trace obstructed: deformation path obstructed at u = 0j (%s)\n" % reason
    argv = ["trace", "--u-end=0.5i", "--samples", "2"]
    code, out, err = run(capsys, "--spec", path, "--format", "csv", *argv)
    assert (code, err) == (3, want)
    assert out.splitlines() == [
        "u_re,u_im,x_re,x_im,y_re,y_im,v_re,v_im,im_v,sum_d,defect_re,defect_im,residual"
    ]
    code, out, err = run(capsys, "--spec", path, "--format", "json", *argv)
    assert (code, err) == (3, want)
    assert "NaN" not in out and "Infinity" not in out
    assert json.loads(out)["samples"] == []


def test_overflowing_defect_obstructs_trace(capsys, tmp_path):
    # v is finite, but the Rogers defect's (u/2)(v/2) is not at the
    # eighth sample: the trace refuses that sub-step as it refuses a v
    # past float range, and prints the seven samples before it
    path = _prefactor_spec(tmp_path, {"y": 4 * 10**306})
    argv = ["trace", "--u-end=-8", "--samples", "8"]
    want = "trace obstructed: deformation path obstructed at u = "
    code, out, err = run(capsys, "--spec", path, "--format", "csv", *argv)
    assert code == 3 and err.startswith(want) and err.endswith(" ((u/2)(v/2) overflow)\n")
    assert len(out.splitlines()) == 1 + 7
    assert "inf" not in out and "nan" not in out
    code, out, err = run(capsys, "--spec", path, "--format", "json", *argv)
    assert code == 3 and err.startswith(want)
    assert len(json.loads(out, parse_constant=_refuse_constant)["samples"]) == 7


def test_spec_with_fractional_quad_exponent_exits_usage(capsys, tmp_path):
    # the spec's fault is reported as such, not as seeds that did not converge
    doc = json.loads(dump_spec(builtin_five_two()))
    doc["quad_terms"][0]["coeff"] = [3, 2]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    for argv in (["complete"], ["fill", "--slope", "7"]):
        code, out, err = run(capsys, "--spec", str(path), *argv)
        assert (code, out) == (1, "")
        assert err == "error: reduced residual needs integer quad exponents, got 3/2\n"


@pytest.mark.parametrize(
    "path, arg",
    [
        (("dilog_terms", 0), None),
        (("dilog_terms", 0), {}),
        (("dilog_terms", 0), {"x": 0}),
        (("longitude", "factors", 0), None),
    ],
    ids=["dilog_missing", "dilog_empty", "dilog_zero", "primary_missing"],
)
def test_spec_with_constant_arg_exits_usage(capsys, tmp_path, path, arg):
    # refused where the spec is read, not as seeds that did not
    # converge or a possibly exceptional slope
    doc = json.loads(dump_spec(builtin_five_two()))
    node = doc
    for key in path:
        node = node[key]
    del node["arg"]
    if arg is not None:
        node["arg"] = arg
    spec_path = tmp_path / "constant.json"
    spec_path.write_text(json.dumps(doc))
    where = path[0] + "".join("[%d]" % k if isinstance(k, int) else "." + k for k in path[1:])
    for argv in (["complete"], ["fill", "--slope=7/1"]):
        code, out, err = run(capsys, "--spec", str(spec_path), *argv)
        assert (code, out) == (1, "")
        assert err == "error: %s: arg must hold a variable\n" % where


def test_fill_reports_an_obstructed_homotopy_once(capsys, monkeypatch):
    def never_converges(*args):
        raise NoConvergenceError("filling Newton: no convergence")

    monkeypatch.setattr(solver, "_newton_filling", never_converges)
    code, out, err = run(capsys, "fill", "--slope=7/1")
    assert (code, out) == (3, "")
    assert err == (
        "slope 7/1: filling path for 7/1 obstructed at t = 0.000000 "
        "(filling Newton: no convergence); slope possibly exceptional\n"
    )


def _spec_with_x_named(tmp_path, name):
    doc = json.loads(dump_spec(builtin_five_two()).replace('"x"', json.dumps(name)))
    path = tmp_path / ("x_named_%s.json" % name)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("spec", ["complete"]),
        ("volume", ["complete"]),
        ("v", ["fill", "--slope=7/1"]),
        ("p", ["fill", "--slope=7/1"]),
        ("v", ["trace", "--u-end=0.1i", "--samples", "1"]),
        ("defect", ["trace", "--u-end=0.1i", "--samples", "1"]),
    ],
)
def test_variable_named_like_an_output_key_exits_usage(capsys, tmp_path, name, argv):
    # the variable's values would overwrite or repeat the key's, in
    # every format, so the spec is refused before solving
    path = _spec_with_x_named(tmp_path, name)
    for fmt in ("table", "json", "csv"):
        code, out, err = run(capsys, "--spec", path, "--format", fmt, *argv)
        assert (code, out) == (1, "")
        assert err == (
            "error: spec variable(s) %s share a name with an output key of %s; "
            "rename them\n" % (name, argv[0])
        )


@pytest.mark.parametrize("name", ["a,b", "a b", ""])
@pytest.mark.parametrize(
    "argv",
    [["complete"], ["fill", "--slope=7/1"], ["trace", "--u-end=0.1i", "--samples", "1"]],
    ids=["complete", "fill", "trace"],
)
def test_variable_name_that_is_not_an_identifier_exits_usage(capsys, tmp_path, name, argv):
    # a csv cell would split at the comma or lose the spaces, and an
    # empty name leaves bare _re,_im columns, so the spec is refused
    path = _spec_with_x_named(tmp_path, name)
    for fmt in ("table", "json", "csv"):
        code, out, err = run(capsys, "--spec", path, "--format", fmt, *argv)
        assert (code, out) == (1, "")
        assert err == (
            "error: spec variable name(s) %r are not identifiers, which %s "
            "prints; rename them\n" % (name, argv[0])
        )


@pytest.mark.parametrize("name", ["five,two\nvolume,0", "a,b", "5_2\r", "tab\there", "\x1b[2J"])
def test_spec_name_that_would_forge_a_line_exits_usage(capsys, tmp_path, name):
    # complete prints the name as the value of spec: a line break in it
    # starts a line of its own and a comma splits a csv cell, so the
    # spec is refused before solving; fill prints no name and solves
    doc = json.loads(dump_spec(builtin_five_two()))
    doc["name"] = name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    for fmt in ("table", "json", "csv"):
        code, out, err = run(capsys, "--spec", str(path), "--format", fmt, "complete")
        assert (code, out) == (1, "")
        assert err == (
            "error: spec name %r holds a comma or an unprintable character, "
            "which complete prints; rename it\n" % name
        )
    code, out, err = run(capsys, "--spec", str(path), "fill", "--slope=7/1")
    assert (code, err) == (0, "")
    assert out == run(capsys, "fill", "--slope=7/1")[1]


def test_variable_name_that_is_not_an_identifier_still_scans(capsys, tmp_path):
    code, out, err = run(capsys, "--spec", _spec_with_x_named(tmp_path, "a,b"), "scan")
    assert (code, err) == (0, "")
    assert out == run(capsys, "scan")[1]


def test_identifier_with_a_digit_still_solves(capsys, tmp_path):
    path = _spec_with_x_named(tmp_path, "x1")
    for argv in (["complete"], ["fill", "--slope=7/1"], ["trace", "--u-end=0.1i"]):
        code, out, err = run(capsys, "--spec", path, "--format", "json", *argv)
        assert (code, err) == (0, "")
        want = run(capsys, "--format", "json", *argv)[1]
        _assert_same_doc(json.loads(out), json.loads(want), {"x1": "x"})


def test_variable_named_like_another_command_key_still_solves(capsys, tmp_path):
    # complete writes no "v" and scan writes no variable at all
    path = _spec_with_x_named(tmp_path, "v")
    for argv in (["complete"], ["scan", "--pmax", "2"]):
        code, out, err = run(capsys, "--spec", path, *argv)
        assert (code, err) == (0, "") and out


@pytest.mark.parametrize(
    "argv",
    [["complete"], ["fill", "--slope=7/1"], ["trace", "--u-end=0.1i", "--samples", "2"]],
)
def test_refused_names_cover_every_key_written_beside_the_variables(capsys, argv):
    refused = cli._OUTPUT_KEYS[argv[0]]
    variables = set(builtin_five_two().variables)
    doc = json.loads(run(capsys, "--format", "json", *argv)[1])
    keys = {k for k in doc if not k.startswith("arg ")}
    if argv[0] == "trace":
        keys = {"schema"}.union(*doc["samples"])
        # csv columns: a variable v fills v_re,v_im
        header = run(capsys, "--format", "csv", *argv)[1].splitlines()[0]
        for col in header.split(","):
            stem = col.rsplit("_", 1)[0] if col.endswith(("_re", "_im")) else col
            assert stem in refused | variables, col
    if argv[0] == "complete":
        # the text keys, besides the "arg <monomial>" lines
        for line in run(capsys, *argv)[1].splitlines():
            key = line.split(" = ")[0]
            assert key.startswith("arg ") or key in refused | variables, key
    assert keys - variables <= refused


def _spec_with_a_repeated_dilog_argument(tmp_path):
    """The built-in plus a copy of its first dilog term and that term
    negated: the potential is unchanged, and one argument occurs thrice."""
    doc = json.loads(dump_spec(builtin_five_two()))
    first = doc["dilog_terms"][0]
    doc["dilog_terms"] += [first, dict(first, sign=-first["sign"])]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("repeated", [False, True], ids=["builtin", "repeated-arg"])
@pytest.mark.parametrize("argv", [["complete"], ["fill", "--slope=7/1"]])
def test_every_format_prints_the_same_keys_in_order(capsys, tmp_path, argv, repeated):
    spec = _spec_with_a_repeated_dilog_argument(tmp_path) if repeated else "builtin:5_2"
    table = [ln.split(" = ")[0] for ln in run(capsys, "--spec", spec, *argv)[1].splitlines()]
    csv = run(capsys, "--spec", spec, "--format", "csv", *argv)[1].splitlines()
    doc = json.loads(run(capsys, "--spec", spec, "--format", "json", *argv)[1])
    assert table == [ln.split(",")[0] for ln in csv] == [k for k in doc if k != "schema"]


# ---------------------------------------------------------------- fill


def test_fill_json_record(capsys):
    code, out, _ = run(capsys, "--format", "json", "fill", "--slope", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert (doc["p"], doc["q"], doc["r"], doc["s"]) == (7, 1, -1, 0)
    assert 0 < doc["volume"] < 2.8282
    assert doc["filling_residual"] <= 1e-9
    assert doc["residual"] <= 1e-10
    assert 0 <= doc["cs_mod_half"] < 0.5
    assert doc["length"] > 0
    assert doc["steps"] >= 1


def test_fill_table(capsys):
    code, out, _ = run(capsys, "fill", "--slope=-7/1")
    assert code == 0
    fields = dict(ln.split(" = ") for ln in out.strip().splitlines())
    assert (fields["p"], fields["q"]) == ("-7", "1")
    assert abs(float(fields["volume"]) - 1.757126029188) < 1e-9
    assert float(fields["length"]) > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["fill", "--slope", "-7/1"],
        ["fill", "--slope", "-5/2"],
        ["trace", "--u-end", "-1+0.5i", "--samples", "2"],
    ],
)
def test_negative_value_without_equals(capsys, argv):
    # argparse would read "-7/1" as an option; it must parse as "--slope=-7/1"
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    joined = argv[:1] + ["%s=%s" % (argv[1], argv[2])] + argv[3:]
    assert run(capsys, *joined) == (code, out, err)


def test_fill_rejects_meridian_slope(capsys):
    code, _, err = run(capsys, "fill", "--slope", "0/0")
    assert code == 1


# 2N is past float range, though N itself is not
_HALF_RANGE_N = "9" + "0" * 307


@pytest.mark.parametrize(
    "slope",
    [
        "1" + "0" * 400 + "/1",
        "1/1" + "0" * 400,
        "-1" + "0" * 400,
        "1" + "0" * 5000,
        _HALF_RANGE_N + "/1",
        "1/" + _HALF_RANGE_N,
        "-" + _HALF_RANGE_N,
    ],
    ids=[
        "p",
        "q",
        "negative-p",
        "past-int-digits",
        "p-past-half",
        "q-past-half",
        "negative-p-past-half",
    ],
)
def test_fill_refuses_a_slope_beyond_float_range(capsys, slope):
    # the filling Jacobian holds 2p and 2q, so those must be floats
    code, out, err = run(capsys, "fill", "--slope=" + slope)
    assert (code, out) == (1, "")
    assert err == "error: slope p and q must be within float range\n"


@pytest.mark.parametrize(
    "slope",
    [
        "1/100000",
        "1/1000000",
        "1/10000000000",
        "1/1" + "0" * 300,
        "1" + "0" * 300 + "/1",
        "1/5" + "0" * 307,
    ],
    ids=["q-1e5", "q-1e6", "q-1e10", "q-1e300", "p-1e300", "q-5e307"],
)
def test_fill_accepts_a_large_slope(capsys, slope):
    code, out, err = run(capsys, "fill", "--slope=" + slope)
    assert (code, err) == (0, "")
    assert "volume = 2.82812208" in out
    # accepted within the printed bound: for a large q the float
    # rounding floor of q v, past --newton-tol; a large p leaves |p u|
    # near 2 pi, so the bound stays --newton-tol. At q = 5e307, 2q is a
    # float but 2 |q| times the size of v is not: the floor stays finite
    # because it is scaled by n eps first
    doc = json.loads(run(capsys, "--format", "json", "fill", "--slope=" + slope)[1])
    assert math.isfinite(doc["filling_tol"])
    assert doc["filling_residual"] <= doc["filling_tol"]
    if doc["q"] > 1:
        assert doc["filling_tol"] > 1e-12
    else:
        assert doc["filling_tol"] == 1e-12


def _knotpot_env():
    # a child process imports the knotpot this run imported, whether
    # that is the checkout's src/ or an installed copy
    site = os.path.dirname(os.path.dirname(knotpot.__file__))
    return dict(os.environ, PYTHONPATH=site)


def test_fill_with_a_short_core_geodesic_writes_no_warning():
    # a fresh process, so stderr is what a user sees: the core of
    # 1000000/1 is about 1.9e-11 long, short but not degenerate
    proc = subprocess.run(
        [sys.executable, "-m", "knotpot.cli", "fill", "--slope=1000000/1"],
        capture_output=True, text=True, env=_knotpot_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "volume = 2.82812208830138\n" in proc.stdout


def test_fill_requires_slope_argument(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["fill"])
    assert ei.value.code == 1


# ---------------------------------------------------------------- scan


def test_scan_enumeration_and_header(capsys):
    code, out, _ = run(capsys, "--format", "csv", "scan", "--pmax", "1", "--qmax", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("-1", "1"), ("0", "1"), ("1", "1")]
    by_p = {r[0]: r for r in rows}
    assert by_p["1"][4] == "true"
    assert by_p["0"][4] == "false"
    assert all(cell == "" for cell in by_p["0"][5:])


def test_scan_rows_sorted_and_coprime(capsys):
    code, out, _ = run(capsys, "--format", "csv", "scan", "--pmax", "4", "--qmax", "2")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    keys = [(int(r[1]), int(r[0])) for r in rows]  # (q, p)
    assert keys == sorted(keys)
    import math

    assert all(math.gcd(p, q) == 1 for q, p in keys)
    assert all(q in (1, 2) for q, p in keys)


def test_scan_volumes_below_complete(capsys):
    code, out, _ = run(capsys, "--format", "csv", "scan", "--pmax", "8", "--qmax", "2")
    assert code == 0
    for ln in out.strip().splitlines()[1:]:
        cells = ln.split(",")
        if cells[4] == "true":
            assert 0 < float(cells[5]) < 2.8282


def test_scan_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["--format", "csv", "--output", str(a), "scan", "--pmax", "3"]) == 0
    assert main(["--format", "csv", "--output", str(b), "scan", "--pmax", "3"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_scan_json_schema(capsys):
    code, out, _ = run(capsys, "--format", "json", "scan", "--pmax", "2", "--qmax", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["rows"]) == 5
    for row in doc["rows"]:
        if row["converged"]:
            assert row["volume"] is not None
        else:
            assert row["volume"] is None


@pytest.mark.parametrize(
    "flag, bound",
    [
        ("--pmax", "1" + "0" * 400),
        ("--qmax", "1" + "0" * 400),
        ("--pmax", _HALF_RANGE_N),
        ("--qmax", _HALF_RANGE_N),
    ],
    ids=["--pmax", "--qmax", "--pmax-past-half", "--qmax-past-half"],
)
def test_scan_refuses_bounds_beyond_float_range(capsys, flag, bound):
    # refused before a single slope is enumerated
    code, out, err = run(capsys, "scan", flag, bound)
    assert (code, out) == (1, "")
    assert err == "error: scan bounds must be within float range\n"


@pytest.mark.parametrize(
    "pmax, qmax, slopes",
    [("1", "1" + "0" * 30, "3" + "0" * 30), ("2", "200001", "1000005")],
    ids=["qmax-1e30", "one-past-the-bound"],
)
def test_scan_refuses_a_box_of_more_than_a_million_slopes(
    capsys, monkeypatch, pmax, qmax, slopes
):
    # refused before the complete structure is solved; a box of exactly
    # 10**6 slopes goes on to it, and here fails there
    monkeypatch.setattr(solver, "DEFAULT_SEEDS", ((1.0, 1.0),))
    code, out, err = run(capsys, "scan", "--pmax", pmax, "--qmax", qmax)
    assert (code, out) == (1, "")
    assert err == (
        "error: scan box holds (2 pmax + 1) qmax = %s candidate slopes, "
        "more than 10**6\n" % slopes
    )
    code, out, err = run(capsys, "scan", "--pmax", "2", "--qmax", "200000")
    assert (code, out, err) == (2, "", "complete structure failed: no seed converged for 5_2\n")


# --------------------------------------------------------------- trace


def test_trace_single_sample_matches_complete(capsys):
    code, out, _ = run(capsys, "trace", "--u-end", "0+0i", "--samples", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    cells = [float(c) for c in lines[1].split(",")]
    assert cells[0] == 0 and cells[1] == 0
    assert abs(complex(cells[2], cells[3]) - O.complete_root()) < 1e-10
    assert abs(cells[8] - O.COMPLETE_VOLUME) < 1e-8


def test_trace_rows_and_residuals(capsys):
    code, out, _ = run(capsys, "trace", "--u-end", "0.05i", "--samples", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    for ln in lines[1:]:
        cells = [float(c) for c in ln.split(",")]
        assert cells[-1] <= 1e-10


def test_trace_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "trace", "--u-end", "0.05i", "--samples", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["samples"]) == 3
    assert abs(doc["samples"][-1]["u"]["im"] - 0.05) < 1e-12
    for row in doc["samples"]:
        assert abs(row["im_v"] - row["sum_d"]) < 1e-9


def test_trace_header_names_the_spec_variables(capsys, tmp_path):
    path, _ = _spec_variant(tmp_path, "renamed")
    code, out, _ = run(capsys, "--spec", path, "--format=csv", "trace", "--u-end=0.1i")
    assert code == 0
    assert out.splitlines()[0] == (
        "u_re,u_im,a_re,a_im,b_re,b_im,"
        "v_re,v_im,im_v,sum_d,defect_re,defect_im,residual"
    )


@pytest.mark.parametrize(
    "argv",
    [
        # exp of the first sample's meridian log overflows at every halving
        ["--u-end=1e300"],
        # Newton steps far enough out that a log(1 - m) is not finite, a
        # residual power overflows, or a variable log is not finite
        ["--u-end=2000", "--samples", "3"],
        ["--u-end=1e5", "--samples", "3"],
        ["--u-end=-1e5", "--samples", "3"],
    ],
)
def test_trace_far_u_end_obstructs_without_traceback(capsys, argv):
    code, out, err = run(capsys, "trace", *argv)
    assert code == 3
    assert "Traceback" not in err
    assert err.startswith("trace obstructed: ")
    assert out.strip().splitlines()[0].startswith("u_re,")


def test_trace_rejects_a_sample_on_a_log_pole(capsys):
    # the fiber Newton drives x toward 0 (about 7.5e-249) where the
    # reduced residual is tiny only because x is; that is a pole of
    # log x, not a sample, and no row of nan may be printed
    code, out, err = run(capsys, "trace", "--u-end=-2000", "--samples", "3")
    assert code == 3
    assert "nan" not in out
    assert out.startswith("u_re,") and len(out.splitlines()) == 1  # the header alone
    assert err.startswith("trace obstructed: ")
    assert err.rstrip().endswith("(variable x = 0 (log pole))")


# --u-end text and the complex value trace_deformation refuses
_NON_FINITE_U_END = {
    "nan": "(nan+0j)",
    "1e400": "(inf+0j)",
    "-1e400": "(-inf+0j)",
    "1+1e400i": "(1+infj)",
    "nan+0i": "(nan+0j)",
}


@pytest.mark.parametrize("text", list(_NON_FINITE_U_END))
def test_trace_rejects_non_finite_u_end(capsys, text):
    # the CLI only reads the value; the library refuses it unsolved
    code, out, err = run(capsys, "trace", "--u-end=" + text)
    assert (code, out) == (1, "")
    assert err == "error: u_end must be finite, got %s\n" % _NON_FINITE_U_END[text]


def test_usage_errors_exit_before_the_complete_structure_fails(capsys, monkeypatch):
    # with no seed converging, every solving command exits 2, but a bad
    # argument is judged first, by the CLI or the library, and exits 1
    monkeypatch.setattr(solver, "DEFAULT_SEEDS", ((1.0, 1.0),))
    failed = "complete structure failed: no seed converged for 5_2\n"
    for argv in (
        ["complete"],
        ["fill", "--slope=7/1"],
        ["scan", "--pmax", "2"],
        ["trace", "--u-end=0.1i", "--samples", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", failed), argv
    for argv, msg in (
        (["fill", "--slope=p/q"], "slope must be an integer or p/q, got 'p/q'"),
        (["fill", "--slope=1/0"], "slope with q = 0 (meridian) is not a filling"),
        (["fill", "--slope=1" + "0" * 400], "slope p and q must be within float range"),
        (["scan", "--pmax", "0"], "scan bounds must be >= 1"),
        (["trace", "--u-end=0.1i", "--samples", "0"], "samples must be >= 1"),
        (
            ["trace", "--u-end=0.1i", "--samples", "1000000000"],
            "samples must be at most 10**6, got 1000000000",
        ),
        (["trace", "--u-end=nan"], "u_end must be finite, got (nan+0j)"),
        (
            ["--newton-tol", "-1", "complete"],
            "newton_tol must be at most 0.001 and greater than 0, got -1",
        ),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: %s\n" % msg), argv


# ------------------------------------------------------------ selftest


def _selftest_groups(out):
    """{group name: passed cell} of selftest's table output."""
    lines = out.strip().splitlines()
    header = lines.index("name,passed,worst_over_tol,detail")
    return {ln.split(",")[0]: ln.split(",")[1] for ln in lines[header + 1 :]}


def _scale_gradient(f):
    return lambda spec, pt: [g * (1 + 1e-5) for g in f(spec, pt)]


# (module, function, fault, the one group it must fail)
_SELFTEST_FAULTS = [
    ("knotpot.dilog", "li2", lambda f: lambda z: f(z) * (1 + 1e-9), "dilog-identities"),
    ("knotpot.selftest", "log_gradient", _scale_gradient, "derivative-checks"),
    # the sign of Im Li2 in D, where the signed_d_sum kernel forms D from
    # the stored Li2, trips the volume checks: the fault is in the D a
    # spec's kernels bind when it is lowered, and selftest builds a fresh
    # spec
    ("knotpot.potential", "_d_from_li2", lambda f: lambda z, a: f(z, -a),
     "complete-structure"),
]


def test_selftest_negative_control(capsys, monkeypatch):
    # acceptance criteria 1-3 run these groups, so each must fail under a
    # fault in what it checks, and name itself alone
    for module, name, fault, group in _SELFTEST_FAULTS:
        with monkeypatch.context() as mp:
            mod = importlib.import_module(module)
            mp.setattr(mod, name, fault(getattr(mod, name)))
            code, out, _ = run(capsys, "selftest")
        assert code == 4, group
        fails = [g for g, passed in _selftest_groups(out).items() if passed == "false"]
        assert fails == [group]


def test_selftest_reports_a_failed_complete_structure(capsys, monkeypatch):
    def fails(spec):
        raise NoConvergenceError("no seed converged for 5_2")

    monkeypatch.setattr(selftest, "solve_complete", fails)
    code, out, _ = run(capsys, "--format", "json", "selftest")
    assert code == 4
    groups = {g["name"]: g for g in json.loads(out)["groups"]}
    assert groups["complete-structure"] == {
        "name": "complete-structure",
        "passed": False,
        "worst_over_tol": None,
        "detail": "no seed converged for 5_2",
    }


# ------------------------------------------------------ tol and output


def test_looser_newton_tol_still_fills(capsys):
    # --newton-tol is the one tolerance: a fill whose Newton solve
    # stops within it is accepted
    code, out, err = run(capsys, "--newton-tol", "1e-8", "fill", "--slope", "7")
    assert (code, err) == (0, "")
    assert "volume = 2.53772525630352\n" in out


def test_accept_tol_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--accept-tol", "1e-10", "fill", "--slope", "7"])
    out, err = capsys.readouterr()
    assert (ei.value.code, out) == (1, "")
    assert err.startswith("usage: knotpot ")


def test_environment_sets_no_tolerance(capsys, monkeypatch):
    want = run(capsys, "complete")
    monkeypatch.setenv("KNOTPOT_TOL", "three")
    assert run(capsys, "complete") == want


@pytest.mark.parametrize(
    "argv",
    [
        ["--newton-tol", "inf", "complete"],
        ["--newton-tol", "nan", "complete"],
    ],
)
def test_tolerances_must_be_finite(capsys, argv):
    # nan passes a "<= 0" test and makes every "resid <= tol" false;
    # inf accepts the unrefined seed as the complete structure
    code, out, err = run(capsys, *argv)
    value = argv[1]
    want = "error: newton_tol must be at most 0.001 and greater than 0, got %s\n" % value
    assert (code, out, err) == (1, "", want)


def test_newton_tol_is_capped(capsys):
    # looser than 1e-3 a flat filling can pass for a hyperbolic one;
    # the cap is refused before anything is solved
    code, out, err = run(capsys, "--newton-tol", "2e-3", "fill", "--slope", "7")
    want = "error: newton_tol must be at most 0.001 and greater than 0, got 0.002\n"
    assert (code, out, err) == (1, "", want)
    code, out, err = run(capsys, "--newton-tol", "1e-3", "fill", "--slope", "7")
    assert (code, err) == (0, "")
    assert "volume = 2.5377252" in out


def _fresh_process(code, *args):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=_knotpot_env(), check=True,
    )
    return proc.stdout


# prints the dataclasses of every loaded knotpot module
_PRINT_DATACLASSES = (
    "print(sorted({c.__module__ + '.' + c.__qualname__\n"
    "              for name, m in list(sys.modules.items())\n"
    "              if name.split('.')[0] == 'knotpot'\n"
    "              for c in vars(m).values()\n"
    "              if isinstance(c, type) and hasattr(c, '__dataclass_fields__')}))\n"
)


def test_solving_commands_do_not_import_selftest(tmp_path):
    # fresh processes: the suites load only for the selftest command,
    # and numpy never, since knotpot has no runtime dependency; and the
    # record types are written out, so the import builds one dataclass,
    # the InvariantReport that perfbench copies with dataclasses.replace
    code = (
        "import sys, knotpot.cli\n"
        + _PRINT_DATACLASSES
        + "assert knotpot.cli.main(['--output', sys.argv[1], 'complete']) == 0\n"
        "assert knotpot.cli.main(['--output', sys.argv[1], 'trace', '--u-end=0.1i']) == 0\n"
        "print('knotpot.selftest' in sys.modules, 'numpy' in sys.modules)\n"
    )
    assert _fresh_process(code, str(tmp_path / "out.txt")) == (
        "['knotpot.invariants.InvariantReport']\nFalse False\n"
    )
    code = (
        "import sys, knotpot\n"
        "spec = knotpot.builtin_five_two()\n"
        "complete = knotpot.solve_complete(spec)\n"
        "knotpot.trace_deformation(spec, 0.1j, 4, complete=complete)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _fresh_process(code) == "False\n"
    # selftest's GroupResult is written out too
    for argv in (["fill", "--slope=7/1"], ["scan", "--pmax", "3", "--qmax", "2"],
                 ["selftest"]):
        code = (
            "import sys, knotpot.cli\n"
            "assert knotpot.cli.main(['--output', sys.argv[1]] + sys.argv[2:]) == 0\n"
            + _PRINT_DATACLASSES
            + "print('numpy' in sys.modules)\n"
        )
        assert _fresh_process(code, str(tmp_path / "out.txt"), *argv) == (
            "['knotpot.invariants.InvariantReport']\nFalse\n"
        )


def test_output_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["--format", "json", "--output", str(path), "complete"]) == 0
    _, stdout_text, _ = run(capsys, "--format", "json", "complete")
    assert path.read_text() == stdout_text
