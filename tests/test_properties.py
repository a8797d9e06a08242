"""Property tests with hypothesis over the inputs a user can supply.

Slopes, spec documents, the branch continuation of logs and CLI argv.
All run in-process; all but the CLI property call functions that take
microseconds, and that one draws few, small examples, so the suite
stays fast.
"""

import cmath
import contextlib
import functools
import io
import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from knotpot.cli import main
from knotpot.errors import SpecFormatError, ValidationError
from knotpot.potential import (
    PotentialSpec,
    advance_point_logs,
    builtin_five_two,
    dump_spec,
    load_spec,
)
from knotpot.solver import normalize_slope, solve_complete

# the machine's speed varies, so a slow example is not a failure. A
# valid document costs about 200 draws, so the round trip runs fewer
# examples; the mutation tests run more, to reach each field of one
_settings = settings(deadline=None, database=None)
_few = settings(deadline=None, database=None, max_examples=50)
_many = settings(deadline=None, database=None, max_examples=200)


# ------------------------------------------------------------- slopes


@_settings
@given(st.integers(), st.integers().filter(bool))
def test_normalize_slope_gives_the_canonical_cocycle(p_raw, q_raw):
    s = normalize_slope(p_raw, q_raw)
    assert Fraction(s.p, s.q) == Fraction(p_raw, q_raw)
    assert s.q >= 1 and math.gcd(s.p, s.q) == 1
    assert s.p * s.s - s.q * s.r == 1
    if s.q > 1:
        assert 0 <= s.s < s.q
    else:
        assert (s.r, s.s) == (-1, 0)


# -------------------------------------------------------------- specs


def _rationals():
    return st.fractions().map(lambda f: [f.numerator, f.denominator])


@functools.lru_cache(maxsize=None)
def _skeleton(n):
    """Documents over the variables 0 .. n-1, named by spec_documents.

    Built once per n: hypothesis validates a strategy on first use, and
    that costs more than drawing from it.
    """
    index = st.integers(0, n - 1)
    mono = st.dictionaries(index, st.integers(-6, 6))
    quad = st.fixed_dictionaries({
        "coeff": _rationals(), "vars": st.lists(index, min_size=2, max_size=2),
    })
    # the meridian, n - 1, must appear in some quad term
    meridian_quad = st.fixed_dictionaries({
        "coeff": _rationals(),
        "vars": index.flatmap(lambda i: st.permutations([n - 1, i])),
    })
    expr = st.fixed_dictionaries({
        "prefactor": mono,
        "factors": st.lists(
            st.fixed_dictionaries({"exp": st.integers(-3, 3), "arg": mono}), max_size=3
        ),
    })
    return st.fixed_dictionaries({
        "dilog_terms": st.lists(
            st.fixed_dictionaries({"sign": st.sampled_from([-1, 1]), "arg": mono}),
            max_size=6,
        ),
        "quad_terms": st.tuples(st.lists(quad, max_size=4), meridian_quad, st.integers(0, 4))
        .map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:]),
        "constant_pi2": _rationals(),
        "longitude": st.tuples(expr, st.none() | expr).map(
            lambda t: t[0] if t[1] is None else dict(t[0], alternate=t[1])
        ),
    })


def _named(node, variables):
    """node with every variable index replaced by its name."""
    if isinstance(node, list):
        return [_named(x, variables) for x in node]
    if not isinstance(node, dict):
        return node
    out = {}
    for k, v in node.items():
        if k == "vars":
            out[k] = [variables[i] for i in v]
        elif k in ("arg", "prefactor"):
            out[k] = {variables[i]: e for i, e in v.items()}
        else:
            out[k] = _named(v, variables)
    return out


@st.composite
def spec_documents(draw):
    """Valid spec documents: any names, terms, exponents and rationals."""
    variables = draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    doc = _named(draw(_skeleton(len(variables))), variables)
    doc.update(name=draw(st.text()), variables=variables, meridian=variables[-1])
    return doc


@_few
@given(spec_documents())
def test_dump_and_load_round_trip(doc):
    spec = load_spec(json.dumps(doc))
    text = dump_spec(spec)
    again = load_spec(text)
    assert again == spec
    assert dump_spec(again) == text


_BUILTIN_DOC = json.loads(dump_spec(builtin_five_two()))


@st.composite
def _node_paths(draw):
    """A path (tuple of keys and indices) into the built-in document.

    A walk from the root that stops at each node with chance 1/4, so
    the fields near the top, where a wrong type breaks most, are picked
    about as often as the many deep exponents.
    """
    path = ()
    node = _BUILTIN_DOC
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path += (key,)
        node = node[key]
    return path


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


def _leaves(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [leaf for child in node for leaf in _leaves(child)]
    return [node]


def _load_or_reject(source):
    try:
        spec = load_spec(source)
    except (SpecFormatError, ValidationError):
        return
    assert isinstance(spec, PotentialSpec)
    # the format has no boolean or float field: every number an
    # accepted document holds dumps as a JSON integer
    for leaf in _leaves(json.loads(dump_spec(spec))):
        assert isinstance(leaf, str) or type(leaf) is int, leaf


@_many
@given(st.lists(st.tuples(_node_paths(), st.booleans(), _JSON),
                min_size=1, max_size=3))
def test_load_spec_on_mutated_trees_raises_only_spec_errors(edits):
    doc = json.loads(json.dumps(_BUILTIN_DOC))
    for path, delete, value in edits:
        if not path:
            doc = value
            continue
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if delete:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced this path
    _load_or_reject(json.dumps(doc))


_BUILTIN_BYTES = dump_spec(builtin_five_two()).encode("utf-8")


@_many
@given(st.lists(
    st.tuples(st.integers(0, len(_BUILTIN_BYTES)), st.integers(0, 8), st.binary(max_size=8)),
    min_size=1, max_size=4,
))
def test_load_spec_on_mutated_bytes_raises_only_spec_errors(edits):
    data = _BUILTIN_BYTES
    for at, cut, insert in edits:
        data = data[:at] + insert + data[at + cut:]
    _load_or_reject(data)


# ------------------------------------------------ branch continuation

_SMALL_TURN = math.pi / 4
_log_step = st.builds(cmath.rect, st.floats(0, 0.5), st.floats(-math.pi, math.pi))


@functools.lru_cache(maxsize=None)
def _complete_point():
    return solve_complete(builtin_five_two()).point


@_settings
@given(st.lists(st.tuples(_log_step, _log_step, _log_step), min_size=20, max_size=80))
def test_point_build_follows_the_unwrapped_phase(steps):
    # each step moves the variable logs; it is taken only when every
    # tracked 1 - m turns by less than pi/4, and then the build must
    # accept it and continue each log(1 - m) by that turn. Walks of 20
    # to 80 steps carry some log across its cut in 10 to 22 of every
    # 100 examples, where a short walk rarely leaves the principal sheet
    pt = _complete_point()
    spec = pt.spec
    monomials = spec.tables.monomials
    unwrapped = [lw.imag for lw in pt.tracked_logs]
    for deltas in steps:
        logs = {v: pt.logs[v] + d for v, d in zip(spec.variables, deltas)}
        values = {v: cmath.exp(lw) for v, lw in logs.items()}
        turns = [
            cmath.phase((1 - m.evaluate(values)) / (1 - m0))
            for m, m0 in zip(monomials, pt.tracked_values)
        ]
        if max(map(abs, turns)) >= _SMALL_TURN:
            continue
        pt = advance_point_logs(pt, logs)
        unwrapped = [u + t for u, t in zip(unwrapped, turns)]
        for lw, m, u in zip(pt.tracked_logs, pt.tracked_values, unwrapped):
            assert abs(lw.imag - u) < 1e-9
            assert abs(lw.real - math.log(abs(1 - m))) < 1e-12


# ------------------------------------------------------------ CLI argv
#
# Each example is a solve, so the draws stay small: slopes p/q with
# |p| <= 12 and |q| <= 4 and |u_end| <= 3, each as often arbitrary
# short text, at most 2 samples and a few tolerances. Bad tolerances
# stay rare, since the CLI rejects them before it reads the rest.

_short_text = st.text(max_size=8)

_slopes = st.one_of(
    st.tuples(st.integers(-12, 12), st.integers(-4, 4), st.booleans()).map(
        lambda pqb: "%d/%d" % pqb[:2] if pqb[2] else str(pqb[0])
    ),
    _short_text,
)
_u_ends = st.one_of(
    st.complex_numbers(max_magnitude=3).map(lambda u: "%r%si" % (u.real, format(u.imag, "+"))),
    _short_text,
)
_tolerances = st.sampled_from(["1e-300", "1e-14", "1e-12", "1e-10", "1e-6", "1", "0"])


def _option(name, values, required=False):
    """The option with a drawn value, as `--name=v` or `--name v`.

    An optional one is left out about half the time.
    """
    given_ = st.tuples(values, st.booleans()).map(
        lambda vb: ["%s=%s" % (name, vb[0])] if vb[1] else [name, vb[0]]
    )
    return given_ if required else st.one_of(st.just([]), given_)


@st.composite
def cli_argvs(draw):
    argv = draw(_option("--format", st.sampled_from(["table", "json", "csv"])))
    argv += draw(_option("--newton-tol", _tolerances))
    command = draw(st.sampled_from(["complete", "fill", "trace"]))
    argv.append(command)
    if command == "fill":
        argv += draw(_option("--slope", _slopes, required=True))
    elif command == "trace":
        argv += draw(_option("--u-end", _u_ends, required=True))
        argv += draw(_option("--samples", st.sampled_from(["-1", "0", "1", "2", "two"])))
    return argv


@settings(deadline=None, database=None, max_examples=40)
@given(cli_argvs())
def test_cli_exits_with_a_documented_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse on a usage error
            code = e.code
    assert code in range(5), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
