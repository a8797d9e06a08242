"""Property tests with hypothesis over the inputs a user can supply.

Slopes, spec documents, the branch continuation of logs and CLI argv.
All run in-process; all but the CLI property call functions that take
microseconds, and that one draws few, small examples, so the suite
stays fast.
"""

import ast
import cmath
import contextlib
import functools
import io
import json
import math
from fractions import Fraction
from unittest import mock

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from knotpot import potential
from knotpot.cli import main
from knotpot.errors import (
    KnotpotError,
    SingularJacobianError,
    SingularPointError,
    SpecFormatError,
    StepTooLargeError,
    ValidationError,
)
from knotpot.invariants import im_v_alpha_parts, report_for, rogers_combo
from knotpot.potential import (
    PotentialSpec,
    advance_point_logs,
    builtin_five_two,
    dump_spec,
    eta_log,
    eval_v,
    load_spec,
    log_gradient,
    log_hessian,
    make_point,
    reduced_residual,
    signed_d_sum,
)
from knotpot.solver import (
    CriticalPoint,
    Slope,
    normalize_slope,
    solve_complete,
    solve_filling,
    trace_deformation,
)
from test_potential import (
    _balanced_terms,
    _bits,
    naive_eval_v,
    naive_fiber_step,
    naive_im_v_alpha_parts,
    naive_log_gradient,
    naive_log_hessian,
    naive_longitude,
    naive_monomial_logs,
    naive_reduced_residual,
    naive_rogers_combo,
    naive_signed_d_sum,
)

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
    # an arg holds some variable: one exponent is drawn nonzero
    arg = st.tuples(mono, index, st.integers(-6, 6).filter(bool)).map(
        lambda t: {**t[0], t[1]: t[2]}
    )
    # integer coefficients, so every reduced-residual exponent is one
    quad = st.fixed_dictionaries({
        "coeff": st.integers().map(lambda k: [k, 1]),
        "vars": st.lists(index, min_size=2, max_size=2),
    })
    expr = st.fixed_dictionaries({
        "prefactor": mono,
        "factors": st.lists(
            st.fixed_dictionaries({"exp": st.integers(-3, 3), "arg": arg}), max_size=3
        ),
    })
    return st.fixed_dictionaries({
        "dilog_terms": st.lists(
            st.fixed_dictionaries({"sign": st.sampled_from([-1, 1]), "arg": arg}),
            max_size=6,
        ),
        "quad_terms": st.lists(quad, max_size=4),
        "constant_pi2": _rationals(),
        "longitude": expr,
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
def spec_documents(draw, min_variables=2):
    """Valid spec documents: any names, terms, exponents and rationals.

    With min_variables=1 also documents of the meridian alone, which
    load_spec refuses: such a spec has no fiber to solve.
    """
    variables = draw(st.lists(st.text(), min_size=min_variables, max_size=4, unique=True))
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


# --------------------------------------------------- compiled kernels


def _kernel_source(doc):
    """The source texts compiled for the kernels of doc's spec, joined.

    load_spec lowers the spec, and so compiles its kernels, while
    potential._compile records what it is given: one text per kernel.
    """
    texts = []
    compile_ = potential._compile

    def record(source, namespace):
        texts.append(source)
        return compile_(source, namespace)

    potential._compile = record
    try:
        load_spec(json.dumps(doc))
    finally:
        potential._compile = compile_
    assert [t[:t.index("(")] for t in texts] == ["def " + name for name in potential._KERNELS]
    return "".join(texts)


def _expression_depth(tree):
    # the most expressions nested one in another in tree
    deepest, stack = 0, [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        depth += isinstance(node, ast.expr)
        deepest = max(deepest, depth)
        stack += [(child, depth) for child in ast.iter_child_nodes(node)
                  if not isinstance(child, ast.expr_context)]
    return deepest


def test_kernel_text_nests_no_deeper_for_a_longer_spec():
    # each chain of operations is written in statements of at most
    # _CHAIN, so no kernel expression nests deeper with more terms: with
    # every chain split after each operation, the built-in's deepest and
    # that of the built-in plus 3,000 terms are the same, and at the
    # default the longer spec's is at most _CHAIN more
    long = json.loads(json.dumps(_BUILTIN_DOC))
    long["dilog_terms"] += _balanced_terms(3000)

    def deepest(doc):
        return _expression_depth(ast.parse(_kernel_source(doc)))

    with mock.patch.object(potential, "_CHAIN", 1):
        floor = deepest(_BUILTIN_DOC)
        assert deepest(long) == floor
    assert deepest(long) <= floor + potential._CHAIN


def _renamed(doc, new):
    """doc with each variable v called new[v], and another name."""
    if isinstance(doc, list):
        return [_renamed(x, new) for x in doc]
    if not isinstance(doc, dict):
        return doc
    out = {}
    for k, v in doc.items():
        if k in ("variables", "vars"):
            out[k] = [new[x] for x in v]
        elif k in ("arg", "prefactor"):
            out[k] = {new[x]: e for x, e in v.items()}
        elif k == "meridian":
            out[k] = new[v]
        elif k == "name":
            out[k] = "renamed"
        else:
            out[k] = _renamed(v, new)
    return out


def _outcome(f, *args):
    # a power that overflows, or a negative power of a value that
    # underflows to 0: OverflowError or ZeroDivisionError in the plain
    # reading, StepTooLargeError from the kernel that catches it; a
    # zero pivot, and a DomainError of a log or a D, raise alike
    try:
        return _bits(f(*args))
    except (OverflowError, ZeroDivisionError, StepTooLargeError):
        return "overflow"
    except (SingularJacobianError, ValueError) as e:
        return type(e), str(e)


_point_values = st.complex_numbers(min_magnitude=0.25, max_magnitude=4)


@_few
@given(spec_documents(), st.data())
def test_kernels_match_the_plain_reading(doc, data):
    _check_kernels_match_the_plain_reading(doc, data)


@_few
@given(spec_documents(), st.data())
def test_kernels_match_the_plain_reading_at_every_chain_split(doc, data):
    # the kernels with every chain split after each 1 or 2 operations;
    # the plain reading's elimination, solver._solve, is compiled
    # unsplit for every fiber size first
    for n in range(1, 4):
        potential._solver_of(n)
    for chain in (1, 2):
        with mock.patch.object(potential, "_CHAIN", chain):
            _check_kernels_match_the_plain_reading(doc, data)


def _check_kernels_match_the_plain_reading(doc, data):
    spec = load_spec(json.dumps(doc))
    # no text of the spec reaches the source: the same document under
    # other names, sorted alike so every monomial keeps its factor
    # order, compiles to the same text
    order = sorted(spec.variables)
    new = {v: "v%d" % order.index(v) for v in spec.variables}
    assert _kernel_source(doc) == _kernel_source(_renamed(doc, new))
    points = []
    try:
        pt = make_point(spec, {v: data.draw(_point_values) for v in spec.variables})
        points.append(pt)
        # a continued point, each log moved by the same step
        step = data.draw(_point_values) / 16
        points.append(advance_point_logs(pt, {v: lw + step for v, lw in pt.logs.items()}))
    except (SingularPointError, StepTooLargeError):
        pass  # the drawn values give no point, or no step from it
    for pt in points:
        for m, mv in zip(spec.tables.monomials, pt.tracked_values):
            assert _bits(mv) == _bits(m.evaluate(pt.values))
        assert _outcome(reduced_residual, pt) == _outcome(naive_reduced_residual, pt)
        # a tol below every max norm steps, one above every norm accepts
        for tol in (-1.0, math.inf):
            want = _outcome(naive_fiber_step, spec, pt, tol)
            assert _outcome(spec.tables.fiber_step, pt, tol) == want
        assert _bits(log_gradient(spec, pt)) == _bits(naive_log_gradient(spec, pt))
        assert _bits(log_hessian(spec, pt)) == _bits(naive_log_hessian(spec, pt))
        assert _outcome(spec.tables.longitude, pt) == _outcome(naive_longitude, spec, pt)
        seven = normalize_slope(7, 1)
        for got, want in (
            (eval_v, naive_eval_v),
            (signed_d_sum, naive_signed_d_sum),
            (lambda s, pt: s.tables.monomial_logs(pt), naive_monomial_logs),
            (rogers_combo, naive_rogers_combo),
            (im_v_alpha_parts, naive_im_v_alpha_parts),
            (
                lambda s, pt: im_v_alpha_parts(s, pt, seven),
                lambda s, pt: naive_im_v_alpha_parts(s, pt, seven),
            ),
            # log eta, refused where the longitude kernel refuses it
            (eta_log, lambda s, pt: naive_longitude(s, pt)[0]),
        ):
            assert _outcome(got, spec, pt) == _outcome(want, spec, pt)


# ------------------------------------------------ branch continuation

_SMALL_TURN = math.pi / 4
_log_step = st.builds(cmath.rect, st.floats(0, 0.5), st.floats(-math.pi, math.pi))


@functools.lru_cache(maxsize=None)
def _complete():
    return solve_complete(builtin_five_two())


def _complete_point():
    return _complete().point


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


_signed_zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
_delta = st.one_of(st.complex_numbers(max_magnitude=3), st.sampled_from(_signed_zeros))


def _built(*args):
    # the point, or the refusal, by repr: repr tells -0.0 from 0.0
    try:
        return repr(advance_point_logs(*args))
    except (StepTooLargeError, SingularPointError) as e:
        return type(e), str(e)


@_many
@given(
    st.lists(_log_step, min_size=2, max_size=2),
    st.sampled_from(_signed_zeros),
    st.lists(_delta, max_size=4),
    st.one_of(st.sampled_from([1.0, 0.5, 2.0**-39, 0.0]), st.floats(0, 1)),
)
def test_advance_with_deltas_builds_the_dict_trial(move, meridian_log, deltas, scale):
    # the trial point of a damped Newton step, from the deltas inside
    # the build, is the one built from a dict of the moved logs. The
    # complete point's meridian log is 0j, so each signed zero is a log
    # of the same point, and a zero step on it tells the sign of -0.0
    pt = _complete_point()
    logmap = {v: pt.logs[v] + d for v, d in zip(pt.logs, move)}
    logmap[pt.spec.meridian] = meridian_log
    trial = dict(logmap)
    for v, d in zip(pt.spec.variables, deltas):
        trial[v] -= scale * d
    assert _built(pt, logmap, deltas, scale) == _built(pt, trial)


# ------------------------------------------------------------ CLI argv
#
# Each example is a solve, so the draws stay small: slopes p/q with
# |p| <= 12 and |q| <= 4 and |u_end| <= 3, each as often arbitrary
# short text, at most 2 samples and a few tolerances. Bad tolerances
# stay rare, since the CLI rejects them before it reads the rest.
# Slopes also come from the edge of float range, |p| and |q| from
# 2**1020 to 2**1025, where 2p or 2q may not be a float.

_short_text = st.text(max_size=8)

_edge = st.tuples(st.integers(2**1020, 2**1025), st.sampled_from([1, -1])).map(
    lambda ms: ms[0] * ms[1]
)
_slopes = st.one_of(
    st.tuples(st.integers(-12, 12), st.integers(-4, 4), st.booleans()).map(
        lambda pqb: "%d/%d" % pqb[:2] if pqb[2] else str(pqb[0])
    ),
    st.tuples(_edge, _edge).map(lambda pq: "%d/%d" % pq),
    _short_text,
)
# the edge band of u_end: a real part of modulus 700 to 1e308, drawn
# half the time below 3000, where exp(u / 2) first leaves float range,
# and an imaginary part in [-4, 4], so that xi's phase covers quarter
# turns and a value can have finite parts and a modulus beyond range
_u_edge = st.builds(
    complex,
    st.tuples(
        st.one_of(st.floats(700, 3000), st.floats(700, 1e308)), st.sampled_from([1, -1])
    ).map(lambda ms: ms[0] * ms[1]),
    st.floats(-4, 4),
)
_u_ends = st.one_of(
    st.one_of(st.complex_numbers(max_magnitude=3), _u_edge).map(
        lambda u: "%r%si" % (u.real, format(u.imag, "+"))
    ),
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


@_many
@given(st.one_of(st.complex_numbers(max_magnitude=3), _u_edge), st.integers(1, 2))
def test_trace_raises_only_knotpot_errors_on_any_finite_u_end(u_end, samples):
    # a point whose values leave float range is refused where it is
    # built, and the trace halves its step or reports an obstruction
    complete = _complete()
    try:
        trace_deformation(complete.point.spec, u_end, samples, complete=complete)
    except KnotpotError:
        pass


# the built-in document's integers that a mutation may set: the
# exponents of log eta's terms, each drawn, and those of the tracked
# monomials and the quad coefficients, a few drawn at a time
_LONGITUDE = _BUILTIN_DOC["longitude"]
_LOG_ETA_SITES = [("longitude", "prefactor", v) for v in _LONGITUDE["prefactor"]] + [
    ("longitude", "factors", 0, "exp")
]
_TERM_SITES = [("longitude", "factors", 0, "arg", v) for v in _LONGITUDE["factors"][0]["arg"]] + [
    ("dilog_terms", i, "arg", v)
    for i, t in enumerate(_BUILTIN_DOC["dilog_terms"]) for v in t["arg"]
] + [("quad_terms", i, "coeff", 0) for i in range(len(_BUILTIN_DOC["quad_terms"]))]
# the edge band, up to 17 * 10**307 and that value itself: near the top
# of float range, where an exponent times a log of modulus about 1 may
# have finite parts and a modulus beyond range
_edge_band = st.tuples(
    st.one_of(st.just(17 * 10**307), st.integers(10**307, 17 * 10**307)),
    st.sampled_from([1, -1]),
).map(lambda ms: ms[0] * ms[1])
_site_values = st.one_of(st.integers(-6, 6), _edge_band)


_log_eta_exponents = st.lists(
    _site_values, min_size=len(_LOG_ETA_SITES), max_size=len(_LOG_ETA_SITES)
)
_term_edits = st.lists(st.tuples(st.sampled_from(_TERM_SITES), _site_values), max_size=2)


def _edited_builtin(eta, edits):
    # the built-in document with each (path, value) of edits set, then
    # log eta's exponents set to eta
    doc = json.loads(json.dumps(_BUILTIN_DOC))
    for path, k in edits + list(zip(_LOG_ETA_SITES, eta)):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = k
    return doc


@_few
@given(
    _log_eta_exponents,
    _term_edits,
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 4)), min_size=1, max_size=3),
)
def test_solve_filling_raises_only_knotpot_errors_on_any_admitted_slope(eta, edits, slopes):
    # a spec load_spec admits and a slope solve_filling's checks admit:
    # each filling is accepted and reported, or refused with a
    # KnotpotError
    try:
        spec = load_spec(json.dumps(_edited_builtin(eta, edits)))
        complete = solve_complete(spec)
    except KnotpotError:
        return
    for p, q in slopes:
        slope = normalize_slope(p, q)
        try:
            report_for(spec, slope, solve_filling(spec, slope, complete=complete))
        except KnotpotError:
            pass


@_few
@given(_log_eta_exponents, _term_edits, st.complex_numbers(max_magnitude=3))
@example([-1, 17 * 10**307, 6, 1], [], 0.5j)
@example([-1, 4 * 10**306, 6, 1], [], -8)
def test_trace_emits_only_finite_v_on_any_admitted_spec(eta, edits, u_end):
    # a spec load_spec admits: each trace is refused with a KnotpotError
    # or returns samples whose v = 2 log eta and whose (u/2)(v/2), a
    # term of the Rogers defect, are finite. The first example's log
    # eta term y^(17 * 10**307) has finite parts and a modulus beyond
    # float range; in the second, v stays finite to u = -8 while
    # (u/2)(v/2) passes float range before it
    try:
        spec = load_spec(json.dumps(_edited_builtin(eta, edits)))
        samples = trace_deformation(spec, u_end, 3)
    except KnotpotError:
        return
    assert all(cmath.isfinite(s.v) for s in samples)
    assert all(cmath.isfinite((s.u / 2) * (s.v / 2)) for s in samples)


# normalized slopes, and records of any four integers
_slope_records = st.one_of(
    st.builds(normalize_slope, st.integers(-12, 12), st.integers(1, 4)),
    st.builds(Slope, *[st.integers(-4, 4)] * 4),
)


# hypothesis's explain phase, which traces the lines run by variations
# of a failing example, ran past 100 s and 600 MB on a failure of this
# property; without it a failure shrinks in seconds
@settings(_few, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(spec_documents(min_variables=1), st.data())
def test_drawn_documents_raise_only_knotpot_errors(doc, data):
    # each call on a document, and on what the calls before it gave,
    # may fail, but only with a KnotpotError: a spec load_spec returns
    # is one the solvers can run. Where the one drawn seed finds no
    # complete structure, a point of drawn values stands in for it
    try:
        spec = load_spec(json.dumps(doc))
    except KnotpotError:
        return
    fiber = spec.variables[:-1]
    try:
        complete = solve_complete(spec, seeds=[{v: data.draw(_point_values) for v in fiber}])
    except KnotpotError:
        try:
            values = {v: data.draw(_point_values) for v in spec.variables}
            complete = CriticalPoint(make_point(spec, values), 0.0, 0)
        except KnotpotError:
            return
    slope = data.draw(_slope_records)
    sol = complete
    with contextlib.suppress(KnotpotError):
        sol = solve_filling(spec, slope, complete=complete)
    with contextlib.suppress(KnotpotError):
        report_for(spec, slope, sol)
    with contextlib.suppress(KnotpotError):
        trace_deformation(spec, data.draw(_point_values), 3, complete=complete)
