"""Data model and evaluation of dilogarithm potential functions.

A potential V(x, y, xi) is a signed sum of dilogarithms of Laurent
monomials, plus a quadratic form in the logs of the variables, plus a
rational multiple of pi^2. Its critical points solve the hyperbolicity
equations of a knot complement; the meridian variable (always declared
last) parametrizes the deformation space, and a separate longitude
expression gives the second cusp eigenvalue.

The module ships the 5_2 knot potential as a built-in and can load
user potentials from a small JSON document (see load_spec). Evaluation
is branch-aware: a ParamPoint carries a continued logarithm, as its
complex value, for every variable and for 1 - m of every tracked
monomial, so gradients and the longitude log stay on one analytic
sheet while a solver moves the point. Values of Li2 itself are always
principal; all multivaluedness lives in the stored logs.

The evaluators do not interpret the spec. Each spec is lowered once,
on first use, to index tables (PotentialSpec.tables): the tracked
monomials with their (var, exp) pairs, and for every evaluator the
integer and float coefficients it needs, each paired with the index of
a tracked monomial or the name of a variable. The lowering reads each
term list once, dilog terms, quad terms, then the primary longitude's
factors, and appends each term to every gradient row, hessian cell and
longitude row it enters; the reduced residual is then read off the
fiber gradient's rows, not the terms. Every point, built by make_point
or advance_point_logs, evaluates each tracked monomial once and keeps
its value and continued log(1 - m), in table order, beside the
variable logs; the evaluators read them from there and refuse a point
of any spec but their own or an equal one. The tables keep the order
of the terms in the spec, so every sum is formed in the same order and
grouping as a direct reading of the spec would form it, and results do
not depend on the lowering.
"""

import cmath
import json
import math
from fractions import Fraction
from functools import cached_property

from ._records import FrozenRecord
from .dilog import (
    _TWO_PI,
    bloch_wigner_d,
    li2,
    principal_log,
)
from .errors import (
    SingularPointError,
    SpecFormatError,
    StepTooLargeError,
    ValidationError,
)

_PI = math.pi
_PI2 = math.pi * math.pi
_exp = cmath.exp
_log = cmath.log
_isfinite = cmath.isfinite

# rejection thresholds for genuine singularities of V; a variable this
# close to 0 (a log pole) and a tracked monomial this close to 1 (a
# collapsed tetrahedron, or a longitude factor 1 - m = 0) are refused
# where the point is built, not clamped
_ZERO_TOL = 1e-13
_ONE_TOL = 1e-13
# a continued log that moves this far in one step is refused
_MAX_JUMP = _PI / 2.0


class Monomial(FrozenRecord):
    """Laurent monomial prod var^exp, stored as sorted (var, exp) pairs."""

    _fields = ("exponents",)

    @classmethod
    def from_dict(cls, d: dict) -> "Monomial":
        items = tuple(sorted((v, int(e)) for v, e in d.items() if int(e) != 0))
        return cls(items)

    def exponent(self, var: str) -> int:
        for v, e in self.exponents:
            if v == var:
                return e
        return 0

    def evaluate(self, values: dict) -> complex:
        r = 1 + 0j
        for v, e in self.exponents:
            r *= values[v] ** e
        return r

    def __str__(self):
        return " ".join("%s^%d" % ve for ve in self.exponents) or "1"


class DilogTerm(FrozenRecord):
    """Contributes sign * Li2(argument) to V."""

    _fields = ("sign", "argument")


class QuadLogTerm(FrozenRecord):
    """Contributes coeff * log(var_a) * log(var_b) to V."""

    _fields = ("coeff", "var_a", "var_b")


class LongitudeExpr(FrozenRecord):
    """prefactor * prod (1 - argument)^exponent over factors, a tuple of
    (exponent: int, argument: Monomial) pairs."""

    _fields = ("prefactor", "factors")


class LongitudeSpec(LongitudeExpr):
    """The primary longitude expression and an optional alternate form."""

    _fields = ("prefactor", "factors", "alternate")
    _defaults = {"alternate": None}


class PotentialSpec(FrozenRecord):
    """A potential: its variables, the last of them the meridian, and its
    terms, constant and longitude."""

    _fields = (
        "name",
        "variables",
        "dilog_terms",
        "quad_terms",
        "constant_pi2",
        "longitude",
    )

    @property
    def meridian(self) -> str:
        return self.variables[-1]

    @cached_property
    def tables(self) -> "SpecTables":
        """The spec lowered to index tables, built on first use."""
        return SpecTables(self)


class SpecTables:
    """A PotentialSpec lowered to the index tables its evaluators read.

    Monomials are referred to by their index j in `monomials`, the
    tracked monomials: the dilog arguments, then the primary
    longitude's factors, each once, in order of first appearance.
    Variables are referred to by name or by their index in
    spec.variables. One pass over each term list appends each term to
    every row it enters, so rows keep the order of the spec's terms.
    Exponents and their products stay Python ints and coefficients
    floats (complex for the hessian's constants), so each evaluator
    does the arithmetic of the plain reading of the spec.
    """

    def __init__(self, spec: PotentialSpec):
        variables = spec.variables
        n = len(variables)
        idx = {v: i for i, v in enumerate(variables)}
        j_of = {}
        # per variable: the gradient's (sign * a_v, j) per dilog term
        # and (Fraction coeff, other var) per quad term slot holding v
        grad_rows = [[] for _ in variables]
        quad_slots = [[] for _ in variables]
        # hessian, per cell (i_u, i_v) of the upper triangle: the
        # (a_u * a_v, t) products in term order and the quad constants
        # in quad order (a diagonal cell takes a quad's constant twice).
        # Summed from 0j in that order, each cell is bit for bit the
        # entry-by-entry sum of the spec's reading, and equal to its
        # mirror cell, which receives the same sums in the same order.
        cells = {(iu, iv): ([], []) for iu in range(n) for iv in range(iu, n)}

        # V: (sign, j) per dilog term t, from which the hessian also
        # takes its f_t = sign * m / (1 - m)
        dilogs = []
        for t, term in enumerate(spec.dilog_terms):
            j = j_of.setdefault(term.argument, len(j_of))
            dilogs.append((term.sign, j))
            where = "dilog_terms[%d]: product of exponents" % t
            exps = [(idx[v], a) for v, a in term.argument.exponents]
            for iu, au in exps:
                grad_rows[iu].append((term.sign * au, j))
                for iv, av in exps:
                    if iu <= iv:
                        _check_float_range(au * av, where)
                        cells[iu, iv][0].append((au * av, t))
        self.dilogs = tuple(dilogs)

        # V: (coeff, var_a, var_b) per quad term
        quads = []
        for term in spec.quad_terms:
            c, a, b = float(term.coeff), term.var_a, term.var_b
            quads.append((c, a, b))
            quad_slots[idx[a]].append((term.coeff, b))
            quad_slots[idx[b]].append((term.coeff, a))
            iu, iv = sorted((idx[a], idx[b]))
            cells[iu, iv][1].extend([complex(c)] * (1 + (iu == iv)))
        self.quads = tuple(quads)
        self.constant = float(spec.constant_pi2) * _PI2

        # primary longitude: log eta rows, and per variable the constant
        # prefactor exponent and (e * a_v, j) per factor holding v
        lon = spec.longitude
        eta_factors = []
        eta_rows = [[] for _ in variables]
        for f, (e, m) in enumerate(lon.factors):
            j = j_of.setdefault(m, len(j_of))
            eta_factors.append((e, j))
            where = "longitude.factors[%d]: product of exp and exponent" % f
            for v, a in m.exponents:
                _check_float_range(e * a, where)
                eta_rows[idx[v]].append((e * a, j))
        self.eta_prefactor = lon.prefactor.exponents
        self.eta_factors = tuple(eta_factors)
        self.d_eta = tuple(
            (complex(lon.prefactor.exponent(v)), tuple(rows))
            for v, rows in zip(variables, eta_rows)
        )

        self.monomials = tuple(j_of)
        # point builds: per tracked monomial its (variable index, exp)
        # pairs, in Monomial.exponents order
        self.monomial_rows = tuple(
            tuple((idx[v], e) for v, e in m.exponents) for m in self.monomials
        )
        self.gradient = tuple(
            (tuple(rows), tuple((float(c), w) for c, w in slots))
            for rows, slots in zip(grad_rows, quad_slots)
        )
        # the non-meridian components, which the solvers drive to zero
        self.fiber_gradient = self.gradient[:-1]
        self.hessian_cells = tuple(
            (iu, iv, tuple(prods), tuple(consts))
            for (iu, iv), (prods, consts) in cells.items()
        )
        # the non-meridian block the fiber Newton solves in
        self.fiber_hessian_cells = tuple(c for c in self.hessian_cells if c[1] < n - 1)

        # reduced residual, per non-meridian variable, read off its
        # gradient rows: the dilog rows times sigma as (e, j) factors
        # (1 - m)^e of the left side, and the quad slots summed per
        # other variable as (var, e) powers of the right side, each e
        # an integer or the spec is refused here
        residual = []
        for rows, slots in zip(grad_rows[:-1], quad_slots[:-1]):
            quad_exp = {}
            for c, w in slots:
                quad_exp[w] = quad_exp.get(w, Fraction(0)) + c
            sigma = -1 if quad_exp.get(spec.meridian, Fraction(0)) < 0 else 1
            rhs = []
            for w, c in quad_exp.items():
                if c.denominator != 1:
                    raise ValidationError(
                        "reduced residual needs integer quad exponents, got %s"
                        % (sigma * c)
                    )
                rhs.append((w, int(sigma * c)))
            residual.append((tuple((sigma * sa, j) for sa, j in rows), tuple(rhs)))
        self.residual = tuple(residual)


class ParamPoint(FrozenRecord):
    """A point in parameter space with its branch bookkeeping.

    Every log is a plain complex number, the value of one continued
    branch; ContinuedLog.from_value recovers its winding. values[v] =
    exp(logs[v]) by construction. tracked_values and tracked_logs hold,
    in the order of spec.tables.monomials, each tracked monomial m and
    a continued log(1 - m): the one record of the monomials that every
    evaluator reads. No tracked m lies within _ONE_TOL of 1, so every
    log(1 - m) is a finite complex number and no evaluator checks for
    m = 1 itself. The alternate longitude's factors are not tracked:
    eval_eta evaluates them from values.
    """

    _fields = ("spec", "values", "logs", "tracked_values", "tracked_logs")

    def __init__(
        self,
        spec: PotentialSpec,
        values: dict,
        logs: dict,
        tracked_values: tuple,
        tracked_logs: tuple,
    ):
        # built at every Newton trial, so the instance dict is filled
        # directly
        d = self.__dict__
        d["spec"] = spec
        d["values"] = values
        d["logs"] = logs
        d["tracked_values"] = tracked_values
        d["tracked_logs"] = tracked_logs


class Shapes(FrozenRecord):
    """Tetrahedron moduli of the five-tetrahedron parametrization."""

    _fields = ("c2", "d4", "a5", "b5", "d5")

    def as_tuple(self):
        return (self.c2, self.d4, self.a5, self.b5, self.d5)


def builtin_five_two() -> PotentialSpec:
    """The 5_2 knot potential.

    V = -Li2(1/(y xi)) + Li2(y/xi) - Li2(y/x) + Li2(xi/x) + Li2(x/xi)
        + log xi * log(x^2 / (y^2 xi^6)) - pi^2/6,

    with longitude eigenvalue eta = (y xi^6 / x)(1 - 1/(y xi)), equal
    on the deformation space to
    (y xi^6 / x)(1 - xi/x) / ((1 - x/xi)(1 - y/xi)).
    """
    m = Monomial.from_dict
    dilogs = (
        DilogTerm(-1, m({"y": -1, "xi": -1})),
        DilogTerm(+1, m({"y": 1, "xi": -1})),
        DilogTerm(-1, m({"y": 1, "x": -1})),
        DilogTerm(+1, m({"x": -1, "xi": 1})),
        DilogTerm(+1, m({"x": 1, "xi": -1})),
    )
    quads = (
        QuadLogTerm(Fraction(2), "xi", "x"),
        QuadLogTerm(Fraction(-2), "xi", "y"),
        QuadLogTerm(Fraction(-6), "xi", "xi"),
    )
    longitude = LongitudeSpec(
        prefactor=m({"x": -1, "y": 1, "xi": 6}),
        factors=((1, m({"y": -1, "xi": -1})),),
        alternate=LongitudeExpr(
            prefactor=m({"x": -1, "y": 1, "xi": 6}),
            factors=(
                (1, m({"xi": 1, "x": -1})),
                (-1, m({"x": 1, "xi": -1})),
                (-1, m({"y": 1, "xi": -1})),
            ),
        ),
    )
    return PotentialSpec(
        name="5_2",
        variables=("x", "y", "xi"),
        dilog_terms=dilogs,
        quad_terms=quads,
        constant_pi2=Fraction(-1, 6),
        longitude=longitude,
    )


BUILTINS = {"5_2": builtin_five_two}
_FIVE_TWO_TERMS = frozenset(builtin_five_two().dilog_terms)


# ---------------------------------------------------------------- I/O

_TOP_FIELDS = {
    "name",
    "variables",
    "dilog_terms",
    "quad_terms",
    "constant_pi2",
    "longitude",
    "meridian",
}


def _check_fields(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ValidationError("%s: expected an object" % where)
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError("%s: unknown field(s) %s" % (where, sorted(unknown)))


def _is_int(obj) -> bool:
    # JSON true and false load as bool, which Python counts as an int
    return isinstance(obj, int) and not isinstance(obj, bool)


def _check_float_range(k, where):
    # the evaluators read every integer of a spec as a float: quad
    # coefficients, the constant, exponents
    try:
        float(k)
    except OverflowError:
        raise ValidationError("%s must be within float range" % where) from None


def _check_list(obj, where):
    if not isinstance(obj, list):
        raise ValidationError("%s: must be a list" % where)
    return obj


def _parse_monomial(obj, variables, where) -> Monomial:
    if not isinstance(obj, dict):
        raise ValidationError("%s: monomial must be a var -> exponent map" % where)
    for v, e in obj.items():
        if v not in variables:
            raise ValidationError("%s: undeclared variable %r" % (where, v))
        if not _is_int(e):
            raise ValidationError("%s: exponent of %r must be an integer" % (where, v))
        _check_float_range(e, "%s: exponent of %r" % (where, v))
    return Monomial.from_dict(obj)


def _parse_arg(term, variables, where) -> Monomial:
    # a constant m makes Li2(m), or a longitude factor 1 - m, a constant
    m = _parse_monomial(term.get("arg", {}), variables, where)
    if not m.exponents:
        raise ValidationError(where + ": arg must hold a variable")
    return m


def _parse_rational(obj, where) -> Fraction:
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or not all(_is_int(k) for k in obj)
    ):
        raise ValidationError("%s: rational must be [numerator, denominator]" % where)
    num, den = obj
    _check_float_range(num, where + ": numerator")
    _check_float_range(den, where + ": denominator")
    if den <= 0:
        raise ValidationError("%s: denominator must be positive" % where)
    if math.gcd(num, den) != 1:
        raise ValidationError("%s: rational %d/%d is not reduced" % (where, num, den))
    return Fraction(num, den)


def _parse_longitude_expr(obj, variables, where, allow_alternate):
    fields = {"prefactor", "factors"} | ({"alternate"} if allow_alternate else set())
    _check_fields(obj, fields, where)
    if "prefactor" not in obj or "factors" not in obj:
        raise ValidationError("%s: needs prefactor and factors" % where)
    prefactor = _parse_monomial(obj["prefactor"], variables, where + ".prefactor")
    factors = []
    for i, f in enumerate(_check_list(obj["factors"], where + ".factors")):
        fw = "%s.factors[%d]" % (where, i)
        _check_fields(f, {"exp", "arg"}, fw)
        if not _is_int(f.get("exp")):
            raise ValidationError(fw + ": exp must be an integer")
        _check_float_range(f["exp"], fw + ": exp")
        factors.append((f["exp"], _parse_arg(f, variables, fw)))
    return prefactor, tuple(factors)


def load_spec(source) -> PotentialSpec:
    """Parse and validate a potential spec document.

    Accepts a str, bytes, or a readable file object. Unknown fields
    are rejected so typos fail loudly rather than silently changing
    the potential. The longitude may carry an optional "alternate": a
    second closed form of eta, equal to the primary on the deformation
    space. The solvers use only the primary; `knotpot complete` prints
    the alternate as eta_alternate beside eta, so the two forms can be
    compared. Raises SpecFormatError for bytes that are not UTF-8
    and text that is not JSON, and ValidationError for a document that
    does not follow the format: among them an integer or a product of
    exponents beyond float range, a dilog term or longitude factor
    whose arg holds no variable, and quad coefficients that give the
    reduced residual a non-integer exponent. This is the one place a
    spec's contents are judged; no evaluator or Newton loop raises
    about a spec it returns.
    """
    if hasattr(source, "read"):
        source = source.read()
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        doc = json.loads(source)
    except json.JSONDecodeError as e:
        raise SpecFormatError(
            "parse error at line %d column %d: %s" % (e.lineno, e.colno, e.msg)
        ) from e
    except ValueError as e:
        # bytes that are not UTF-8, or an integer literal longer than
        # int() converts
        raise SpecFormatError("parse error: %s" % e) from e

    _check_fields(doc, _TOP_FIELDS, "document")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise ValidationError("document: missing field(s) %s" % sorted(missing))
    if not isinstance(doc["name"], str):
        raise ValidationError("name: must be a string")
    variables = doc["variables"]
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) for v in variables)
    ):
        raise ValidationError("variables: must be a non-empty list of strings")
    if len(set(variables)) != len(variables):
        raise ValidationError("variables: names must be distinct")
    if doc["meridian"] != variables[-1]:
        raise ValidationError("meridian: must name the last declared variable")

    dilog_terms = []
    for i, t in enumerate(_check_list(doc["dilog_terms"], "dilog_terms")):
        where = "dilog_terms[%d]" % i
        _check_fields(t, {"sign", "arg"}, where)
        if not _is_int(t.get("sign")) or t["sign"] not in (-1, 1):
            raise ValidationError(where + ": sign must be -1 or 1")
        dilog_terms.append(DilogTerm(t["sign"], _parse_arg(t, variables, where)))

    quad_terms = []
    for i, t in enumerate(_check_list(doc["quad_terms"], "quad_terms")):
        where = "quad_terms[%d]" % i
        _check_fields(t, {"coeff", "vars"}, where)
        coeff = _parse_rational(t.get("coeff"), where + ".coeff")
        vs = t.get("vars")
        if not isinstance(vs, list) or len(vs) != 2:
            raise ValidationError(where + ": vars must be a pair")
        for v in vs:
            if v not in variables:
                raise ValidationError("%s: undeclared variable %r" % (where, v))
        quad_terms.append(QuadLogTerm(coeff, vs[0], vs[1]))

    constant = _parse_rational(doc["constant_pi2"], "constant_pi2")

    lon = doc["longitude"]
    pre, factors = _parse_longitude_expr(lon, variables, "longitude", True)
    alternate = None
    if "alternate" in lon:
        apre, afac = _parse_longitude_expr(
            lon["alternate"], variables, "longitude.alternate", False
        )
        alternate = LongitudeExpr(apre, afac)

    spec = PotentialSpec(
        name=doc["name"],
        variables=tuple(variables),
        dilog_terms=tuple(dilog_terms),
        quad_terms=tuple(quad_terms),
        constant_pi2=constant,
        longitude=LongitudeSpec(pre, factors, alternate),
    )
    # lowered here, so a product of exponents beyond float range or a
    # non-integer residual exponent is refused where the document is read
    spec.tables
    return spec


def _mono_doc(m: Monomial, variables):
    order = {v: i for i, v in enumerate(variables)}
    return {v: e for v, e in sorted(m.exponents, key=lambda ve: order[ve[0]])}


def dump_spec(spec: PotentialSpec) -> str:
    """Serialize a spec to the document format; load_spec round-trips it."""
    variables = spec.variables

    def expr_doc(expr):
        d = {
            "prefactor": _mono_doc(expr.prefactor, variables),
            "factors": [
                {"exp": e, "arg": _mono_doc(m, variables)} for e, m in expr.factors
            ],
        }
        return d

    lon = expr_doc(spec.longitude)
    if spec.longitude.alternate is not None:
        lon["alternate"] = expr_doc(spec.longitude.alternate)
    doc = {
        "name": spec.name,
        "variables": list(variables),
        "dilog_terms": [
            {"sign": t.sign, "arg": _mono_doc(t.argument, variables)}
            for t in spec.dilog_terms
        ],
        "quad_terms": [
            {
                "coeff": [t.coeff.numerator, t.coeff.denominator],
                "vars": [t.var_a, t.var_b],
            }
            for t in spec.quad_terms
        ],
        "constant_pi2": [spec.constant_pi2.numerator, spec.constant_pi2.denominator],
        "longitude": lon,
        "meridian": spec.meridian,
    }
    return json.dumps(doc, indent=2) + "\n"


# ------------------------------------------------------------- points


def _build_point(spec, logmap, prev: ParamPoint | None) -> ParamPoint:
    """Assemble a ParamPoint from explicit log values.

    Variable logs are taken verbatim; the derived logs of 1 - m start
    principal when prev is None and are branch-continued from prev
    otherwise: each takes the branch nearest its value at prev, and a
    jump of a quarter turn or more raises StepTooLargeError, meaning
    the caller moved too far in one step. A log that is not finite and
    an overflow of exp or of a monomial power raise it too: such a
    step also went too far. A log whose exp underflows to 0 raises
    SingularPointError, as make_point does for a zero variable, and so
    does a tracked monomial m, dilog argument or primary longitude
    factor, within _ONE_TOL of 1: this is the one place a point's
    monomials are judged, so the evaluators need no guards of their own.

    This is the solver's innermost step, so principal_log and
    Monomial.evaluate are written out here, operation for operation.
    """
    tab = spec.tables
    logs = {}
    values = {}
    xs = []
    mvals = []
    try:
        for v in spec.variables:
            lv = logmap[v]
            if not _isfinite(lv):
                raise StepTooLargeError("log %s is not finite" % lv)
            w = _exp(lv)
            if not w:
                raise SingularPointError("variable %s = 0 (log pole)" % v)
            logs[v] = lv
            values[v] = w
            xs.append(w)
        for row in tab.monomial_rows:
            r = 1 + 0j
            for i, e in row:
                r *= xs[i] ** e
            mvals.append(r)
    except OverflowError as e:
        # a log so far out that exp or a monomial power overflows is a
        # step too far, not a point: the caller halves and retries
        raise StepTooLargeError("exp overflow (%s)" % e) from e
    prev_logs = None if prev is None else prev.tracked_logs
    tracked_logs = []
    for j, m in enumerate(tab.monomials):
        # 1 - m has imaginary part 0.0 - m.imag, never -0.0, so a
        # negative real 1 - m logs to +pi i, never to -pi i
        w = 1 - mvals[j]
        if abs(w) < _ONE_TOL:
            raise SingularPointError("arg %s = 1" % m)
        value = _log(w)
        if prev_logs is not None:
            prev_im = prev_logs[j].imag
            d = prev_im - value.imag
            if not -_PI <= d <= _PI:
                if not abs(d) < math.inf:
                    raise StepTooLargeError("log(1 - %s) is not finite" % m)
                k = round(d / _TWO_PI)
                value = complex(value.real, value.imag + _TWO_PI * k)
            jump = abs(value.imag - prev_im)
            if jump >= _MAX_JUMP:
                raise StepTooLargeError("log continuation jump %.3f >= pi/2" % jump)
        tracked_logs.append(value)
    return ParamPoint(spec, values, logs, tuple(mvals), tuple(tracked_logs))


def _tracked(spec: PotentialSpec, pt: ParamPoint):
    """(tracked_values, tracked_logs) of pt, for an evaluator of spec.

    The point keeps them in its own spec's table order, which an equal
    spec shares; any other spec raises ValidationError.
    """
    if pt.spec is not spec and pt.spec != spec:
        raise ValidationError("point belongs to a spec other than %r" % spec.name)
    return pt.tracked_values, pt.tracked_logs


def make_point(spec: PotentialSpec, values: dict) -> ParamPoint:
    """ParamPoint at the given variable values, all branches principal."""
    if set(values) != set(spec.variables):
        raise ValidationError(
            "values must cover exactly the variables %s" % (spec.variables,)
        )
    logmap = {}
    for v in spec.variables:
        w = complex(values[v])
        if abs(w) < _ZERO_TOL:
            raise SingularPointError("variable %s = 0 (log pole)" % v)
        logmap[v] = principal_log(w)
    return _build_point(spec, logmap, None)


def advance_point_logs(pt: ParamPoint, logmap: dict) -> ParamPoint:
    """Move a point to explicit new variable logs (solver step)."""
    return _build_point(pt.spec, logmap, pt)


# --------------------------------------------------------- evaluation


def eval_v(spec: PotentialSpec, pt: ParamPoint) -> complex:
    """V at pt: principal Li2 terms, continued-log quadratic part."""
    tab = spec.tables
    mvals = _tracked(spec, pt)[0]
    logs = pt.logs
    s = 0j
    for sign, j in tab.dilogs:
        s += sign * li2(mvals[j])
    for c, a, b in tab.quads:
        s += c * logs[a] * logs[b]
    return s + tab.constant


def eval_v_alpha(spec: PotentialSpec, slope, pt: ParamPoint) -> complex:
    """V_alpha = V + [log xi (2 pi i - p log xi) + s pi^2]/q, continued log xi.

    `slope` is any record with the integer fields p, q and s of a
    normalized slope.
    """
    v = eval_v(spec, pt)
    lx = pt.logs[spec.meridian]
    return v + (lx * (2j * math.pi - slope.p * lx) + slope.s * _PI2) / slope.q


def signed_d_sum(spec: PotentialSpec, pt: ParamPoint) -> float:
    """sum sign * D(m) over the dilog terms: the volume at a critical point."""
    mvals = _tracked(spec, pt)[0]
    return sum(sign * bloch_wigner_d(mvals[j]) for sign, j in spec.tables.dilogs)


def _gradient(spec: PotentialSpec, pt: ParamPoint, table) -> list:
    """log_gradient's components for tab.gradient or tab.fiber_gradient."""
    one_minus = _tracked(spec, pt)[1]
    logs = pt.logs
    g = []
    for rows, quad_rows in table:
        acc = 0j
        for sa, j in rows:
            acc -= sa * one_minus[j]
        for c, w in quad_rows:
            acc += c * logs[w]
        g.append(acc)
    return g


def log_gradient(spec: PotentialSpec, pt: ParamPoint) -> list:
    """v dV/dv over spec.variables, from the stored logs.

    A list of complex, one per variable in spec order. Component v is
    sum_terms -sign * a_v * log(1 - m) plus the quadratic
    contributions, with a_v the exponent of v in m. All logs are the
    continued branches carried by pt, so on a solution branch these
    are exactly the equations the solver drives to zero.
    """
    return _gradient(spec, pt, spec.tables.gradient)


def _hessian(spec: PotentialSpec, pt: ParamPoint, cells, n: int) -> list:
    """n x n rows of log_hessian from tab.hessian_cells or a block of it."""
    tab = spec.tables
    mvals = _tracked(spec, pt)[0]
    fs = []
    for sign, j in tab.dilogs:
        m = mvals[j]
        fs.append(sign * m / (1 - m))
    h = [[0j] * n for _ in range(n)]
    for iu, iv, prods, consts in cells:
        acc = 0j
        for aa, t in prods:
            acc += aa * fs[t]
        for c in consts:
            acc += c
        h[iu][iv] = h[iv][iu] = acc
    return h


def log_hessian(spec: PotentialSpec, pt: ParamPoint) -> list:
    """Matrix of u d/du (v dV/dv); symmetric, quad terms are constants.

    A fresh list of row lists of complex, indexed [u][v] in spec order;
    the caller may modify it.
    """
    return _hessian(spec, pt, spec.tables.hessian_cells, len(spec.variables))


def eval_longitude_expr(expr: LongitudeExpr, values: dict) -> complex:
    """prefactor * prod (1 - m)^e, evaluated rationally (no logs).

    A power that overflows raises SingularPointError, as a vanishing
    denominator does: the expression has no finite value at the point.
    """
    try:
        r = expr.prefactor.evaluate(values)
        for e, m in expr.factors:
            f = 1 - m.evaluate(values)
            if f == 0 and e < 0:
                raise SingularPointError("longitude factor 1 - %s = 0 in denominator" % m)
            r *= f**e
    except OverflowError as e:
        raise SingularPointError("longitude overflow (%s)" % e) from e
    return r


def eval_eta(spec: PotentialSpec, pt: ParamPoint):
    """(primary, alternate) values of the longitude eigenvalue.

    The alternate slot is None when the spec declares no alternate
    expression or when the alternate is singular at pt (0/0 corner);
    the primary must be evaluable or the point is rejected.
    """
    primary = eval_longitude_expr(spec.longitude, pt.values)
    alternate = None
    if spec.longitude.alternate is not None:
        try:
            alternate = eval_longitude_expr(spec.longitude.alternate, pt.values)
        except SingularPointError:
            alternate = None
    return primary, alternate


def eta_log(spec: PotentialSpec, pt: ParamPoint) -> complex:
    """Continued log of the longitude eigenvalue (primary expression).

    Built as a sum of the stored continued logs, so it is continuous
    along any path the point was continued over and equals 0 at a
    complete structure reached with principal branches.
    """
    return _eta_log_and_size(spec, pt)[0]


def _eta_log_and_size(spec: PotentialSpec, pt: ParamPoint):
    """(eta_log, sum of |terms|) in one pass over the terms of log eta,
    e log(var) of the prefactor and e log(1 - m) of the factors."""
    tab = spec.tables
    one_minus = _tracked(spec, pt)[1]
    s = 0j
    size = 0.0
    for v, e in tab.eta_prefactor:
        term = e * pt.logs[v]
        s += term
        size += abs(term)
    for e, j in tab.eta_factors:
        term = e * one_minus[j]
        s += term
        size += abs(term)
    return s, size


def d_eta_log(spec: PotentialSpec, pt: ParamPoint) -> list:
    """Derivatives v d(log eta)/dv over spec.variables (Jacobian row).

    A list of complex, one per variable in spec order.
    """
    mvals = _tracked(spec, pt)[0]
    out = []
    for acc, rows in spec.tables.d_eta:
        for ea, j in rows:
            mv = mvals[j]
            acc -= ea * mv / (1 - mv)
        out.append(acc)
    return out


def shapes_from_point(pt: ParamPoint) -> Shapes:
    """Tetrahedron moduli (c2, d4, a5, b5, d5) of a point of the 5_2 potential.

    Defined only for specs whose dilog terms are the built-in 5_2
    terms in any order, in the variables named x, y and xi; any other
    spec raises ValidationError.
    """
    terms = pt.spec.dilog_terms
    if len(terms) != len(_FIVE_TWO_TERMS) or set(terms) != _FIVE_TWO_TERMS:
        raise ValidationError(
            "shape recovery needs the dilog terms of the 5_2 potential"
        )
    x, y, xi = pt.values["x"], pt.values["y"], pt.values["xi"]
    return Shapes(c2=y * xi, d4=x / xi, a5=x / y, b5=xi / x, d5=y / xi)


def reduced_residual(pt: ParamPoint):
    """Multiplicative residuals of the hyperbolicity equations.

    One entry per non-meridian variable: the critical-point condition
    exp(v dV/dv) = 1 rearranged as a rational equation LHS = RHS with
    the meridian power on the right, returned as LHS - RHS. For the
    built-in 5_2 potential this is exactly the displayed pair

        (1 - y/x)(1 - x/xi)/(1 - xi/x) - xi^2,
        (1 - y/x)/((1 - y/xi)(1 - 1/(y xi))) - xi^2.

    Branch-free, so it is the solver's acceptance residual. Its
    factors 1 - m are those of dilog arguments, which no built point
    puts within _ONE_TOL of 0, so it raises only StepTooLargeError,
    where a power overflows.
    """
    spec = pt.spec
    tab = spec.tables
    mvals = _tracked(spec, pt)[0]
    values = pt.values
    out = []
    try:
        for lhs_rows, rhs_rows in tab.residual:
            lhs = 1 + 0j
            for e, j in lhs_rows:
                lhs *= (1 - mvals[j]) ** e
            rhs = 1 + 0j
            for vp, e in rhs_rows:
                rhs *= values[vp] ** e
            out.append(lhs - rhs)
    except OverflowError as e:
        # as in _build_point: a point this far out is a step too far
        raise StepTooLargeError("residual overflow (%s)" % e) from e
    return tuple(out)
