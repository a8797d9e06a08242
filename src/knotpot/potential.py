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
principal; all multivaluedness lives in the stored logs. A point
computes the Li2 of each distinct dilog argument once, on the first
read by any evaluator, and keeps the values beside its fields, not
among them (ParamPoint.li2_values): eval_v, signed_d_sum and
invariants.rogers_combo all read them there.

The evaluators do not interpret the spec. Each spec is lowered once,
on first use, to index tables (PotentialSpec.tables, SpecTables), and
in the same step to straight-line kernels (_compile_kernels), each the
one implementation of what it computes and bit for bit the plain
reading of the spec. Every point, built by make_point or
advance_point_logs, evaluates each tracked monomial once and keeps its
value and continued log(1 - m) beside the variable logs; the
evaluators read them there.
"""

import cmath
import json
import math
import sys
from fractions import Fraction
from functools import cache, cached_property

from ._records import RecordBase
from .dilog import _TWO_PI, _d_from_li2, li2, principal_log
from .errors import (
    SingularJacobianError,
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
# a log whose real part exceeds this has an exp of modulus beyond float
# range, whether or not its parts overflow
_LOG_MAX = math.log(sys.float_info.max)


class Monomial(RecordBase):
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


class DilogTerm(RecordBase):
    """Contributes sign * Li2(argument) to V."""

    _fields = ("sign", "argument")


class QuadLogTerm(RecordBase):
    """Contributes coeff * log(var_a) * log(var_b) to V."""

    _fields = ("coeff", "var_a", "var_b")


class LongitudeExpr(RecordBase):
    """prefactor * prod (1 - argument)^exponent over factors, a tuple of
    (exponent: int, argument: Monomial) pairs."""

    _fields = ("prefactor", "factors")


class PotentialSpec(RecordBase):
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
    tracked monomials: the dilog arguments, then the longitude's
    factors, each once, in order of first appearance. So the distinct
    dilog arguments are j < dilog_arg_count.
    Variables are referred to by name or by their index in
    spec.variables. One pass over each term list appends each term to
    every row it enters, so rows keep the order of the spec's terms.
    Exponents and their products stay Python ints and coefficients
    floats (complex for the hessian's constants), so each evaluator
    does the arithmetic of the plain reading of the spec.

    Each kernel of _KERNELS is an attribute, all of them compiled here
    (_compile_kernels), whatever the spec's length and however deep the
    caller's stack. A spec with no fiber variable, the meridian its
    only variable, raises ValidationError: no solver can run it.
    """

    def __init__(self, spec: PotentialSpec):
        variables = spec.variables
        n = len(variables)
        if n < 2:
            raise ValidationError("variables: must declare a fiber variable before the meridian")
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
        self.dilog_arg_count = len(j_of)

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

        # longitude: log eta rows, and per variable the constant
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
        self.hessian_cells = tuple(
            (iu, iv, tuple(prods), tuple(consts))
            for (iu, iv), (prods, consts) in cells.items()
        )

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
        self.spec = spec
        self.__dict__.update(_compile_kernels(self))


class ParamPoint(RecordBase):
    """A point in parameter space with its branch bookkeeping.

    Every log is a plain complex number, the value of one continued
    branch; ContinuedLog.from_value recovers its winding. values[v] =
    exp(logs[v]) by construction. tracked_values and tracked_logs hold,
    in the order of spec.tables.monomials, each tracked monomial m and
    a continued log(1 - m): the one record of the monomials that every
    evaluator reads. No tracked m lies within _ONE_TOL of 1, so every
    log(1 - m) is a finite complex number and no evaluator checks for
    m = 1 itself.

    li2_values, the principal Li2 of each distinct dilog argument, is
    computed on its first read and then kept on the point. It is not
    a field: ==, hash and repr read only the five fields above, and
    the point stays frozen.
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

    @cached_property
    def li2_values(self) -> tuple:
        """li2(m) of each distinct dilog argument m, in table order."""
        k = self.spec.tables.dilog_arg_count
        return tuple([li2(m) for m in self.tracked_values[:k]])


class Shapes(RecordBase):
    """Tetrahedron moduli of the five-tetrahedron parametrization."""

    _fields = ("c2", "d4", "a5", "b5", "d5")

    def as_tuple(self):
        return (self.c2, self.d4, self.a5, self.b5, self.d5)


def builtin_five_two() -> PotentialSpec:
    """The 5_2 knot potential.

    V = -Li2(1/(y xi)) + Li2(y/xi) - Li2(y/x) + Li2(xi/x) + Li2(x/xi)
        + log xi * log(x^2 / (y^2 xi^6)) - pi^2/6,

    with longitude eigenvalue eta = (y xi^6 / x)(1 - 1/(y xi)).
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
    longitude = LongitudeExpr(
        prefactor=m({"x": -1, "y": 1, "xi": 6}),
        factors=((1, m({"y": -1, "xi": -1})),),
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
    # the evaluators read every integer of a spec as a float (quad
    # coefficients, the constant, exponents), the filling Newton 2p, 2q
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


def _parse_longitude(obj, variables) -> LongitudeExpr:
    _check_fields(obj, {"prefactor", "factors"}, "longitude")
    if "prefactor" not in obj or "factors" not in obj:
        raise ValidationError("longitude: needs prefactor and factors")
    prefactor = _parse_monomial(obj["prefactor"], variables, "longitude.prefactor")
    factors = []
    for i, f in enumerate(_check_list(obj["factors"], "longitude.factors")):
        fw = "longitude.factors[%d]" % i
        _check_fields(f, {"exp", "arg"}, fw)
        if not _is_int(f.get("exp")):
            raise ValidationError(fw + ": exp must be an integer")
        _check_float_range(f["exp"], fw + ": exp")
        factors.append((f["exp"], _parse_arg(f, variables, fw)))
    return LongitudeExpr(prefactor, tuple(factors))


def load_spec(source) -> PotentialSpec:
    """Parse and validate a potential spec document.

    Accepts a str, bytes, or a readable file object. Unknown fields
    are rejected so typos fail loudly rather than silently changing
    the potential. Raises SpecFormatError for bytes that are not UTF-8
    and text that is not JSON or nests too deep to parse, and
    ValidationError for a document that does not follow the format:
    among them an integer or a product of exponents beyond float range,
    a dilog term or longitude factor whose arg holds no variable, quad
    coefficients that give the reduced residual a non-integer exponent,
    and a meridian declared with no fiber variable before it. This is
    the one place a spec's contents are judged; no evaluator or Newton
    loop raises about a spec it returns. The spec's kernels are compiled
    here, a spec of any length wherever load_spec is called from, so a
    large spec costs its compile time at load, not at its first solve.
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
    except (ValueError, RecursionError) as e:
        # bytes that are not UTF-8, an integer literal longer than
        # int() converts, or arrays and objects nested deeper than the
        # parser recurses
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

    spec = PotentialSpec(
        name=doc["name"],
        variables=tuple(variables),
        dilog_terms=tuple(dilog_terms),
        quad_terms=tuple(quad_terms),
        constant_pi2=constant,
        longitude=_parse_longitude(doc["longitude"], variables),
    )
    # lowered here, so an exponent product beyond float range, a non-integer
    # residual exponent or a lone meridian is refused where the document
    # is read
    spec.tables
    return spec


def _mono_doc(m: Monomial, variables):
    order = {v: i for i, v in enumerate(variables)}
    return {v: e for v, e in sorted(m.exponents, key=lambda ve: order[ve[0]])}


def dump_spec(spec: PotentialSpec) -> str:
    """Serialize a spec to the document format; load_spec round-trips it."""
    variables = spec.variables
    lon = spec.longitude
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
        "longitude": {
            "prefactor": _mono_doc(lon.prefactor, variables),
            "factors": [
                {"exp": e, "arg": _mono_doc(m, variables)} for e, m in lon.factors
            ],
        },
        "meridian": spec.meridian,
    }
    return json.dumps(doc, indent=2) + "\n"


# ------------------------------------------------------------ kernels


def _compile(source: str, namespace: dict) -> dict:
    """Run generated source in namespace, and return the namespace.

    The one place knotpot compiles code. Two generators write what it
    compiles: _compile_kernels the spec kernels, and _solve_source the
    elimination, which _solve runs per size n and the fiber_step kernel
    inlines.
    """
    exec(compile(source, "<knotpot kernels>", "exec"), namespace)
    return namespace


def _solve_source(a: list, b: list):
    """Gaussian elimination with partial pivoting on a x = b, written out.

    a is n rows of n operands and b n operands, each the source text of
    a number, read once and left unchanged. Returns the statements,
    each on a line of its own indented as a function body, and the
    text of the list x they solve for. Entry (r, c) of the augmented
    matrix [a | b] is the local m<r>_<c>, loaded first. Column c takes
    as pivot the first row from c down of greatest modulus, swaps it
    with row c and subtracts f = m<r>_<c> / pivot times it from each
    row below, entries c + 1 to n; back substitution then forms x<c> =
    m<c>_<n> - m<c>_<c+1> x<c+1> - ..., a chain (_chain), and divides it
    by m<c>_<c>. An exactly zero
    pivot raises _SingularJacobian, which the caller's namespace binds
    to SingularJacobianError.
    """
    n = len(b)
    m = [["m%d_%d" % (r, c) for c in range(n + 1)] for r in range(n)]
    src = ["%s = %s" % (m[r][c], v) for r in range(n) for c, v in enumerate(a[r] + [b[r]])]
    for c in range(n):
        src += ["p = %d" % c, "best = abs(%s)" % m[c][c]]
        for r in range(c + 1, n):
            src += [
                "size = abs(%s)" % m[r][c],
                "if size > best:",
                "    p, best = %d, size" % r,
            ]
        src += [
            "if not best:",
            "    raise _SingularJacobian('singular Jacobian (zero pivot in column %d)')"
            % c,
        ]
        for r in range(c + 1, n):
            top, row = ", ".join(m[c][c:]), ", ".join(m[r][c:])
            test = "if" if r == c + 1 else "elif"
            src.append("%s p == %d:" % (test, r))
            src.append("    %s, %s = %s, %s" % (top, row, row, top))
        for r in range(c + 1, n):
            src.append("f = %s / %s" % (m[r][c], m[c][c]))
            src += ["%s -= f * %s" % (m[r][j], m[c][j]) for j in range(c + 1, n + 1)]
    for c in range(n - 1, -1, -1):
        terms = [" - %s * x%d" % (m[c][j], j) for j in range(c + 1, n)]
        src += [_chain("x%d" % c, m[c][n], terms), "x%d /= %s" % (c, m[c][c])]
    xs = ", ".join("x%d" % c for c in range(n))
    return _indented(src, "    "), "[%s]" % xs


@cache
def _solver_of(n: int):
    a = [["a%d_%d" % (r, c) for c in range(n)] for r in range(n)]
    b = ["b%d" % r for r in range(n)]
    body, x = _solve_source(a, b)
    source = "def solve(a, b):\n    [%s] = a\n    [%s] = b%s\n    return %s\n" % (
        ", ".join("[%s]" % ", ".join(row) for row in a), ", ".join(b), body, x
    )
    return _compile(source, {"_SingularJacobian": SingularJacobianError})["solve"]


def _solve(a, b) -> list:
    """x with a x = b, by Gaussian elimination with partial pivoting.

    a is a list of n rows of n numbers and b a list of n; neither is
    modified. Raises SingularJacobianError on an exactly zero pivot,
    where LAPACK's getrf reports a singular factor. Each size n is
    compiled once, on first use, to the straight-line code of
    _solve_source: the same operations in the same order as the loop
    over columns and rows it unrolls, so its results are bit for bit
    the loop's.
    """
    return _solver_of(len(b))(a, b)


def _int(k: int) -> str:
    # an integer literal that parses as one operand
    return "(%d)" % k if k < 0 else "%d" % k


def _power(lines: dict, base: str, e: int, finite=False) -> str:
    """The name of base ** e, its lines added to lines (name -> text).

    Written out as `**` forms it (see _compile_kernels), each name's
    line once, so a square or power already in lines is not formed
    again; the power 1 of a base known finite has no overflow check.
    """
    if e == 0:
        return "(1 + 0j)"
    name = "%s_%s%d" % (base, "n" * (e < 0), abs(e))
    if abs(e) > 100:
        lines.setdefault(name, "%s = %s ** %s" % (name, base, _int(e)))
        return name
    squares = [base]
    for k in range(1, abs(e).bit_length()):
        squares.append("%s_s%d" % (base, k))
        lines.setdefault(squares[k], "%s = %s * %s" % (squares[k], squares[k - 1], squares[k - 1]))
    r = "(1 + 0j)" + "".join(" * " + sq for k, sq in enumerate(squares) if abs(e) >> k & 1)
    text = "%s = %s" % (name, r if e > 0 else "(1 + 0j) / (%s)" % r)
    if e != 1 or not finite:
        text += "\nif _isinf(%s):\n    raise OverflowError('complex exponentiation')" % name
    lines.setdefault(name, text)
    return name


# the most operations that one statement of a generated chain applies
_CHAIN = 32


def _chain(name: str, start: str, ops: list) -> str:
    """The statements that set name to `start op op ...` (see _compile_kernels)."""
    ops = ["".join(ops[k:k + _CHAIN]) for k in range(0, len(ops), _CHAIN)] or [""]
    return "\n".join("%s = %s%s" % (name, name if k else start, op) for k, op in enumerate(ops))


def _indented(lines, indent: str) -> str:
    # each line of each text on a line of its own, indented
    return "".join("\n" + indent + line for text in lines for line in text.split("\n"))


# The kernels' sources by name, one text per kernel, filled in once per
# spec by _compile_kernels and each compiled on its own, so the
# compiler's peak memory is the largest kernel's. Locals: l<i> and w<i>
# the log and value of variable i, k the number of build_point's deltas,
# m<j> and t<j> tracked monomial j and its continued log(1 - m), q<j>
# that log at prev, r<i> reduced residual row i, s<i> the product of
# its right side and r the largest modulus of the rows, f<t> = sign * m
# / (1 - m) of dilog term t, h<u>_<v> and g<u> a hessian cell u <= v
# and a gradient entry, e<k> term k of log eta, eta their sum and c<i>
# entry i of its row, v the value of V, a<j> the Li2 of dilog argument
# j, d<j> its D, p<j> the continued log m<j> and s the sum e log v over
# m<j>'s factors; each power and square is named after its
# base (_power), w<i>, u<j> = 1 - m<j> or v<i> = values of variable i,
# and fiber_step's elimination names its own (_solve_source). Globals:
# _k<n> the spec's constants, each bound once, and the helpers bound by
# _compile_kernels.
_KERNELS = {
    "build_point": """\
def build_point(logmap, prev, deltas=(), scale=1.0):
    k = len(deltas)
    try:{variables}{monomials}
    except (OverflowError, ZeroDivisionError) as e:
        raise _StepTooLarge('exp overflow (%s)' % e) from e
    try:
        if prev is not None:
            ({qs}) = prev.tracked_logs{logs}
    except OverflowError as e:
        raise _StepTooLarge('1 - m overflow (%s)' % e) from e
    return _ParamPoint(_spec, {{{values}}}, {{{vlogs}}}, ({ms}), ({ts}))
""",
    "reduced_residual": """\
def reduced_residual(pt):
    ({ms}) = pt.tracked_values
    values = pt.values
    try:{powers}{residuals}
        return ({rs})
    except (OverflowError, ZeroDivisionError) as e:
        raise _StepTooLarge('residual overflow (%s)' % e) from e
""",
    "fiber_step": """\
def fiber_step(pt, tol):
    ({ms}), ({ts}) = _tracked(_spec, pt)
    values = pt.values
    try:{powers}{residuals}{norm}
    except (OverflowError, ZeroDivisionError) as e:
        raise _StepTooLarge('residual overflow (%s)' % e) from e
    if not r > tol:{poles}
        return r, None
    logs = pt.logs{fiber_h}{fiber_g}{fiber_x[0]}
    return r, {fiber_x[1]}
""",
    "log_gradient": """\
def log_gradient(pt):
    ({ts}) = _tracked(_spec, pt)[1]
    logs = pt.logs{grad}
    return {grad_row}
""",
    "log_hessian": """\
def log_hessian(pt):
    ({ms}) = _tracked(_spec, pt)[0]{hess}
    return {hess_rows}
""",
    "longitude": """\
def longitude(pt):
    ({ms}), ({ts}) = _tracked(_spec, pt)
    logs = pt.logs{eta}
    try:{eta_size}
    except OverflowError as e:
        raise _StepTooLarge('longitude overflow (%s)' % e) from e
    if not 2 * size < _inf:
        raise _StepTooLarge('longitude overflow (term size %r)' % (2 * size)){d_eta}
    return eta, size, [{cs}]
""",
    "eval_v": """\
def eval_v(pt):
    _tracked(_spec, pt)
    ({as_}) = pt.li2_values
    logs = pt.logs{v}
    return v
""",
    "signed_d_sum": """\
def signed_d_sum(pt):
    ({ms}) = _tracked(_spec, pt)[0]
    ({as_}) = pt.li2_values{ds}
    return sum(({d_terms}))
""",
    "monomial_logs": """\
def monomial_logs(pt):
    ({ms}) = _tracked(_spec, pt)[0]{mlogs}
    return [{ps}]
""",
}
# a variable log, moved by -scale * its delta where build_point has one
_VARIABLE = """
        l{i} = logmap[{name}]
        if k > {i}:
            l{i} = l{i} - scale * deltas[{i}]
        if not _isfinite(l{i}):
            raise _StepTooLarge('log %s is not finite' % l{i})
        w{i} = _exp(l{i})
        if l{i}.real > _LOG_MAX:
            raise _StepTooLarge('exp overflow (|exp(%s)| beyond float range)' % l{i})
        if not w{i}:
            raise _Singular('variable %s = 0 (log pole)' % {name})"""
# fiber_step's refusal of an accepted point on a log pole
_POLE = """
        if abs(values[{name}]) < _ZERO_TOL:
            raise _Singular('variable %s = 0 (log pole)' % {name})"""
# a log(1 - m) a quarter turn or more from prev takes the branch nearest
# prev, or raises StepTooLargeError where the step still jumps that far
_TRACKED_LOG = """
        u = (1 + 0j) - m{j}
        if abs(u) < _ONE_TOL:
            raise _Singular('arg %s = 1' % {m})
        t{j} = _log(u)
        if prev is not None:
            d = q{j}.imag - t{j}.imag
            if not -_MAX_JUMP < d < _MAX_JUMP:
                if not -_PI <= d <= _PI:
                    if not abs(d) < _inf:
                        raise _StepTooLarge('log(1 - %s) is not finite' % {m})
                    t{j} = complex(t{j}.real, t{j}.imag + _TWO_PI * round(d / _TWO_PI))
                d = abs(t{j}.imag - q{j}.imag)
                if d >= _MAX_JUMP:
                    raise _StepTooLarge('log continuation jump %.3f >= pi/2' % d)"""
# the principal log of m moved by the winding k that brings it nearest
# s, the sum e log v over its factors
_MONOMIAL_LOG = """\
p{j} = _principal_log(m{j})
k = round((s - p{j}).imag / _TWO_PI)
if k:
    p{j} = complex(p{j}.real, p{j}.imag + _TWO_PI * k)"""


def _compile_kernels(tab: SpecTables) -> dict:
    """{name: kernel} of tab's spec, for each name of _KERNELS, compiled.

    The source texts of all the kernels are generated here, and each is
    compiled by a call of its own, into the namespace they share.
    Each text writes out, per row and cell, the operations of the plain
    reading of the spec in its order and grouping, starting every sum
    from 0j (a sum of moduli from 0.0) and every product from 1 + 0j
    and keeping each factor of +-1, so every result is bit for bit that
    reading's: (1 + 0j) * w is not w where a part of w is -0.0.

    Every sum and product over a spec's terms, variables or factors is
    one chain, start op op ..., each op an operator and its operand
    and none binding tighter than an operator before it, and _chain
    writes each chain the one way: a statement `name = start op ...` of
    its first _CHAIN ops, then `name = name op ...` for each next
    _CHAIN. These are the chain's operations in its order and grouping,
    so each value is bit for bit the one expression's, while no
    expression nests deeper for a longer spec: Python's compiler limits
    nesting by the recursion limit less the frames on the caller's
    stack, and every spec compiles from any stack.

    build_point(logmap, prev, deltas=(), scale=1.0) assembles a
    ParamPoint from explicit log values. Variable logs are taken
    verbatim, except that the i-th variable, for each i below
    len(deltas), takes logmap[v] - scale * deltas[i]: the trial point
    of a damped Newton step, as a dict of the moved logs would give it.
    The derived logs of 1 - m start principal when prev is None and are
    branch-continued from prev otherwise: each takes the branch nearest
    its value at prev, and a jump of a quarter turn or more raises
    StepTooLargeError, meaning the caller moved too far in one step. A
    log that is not finite or whose real part exceeds _LOG_MAX (so that
    |exp| overflows, even where its parts do not), an overflow of exp
    or of a monomial power, and a 1 - m whose modulus overflows raise
    it too, and so does a negative power of a value that underflows to
    0: such a step also went too far. A log
    whose exp underflows to 0 raises SingularPointError, as make_point
    does for a zero variable, and so does a tracked monomial m, dilog
    argument or longitude factor, within _ONE_TOL of 1: this is the one
    place a point's monomials are judged, so the evaluators need no
    guards of their own. 1 - m is formed as (1 + 0j) - m, whose
    imaginary part is 0.0 - m.imag, never -0.0, so a negative real
    1 - m logs to +pi i, never to -pi i; int - complex would take
    -m.imag where a CPython applies C99's mixed real-complex rules.

    reduced_residual(pt) is, per row of tab.residual, the product of
    the (1 - m)^e of its left side minus that of the variable powers
    of its right, a power that overflows or divides by 0 raising
    StepTooLargeError. log_gradient(pt) and log_hessian(pt) are fresh lists
    of the rows of tab.gradient and the cells of tab.hessian_cells, a
    cell and its mirror one value. fiber_step(pt, tol) is one step of
    the fiber Newton. It takes r, the largest modulus of the reduced
    residual's rows, as max takes it: a later row replaces r only
    where it is larger, so a NaN counts only as the first row; a row
    whose modulus overflows raises StepTooLargeError, as an overflowing
    power does. It returns (r, None) where r > tol fails, a NaN r
    included, and otherwise (r, x), x solved from the non-meridian
    block of the hessian and the gradient's non-meridian entries, in
    text of their own, by the elimination _solve runs (_solve_source).
    A point it would accept with a variable within _ZERO_TOL of 0 sits
    on a log pole, where r is small only because the variable is: it
    raises SingularPointError for the first such variable in spec
    order, as make_point does.
    longitude(pt) is the triple (log eta, the sum of the moduli of its
    terms, a fresh list of the rows of tab.d_eta): the terms e log(var)
    of tab.eta_prefactor and e log(1 - m) of tab.eta_factors, summed in
    that order, and per variable its prefactor exponent minus
    e a m / (1 - m) per row entry. Where a term's modulus overflows,
    or twice the sum of the moduli (that of v = 2 log eta, which
    bounds |v|'s parts) is not finite, v has no finite value, and it
    raises StepTooLargeError('longitude overflow (...)').
    It is the one reading of log eta: potential.eta_log, the filling
    Newton and the deformation trace all take it from here.

    eval_v(pt) and signed_d_sum(pt) are the bodies of potential.eval_v
    and potential.signed_d_sum, on the point's stored Li2 values.
    monomial_logs(pt) is the list of the continued log m of each
    tracked monomial m: principal_log(m) + 2 pi i k, with k the winding
    that brings it nearest sum e log v over m's factors v^e, so it
    winds as the variable logs do; invariants.rogers_combo reads it.
    Each D is dilog._d_from_li2's and each principal log
    dilog.principal_log's, called, and signed_d_sum adds its terms with
    sum over a tuple, as the plain reading adds them with sum.

    Every integer power e with |e| <= 100 is written out (_power) as
    CPython 3.11's complex ** int forms it (c_powi): (1 + 0j) times
    the square of the base at the lowest set bit of |e|, that product
    times the square at each higher set bit, the squares formed by
    repeated squaring; for e < 0 then (1 + 0j) / r, which raises
    ZeroDivisionError where r == 0; and OverflowError('complex
    exponentiation') where the result has an infinite part. So each
    power is `**`'s bit for bit and raises `**`'s error type, which the
    kernels refuse as an overflow. The leading (1 + 0j) * stays: it is
    not the identity on a -0.0 part, (1 + 0j) * (-0.0 - 1j) being -1j.
    A larger |e| keeps `**`, which takes another algorithm there. Each
    power and square is formed once per call, before the first row or
    monomial that reads it, so the powers are taken in the order of the
    plain reading. Integer exponents appear in the text as literals;
    every other constant, float and complex coefficients, variable names
    and monomials, is bound in the namespace under a name of the
    generator's own (a literal such as (-2-0j) would lose its -0.0
    part), so no text from the spec reaches the source. Each is bound
    once, however many kernels read it: by type and repr, so 2.0 is one
    name and a -0.0 part keeps its own.
    """
    spec = tab.spec
    ns = {
        "_spec": spec, "_tracked": _tracked, "_ParamPoint": ParamPoint,
        "_StepTooLarge": StepTooLargeError, "_Singular": SingularPointError,
        "_SingularJacobian": SingularJacobianError, "_d": _d_from_li2,
        "_principal_log": principal_log, "_exp": _exp, "_log": _log,
        "_isfinite": _isfinite, "_isinf": cmath.isinf, "_inf": math.inf,
        "_PI": _PI, "_TWO_PI": _TWO_PI, "_ZERO_TOL": _ZERO_TOL, "_ONE_TOL": _ONE_TOL,
        "_MAX_JUMP": _MAX_JUMP, "_LOG_MAX": _LOG_MAX,
    }

    consts = {}

    def const(value) -> str:
        name = consts.setdefault((type(value), repr(value)), "_k%d" % len(ns))
        ns[name] = value
        return name

    names = {v: const(v) for v in spec.variables}
    idx = range(len(tab.monomials))

    def hessian(n):
        # the lines and the rows, a list of the names of each row's
        # cells, of the leading n x n block: f<t> of each dilog term a
        # cell of it reads, the cells
        cells = [c for c in tab.hessian_cells if c[1] < n]
        used = {t for _, _, prods, _ in cells for _, t in prods}
        lines = [
            "f%d = %s * m%d / (1 - m%d)" % (t, _int(sign), j, j)
            for t, (sign, j) in enumerate(tab.dilogs)
            if t in used
        ]
        for iu, iv, prods, consts in cells:
            terms = [" + %s * f%d" % (_int(aa), t) for aa, t in prods]
            terms += [" + " + const(c) for c in consts]
            lines.append(_chain("h%d_%d" % (iu, iv), "0j", terms))
        rows = [["h%d_%d" % (min(r, c), max(r, c)) for c in range(n)] for r in range(n)]
        return _indented(lines, "    "), rows

    def gradient(n):
        # the lines and the names of the first n entries
        lines = []
        for i, (rows, quads) in enumerate(tab.gradient[:n]):
            terms = [" - %s * t%d" % (_int(sa), j) for sa, j in rows]
            terms += [" + %s * logs[%s]" % (const(c), names[w]) for c, w in quads]
            lines.append(_chain("g%d" % i, "0j", terms))
        return _indented(lines, "    "), ["g%d" % i for i in range(n)]

    def listed(names):
        # a list display of names, or of lists of names
        return "[%s]" % ", ".join(v if isinstance(v, str) else listed(v) for v in names)

    # the monomials, and the residual rows, each power written out
    # before the first that reads it: of a variable value w<i> (finite,
    # as _exp gave it), a 1 - m<j> or a variable value
    build = {}
    for j, row in enumerate(tab.monomial_rows):
        factors = [" * " + _power(build, "w%d" % i, e, True) for i, e in row]
        build["m%d" % j] = _chain("m%d" % j, "(1 + 0j)", factors)
    powers = {}

    def power(base, load, e):
        powers.setdefault(base, "%s = %s" % (base, load))
        return _power(powers, base, e)

    # row i of the residual, r<i>, is the left side's product minus s<i>,
    # the right side's
    residuals = []
    for i, (lhs, rhs) in enumerate(tab.residual):
        left = [" * " + power("u%d" % j, "1 - m%d" % j, e) for e, j in lhs]
        right = [" * " + power("v%d" % spec.variables.index(v), "values[%s]" % names[v], e)
                 for v, e in rhs]
        residuals += [_chain("s%d" % i, "(1 + 0j)", right),
                      _chain("r%d" % i, "(1 + 0j)", left + [" - s%d" % i])]
    # log eta's terms, in the order they are summed, their sum, the sum
    # of their moduli and its row
    terms = ["%s * logs[%s]" % (_int(e), names[v]) for v, e in tab.eta_prefactor]
    terms += ["%s * t%d" % (_int(e), j) for e, j in tab.eta_factors]
    eta = ["e%d = %s" % kt for kt in enumerate(terms)]
    eta.append(_chain("eta", "0j", [" + e%d" % k for k in range(len(terms))]))
    size = _chain("size", "0.0", [" + abs(e%d)" % k for k in range(len(terms))])
    d_eta = [
        _chain("c%d" % i, const(c), [" - %s * m%d / (1 - m%d)" % (_int(a), j, j) for a, j in row])
        for i, (c, row) in enumerate(tab.d_eta)
    ]
    args = range(tab.dilog_arg_count)
    mlogs = ["logs = pt.logs"] + ["l%d = logs[%s]" % ve for ve in enumerate(names.values())]
    for j, row in enumerate(tab.monomial_rows):
        mlogs += [_chain("s", "0j", [" + %s * l%d" % (_int(e), i) for i, e in row])]
        mlogs += [_MONOMIAL_LOG.format(j=j)]
    n = len(names)
    # max(map(abs, rows)) written out
    norm = ["r = abs(r0)"]
    for i in range(1, n - 1):
        norm += ["size = abs(r%d)" % i, "if size > r:", "    r = size"]
    hess, grad = hessian(n), gradient(n)
    fiber_h, fiber_g = hessian(n - 1), gradient(n - 1)
    # V's terms, before its constant
    v = [" + %s * a%d" % (_int(sign), j) for sign, j in tab.dilogs]
    v += [" + %s * logs[%s] * logs[%s]" % (const(c), names[a], names[b]) for c, a, b in tab.quads]
    fields = dict(
        variables="".join(
            _VARIABLE.format(i=i, name=name) for i, name in enumerate(names.values())
        ),
        monomials=_indented(build.values(), " " * 8),
        logs="".join(_TRACKED_LOG.format(j=j, m=const(m)) for j, m in enumerate(tab.monomials)),
        values=", ".join("%s: w%d" % (n, i) for i, n in enumerate(names.values())),
        vlogs=", ".join("%s: l%d" % (n, i) for i, n in enumerate(names.values())),
        qs="".join("q%d, " % j for j in idx),
        ms="".join("m%d, " % j for j in idx),
        ts="".join("t%d, " % j for j in idx),
        powers=_indented(powers.values(), " " * 8),
        residuals=_indented(residuals, " " * 8),
        rs="".join("r%d, " % i for i in range(n - 1)),
        norm=_indented(norm, " " * 8),
        poles="".join(_POLE.format(name=name) for name in names.values()),
        fiber_h=fiber_h[0],
        fiber_g=fiber_g[0],
        fiber_x=_solve_source(fiber_h[1], fiber_g[1]),
        hess=hess[0],
        hess_rows=listed(hess[1]),
        grad=grad[0],
        grad_row=listed(grad[1]),
        eta=_indented(eta, "    "),
        eta_size=_indented([size], " " * 8),
        d_eta=_indented(d_eta, "    "),
        cs=", ".join("c%d" % i for i in range(n)),
        as_="".join("a%d, " % j for j in args),
        v=_indented([_chain("v", "0j", v + [" + " + const(tab.constant)])], "    "),
        ds="".join("\n    d%d = _d(m%d, a%d)" % (j, j, j) for j in args),
        d_terms="".join("%s * d%d, " % (_int(sign), j) for sign, j in tab.dilogs),
        mlogs=_indented(mlogs, " " * 4),
        ps="".join("p%d, " % j for j in idx),
    )
    return {name: _compile(text.format(**fields), ns)[name] for name, text in _KERNELS.items()}


# ------------------------------------------------------------- points


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
    return spec.tables.build_point(logmap, None)


def advance_point_logs(
    pt: ParamPoint, logmap: dict, deltas=(), scale: float = 1.0
) -> ParamPoint:
    """Move a point to explicit new variable logs (solver step).

    The i-th variable, for each i below len(deltas), moves to
    logmap[v] - scale * deltas[i] instead: the damped Newton trial
    point, formed inside the spec's compiled build_point (SpecTables),
    bit for bit as a dict of the moved logs would give it.
    """
    return pt.spec.tables.build_point(logmap, pt, deltas, scale)


# --------------------------------------------------------- evaluation


def eval_v(spec: PotentialSpec, pt: ParamPoint) -> complex:
    """V at pt: principal Li2 terms, continued-log quadratic part.

    The body is the spec's compiled eval_v kernel (SpecTables).
    """
    return spec.tables.eval_v(pt)


def eval_v_alpha(spec: PotentialSpec, slope, pt: ParamPoint) -> complex:
    """V_alpha = V + [log xi (2 pi i - p log xi) + s pi^2]/q, continued log xi.

    `slope` is any record with the integer fields p, q and s of a
    normalized slope.
    """
    v = eval_v(spec, pt)
    lx = pt.logs[spec.meridian]
    return v + (lx * (2j * math.pi - slope.p * lx) + slope.s * _PI2) / slope.q


def signed_d_sum(spec: PotentialSpec, pt: ParamPoint) -> float:
    """sum sign * D(m) over the dilog terms: the volume at a critical point.

    Each D is formed from the point's stored Li2 (li2_values), in the
    spec's compiled signed_d_sum kernel (SpecTables).
    """
    return spec.tables.signed_d_sum(pt)


def log_gradient(spec: PotentialSpec, pt: ParamPoint) -> list:
    """v dV/dv over spec.variables, from the stored logs.

    A fresh list of complex, one per variable in spec order. Component
    v is sum_terms -sign * a_v * log(1 - m) plus the quadratic
    contributions, with a_v the exponent of v in m. All logs are the
    continued branches carried by pt, so on a solution branch these
    are exactly the equations the solver drives to zero.
    """
    return spec.tables.log_gradient(pt)


def log_hessian(spec: PotentialSpec, pt: ParamPoint) -> list:
    """Matrix of u d/du (v dV/dv); symmetric, quad terms are constants.

    A fresh list of row lists of complex, indexed [u][v] in spec order;
    the caller may modify it.
    """
    return spec.tables.log_hessian(pt)


def eval_eta(spec: PotentialSpec, pt: ParamPoint):
    """(eta, None): the longitude eigenvalue at pt, evaluated rationally.

    prefactor * prod (1 - m)^e, with each m the point's tracked value;
    the second slot is always None, while perfbench reads
    eval_eta(...)[0]. A point of a spec not equal to spec raises
    ValidationError, and a power that overflows, or a negative power of
    a value that underflows to 0, SingularPointError: the longitude has
    no finite value at pt.
    """
    ms = _tracked(spec, pt)[0]
    try:
        r = spec.longitude.prefactor.evaluate(pt.values)
        for e, j in spec.tables.eta_factors:
            r *= (1 - ms[j]) ** e
    except (OverflowError, ZeroDivisionError) as e:
        raise SingularPointError("longitude overflow (%s)" % e) from e
    return r, None


def eta_log(spec: PotentialSpec, pt: ParamPoint) -> complex:
    """Continued log of the longitude eigenvalue.

    Built as a sum of the stored continued logs, so it is continuous
    along any path the point was continued over and equals 0 at a
    complete structure reached with principal branches. It is the
    first element of the spec's compiled longitude kernel (SpecTables),
    the one reading of log eta, so it raises StepTooLargeError where a
    term's modulus, or twice the sum of the moduli, leaves float range:
    there v = 2 log eta has no finite value.
    """
    return spec.tables.longitude(pt)[0]


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
    where a power overflows. The body is the spec's compiled kernel
    (SpecTables).
    """
    return pt.spec.tables.reduced_residual(pt)
