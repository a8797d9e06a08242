"""Command line front end.

    knotpot [global options] {complete,fill,scan,trace,selftest} [...]

Global options pick the potential (--spec builtin:5_2 or a spec file),
the output format (table, json, csv) and destination, and --newton-tol.
Exit codes: 0 success, 1 usage or I/O, 2 complete-structure failure,
3 path obstruction (possibly exceptional slope), 4 selftest failure.

Each solving command parses its own argument and calls the one library
entry point for its job: complete solve_complete, fill solve_filling,
trace trace_deformation, and scan solve_complete once and then
solve_filling per slope. The library judges the slope's range, u_end,
samples and newton_tol before it solves anything, so a usage error
exits 1 first.

All numeric output is printed with 15 significant digits; scans are
byte-deterministic so repeated runs can be diffed.

Every command returns a Record of ordered (key, value) fields and, for
scan, trace and selftest, one row table; one renderer prints it in the
chosen format, so every format prints the same fields in the same
order, and every JSON document carries "schema": 1.
"""

import argparse
import json
import math
import re
import sys

from ._records import RecordBase
from .errors import (
    KnotpotError,
    NoConvergenceError,
    NoGeometricRootError,
    PathObstructionError,
    SpecFormatError,
    ValidationError,
)
from .invariants import report_for, rogers_combo
from .potential import (
    BUILTINS,
    eval_eta,
    eval_v,
    load_spec,
    signed_d_sum,
)
from .solver import (
    _MAX_NEWTON_TOL,
    _NEWTON_TOL,
    _check_newton_tol,
    _resid_inf,
    normalize_slope,
    solve_complete,
    solve_filling,
    trace_deformation,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPLETE_FAILED = 2
EXIT_OBSTRUCTION = 3
EXIT_SELFTEST = 4

CSV_HEADER = "p,q,r,s,converged,volume,cs_mod_half,length,torsion,residual,steps"

_SCAN_COLUMNS = [(k, k) for k in CSV_HEADER.split(",")]

# per command that prints the spec's variables, the keys it writes
# beside them: field keys and csv column stems (variable v fills
# v_re,v_im); complete's "arg <monomial>" keys hold a space, so no
# identifier meets them. A variable named like one would overwrite or
# repeat it, and a name that is not an identifier would split or vanish
# in a csv cell, so such a spec is refused before solving.
_OUTPUT_KEYS = {
    "complete": frozenset(
        "schema spec volume volume_from_shapes eta eta_alternate "
        "residual newton_iters".split()
    ),
    "fill": frozenset(
        "schema p q r s u v volume volume_from_shapes cs_mod_half cs_ambiguity "
        "length torsion residual filling_residual filling_tol steps".split()
    ),
    "trace": frozenset(
        "schema u v im_v sum_d rogers_defect defect residual".split()
    ),
}


class Record(RecordBase):
    """One command's output: ordered (key, value) fields, then optionally
    a row table written under the JSON key `table`, with `columns` as
    (JSON key, text header) pairs and rows of one value per column.

    Values are str, int, bool, float, complex or None; render alone
    formats them.
    """

    _fields = ("fields", "table", "columns", "rows")
    _defaults = {"table": None, "columns": (), "rows": ()}


def _f(x: float) -> str:
    return format(x, ".15g")


def _text(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return _f(x)
    if isinstance(x, complex):
        return "%s%s%si" % (_f(x.real), "+" if x.imag >= 0 else "-", _f(abs(x.imag)))
    return "" if x is None else str(x)


def _json(x):
    # JSON numbers carry 15 significant digits, like the text formats
    if isinstance(x, float):
        return float(_f(x))
    if isinstance(x, complex):
        return {"re": _json(x.real), "im": _json(x.imag)}
    return x


def render(rec: Record, fmt: str) -> str:
    """Text of a record: the fields as "key = value" lines (csv: key,value),
    then the table's header and rows; a complex table cell fills two
    columns, its real and imaginary parts."""
    if fmt == "json":
        doc = {"schema": 1, **{k: _json(x) for k, x in rec.fields}}
        if rec.table is not None:
            keys = [k for k, _ in rec.columns]
            doc[rec.table] = [{k: _json(x) for k, x in zip(keys, row)} for row in rec.rows]
        return json.dumps(doc, indent=2) + "\n"
    sep = "," if fmt == "csv" else " = "
    lines = [k + sep + _text(x) for k, x in rec.fields]
    if rec.table is not None:
        lines.append(",".join(header for _, header in rec.columns))
        for row in rec.rows:
            cells = []
            for x in row:
                cells += [_f(x.real), _f(x.imag)] if isinstance(x, complex) else [_text(x)]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes an argument that starts with "-" for an option
        # unless it is a plain negative number; no knotpot option starts
        # with "-" and a digit, so "-5/1" and "-1+0.5i" are values
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits 2 on usage errors by default; the contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> _Parser:
    p = _Parser(prog="knotpot", description=__doc__.splitlines()[0])
    p.add_argument("--spec", default="builtin:5_2", help="builtin:NAME or spec file path")
    p.add_argument("--format", dest="fmt", choices=("table", "json", "csv"), default="table")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.add_argument(
        "--newton-tol",
        type=float,
        default=_NEWTON_TOL,
        help="every Newton solve stops, and every filling is accepted, within "
        "this residual (default %%(default)g, at most %g), or for a large "
        "slope within the float rounding of its filling equation" % _MAX_NEWTON_TOL,
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("complete", help="solve the complete structure")
    f = sub.add_parser("fill", help="solve one Dehn filling")
    f.add_argument("--slope", required=True, help='p/q, or an integer p for q=1')
    s = sub.add_parser("scan", help="solve all slopes |p| <= pmax, q <= qmax")
    s.add_argument("--pmax", type=int, default=8)
    s.add_argument("--qmax", type=int, default=1)
    t = sub.add_parser("trace", help="trace the deformation space in u = log xi^2")
    t.add_argument("--u-end", dest="u_end", required=True, help="complex, e.g. 0.1i")
    t.add_argument("--samples", type=int, default=8)
    sub.add_parser("selftest", help="run the built-in identity suites")
    return p


def _load_spec(src: str):
    if src.startswith("builtin:"):
        name = src[len("builtin:"):]
        if name not in BUILTINS:
            raise SpecFormatError(
                "unknown builtin %r (have: %s)" % (name, ", ".join(sorted(BUILTINS)))
            )
        return BUILTINS[name]()
    with open(src, "rb") as fh:
        return load_spec(fh)


_SLOPE_RE = re.compile(r"^([+-]?\d+)(?:/([+-]?\d+))?$")


def parse_slope(text: str):
    m = _SLOPE_RE.match(text.strip())
    if not m:
        raise ValidationError("slope must be an integer or p/q, got %r" % text)
    try:
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError:  # past int()'s digit limit, so past float range too
        raise ValidationError("slope p and q must be within float range") from None
    return normalize_slope(p, q)


def parse_u_end(text: str) -> complex:
    try:
        u_end = complex(text.strip().replace("i", "j"))
    except ValueError:
        raise ValidationError("could not parse u-end %r" % text) from None
    return u_end


def _scan_slopes(pmax: int, qmax: int):
    for q in range(1, qmax + 1):
        for p in range(-pmax, pmax + 1):
            if math.gcd(p, q) == 1:
                yield normalize_slope(p, q)


def _check_variable_names(spec, command):
    """Refuse variable names that command cannot print beside its keys,
    and for complete a spec name that would forge or split a line."""
    if command == "complete" and ("," in spec.name or not spec.name.isprintable()):
        raise ValidationError(
            "spec name %r holds a comma or an unprintable character, which "
            "complete prints; rename it" % spec.name
        )
    taken = sorted(set(spec.variables) & _OUTPUT_KEYS[command])
    if taken:
        raise ValidationError(
            "spec variable(s) %s share a name with an output key of %s; "
            "rename them" % (", ".join(taken), command)
        )
    odd = [repr(v) for v in spec.variables if not v.isidentifier()]
    if odd:
        raise ValidationError(
            "spec variable name(s) %s are not identifiers, which %s "
            "prints; rename them" % (", ".join(odd), command)
        )


# ------------------------------------------------------------ commands
#
# Each takes (args, spec), parses its own argument, calls the library
# entry point for its job and returns (exit status, Record or None when
# nothing is printed).


def cmd_complete(args, spec):
    cp = solve_complete(spec, newton_tol=args.newton_tol)
    pt = cp.point
    tab = spec.tables
    eta, eta_alt = eval_eta(spec, pt)
    fields = [("spec", spec.name)]
    fields += [(v, pt.values[v]) for v in spec.variables]
    # the dilogarithm arguments in spec order, each once; for 5_2 they
    # are the tetrahedron shapes, some of them inverted
    fields += [
        ("arg %s" % tab.monomials[j], pt.tracked_values[j])
        for j in dict.fromkeys(j for _, j in tab.dilogs)
    ]
    fields += [
        ("volume", eval_v(spec, pt).imag),
        ("volume_from_shapes", signed_d_sum(spec, pt)),
        ("eta", eta),
    ]
    if eta_alt is not None:
        fields.append(("eta_alternate", eta_alt))
    fields += [("residual", cp.residual_inf_norm), ("newton_iters", cp.newton_iters)]
    return EXIT_OK, Record(fields)


def cmd_fill(args, spec):
    slope = parse_slope(args.slope)
    try:
        sol = solve_filling(spec, slope, newton_tol=args.newton_tol)
    except PathObstructionError as e:
        print("slope %s: %s" % (slope, e), file=sys.stderr)
        return EXIT_OBSTRUCTION, None
    rep = report_for(spec, slope, sol)
    fields = [("p", slope.p), ("q", slope.q), ("r", slope.r), ("s", slope.s)]
    fields += [(v, sol.critical.point.values[v]) for v in spec.variables]
    fields += [
        ("u", sol.u.value),
        ("v", sol.v.value),
        ("volume", rep.volume),
        ("volume_from_shapes", rep.volume_from_shapes),
        ("cs_mod_half", rep.cs_value),
        ("cs_ambiguity", rep.cs_ambiguity),
        ("length", rep.geodesic_length),
        ("torsion", rep.geodesic_torsion),
        ("residual", sol.critical.residual_inf_norm),
        ("filling_residual", sol.filling_residual),
        ("filling_tol", sol.filling_tol),
        ("steps", sol.path_steps),
    ]
    return EXIT_OK, Record(fields)


def cmd_scan(args, spec):
    if args.pmax < 1 or args.qmax < 1:
        raise ValidationError("scan bounds must be >= 1")
    try:
        float(args.pmax), float(args.qmax)
    except OverflowError:
        raise ValidationError("scan bounds must be within float range") from None
    complete = solve_complete(spec, newton_tol=args.newton_tol)
    rows = []
    for slope in _scan_slopes(args.pmax, args.qmax):
        head = [slope.p, slope.q, slope.r, slope.s]
        try:
            sol = solve_filling(spec, slope, complete=complete, newton_tol=args.newton_tol)
        except PathObstructionError:
            rows.append(head + [False] + [None] * (len(_SCAN_COLUMNS) - 5))
            continue
        rep = report_for(spec, slope, sol)
        values = [rep.volume, rep.cs_value, rep.geodesic_length, rep.geodesic_torsion]
        resid = max(sol.critical.residual_inf_norm, sol.filling_residual)
        rows.append(head + [True] + values + [resid, sol.path_steps])
    return EXIT_OK, Record([], "rows", _SCAN_COLUMNS, rows)


def cmd_trace(args, spec):
    u_end = parse_u_end(args.u_end)
    status = EXIT_OK
    try:
        samples = trace_deformation(spec, u_end, args.samples, newton_tol=args.newton_tol)
    except PathObstructionError as e:
        samples = e.partial
        print("trace obstructed: %s" % e, file=sys.stderr)
        status = EXIT_OBSTRUCTION
    names = spec.variables[:-1]
    columns = [(v, "%s_re,%s_im" % (v, v)) for v in ("u",) + names + ("v",)]
    columns += [
        ("im_v", "im_v"),
        ("sum_d", "sum_d"),
        ("rogers_defect", "defect_re,defect_im"),
        ("residual", "residual"),
    ]
    rows = []
    for smp in samples:
        pt = smp.point
        vv = eval_v(spec, pt)
        defect = rogers_combo(spec, pt) - (vv + (smp.u / 2) * (smp.v / 2))
        cells = [smp.u] + [pt.values[v] for v in names] + [smp.v, vv.imag]
        rows.append(cells + [signed_d_sum(spec, pt), defect, _resid_inf(pt)])
    return status, Record([], "samples", columns, rows)


def cmd_selftest():
    # imported here: the other commands never need the suites
    from .selftest import run_selftest

    results = run_selftest()
    ok = all(r.passed for r in results)
    columns = [(k, k) for k in ("name", "passed", "worst_over_tol", "detail")]
    rows = [
        [r.name, r.passed, r.worst if math.isfinite(r.worst) else None, r.detail]
        for r in results
    ]
    rec = Record([("passed", ok)], "groups", columns, rows)
    return (EXIT_OK if ok else EXIT_SELFTEST), rec


COMMANDS = {
    "complete": cmd_complete,
    "fill": cmd_fill,
    "scan": cmd_scan,
    "trace": cmd_trace,
}


def _run(args) -> int:
    _check_newton_tol(args.newton_tol)
    if args.command == "selftest":
        status, rec = cmd_selftest()
    else:
        spec = _load_spec(args.spec)
        if args.command in _OUTPUT_KEYS:
            _check_variable_names(spec, args.command)
        # of every command's calls only solve_complete raises these
        try:
            status, rec = COMMANDS[args.command](args, spec)
        except (NoConvergenceError, NoGeometricRootError) as e:
            print("complete structure failed: %s" % e, file=sys.stderr)
            return EXIT_COMPLETE_FAILED
    if rec is not None:
        text = render(rec, args.fmt)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (OSError, SpecFormatError, ValidationError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except KnotpotError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_COMPLETE_FAILED


if __name__ == "__main__":
    sys.exit(main())
