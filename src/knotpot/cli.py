"""Command line front end.

    knotpot [global options] {complete,fill,scan,trace,selftest} [...]

Global options pick the potential (--spec builtin:5_2 or a spec file),
the output format (table, json, csv) and destination, and --newton-tol.
Exit codes: 0 success, 1 usage or I/O, 2 complete-structure failure,
3 path obstruction (possibly exceptional slope), 4 selftest failure.

All numeric output is printed with 15 significant digits; scans are
byte-deterministic so repeated runs can be diffed.

Every command returns a Record, and one renderer prints it in the
chosen format: complete and fill are key/value records, scan, trace
and selftest are row tables, and every JSON document carries
"schema": 1.
"""

import argparse
import cmath
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
    ZeroDenominatorError,
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
    _NEWTON_TOL,
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

_SCAN_VALUES = ("volume", "cs_mod_half", "length", "torsion", "residual")

# per command that prints the spec's variables, the keys it writes
# beside them: JSON keys, text keys and csv column stems (variable v
# fills v_re,v_im). A variable named like one would overwrite or repeat
# it, and a name that is not an identifier would split or vanish in a
# csv cell, so such a spec is refused before solving.
_OUTPUT_KEYS = {
    "complete": frozenset(
        "schema spec dilog_args volume volume_from_shapes eta eta_alternate "
        "residual newton_iters".split()
    ),
    "fill": frozenset(
        "schema p q r s u v volume volume_from_shapes cs_mod_half cs_ambiguity "
        "length torsion residual filling_residual steps".split()
    ),
    "trace": frozenset(
        "schema u v im_v sum_d rogers_defect defect residual".split()
    ),
}


def _f(x: float) -> str:
    return format(float(x), ".15g")


def _jn(x) -> float:
    # JSON numbers carry 15 significant digits, like the text formats
    return float(format(float(x), ".15g"))


def _jc(z: complex) -> dict:
    return {"re": _jn(z.real), "im": _jn(z.imag)}


def _fc(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return "%s%s%si" % (_f(z.real), sign, _f(abs(z.imag)))


class UsageError(Exception):
    """Bad input caught by the CLI itself; the message is printed bare."""


class Record(RecordBase):
    """One command's output: the JSON body and its text form.

    A key/value record sets `pairs` (key, text); a row table sets
    `rows` (lists of cells) under an optional CSV `header`.
    """

    _fields = ("doc", "pairs", "header", "rows")

    def __init__(
        self,
        doc: dict,
        pairs: list | None = None,
        header: str | None = None,
        rows: list | None = None,
    ):
        self.doc = doc
        self.pairs = pairs
        self.header = header
        self.rows = rows


def render(rec: Record, fmt: str) -> str:
    """Text of a record: table and csv differ only for key/value records."""
    if fmt == "json":
        return json.dumps({"schema": 1, **rec.doc}, indent=2) + "\n"
    if rec.pairs is not None:
        lines = ["%s = %s" % kv for kv in rec.pairs]
        if fmt == "csv":
            lines = [ln.replace(" = ", ",", 1).replace(" ", "") for ln in lines]
    else:
        lines = [rec.header] if rec.header else []
        lines += [",".join(cells) for cells in rec.rows]
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
        "this residual (default %(default)g)",
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
    if not cmath.isfinite(u_end):
        raise ValidationError("u-end must be finite, got %r" % text)
    return u_end


def _scan_slopes(pmax: int, qmax: int):
    for q in range(1, qmax + 1):
        for p in range(-pmax, pmax + 1):
            if math.gcd(p, q) == 1:
                yield normalize_slope(p, q)


def _check_variable_names(spec, command):
    """Refuse variable names that command cannot print beside its keys."""
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


def _command_input(args):
    """The parsed input of a solving command; raises on bad arguments."""
    if args.command == "fill":
        return parse_slope(args.slope)
    if args.command == "scan":
        if args.pmax < 1 or args.qmax < 1:
            raise UsageError("scan bounds must be >= 1")
        try:
            float(args.pmax), float(args.qmax)
        except OverflowError:
            raise ValidationError("scan bounds must be within float range") from None
        return list(_scan_slopes(args.pmax, args.qmax))
    if args.command == "trace":
        u_end = parse_u_end(args.u_end)
        if args.samples < 1:
            raise UsageError("samples must be >= 1")
        return u_end
    return None


# ------------------------------------------------------------ commands
#
# Each takes (args, spec, complete structure, parsed input) and returns
# (exit status, Record or None when nothing is printed).


def cmd_complete(args, spec, cp, _):
    pt = cp.point
    tab = spec.tables
    # the dilogarithm arguments, one per term in spec order; for 5_2
    # they are the tetrahedron shapes, some of them inverted
    dilog_args = [(tab.monomials[j], pt.tracked_values[j]) for _, j in tab.dilogs]
    vol = eval_v(spec, pt).imag
    vfs = signed_d_sum(spec, pt)
    eta, eta_alt = eval_eta(spec, pt)
    resid = cp.residual_inf_norm
    pairs = [("spec", spec.name)]
    pairs += [(v, _fc(pt.values[v])) for v in spec.variables]
    pairs += [("arg %s" % m, _fc(z)) for m, z in dilog_args]
    pairs += [("volume", _f(vol)), ("volume_from_shapes", _f(vfs)), ("eta", _fc(eta))]
    if eta_alt is not None:
        pairs.append(("eta_alternate", _fc(eta_alt)))
    pairs.append(("residual", _f(resid)))
    doc = {
        **{v: _jc(pt.values[v]) for v in spec.variables},
        "dilog_args": [
            {"arg": dict(m.exponents), "value": _jc(z)} for m, z in dilog_args
        ],
        "volume": _jn(vol),
        "volume_from_shapes": _jn(vfs),
        "eta": _jc(eta),
        "residual": _jn(resid),
        "newton_iters": cp.newton_iters,
    }
    return EXIT_OK, Record(doc, pairs=pairs)


def cmd_fill(args, spec, complete, slope):
    try:
        sol = solve_filling(spec, slope, complete=complete, newton_tol=args.newton_tol)
    except PathObstructionError as e:
        msg = str(e)
        if "possibly exceptional" not in msg:
            msg += " (possibly exceptional slope)"
        print("slope %s: %s" % (slope, msg), file=sys.stderr)
        return EXIT_OBSTRUCTION, None
    rep = report_for(spec, slope, sol)
    pairs = [
        ("slope", str(slope)),
        ("cocycle_rs", "(%d, %d)" % (slope.r, slope.s)),
        ("volume", _f(rep.volume)),
        ("volume_from_shapes", _f(rep.volume_from_shapes)),
        ("cs_mod_half", _f(rep.cs_value)),
        ("length", _f(rep.geodesic_length)),
        ("torsion", _f(rep.geodesic_torsion)),
        ("u", _fc(sol.u.value)),
        ("v", _fc(sol.v.value)),
        ("residual", _f(sol.critical.residual_inf_norm)),
        ("filling_residual", _f(sol.filling_residual)),
        ("steps", str(sol.path_steps)),
    ]
    doc = {
        "p": slope.p,
        "q": slope.q,
        "r": slope.r,
        "s": slope.s,
        **{v: _jc(sol.critical.point.values[v]) for v in spec.variables},
        "u": _jc(sol.u.value),
        "v": _jc(sol.v.value),
        "volume": _jn(rep.volume),
        "volume_from_shapes": _jn(rep.volume_from_shapes),
        "cs_mod_half": _jn(rep.cs_value),
        "cs_ambiguity": _jn(rep.cs_ambiguity),
        "length": _jn(rep.geodesic_length),
        "torsion": _jn(rep.geodesic_torsion),
        "residual": _jn(sol.critical.residual_inf_norm),
        "filling_residual": _jn(sol.filling_residual),
        "steps": sol.path_steps,
    }
    return EXIT_OK, Record(doc, pairs=pairs)


def cmd_scan(args, spec, complete, slopes):
    jrows, rows = [], []
    for slope in slopes:
        head = {"p": slope.p, "q": slope.q, "r": slope.r, "s": slope.s}
        cells = [str(n) for n in head.values()]
        try:
            sol = solve_filling(spec, slope, complete=complete, newton_tol=args.newton_tol)
        except PathObstructionError:
            jrows.append(
                {**head, "converged": False, **dict.fromkeys(_SCAN_VALUES + ("steps",))}
            )
            rows.append(cells + ["false"] + [""] * (len(_SCAN_VALUES) + 1))
            continue
        rep = report_for(spec, slope, sol)
        values = (
            rep.volume,
            rep.cs_value,
            rep.geodesic_length,
            rep.geodesic_torsion,
            max(sol.critical.residual_inf_norm, sol.filling_residual),
        )
        jrows.append(
            {
                **head,
                "converged": True,
                **{k: _jn(x) for k, x in zip(_SCAN_VALUES, values)},
                "steps": sol.path_steps,
            }
        )
        rows.append(cells + ["true"] + [_f(x) for x in values] + [str(sol.path_steps)])
    return EXIT_OK, Record({"rows": jrows}, header=CSV_HEADER, rows=rows)


def cmd_trace(args, spec, complete, u_end):
    status = EXIT_OK
    try:
        samples = trace_deformation(
            spec, u_end, args.samples, complete=complete, newton_tol=args.newton_tol
        )
    except PathObstructionError as e:
        samples = getattr(e, "partial", [])
        print("trace obstructed: %s" % e, file=sys.stderr)
        status = EXIT_OBSTRUCTION
    names = spec.variables[:-1]
    header = ",".join(
        ["u_re,u_im"]
        + ["%s_re,%s_im" % (v, v) for v in names]
        + ["v_re,v_im,im_v,sum_d,defect_re,defect_im,residual"]
    )
    jrows, rows = [], []
    for smp in samples:
        pt = smp.point
        vv = eval_v(spec, pt)
        defect = rogers_combo(spec, pt) - (vv + (smp.u / 2) * (smp.v / 2))
        sum_d = signed_d_sum(spec, pt)
        resid = _resid_inf(pt)
        jrows.append(
            {
                "u": _jc(smp.u),
                **{v: _jc(pt.values[v]) for v in names},
                "v": _jc(smp.v),
                "im_v": _jn(vv.imag),
                "sum_d": _jn(sum_d),
                "rogers_defect": _jc(defect),
                "residual": _jn(resid),
            }
        )
        cells = [smp.u.real, smp.u.imag]
        for v in names:
            cells += [pt.values[v].real, pt.values[v].imag]
        cells += [
            smp.v.real, smp.v.imag, vv.imag, sum_d, defect.real, defect.imag, resid,
        ]
        rows.append([_f(c) for c in cells])
    return status, Record({"samples": jrows}, header=header, rows=rows)


def cmd_selftest():
    # imported here: the other commands never need the suites
    from .selftest import run_selftest

    results = run_selftest()
    ok = all(r.passed for r in results)
    doc = {
        "passed": ok,
        "groups": [
            {
                "name": r.name,
                "passed": r.passed,
                "worst_over_tol": _jn(r.worst) if math.isfinite(r.worst) else None,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    rows = [
        [
            "%s %s (worst err/tol %.3g; %s)"
            % ("PASS" if r.passed else "FAIL", r.name, r.worst, r.detail)
        ]
        for r in results
    ]
    return (EXIT_OK if ok else EXIT_SELFTEST), Record(doc, rows=rows)


COMMANDS = {
    "complete": cmd_complete,
    "fill": cmd_fill,
    "scan": cmd_scan,
    "trace": cmd_trace,
}


def _run(args) -> int:
    if not math.isfinite(args.newton_tol):
        raise UsageError("tolerances must be finite")
    if args.newton_tol <= 0:
        raise UsageError("tolerances must be positive")
    if args.command == "selftest":
        status, rec = cmd_selftest()
    else:
        spec = _load_spec(args.spec)
        if args.command in _OUTPUT_KEYS:
            _check_variable_names(spec, args.command)
        inp = _command_input(args)
        try:
            complete = solve_complete(spec, newton_tol=args.newton_tol)
        except (NoConvergenceError, NoGeometricRootError) as e:
            print("complete structure failed: %s" % e, file=sys.stderr)
            return EXIT_COMPLETE_FAILED
        status, rec = COMMANDS[args.command](args, spec, complete, inp)
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
    except UsageError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    except (OSError, SpecFormatError, ValidationError, ZeroDenominatorError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except KnotpotError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_COMPLETE_FAILED


if __name__ == "__main__":
    sys.exit(main())
