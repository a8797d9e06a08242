"""The benchmark's workloads: inputs from a seed, one op, and its check.

Each workload is a closed loop with one caller. `make_pass(k)` returns
the k-th pass of inputs (a pure function of the seed and k, computed
outside the timed region); `run(op)` performs one op, checks its answer
and returns True when the answer is accepted, False when the program
reported an obstruction, and raises WrongAnswer when the check fails.
The program only ever sees the generated inputs.
"""

import cmath
import json
import math
import random
import subprocess
import sys

import knotpot as kp

from harness import WrongAnswer, child_env

VOL_COMPLETE = 2.82812208833
ROUTE_TOL = 1e-9
FILL_RESID_TOL = 1e-9
ACCEPT_TOL = 1e-10  # solve_filling's and the CLI's default accept_tol

# the 7/1 filling as README prints it
README_7_1 = {
    "volume": 2.5377252563035224,
    "cs_value": 0.2012304604041276,
    "geodesic_length": 0.1804045563131227,
}


def scan_slopes(pmax=40, qmax=8):
    """The slopes of `knotpot scan --pmax P --qmax Q`, in its order."""
    return [
        kp.normalize_slope(p, q)
        for q in range(1, qmax + 1)
        for p in range(-pmax, pmax + 1)
        if math.gcd(p, q) == 1
    ]


def _rng(seed, k, name):
    return random.Random("%s/%d/%d" % (name, seed, k))


# ------------------------------------------------------------------ scan


def check_filling(slope, sol, rep):
    """Raise WrongAnswer unless an accepted filling is a valid answer."""
    if not sol.filling_residual <= FILL_RESID_TOL:
        raise WrongAnswer("%s: filling residual %.3e" % (slope, sol.filling_residual))
    if not sol.critical.residual_inf_norm <= ACCEPT_TOL:
        raise WrongAnswer(
            "%s: residual %.3e" % (slope, sol.critical.residual_inf_norm)
        )
    gap = abs(rep.volume - rep.volume_from_shapes)
    if not gap <= ROUTE_TOL:
        raise WrongAnswer("%s: volume routes disagree by %.3e" % (slope, gap))
    if not 0.0 < rep.volume < VOL_COMPLETE:
        raise WrongAnswer("%s: volume %r outside (0, vol(5_2))" % (slope, rep.volume))
    if (slope.p, slope.q) == (7, 1):
        for field, want in README_7_1.items():
            got = getattr(rep, field)
            if not abs(got - want) <= 1e-12:
                raise WrongAnswer("7/1: %s %r, README has %r" % (field, got, want))


class Scan:
    """Every slope of the 40x8 scan box, one solve_filling + report_for each."""

    name = "scan"
    pass_size = 415
    deadline_s = 10.0
    import_line = "import knotpot"

    def __init__(self, seed):
        self.seed = seed
        self.slopes = scan_slopes()
        self.spec = kp.builtin_five_two()
        self.complete = kp.solve_complete(self.spec)

    def make_pass(self, k):
        order = list(self.slopes)
        _rng(self.seed, k, self.name).shuffle(order)
        return order

    def run(self, slope):
        try:
            sol = kp.solve_filling(self.spec, slope, complete=self.complete)
        except (kp.PathObstructionError, kp.NoConvergenceError):
            return False
        check_filling(slope, sol, kp.report_for(self.spec, slope, sol))
        return True


# ----------------------------------------------------------------- trace


def sample_rows(spec, samples):
    """The per-sample work `knotpot trace` prints, one tuple per sample."""
    rows = []
    for smp in samples:
        pt = smp.point
        vv = kp.eval_v(spec, pt)
        defect = kp.rogers_combo(spec, pt) - (vv + (smp.u / 2) * (smp.v / 2))
        sum_d = kp.im_v_alpha_parts(spec, pt)[0]
        resid = max(abs(r) for r in kp.reduced_residual(pt))
        rows.append((smp, vv, defect, sum_d, resid))
    return rows


def check_trace(u_end, n, rows):
    """Raise WrongAnswer unless a completed trace has every sample, solved."""
    if len(rows) != n:
        raise WrongAnswer("u_end %s: %d of %d samples" % (u_end, len(rows), n))
    for i, (smp, _, _, _, resid) in enumerate(rows, 1):
        if not abs(smp.u - u_end * i / n) <= 1e-12 * abs(u_end):
            raise WrongAnswer("u_end %s: sample %d sits at u = %s" % (u_end, i, smp.u))
        if not resid <= ACCEPT_TOL:
            raise WrongAnswer(
                "u_end %s: sample %d residual %.3e" % (u_end, i, resid)
            )


class Trace:
    """trace_deformation to a random u_end, plus the per-sample work."""

    name = "trace"
    samples = 32
    # each pass is a 144-point Fibonacci lattice over |u| in [0.05, 8] x
    # arg u, shifted at random by the seed: every pass covers the whole
    # rectangle evenly, so runs see the same mix of short and long paths
    # (cost grows steeply with |u| and spikes near obstructions)
    pass_size, lattice_step = 144, 89
    u_min, u_max = 0.05, 8.0
    deadline_s = 15.0
    import_line = "import knotpot"

    def __init__(self, seed):
        self.seed = seed
        self.spec = kp.builtin_five_two()
        self.complete = kp.solve_complete(self.spec)

    def make_pass(self, k):
        rng = _rng(self.seed, k, self.name)
        shift_mod, shift_arg = rng.random(), rng.random()
        n = self.pass_size
        ops = [
            cmath.rect(
                self.u_min + (self.u_max - self.u_min) * ((i / n + shift_mod) % 1.0),
                2 * math.pi * ((i * self.lattice_step / n + shift_arg) % 1.0),
            )
            for i in range(n)
        ]
        rng.shuffle(ops)
        return ops

    def run(self, u_end):
        try:
            samples = kp.trace_deformation(
                self.spec, u_end, self.samples, complete=self.complete
            )
            done = True
        except kp.PathObstructionError as e:
            samples = getattr(e, "partial", [])
            done = False
        rows = sample_rows(self.spec, samples)
        if done:
            check_trace(u_end, self.samples, rows)
        return done


# ------------------------------------------------------------------- cli
#
# A CLI answer is compared as the dict of fields it prints, each as the
# 15-significant-digit text the CLI prints it with; complex values are
# written a+bi as in the table format.

FORMATS = ("table", "json", "csv")
TRACE_COLUMNS = (
    "u_re,u_im,x_re,x_im,y_re,y_im,v_re,v_im,im_v,sum_d,defect_re,defect_im,residual"
)


def _f(x):
    return format(float(x), ".15g")


def _fc(z):
    return "%s%s%si" % (_f(z.real), "+" if z.imag >= 0 else "-", _f(abs(z.imag)))


def _jc(d):
    return _fc(complex(d["re"], d["im"]))


class CliRequest:
    """One `python -m knotpot.cli` invocation."""

    def __init__(self, command, arg, fmt):
        self.command, self.arg, self.fmt = command, arg, fmt

    @property
    def key(self):
        return (self.command, self.arg)

    def argv(self):
        tail = {
            "complete": [],
            "fill": ["--slope=%s" % self.arg],
            "trace": ["--u-end=%s" % self.arg],
        }[self.command]
        return ["--format", self.fmt, self.command] + tail

    def __repr__(self):
        return "knotpot " + " ".join(self.argv())


def expected_answer(spec, complete, command, arg):
    """(exit code, printed fields) the library gives for a request."""
    if command == "complete":
        pt = complete.point
        fields = {v: _fc(pt.values[v]) for v in spec.variables}
        fields.update(
            volume=_f(kp.eval_v(spec, pt).imag),
            volume_from_shapes=_f(kp.volume_from_shapes(kp.shapes_from_point(pt))),
            eta=_fc(kp.eval_eta(spec, pt)[0]),
            residual=_f(max(abs(r) for r in kp.reduced_residual(pt))),
        )
        return 0, fields
    if command == "fill":
        p, q = (int(s) for s in arg.split("/"))
        slope = kp.normalize_slope(p, q)
        try:
            sol = kp.solve_filling(spec, slope, complete=complete)
        except (kp.PathObstructionError, kp.NoConvergenceError):
            return 3, None
        rep = kp.report_for(spec, slope, sol)
        return 0, {
            "volume": _f(rep.volume),
            "volume_from_shapes": _f(rep.volume_from_shapes),
            "cs_mod_half": _f(rep.cs_value),
            "length": _f(rep.geodesic_length),
            "torsion": _f(rep.geodesic_torsion),
            "u": _fc(sol.u.value),
            "v": _fc(sol.v.value),
            "residual": _f(sol.critical.residual_inf_norm),
            "filling_residual": _f(sol.filling_residual),
            "steps": str(sol.path_steps),
        }
    u_end = complex(arg.replace("i", "j"))
    try:
        samples = kp.trace_deformation(spec, u_end, 8, complete=complete)
    except kp.PathObstructionError:
        return 3, None
    rows = []
    for smp, vv, defect, sum_d, resid in sample_rows(spec, samples):
        x, y = (smp.point.values[v] for v in spec.variables[:2])
        rows.append(
            ",".join(
                _f(a)
                for a in (
                    smp.u.real, smp.u.imag, x.real, x.imag, y.real, y.imag,
                    smp.v.real, smp.v.imag, vv.imag, sum_d,
                    defect.real, defect.imag, resid,
                )
            )
        )
    return 0, {"rows": rows}


def parse_output(command, fmt, text):
    """The printed fields of a CLI answer, in expected_answer's form."""
    if fmt == "json":
        doc = json.loads(text)
        if command == "trace":
            rows = []
            for s in doc["samples"]:
                cells = []
                for k in ("u", "x", "y", "v"):
                    cells += [s[k]["re"], s[k]["im"]]
                cells += [s["im_v"], s["sum_d"]]
                cells += [s["rogers_defect"]["re"], s["rogers_defect"]["im"]]
                cells.append(s["residual"])
                rows.append(",".join(_f(c) for c in cells))
            return {"rows": rows}
        out = {}
        for k, v in doc.items():
            if isinstance(v, dict) and set(v) == {"re", "im"}:
                out[k] = _jc(v)
            elif isinstance(v, float):
                out[k] = _f(v)
            elif isinstance(v, int):
                out[k] = str(v)
        return out
    lines = text.splitlines()
    if command == "trace":  # table and csv print the same rows
        if not lines or lines[0] != TRACE_COLUMNS:
            raise WrongAnswer("trace output lacks its header")
        return {"rows": lines[1:]}
    sep = " = " if fmt == "table" else ","
    return dict(line.split(sep, 1) for line in lines)


def check_cli(request, expected, returncode, stdout):
    """Raise WrongAnswer unless a CLI run printed the library's answer."""
    code, fields = expected
    if returncode not in (0, 3) or returncode != code:
        raise WrongAnswer("%r: exit %d, expected %d" % (request, returncode, code))
    if code != 0:
        return False
    try:
        got = parse_output(request.command, request.fmt, stdout)
    except (ValueError, KeyError, TypeError) as e:
        raise WrongAnswer("%r: unreadable output (%s)" % (request, e)) from None
    for k, want in fields.items():
        if got.get(k) != want:
            raise WrongAnswer("%r: %s = %r, library gives %r" % (request, k, got.get(k), want))
    return True


class Cli:
    """One fresh `python -m knotpot.cli` process per op."""

    name = "cli"
    # each pass is exactly 70 fill, 15 complete and 15 trace requests,
    # shuffled, with the format rotating table -> json -> csv
    mix = (("fill", 70), ("complete", 15), ("trace", 15))
    pass_size = sum(n for _, n in mix)
    deadline_s = 20.0
    import_line = "import knotpot.cli"

    def __init__(self, seed, src, root):
        self.seed = seed
        self.env = child_env(src)
        self.root = root
        self.spec = kp.builtin_five_two()
        self.complete = kp.solve_complete(self.spec)
        self.slopes = scan_slopes()
        self.expected = {}

    def make_pass(self, k):
        rng = _rng(self.seed, k, self.name)
        commands = [c for c, n in self.mix for _ in range(n)]
        rng.shuffle(commands)
        ops = []
        for i, command in enumerate(commands):
            if command == "fill":
                s = rng.choice(self.slopes)
                arg = "%d/%d" % (s.p, s.q)
            elif command == "trace":
                u = cmath.rect(rng.uniform(0.05, 1.0), rng.uniform(0, 2 * math.pi))
                arg = "%.6f%+.6fi" % (u.real, u.imag)
            else:
                arg = None
            req = CliRequest(command, arg, FORMATS[i % len(FORMATS)])
            if req.key not in self.expected:
                self.expected[req.key] = expected_answer(
                    self.spec, self.complete, command, arg
                )
            ops.append(req)
        return ops

    def run(self, req):
        proc = subprocess.run(
            [sys.executable, "-m", "knotpot.cli"] + req.argv(),
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.root,
            timeout=self.deadline_s - 1.0,  # before the harness's alarm
        )
        return check_cli(req, self.expected[req.key], proc.returncode, proc.stdout)
