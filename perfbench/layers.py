"""Per-layer counts and times, from wrappers around knotpot's public API.

The traced run swaps every public function of the layers
dilog -> potential -> solver -> invariants -> cli for a wrapper that
records its calls and time, in every knotpot module that bound the
function (`knotpot.potential.li2`, `knotpot.solver.log_hessian`, ...),
not only where it is defined. Wrappers keep a span stack, so a layer's
self time is its spans' time minus the time of the wrapped calls made
under them. Nothing under src/ changes.
"""

import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import knotpot as kp

from harness import child_env

LAYERS = ("dilog", "potential", "solver", "invariants", "cli")

# functions reported by name, per layer; every other public function of
# a layer is wrapped too, so that its time counts as that layer's
REPORTED = {
    "dilog": ("li2", "bloch_wigner_d", "rogers_r", "continue_log"),
    "potential": (
        "make_point", "advance_point", "advance_point_logs", "log_gradient",
        "log_hessian", "reduced_residual", "eval_v", "eta_log", "d_eta_log",
    ),
    "solver": ("solve_filling", "solve_complete", "trace_deformation"),
    "invariants": ("report_for", "rogers_combo", "im_v_alpha_parts"),
    "cli": ("main",),
}
POINT_BUILDERS = ("make_point", "advance_point", "advance_point_logs")
KERNELS = ("li2", "bloch_wigner_d", "rogers_r")
KERNEL_ARGS_KEPT = 4096


def _layer_of(fn):
    """Layer a knotpot function belongs to, by the module defining it."""
    mod = getattr(fn, "__module__", "") or ""
    if mod in ("knotpot.dilog", "knotpot._dilog_pure", "knotpot._dilog_core"):
        return "dilog"
    last = mod.rsplit(".", 1)[-1]
    return last if mod.startswith("knotpot.") and last in LAYERS else None


def _public_functions():
    """{(layer, name): function} for every public function of the layers."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("knotpot") or mod is None:
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_") or not callable(obj) or isinstance(obj, type):
                continue
            layer = _layer_of(obj)
            if layer is not None and obj.__name__ == name:
                found[layer, name] = obj
    return found


class Stat:
    __slots__ = ("calls", "total", "self_time", "rejects")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.rejects = 0


class Tracer:
    """Span stack and per-function tallies for one traced region."""

    def __init__(self):
        self.stats = {}
        self.stack = []
        self.path_steps = 0
        self.newton_iters = 0
        self.kernel_args = {k: [] for k in KERNELS}
        self.trace_depth = 0

    def wrap(self, layer, name, fn):
        stat = self.stats.setdefault((layer, name), Stat())
        stack = self.stack
        perf = time.perf_counter
        args_kept = self.kernel_args.get(name)

        def wrapper(*args, **kwargs):
            if args_kept is not None and len(args_kept) < KERNEL_ARGS_KEPT:
                args_kept.append(args[0])
            stack.append(0.0)
            in_trace = name == "trace_deformation"
            self.trace_depth += in_trace
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except kp.KnotpotError:
                stat.rejects += 1
                raise
            finally:
                dt = perf() - t0
                self.trace_depth -= in_trace
                child = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child
                if stack:
                    stack[-1] += dt
            self._count(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, result):
        # the iteration and step counts the solver reports on its results
        if name == "solve_filling":
            self.path_steps += result.path_steps
            self.newton_iters += result.critical.newton_iters
        elif name == "solve_complete":
            self.newton_iters += result.newton_iters

    def _fiber_counter(self, fn):
        # trace_deformation reports no iteration count; at this commit
        # the fiber Newton solves under it report theirs on the
        # CriticalPoint they return, so those are counted instead
        def fiber(*args, **kwargs):
            cp = fn(*args, **kwargs)
            if self.trace_depth:
                self.newton_iters += cp.newton_iters
            return cp

        return fiber

    @contextmanager
    def active(self):
        """Swap the wrappers in, in every knotpot module, for the body."""
        originals = _public_functions()
        wrappers = {id(fn): self.wrap(layer, name, fn)
                    for (layer, name), fn in originals.items()}
        fiber = getattr(kp.solver, "_newton_fiber", None)
        if fiber is not None:
            wrappers[id(fiber)] = self._fiber_counter(fiber)
        swapped = []
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("knotpot") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and callable(obj):
                    setattr(mod, attr, w)
                    swapped.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in swapped:
                setattr(mod, attr, obj)

    def stat(self, layer, name):
        return self.stats.get((layer, name), Stat())

    def self_ms(self, layer):
        return 1e3 * sum(s.self_time for (l, _), s in self.stats.items() if l == layer)


def kernel_ns_per_call(fn, args, repeats=5):
    """Best-of-N untraced time of a dilog kernel over the given arguments."""
    if not args:
        return 0.0
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for z in args:
            fn(z)
        best = min(best, time.perf_counter() - t0)
    return 1e9 * best / len(args)


def _spawn_ms(code, env, runs=5):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def cli_probes(src):
    """Interpreter, numpy import and knotpot.cli import costs, in ms."""
    env = child_env(src)
    interp = _spawn_ms("pass", env)
    return {
        "cli.interp_ms": (interp, "ms"),
        "cli.numpy_import_ms": (_spawn_ms("import numpy", env) - interp, "ms"),
        "cli.import_ms": (_spawn_ms("import knotpot.cli", env) - interp, "ms"),
    }


def per_layer(tracer):
    """The per-layer metrics of a traced region, as {name: (value, unit)}."""
    out = {}
    for layer, names in REPORTED.items():
        for name in names:
            s = tracer.stat(layer, name)
            key = "%s.%s" % (layer, name)
            if name == "continue_log":
                out[key + ".calls"] = (s.calls, "count")
                out[key + ".rejects"] = (s.rejects, "count")
            elif name not in POINT_BUILDERS:
                out[key + ".calls"] = (s.calls, "count")
                out[key + ".ms"] = (1e3 * s.total, "ms")
        out["%s.self_ms" % layer] = (tracer.self_ms(layer), "ms")
    for name in KERNELS:
        out["dilog.%s.ns_per_call" % name] = (
            kernel_ns_per_call(getattr(kp, name), tracer.kernel_args[name]), "ns"
        )
    builds = [tracer.stat("potential", n) for n in POINT_BUILDERS]
    out["potential.point_builds"] = (sum(s.calls for s in builds), "count")
    out["potential.point_build_rejects"] = (sum(s.rejects for s in builds), "count")
    hessians = tracer.stat("potential", "log_hessian").calls
    out["solver.path_steps"] = (tracer.path_steps, "count")
    out["solver.newton_iters"] = (tracer.newton_iters, "count")
    out["solver.useful_iter_frac"] = (
        tracer.newton_iters / hessians if hessians else 0.0, "ratio"
    )
    return out
