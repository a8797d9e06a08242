"""Timing machinery shared by the workloads.

Closed-loop timing with one caller, a per-op deadline, set-up probes in
fresh interpreters, and a CPU-speed probe.

On a shared 2-core VM the CPU's speed drifts by up to 2x over tens of
seconds, and CPU time drifts with wall time, so neither clock alone
gives steady figures. Every time is therefore measured on the wall
clock and scaled to a reference speed: between ops the harness times a
fixed calibration kernel (plain Python and small numpy calls, none of
them from knotpot), and a duration measured while that kernel ran at k
times CAL_REF_S is divided by k. Units stay seconds, at reference
speed. The kernel shares no code with the program, so no change to the
program can move it. The scaling is approximate, since not all code
speeds up alike, which is why run.py keeps the work and the probe on
one CPU.
"""

import bisect
import cmath
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

# duration of one calibration kernel call at the reference speed; it is
# about what the kernel takes on a quiet 2-core x86-64 VM (Python 3.11)
CAL_REF_S = 6.0e-4
CAL_EVERY_S = 0.1
_CAL_WINDOW = 2  # scale with the median of 2w+1 neighbouring probes

_M = np.array([[2.0, 0.5, 0.1], [0.3, 1.5, 0.2], [0.1, 0.4, 3.0]], dtype=complex)
_B = np.array([1.0, 2.0, 3.0], dtype=complex)


def _cal_kernel():
    acc = 0j
    vals = {"x": 0.3 + 0.7j, "y": -0.2 + 0.5j}
    for i in range(200):
        z = vals["x"] * (1 + 1e-3 * i) / vals["y"]
        l = cmath.log(1 - z)
        acc += l * l / (1 + z) + math.log(abs(z)) * cmath.phase(z)
    for _ in range(20):
        acc += np.linalg.solve(_M, _B)[0] + np.array([acc, 1.0, 2.0]).sum()
    return acc


class Clock:
    """Wall clock with CPU-speed probes, and the scaling they imply."""

    def __init__(self):
        self._t = []
        self._cal = []
        self.probe()

    def probe(self):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            _cal_kernel()
            runs.append(time.perf_counter() - t0)
        self._t.append(time.perf_counter())
        self._cal.append(statistics.median(runs))

    def maybe_probe(self):
        if time.perf_counter() - self._t[-1] >= CAL_EVERY_S:
            self.probe()

    def scale(self, t):
        """Factor taking a duration measured at time t to reference speed."""
        j = bisect.bisect_right(self._t, t)
        lo = max(0, j - _CAL_WINDOW - 1)
        window = self._cal[lo:j + _CAL_WINDOW]
        return CAL_REF_S / statistics.median(window)


class OpDeadline(BaseException):
    """An op ran past its deadline.

    A BaseException, so that no `except Exception` in the program can
    swallow it and keep a runaway op going.
    """


def _on_alarm(signum, frame):
    raise OpDeadline()


@contextmanager
def deadline(seconds):
    """Raise OpDeadline in the body once `seconds` of wall time pass."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class WrongAnswer(Exception):
    """An op returned an answer that failed the workload's check."""


def child_env(src):
    """Environment for a child interpreter that imports knotpot from src."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def setup_probe_s(src, import_line, clock, runs=7):
    """Median time from spawning an interpreter to the first op being ready.

    The child runs `import_line`, builds the built-in spec and solves
    the complete structure, then says so on stdout.
    """
    code = (
        import_line + "\n"
        "import sys, knotpot\n"
        "knotpot.solve_complete(knotpot.builtin_five_two())\n"
        "sys.stdout.write('ready\\n'); sys.stdout.flush()\n"
    )
    env = child_env(src)
    times = []
    for _ in range(runs):
        clock.probe()
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, text=True
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
        clock.probe()
        times.append((t1 - t0) * clock.scale(t0))
    return statistics.median(times)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Outcome:
    """Tally of a timed run: per-op input, start, duration and verdict."""

    OK, OBSTRUCTED, FAILED = "ok", "obstructed", "failed"

    def __init__(self):
        self.ops = []
        self.starts = []
        self.durations = []
        self.verdicts = []
        self.errors = []
        self.first_pass_ok = 0

    def add(self, op, start, duration, verdict):
        self.ops.append(op)
        self.starts.append(start)
        self.durations.append(duration)
        self.verdicts.append(verdict)

    @property
    def attempted(self):
        return len(self.verdicts)

    @property
    def failed(self):
        return self.verdicts.count(self.FAILED)


def run_op(workload, op, outcome, deadline_s):
    """Run one op under its deadline and record its verdict."""
    t0 = time.perf_counter()
    try:
        with deadline(deadline_s):
            accepted = workload.run(op)
        verdict = Outcome.OK if accepted else Outcome.OBSTRUCTED
    except OpDeadline:
        verdict = Outcome.FAILED
        outcome.errors.append("%s: past the %.0f s deadline" % (op, deadline_s))
    except Exception as e:  # a crash or a wrong answer is a failed op
        verdict = Outcome.FAILED
        outcome.errors.append("%s: %s: %s" % (op, type(e).__name__, e))
    outcome.add(op, t0, time.perf_counter() - t0, verdict)
    return verdict


def timed_loop(workload, seconds, max_seconds):
    """Closed loop: passes over the workload's inputs until time is up.

    The first pass always completes (it fixes ops_ok and the op floor);
    after it, the loop stops once `seconds` have passed. `max_seconds`
    caps the whole loop, so a run of runaway ops still ends.
    """
    clock = Clock()
    outcome = Outcome()
    t_start = time.perf_counter()
    k = 0
    stop = False
    while not stop:
        for op in workload.make_pass(k):  # untimed: inputs, expected answers
            run_op(workload, op, outcome, workload.deadline_s)
            clock.maybe_probe()
            elapsed = time.perf_counter() - t_start
            stop = elapsed >= max_seconds or elapsed >= seconds
            if elapsed >= max_seconds or (k > 0 and stop):
                break
        if k == 0:
            outcome.first_pass_ok = outcome.verdicts.count(Outcome.OK)
        k += 1
    clock.probe()
    return outcome, clock


def end_to_end(outcome, clock, setup_s, rss_mb):
    """The end-to-end metrics of a timed run, as {name: (value, unit)}.

    Percentiles are taken over distinct inputs, each timed by the median
    of its repetitions in the run. Scan meets every slope once per pass,
    and on a shared 2-core VM one slope's op times scatter by ~14% (CV),
    which would otherwise set op_ms_p90. Inputs that do not recur (trace,
    cli) count once each.
    """
    per_input = {}
    for op, t, d in zip(outcome.ops, outcome.starts, outcome.durations):
        per_input.setdefault(op, []).append(d * clock.scale(t))
    total = sum(sum(v) for v in per_input.values())
    times = [statistics.median(v) for v in per_input.values()]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (outcome.attempted / total, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(times), "ms"),
        "op_ms_p90": (1e3 * statistics.quantiles(times, n=10)[8], "ms"),
        "ops_ok": (outcome.first_pass_ok, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
