"""knotpot benchmark: the scan, trace and cli workloads.

    python3 perfbench/run.py --workload {scan,trace,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; knotpot is imported from its src/
directory, never from an installed copy. The workload's inputs are a
pure function of --seed. Every answer is checked; an op that crashes,
answers wrongly or runs past its deadline counts as failed.

--trace 0 times a closed loop with one caller for --seconds seconds
(always at least one full pass of the workload's inputs) and prints the
end-to-end metrics. --trace 1 runs exactly one pass untraced and then
once more with every public function of knotpot wrapped, and prints the
per-layer metrics: counts that repeat exactly for a seed, times, and the
tracing overhead against the untraced pass.

Human-readable lines go to stdout first; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("scan", "trace", "cli")
# the timed loop stops by then whatever --seconds says, leaving room
# for set-up and one op's deadline inside the 180 s a run may take
MAX_LOOP_S = 130.0
TRACED_DEADLINE_FACTOR = 3.0


def import_program():
    """Import knotpot from the checkout's src/, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "knotpot", "__init__.py")):
        sys.exit("perfbench: no knotpot sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import knotpot

    if not os.path.abspath(knotpot.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: knotpot came from %s, not %s" % (knotpot.__file__, SRC))
    import knotpot.cli  # noqa: F401  (the cli layer is traced too)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The speed probe (harness.Clock) then times the CPU the work runs
    on; on a 2-core VM the two cores are slowed by different neighbours.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def make_workload(name, seed):
    import workloads

    if name == "cli":
        return workloads.Cli(seed, SRC, ROOT)
    return {"scan": workloads.Scan, "trace": workloads.Trace}[name](seed)


def run_untraced(name, seed, seconds):
    from harness import Clock, end_to_end, peak_rss_mb, setup_probe_s, timed_loop

    wl = make_workload(name, seed)
    setup_s = setup_probe_s(SRC, wl.import_line, Clock())
    outcome, clock = timed_loop(wl, seconds, MAX_LOOP_S)
    rss = peak_rss_mb(children=name == "cli")
    metrics = end_to_end(outcome, clock, setup_s, rss)
    return outcome.attempted, outcome.failed, outcome.errors, metrics


class InProcessCli:
    """The cli workload's requests, answered by knotpot.cli.main in-process."""

    def __init__(self, wl):
        self.wl = wl
        self.deadline_s = wl.deadline_s

    def run(self, req):
        import knotpot.cli
        from workloads import check_cli

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = knotpot.cli.main(req.argv())
        return check_cli(req, self.wl.expected[req.key], code, out.getvalue())


def run_traced(name, seed):
    from harness import Clock, Outcome, run_op
    from layers import Tracer, cli_probes, per_layer

    wl = make_workload(name, seed)
    ops = wl.make_pass(0)
    runner = InProcessCli(wl) if name == "cli" else wl
    deadline_s = wl.deadline_s * TRACED_DEADLINE_FACTOR

    def one_pass():
        outcome, clock = Outcome(), Clock()
        for op in ops:
            run_op(runner, op, outcome, deadline_s)
            clock.maybe_probe()
        clock.probe()
        ref = sum(d * clock.scale(t) for t, d in zip(outcome.starts, outcome.durations))
        return outcome, ref

    plain, plain_s = one_pass()
    tracer = Tracer()
    with tracer.active():
        traced, traced_s = one_pass()
    metrics = per_layer(tracer)
    metrics.update(cli_probes(SRC))
    metrics["tracing.untraced_s"] = (plain_s, "s")
    metrics["tracing.traced_s"] = (traced_s, "s")
    metrics["tracing.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    failed = plain.failed + traced.failed
    return traced.attempted, failed, plain.errors + traced.errors, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    import_program()
    pin_to_one_cpu()
    # the CLI must answer with the library's default tolerance
    os.environ.pop("KNOTPOT_TOL", None)

    if args.trace:
        attempted, failed, errors, metrics = run_traced(args.workload, args.seed)
    else:
        attempted, failed, errors, metrics = run_untraced(
            args.workload, args.seed, args.seconds
        )

    for err in errors[:20]:
        print("FAILED %s" % err, file=sys.stderr)
    print("workload %s, seed %d, %d ops, %d failed"
          % (args.workload, args.seed, attempted, failed))
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
