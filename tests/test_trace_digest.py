"""Bit-for-bit pin of deformation traces.

`tests/test_scan_digest.py` pins the filling homotopy; this test pins
the fiber Newton loop behind `trace_deformation`. It runs a handful of
32-sample traces in-process: short ones in several directions, one
whose steps are halved many times, one whose fiber Newton halves its
line search, and one that is obstructed. Per
sample it hashes the repr of `u`, the point values and `v`; for the
obstructed trace it also hashes the error type, its message,
`t_reached` and the length of the partial trace. The sha256 of that
text is committed, so a change to any digit of any sample shows up
here.

The traces are run once per process, by `trace_runs`; this digest and
the trace value table of `tests/test_value_tables.py` both read them.

The digest belongs to one numeric platform. Rewrite it only when an
output change is intended:

    PYTHONPATH=src python tests/test_trace_digest.py
"""

import functools
import os

from knotpot.errors import PathObstructionError
from knotpot.potential import builtin_five_two
from knotpot.solver import solve_complete, trace_deformation
from test_scan_digest import digest_of

DIGEST = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "trace.sha256"
)

SAMPLES = 32

# short paths in four directions, two of middle length, one with heavy
# step halving, one whose fiber Newton halves its line search, and one
# that is obstructed
U_ENDS = (
    0.1j,
    0.05 + 0j,
    -0.3 + 0.2j,
    0.4 - 0.4j,
    1.5 + 0.5j,
    -2.0 - 1.0j,
    -6.230013686454468 - 0.040184277262383564j,
    -6.583546862500809 - 1.6733728079929684j,
    4.617509453821086 + 3.612771868344755j,
)


def _sample_lines(samples):
    return ["%r %r %r" % (s.u, s.point.values, s.v) for s in samples]


@functools.cache
def trace_runs():
    """Per trace of U_ENDS, (u_end, samples, obstruction or None): the
    samples reached, and the PathObstructionError that stopped an
    obstructed trace (its samples are the error's partial trace)."""
    spec = builtin_five_two()
    complete = solve_complete(spec)
    runs = []
    for u_end in U_ENDS:
        try:
            samples = trace_deformation(spec, u_end, SAMPLES, complete=complete)
        except PathObstructionError as e:
            runs.append((u_end, e.partial, e))
            continue
        runs.append((u_end, samples, None))
    return tuple(runs)


def trace_lines():
    """One line per sample of every trace, plus one per obstruction."""
    lines = []
    for u_end, samples, e in trace_runs():
        lines.append("trace %r" % (u_end,))
        lines.extend(_sample_lines(samples))
        if e is not None:
            lines.append(
                "%s %s %r %d" % (type(e).__name__, e, e.t_reached, len(samples))
            )
    return lines


def test_traces_bit_for_bit():
    lines = trace_lines()
    assert sum(line.startswith("trace ") for line in lines) == len(U_ENDS)
    assert sum(line.startswith("PathObstructionError ") for line in lines) == 1
    with open(DIGEST) as fh:
        expected = fh.read().split()[0]
    assert digest_of(lines) == expected


if __name__ == "__main__":
    with open(DIGEST, "w") as fh:
        fh.write(digest_of(trace_lines()) + "  trace\n")
    print("wrote", DIGEST)
