"""Bit-for-bit pin of the scan 40x8 fillings.

The CLI snapshots cover scan 8x3 only. This test solves every slope of
`knotpot scan --pmax 40 --qmax 8` in-process and hashes, per slope,
the repr of what the solver and the invariants produce (or the type
and message of the error that stopped the slope). The sha256 of that
text is committed, so a change to any digit of any of the 415 results
shows up here.

The scan is solved once per process, by `scan_runs`; this digest and
the value tables of `tests/test_value_tables.py` all read that one
walk.

The digest belongs to one numeric platform. Rewrite it only when an
output change is intended:

    PYTHONPATH=src python tests/test_scan_digest.py
"""

import functools
import hashlib
import math
import os

from knotpot.errors import NoConvergenceError, PathObstructionError
from knotpot.invariants import report_for
from knotpot.potential import builtin_five_two
from knotpot.solver import normalize_slope, solve_complete, solve_filling

DIGEST = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "scan_40x8.sha256"
)

PMAX, QMAX = 40, 8


@functools.cache
def scan_runs():
    """The complete structure and, per slope of the scan in `knotpot
    scan` order, (slope, FillingSolution or the error that stopped it,
    InvariantReport or None)."""
    spec = builtin_five_two()
    complete = solve_complete(spec)
    runs = []
    for q in range(1, QMAX + 1):
        for p in range(-PMAX, PMAX + 1):
            if math.gcd(p, q) != 1:
                continue
            slope = normalize_slope(p, q)
            try:
                sol = solve_filling(spec, slope, complete=complete)
            except (PathObstructionError, NoConvergenceError) as e:
                runs.append((slope, e, None))
                continue
            runs.append((slope, sol, report_for(spec, slope, sol)))
    return complete, tuple(runs)


def scan_lines():
    """One line per slope of the scan, in `knotpot scan` order."""
    complete, runs = scan_runs()
    lines = ["complete %r %r" % (complete.point.values, complete.residual_inf_norm)]
    for slope, sol, rep in runs:
        if rep is None:
            lines.append("%s %s %s" % (slope, type(sol).__name__, sol))
            continue
        lines.append(
            "%s %r %r %r %r %d %d %r"
            % (
                slope,
                rep,
                sol.critical.point.values,
                sol.u,
                sol.v,
                sol.path_steps,
                sol.critical.newton_iters,
                sol.critical.residual_inf_norm,
            )
        )
    return lines


def digest_of(lines):
    """sha256 of the lines, each ended by a newline."""
    text = "\n".join(lines) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_scan_40x8_bit_for_bit():
    lines = scan_lines()
    assert len(lines) == 1 + 415
    assert sum(" InvariantReport(" in line for line in lines) == 408
    with open(DIGEST) as fh:
        expected = fh.read().split()[0]
    assert digest_of(lines) == expected


if __name__ == "__main__":
    with open(DIGEST, "w") as fh:
        fh.write(digest_of(scan_lines()) + "  scan_40x8\n")
    print("wrote", DIGEST)
