"""Bit-for-bit pin of the per-sample invariants of deformation traces.

`tests/test_trace_digest.py` pins the samples themselves; this test
pins what is evaluated on each of them. On every sample of the digest
traces (`trace_runs`, partial traces included) it hashes the repr of
eval_v, rogers_combo, im_v_alpha_parts without a slope and with the
slope 7/1, reduced_residual and eta_log, or the type and message of the
error one of them raised. The sha256 of that text is committed, so a
change to any digit of any of them shows up here.

The digest belongs to one numeric platform. Rewrite it only when an
output change is intended:

    PYTHONPATH=src python tests/test_sample_digest.py
"""

import os

from knotpot.errors import KnotpotError
from knotpot.invariants import im_v_alpha_parts, rogers_combo
from knotpot.potential import eta_log, eval_v, reduced_residual
from knotpot.solver import normalize_slope
from test_scan_digest import digest_of
from test_trace_digest import trace_runs

DIGEST = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "sample.sha256"
)

_SLOPE = normalize_slope(7, 1)


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except KnotpotError as e:
        return "%s %s" % (type(e).__name__, e)


def sample_lines():
    """One line per sample of every digest trace."""
    lines = []
    for u_end, samples, _ in trace_runs():
        lines.append("trace %r" % (u_end,))
        for smp in samples:
            pt = smp.point
            spec = pt.spec
            lines.append(" ".join((
                _outcome(eval_v, spec, pt),
                _outcome(rogers_combo, spec, pt),
                _outcome(im_v_alpha_parts, spec, pt),
                _outcome(im_v_alpha_parts, spec, pt, _SLOPE),
                _outcome(reduced_residual, pt),
                _outcome(eta_log, spec, pt),
            )))
    return lines


def test_sample_invariants_bit_for_bit():
    lines = sample_lines()
    assert len(lines) > 9 * 16
    with open(DIGEST) as fh:
        expected = fh.read().split()[0]
    assert digest_of(lines) == expected


if __name__ == "__main__":
    with open(DIGEST, "w") as fh:
        fh.write(digest_of(sample_lines()) + "  sample\n")
    print("wrote", DIGEST)
