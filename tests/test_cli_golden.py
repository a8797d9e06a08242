"""Byte-for-byte snapshots of the command line: stdout, stderr, exit code.

Each file in tests/data/cli/ records one in-process run of cli.main:
its argv, the environment it set, and what came out. The test reruns
every case and compares all three outputs exactly, so any change to a
printed digit, a message or an exit status shows up here.

The snapshots hold 15-digit numbers, so they belong to one numeric
platform. Rewrite them only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from knotpot.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli")

_PER_FORMAT = {
    "complete": ["complete"],
    "fill_7_1": ["fill", "--slope", "7/1"],
    "fill_5_2": ["fill", "--slope", "5/2"],
    "fill_minus_1": ["fill", "--slope", "-1"],  # obstructed: exit 3
    "scan_3x2": ["scan", "--pmax", "3", "--qmax", "2"],
    "scan_8x3": ["scan", "--pmax", "8", "--qmax", "3"],
    "trace_01i": ["trace", "--u-end", "0.1i", "--samples", "3"],
    "trace_10": ["trace", "--u-end", "10+0i", "--samples", "4"],  # exit 3, partial
    "selftest": ["selftest"],
}

CASES = {}
for _name, _argv in _PER_FORMAT.items():
    CASES[_name + ".table"] = (_argv, {})  # table is the default format
    for _fmt in ("json", "csv"):
        CASES["%s.%s" % (_name, _fmt)] = (["--format", _fmt] + _argv, {})
CASES.update(
    {
        "usage_fill_slope_syntax": (["fill", "--slope", "p/q"], {}),
        "usage_fill_meridian": (["fill", "--slope", "1/0"], {}),
        "usage_scan_pmax": (["scan", "--pmax", "0"], {}),
        "usage_trace_u_end": (["trace", "--u-end", "zero"], {}),
        "usage_trace_samples": (["trace", "--u-end", "0.1i", "--samples", "0"], {}),
        "usage_newton_tol": (["--newton-tol", "-1", "complete"], {}),
        "usage_unknown_builtin": (["--spec", "builtin:nope", "fill", "--slope", "7"], {}),
    }
)


def invoke(argv, env):
    """Run cli.main in-process; {argv, env, exit, stdout, stderr}."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.setenv("COLUMNS", "80")  # argparse wraps usage text to this width
        for k, v in env.items():
            mp.setenv(k, v)
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return {
        "argv": list(argv),
        "env": dict(env),
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def _path(name):
    return os.path.join(DATA, name + ".json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_snapshot(name):
    with open(_path(name)) as fh:
        expected = json.load(fh)
    assert invoke(*CASES[name]) == expected


def test_every_snapshot_has_a_case():
    on_disk = {f[: -len(".json")] for f in os.listdir(DATA) if f.endswith(".json")}
    assert on_disk == set(CASES)


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for name, case in sorted(CASES.items()):
        with open(_path(name), "w") as fh:
            json.dump(invoke(*case), fh, indent=1)
            fh.write("\n")
        print("wrote", _path(name))
