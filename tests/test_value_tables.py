"""Value-level pins of the scan 40x8 fillings and the digest traces.

The digests in `tests/data` pin every bit, so any change that moves the
last digit (a different linear solve, a regrouped sum) must re-capture
them. These two tables are the check such a change is held to: they
were written by the code before such a change, and the current code
must reproduce them to 1e-12 with the same outcomes.

`scan_40x8_values.json` holds, per slope of `knotpot scan --pmax 40
--qmax 8`, the outcome (`accepted` or the error type) and, for an
accepted slope, the volume, CS value, core length and torsion. CS is
compared modulo 1/2 and torsion modulo 2 pi / q, the ambiguity each is
reported with.

`trace_values.json` holds the 9 traces of `tests/test_trace_digest.py`:
per sample `u`, the point values and `v`, and for the obstructed trace
the error type, `t_reached` and the length of the partial trace.

Both tables read the one walk of each run that the digests read:
`scan_runs` of `tests/test_scan_digest.py` and `trace_runs` of
`tests/test_trace_digest.py`.

Complex numbers are stored as [real, imag] pairs of floats, which JSON
writes as their repr. Rewrite the tables only from code whose values
are trusted:

    PYTHONPATH=src python tests/test_value_tables.py
"""

import json
import math
import os

from test_scan_digest import scan_runs
from test_trace_digest import trace_runs

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SCAN_TABLE = os.path.join(DATA, "scan_40x8_values.json")
TRACE_TABLE = os.path.join(DATA, "trace_values.json")

TOL = 1e-12


def _pair(z):
    return [z.real, z.imag]


def scan_values():
    """One record per slope of the scan, in `knotpot scan` order."""
    rows = []
    for slope, sol, rep in scan_runs()[1]:
        if rep is None:
            rows.append({"slope": str(slope), "outcome": type(sol).__name__})
            continue
        rows.append(
            {
                "slope": str(slope),
                "outcome": "accepted",
                "volume": rep.volume,
                "cs": rep.cs_value,
                "length": rep.geodesic_length,
                "torsion": rep.geodesic_torsion,
            }
        )
    return rows


def _sample_rows(samples):
    return [
        {
            "u": _pair(s.u),
            "values": {v: _pair(z) for v, z in s.point.values.items()},
            "v": _pair(s.v),
        }
        for s in samples
    ]


def trace_values():
    """One record per trace: its samples and, if obstructed, the obstruction."""
    out = []
    for u_end, samples, e in trace_runs():
        rec = {"u_end": _pair(u_end), "obstruction": None}
        if e is not None:
            rec["obstruction"] = {
                "type": type(e).__name__,
                "t_reached": e.t_reached,
                "partial": len(samples),
            }
        rec["samples"] = _sample_rows(samples)
        out.append(rec)
    return out


def _mod_gap(a, b, period):
    d = (a - b) % period
    return min(d, period - d)


def _close(got, want):
    return abs(complex(*got) - complex(*want)) <= TOL


def test_scan_40x8_values():
    with open(SCAN_TABLE) as fh:
        want = json.load(fh)
    got = scan_values()
    assert [r["slope"] for r in got] == [r["slope"] for r in want]
    assert sum(r["outcome"] == "accepted" for r in want) == 408
    for g, w in zip(got, want):
        assert g["outcome"] == w["outcome"], g["slope"]
        if w["outcome"] != "accepted":
            continue
        q = int(w["slope"].split("/")[1])
        assert abs(g["volume"] - w["volume"]) <= TOL, g["slope"]
        assert abs(g["length"] - w["length"]) <= TOL, g["slope"]
        assert _mod_gap(g["cs"], w["cs"], 0.5) <= TOL, g["slope"]
        assert _mod_gap(g["torsion"], w["torsion"], 2 * math.pi / q) <= TOL, g["slope"]


def test_scan_40x8_report_d_sum():
    # the report's second volume route, the signed D-sum, against the
    # table's volume (Im V_alpha) on every accepted slope
    with open(SCAN_TABLE) as fh:
        want = {r["slope"]: r for r in json.load(fh)}
    accepted = 0
    for slope, sol, rep in scan_runs()[1]:
        w = want[str(slope)]
        if rep is None:
            assert w["outcome"] == type(sol).__name__, str(slope)
            continue
        assert w["outcome"] == "accepted", str(slope)
        assert abs(rep.volume_from_shapes - w["volume"]) <= TOL, str(slope)
        accepted += 1
    assert accepted == 408


def test_trace_values():
    with open(TRACE_TABLE) as fh:
        want = json.load(fh)
    got = trace_values()
    assert [r["u_end"] for r in got] == [r["u_end"] for r in want]
    assert sum(r["obstruction"] is not None for r in want) == 1
    for g, w in zip(got, want):
        where = "u_end %r" % (w["u_end"],)
        if w["obstruction"] is None:
            assert g["obstruction"] is None, where
        else:
            go, wo = g["obstruction"], w["obstruction"]
            assert go is not None, where
            assert (go["type"], go["partial"]) == (wo["type"], wo["partial"]), where
            assert abs(go["t_reached"] - wo["t_reached"]) <= TOL, where
        assert len(g["samples"]) == len(w["samples"]), where
        for gs, ws in zip(g["samples"], w["samples"]):
            assert _close(gs["u"], ws["u"]), where
            assert _close(gs["v"], ws["v"]), where
            assert gs["values"].keys() == ws["values"].keys(), where
            for var, z in ws["values"].items():
                assert _close(gs["values"][var], z), (where, var)


if __name__ == "__main__":
    for path, rows in ((SCAN_TABLE, scan_values()), (TRACE_TABLE, trace_values())):
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
        print("wrote", path)
