"""Tests of the benchmark itself: its checks, its tracing and its exits.

    python3 -m pytest perfbench -q
"""

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import knotpot as kp  # noqa: E402
import knotpot.cli  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wls  # noqa: E402
from harness import Outcome, WrongAnswer  # noqa: E402

SPEC = kp.builtin_five_two()
COMPLETE = kp.solve_complete(SPEC)


def _fill(p, q):
    slope = kp.normalize_slope(p, q)
    sol = kp.solve_filling(SPEC, slope, complete=COMPLETE)
    return slope, sol, kp.report_for(SPEC, slope, sol)


def test_filling_check_accepts_true_answers():
    for p, q in ((7, 1), (7, 3), (-9, 2)):
        wls.check_filling(*_fill(p, q))


@pytest.mark.parametrize(
    "field, delta",
    [("volume", 1e-6), ("volume_from_shapes", -1e-6), ("cs_value", 1e-9)],
)
def test_filling_check_rejects_doctored_report(field, delta):
    slope, sol, rep = _fill(7, 1)
    bad = dataclasses.replace(rep, **{field: getattr(rep, field) + delta})
    with pytest.raises(WrongAnswer):
        wls.check_filling(slope, sol, bad)


def test_filling_check_rejects_volume_above_complete():
    slope, sol, rep = _fill(-9, 2)
    big = wls.VOL_COMPLETE + 0.1
    bad = dataclasses.replace(rep, volume=big, volume_from_shapes=big)
    with pytest.raises(WrongAnswer):
        wls.check_filling(slope, sol, bad)


def test_trace_check_rejects_missing_sample():
    u_end = 0.3 + 0.2j
    rows = wls.sample_rows(SPEC, kp.trace_deformation(SPEC, u_end, 8, complete=COMPLETE))
    wls.check_trace(u_end, 8, rows)
    with pytest.raises(WrongAnswer):
        wls.check_trace(u_end, 8, rows[:-1])
    smp, vv, defect, sum_d, _ = rows[3]
    with pytest.raises(WrongAnswer):
        wls.check_trace(u_end, 8, rows[:3] + [(smp, vv, defect, sum_d, 1e-6)] + rows[4:])


def _in_process(req):
    out = io.StringIO()
    with redirect_stdout(out):
        code = knotpot.cli.main(req.argv())
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", wls.FORMATS)
@pytest.mark.parametrize(
    "command, arg", [("fill", "7/3"), ("complete", None), ("trace", "0.300000-0.200000i")]
)
def test_cli_check_matches_every_format(command, arg, fmt):
    req = wls.CliRequest(command, arg, fmt)
    expected = wls.expected_answer(SPEC, COMPLETE, command, arg)
    code, text = _in_process(req)
    assert wls.check_cli(req, expected, code, text) is True


def test_cli_check_rejects_wrong_exit_code_and_doctored_output():
    req = wls.CliRequest("fill", "7/1", "table")
    expected = wls.expected_answer(SPEC, COMPLETE, "fill", "7/1")
    code, text = _in_process(req)
    for bad_code in (1, 2, 3):
        with pytest.raises(WrongAnswer):
            wls.check_cli(req, expected, bad_code, text)
    doctored = text.replace("volume = 2.53772525630352", "volume = 2.53772525630353")
    assert doctored != text
    with pytest.raises(WrongAnswer):
        wls.check_cli(req, expected, code, doctored)


def test_cli_obstruction_must_match_library():
    # 0/1 is exceptional: the library obstructs, so the CLI must exit 3
    expected = wls.expected_answer(SPEC, COMPLETE, "fill", "0/1")
    assert expected == (3, None)
    req = wls.CliRequest("fill", "0/1", "csv")
    assert wls.check_cli(req, expected, 3, "") is False
    with pytest.raises(WrongAnswer):
        wls.check_cli(req, expected, 0, "")


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for cls in (wls.Scan, wls.Trace):
        a, b, c = cls(5), cls(5), cls(6)
        assert a.make_pass(0) == b.make_pass(0)
        assert a.make_pass(0) != c.make_pass(0)
        assert a.make_pass(0) != a.make_pass(1)
        assert len(a.make_pass(0)) == cls.pass_size >= 100


def test_cli_pass_mix_is_exact():
    wl = wls.Cli(3, run.SRC, run.ROOT)
    ops = wl.make_pass(0)
    counts = {c: sum(op.command == c for op in ops) for c, _ in wl.mix}
    assert counts == dict(wl.mix)
    assert [op.fmt for op in ops[:3]] == list(wls.FORMATS)
    assert set(wl.expected) == {op.key for op in ops}


class _Sleeper:
    deadline_s = 0.2

    def run(self, op):
        time.sleep(op)
        return True


def test_deadline_fails_a_runaway_op():
    outcome = Outcome()
    assert harness.run_op(_Sleeper(), 0.0, outcome, 0.2) == Outcome.OK
    assert harness.run_op(_Sleeper(), 5.0, outcome, 0.2) == Outcome.FAILED
    assert outcome.failed == 1 and outcome.durations[-1] < 1.0


def test_tracer_reaches_every_binding_and_restores_it():
    original = kp.potential.li2
    tracer = layers.Tracer()
    with tracer.active():
        for mod in (kp, kp.dilog, kp.potential, kp._dilog_pure):
            assert mod.li2 is not original and mod.li2.__wrapped__ is original
        assert kp.solver.log_hessian.__wrapped__ is kp.potential.log_hessian.__wrapped__
        _fill(7, 1)
    assert kp.potential.li2 is original and kp.li2 is original
    assert tracer.stat("potential", "log_hessian").calls > 0
    assert tracer.stat("dilog", "li2").calls > 0


def _counts(metrics):
    return {
        k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")
        and not k.startswith("tracing.")
    }


def test_traced_scan_counts_repeat_and_match_the_known_totals():
    first = run.run_traced("scan", 1)
    second = run.run_traced("scan", 2)  # another order, same slopes
    assert first[:2] == second[:2] == (415, 0)
    a, b = _counts(first[3]), _counts(second[3])
    assert a == b
    assert a["solver.path_steps"] == 1224
    assert a["solver.newton_iters"] == 4576
    assert a["invariants.report_for.calls"] == 408  # the accepted slopes
    m = first[3]
    bench = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    assert {k: u for k, (_, u) in m.items()} == {
        p["name"]: p["unit"] for p in bench["per_layer"]
    }
    assert m["tracing.untraced_s"][0] > 0 and m["tracing.traced_s"][0] > 0
    assert m["tracing.overhead_frac"][0] == pytest.approx(
        m["tracing.traced_s"][0] / m["tracing.untraced_s"][0] - 1
    )


def test_traced_trace_counts_repeat():
    def counts():
        wl = wls.Trace(7)
        tracer = layers.Tracer()
        with tracer.active():
            for u in wl.make_pass(0)[:6]:
                wl.run(u)
        return _counts(layers.per_layer(tracer))

    first = counts()
    assert first == counts()
    assert first["solver.trace_deformation.calls"] == 6
    assert first["solver.newton_iters"] > 0


def test_untraced_scan_reports_every_end_to_end_metric():
    bench = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    attempted, failed, _, metrics = run.run_untraced("scan", 1, 1)
    assert attempted >= 415 and failed == 0
    assert set(metrics) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"] and metrics[m["name"]][0] > 0
    assert metrics["ops_ok"][0] == 408


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
