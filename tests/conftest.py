"""Shared fixtures plus the acceptance summary.

`spec` is the built-in 5_2 potential and `complete` its complete
structure, solved once per session; no test may change either, and a
test that needs a spec of its own builds it.

The acceptance tests record one verdict per criterion; a terminal
summary hook prints them as a block at the end of the run so the
pass/fail state of each criterion is visible even when scanning a
long pytest log.
"""

import re

import pytest

from knotpot.potential import builtin_five_two
from knotpot.solver import solve_complete

_ACCEPTANCE = {}


@pytest.fixture(scope="session")
def spec():
    return builtin_five_two()


@pytest.fixture(scope="session")
def complete(spec):
    return solve_complete(spec)


@pytest.fixture
def acceptance():
    """Recorder: acceptance(number, label, status, detail)."""

    def record(number: int, label: str, status: str, detail: str = ""):
        assert status in ("PASS", "FAIL", "SKIP")
        _ACCEPTANCE[number] = (label, status, detail)

    return record


_CRIT_NAME = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_runtest_makereport(item, call):
    # a criterion test that died before recording still gets a line
    if call.when != "call" or call.excinfo is None:
        return
    m = _CRIT_NAME.match(item.name)
    if not m:
        return
    number = int(m.group(1))
    if number not in _ACCEPTANCE:
        label = m.group(2).replace("_", " ")
        reason = call.excinfo.exconly().splitlines()[0][:120]
        _ACCEPTANCE[number] = (label, "FAIL", "did not complete: %s" % reason)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        label, status, detail = _ACCEPTANCE[number]
        line = "%s criterion %2d: %s" % (status, number, label)
        if detail:
            line += " (%s)" % detail
        terminalreporter.write_line(line)
