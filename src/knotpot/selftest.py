"""Built-in self test: identity suites runnable from the CLI.

Three groups with fixed seeds, so a pass/fail is reproducible:
dilogarithm functional equations, derivative checks of the built-in
potential against central finite differences, and the 5_2 complete
structure with its known volume. The defaults keep it a quick smoke
test for installations; acceptance criteria 1-3 of the test suite
run the same groups at acceptance sizes.
"""

import cmath
import math
import random

from . import dilog
from ._records import RecordBase
from .potential import (
    builtin_five_two,
    eval_eta,
    eval_v,
    log_gradient,
    log_hessian,
    make_point,
    signed_d_sum,
)
from .errors import KnotpotError
from .solver import _resid_inf, solve_complete

_PI2_6 = math.pi * math.pi / 6.0
_VOLUME_5_2 = 2.82812208833


class GroupResult(RecordBase):
    """One identity group's verdict; worst is the worst err/tol ratio
    over the group's checks."""

    _fields = ("name", "passed", "worst", "detail")


def _rand_z(rng, lo=0.08, hi=4.0):
    r = rng.uniform(lo, hi)
    th = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
    return cmath.rect(r, th)


def _offish(z):
    # keep identity samples away from the real axis and the points 0, 1
    return abs(z.imag) > 0.05 and abs(z) > 0.05 and abs(z - 1) > 0.05


def dilog_identities(n=200, seed=1234) -> GroupResult:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n):
        z = _rand_z(rng)
        while not (_offish(z) and z.imag > 0.05):
            z = _rand_z(rng)
        # inversion
        lhs = dilog.li2(z) + dilog.li2(1 / z)
        rhs = -_PI2_6 - 0.5 * dilog.principal_log(-z) ** 2
        worst = max(worst, abs(lhs - rhs) / 1e-11)
        # Li2 reflection
        if _offish(1 - z):
            lhs = dilog.li2(z) + dilog.li2(1 - z)
            rhs = _PI2_6 - dilog.principal_log(z) * dilog.principal_log(1 - z)
            worst = max(worst, abs(lhs - rhs) / 1e-11)
        # D symmetries
        d = dilog.bloch_wigner_d(z)
        worst = max(worst, abs(dilog.bloch_wigner_d(z.conjugate()) + d) / 1e-12)
        worst = max(worst, abs(dilog.bloch_wigner_d(1 / z) + d) / 1e-12)
        # five-term relation for D
        w = _rand_z(rng, 0.2, 2.0)
        if _offish(w) and _offish(z * w) and abs(1 - z * w) > 0.05:
            args = (z, w, (1 - z) / (1 - z * w), 1 - z * w, (1 - w) / (1 - z * w))
            if all(_offish(a) for a in args):
                worst = max(
                    worst, abs(sum(dilog.bloch_wigner_d(a) for a in args)) / 1e-10
                )
    return GroupResult(
        "dilog-identities", worst <= 1.0, worst, "%d samples" % n
    )


def _regular_points(spec, rng, count):
    pts = []
    while len(pts) < count:
        values = {
            v: _rand_z(rng, 0.3, 2.5) for v in spec.variables
        }
        try:
            pt = make_point(spec, values)
        except KnotpotError:
            continue
        # every dilog argument clear of 0, 1 and the real axis, and every
        # variable clear of the log cut, for differencing
        ok = all(
            abs(m.imag) > 0.05 and abs(m - 1) > 0.05 and abs(m) > 0.05
            for m in pt.tracked_values[: spec.tables.dilog_arg_count]
        ) and all(math.pi - abs(cmath.phase(v)) >= 0.05 for v in values.values())
        if ok:
            pts.append(pt)
    return pts


def derivative_checks(n=25, seed=4321) -> GroupResult:
    spec = builtin_five_two()
    rng = random.Random(seed)
    h = 1e-6
    worst = 0.0
    for pt in _regular_points(spec, rng, n):
        g = log_gradient(spec, pt)
        hess = log_hessian(spec, pt)
        for j, v in enumerate(spec.variables):
            up = dict(pt.values)
            dn = dict(pt.values)
            up[v] = pt.values[v] * math.exp(h)
            dn[v] = pt.values[v] * math.exp(-h)
            pu = make_point(spec, up)
            pd = make_point(spec, dn)
            fd = (eval_v(spec, pu) - eval_v(spec, pd)) / (2 * h)
            scale = max(1.0, abs(g[j]))
            worst = max(worst, abs(fd - g[j]) / scale / 1e-6)
            gu = log_gradient(spec, pu)
            gd = log_gradient(spec, pd)
            for i in range(len(spec.variables)):
                fdg = (gu[i] - gd[i]) / (2 * h)
                scale = max(1.0, abs(hess[i][j]))
                worst = max(worst, abs(fdg - hess[i][j]) / scale / 1e-6)
    return GroupResult("derivative-checks", worst <= 1.0, worst, "%d points" % n)


def complete_structure_check() -> GroupResult:
    spec = builtin_five_two()
    worst = 0.0
    try:
        cp = solve_complete(spec)
    except KnotpotError as e:
        return GroupResult("complete-structure", False, math.inf, str(e))
    pt = cp.point
    x = pt.values["x"]
    y = pt.values["y"]
    worst = max(worst, abs(x**3 - x - 1) / 1e-12)
    worst = max(worst, abs(y - (x + 1)) / 1e-12)
    eta, _ = eval_eta(spec, pt)
    worst = max(worst, abs(eta - 1) / 1e-10)
    vol = eval_v(spec, pt).imag
    vols = signed_d_sum(spec, pt)
    worst = max(worst, abs(vol - _VOLUME_5_2) / 1e-8)
    worst = max(worst, abs(vols - _VOLUME_5_2) / 1e-8)
    worst = max(worst, abs(vol - vols) / 1e-9)
    worst = max(worst, _resid_inf(pt) / 1e-12)
    return GroupResult(
        "complete-structure", worst <= 1.0, worst, "x = %s" % format(x, ".6g")
    )


def run_selftest():
    return [dilog_identities(), derivative_checks(), complete_structure_check()]
