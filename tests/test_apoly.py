"""The A-polynomial of 5_2 vanishes at every point knotpot solves.

`_apoly` types in A(L, M) from the literature. Here A is evaluated, with
M = xi and L = -1/eta (eta = eval_eta(spec, pt)[0]), at the complete
structure, at every sample of the digest traces and at every accepted
filling of scan 40x8: the points `test_scan_digest.scan_runs` and
`test_trace_digest.trace_runs` already solve.

A solved point is not on the curve exactly, so A is compared with a
bound derived per point from its accepted residual and from rounding,
not with a fixed tolerance. Write a for relative_value, |A| over the
summed moduli of its terms.

- The point is exact in xi: A is read at the point's own meridian. So
  it is off the curve only in L, by the relative error d of eta, and
  to first order a = l_sensitivity * d.
- Each reduced-residual row of the built-in is LHS_j - xi^2 with a
  rational LHS_j, and its log-gradient row is +-log(LHS_j / xi^2), so a
  residual R_j moves that row by |R_j| / |xi|^2 to first order. The
  fiber Newton's system at fixed xi then moves log eta by w . dG, with
  w H = (d log eta / d log v) over the fiber variables v and H the fiber
  block of log_hessian. So d <= sum_j |w_j| |R_j| / |xi|^2.
- Rounding. Each row and eta is a product of factors 1 - m of the
  tracked monomials and of a monomial of a few multiplications. A
  factor 1 - m is known to eps (1 + |m| / |1 - m|) of itself, so r =
  eps (8 + sum_k |m_k| / |1 - m_k|) bounds the relative rounding of a
  row (against |xi|^2, the size of both its sides) and of eta. A's
  own twelve terms, each a product of at most 20 roundings, and their
  sum are known to 32 eps of the summed moduli.

So a <= 2 l_sensitivity (sum_j |w_j| (|R_j| / |xi|^2 + r) + r) + 32 eps,
where the factor 2 covers the second-order terms of both
linearizations, which are below 1e-10 of the first-order ones here.
Near xi = 1 the curve is (1 + L)^3 = 0 to leading order, so
l_sensitivity and a both vanish there, and only the rounding of A
remains.
"""

import pytest

import _apoly
from knotpot.potential import eval_eta, log_hessian, reduced_residual
from test_scan_digest import scan_runs
from test_trace_digest import trace_runs

EPS = 2.0**-52


def _points():
    """(label, point): the complete structure, every digest-trace sample
    and every accepted filling of scan 40x8."""
    complete, runs = scan_runs()
    points = [("complete", complete.point)]
    for u_end, samples, _ in trace_runs():
        points += [("trace %r #%d" % (u_end, k), s.point) for k, s in enumerate(samples)]
    points += [
        ("slope %s" % slope, sol.critical.point) for slope, sol, rep in runs if rep is not None
    ]
    return points


def _eta_error(spec, pt) -> float:
    """The bound on eta's relative error derived in the module docstring."""
    rounding = EPS * (8 + sum(abs(m) / abs(1 - m) for m in pt.tracked_values))
    size = abs(pt.values["xi"]) ** 2
    (a, b), (c, e) = (row[:2] for row in log_hessian(spec, pt)[:2])
    d = spec.tables.longitude(pt)[2]
    det = a * e - b * c
    w = ((d[0] * e - d[1] * c) / det, (d[1] * a - d[0] * b) / det)
    residual = reduced_residual(pt)
    rows = sum(abs(wj) * (abs(rj) / size + rounding) for wj, rj in zip(w, residual))
    return rows + rounding


def _geometric(eta, xi):
    return -1 / eta, xi


def _off_points(spec, convention):
    """(label, a, bound) for each point where A exceeds its bound, with
    (L, M) = convention(eta, xi)."""
    out = []
    for label, pt in _points():
        L, M = convention(eval_eta(spec, pt)[0], pt.values["xi"])
        a = _apoly.relative_value(L, M)
        bound = 2 * _apoly.l_sensitivity(L, M) * _eta_error(spec, pt) + 32 * EPS
        if not a <= bound:
            out.append((label, a, bound))
    return out


def test_a_polynomial_vanishes_at_every_solved_point(spec):
    # the complete point, 285 trace samples (eight traces of 32 and the
    # obstructed one's 29) and 408 accepted fillings
    assert len(_points()) == 1 + 285 + 408
    assert _off_points(spec, _geometric) == []


@pytest.mark.parametrize(
    "convention",
    [
        lambda eta, xi: (-1 / (eta * (1 + 1e-9)), xi),
        lambda eta, xi: (-1 / eta, xi**2),
        lambda eta, xi: (1 / eta, xi),
    ],
    ids=["eta_off_by_1e-9", "meridian_squared", "longitude_sign"],
)
def test_a_polynomial_refuses_a_wrong_longitude_or_meridian(spec, convention):
    # each is refused at 39/8, where a reads 6.5e-12, 4.2e-3 and 0.50
    assert "slope 39/8" in [label for label, _, _ in _off_points(spec, convention)]
