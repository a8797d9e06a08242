"""Dilog kernel tests: pointwise examples, oracle cross-checks, and
seeded property loops for the functional equations."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as O
from knotpot import _dilog_pure
from knotpot.dilog import (
    ContinuedLog,
    bloch_wigner_d,
    li2,
    principal_log,
    rogers_r,
)
from knotpot.errors import DomainError, StepTooLargeError
from knotpot.potential import advance_point_logs, builtin_five_two, make_point

PI = math.pi


def random_z(rng, scale=4.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


# ------------------------------------------------------- principal_log


def test_principal_log_examples():
    assert principal_log(1) == 0
    assert principal_log(-1) == 1j * PI
    assert abs(principal_log(math.e) - 1) < 1e-15


def test_principal_log_branch_range():
    rng = random.Random(7)
    for _ in range(300):
        w = random_z(rng)
        if abs(w) < 1e-9:
            continue
        lw = principal_log(w)
        assert -PI < lw.imag <= PI
        assert abs(cmath.exp(lw) - w) <= 1e-14 * abs(w)


def test_principal_log_negative_axis_on_upper_branch():
    # the cut folds to +pi, never -pi, even with a -0.0 imaginary part
    assert principal_log(complex(-2.0, 0.0)).imag == PI
    assert principal_log(complex(-2.0, -0.0)).imag == PI


def test_principal_log_keeps_values_just_below_the_cut():
    # a phase that rounds to -pi for a tiny negative imaginary part is a
    # genuine value below the cut: only a zero imaginary part folds
    for x in (1.5, 2.0, 5.0):
        assert principal_log(complex(-x, -1e-17)).imag == -PI
        assert principal_log(complex(-x, 1e-17)).imag == PI


@pytest.mark.parametrize("x", [1.5, 2.0, 5.0])
@pytest.mark.parametrize("eps", [1e-17, -1e-17])
def test_li2_and_d_just_off_the_cut_match_oracle(x, eps):
    # Li2 reflects through log(1 - z), here a negative real just off
    # the axis; folding it to the wrong side moved Im Li2 by 2 pi log x
    z = complex(x, eps)
    assert abs(li2(z) - O.li2_oracle(z)) <= 1e-14
    assert abs(bloch_wigner_d(z) - O.d_oracle(z)) <= 1e-14


def test_principal_log_zero_rejected():
    with pytest.raises(DomainError):
        principal_log(0)


# --------------------------------------------------------------- li2


def test_li2_special_values():
    assert li2(0) == 0
    assert abs(li2(1) - O.PI2_6) < 1e-15
    assert abs(li2(-1) + O.PI2_6 / 2) < 1e-15


def test_li2_matches_oracle_everywhere():
    rng = random.Random(11)
    zs = [random_z(rng, 8.0) for _ in range(500)]
    zs = [z for z in zs if abs(z) >= 1e-6 and abs(z - 1) >= 1e-6]
    # below |z| = 1e-15 li2 sums the first two terms of its series
    zs += [1e-16j, complex(3e-17, -2e-17), complex(1e-200, 1e-200)]
    worst = 0.0
    for z in zs:
        err = abs(li2(z) - O.li2_oracle(z)) / max(1.0, abs(O.li2_oracle(z)))
        worst = max(worst, err)
    assert worst < 1e-13


def test_li2_cut_continuous_from_below():
    # on [1, oo) the value is the limit from Im z < 0
    for x in (1.5, 3.0, 20.0):
        onto = li2(x)
        below = li2(complex(x, -1e-12))
        assert abs(onto - below) < 1e-10
        assert abs(onto.imag + PI * math.log(x)) < 1e-12


def test_li2_derivative_by_finite_differences():
    rng = random.Random(13)
    checked = 0
    while checked < 1000:
        z = random_z(rng, 2.0)
        if abs(z) < 0.05 or abs(z - 1) < 0.05 or (z.imag == 0 and z.real > 1):
            continue
        got = O.fd_gradient(li2, z)
        want = -principal_log(1 - z) / z
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
        checked += 1


def test_li2_inversion_property():
    # Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2 / 2, in both half planes
    rng = random.Random(17)
    worst = 0.0
    for _ in range(500):
        upper = complex(rng.uniform(-4, 4), rng.uniform(1e-3, 4))
        for z in (upper, upper.conjugate()):
            lhs = li2(z) + li2(1 / z)
            rhs = -O.PI2_6 - principal_log(-z) ** 2 / 2
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-11


def test_li2_reflection_property():
    # Li2(z) + Li2(1-z) = pi^2/6 - log(z) log(1-z)
    rng = random.Random(19)
    worst = 0.0
    for _ in range(500):
        z = random_z(rng, 3.0)
        if min(abs(z), abs(z - 1)) < 1e-3 or abs(z.imag) < 1e-6:
            continue
        lhs = li2(z) + li2(1 - z)
        rhs = O.PI2_6 - principal_log(z) * principal_log(1 - z)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-11


# _dilog_pure._series writes its Horner loop out as one expression; the
# loop stays here as its reference, and li2 must not tell them apart


def _series_loop(u):
    w = u * u
    s = 0.0j
    for c in reversed(_dilog_pure._ODD):
        s = s * w + c
    s *= w * w * u
    return u + _dilog_pure._C2 * w + _dilog_pure._C3 * w * u + s


def _nudged(z, ulps):
    # z with its real part moved by ulps units in the last place
    x = z.real
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return complex(x, z.imag)


def _on_boundary(kind, t):
    # a point on one of li2's branch boundaries, at angle or height t
    if kind == 0:
        return cmath.rect(1.0, t)  # |z| = 1
    if kind == 1:
        return complex(0.5, 4 * t)  # Re z = 0.5
    if kind == 2:
        return 1 + cmath.rect(1.0, t)  # |z|^2 = 2 Re z
    return cmath.rect(1e-15, t)  # |z|^2 = 1e-30


_finite = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
_boundary = st.builds(
    lambda kind, t, ulps: _nudged(_on_boundary(kind, t), ulps),
    st.integers(0, 3),
    st.floats(-math.pi, math.pi),
    st.integers(-2, 2),
)
_EXACT_BOUNDARY = (
    1j, -1j, -1 + 0j, complex(-1, -0.0), 0.5 + 0j, 0.5 + 0.5j, 0.5 - 2j, 1 + 1j, 1 - 1j,
    2 + 0j, complex(1e-15, 0), complex(0, 1e-15), complex(-1e-15, -0.0),
)


@settings(deadline=None, database=None, max_examples=300)
@given(st.one_of(_finite, _boundary, st.sampled_from(_EXACT_BOUNDARY)))
def test_li2_matches_the_horner_loop_bit_for_bit(z):
    got = li2(z)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_dilog_pure, "_series", _series_loop)
        want = li2(z)
    assert repr(got) == repr(want)


@settings(deadline=None, database=None, max_examples=300)
@given(st.complex_numbers())
def test_series_is_the_horner_loop_on_any_operand(u):
    # -0.0 parts, infinities and NaNs included
    assert repr(_dilog_pure._series(u)) == repr(_series_loop(u))


# ----------------------------------------------------------- rogers_r


def test_rogers_examples():
    assert abs(rogers_r(0.5) - O.PI2_6 / 2) < 1e-14
    assert abs(rogers_r(0.3) + rogers_r(0.7) - O.PI2_6) < 1e-14
    near_one = rogers_r(0.999999)
    assert abs(near_one - O.rogers_oracle(0.999999)) < 1e-12
    assert abs(near_one - O.PI2_6) < 1e-4


def test_rogers_matches_oracle():
    rng = random.Random(23)
    for _ in range(200):
        z = random_z(rng, 3.0)
        if min(abs(z), abs(z - 1)) < 1e-2 or abs(z.imag) < 1e-6:
            continue
        assert abs(rogers_r(z) - O.rogers_oracle(z)) < 1e-12


def test_rogers_singularities_rejected():
    with pytest.raises(DomainError):
        rogers_r(0)
    with pytest.raises(DomainError):
        rogers_r(1)


# ------------------------------------------------------ bloch_wigner_d


def test_d_examples():
    assert bloch_wigner_d(0.5) == 0.0
    assert abs(bloch_wigner_d(1j) - O.CATALAN) < 1e-13
    w = cmath.exp(1j * PI / 3)
    assert abs(bloch_wigner_d(w) - O.D_MAX) < 1e-13
    assert abs(O.D_MAX - 1.0149416064) < 1e-9


def test_d_real_arguments_exactly_zero():
    for x in (-3.0, -0.5, 0.25, 0.999, 7.0):
        assert bloch_wigner_d(x) == 0.0
    with pytest.raises(DomainError):
        bloch_wigner_d(0)
    with pytest.raises(DomainError):
        bloch_wigner_d(1)


def test_d_matches_oracle():
    rng = random.Random(29)
    for _ in range(300):
        z = random_z(rng, 5.0)
        if min(abs(z), abs(z - 1)) < 1e-3 or abs(z.imag) < 1e-6:
            continue
        assert abs(bloch_wigner_d(z) - O.d_oracle(z)) < 1e-12


def test_d_symmetries():
    # D(conj z) = -D(z), D(1/z) = -D(z) and D(1 - 1/z) = D(z)
    rng = random.Random(31)
    worst = 0.0
    for _ in range(500):
        z = random_z(rng, 4.0)
        if min(abs(z), abs(z - 1)) < 1e-3 or abs(z.imag) < 1e-4:
            continue
        d = bloch_wigner_d(z)
        worst = max(worst, abs(bloch_wigner_d(z.conjugate()) + d))
        worst = max(worst, abs(bloch_wigner_d(1 / z) + d))
        worst = max(worst, abs(bloch_wigner_d(1 - 1 / z) - d))
    assert worst < 1e-12


def test_d_continuous_across_li2_cut():
    for x in (1.5, 4.0):
        above = bloch_wigner_d(complex(x, 1e-9))
        below = bloch_wigner_d(complex(x, -1e-9))
        assert abs(above - below) < 1e-7


def test_d_five_term_relation():
    rng = random.Random(37)
    worst = 0.0
    count = 0
    while count < 500:
        x = random_z(rng, 2.0)
        y = random_z(rng, 2.0)
        pts = [x, y, (1 - x) / (1 - x * y), 1 - x * y, (1 - y) / (1 - x * y)]
        if any(min(abs(p), abs(p - 1)) < 1e-2 or abs(p.imag) < 1e-6 for p in pts):
            continue
        if abs(1 - x * y) < 1e-2:
            continue
        total = sum(bloch_wigner_d(p) for p in pts)
        worst = max(worst, abs(total))
        count += 1
    assert worst < 1e-10


# --------------------------------------------------------- ContinuedLog


def test_continued_log_invariants():
    cl = ContinuedLog.from_value(principal_log(-2.0))
    assert cl.winding == 0
    assert abs(cmath.exp(cl.value) + 2) < 1e-14
    assert isinstance(cl, ContinuedLog)
    # one turn up the same log: same point, winding 1
    up = ContinuedLog.from_value(cl.value + 2j * PI)
    assert up.winding == 1 and abs(cmath.exp(up.value) + 2) < 1e-14


@pytest.mark.parametrize("value", [complex(710, 0), complex(-746, 1)], ids=["overflow", "underflow"])
def test_continued_log_of_a_value_whose_exp_is_no_float(value):
    # exp(value) past float range, or underflowing to 0, has no log
    with pytest.raises(DomainError):
        ContinuedLog.from_value(value)


# ------------------------------------------- continuing log(1 - m)
#
# The point build is the one place that continues the log of 1 - m of
# each dilog argument m; these tests drive it on the built-in 5_2 spec.


def _y_on_circle(theta):
    """Variable logs with y = 1 + e^(i theta) / 2, x = 5 and xi = 1.

    1 - y/xi = e^(i (theta - pi)) / 2, so as theta runs over a turn it
    circles 0 once while y, and so its principal log, stays in the right
    half-plane.
    """
    values = {"x": 5.0, "y": 1 + 0.5 * cmath.exp(1j * theta), "xi": 1.0}
    return {v: cmath.log(w) for v, w in values.items()}


def _circle_start():
    """The point at theta = pi and the index of its tracked log of 1 - y/xi."""
    spec = builtin_five_two()
    j = spec.tables.monomials.index(spec.dilog_terms[1].argument)  # y/xi
    pt = make_point(spec, {"x": 5, "y": 0.5, "xi": 1})
    assert pt.tracked_logs[j] == math.log(0.5)
    return pt, j


def _winding(lw):
    return ContinuedLog.from_value(lw).winding


def test_continue_log_small_rotation():
    pt, j = _circle_start()
    pt = advance_point_logs(pt, _y_on_circle(PI + 0.1))
    assert abs(pt.tracked_logs[j] - complex(math.log(0.5), 0.1)) < 1e-14
    assert _winding(pt.tracked_logs[j]) == 0


def test_continue_log_cut_crossing():
    pt, j = _circle_start()
    for turn in (0.2, 0.4, 0.6, 0.8, 0.9):
        pt = advance_point_logs(pt, _y_on_circle(PI + turn * PI))
    assert abs(pt.tracked_logs[j] - complex(math.log(0.5), 0.9 * PI)) < 1e-12
    assert _winding(pt.tracked_logs[j]) == 0
    pt = advance_point_logs(pt, _y_on_circle(PI + 1.05 * PI))
    assert abs(pt.tracked_logs[j] - complex(math.log(0.5), 1.05 * PI)) < 1e-12
    assert _winding(pt.tracked_logs[j]) == 1


def test_continue_log_step_too_large():
    pt, _ = _circle_start()
    advance_point_logs(pt, _y_on_circle(PI + PI / 4))
    with pytest.raises(StepTooLargeError, match="jump"):
        advance_point_logs(pt, _y_on_circle(PI + PI / 2))


def test_continue_log_loop_invariance():
    # a closed loop crossing the cut both ways restores value and winding
    pt, j = _circle_start()
    steps = 48
    for k in range(1, steps + 1):
        pt = advance_point_logs(pt, _y_on_circle(PI + 2 * PI * k / steps))
    assert _winding(pt.tracked_logs[j]) == 1
    assert abs(pt.tracked_logs[j] - complex(math.log(0.5), 2 * PI)) < 1e-12
    for k in range(steps - 1, -1, -1):
        pt = advance_point_logs(pt, _y_on_circle(PI + 2 * PI * k / steps))
    assert _winding(pt.tracked_logs[j]) == 0
    assert abs(pt.tracked_logs[j] - math.log(0.5)) < 1e-12
