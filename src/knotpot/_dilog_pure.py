"""Dilogarithm kernel in plain Python.

The numerical core of the package: principal logarithm, Euler
dilogarithm Li2, Rogers dilogarithm R, and the Bloch-Wigner function
D. `dilog` re-exports these four functions; everything else in the
package reaches them through it.

Branch conventions used everywhere in the package:
  - principal log with Im in (-pi, pi]; the -pi boundary produced by
    negative reals with signed -0.0 imaginary part is folded to +pi.
  - Li2 has its cut on [1, inf) and takes the boundary value from
    below there (Im Li2(x) = -pi log x for real x > 1), which is what
    the principal-log rearrangements below produce automatically.

Li2 is evaluated through the Bernoulli-accelerated series

    Li2(z) = sum_{n>=0} B_n u^{n+1} / (n+1)!,   u = -log(1 - z),

pushed into the fast-convergence region |u| manageable via the
inversion z -> 1/z and reflection z -> 1-z functional equations.
"""

import cmath
import math

from .errors import DomainError

_PI = math.pi
_TWO_PI = 2.0 * math.pi
_PI2_6 = math.pi * math.pi / 6.0

# Series coefficients c_k = B_{k-1}/k! for the u^k term. B_3, B_5, ...
# vanish, so beyond u^3 only odd powers appear; _ODD holds c_5..c_23
# (truncation error < 1e-17 for |u| <= log 2, the worst case reached
# inside the reduced region).
_C2 = -0.25
_C3 = 1.0 / 36.0
_ODD = (
    -1.0 / 3600.0,
    4.72411186696901e-06,
    -9.185773074661964e-08,
    1.8978869988971e-09,
    -4.0647616451442256e-11,
    8.921691020456452e-13,
    -1.9939295860721074e-14,
    4.518980029619918e-16,
    -1.0356517612181247e-17,
    2.395218621026187e-19,
)


def principal_log(w):
    """Principal branch of log w with Im in (-pi, pi]."""
    if w == 0:
        raise DomainError("log of zero")
    z = cmath.log(w)
    # cmath maps negative reals with a -0.0 imaginary part to Im = -pi;
    # fold that onto the +pi side so the branch is half-open. A phase
    # that only rounds to -pi (a tiny negative imaginary part) is a
    # value below the cut and stays there.
    if z.imag == -_PI and not w.imag:
        z = complex(z.real, _PI)
    return z


def _series(u):
    # Bernoulli series in u = -log(1-z); caller guarantees |u| small.
    w = u * u
    s = 0.0j
    for c in reversed(_ODD):
        s = s * w + c
    s *= w * w * u
    return u + _C2 * w + _C3 * w * u + s


def li2(z):
    """Euler dilogarithm, principal branch, cut [1, inf) from below."""
    z = complex(z)
    if z == 0:
        return 0.0j
    if z == 1:
        return complex(_PI2_6, 0.0)
    rz = z.real
    nz = rz * rz + z.imag * z.imag
    if nz < 1e-30:
        # two series terms; log(1-z) would lose all precision here
        return z * (1.0 + 0.25 * z)
    if rz <= 0.5 and nz <= 1.0:
        return _series(-principal_log(1.0 - z))
    if rz > 0.5 and nz <= 2.0 * rz:
        # |z - 1| <= 1: reflection Li2(z) = pi^2/6 - Li2(1-z) - log z log(1-z)
        lz = principal_log(z)
        return -_series(-lz) - lz * principal_log(1.0 - z) + _PI2_6
    # inversion: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2/2
    l = principal_log(-z)
    return -_series(-principal_log(1.0 - 1.0 / z)) - 0.5 * l * l - _PI2_6


def rogers_r(z):
    """Rogers dilogarithm R(z) = Li2(z) + log z log(1-z)/2, principal logs."""
    z = complex(z)
    if z == 0 or z == 1:
        raise DomainError("rogers_r singular at z = %r" % (z,))
    return li2(z) + 0.5 * principal_log(z) * principal_log(1.0 - z)


def bloch_wigner_d(z):
    """Bloch-Wigner function D(z) = Im Li2(z) + log|z| arg(1-z).

    Returns exactly 0.0 for real z (flat tetrahedron) so volume sums
    stay free of +-0 noise.
    """
    z = complex(z)
    if z == 0 or z == 1:
        raise DomainError("bloch_wigner_d singular at z = %r" % (z,))
    if z.imag == 0.0:
        return 0.0
    return li2(z).imag + math.log(abs(z)) * cmath.phase(1.0 - z)
