"""Frozen, independent oracles for the numeric tests.

Everything here is computed with mpmath at 30+ digits or by exact
algebra, never by the package under test. Keep this module free of
knotpot imports so an oracle bug can't hide a library bug.
"""

import mpmath as mp

mp.mp.dps = 30

PI2_6 = float(mp.pi**2 / 6)
CATALAN = float(mp.catalan)
# maximum of the Bloch-Wigner function, attained at exp(i pi/3)
D_MAX = float(mp.im(mp.polylog(2, mp.exp(1j * mp.pi / 3))))

# volume of the five-crossing two-bridge knot complement (see
# complete_root below; value frozen from a 30-digit computation)
COMPLETE_VOLUME = 2.8281220883307827


def li2_oracle(z: complex) -> complex:
    """Principal Li2 via mpmath, cut [1, oo) continuous from below."""
    zz = mp.mpc(z)
    if zz.imag == 0 and zz.real >= 1:
        zz = mp.mpc(zz.real, mp.mpf("-1e-25"))
    return complex(mp.polylog(2, zz))


def d_oracle(z: complex) -> float:
    """Bloch-Wigner D(z) = Im Li2(z) + log|z| arg(1-z), real z -> 0."""
    if complex(z).imag == 0:
        return 0.0
    zz = mp.mpc(z)
    val = mp.im(mp.polylog(2, zz)) + mp.log(abs(zz)) * mp.arg(1 - zz)
    return float(val)


def rogers_oracle(z: complex) -> complex:
    zz = mp.mpc(z)
    return complex(mp.polylog(2, zz) + mp.log(zz) * mp.log(1 - zz) / 2)


def complete_root() -> complex:
    """Root of x^3 - x - 1 with positive imaginary part.

    Eliminating the complete-structure equations at xi = 1 gives
    y = x + 1 and x^3 = x + 1; the geometric solution is the root in
    the upper half plane.
    """
    roots = mp.polyroots([1, 0, -1, -1])
    for r in roots:
        if mp.im(r) > 0:
            return complex(r)
    raise AssertionError("cubic has a complex conjugate pair")


def complete_volume_oracle() -> float:
    """2 D(x+1) + D(x/(x+1)) at the cubic root: the 5_2 volume.

    The five shape moduli at the complete structure are
    (x+1, x, x/(x+1), 1/x, x+1) and D(x) + D(1/x) = 0.
    """
    x = complete_root()
    return 2 * d_oracle(x + 1) + d_oracle(x / (x + 1))


def five_two_shapes(x, y, xi):
    """Tetrahedron moduli (c2, d4, a5, b5, d5) of the 5_2 triangulation.

    The five-tetrahedron parametrization by the potential's variables,
    as mpmath numbers.
    """
    x, y, xi = mp.mpc(x), mp.mpc(y), mp.mpc(xi)
    return y * xi, x / xi, x / y, xi / x, y / xi


def edge_residuals(x, y, xi):
    """Edge-product residuals of the five-tetrahedron triangulation.

    Five equations read off the four display rows (the first row holds
    the two monomial identities), each returned as product - 1. The
    first two vanish identically in (x, y, xi); the rest vanish on the
    deformation space.
    """
    c2, d4, a5, b5, d5 = five_two_shapes(x, y, xi)
    e1 = d4 * b5 - 1
    e2 = a5 * b5 * d5 - 1
    e3 = (
        (c2 * a5 * (1 - 1 / d4) / (1 - d4))
        * ((1 - 1 / d5) * (1 - 1 / c2) * (1 - 1 / b5) / ((1 - a5) * (1 - b5)))
        - 1
    )
    e4 = (
        (c2 * (1 - 1 / a5) / ((1 - d5) * (1 - c2)))
        * ((1 - 1 / d5) * (1 - 1 / b5) / ((1 - d5) * (1 - a5) * (1 - d4)))
        - 1
    )
    e5 = (
        (d4 * (1 - 1 / a5) * (1 - 1 / d4) / (1 - b5))
        * (d5 * (1 - 1 / c2) / (1 - c2))
        - 1
    )
    return tuple(complex(e) for e in (e1, e2, e3, e4, e5))


def solve_oracle(a, b) -> list:
    """x with a x = b, by mpmath's LU solve at 40 digits, as complex."""
    with mp.workdps(40):
        x = mp.lu_solve(mp.matrix(a), mp.matrix(b))
        return [complex(xi) for xi in x]


def cond2_oracle(a) -> float:
    """2-norm condition number of a: its largest singular value over
    its smallest."""
    s = mp.svd_c(mp.matrix(a), compute_uv=False)
    return float(max(s) / min(s))


def fd_gradient(f, z: complex, h: float = 1e-6) -> complex:
    """Central finite difference df/dz for analytic f."""
    return (f(z + h) - f(z - h)) / (2 * h)


assert abs(complete_volume_oracle() - COMPLETE_VOLUME) < 1e-13
