"""The A-polynomial of the 5_2 knot, typed in from the literature.

    A(L, M) = 1 + L (-1 + 2 M^2 + 2 M^4 - M^8 + M^10)
                + L^2 (M^4 - M^6 + 2 M^10 + 2 M^12 - M^14)
                + L^3 M^14

is the A-polynomial of 5_2 as it is usually tabulated (D. Cooper,
M. Culler, H. Gillet, D. D. Long and P. B. Shalen, "Plane curves
associated to character varieties of 3-manifolds", Invent. Math. 118
(1994), 47-84). The eigenvalue pair (L, M) of the longitude and the
meridian of every representation on the geometric component lies on
A = 0. With M = xi and L = -1/eta for the built-in potential's meridian
xi and longitude eta, it checks the spec, its longitude and every solve
against a formula that does not come from knotpot's triangulation.

Keep this module free of knotpot imports, so that a slip common to the
package and its test cannot hide here.
"""

# (power of L, power of M, coefficient), one per monomial of A
TERMS = (
    (0, 0, 1),
    (1, 0, -1),
    (1, 2, 2),
    (1, 4, 2),
    (1, 8, -1),
    (1, 10, 1),
    (2, 4, 1),
    (2, 6, -1),
    (2, 10, 2),
    (2, 12, 2),
    (2, 14, -1),
    (3, 14, 1),
)


def _terms(L, M):
    return [c * L**a * M**b for a, b, c in TERMS]


def relative_value(L, M) -> float:
    """|A(L, M)| over the summed moduli of A's terms at (L, M)."""
    t = _terms(L, M)
    return abs(sum(t)) / sum(map(abs, t))


def l_sensitivity(L, M) -> float:
    """|L dA/dL (L, M)| over the summed moduli of A's terms: to first
    order, relative_value moves by this times a relative change of L."""
    t = _terms(L, M)
    return abs(sum(a * x for (a, _, _), x in zip(TERMS, t))) / sum(map(abs, t))
