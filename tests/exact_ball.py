"""Exact open-ball oracle for the tests, written apart from the package.

Each family's basis vectors are unit vectors at known angles, so the dot
product of two of them is an exact element of Q(sqrt d): cos 60 = 1/2,
cos 72 = (sqrt 5 - 1)/4, cos 144 = -(sqrt 5 + 1)/4 and cos 45 = sqrt 2 / 2.
|x|^2 of a coefficient row is then P + Q sqrt d with rational P and Q, and
its comparison with r^2 (the float r read as the exact rational it is) is
made in ``fractions.Fraction``.
"""

from fractions import Fraction
from math import lcm

import numpy as np

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

# cos of the angle between basis vectors i and j as (rational, sqrt(d)) parts
_PENROSE_COS = {0: (1, 0), 1: (-QUARTER, QUARTER), 2: (-QUARTER, -QUARTER)}
_AB_COS = {0: (1, 0), 1: (0, HALF), 2: (0, 0), 3: (0, -HALF)}


def _dot(family, i, j):
    if family == "square":
        return (int(i == j), 0)
    if family == "triangular":
        return (1, 0) if i == j else (HALF, 0)
    if family == "penrose":  # basis vector j at angle 2 pi j / 5
        m = (i - j) % 5
        return _PENROSE_COS[min(m, 5 - m)]
    return _AB_COS[abs(i - j)]  # ammann_beenker: vector j at angle pi j / 4


SURD = {"square": 2, "triangular": 2, "penrose": 5, "ammann_beenker": 2}
RANK = {"square": 2, "triangular": 2, "penrose": 4, "ammann_beenker": 4}


def gram(family):
    """(den, P, Q) with |x|^2 = (k.P.k + sqrt(d) k.Q.k) / den, P and Q as
    integer matrices."""
    rank = RANK[family]
    dots = [[_dot(family, i, j) for j in range(rank)] for i in range(rank)]
    den = lcm(*(Fraction(part).denominator for row in dots for pair in row for part in pair))
    p = np.array([[int(Fraction(pair[0]) * den) for pair in row] for row in dots])
    q = np.array([[int(Fraction(pair[1]) * den) for pair in row] for row in dots])
    return den, p, q


def norm2(family, rows):
    """|x|^2 of each coefficient row as an exact (P, Q) pair of Fractions,
    |x|^2 = P + Q sqrt d."""
    den, p, q = gram(family)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, RANK[family])
    a = np.einsum("ij,jk,ik->i", rows, p, rows).tolist()
    b = np.einsum("ij,jk,ik->i", rows, q, rows).tolist()
    return [(Fraction(x, den), Fraction(y, den)) for x, y in zip(a, b)]


def _sign(u, v, d):
    """Sign of u + v sqrt(d) for rationals u, v."""
    if v == 0 or (u >= 0) == (v >= 0) and u != 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0)
    return (u > 0) - (u < 0) if u * u > d * v * v else (v > 0) - (v < 0)


def signs(family, rows, radius):
    """The exact sign of |x| - radius for each coefficient row."""
    if radius < 0:
        return [1] * len(np.asarray(rows).reshape(-1, RANK[family]))
    r2 = Fraction(radius) ** 2
    return [_sign(p - r2, q, SURD[family]) for p, q in norm2(family, rows)]


def in_open_ball(family, rows, radius):
    """Mask of the rows with |x| < radius, exactly."""
    return np.array([s < 0 for s in signs(family, rows, radius)], dtype=bool)


def ball_ids(g, radius, centre=None):
    """Vertex ids of ``g`` in the open ball of ``radius`` about the origin,
    or about vertex ``centre``, ascending.  Only the vertices within
    radius + 1/2 of the centre in float are tested exactly; the embedding
    is nowhere near that far off."""
    rows = g.coeffs if centre is None else g.coeffs - g.coeffs[centre]
    points = g.embed if centre is None else g.embed - g.embed[centre]
    near = np.flatnonzero(np.einsum("ij,ij->i", points, points) < (abs(radius) + 0.5) ** 2)
    return near[in_open_ball(g.basis.id, rows[near], radius)]
