"""Reference values computed apart from hypvol, for the output checks.

Nothing here calls into hypvol: the figure-eight volume and the
Bloch-Wigner dilogarithm come from mpmath, triangle angles from the
hyperbolic law of cosines, and 4-simplex volumes from a Grundmann-Moeller
cubature over Euclidean subsimplices of the Klein-model simplex.  Points
are plain numpy arrays of hyperboloid or Klein coordinates.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.cache
def _mpmath():
    """mpmath, imported on first use so that it stays out of the
    benchmark's set-up time."""
    import mpmath

    return mpmath


@functools.cache
def figure_eight_volume() -> float:
    """Volume of the complete figure-eight knot complement, 6 L(pi/3),
    with L(theta) = Cl_2(2 theta) / 2 the Lobachevsky function."""
    mpmath = _mpmath()
    return float(6 * mpmath.clsin(2, 2 * mpmath.pi / 3) / 2)


@functools.lru_cache(maxsize=4096)
def bloch_wigner(z: complex) -> float:
    """D(z) = Im Li_2(z) + arg(1 - z) log|z|: the volume of the ideal
    tetrahedron with shape z (positive in the upper half plane).  Cached:
    the figure-eight scans meet the same shapes in every round."""
    mpmath = _mpmath()
    z = mpmath.mpc(z)
    return float(mpmath.im(mpmath.polylog(2, z)) + mpmath.arg(1 - z) * mpmath.log(abs(z)))


def _riemann_sphere(klein_point: np.ndarray) -> complex:
    """Stereographic image of a point of the unit sphere S^2."""
    a, b, c = (float(x) for x in klein_point)
    return complex(a, b) / (1.0 - c)


def ideal_tetrahedron_volume(klein_points) -> float:
    """Unsigned volume of the ideal tetrahedron with the given Klein
    (unit sphere) vertices, |D| of their cross-ratio."""
    z0, z1, z2, z3 = (_riemann_sphere(p) for p in klein_points)
    cross = (z2 - z0) * (z3 - z1) / ((z2 - z1) * (z3 - z0))
    return abs(bloch_wigner(cross))


def _form(u: np.ndarray, v: np.ndarray) -> float:
    return float(-u[0] * v[0] + u[1:] @ v[1:])


def triangle_area(points) -> float:
    """Unsigned area pi - (A + B + C) of a hyperbolic triangle given by
    hyperboloid (material) or lightlike (ideal) coordinates.

    Each angle comes from the law of cosines in Gram form,
    cos A = (<A,B><A,C> - <A,A><B,C>) / sqrt((<A,B>^2 - <A,A><B,B>)(<A,C>^2 - <A,A><C,C>)),
    which for material points is (cosh b cosh c - cosh a) / (sinh b sinh c)
    and stays valid, being homogeneous in B and C, when they are ideal.
    The angle at an ideal vertex is 0.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    total = 0.0
    for k in range(3):
        a, b, c = pts[k], pts[(k + 1) % 3], pts[(k + 2) % 3]
        aa = _form(a, a)
        if abs(aa) <= 1e-9 * float(a @ a):
            continue  # ideal vertex: zero angle
        ab, ac, bc = _form(a, b), _form(a, c), _form(b, c)
        num = ab * ac - aa * bc
        den = math.sqrt((ab * ab - aa * _form(b, b)) * (ac * ac - aa * _form(c, c)))
        total += math.acos(max(-1.0, min(1.0, num / den)))
    return math.pi - total


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in _compositions(total - k, parts - 1):
            yield (k,) + rest


@functools.lru_cache(maxsize=None)
def grundmann_moeller(n: int, s: int):
    """Grundmann-Moeller rule of degree 2s+1 on the n-simplex:
    barycentric points (rows) and weights summing to 1/n!, so that the
    integral of f over a simplex with vertex matrix V is
    |det(V[1:] - V[0])| * sum(w * f(points @ V))."""
    d = 2 * s + 1
    points, weights = [], []
    for i in range(s + 1):
        w = ((-1) ** i * 2.0 ** (-2 * s) * (d + n - 2 * i) ** d
             / (math.factorial(i) * math.factorial(d + n - i)))
        for beta in _compositions(s - i, n + 1):
            points.append([(2 * b + 1) / (d + n - 2 * i) for b in beta])
            weights.append(w)
    return np.array(points), np.array(weights)


def _bisect(simplices, depth):
    """Split each Euclidean simplex at the midpoint of its longest edge,
    depth times."""
    for _ in range(depth):
        out = []
        for V in simplices:
            m = V.shape[0]
            i, j = max(((i, j) for i in range(m) for j in range(i + 1, m)),
                       key=lambda e: float(np.linalg.norm(V[e[0]] - V[e[1]])))
            mid = 0.5 * (V[i] + V[j])
            for k in (i, j):
                child = V.copy()
                child[k] = mid
                out.append(child)
        simplices = out
    return simplices


def material_simplex_volume(klein: np.ndarray, depth: int = 4, s: int = 6):
    """Unsigned hyperbolic volume of a simplex with material vertices,
    given by the (n+1, n) Klein vertex matrix: the integral of
    (1 - |x|^2)^(-(n+1)/2) over the Euclidean simplex, with Grundmann-
    Moeller rules of degrees 2s+1 and 2s+3 on 2^depth pieces.  Returns
    (value, error estimate), the estimate being the difference of the
    two degrees."""
    klein = np.asarray(klein, dtype=float)
    n = klein.shape[1]
    pieces = _bisect([klein], depth)
    estimates = []
    for deg in (s, s + 1):
        bary, w = grundmann_moeller(n, deg)
        total = 0.0
        for V in pieces:
            x = bary @ V
            f = (1.0 - np.einsum("ij,ij->i", x, x)) ** (-(n + 1) / 2.0)
            total += abs(np.linalg.det(V[1:] - V[0])) * float(w @ f)
        estimates.append(total)
    return estimates[1], abs(estimates[1] - estimates[0])
