import itertools
from math import factorial

import numpy as np
import pytest

from hypvol.cubature import IntegrationError, _eval_cell, build_rule

_LADDER_STEPS = {2: (8, 12, 17), 3: (8, 12, 17), 4: (6, 9, 13)}


def dense_collapsed_rule(n, g, ideal_corner):
    """The g^n-point collapsed (Duffy) rule on the simplex with the
    collapse corner first, built point by point: barycentric rows C and
    weights omega with integral over the simplex = |det| * omega . f(C W).
    At an ideal corner the radial node is squared."""
    x, w = np.polynomial.legendre.leggauss(g)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    rows, weights = [], []
    for idx in itertools.product(range(g), repeat=n):
        u, weight = x[list(idx)], float(np.prod(w[list(idx)]))
        r = u[0] ** 2 if ideal_corner else u[0]
        if ideal_corner:
            weight *= 2.0 * u[0]
        weight *= r ** (n - 1)
        face, rest = [], 1.0
        for k in range(1, n):
            face.append(u[k] * rest)
            weight *= (1.0 - u[k]) ** (n - 1 - k)
            rest *= 1.0 - u[k]
        face.append(rest)
        rows.append([1.0 - r] + [r * b for b in face])
        weights.append(weight)
    return np.array(rows), np.array(weights)


def _klein_simplex(rng, n, nideal, rmin, rmax):
    """Random Klein vertices, the first nideal on the sphere and the rest
    at radii drawn from [rmin, rmax)."""
    dirs = rng.normal(size=(n + 1, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.where(np.arange(n + 1) < nideal, 1.0, rng.uniform(rmin, rmax, n + 1))
    return dirs * radii[:, None]


@pytest.mark.parametrize("ideal_corner", [False, True], ids=["material", "ideal"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_eval_cell_matches_dense_collapsed_rule(n, ideal_corner):
    klein = _klein_simplex(np.random.default_rng(10 * n + ideal_corner), n,
                           int(ideal_corner), 0.2, 0.8)
    mix = np.eye(n + 1)
    for g in _LADDER_STEPS[n]:
        C, omega = dense_collapsed_rule(n, g, ideal_corner)
        assert omega.sum() == pytest.approx(1.0 / factorial(n), rel=1e-13)
        pts = C @ klein
        f = (1.0 - np.sum(pts * pts, axis=1)) ** (-(n + 1) / 2.0)
        dense = abs(np.linalg.det(klein[1:] - klein[0])) * float(omega @ f)
        assert _eval_cell(mix, ideal_corner, klein, g) == pytest.approx(dense, rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vertex_outside_ball_escapes(n):
    """A material vertex 1e-3 outside the ball puts integration points
    outside it; the rule must refuse rather than integrate through."""
    klein = _klein_simplex(np.random.default_rng(n), n, 1, 0.2, 0.8)
    klein[0] *= 1.001
    with pytest.raises(IntegrationError, match="escaped the open ball"):
        build_rule(klein, [False] * (n + 1), 1e-9)


def _seeded_simplices():
    """Ten n=3 and ten n=4 Klein simplices with 0, 1, 2 ideal vertices in
    turn and material vertices up to 0.999 from the centre."""
    rng = np.random.default_rng(2026)
    return [(_klein_simplex(rng, n, i % 3, 0.5, 0.999), [k < i % 3 for k in range(n + 1)])
            for n in (3, 4) for i in range(10)]


# (Gauss degree, corner is ideal) per cell of each seeded simplex's rule at
# tol 1e-9, in build order.
_M, _I = False, True
_PINNED_RULES = [
    ((24, _M),),
    ((48, _I),),
    ((24, _I), (24, _I)),
    ((34, _M),),
    ((17, _I),),
    ((34, _I), (34, _I)),
    ((17, _M),),
    ((48, _I),),
    ((24, _I), (24, _I)),
    ((17, _M),),
    ((27, _M),),
    ((27, _I),),
    ((27, _I), (19, _I), (13, _M), (13, _M), (13, _M), (13, _M), (38, _M), (13, _M),
     (9, _M), (13, _M), (13, _M), (27, _I), (27, _M), (38, _M)),
    ((27, _M),),
    ((38, _I),),
    ((27, _I), (27, _I)),
    ((19, _M),),
    ((19, _I), (13, _M), (13, _M), (38, _M), (9, _M), (13, _M), (9, _M), (9, _M),
     (13, _M), (9, _M), (9, _M), (13, _M), (9, _M), (19, _I)),
    ((27, _I), (27, _I)),
    ((13, _M),),
]


def test_rule_selection_is_pinned():
    """The ladder's choice of cells and Gauss degrees on a fixed set of
    n=3 and n=4 simplices, splitting included, and the bound it meets."""
    tol = 1e-9
    for (klein, ideal), pinned in zip(_seeded_simplices(), _PINNED_RULES, strict=True):
        rule = build_rule(klein, ideal, tol)
        assert tuple((g, flag) for _, flag, g in rule.cells) == pinned
        assert rule.error_estimate <= tol
