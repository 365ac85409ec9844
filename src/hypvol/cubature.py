"""Klein-model integration of the hyperbolic volume element over geodesic
simplices.

The hyperbolic volume of a geodesic simplex equals the integral of
(1 - |x|^2)^{-(n+1)/2} over the Euclidean simplex spanned by the Klein
images of its vertices.  The integrand blows up at ideal vertices, but a
cone parameterization with radial coordinate s measured from the vertex
picks up a factor s^{(n-3)/2}, so substituting s = u^2 makes the mapped
integrand analytic for every n >= 2.  The scheme therefore is:

  1. bisect edges joining pairs of ideal vertices until every cell has at
     most one ideal vertex (corner isolation),
  2. per cell, map a tensor Gauss-Legendre grid through collapsed
     (Duffy-type) coordinates anchored at that corner, with the square
     substitution on the radial axis when the corner is ideal,
  3. raise the per-axis count until two successive estimates agree,
     bisecting cells whose convergence stalls (e.g. pinched against the
     sphere) and splitting their error budgets.

Cells are stored as barycentric mixtures of the parent vertices, so a
rule built for one simplex re-evaluates on nearby simplices and the
result is an analytic function of the vertex paths; that keeps finite
differences of volumes along families well behaved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["IntegrationError", "VolumeRule", "integrate_simplex", "build_rule"]

_G_LADDERS = {
    2: (8, 12, 17, 24, 34, 48),
    3: (8, 12, 17, 24, 34, 48),
    4: (6, 9, 13, 19, 27, 38),
}
_G_LADDER_HIGH = (4, 6, 9, 13, 19)
_REL_FLOOR = 1e-13
_MAX_SPLIT_DEPTH = 14


class IntegrationError(RuntimeError):
    """Requested tolerance unreachable; carries the best estimate and the
    last error bound."""

    def __init__(self, message, best, bound):
        super().__init__(message)
        self.best = best
        self.bound = bound


def _gauss01(g: int):
    x, w = np.polynomial.legendre.leggauss(g)
    return 0.5 * (x + 1.0), 0.5 * w


_GRID_CACHE: dict = {}


def _grid(n: int, g: int, ideal_corner: bool):
    """Coefficient matrix C ((g^n, n+1), rows are barycentric weights on
    the cell vertices with the collapse corner first) and quadrature
    weights omega, such that the cell integral of f is
    |det[w1-w0,...]| * omega . f(C @ W)."""
    key = (n, g, ideal_corner)
    hit = _GRID_CACHE.get(key)
    if hit is not None:
        return hit
    x, w = _gauss01(g)
    axes = np.meshgrid(*([x] * n), indexing="ij")
    wts = np.meshgrid(*([w] * n), indexing="ij")
    u = [a.ravel() for a in axes]
    omega = np.ones(g**n)
    for a in wts:
        omega = omega * a.ravel()
    if ideal_corner:
        r = u[0] ** 2
        omega = omega * (2.0 * u[0])
    else:
        r = u[0]
    # cone measure r^{n-1} dr, face jacobian prod_{k=2..n} (1-u_k)^{n-k}
    omega = omega * r ** (n - 1)
    beta = np.empty((g**n, n))
    rem = np.ones(g**n)
    for k in range(n - 1):
        beta[:, k] = u[k + 1] * rem
        rem = rem * (1.0 - u[k + 1])
    beta[:, n - 1] = rem
    for k in range(2, n + 1):
        omega = omega * (1.0 - u[k - 1]) ** (n - k)
    C = np.empty((g**n, n + 1))
    C[:, 0] = 1.0 - r
    C[:, 1:] = r[:, None] * beta
    C.setflags(write=False)
    omega.setflags(write=False)
    _GRID_CACHE[key] = (C, omega)
    return C, omega


def _decompose_cells(ideal: Sequence[bool]):
    """Split (in barycentric coordinates) until every cell holds at most
    one ideal vertex; returns (mix, corner_ideal) pairs where mix is an
    (n+1, n+1) row-stochastic matrix over parent vertices with the cell's
    collapse corner in row 0."""
    n1 = len(ideal)
    start = (np.eye(n1), tuple(i for i, f in enumerate(ideal) if f))
    stack = [start]
    cells = []
    while stack:
        mix, ideal_idx = stack.pop()
        if len(ideal_idx) <= 1:
            corner = ideal_idx[0] if ideal_idx else 0
            order = [corner] + [i for i in range(n1) if i != corner]
            cells.append((mix[order], bool(ideal_idx)))
            continue
        i, j = ideal_idx[0], ideal_idx[1]
        mid = 0.5 * (mix[i] + mix[j])
        a = mix.copy()
        a[i] = mid
        b = mix.copy()
        b[j] = mid
        stack.append((a, tuple(k for k in ideal_idx if k != i)))
        stack.append((b, tuple(k for k in ideal_idx if k != j)))
    return cells


def _eval_cell(mix, has_ideal, klein: np.ndarray, g: int) -> float:
    n = klein.shape[1]
    W = mix @ klein
    C, omega = _grid(n, g, has_ideal)
    pts = C @ W
    t = 1.0 - np.einsum("ij,ij->i", pts, pts)
    if np.any(t <= 0.0):
        raise IntegrationError(
            "integration points escaped the open ball; simplex is not "
            "contained in the closed ball or is degenerate against it",
            np.nan, np.inf)
    f = t ** (-(n + 1) / 2.0)
    D = abs(np.linalg.det(W[1:] - W[0]))
    return D * float(omega @ f)


@dataclass(frozen=True)
class VolumeRule:
    """A frozen integration rule for one simplex shape: barycentric cells
    with per-cell Gauss degrees, the summed error estimate, and the value
    the rule converged to on the simplex it was built on.  Re-evaluating
    the same rule on nearby vertex configurations yields a value that
    varies analytically with the vertices."""

    cells: tuple  # of (mix, has_ideal, g)
    error_estimate: float
    value: float

    def evaluate(self, klein: np.ndarray) -> float:
        klein = np.asarray(klein, dtype=float)
        return sum(_eval_cell(mix, flag, klein, g) for mix, flag, g in self.cells)


def _ladder(n: int):
    return _G_LADDERS.get(n, _G_LADDER_HIGH)


def _split_cell(mix, has_ideal, klein):
    """Bisect the cell at its longest Klein edge; the child that loses
    the collapse corner becomes an ordinary (material-corner) cell."""
    W = mix @ klein
    m = W.shape[0]
    besti, bestj, longest = 0, 1, -1.0
    for i in range(m):
        for j in range(i + 1, m):
            d = float(np.linalg.norm(W[i] - W[j]))
            if d > longest:
                besti, bestj, longest = i, j, d
    midrow = 0.5 * (mix[besti] + mix[bestj])
    out = []
    for replace in (besti, bestj):
        child = mix.copy()
        child[replace] = midrow
        out.append((child, has_ideal and replace != 0))
    return out


def build_rule(klein: np.ndarray, ideal: Sequence[bool], tol: float) -> VolumeRule:
    """Adaptively pick per-cell Gauss degrees (subdividing cells whose
    spectral convergence stalls) until the total error estimate is at
    most tol, then freeze the rule for re-evaluation on nearby vertex
    configurations.  Its value is the sum of the converged cell values,
    which equals the rule evaluated on `klein`."""
    klein = np.asarray(klein, dtype=float)
    n = klein.shape[1]
    base = _decompose_cells(ideal)
    budget0 = tol / max(len(base), 1)
    stack = [(mix, flag, budget0, _MAX_SPLIT_DEPTH) for mix, flag in base]
    final = []
    total_bound = 0.0
    total_value = 0.0
    while stack:
        mix, flag, budget, depth = stack.pop()
        prev = None
        done = False
        val = bound = None
        for g in _ladder(n):
            val = _eval_cell(mix, flag, klein, g)
            if prev is not None:
                bound = abs(val - prev)
                if bound <= max(budget, _REL_FLOOR * abs(val)):
                    final.append((mix, flag, g))
                    total_bound += bound
                    total_value += val
                    done = True
                    break
            prev = val
        if done:
            continue
        if depth <= 0:
            raise IntegrationError(
                f"cell subdivision exhausted at estimate {val} with bound "
                f"{bound} > budget {budget}", val, bound)
        for child, child_flag in _split_cell(mix, flag, klein):
            stack.append((child, child_flag, budget / 2.0, depth - 1))
    if total_bound > tol:
        raise IntegrationError(
            f"requested tolerance {tol} is below what double precision "
            f"reaches here (estimate {total_value}, bound {total_bound})",
            total_value, total_bound)
    return VolumeRule(tuple(final), total_bound, total_value)


def integrate_simplex(klein: np.ndarray, ideal: Sequence[bool], tol: float) -> tuple[float, float]:
    """Hyperbolic volume magnitude of the Klein simplex with the given
    ideal-vertex mask; returns (value, error_estimate)."""
    rule = build_rule(klein, ideal, tol)
    return rule.value, rule.error_estimate
