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
     substitution on the radial axis when the corner is ideal; the grid
     is a radial x face product, so |x|^2 is a broadcast of face-sized
     vectors and no g^n-point matrix or threaded BLAS product is formed,
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


_FACTOR_CACHE: dict = {}


def _factors(n: int, g: int, ideal_corner: bool):
    """Radial nodes r and weights wr (cone measure r^{n-1}, r = u^2 at
    an ideal corner), face barycentrics beta ((g^{n-1}, n)) and weights
    wf (collapse jacobian prod_k (1-u_k)^{n-2-k}) of the collapsed rule:
    points C = [1-r, r beta] (collapse corner first), omega = wr (x) wf."""
    key = (n, g, ideal_corner)
    hit = _FACTOR_CACHE.get(key)
    if hit is not None:
        return hit
    x, w = _gauss01(g)
    r, wr = (x * x, 2.0 * x * w) if ideal_corner else (x, w)
    wr = wr * r ** (n - 1)
    grid = zip(np.meshgrid(*([x] * (n - 1)), indexing="ij"),
               np.meshgrid(*([w] * (n - 1)), indexing="ij"))
    beta = np.empty((g ** (n - 1), n))
    wf, rem = np.ones(g ** (n - 1)), np.ones(g ** (n - 1))
    for k, (u, wu) in enumerate(grid):
        u = u.ravel()
        wf *= wu.ravel() * (1.0 - u) ** (n - 2 - k)
        beta[:, k] = u * rem
        rem *= 1.0 - u
    beta[:, n - 1] = rem
    for a in (r, wr, beta, wf):
        a.setflags(write=False)
    _FACTOR_CACHE[key] = hit = (r, wr, beta, wf)
    return hit


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
    """|det[w1-w0,...]| * omega . f(C @ W): a point (1-r) w0 + r q with
    q = beta W[1:] has |x|^2 = (1-r)^2 |w0|^2 + 2r(1-r) w0.q + r^2 |q|^2."""
    n = klein.shape[1]
    W = mix @ klein
    r, wr, beta, wf = _factors(n, g, has_ideal)
    q = np.einsum("ij,jk->ik", beta, W[1:])
    a = np.einsum("ij,j->i", q, W[0])
    b = np.einsum("ij,ij->i", q, q)
    s = 1.0 - r
    t = np.multiply.outer(-2.0 * r * s, a)
    t -= np.multiply.outer(r * r, b)
    t += (1.0 - s * s * float(W[0] @ W[0]))[:, None]
    if np.any(t <= 0.0):
        raise IntegrationError(
            "integration points escaped the open ball; simplex is not "
            "contained in the closed ball or is degenerate against it",
            np.nan, np.inf)
    f = t * np.sqrt(t) if n % 2 == 0 else t * t  # t^{(n+1)/2}, no pow
    for _ in range((n - 2) // 2):
        f *= t
    np.reciprocal(f, out=f)
    D = abs(np.linalg.det(W[1:] - W[0]))
    return D * float(np.einsum("i,ij,j->", wr, f, wf))


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
