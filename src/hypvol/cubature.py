"""Klein-model integration of the hyperbolic volume element over geodesic
simplices.

The hyperbolic volume of a geodesic simplex equals the integral of
(1 - |x|^2)^{-(n+1)/2} over the Euclidean simplex spanned by the Klein
images of its vertices.  The integrand blows up at ideal vertices.  In
cone coordinates p = (1-r) w0 + r q about a corner w0, with q on the
opposite face, the radial integral has a closed form,

    int_0^1 r^{n-1} (1 - |p|^2)^{-(n+1)/2} dr = K_n(x) / (c e^{(n-1)/2}),

with c = 1 - w0.q, e = 1 - |q|^2, x = sqrt(c^2 - a e) / c = tanh d,
a = 1 - |w0|^2 (0 at an ideal corner) and K_n(tanh d) = cosh(d) S_n(d) /
sinh(d)^n, S_n(d) = int_0^d sinh^{n-1}.  What is left to integrate over
the face is analytic even when w0 is ideal.  The scheme therefore is:

  1. bisect edges joining pairs of ideal vertices until every cell has at
     most one ideal vertex (corner isolation),
  2. per cell, sum the closed-form radial integral over a collapsed
     (Duffy-type) Gauss rule with g^{n-1} nodes on the face opposite that
     corner, using only einsum and elementwise numpy (no threaded BLAS),
  3. raise the per-axis count until two successive estimates agree,
     bisecting cells whose convergence stalls (e.g. pinched against the
     sphere) and splitting their error budgets.

Material vertices on or outside the unit sphere are refused up front.
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
_BELOW_ONE = float(np.nextafter(1.0, 0.0))
_SERIES_Y3 = 0.09  # the n = 3 closed form below x = 0.3 cancels
_SERIES_Y = 0.5  # the n >= 5 recurrence below x^2 = 1/2 cancels


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


_FACE_CACHE: dict = {}


def _face_rule(n: int, g: int):
    """Collapsed Gauss rule with g^{n-1} nodes on the standard
    (n-1)-simplex: barycentrics beta ((n, g^{n-1}), one row per vertex)
    and weights wf (collapse jacobian prod_k (1-u_k)^{n-2-k}, summing to
    1/(n-1)!)."""
    key = (n, g)
    hit = _FACE_CACHE.get(key)
    if hit is not None:
        return hit
    x, w = _gauss01(g)
    grid = zip(np.meshgrid(*([x] * (n - 1)), indexing="ij"),
               np.meshgrid(*([w] * (n - 1)), indexing="ij"))
    beta = np.empty((n, g ** (n - 1)))
    wf, rem = np.ones(g ** (n - 1)), np.ones(g ** (n - 1))
    for k, (u, wu) in enumerate(grid):
        u = u.ravel()
        wf *= wu.ravel() * (1.0 - u) ** (n - 2 - k)
        beta[k] = u * rem
        rem *= 1.0 - u
    beta[n - 1] = rem
    for arr in (beta, wf):
        arr.setflags(write=False)
    _FACE_CACHE[key] = hit = (beta, wf)
    return hit


def _kernel_series(n: int, y: np.ndarray) -> np.ndarray:
    """K_n = 2F1(1/2, 1; (n+2)/2; x^2) / n summed at y = x^2 < 1: term
    j+1 is term j times (2j+1) y / (2j+n+2), so the tail after J terms is
    below y^J / n."""
    ymax = float(y.max(initial=0.0))
    terms = 1 if ymax == 0.0 else int(np.ceil(np.log(2.0 ** -56) / np.log(ymax)))
    term = np.full_like(y, 1.0 / n)
    total = term.copy()
    for j in range(terms):
        term *= ((2 * j + 1) / (2 * j + n + 2)) * y
        total += term
    return total


def _radial_kernel(n: int, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """K_n(x) = cosh(d) S_n(d) / sinh(d)^n with x = tanh d, m = sech d =
    sqrt(1 - x^2) and S_n(d) = int_0^d sinh^{n-1}; K_n(0) = 1/n and
    K_n(1) = 1/(n-1).  Both x and m are passed because each is computed
    without cancellation from the cell data.  n = 2 and 4 are rational in
    m (x may be None there); n = 3 uses artanh, and n >= 5 climbs
    K_k = (1 - (k-2) m^2 K_{k-2}) / ((k-1) x^2).  Those forms cancel at
    small x, where the hypergeometric series takes over."""
    if n == 2:
        return 1.0 / (1.0 + m)
    if n == 4:
        return (1.0 + 2.0 * m) / (3.0 * (1.0 + m) ** 2)
    y, m2 = x * x, m * m
    with np.errstate(divide="ignore", invalid="ignore"):
        if n % 2:
            xc = np.minimum(x, _BELOW_ONE)  # artanh(1) = inf, and m2 = 0 there
            K = 0.5 * (1.0 - m2 * np.arctanh(xc) / xc) / y
        else:
            K = 1.0 / (1.0 + m)
        for k in range(5 if n % 2 else 4, n + 1, 2):
            K = (1.0 - (k - 2) * m2 * K) / ((k - 1) * y)
    small = y < (_SERIES_Y3 if n == 3 else _SERIES_Y)
    if small.any():
        K[small] = _kernel_series(n, y[small])
    return K


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


def _cell_frame(mix, has_ideal, klein: np.ndarray):
    """What a cell's value needs besides the Gauss degree: the collapse
    corner w0, the edges dW = W[1:] - w0, 1 - |w0|^2, the kernel's a
    (1 - |w0|^2 again, but 0 at an ideal corner) and |det dW|."""
    W = mix @ klein
    w0, dW = W[0], W[1:] - W[0]
    a0 = 1.0 - float(w0 @ w0)
    return w0, dW, a0, 0.0 if has_ideal else a0, abs(np.linalg.det(dW))


def _face_sum(frame, g: int) -> float:
    """|det dW| * sum_j wf_j F(q_j) over the face rule of degree g on the
    face opposite w0, where F(q) = int_0^1 r^{n-1} (1 - |(1-r) w0 +
    r q|^2)^{-(n+1)/2} dr = K_n(x) / (c e^{(n-1)/2}) in closed form.  With
    d = q - w0 = beta dW and b = w0.d: c = 1 - w0.q = 1 - |w0|^2 - b,
    e = 1 - |q|^2 = c - b - |d|^2, and x^2 = D / c^2, m^2 = 1 - x^2 =
    a e / c^2 with D = c^2 - a e = a |d|^2 + b^2."""
    w0, dW, a0, a, vol = frame
    n = w0.shape[0]
    beta, wf = _face_rule(n, g)
    d = np.einsum("kj,ki->ji", dW, beta)
    b = np.einsum("j,ji->i", w0, d)
    s = np.einsum("ji,ji->i", d, d)
    c = a0 - b
    e = c - b - s
    if not (e.min() > 0.0 and c.min() > 0.0):
        raise IntegrationError(
            "integration points escaped the open ball; simplex is not "
            "contained in the closed ball or is degenerate against it",
            np.nan, np.inf)
    # the n = 2 and n = 4 kernels are rational in m alone
    x = None if n in (2, 4) else np.minimum(np.sqrt(a * s + b * b) / c, 1.0)
    m = np.sqrt(a * e) / c
    F = _radial_kernel(n, x, m) / c
    half = (n - 1) // 2  # e^{(n-1)/2} as e^half, times sqrt(e) for even n
    F /= e ** half * np.sqrt(e) if n % 2 == 0 else e ** half
    return vol * float(np.einsum("i,i->", wf, F))


def _eval_cell(mix, has_ideal, klein: np.ndarray, g: int) -> float:
    return _face_sum(_cell_frame(mix, has_ideal, klein), g)


def _check_material_inside(klein: np.ndarray, ideal: Sequence[bool]) -> None:
    """A material vertex on or outside the unit sphere cannot be
    integrated; refuse it here rather than let the ladder stall."""
    r2 = np.einsum("ij,ij->i", klein, klein)
    for i, (flag, rr) in enumerate(zip(ideal, r2)):
        if not flag and not rr < 1.0:
            raise IntegrationError(
                f"material vertex {i} at Klein radius {np.sqrt(rr):.17g} "
                "escaped the open ball", np.nan, np.inf)


@dataclass(frozen=True)
class VolumeRule:
    """A frozen integration rule for one simplex shape: barycentric cells
    with per-cell Gauss degrees, the summed error estimate, the value
    the rule converged to on the simplex it was built on, and the
    ideal-vertex mask it was built for.  Re-evaluating the same rule on
    nearby vertex configurations yields a value that varies analytically
    with the vertices."""

    cells: tuple  # of (mix, has_ideal, g)
    error_estimate: float
    value: float
    ideal: tuple  # of bool, one per vertex

    def evaluate(self, klein: np.ndarray) -> float:
        klein = np.asarray(klein, dtype=float)
        _check_material_inside(klein, self.ideal)
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
    _check_material_inside(klein, ideal)
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
        frame = _cell_frame(mix, flag, klein)
        for g in _ladder(n):
            val = _face_sum(frame, g)
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
    return VolumeRule(tuple(final), total_bound, total_value,
                      tuple(bool(f) for f in ideal))


def integrate_simplex(klein: np.ndarray, ideal: Sequence[bool], tol: float) -> tuple[float, float]:
    """Hyperbolic volume magnitude of the Klein simplex with the given
    ideal-vertex mask; returns (value, error_estimate)."""
    rule = build_rule(klein, ideal, tol)
    return rule.value, rule.error_estimate
