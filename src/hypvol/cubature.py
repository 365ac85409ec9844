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
     corner,
  3. raise the per-axis count until two successive estimates agree,
     bisecting cells whose convergence stalls (e.g. pinched against the
     sphere) and splitting their error budgets.

Batched ladder.  `build_rules` runs step 3 for every cell of a list of
same-dimension simplices at once.  Each generation stacks the per-cell
set-up of its pending cells; each rung of the Gauss-degree ladder
evaluates all still-active cells in one kernel call (the first two
rungs in one call, since no cell can retire on the first), and a cell
whose two last estimates agree retires with its degree, value and bound.
A cell that exhausts the ladder bisects into the next generation with
half its budget.  Each simplex's final cells are kept in depth-first
split order (sorted on their split path), so its rule is what building
it alone gives; `build_rule` is `build_rules` on one simplex.  A frozen
rule re-evaluates its cells grouped by degree through the same kernel,
on one simplex or on a stack of simplices (one kernel call per degree
for the whole stack).

Split kernel.  With M = 1 - W W^T over a cell's Klein vertices W (corner
first) and the face barycentrics split as a top axis u toward W1 times
the collapsed rule on the sub-face W2..Wn, the node values are

    c = (1-u) c' + u M01,   e = (1-u)^2 e' + 2u(1-u) f' + u^2 M11,

where c' = sum_k beta_k M0k, f' = sum_k beta_k M1k and e' = sum_kl
beta_k beta_l Mkl live on the g^{n-2} sub-face nodes.  One einsum gives
the sub-face values and two more carry them along the top axis, so no
n x g^{n-1} array of node coordinates is formed.  Every node value is a
positive combination of entries of M, and M = mix (1 - K K^T) mix^T is
the congruence by the cell's mix of the simplex's own matrix 1 - K K^T,
whose entries off the ideal diagonal are positive exactly when no
material vertex leaves the open ball and no two vertices meet on the
sphere.  Checking that once per
simplex keeps every node inside the open ball, and no node value
cancels.  Cells run in chunks of at most 2^13 cell x node values, so
peak memory stays flat for large batches, and only einsum and
elementwise numpy touch arrays that grow with g (no threaded BLAS).

Cells are stored as barycentric mixtures of the parent vertices, so a
rule built for one simplex re-evaluates on nearby simplices and the
result is an analytic function of the vertex paths; that keeps finite
differences of volumes along families well behaved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["IntegrationError", "VolumeRule", "build_rule", "build_rules"]

_G_LADDERS = {
    2: (8, 12, 17, 24, 34, 48),
    3: (8, 12, 17, 24, 34, 48),
    4: (6, 9, 13, 19, 27, 38),
}
_G_LADDER_HIGH = (4, 6, 9, 13, 19)
_REL_FLOOR = 1e-13
_MAX_SPLIT_DEPTH = 14
_CHUNK = 1 << 13  # cell x node entries per kernel pass
_BELOW_ONE = float(np.nextafter(1.0, 0.0))
_SERIES_Y3 = 0.09  # the n = 3 closed form below x = 0.3 cancels
_SERIES_Y = 0.5  # the n >= 5 recurrence below x^2 = 1/2 cancels


class IntegrationError(RuntimeError):
    """Requested tolerance unreachable; carries the best estimate, the
    last error bound and, when raised for a batch of simplices, the
    index of the offending simplex in it (`simplex`, else None)."""

    def __init__(self, message, best, bound, simplex=None):
        super().__init__(message if simplex is None else f"simplex {simplex}: {message}")
        self.reason = message
        self.best = best
        self.bound = bound
        self.simplex = simplex


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


@functools.lru_cache(maxsize=None)
def _pairs(m: int):
    """Index pairs k <= l of an m x m symmetric matrix and the factor (1
    on the diagonal, 2 off it) that sums its quadratic form over them."""
    k, l = np.triu_indices(m)
    factor = np.where(k == l, 1.0, 2.0)
    for arr in (k, l, factor):
        arr.setflags(write=False)
    return k, l, factor


# A cell's sub-face coefficient rows, in the order the kernel reads them:
# c' and M01 give c along the top axis, e', f' and M11 give e.
_ROWS = 5


_SPLIT_CACHE: dict = {}


def _split_rule(n: int, g: int):
    """The face rule on n vertices as a top axis u (toward the first
    vertex) times the rule on the other n - 1, as the kernel uses it:

      basis  (L, G2), G2 = g^{n-2}: the sub-face barycentrics beta_k, a
             row of ones and the pair products beta_k beta_l (k <= l,
             doubled off the diagonal), so that a cell's (_ROWS, L)
             coefficients give c', M01, e', f', M11 on the sub-face;
      top_c  (2, g): 1-u, u, which carry c', M01 to c;
      top_e  (3, g): (1-u)^2, 2u(1-u), u^2, which carry e', f', M11 to e;
      weights (g G2,): the top-axis weights w (1-u)^{n-2} times the
             sub-face weights, top axis slowest."""
    key = (n, g)
    hit = _SPLIT_CACHE.get(key)
    if hit is not None:
        return hit
    u, w = _gauss01(g)
    v = 1.0 - u
    beta, wf = _face_rule(n - 1, g)
    k, l, factor = _pairs(n - 1)
    hit = (np.vstack([beta, np.ones((1, beta.shape[1])), factor[:, None] * beta[k] * beta[l]]),
           np.stack([v, u]), np.stack([v * v, 2.0 * u * v, u * u]),
           np.outer(w * v ** (n - 2), wf).ravel())
    for arr in hit:
        arr.setflags(write=False)
    _SPLIT_CACHE[key] = hit
    return hit


@functools.lru_cache(maxsize=None)
def _frame_map(n: int):
    """Where a cell's flattened (_ROWS, L) sub-face coefficients and,
    last, M00 come from in its (n+1) x (n+1) matrix M: M[0, 2:] gives
    the beta part of row c', M[1, 2:] that of row f', the upper triangle
    of M[2:, 2:] the pair part of row e', M01 and M11 the ones column of
    their rows; every other coefficient is 0.  Returns the row and
    column in M of each coefficient, a 0/1 vector of which are taken,
    and L."""
    k, l, _ = _pairs(n - 1)
    m, L = n - 1, n + len(k)  # L: n-1 barycentrics, a ones column, the pairs
    dst = np.concatenate([np.arange(m), 3 * L + np.arange(m), 2 * L + n + np.arange(len(k)),
                          [L + m, 4 * L + m, _ROWS * L]])
    rows, cols, taken = (np.zeros(_ROWS * L + 1, int), np.zeros(_ROWS * L + 1, int),
                         np.zeros(_ROWS * L + 1))
    rows[dst] = np.concatenate([np.zeros(m, int), np.ones(m, int), k + 2, [0, 1, 0]])
    cols[dst] = np.concatenate([np.arange(2, n + 1), np.arange(2, n + 1), l + 2, [1, 1, 0]])
    taken[dst] = 1.0
    for arr in (rows, cols, taken):
        arr.setflags(write=False)
    return rows, cols, taken, L


def _kernel_series(n: int, y: np.ndarray) -> np.ndarray:
    """K_n = 2F1(1/2, 1; (n+2)/2; x^2) / n summed at y = x^2 < 1: term
    j+1 is term j times (2j+1) y / (2j+n+2), so the tail after J terms is
    below y^J / n.  Evaluated by Horner's rule, in place."""
    ymax = float(y.max(initial=0.0))
    terms = 1 if ymax == 0.0 else math.ceil(math.log(2.0 ** -56) / math.log(ymax))
    coeffs = _series_coefficients(n, terms)
    K = np.full_like(y, coeffs[-1])
    for a in coeffs[-2::-1]:
        K *= y
        K += a
    return K


@functools.lru_cache(maxsize=None)
def _series_coefficients(n: int, terms: int) -> tuple:
    """Coefficients of y^0 .. y^terms of the K_n series."""
    ratios = [(2 * j + 1) / (2 * j + n + 2) for j in range(terms)]
    return tuple(np.cumprod([1.0 / n] + ratios).tolist())


def _radial_kernel(n: int, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """K_n(x) = cosh(d) S_n(d) / sinh(d)^n with x = tanh d, m = sech d =
    sqrt(1 - x^2) and S_n(d) = int_0^d sinh^{n-1}; K_n(0) = 1/n and
    K_n(1) = 1/(n-1).  Both x and m are passed because the cancellation
    of each form is in a different place.  n = 2 and 4 are rational in m
    (x may be None there); n = 3 uses artanh, and n >= 5 climbs
    K_k = (1 - (k-2) m^2 K_{k-2}) / ((k-1) x^2).  Those forms cancel at
    small x, where the hypergeometric series takes over."""
    if n == 2:
        return 1.0 / (1.0 + m)
    if n == 4:
        t = 1.0 + m
        return (t + m) / (3.0 * t * t)
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


@functools.lru_cache(maxsize=None)
def _decompose_cells(ideal: tuple):
    """Split (in barycentric coordinates) until every cell holds at most
    one ideal vertex.  Returns the cells of an ideal mask in the order
    building visits them, stacked: mixes (B, n+1, n+1), row-stochastic
    matrices over parent vertices with each cell's collapse corner in
    row 0; material (B, 1), 1 where the corner is material and 0 where
    it is ideal; shares (B,), |det mix|, each cell's part of the
    simplex's volume, halved by each bisection; and B for each cell,
    which takes 1/B of the simplex's error budget."""
    n1 = len(ideal)
    stack = [(np.eye(n1), tuple(i for i, f in enumerate(ideal) if f), 1.0)]
    mixes, material, shares = [], [], []
    while stack:
        mix, ideal_idx, share = stack.pop()
        if len(ideal_idx) <= 1:
            corner = ideal_idx[0] if ideal_idx else 0
            mixes.append(mix[[corner] + [i for i in range(n1) if i != corner]])
            material.append([0.0 if ideal_idx else 1.0])
            shares.append(share)
            continue
        i, j = ideal_idx[0], ideal_idx[1]
        mid = 0.5 * (mix[i] + mix[j])
        a = mix.copy()
        a[i] = mid
        b = mix.copy()
        b[j] = mid
        stack.append((a, tuple(k for k in ideal_idx if k != i), share / 2.0))
        stack.append((b, tuple(k for k in ideal_idx if k != j), share / 2.0))
    cells = (np.array(mixes), np.array(material), np.array(shares),
             np.full(len(shares), float(len(shares))))
    for arr in cells:
        arr.setflags(write=False)
    return cells


@functools.lru_cache(maxsize=None)
def _diagonal_skip(ideal: tuple) -> np.ndarray:
    """Flattened (n+1) x (n+1) additive mask, 1 on the diagonal at the
    ideal vertices: the entries _simplex_matrices does not require to be
    positive."""
    m = len(ideal)
    skip = np.zeros(m * m)
    skip[::m + 1] = ideal
    skip.setflags(write=False)
    return skip


def _simplex_matrices(kleins: np.ndarray, skip: np.ndarray):
    """For a Klein simplex K (n+1, n), or a stack of them (S, n+1, n),
    with its ideal vertices marked by _diagonal_skip (rows of it for a
    stack): the matrix 1 - K K^T, with the diagonal at ideal vertices (0
    up to rounding) clamped to be nonnegative, and |det(K[1:] - K[0])|.

    A cell's M is the congruence mix (1 - K K^T) mix^T (mix rows sum to
    1), and every node value a positive combination of entries of M, so
    every entry of 1 - K K^T off the ideal diagonal must be positive.
    This is the escape check: a material vertex on or outside the unit
    sphere, or two vertices that meet on it, is refused here rather than
    let the ladder stall, and a stack names the offending simplex."""
    ms = 1.0 - kleins @ kleins.swapaxes(-1, -2)
    flat = ms.reshape(*ms.shape[:-2], -1)
    if not (flat + skip).min() > 0.0:
        required = np.broadcast_to(skip == 0.0, flat.shape).reshape(ms.shape)
        *s, i, j = np.argwhere(~(ms > 0.0) & required)[0]
        simplex = int(s[0]) if s else None
        if i == j:
            radius = math.sqrt(float(kleins[(*s, i)] @ kleins[(*s, i)]))
            raise IntegrationError(f"material vertex {i} at Klein radius {radius:.17g} "
                                   "escaped the open ball", np.nan, np.inf, simplex)
        raise IntegrationError(
            f"vertices {i} and {j} meet on or beyond the sphere: integration points "
            "escaped the open ball", np.nan, np.inf, simplex)
    np.maximum(flat, 0.0, out=flat)  # the ideal diagonal, 0 up to rounding
    return ms, np.abs(np.linalg.det(kleins[..., 1:, :] - kleins[..., :1, :]))


def _cell_frames(mixes: np.ndarray, ms: np.ndarray, material_corner: np.ndarray,
                 vols: np.ndarray):
    """What the kernel needs of stacked cells besides the Gauss degree,
    computed once for every degree: from each cell's M = mix ms mix^T
    (ms from _simplex_matrices, per cell or shared; or (S, 1, n+1, n+1)
    for a stack of S simplices, which makes S x C cells, simplex-major,
    from C mixes) its (_ROWS, L)
    sub-face coefficients (see _split_rule and _frame_map) and the
    square root of the kernel's a = M00 (0 at an ideal corner, where
    material_corner, a column of 1s and 0s per cell, is 0); and the
    cells' volumes `vols`, their shares of the simplex's |det|."""
    rows, cols, taken, L = _frame_map(mixes.shape[-1] - 1)
    coef = (mixes @ ms @ mixes.swapaxes(-1, -2)).reshape(-1, *mixes.shape[-2:])
    coef = coef[:, rows, cols] * taken
    return (coef[:, :-1].reshape(len(coef), _ROWS, L), np.sqrt(coef[:, -1:] * material_corner),
            vols)


@functools.lru_cache(maxsize=None)
def _rung_plan(n: int, degrees: tuple):
    """The split rules of `degrees` (basis, top_c, top_e each) and their
    weights as one (len(degrees), N) block matrix over the N nodes of
    all degrees side by side; the 1/3 of F_4 is folded into it."""
    rules = [_split_rule(n, g) for g in degrees]
    sizes = [rule[-1].size for rule in rules]
    weights = np.zeros((len(rules), sum(sizes)))
    for k, (rule, start) in enumerate(zip(rules, np.cumsum([0] + sizes))):
        weights[k, start:start + sizes[k]] = rule[-1] / (3.0 if n == 4 else 1.0)
    weights.setflags(write=False)
    return [rule[:3] for rule in rules], weights


def _face_sums(frames, n: int, degrees: tuple) -> np.ndarray:
    """Per Gauss degree g in `degrees` and per cell, |det dW| * sum_j
    wf_j F(q_j) over the face rule of degree g on the face opposite the
    corner w0, as a (len(degrees), C) array.  F(q) = int_0^1 r^{n-1}
    (1 - |(1-r) w0 + r q|^2)^{-(n+1)/2} dr = K_n(x) / (c e^{(n-1)/2}) in
    closed form, with m = sech d = p / c, p = sqrt(a e) and x =
    sqrt(1 - m^2).  K_2 and K_4 are rational in m, so there F is formed
    from h = c + p without dividing by c:

        F_2 = 1 / (h sqrt(e)),   F_4 = (h + p) / (3 h^2 e sqrt(e)).

    c and e come from the split rule: one einsum gives the sub-face
    values on g^{n-2} nodes, and two more carry them along the top axis
    to the g x g^{n-2} grid, written side by side for all degrees into
    one (cells, nodes) array each for the elementwise rest.  Cells run
    in chunks of about _CHUNK node values."""
    coef, alpha, vol = frames
    rules, weights = _rung_plan(n, degrees)
    step = max(1, _CHUNK // weights.shape[1])
    out = np.empty((len(rules), len(vol)))
    for lo in range(0, len(vol), step):
        hi = lo + step
        c, e = np.empty((2, len(vol[lo:hi]), weights.shape[1]))
        start = 0
        for basis, top_c, top_e in rules:
            sub = np.einsum("cql,lj->cqj", coef[lo:hi], basis)
            grid = (len(c), top_c.shape[1], basis.shape[1])
            stop = start + grid[1] * grid[2]
            np.einsum("ctj,tg->cgj", sub[:, :2], top_c, out=c[:, start:stop].reshape(grid))
            np.einsum("ctj,tg->cgj", sub[:, 2:], top_e, out=e[:, start:stop].reshape(grid))
            start = stop
        r = np.sqrt(e)
        p = r * alpha[lo:hi]
        if n == 2:
            c += p
            c *= r
            F = np.reciprocal(c, out=c)
        elif n == 4:
            c += p
            F = np.add(c, p, out=p)
            c *= c
            c *= e
            c *= r
            F /= c
        else:
            m = np.divide(p, c, out=p)
            x = 1.0 - m
            x *= 1.0 + m
            F = _radial_kernel(n, np.sqrt(np.maximum(x, 0.0, out=x), out=x), m)
            if n % 2 == 0:
                c *= r
            for _ in range((n - 1) // 2):
                c *= e
            F /= c
        out[:, lo:hi] = np.einsum("cj,kj->kc", F, weights)
    out *= vol
    return out


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

    @functools.cached_property
    def _plan(self):
        """Per Gauss degree: the cell positions, stacked mixes, corner
        material columns and volume shares |det mix|; and the ideal
        diagonal mask."""
        by_degree: dict = {}
        for i, (_, _, g) in enumerate(self.cells):
            by_degree.setdefault(g, []).append(i)
        groups = []
        for g, idx in by_degree.items():
            mixes = np.array([self.cells[i][0] for i in idx])
            groups.append((g, idx, mixes,
                           np.array([[0.0 if self.cells[i][1] else 1.0] for i in idx]),
                           np.abs(np.linalg.det(mixes))))
        return groups, _diagonal_skip(self.ideal)

    def evaluate(self, klein: np.ndarray):
        """The rule's value on a Klein simplex (n+1, n), or an array of
        its values on each simplex of a stack (S, n+1, n).  A simplex is
        a stack of one: per degree, the cells of every simplex go
        through one kernel call, and each simplex's value is the sum of
        its cell values in cell order."""
        klein = np.asarray(klein, dtype=float)
        groups, skip = self._plan
        ms, det = _simplex_matrices(klein, skip)
        ms, det = ms.reshape(-1, *ms.shape[-2:]), det.reshape(-1, 1)
        vals = np.empty((len(ms), len(self.cells)))
        for g, idx, mixes, material, shares in groups:
            frames = _cell_frames(mixes, ms[:, None], np.tile(material, (len(ms), 1)),
                                  (shares * det).ravel())
            vals[:, idx] = _face_sums(frames, klein.shape[-1], (g,))[0].reshape(len(ms), -1)
        sums = [sum(row) for row in vals.tolist()]
        return sums[0] if klein.ndim == 2 else np.array(sums)


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


def build_rules(kleins: Sequence[np.ndarray], ideals: Sequence[Sequence[bool]],
                tol: float) -> list[VolumeRule]:
    """Build the rule of every simplex in a list of same-dimension Klein
    simplices (with their ideal-vertex masks) at once: per cell, raise
    the Gauss degree along the ladder until two successive estimates
    agree to within the cell's budget (or _REL_FLOOR of its value), and
    bisect cells that exhaust the ladder into the next generation with
    half the budget.  All pending cells of a generation are set up
    together and all active cells of a rung evaluated in one kernel
    call; a simplex's cells keep the depth-first order of building it
    alone, so each rule equals that of build_rule.  Its value is the sum
    of the converged cell values, which equals the rule evaluated on its
    simplex.  An IntegrationError names the simplex's index."""
    masks = [tuple(map(bool, mask)) for mask in ideals]
    if len(kleins) != len(masks):
        raise ValueError(f"{len(kleins)} simplices but {len(masks)} ideal masks")
    if not masks:
        return []
    stacked = np.array(kleins, dtype=float)
    if stacked.ndim != 3 or stacked.shape[1:] != (len(masks[0]), len(masks[0]) - 1):
        raise ValueError("build_rules needs Klein simplices of one dimension")
    ms, dets = _simplex_matrices(stacked, np.array([_diagonal_skip(mask) for mask in masks]))
    n = stacked.shape[2]
    ladder = _ladder(n)
    # the pending cells of one generation: owning simplex, split path
    # (sorts in depth-first order), stacked mixes, material-corner
    # column, volume shares and budgets
    bases = [_decompose_cells(mask) for mask in masks]
    owner = [i for i, base in enumerate(bases) for _ in base[2]]
    path = [(len(base[2]) - 1 - j,) for base in bases for j in range(len(base[2]))]
    mixes, material, shares, counts = (np.concatenate(part) for part in zip(*bases))
    budget = tol / counts
    done = [[] for _ in masks]  # per simplex: (path, mix, flag, g, value, bound)
    for depth in range(_MAX_SPLIT_DEPTH, -1, -1):
        # one simplex broadcasts over its cells
        frames = _cell_frames(mixes, ms if len(ms) == 1 else ms[owner], material,
                              shares * (dets if len(ms) == 1 else dets[owner]))
        live, live_budget = np.arange(len(owner)), budget
        # no cell can retire on the first rung, so it runs with the second
        prev, val = _face_sums(frames, n, tuple(ladder[:2]))
        for rung, g in enumerate(ladder[1:]):
            if rung:
                prev, val = val, _face_sums(frames, n, (g,))[0]
            bound = np.abs(val - prev)
            ok = bound <= np.maximum(live_budget, _REL_FLOOR * val)
            retired = np.count_nonzero(ok)
            if retired:
                whole = retired == len(ok)
                sel = slice(None) if whole else ok
                for c, v, b in zip(live[sel].tolist(), val[sel].tolist(), bound[sel].tolist()):
                    done[owner[c]].append((path[c], mixes[c], not material[c, 0], g, v, b))
                if whole:
                    live = live[:0]
                    break
                keep = ~ok
                live, val, bound = live[keep], val[keep], bound[keep]
                live_budget = live_budget[keep]
                frames = tuple(f[keep] for f in frames)
        if not live.size:
            break
        stalled = live.tolist()
        if depth == 0:
            first = min(range(len(stalled)), key=lambda k: (owner[stalled[k]], path[stalled[k]]))
            raise IntegrationError(
                f"cell subdivision exhausted at estimate {val[first]} with bound "
                f"{bound[first]} > budget {live_budget[first]}", float(val[first]),
                float(bound[first]), owner[stalled[first]])
        children = []
        for c in stalled:
            halves = _split_cell(mixes[c], not material[c, 0], stacked[owner[c]])
            # the stack-order depth-first walk visits the second half first
            for rank, (child, child_ideal) in zip((1, 0), halves):
                children.append((owner[c], path[c] + (rank,), child,
                                 [0.0 if child_ideal else 1.0], shares[c] / 2.0,
                                 budget[c] / 2.0))
        owner, path, mixes, material, shares, budget = (
            list(col) if k < 2 else np.array(col) for k, col in enumerate(zip(*children)))
    rules = []
    for i, cells in enumerate(done):
        cells.sort(key=lambda cell: cell[0])
        total_bound = 0.0
        total_value = 0.0
        for *_, v, b in cells:
            total_bound += b
            total_value += v
        if total_bound > tol:
            raise IntegrationError(
                f"requested tolerance {tol} is below what double precision "
                f"reaches here (estimate {total_value}, bound {total_bound})",
                total_value, total_bound, i)
        rules.append(VolumeRule(tuple((mix, flag, g) for _, mix, flag, g, _, _ in cells),
                                total_bound, total_value, masks[i]))
    return rules


def build_rule(klein: np.ndarray, ideal: Sequence[bool], tol: float) -> VolumeRule:
    """The rule of one simplex (build_rules on a batch of one): per-cell
    Gauss degrees, subdividing cells whose spectral convergence stalls,
    until the total error estimate is at most tol, frozen for
    re-evaluation on nearby vertex configurations."""
    return build_rules([klein], [ideal], tol)[0]

