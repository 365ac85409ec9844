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
half its budget.  Retired cells stay in arrays, and one sort on (owning
simplex, split path) puts each simplex's cells in depth-first split
order, so its rule is what building it alone gives; `build_rule` is
`build_rules` on one simplex.  The set-up is kept per kind of simplex
(ideal mask): kinds are numbered from the masks packed into ints, and
each simplex's base cells are gathered by index from its kind's.  One
core (`_converge`) runs the ladder for two readers: `build_rules`,
which builds the VolumeRule objects, and `_rule_values`, which reads
only their values.  A frozen
rule re-evaluates its cells grouped by degree through the same kernel,
on one simplex or on a stack of simplices (one kernel call per degree
for the whole stack).

Split kernel.  With M = 1 - W W^T over a cell's Klein vertices W (corner
first) and the face barycentrics split as a top axis u toward W1 times
the collapsed rule on the sub-face W2..Wn, the node values are

    c = (1-u) c' + u M01,   e = (1-u)^2 e' + 2u(1-u) f' + u^2 M11,

where c' = sum_k beta_k M0k, f' = sum_k beta_k M1k and e' = sum_kl
beta_k beta_l Mkl live on the g^{n-2} sub-face nodes.  One matrix
product per cell gives the sub-face values and two more carry them
along the top axis, so no n x g^{n-1} array of node coordinates is
formed.  Every node value is a
positive combination of entries of M, and M = mix (1 - K K^T) mix^T is
the congruence by the cell's mix of the simplex's own matrix 1 - K K^T,
whose entries off the ideal diagonal are positive exactly when no
material vertex leaves the open ball and no two vertices meet on the
sphere.  Checking that once per
simplex keeps every node inside the open ball, and no node value
cancels.  At an ideal corner a = 0: in a chunk of cells whose corners
are all ideal, n = 2 and n = 4 form F without the p = sqrt(a e)
terms, which would add exact zeros, so the values keep their bits in
fewer passes (cells are not sorted by corner kind).  Cells run in
chunks of at most 2^14 cell x node values, so peak memory stays flat
for large batches.  Every BLAS call the kernel
makes is one cell's product, so a cell's value does not depend on its
batch, and each is kept below the size at which OpenBLAS starts a
second thread, so cubature runs on one core.

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
_CHUNK = 1 << 14  # cell x node entries per kernel pass
# The largest per-cell BLAS calls the kernel issues: multiply-adds of one
# matrix product, and terms of one dot.  numpy's bundled OpenBLAS takes
# a second thread for a matrix product from about 2^20 multiply-adds and
# for a dot above 10^4 terms (measured as process CPU time over wall
# time on 2 cores), and then spins it, doubling CPU time.
_GEMM_SERIAL = 1 << 18
_DOT_SERIAL = 1 << 13
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


def _face_rule(n: int, g: int):
    """Collapsed Gauss rule with g^{n-1} nodes on the standard
    (n-1)-simplex: barycentrics beta ((n, g^{n-1}), one row per vertex)
    and weights wf (collapse jacobian prod_k (1-u_k)^{n-2-k}, summing to
    1/(n-1)!)."""
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
    return beta, wf


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


@functools.lru_cache(maxsize=None)
def _split_rule(n: int, g: int):
    """The face rule on n vertices as a top axis u (toward the first
    vertex) times the rule on the other n - 1, as the kernel uses it:

      basis  (L, G2), G2 = g^{n-2}: the sub-face barycentrics beta_k, a
             row of ones and the pair products beta_k beta_l (k <= l,
             doubled off the diagonal), so that a cell's (_ROWS, L)
             coefficients give c', M01, e', f', M11 on the sub-face;
      top_c  (g, 2): 1-u, u, which carry c', M01 to c;
      top_e  (g, 3): (1-u)^2, 2u(1-u), u^2, which carry e', f', M11 to e;
      weights (g G2,): the top-axis weights w (1-u)^{n-2} times the
             sub-face weights, top axis slowest."""
    u, w = _gauss01(g)
    v = 1.0 - u
    beta, wf = _face_rule(n - 1, g)
    k, l, factor = _pairs(n - 1)
    rule = (np.vstack([beta, np.ones((1, beta.shape[1])), factor[:, None] * beta[k] * beta[l]]),
            np.stack([v, u], axis=1), np.stack([v * v, 2.0 * u * v, u * u], axis=1),
            np.outer(w * v ** (n - 2), wf).ravel())
    for arr in rule:
        arr.setflags(write=False)
    return rule


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
    it is ideal; B for each cell, which takes 1/B of the simplex's error
    budget; and each cell's place in its rule, B-1-j for the j-th (the
    first part of its split path)."""
    n1 = len(ideal)
    stack = [(np.eye(n1), tuple(i for i, f in enumerate(ideal) if f))]
    mixes, material = [], []
    while stack:
        mix, ideal_idx = stack.pop()
        if len(ideal_idx) <= 1:
            corner = ideal_idx[0] if ideal_idx else 0
            mixes.append(mix[[corner] + [i for i in range(n1) if i != corner]])
            material.append([0.0 if ideal_idx else 1.0])
            continue
        i, j = ideal_idx[0], ideal_idx[1]
        mid = 0.5 * (mix[i] + mix[j])
        a = mix.copy()
        a[i] = mid
        b = mix.copy()
        b[j] = mid
        stack.append((a, tuple(k for k in ideal_idx if k != i)))
        stack.append((b, tuple(k for k in ideal_idx if k != j)))
    cells = (np.array(mixes), np.array(material),
             np.full(len(mixes), float(len(mixes))), np.arange(len(mixes))[::-1].copy())
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
    """What _face_sums runs for `degrees`: per degree its split rule
    (basis, top_c, top_e) and how many sub-face nodes one matrix product
    takes (all g^{n-2} up to n = 4); per piece of at most _DOT_SERIAL
    nodes of the weighted sum, the degree, the node slice in the
    kernel's (cells, nodes) arrays (all degrees side by side) and the
    weights as a column, with the 1/3 of F_4 folded in; and the number
    of nodes."""
    rules, pieces, start = [], [], 0
    for k, g in enumerate(degrees):
        basis, top_c, top_e, weights = _split_rule(n, g)
        cols = max(1, _GEMM_SERIAL // max(_ROWS * basis.shape[0], top_e.size))
        rules.append((basis, top_c, top_e, cols))
        weights = weights[:, None] / (3.0 if n == 4 else 1.0)
        for lo in range(0, len(weights), _DOT_SERIAL):
            piece = weights[lo:lo + _DOT_SERIAL]
            piece.setflags(write=False)
            pieces.append((k, slice(start + lo, start + lo + len(piece)), piece))
        start += len(weights)
    return rules, pieces, start


def _face_sums(frames, n: int, degrees: tuple) -> np.ndarray:
    """Per Gauss degree g in `degrees` and per cell, |det dW| * sum_j
    wf_j F(q_j) over the face rule of degree g on the face opposite the
    corner w0, as a (len(degrees), C) array.  F(q) = int_0^1 r^{n-1}
    (1 - |(1-r) w0 + r q|^2)^{-(n+1)/2} dr = K_n(x) / (c e^{(n-1)/2}) in
    closed form, with m = sech d = p / c, p = sqrt(a e) and x =
    sqrt(1 - m^2).  K_2 and K_4 are rational in m, so there F is formed
    from h = c + p without dividing by c:

        F_2 = 1 / (h sqrt(e)),   F_4 = (h + p) / (3 h^2 e sqrt(e)).

    At an ideal corner p = 0, and a chunk whose corners are all ideal
    forms them from c alone (5 elementwise passes for F_4 instead of 8),
    which gives the same bits, since c + 0.0 is c.

    c and e come from the split rule.  Per cell, the matrix product
    (_ROWS, L) @ (L, g^{n-2}) gives the sub-face values, and (g, 2) @
    (2, g^{n-2}) and (g, 3) @ (3, g^{n-2}) carry them along the top
    axis to the g x g^{n-2} grid, written side by side for all degrees
    into one (cells, nodes) scratch array each for the elementwise
    rest; (1, nodes) @ (nodes, 1) products take the weighted sums.
    numpy's matmul issues every cell's product as its own BLAS call, so
    a cell's value does not depend on the other cells of its batch, and
    _rung_plan splits the products above n = 4 so that each stays below
    the size at which OpenBLAS runs it on more than one thread.  Cells
    run in chunks of about _CHUNK node values."""
    coef, alpha, vol = frames
    rules, pieces, nodes = _rung_plan(n, degrees)
    step = max(1, _CHUNK // nodes)
    out = np.zeros((len(vol), len(rules)))
    scratch = np.empty((2, min(step, len(vol)), nodes))
    for lo in range(0, len(vol), step):
        hi = min(lo + step, len(vol))
        c, e = scratch[:, :hi - lo]
        start = 0
        for basis, top_c, top_e, cols in rules:
            grid = (hi - lo, len(top_c), basis.shape[1])
            stop = start + grid[1] * grid[2]
            grid_c, grid_e = c[:, start:stop].reshape(grid), e[:, start:stop].reshape(grid)
            for a in range(0, grid[2], cols):
                sub = coef[lo:hi] @ basis[:, a:a + cols]
                np.matmul(top_c, sub[:, :2], out=grid_c[..., a:a + cols])
                np.matmul(top_e, sub[:, 2:], out=grid_e[..., a:a + cols])
            start = stop
        r = np.sqrt(e)
        # p = r alpha is 0 at an ideal corner, so in a chunk of ideal
        # corners F_2 and F_4 skip it: adding it would add exact zeros
        p = r * alpha[lo:hi] if n not in (2, 4) or alpha[lo:hi].any() else None
        if n == 2:
            if p is not None:
                c += p
            c *= r
            F = np.reciprocal(c, out=c)
        elif n == 4:
            if p is None:
                F, c = c, c * c
            else:
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
        for k, piece, weights in pieces:
            out[lo:hi, k] += np.matmul(F[:, None, piece], weights)[:, 0, 0]
    out = out.T
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


def _split_cells(mixes, material, kleins):
    """Bisect each cell (mixes (C, n+1, n+1) over the Klein simplices
    `kleins` (C, n+1, n)) at its longest Klein edge, the first of equal
    ones in (i, j) order.  Returns the children that replace the edge's
    first end (they lose an ideal collapse corner when that end is not
    the corner, and become material-corner cells) and then those that
    replace its second end, each as mixes and material-corner columns."""
    W = mixes @ kleins
    i, j = np.triu_indices(W.shape[1], 1)
    diff = W[:, i] - W[:, j]
    longest = np.argmax(np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None]))[..., 0, 0],
                        axis=1)
    cell = np.arange(len(mixes))
    first, second = i[longest], j[longest]
    mid = 0.5 * (mixes[cell, first] + mixes[cell, second])
    children = []
    for end in (first, second):
        child = mixes.copy()
        child[cell, end] = mid
        children.append((child, np.where((end != 0)[:, None], material, 1.0)))
    return children


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a positive finite number: at NaN
    no cell converges and every one bisects to the last depth, at
    infinity the unchecked first estimate is accepted, and at zero or
    below no estimate is ever within it."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def _converge(kleins: Sequence[np.ndarray], ideals: Sequence[Sequence[bool]], tol: float):
    """The batched ladder of build_rules, or None for no simplices.

    Returns the simplices' kinds (ideal masks, numbered in order of
    first appearance), each simplex's kind number, its retired cells
    sorted on (owning simplex, split path) as owner, mixes,
    material-corner column and degree, and each simplex's value and
    error estimate, the sums of its cells' in that order."""
    _check_tol(tol)
    if len(kleins) != len(ideals):
        raise ValueError(f"{len(kleins)} simplices but {len(ideals)} ideal masks")
    if not len(ideals):
        return None
    stacked = np.array(kleins, dtype=float)
    ideal = np.asarray(ideals, dtype=bool)
    if (stacked.ndim != 3 or ideal.ndim != 2
            or stacked.shape[1:] != (ideal.shape[1], ideal.shape[1] - 1)):
        raise ValueError("build_rules needs Klein simplices of one dimension")
    # the simplices' kinds, numbered from their ideal masks packed into ints
    n1 = ideal.shape[1]
    number: dict = {}
    kind = np.array([number.setdefault(bits, len(number))
                     for bits in (ideal @ (1 << np.arange(n1))).tolist()])
    kinds = [tuple(bool(bits >> i & 1) for i in range(n1)) for bits in number]
    ms, dets = _simplex_matrices(stacked, np.array([_diagonal_skip(mask) for mask in kinds])[kind])
    n = stacked.shape[2]
    ladder = _ladder(n)
    # the pending cells of one generation: owning simplex, split path (a
    # base rank, then one bit per bisection; a stack-order depth-first
    # walk visits the half that replaces the longest edge's second end
    # first, and it takes 0), stacked mixes, material-corner column
    # and budgets.  The first generation gathers each simplex's base
    # cells by index from its kind's.
    bases = [_decompose_cells(mask) for mask in kinds]
    sizes = np.array([len(base[0]) for base in bases])
    per = sizes[kind]
    owner = np.repeat(np.arange(len(kind)), per)
    cell = np.arange(len(owner)) + np.repeat(np.cumsum(sizes)[kind] - np.cumsum(per), per)
    mixes, material, counts, path = (np.concatenate(col)[cell] for col in zip(*bases))
    budget = tol / counts
    # per generation, its retired cells (and at the last one its stalled
    # cells too): owner, split path aligned to the full depth, mix,
    # material-corner column, degree (-1 while not converged), value,
    # bound and budget
    generations = []
    for depth in range(_MAX_SPLIT_DEPTH, -1, -1):
        # one simplex broadcasts over its cells; a cell's volume is its
        # share |det mix| of the simplex's, as VolumeRule.evaluate takes it
        frames = _cell_frames(mixes, ms if len(ms) == 1 else ms[owner], material,
                              np.abs(np.linalg.det(mixes))
                              * (dets if len(ms) == 1 else dets[owner]))
        live = np.arange(len(owner))
        degree, value, bound = np.full(len(owner), -1), np.empty(len(owner)), np.empty(len(owner))
        # no cell can retire on the first rung, so it runs with the second
        prev, val = _face_sums(frames, n, tuple(ladder[:2]))
        for rung, g in enumerate(ladder[1:]):
            if rung:
                prev, val = val, _face_sums(frames, n, (g,))[0]
            value[live] = val
            bound[live] = err = np.abs(val - prev)
            ok = err <= np.maximum(budget[live], _REL_FLOOR * val)
            if ok.all():
                degree[live] = g
                live = live[:0]
                break
            if ok.any():
                degree[live[ok]] = g
                keep = ~ok
                live, val = live[keep], val[keep]
                frames = tuple(f[keep] for f in frames)
        done = slice(None) if depth == 0 or not live.size else degree >= 0
        generations.append((owner[done], path[done] << depth, mixes[done], material[done],
                            degree[done], value[done], bound[done], budget[done]))
        if depth == 0 or not live.size:
            break
        halves = _split_cells(mixes[live], material[live], stacked[owner[live]])
        owner, path, budget = (np.tile(col[live], 2) for col in (owner, path, budget / 2.0))
        path = path * 2 + np.repeat([1, 0], len(live))
        mixes, material = (np.concatenate(part) for part in zip(*halves))
    owner, path, mixes, material, degree, value, bound, budget = (
        generations[0] if len(generations) == 1 else
        [np.concatenate(col) for col in zip(*generations)])
    order = np.lexsort((path, owner))
    owner, path, mixes, material, degree, value, bound = (
        col[order] for col in (owner, path, mixes, material, degree, value, bound))
    # bincount adds in index order, so each simplex's sums run in its
    # cells' order, as VolumeRule.evaluate sums them
    totals, total_bounds = (np.bincount(owner, part, len(kind)) for part in (value, bound))
    if live.size:
        c = int(np.flatnonzero(degree < 0)[0])
        i, bits = int(owner[c]), int(path[c])
        name = (bits >> _MAX_SPLIT_DEPTH,) + tuple(bits >> k & 1
                                                  for k in range(_MAX_SPLIT_DEPTH - 1, -1, -1))
        raise IntegrationError(
            f"cell subdivision exhausted: cell {name} (base rank and split path) stalls at "
            f"estimate {value[c]} with bound {bound[c]} > budget {budget[order][c]}; the "
            f"simplex's estimate is {totals[i]} with bound {total_bounds[i]}",
            float(totals[i]), float(total_bounds[i]), i)
    over = np.flatnonzero(total_bounds > tol)
    if over.size:
        i = int(over[0])
        raise IntegrationError(
            f"requested tolerance {tol} is below what double precision "
            f"reaches here (estimate {totals[i]}, bound {total_bounds[i]})",
            float(totals[i]), float(total_bounds[i]), i)
    return kinds, kind, owner, mixes, material, degree, totals, total_bounds


def build_rules(kleins: Sequence[np.ndarray], ideals: Sequence[Sequence[bool]],
                tol: float) -> list[VolumeRule]:
    """Build the rule of every simplex in a list of same-dimension Klein
    simplices (with their ideal-vertex masks) at once: per cell, raise
    the Gauss degree along the ladder until two successive estimates
    agree to within the cell's budget (or _REL_FLOOR of its value), and
    bisect cells that exhaust the ladder into the next generation with
    half the budget.  All pending cells of a generation are set up
    together and all active cells of a rung evaluated in one kernel
    call.  Retired cells are kept as arrays and sorted once on (owning
    simplex, split path), so each simplex's cells keep the depth-first
    order of building it alone and each rule equals that of build_rule.
    Its value is the sum of the converged cell values in that order.
    An IntegrationError names the simplex's index and carries its
    summed estimate and bound; when a cell still stalls after the last
    bisection, the message names that cell too.  A tol that is not a
    positive finite number raises ValueError."""
    built = _converge(kleins, ideals, tol)
    if built is None:
        return []
    kinds, kind, owner, mixes, material, degree, totals, total_bounds = built
    cells = list(zip(mixes, (material[:, 0] == 0.0).tolist(), degree.tolist()))
    ends = np.cumsum(np.bincount(owner, minlength=len(kind))).tolist()
    return [VolumeRule(tuple(cells[lo:hi]), b, v, kinds[k])
            for lo, hi, v, b, k in zip([0] + ends[:-1], ends, totals.tolist(),
                                       total_bounds.tolist(), kind.tolist())]


def _rule_values(kleins: Sequence[np.ndarray], ideals: Sequence[Sequence[bool]],
                 tol: float) -> np.ndarray:
    """The values of the rules build_rules builds, as an array, without
    building them."""
    built = _converge(kleins, ideals, tol)
    return np.zeros(0) if built is None else built[-2]


def build_rule(klein: np.ndarray, ideal: Sequence[bool], tol: float) -> VolumeRule:
    """The rule of one simplex (build_rules on a batch of one): per-cell
    Gauss degrees, subdividing cells whose spectral convergence stalls,
    until the total error estimate is at most tol, frozen for
    re-evaluation on nearby vertex configurations."""
    return build_rules([klein], [ideal], tol)[0]

