"""Geodesic simplices in the closed hyperbolic ball: signed volumes,
dihedral angles, codimension-2 face measures, horoball-truncated edge
lengths, and one-parameter families.

A simplex computes its geometry as whole matrices: the Klein-homogeneous
vertex matrix, its determinant and its degeneracy scale are cached on
the simplex; all facet normals come from one batched SVD, and all
dihedral angles from those normals in one pass (`dihedral_angles`).  The
triangular faces of a 4-simplex are measured together by Gauss-Bonnet
from the angles between side tangents (`triangle_areas`).  An all-ideal
3-simplex takes its volume from the cross-ratio of its vertices through
the Bloch-Wigner dilogarithm (`bloch_wigner`), with no facet normals.
Many simplices are measured as one stack of their vertex rows
(`_VertexStack`): one determinant call, one degeneracy-scale call and
one `_stack_volumes` call serve the whole stack."""

from __future__ import annotations

import cmath
import decimal
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .cubature import IntegrationError, VolumeRule, build_rule, build_rules, integrate_simplex
from .lorentz import (
    Kind,
    LorentzVector,
    distance,
    minkowski_matrix,
)

__all__ = [
    "GeodesicSimplex",
    "HoroballAssignment",
    "SimplexFamily",
    "SimplexError",
    "DegenerateSimplexError",
    "InfiniteFaceMeasureError",
    "OverlappingHoroballsError",
    "signed_volume",
    "signed_volumes",
    "numeric_volume",
    "volume_evaluator",
    "lobachevsky",
    "bloch_wigner",
    "ideal_tet_volume",
    "dihedral_angle",
    "dihedral_angles",
    "tangent_angles",
    "triangle_areas",
    "face_measure",
    "default_horoballs",
    "truncated_edge_length",
    "REGULAR_IDEAL_VOLUME",
    "DEGENERACY_THRESHOLD",
]

DEGENERACY_THRESHOLD = 1e-12

# volume of the regular ideal 3-simplex, 3*L(pi/3); 2D analogue is pi
REGULAR_IDEAL_VOLUME = {2: np.pi, 3: 1.0149416064096535}


class SimplexError(ValueError):
    pass


class DegenerateSimplexError(SimplexError):
    pass


class InfiniteFaceMeasureError(SimplexError):
    """n=3 edges with an ideal endpoint have infinite length; use
    truncated_edge_length with a horoball assignment instead."""


class OverlappingHoroballsError(SimplexError):
    pass


@dataclass(frozen=True)
class GeodesicSimplex:
    """Ordered tuple of n+1 material or ideal points spanning a geodesic
    simplex in the closed ball of H^n."""

    vertices: tuple[LorentzVector, ...]

    def __init__(self, vertices: Sequence[LorentzVector]):
        vs = tuple(vertices)
        if len(vs) < 3:
            raise SimplexError("need n+1 >= 3 vertices")
        n = vs[0].n
        if len(vs) != n + 1:
            raise SimplexError(f"{len(vs)} vertices but ambient dimension {n}")
        for v in vs:
            if v.kind is Kind.RAW:
                raise SimplexError("raw vectors cannot be simplex vertices")
            if v.n != n:
                raise SimplexError("vertices of mixed ambient dimension")
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def _stacked(cls, vertices: Sequence[LorentzVector], row: np.ndarray, det: float,
                 scale: float) -> "GeodesicSimplex":
        """A simplex built through __init__ whose vertex matrix is one
        read-only row of a _VertexStack, with that stack's determinant
        and degeneracy scale preset in the caches."""
        simplex = cls(vertices)
        simplex.__dict__.update(_vertex_matrix=row, _det=det, _degeneracy_scale=scale)
        return simplex

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def kinds(self) -> tuple[Kind, ...]:
        return tuple(v.kind for v in self.vertices)

    @functools.cached_property
    def _vertex_matrix(self) -> np.ndarray:
        M = np.array([v.coords / v.coords[0] for v in self.vertices])
        M.setflags(write=False)
        return M

    @functools.cached_property
    def _det(self) -> float:
        return float(np.linalg.det(self._vertex_matrix))

    @functools.cached_property
    def _degeneracy_scale(self) -> float:
        return float(_degeneracy_scales(self.klein()))

    @functools.cached_property
    def _rules(self) -> dict:
        return {}

    def _frozen_rule(self, tol: float) -> Optional[VolumeRule]:
        """None where a closed form gives the volume (n = 2, all-ideal
        n = 3); otherwise the cubature rule built on this simplex at tol,
        built once per tol and kept on the simplex like its
        determinant."""
        if self.dim == 2 or (self.dim == 3 and all(self.ideal_mask())):
            return None
        if tol not in self._rules:
            self._rules[tol] = build_rule(self.klein(), self.ideal_mask(), tol)
        return self._rules[tol]

    @functools.cached_property
    def _triangle_areas(self) -> dict:
        """Area of every triangular face of a 4-simplex, keyed by the
        sorted pair of omitted vertices; see triangle_areas."""
        faces = list(itertools.combinations(range(5), 2))
        tri = np.array([[k for k in range(5) if k not in face] for face in faces])
        corners = [tri[:, [0, 1, 2]], tri[:, [1, 0, 0]], tri[:, [2, 2, 1]]]
        angles = tangent_angles(self, *(c.ravel() for c in corners))
        return dict(zip(faces, np.pi - angles.reshape(-1, 3).sum(axis=1)))

    def vertex_matrix(self) -> np.ndarray:
        """Rows are x_0 = 1 representatives (Klein-homogeneous); built
        once per simplex and shared read-only."""
        return self._vertex_matrix

    def klein(self) -> np.ndarray:
        return self._vertex_matrix[:, 1:]

    def orientation_det(self) -> float:
        return self._det

    def is_degenerate(self, threshold: float = DEGENERACY_THRESHOLD) -> bool:
        """_is_degenerate of this simplex, in scalar arithmetic."""
        scale = max(self._degeneracy_scale, 1e-30)
        return abs(self._det) < threshold * scale ** self.dim

    def ideal_mask(self) -> tuple[bool, ...]:
        return tuple(v.kind is Kind.IDEAL for v in self.vertices)

    def subsimplex(self, indices: Sequence[int]) -> tuple[LorentzVector, ...]:
        return tuple(self.vertices[i] for i in indices)


def _degeneracy_scales(klein: np.ndarray) -> np.ndarray:
    """The determinant of the Klein-homogeneous vertex matrix scales like
    diameter^n, so degeneracy is judged relative to the largest distance
    of a vertex from the centroid; over a stack (..., n+1, n) of Klein
    vertex rows."""
    centred = klein - klein.mean(axis=-2, keepdims=True)
    return np.linalg.norm(centred, axis=-1).max(axis=-1)


def _is_degenerate(det, scale, dim: int, threshold: float = DEGENERACY_THRESHOLD):
    """|det| below threshold * scale^dim, elementwise over stacks of
    determinants and degeneracy scales (GeodesicSimplex.is_degenerate
    for one simplex)."""
    return np.abs(det) < threshold * np.maximum(scale, 1e-30) ** dim


@dataclass(frozen=True, eq=False)
class _VertexStack:
    """A stack (..., n+1, n+1) of simplices' x_0 = 1 vertex rows with their
    ideal-vertex masks (..., n+1), and the per-simplex geometry computed
    once for the whole stack: determinants (orientation) and degeneracy
    scales, which degenerate() reads for the relative is_degenerate test.
    Indexing over the leading axes gives the stack of the selected
    simplices."""

    rows: np.ndarray
    ideal: np.ndarray
    dets: np.ndarray
    scales: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray, ideal: np.ndarray) -> "_VertexStack":
        return cls(rows, ideal, np.linalg.det(rows), _degeneracy_scales(rows[..., 1:]))

    @classmethod
    def of_simplices(cls, simplices: Sequence[GeodesicSimplex]) -> "_VertexStack":
        """The (S,) stack of same-dimension simplices, in their order."""
        return cls.of(np.array([s.vertex_matrix() for s in simplices]),
                      np.array([s.ideal_mask() for s in simplices]))

    def __getitem__(self, index) -> "_VertexStack":
        return _VertexStack(self.rows[index], self.ideal[index], self.dets[index],
                            self.scales[index])

    def degenerate(self) -> np.ndarray:
        return _is_degenerate(self.dets, self.scales, self.rows.shape[-1] - 1)


def _zeta_even(count: int) -> np.ndarray:
    """zeta(2), zeta(4), ..., zeta(2 count), correctly rounded: the
    recurrence (n + 1/2) zeta(2n) = sum_{0<k<n} zeta(2k) zeta(2n - 2k)
    from zeta(2) = pi^2 / 6, run in 50-digit decimal arithmetic (all
    terms are positive, so rounding errors do not grow)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        pi = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")
        z = [pi * pi / 6]
        for n in range(2, count + 1):
            z.append(sum(z[j] * z[n - 2 - j] for j in range(n - 1))
                     / (n + decimal.Decimal("0.5")))
    return np.array([float(v) for v in z])


_ZETA_EVEN = _zeta_even(40)
_LOB_COEFF = _ZETA_EVEN / (np.arange(1, 41) * (2 * np.arange(1, 41) + 1))
_LOB_POWERS = np.arange(40)


def lobachevsky(theta):
    """The Lobachevsky function L(theta) = -int_0^theta log|2 sin u| du.

    Odd and pi-periodic.  Evaluated by range reduction to [-pi/2, pi/2]
    and the expansion L(t) = t - t log|2t| + sum zeta(2k)/(k(2k+1)) *
    t^{2k+1} / pi^{2k}; with |t/pi| <= 1/2 the terms decay at least as
    4^{-k}, so 40 terms leave a tail below 1e-13.  The series is one
    product of the powers (t/pi)^{2k}, k < 40, with the coefficients,
    for any array shape at once.
    """
    t = np.asarray(theta, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    t = t - np.pi * np.round(t / np.pi)
    nz = np.abs(t) > 1e-300
    ratio = (t / np.pi) ** 2
    series = (ratio[..., None] ** _LOB_POWERS) @ _LOB_COEFF
    log2t = np.log(np.where(nz, np.abs(2.0 * t), 1.0))
    out = np.where(nz, t - t * log2t + t * ratio * series, 0.0)
    return float(out[0]) if scalar else out


def bloch_wigner(z: complex) -> float:
    """The Bloch-Wigner dilogarithm D(z) = Im Li_2(z) + arg(1 - z) log|z|,
    as L(arg z) + L(arg 1/(1-z)) + L(arg(1 - 1/z)).

    For z in the upper half plane the three arguments are the dihedral
    angles of the ideal tetrahedron of shape z and D(z) its volume;
    D(conj z) = -D(z), and D vanishes on the real line, 0 and 1
    included."""
    return float(_bloch_wigner_many([complex(z)])[0])


def _bloch_wigner_many(zs: Sequence[complex]) -> np.ndarray:
    """bloch_wigner of each complex number in zs, through one Lobachevsky
    evaluation of their (len(zs), 3) angles."""
    angles = np.array([(0.0, 0.0, 0.0) if z == 0 or z == 1 else
                       (cmath.phase(z), -cmath.phase(1.0 - z),
                        cmath.phase(z - 1.0) - cmath.phase(z)) for z in zs]).reshape(-1, 3)
    return lobachevsky(angles).sum(axis=-1)


def ideal_tet_volume(alpha: float, beta: float, gamma: float) -> float:
    """Volume of the ideal tetrahedron with dihedral angles alpha, beta,
    gamma at the three edges of any vertex, alpha+beta+gamma = pi."""
    s = alpha + beta + gamma
    if abs(s - np.pi) > 1e-9:
        raise SimplexError(f"dihedral angles sum to {s}, expected pi")
    if min(alpha, beta, gamma) < -1e-12:
        raise SimplexError("negative dihedral angle")
    return float(lobachevsky(alpha) + lobachevsky(beta) + lobachevsky(gamma))


def _minkowski(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """<p, q> over the last axis of two stacks of vectors."""
    jd = np.diag(minkowski_matrix(p.shape[-1] - 1))
    return np.einsum("...k,k,...k->...", p, jd, q)


def _half_angle_atan2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The angle between unit spacelike vectors a and b (stacked),
    2 atan2(|a - b|, |a + b|): unlike arccos <a, b> it keeps full
    accuracy near 0 and pi."""
    d, s = a - b, a + b
    return 2.0 * np.arctan2(np.sqrt(np.maximum(_minkowski(d, d), 0.0)),
                            np.sqrt(np.maximum(_minkowski(s, s), 0.0)))


@functools.lru_cache(maxsize=None)
def _facet_rows(n: int) -> np.ndarray:
    """(n+1, n) indices, shared read-only: row k lists the vertices of
    the facet omitting k."""
    rows = np.array([[j for j in range(n + 1) if j != k] for k in range(n + 1)])
    rows.setflags(write=False)
    return rows


def _stacked_face_normals(M: np.ndarray) -> np.ndarray:
    """Outward spacelike unit Minkowski normals of all facets of each
    simplex in a stack M (..., n+1, n+1) of x_0 = 1 vertex rows: row k of
    a simplex's normals is the normal of the hyperplane spanned by every
    vertex except k, which sits on its negative side.

    One batched SVD over the stacked (..., n+1, n, n+1) facet rows; the
    normal is the null vector of each stack entry.  A facet of a
    nondegenerate simplex always spans a hyperplane, so the caller
    checks degeneracy first."""
    n = M.shape[-1] - 1
    jd = np.diag(minkowski_matrix(n))
    _, _, vt = np.linalg.svd(M[..., _facet_rows(n), :] * jd)
    m = vt[..., -1, :]
    q = _minkowski(m, m)
    if np.any(q <= 0):
        raise DegenerateSimplexError("face normal is not spacelike")
    m = m / np.sqrt(q)[..., None]
    m[_minkowski(m, M) > 0] *= -1.0
    return m


def _face_normals(simplex: GeodesicSimplex) -> np.ndarray:
    """_stacked_face_normals of one simplex."""
    return _stacked_face_normals(simplex.vertex_matrix())


def _angles_from_normals(m: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """Dihedral angle matrices (..., n+1, n+1) from the outward unit facet
    normals (..., n+1, n+1) and ideal-vertex masks (..., n+1) of a stack
    of simplices; see dihedral_angles."""
    # cos(theta) = -<mi, mj>, so theta = angle between mi and -mj
    theta = _half_angle_atan2(m[..., :, None, :], -m[..., None, :, :])
    diagonal = np.arange(m.shape[-1])
    theta[..., diagonal, diagonal] = 0.0
    if m.shape[-1] == 3:
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            theta[..., i, j] = theta[..., j, i] = np.where(ideal[..., k], 0.0, theta[..., i, j])
    return theta


def _stack_dihedral_angles(stack: _VertexStack) -> np.ndarray:
    """dihedral_angles of every simplex of a stack, (..., n+1, n+1), from
    one _stacked_face_normals call; DegenerateSimplexError when any
    simplex of the stack is degenerate."""
    if stack.degenerate().any():
        raise DegenerateSimplexError("dihedral angle of a degenerate simplex")
    return _angles_from_normals(_stacked_face_normals(stack.rows), stack.ideal)


def dihedral_angles(simplex: GeodesicSimplex) -> np.ndarray:
    """Symmetric (n+1) x (n+1) matrix of interior dihedral angles: entry
    (i, j) is the angle at the codimension-2 face spanned by the
    vertices other than i and j; the diagonal is 0.

    The angle is arccos(-<m_i, m_j>) for the outward unit normals of the
    two facets, all taken from one batched SVD and evaluated together in
    the stable atan2 form.  For n = 2 the face is a vertex, and the angle
    at an ideal vertex (tangent sides) is exactly 0."""
    if simplex.is_degenerate():
        raise DegenerateSimplexError("dihedral angle of a degenerate simplex")
    return _angles_from_normals(_face_normals(simplex), np.array(simplex.ideal_mask()))


def dihedral_angle(simplex: GeodesicSimplex, face: tuple[int, int]) -> float:
    """Interior dihedral angle at the codimension-2 face spanned by the
    vertices other than the pair `face` = (i, j) of omitted indices; one
    entry of dihedral_angles.  Exactly 0 at an ideal vertex of a
    2-simplex (tangent sides)."""
    i, j = face
    if i == j:
        raise SimplexError("face must omit two distinct vertices")
    if not (0 <= i <= simplex.dim and 0 <= j <= simplex.dim):
        raise SimplexError(f"face indices must lie in 0..{simplex.dim}, got {face}")
    return float(dihedral_angles(simplex)[i, j])


def tangent_angles(simplex: GeodesicSimplex, at, toward_u, toward_w) -> np.ndarray:
    """Angles at vertices `at` between the geodesic sides toward vertices
    `toward_u` and `toward_w` (equal-length index sequences); 0 at an
    ideal vertex.

    The side from x toward u leaves x along the unit tangent
    t_u = P_x(u - x), P_x the Minkowski projection orthogonal to x, on
    Klein-homogeneous rows.  Tangents are formed as vectors from the
    small difference u - x: on a simplex of diameter d, projecting u
    itself cancels terms of size 1 (errors near eps/d), and taking the
    tangent inner products from the Gram matrix V J V^T cancels in
    them (near eps/d^2).  The angle between t_u and t_w uses the stable
    atan2 form."""
    at = np.asarray(at)
    material = ~np.asarray(simplex.ideal_mask())[at]
    V = simplex.vertex_matrix()
    x = V[at[material]]
    xx = _minkowski(x, x)

    def unit_tangent(toward) -> np.ndarray:
        a = V[np.asarray(toward)[material]] - x
        t = a - (_minkowski(x, a) / xx)[:, None] * x
        q = _minkowski(t, t)
        if np.any(q <= 0):
            raise DegenerateSimplexError("side of zero length in angle computation")
        return t / np.sqrt(q)[:, None]

    out = np.zeros(len(at))
    out[material] = _half_angle_atan2(unit_tangent(toward_u), unit_tangent(toward_w))
    return out


def triangle_areas(simplex: GeodesicSimplex, faces: Sequence[tuple[int, int]]) -> np.ndarray:
    """Areas of the triangular codimension-2 faces of a 4-simplex, one
    per omitted vertex pair in `faces`: pi minus the angles at the
    triangle's material vertices (Gauss-Bonnet).  The areas of all ten
    faces come from one tangent_angles call, made once per simplex and
    kept on it."""
    if simplex.dim != 4:
        raise SimplexError("triangle faces are codimension 2 only in a 4-simplex")
    areas = simplex._triangle_areas
    try:
        return np.array([areas[tuple(sorted(face))] for face in faces])
    except KeyError as exc:
        raise SimplexError(f"not a pair of distinct vertex indices in 0..4: {exc}") from None


def numeric_volume(simplex: GeodesicSimplex, tol: float = 1e-9) -> float:
    """Unsigned volume by Klein-model cubature with corner isolation at
    ideal vertices; the returned value carries an internal error
    estimate <= tol (IntegrationError otherwise)."""
    if simplex.is_degenerate():
        raise DegenerateSimplexError("numeric_volume of a degenerate simplex")
    val, _ = integrate_simplex(simplex.klein(), simplex.ideal_mask(), tol)
    return val


def _ideal_cross_ratio(vertex_matrix: np.ndarray) -> complex:
    """Cross-ratio [p0 p2][p1 p3] / ([p0 p3][p1 p2]) of four ideal points
    given as x_0 = 1 rows of R^{3,1}, [p q] = p_0 q_1 - p_1 q_0 on
    spinors.

    The spinor p of a lightlike v satisfies p p^* = [[v0 + v3, v1 + i v2],
    [v1 - i v2, v0 - v3]]; it is read off the larger diagonal entry, so
    that a point at (1, 0, 0, -1) is as well conditioned as any other.
    Phases and scales of the spinors cancel in the ratio."""
    spinors = []
    for _, x, y, w in vertex_matrix.tolist():
        if w >= 0.0:
            a = math.sqrt(1.0 + w)
            spinors.append((a, complex(x, -y) / a))
        else:
            b = math.sqrt(1.0 - w)
            spinors.append((complex(x, y) / b, b))

    def bracket(i: int, j: int) -> complex:
        (a, b), (c, d) = spinors[i], spinors[j]
        return a * d - b * c

    return bracket(0, 2) * bracket(1, 3) / (bracket(0, 3) * bracket(1, 2))


def _closed_form_volume(simplex: GeodesicSimplex) -> Optional[float]:
    """Unsigned volume of a nondegenerate simplex where a closed form
    applies: the angle defect for n=2, the Bloch-Wigner dilogarithm of
    the vertices' cross-ratio for all-ideal n=3 (dihedral_angles with
    Lobachevsky's formula is its independent check); None elsewhere."""
    n = simplex.dim
    if n == 2:
        return float(_angle_defects(dihedral_angles(simplex)))
    if n == 3 and all(simplex.ideal_mask()):
        return abs(bloch_wigner(_ideal_cross_ratio(simplex.vertex_matrix())))
    return None


def _angle_defects(theta: np.ndarray) -> np.ndarray:
    """pi minus the angles at vertices 0, 1, 2 (0 at ideal ones), from
    dihedral angle matrices (..., 3, 3) of 2-simplices."""
    return np.pi - theta[..., [1, 0, 0], [2, 2, 1]].sum(axis=-1)


def _stack_volumes(stack: _VertexStack, tol: float = 1e-9) -> np.ndarray:
    """Signed volumes of a stack of same-dimension simplices, shaped like
    its leading axes, each as signed_volume gives it: degenerate
    simplices give 0, all-ideal 3-simplices take the Bloch-Wigner
    dilogarithm of their cross-ratios (one Lobachevsky evaluation),
    2-simplices the angle defect from one batched facet-normal pass, and
    every other simplex is integrated in one build_rules batch.  The
    signs are the stack's orientations.  An IntegrationError names the
    failing simplex's index in the flattened stack."""
    n = stack.rows.shape[-1] - 1
    rows = stack.rows.reshape(-1, n + 1, n + 1)
    ideal = stack.ideal.reshape(-1, n + 1)
    dets = stack.dets.reshape(-1)
    live = ~stack.degenerate().reshape(-1)
    vols = np.zeros(len(dets))
    closed = live if n == 2 else live & ideal.all(axis=-1) if n == 3 else np.zeros_like(live)
    if n == 2 and closed.any():
        vols[closed] = _angle_defects(
            _angles_from_normals(_stacked_face_normals(rows[closed]), ideal[closed]))
    elif closed.any():
        vols[closed] = np.abs(_bloch_wigner_many([_ideal_cross_ratio(r) for r in rows[closed]]))
    cubed = live & ~closed
    if cubed.any():
        try:
            rules = build_rules(rows[cubed][..., 1:], ideal[cubed].tolist(), tol)
        except IntegrationError as exc:
            raise IntegrationError(exc.reason, exc.best, exc.bound,
                                   int(np.flatnonzero(cubed)[exc.simplex])) from exc
        vols[cubed] = [rule.value for rule in rules]
    return np.where(live & (dets <= 0), -vols, vols).reshape(stack.dets.shape)


def signed_volumes(simplices: Sequence[GeodesicSimplex], tol: float = 1e-9) -> list[float]:
    """Signed volumes of a list of simplices, each as signed_volume gives
    it: the simplices of each dimension are stacked and go through one
    _stack_volumes call, so closed forms are evaluated together and every
    other simplex is integrated in one build_rules batch per dimension
    rather than one rule at a time.  An IntegrationError names the
    failing simplex's index in `simplices`, the lowest one when
    simplices of several dimensions fail."""
    out = [0.0] * len(simplices)
    by_dim: dict[int, list[int]] = {}
    for i, s in enumerate(simplices):
        by_dim.setdefault(s.dim, []).append(i)
    failures = []
    for idx in by_dim.values():
        stack = _VertexStack.of_simplices([simplices[i] for i in idx])
        try:
            vols = _stack_volumes(stack, tol)
        except IntegrationError as exc:
            failures.append((idx[exc.simplex], exc))
            continue
        for i, vol in zip(idx, vols.tolist()):
            out[i] = vol
    if failures:
        i, exc = min(failures, key=lambda failure: failure[0])
        raise IntegrationError(exc.reason, exc.best, exc.bound, i) from exc
    return out


def signed_volume(simplex: GeodesicSimplex, tol: float = 1e-9) -> float:
    """Signed hyperbolic volume; sign is the orientation of the vertex
    tuple (odd permutations flip it), degenerate simplices give 0.

    Closed forms are used for n=2 (angle defect) and all-ideal n=3
    (Bloch-Wigner of the cross-ratio); everything else integrates
    numerically at tol.
    """
    if simplex.is_degenerate():
        return 0.0
    vol = _closed_form_volume(simplex)
    if vol is None:
        vol = numeric_volume(simplex, tol)
    return vol if simplex.orientation_det() > 0 else -vol


def _frozen_volumes(simplex: GeodesicSimplex, stack: _VertexStack, tol: float) -> np.ndarray:
    """Signed volumes of a stack of simplices of the same dimension and
    vertex kinds as `simplex`, frozen on its shape.  Closed-form
    dimensions go through _stack_volumes.  Otherwise the cubature rule
    built on `simplex` (cached on it per tol) is re-applied to the whole
    stack in one evaluation, so the values vary analytically along
    vertex paths.  Degenerate simplices give 0; the signs are the
    stack's orientations."""
    rule = simplex._frozen_rule(tol)
    if rule is None:
        return _stack_volumes(stack, tol)
    live = ~stack.degenerate()
    vols = np.zeros(live.shape)
    if live.any():
        vols[live] = rule.evaluate(stack.rows[live][..., 1:])
    return np.where(live & (stack.dets <= 0), -vols, vols)


def volume_evaluator(simplex: GeodesicSimplex, tol: float = 1e-9) -> Callable[[GeodesicSimplex], float]:
    """Signed-volume evaluator frozen on the shape of `simplex`: each
    call is _frozen_volumes on a stack of one.

    For closed-form dimensions the value is signed_volume's; otherwise
    the cubature rule (cells and degree) is fixed here and re-applied,
    so the result varies analytically along a vertex path.  Used for
    finite differencing of volumes along families.
    """
    mask = simplex.ideal_mask()
    simplex._frozen_rule(tol)  # the rule is built here, once

    def evaluate(s: GeodesicSimplex) -> float:
        if s.ideal_mask() != mask:
            raise SimplexError("simplex type changed under a frozen volume rule")
        return float(_frozen_volumes(simplex, _VertexStack.of_simplices([s]), tol)[0])

    return evaluate


def _span_basis(vertices: Sequence[LorentzVector]) -> np.ndarray:
    """Minkowski-orthonormal basis (columns; first timelike) of the
    linear span of the given points, which must be a hyperbolic
    subspace."""
    V = np.array([v.coords / v.coords[0] for v in vertices]).T
    q, s, _ = np.linalg.svd(V, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    B = q[:, :rank]
    J = minkowski_matrix(V.shape[0] - 1)
    G = B.T @ J @ B
    w, U = np.linalg.eigh(G)
    if w[0] >= -1e-10 or w[1] <= 1e-12:
        raise SimplexError("span is not a hyperbolic subspace")
    cols = [B @ U[:, 0] / np.sqrt(-w[0])]
    for k in range(1, rank):
        cols.append(B @ U[:, k] / np.sqrt(w[k]))
    T = np.column_stack(cols)
    # orient the timelike axis towards the face
    if float(T[:, 0] @ J @ V[:, 0]) > 0:
        T[:, 0] = -T[:, 0]
    return T


def _span_face_measure(verts: Sequence[LorentzVector], tol: float) -> float:
    """Volume of the simplex spanned by `verts` (a face of a larger
    simplex), re-expressed in an intrinsic hyperbolic coordinate system
    of its span and measured there."""
    T = _span_basis(verts)
    J = minkowski_matrix(verts[0].n)
    Jsub = minkowski_matrix(T.shape[1] - 1)
    coords = []
    for v in verts:
        c = Jsub @ (T.T @ J @ v.coords)
        if v.kind is Kind.MATERIAL:
            coords.append(LorentzVector.material(c))
        else:
            coords.append(LorentzVector.ideal(c))
    sub = GeodesicSimplex(coords)
    return abs(signed_volume(sub, tol))


def face_measure(simplex: GeodesicSimplex, face: tuple[int, int], tol: float = 1e-9) -> float:
    """(n-2)-dimensional volume of the codimension-2 face obtained by
    omitting the vertex pair `face`.

    n=2 returns 0 (points).  n=3 returns the edge length and refuses
    ideal endpoints (infinite).  n=4 returns the triangle's area from
    triangle_areas.  For n >= 5 the face is re-expressed in an intrinsic
    hyperbolic coordinate system and measured there.  Ideal faces of
    n >= 4 have finite measure.
    """
    n = simplex.dim
    i, j = face
    keep = [k for k in range(n + 1) if k not in (i, j)]
    verts = simplex.subsimplex(keep)
    if n == 2:
        return 0.0
    if n == 3:
        x, y = verts
        if x.kind is Kind.IDEAL or y.kind is Kind.IDEAL:
            raise InfiniteFaceMeasureError(
                "n=3 edge with an ideal endpoint has infinite length; "
                "use truncated_edge_length")
        return distance(x, y)
    if n == 4:
        return float(triangle_areas(simplex, [face])[0])
    return _span_face_measure(verts, tol)


@dataclass(frozen=True)
class HoroballAssignment:
    """Horoballs at ideal vertices, one scale s > 0 per vertex index.

    The vertex's stored lightlike representative ell defines the horoball
    {x material : <x, s*ell> >= -1}; increasing s shrinks the ball.
    """

    scales: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for k, s in self.scales.items():
            if s <= 0:
                raise SimplexError(f"horoball scale for vertex {k} must be positive, got {s}")

    def scale(self, index: int) -> float:
        return float(self.scales.get(index, 1.0))


def default_horoballs(simplex: GeodesicSimplex, margin: float = np.e**2) -> HoroballAssignment:
    """A valid horoball assignment for every ideal vertex of a 3-simplex:
    each scale is chosen (deterministically, per vertex) large enough that
    the horoballs clear all other vertices and each other by `margin`."""
    J = minkowski_matrix(simplex.dim)
    scales = {}
    for i, v in enumerate(simplex.vertices):
        if v.kind is not Kind.IDEAL:
            continue
        need = 1.0
        for j, w in enumerate(simplex.vertices):
            if j == i:
                continue
            prod = -float(v.coords @ J @ w.coords)
            if prod <= 0:
                raise DegenerateSimplexError("coincident ideal vertices on an edge")
            if w.kind is Kind.MATERIAL:
                need = max(need, 1.0 / prod)
            else:
                need = max(need, np.sqrt(2.0 / prod))
        scales[i] = margin * need
    return HoroballAssignment(scales)


def truncated_edge_length(simplex: GeodesicSimplex, edge: tuple[int, int],
                          horoballs: HoroballAssignment) -> float:
    """Length of the edge after cutting off the horoballs assigned to its
    ideal endpoints.

    Material-material edges ignore the assignment.  The horoballs must
    leave a positive segment (disjoint from each other and from the far
    endpoint); otherwise OverlappingHoroballsError.
    """
    if simplex.dim != 3:
        raise SimplexError("truncated edge lengths are a 3-dimensional operation")
    i, j = edge
    x, y = simplex.vertices[i], simplex.vertices[j]
    J = minkowski_matrix(simplex.dim)

    def rep(v: LorentzVector, idx: int) -> np.ndarray:
        return horoballs.scale(idx) * v.coords

    if x.kind is Kind.MATERIAL and y.kind is Kind.MATERIAL:
        return distance(x, y)
    if x.kind is Kind.IDEAL and y.kind is Kind.IDEAL:
        prod = -float(rep(x, i) @ J @ rep(y, j)) / 2.0
        if prod <= 1.0:
            raise OverlappingHoroballsError(
                "horoballs at the two ideal endpoints overlap or touch")
        return float(np.log(prod))
    if x.kind is Kind.MATERIAL:
        x, y = y, x
        i, j = j, i
    # x ideal, y material: signed distance from y to the horosphere
    val = -float(y.coords @ J @ rep(x, i))
    if val <= 1.0:
        raise OverlappingHoroballsError("horoball contains the material endpoint")
    return float(np.log(val))


class SimplexFamily:
    """A one-parameter family t in [0,1] -> GeodesicSimplex whose vertex
    kinds are constant in t (checked on every evaluation).

    The simplices of the last _MEMO_SIZE distinct times are kept, so that
    stencils sharing times (a Schlafli residual at h and then at h/2)
    evaluate the function once per time and share each simplex's cached
    geometry and frozen rules.  A time whose simplex is refused is not
    kept: it raises again on every call."""

    _MEMO_SIZE = 16

    def __init__(self, fn: Callable[[float], GeodesicSimplex],
                 kinds: Optional[tuple[Kind, ...]] = None):
        self._fn = fn
        self._memo: dict[float, GeodesicSimplex] = {}
        self.kinds = kinds if kinds is not None else fn(0.0).kinds

    def __call__(self, t: float) -> GeodesicSimplex:
        t = float(t)
        s = self._memo.get(t)
        if s is not None:
            return s
        s = self._fn(t)
        if s.kinds != self.kinds:
            bad = next(k for k, (a, b) in enumerate(zip(s.kinds, self.kinds)) if a != b)
            raise SimplexError(
                f"vertex slot {bad} changed kind at t={t} "
                f"({self.kinds[bad].value} -> {s.kinds[bad].value})")
        if len(self._memo) >= self._MEMO_SIZE:
            del self._memo[next(iter(self._memo))]
        self._memo[t] = s
        return s

    @staticmethod
    def from_keyframes(times: Sequence[float],
                       keyframes: Sequence[GeodesicSimplex]) -> "SimplexFamily":
        """C^1 family through keyframe simplices: cubic spline on raw
        coordinates, re-normalized to the hyperboloid / light cone per
        slot."""
        from scipy.interpolate import CubicSpline

        times = np.asarray(times, dtype=float)
        kinds = keyframes[0].kinds
        for s in keyframes:
            if s.kinds != kinds:
                raise SimplexError("keyframes are not all of the same type")
        data = np.array([s.vertex_matrix() for s in keyframes])
        spline = CubicSpline(times, data, axis=0)

        def fn(t: float) -> GeodesicSimplex:
            M = spline(t)
            verts = []
            for row, kind in zip(M, kinds):
                if kind is Kind.MATERIAL:
                    verts.append(LorentzVector.material(row))
                else:
                    # interpolation cuts chords inside the sphere; project
                    # back to the cone by rescaling the time coordinate
                    space = np.asarray(row[1:], dtype=float)
                    verts.append(LorentzVector(
                        np.concatenate(([np.linalg.norm(space)], space)),
                        Kind.IDEAL))
            return GeodesicSimplex(verts)

        return SimplexFamily(fn, kinds)
