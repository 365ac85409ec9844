"""Geodesic simplices in the closed hyperbolic ball: signed volumes,
dihedral angles, codimension-2 face measures, horoball-truncated edge
lengths, and one-parameter families.

Simplices are measured as stacks of their vertex rows (`_VertexStack`):
one determinant call and one `_stack_volumes` call serve the whole
stack, and degeneracy scales are reduced only for the simplices whose
determinant alone does not settle the degeneracy test.  A single
simplex is a stack of one, cached on it next to its Klein-homogeneous
vertex matrix, and costs one determinant and a few array calls of glue.
Every triangle is measured by one formula, Eriksson's, from the
differences of its Klein vertices and a numerator (`_triangle_volumes`):
a 2-simplex passes its stacked determinant, and the ten triangular
faces of a 4-simplex pass their Gram determinants together
(`triangle_areas`), with no facet normals.  All facet normals of a
stack come from one batched inverse of its vertex matrices, and all
dihedral angles from those normals in one pass (`dihedral_angles`).
Every 3-simplex takes a closed-form volume with no facet normals: an
all-ideal one from the cross-ratio of its vertices through the
Bloch-Wigner dilogarithm (`bloch_wigner`), any other from its signed
orthoschemes through Lobachevsky's formula
(`_orthoscheme_arguments`)."""

from __future__ import annotations

import cmath
import decimal
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .cubature import IntegrationError, VolumeRule, _check_tol, _rule_values, build_rule
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

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def kinds(self) -> tuple[Kind, ...]:
        return tuple(v.kind for v in self.vertices)

    @functools.cached_property
    def _vertex_matrix(self) -> np.ndarray:
        coords = np.array([v.coords for v in self.vertices])
        M = coords / coords[:, :1]
        M.setflags(write=False)
        return M

    @functools.cached_property
    def _stack(self) -> "_VertexStack":
        """This simplex as a stack of one, built on first use: reading
        the vertex matrix alone does not compute a determinant."""
        return _VertexStack.of(self._vertex_matrix[None], np.array([self.ideal_mask()]))

    @functools.cached_property
    def _rules(self) -> dict:
        return {}

    def _frozen_rule(self, tol: float) -> Optional[VolumeRule]:
        """None where a closed form gives the volume (_closed_form);
        otherwise the cubature rule built on this simplex at tol, built
        once per tol and kept on the simplex like its stack."""
        if _closed_form(self.dim):
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
        rows, ideal = self._vertex_matrix[tri], np.array(self.ideal_mask())[tri]
        k0 = rows[:, 0, 1:]
        e1, e2 = rows[:, 1, 1:] - k0, rows[:, 2, 1:] - k0
        u0 = np.where(ideal[:, 0], 0.0, 1.0 - (k0 * k0).sum(axis=-1))
        e11, e22, e12 = (e1 * e1).sum(axis=-1), (e2 * e2).sum(axis=-1), (e1 * e2).sum(axis=-1)
        c = (e1 * k0).sum(axis=-1)[:, None] * e2 - (e2 * k0).sum(axis=-1)[:, None] * e1
        # sqrt(det(1 - K K^T)) over the face's Klein rows K
        sizes = np.sqrt((e11 * e22 - e12 * e12) * u0 + (c * c).sum(axis=-1))
        return dict(zip(faces, _triangle_volumes(rows, ideal, sizes).tolist()))

    def vertex_matrix(self) -> np.ndarray:
        """Rows are x_0 = 1 representatives (Klein-homogeneous); built
        once per simplex and shared read-only."""
        return self._vertex_matrix

    def klein(self) -> np.ndarray:
        return self._vertex_matrix[:, 1:]

    def orientation_det(self) -> float:
        return float(self._stack.dets[0])

    def is_degenerate(self) -> bool:
        """_VertexStack.degenerate of this simplex's stack of one."""
        return bool(self._stack.degenerate[0])

    def ideal_mask(self) -> tuple[bool, ...]:
        return tuple(v.kind is Kind.IDEAL for v in self.vertices)

    def subsimplex(self, indices: Sequence[int]) -> tuple[LorentzVector, ...]:
        return tuple(self.vertices[i] for i in indices)


def _degeneracy_scales(klein: np.ndarray) -> np.ndarray:
    """The determinant of the Klein-homogeneous vertex matrix scales like
    diameter^n, so degeneracy is judged relative to the largest distance
    of a vertex from the centroid; over a stack (..., n+1, n) of Klein
    vertex rows."""
    centred = klein - klein.sum(axis=-2, keepdims=True) / klein.shape[-2]
    return np.sqrt((centred * centred).sum(axis=-1)).max(axis=-1)


def _is_degenerate(rows: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """|det| below DEGENERACY_THRESHOLD * scale^n (_degeneracy_scales),
    elementwise over a stack (..., n+1, n+1) of x_0 = 1 vertex rows and
    its determinants.  Every Klein vertex lies within 2 of the centroid,
    so scale < 2 and |det| >= DEGENERACY_THRESHOLD * 2^n decides alone;
    scales are computed only for the remaining candidates."""
    n = rows.shape[-1] - 1
    size = np.abs(dets)
    degenerate = size < DEGENERACY_THRESHOLD * 2.0 ** n
    if degenerate.any():
        scales = _degeneracy_scales(rows[degenerate][..., 1:])
        degenerate[degenerate] = (size[degenerate]
                                  < DEGENERACY_THRESHOLD * np.maximum(scales, 1e-30) ** n)
    return degenerate


@dataclass(frozen=True, eq=False)
class _VertexStack:
    """A stack (..., n+1, n+1) of simplices' x_0 = 1 vertex rows with their
    ideal-vertex masks (..., n+1), and the per-simplex geometry computed
    once for the whole stack: determinants (orientation) and, from them,
    the relative degeneracy test (_is_degenerate).  Indexing over the
    leading axes gives the stack of the selected simplices."""

    rows: np.ndarray
    ideal: np.ndarray
    dets: np.ndarray
    degenerate: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray, ideal: np.ndarray) -> "_VertexStack":
        dets = np.linalg.det(rows)
        return cls(rows, ideal, dets, _is_degenerate(rows, dets))

    @classmethod
    def of_simplices(cls, simplices: Sequence[GeodesicSimplex]) -> "_VertexStack":
        """The (S,) stack of same-dimension simplices, in their order."""
        return cls.of(np.array([s.vertex_matrix() for s in simplices]),
                      np.array([s.ideal_mask() for s in simplices]))

    def __getitem__(self, index) -> "_VertexStack":
        return _VertexStack(self.rows[index], self.ideal[index], self.dets[index],
                            self.degenerate[index])


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
    for any array shape at once; a float gives a float.
    """
    t = np.asarray(theta, dtype=float)
    t = t - np.pi * np.rint(t / np.pi)
    ratio = (t / np.pi) ** 2
    series = (ratio[..., None] ** _LOB_POWERS) @ _LOB_COEFF
    # t log|2t| -> 0 as t -> 0: the logarithm of 1 stands in at t = 0
    out = t - t * np.log(np.abs(2.0 * t) + (t == 0.0)) + t * ratio * series
    return out if out.ndim else float(out)


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


@functools.lru_cache(maxsize=None)
def _minkowski_diagonal(n: int) -> np.ndarray:
    """The diagonal (-1, 1, ..., 1) of minkowski_matrix(n), read-only."""
    return np.diag(minkowski_matrix(n))


def _minkowski(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """<p, q> over the last axis of two stacks of vectors."""
    return np.einsum("...k,k,...k->...", p, _minkowski_diagonal(p.shape[-1] - 1), q)


def _half_angle_atan2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The angle between unit spacelike vectors a and b (stacked),
    2 atan2(|a - b|, |a + b|): unlike arccos <a, b> it keeps full
    accuracy near 0 and pi."""
    d, s = a - b, a + b
    return 2.0 * np.arctan2(np.sqrt(np.maximum(_minkowski(d, d), 0.0)),
                            np.sqrt(np.maximum(_minkowski(s, s), 0.0)))


def _stacked_face_normals(M: np.ndarray) -> np.ndarray:
    """Outward spacelike unit Minkowski normals of all facets of each
    simplex in a stack M (..., n+1, n+1) of x_0 = 1 vertex rows: row k of
    a simplex's normals is the normal of the hyperplane spanned by every
    vertex except k, which sits on its negative side.

    One batched inverse: row k of -(M^-1)^T J pairs to -1 with vertex k
    and to 0 with every other vertex, so it is that normal before
    scaling, already outward.  A facet of a nondegenerate simplex always
    spans a hyperplane, so the caller checks degeneracy first."""
    n = M.shape[-1] - 1
    m = -np.swapaxes(np.linalg.inv(M), -1, -2) * _minkowski_diagonal(n)
    q = _minkowski(m, m)
    if np.any(q <= 0):
        raise DegenerateSimplexError("face normal is not spacelike")
    return m / np.sqrt(q)[..., None]


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
    if stack.degenerate.any():
        raise DegenerateSimplexError("dihedral angle of a degenerate simplex")
    return _angles_from_normals(_stacked_face_normals(stack.rows), stack.ideal)


def dihedral_angles(simplex: GeodesicSimplex) -> np.ndarray:
    """Symmetric (n+1) x (n+1) matrix of interior dihedral angles: entry
    (i, j) is the angle at the codimension-2 face spanned by the
    vertices other than i and j; the diagonal is 0.

    The angle is arccos(-<m_i, m_j>) for the outward unit normals of the
    two facets, all read off the inverse of the vertex matrix
    (_stacked_face_normals) and evaluated together in the stable atan2
    form.  For n = 2 the face is a vertex, and the angle at an ideal
    vertex (tangent sides) is exactly 0."""
    return _stack_dihedral_angles(simplex._stack)[0]


def _omitted_pair(simplex: GeodesicSimplex, face) -> tuple[int, int]:
    """The codimension-2 face `face` of a simplex as its pair (i, j) of
    omitted vertex indices; SimplexError unless they are two distinct
    indices in 0..n."""
    try:
        i, j = face
    except (TypeError, ValueError):
        raise SimplexError(f"face must be a pair of vertex indices, got {face!r}") from None
    if i == j:
        raise SimplexError("face must omit two distinct vertices")
    if not (0 <= i <= simplex.dim and 0 <= j <= simplex.dim):
        raise SimplexError(f"face indices must lie in 0..{simplex.dim}, got {face}")
    return i, j


def dihedral_angle(simplex: GeodesicSimplex, face: tuple[int, int]) -> float:
    """Interior dihedral angle at the codimension-2 face spanned by the
    vertices other than the pair `face` = (i, j) of omitted indices; one
    entry of dihedral_angles.  Exactly 0 at an ideal vertex of a
    2-simplex (tangent sides)."""
    return float(dihedral_angles(simplex)[_omitted_pair(simplex, face)])


def triangle_areas(simplex: GeodesicSimplex, faces: Sequence[tuple[int, int]]) -> np.ndarray:
    """Areas of the triangular codimension-2 faces of a 4-simplex, one
    per omitted vertex pair in `faces`.  All ten come from one
    _triangle_volumes call on the faces' rows, made once per simplex and
    kept on it; a face's numerator sqrt(det(1 - K K^T)), K its Klein
    rows, takes the place of a 2-simplex's |det V|."""
    if simplex.dim != 4:
        raise SimplexError("triangle faces are codimension 2 only in a 4-simplex")
    areas = simplex._triangle_areas
    return np.array([areas[tuple(sorted(_omitted_pair(simplex, face)))] for face in faces])


def numeric_volume(simplex: GeodesicSimplex, tol: float = 1e-9) -> float:
    """Unsigned volume by Klein-model cubature with corner isolation at
    ideal vertices; the returned value carries an internal error
    estimate <= tol (IntegrationError otherwise).  The independent
    check of the closed forms, and the only caller of cubature on
    simplices of n <= 3; signed_volume does not call it."""
    if simplex.is_degenerate():
        raise DegenerateSimplexError("numeric_volume of a degenerate simplex")
    return build_rule(simplex.klein(), simplex.ideal_mask(), tol).value


def _ideal_cross_ratio(rows: list) -> complex:
    """Cross-ratio [p0 p2][p1 p3] / ([p0 p3][p1 p2]) of four ideal points
    given as x_0 = 1 rows of R^{3,1} (a list of four lists), [p q] =
    p_0 q_1 - p_1 q_0 on spinors.

    The spinor p of a lightlike v satisfies p p^* = [[v0 + v3, v1 + i v2],
    [v1 - i v2, v0 - v3]]; it is read off the larger diagonal entry, so
    that a point at (1, 0, 0, -1) is as well conditioned as any other.
    Phases and scales of the spinors cancel in the ratio."""
    spinors = []
    for _, x, y, w in rows:
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


# The vertex pairs opposite vertices 0, 1 and 2 of a triangle.
_TRIANGLE_SIDES = np.array([[1, 0, 0], [2, 2, 1]])


def _triangle_volumes(rows: np.ndarray, ideal: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Unsigned areas of a flat stack (S, 3, n+1) of nondegenerate
    triangles in H^n, given their x_0 = 1 rows, ideal masks (S, 3) and
    sizes (S,), size^2 = det(1 - K K^T) over a triangle's Klein rows K
    (1 the all-ones matrix), which is minus the determinant of its
    Minkowski Gram matrix V J V^T; for n = 2 it is |det V|:
        2 atan2(size, w0 w1 w2 + w0 m12 + w1 m02 + w2 m01),
    the hyperbolic form of Eriksson's solid-angle formula, with
    w_i = sqrt(u_i), u_i = 1 - |k_i|^2 (0 at an ideal vertex), and
    m_jk = 1 - k_j.k_k for Klein vertices k, so that w_i w_j w_k size is
    the Gram volume of the unit hyperboloid points and -m_jk / (w_j w_k)
    their Minkowski products.  m_jk is taken as (|k_j - k_k|^2 + u_j +
    u_k) / 2, which does not cancel when k_j and k_k are close; every
    term of the denominator is nonnegative, and it is 0 exactly on the
    ideal triangle, whose area is then pi.  Both atan2 arguments are
    doubled, which is exact."""
    k = rows[..., 1:]
    u = np.where(ideal, 0.0, 1.0 - np.einsum("...ik,...ik->...i", k, k))
    d = k[..., _TRIANGLE_SIDES[0], :] - k[..., _TRIANGLE_SIDES[1], :]
    m2 = np.einsum("...ik,...ik->...i", d, d) + u[..., _TRIANGLE_SIDES[0]] + u[..., _TRIANGLE_SIDES[1]]
    w = np.sqrt(u)
    return 2.0 * np.arctan2(2.0 * np.abs(sizes), 2.0 * w.prod(axis=-1) + (w * m2).sum(axis=-1))


# The weights of the seven Lobachevsky terms of an orthoscheme volume
# (_orthoscheme_arguments), and the absolute error bound stated for a
# tetrahedron measured through them: tier-1 sees agreement with cubature
# at tol 1e-12 to about 1e-14, near-coincident vertices, nearly flat
# tetrahedra and collapsing pieces included.
_ORTHOSCHEME_WEIGHTS = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 2.0]) / 4.0
_ORTHOSCHEME_BOUND = 1e-12


def _orthoscheme_arguments(rows: list, ideal: list, args: list, signs: list) -> None:
    """Append to `args` the (6, 7) Lobachevsky arguments and to `signs`
    the 6 signs of the orthoschemes that cut up one nondegenerate
    tetrahedron with a material vertex, given as its four x_0 = 1 rows
    and ideal flags (lists); the volume is sum_k signs_k (L(args_k) .
    _ORTHOSCHEME_WEIGHTS).

    The apex A is the material vertex of largest 1 - |k|^2, F its foot
    on the plane of the opposite face, and E the foot of A (and of F) on
    the line of each edge PQ of that face, O being the face's third
    vertex.  The tetrahedron is the signed sum of the orthoschemes
    (A, F, E, V), V = P or Q, over the three edges: the triangle FPQ
    counts positively when F lies on O's side of PQ (the dihedral angle
    at PQ is acute), and within it (A, F, E, Q) when E lies on P's side
    of Q.  With a = |AF|, b = |FE| and c = |EV| (tanh c = 1
    at an ideal V) the orthoscheme's angles are a1 at EV, a3 at AF and
    a2 at AV:
        tan a1 = tanh a / sinh b,   tan a3 = tanh c / sinh b,
        cot a2 = sinh a cosh b tanh c / (sinh b sqrt(sinh^2 a cosh^2 b
                 + sinh^2 b + tanh^2 c)),
    and its volume is Lobachevsky's formula (Kellerhals, Math. Ann. 285,
    1989) with tan d = tanh a tanh c / sinh b:
        (L(a1 + d) - L(a1 - d) + L(a3 + d) - L(a3 - d)
         - L(pi/2 - a2 + d) + L(pi/2 - a2 - d) + 2 L(pi/2 - d)) / 4.
    Every angle is an atan2 of two nonnegative numbers, so a piece that
    collapses (F on an edge line, b = 0, or E = V, c = 0) is 0 without a
    0/0, and no angle goes through acos.

    The lengths come from Klein coordinates k and differences of them,
    with no Gram entry -1 + k.k' left to cancel.  The face normal is
    N = (c.p, c) with c = (q - p) x (o - p), <N, N> = |c|^2 - (c.p)^2 and
    <N, A> = c.(A - p) = D, the Klein determinant; sinh a = |D| /
    sqrt(<N, N> (1 - |A|^2)).  For the edge PQ, d = q - p, the normal of
    the face APQ is N_O = (c_O.p, c_O) with c_O = d x (A - p), and
    l = |d|^2 - |p x d|^2 is minus the Gram minor of P and Q; by Jacobi's
    identity cot a1 = |<N, N_O>| / (|D| sqrt l), so sinh b = tanh a cot a1
    = |<N, N_O>| / (cosh a sqrt(<N, N> (1 - |A|^2) l)), and F lies on
    O's side of PQ exactly when <N, N_O> > 0.  E is -(alpha P + beta Q) / l
    with alpha = u_q (A - q).d + (q.(A - q))(q.d) and beta = -(u_p
    (A - p).d + (p.(A - p))(p.d)), u = 1 - |k|^2 (0 at an ideal vertex),
    so E lies on P's side of Q when alpha < 0, and tanh |EP| =
    |beta| sqrt l / |<alpha P + beta Q, P>|."""
    k = [r[1:] for r in rows]
    u = [0.0 if flag else 1.0 - (x * x + y * y + z * z) for (x, y, z), flag in zip(k, ideal)]
    apex = u.index(max(u))
    face = [i for i in range(4) if i != apex]
    ax, ay, az = k[apex]
    ox, oy, oz = k[face[0]]
    # c = (k1 - k0) x (k2 - k0) over the face's vertices k0, k1, k2
    fx, fy, fz = k[face[1]][0] - ox, k[face[1]][1] - oy, k[face[1]][2] - oz
    gx, gy, gz = k[face[2]][0] - ox, k[face[2]][1] - oy, k[face[2]][2] - oz
    cx, cy, cz = fy * gz - fz * gy, fz * gx - fx * gz, fx * gy - fy * gx
    cp = cx * ox + cy * oy + cz * oz
    norm = math.sqrt((cx * cx + cy * cy + cz * cz - cp * cp) * u[apex])
    sinh_a = abs(cx * (ax - ox) + cy * (ay - oy) + cz * (az - oz)) / norm
    cosh_a = math.sqrt(1.0 + sinh_a * sinh_a)
    tanh_a = sinh_a / cosh_a
    for P, Q in ((face[0], face[1]), (face[1], face[2]), (face[2], face[0])):
        px, py, pz = k[P]
        qx, qy, qz = k[Q]
        dx, dy, dz = qx - px, qy - py, qz - pz
        apx, apy, apz = ax - px, ay - py, az - pz
        aqx, aqy, aqz = ax - qx, ay - qy, az - qz
        pd = px * dx + py * dy + pz * dz
        # p x d, and c_O = d x (A - p)
        sx, sy, sz = py * dz - pz * dy, pz * dx - px * dz, px * dy - py * dx
        sqrt_l = math.sqrt(dx * dx + dy * dy + dz * dz - (sx * sx + sy * sy + sz * sz))
        ex, ey, ez = dy * apz - dz * apy, dz * apx - dx * apz, dx * apy - dy * apx
        n_o = cx * ex + cy * ey + cz * ez - cp * (ex * px + ey * py + ez * pz)
        sinh_b = abs(n_o) / (cosh_a * norm * sqrt_l)
        alpha = (u[Q] * (aqx * dx + aqy * dy + aqz * dz)
                 + (qx * aqx + qy * aqy + qz * aqz) * (qx * dx + qy * dy + qz * dz))
        beta = -(u[P] * (apx * dx + apy * dy + apz * dz) + (px * apx + py * apy + pz * apz) * pd)
        g_pq = pd - u[P]
        tanh_p = 1.0 if ideal[P] else abs(beta) * sqrt_l / abs(beta * g_pq - alpha * u[P])
        tanh_q = 1.0 if ideal[Q] else abs(alpha) * sqrt_l / abs(alpha * g_pq - beta * u[Q])
        side = 1.0 if n_o > 0 else -1.0
        cosh_b = math.sqrt(1.0 + sinh_b * sinh_b)
        a1 = math.atan2(tanh_a, sinh_b)
        sa_cb = sinh_a * cosh_b
        sinh2_ae = sa_cb * sa_cb + sinh_b * sinh_b
        for tanh_c, coeff in ((tanh_q, alpha), (tanh_p, beta)):
            a3 = math.atan2(tanh_c, sinh_b)
            delta = math.atan2(tanh_a * tanh_c, sinh_b)
            b2 = math.atan2(sa_cb * tanh_c, sinh_b * math.sqrt(sinh2_ae + tanh_c * tanh_c))
            args += (a1 + delta, a1 - delta, a3 + delta, a3 - delta,
                     b2 + delta, b2 - delta, math.atan2(sinh_b, tanh_a * tanh_c))
            signs.append(-side if coeff > 0 else side)


def _tetrahedron_volumes(rows: np.ndarray, ideal: np.ndarray, tol: float) -> np.ndarray:
    """Unsigned volumes of a flat stack (S, 4, 4) of nondegenerate
    3-simplices with their ideal masks (S, 4): the all-ideal ones take
    the Bloch-Wigner dilogarithm of their cross-ratios, every other one
    its orthoscheme decomposition (_orthoscheme_arguments), all of whose
    pieces go through one Lobachevsky evaluation.  The decomposition's
    error bound is _ORTHOSCHEME_BOUND; a tol below it raises
    IntegrationError naming the first such simplex by its index in the
    stack."""
    rows_list, ideal_list = rows.tolist(), ideal.tolist()
    out = [0.0] * len(rows_list)
    cusped = [i for i, flags in enumerate(ideal_list) if all(flags)]
    if cusped:
        for i, v in zip(cusped, np.abs(_bloch_wigner_many(
                [_ideal_cross_ratio(rows_list[i]) for i in cusped])).tolist()):
            out[i] = v
    idx = [i for i, flags in enumerate(ideal_list) if not all(flags)]
    if idx:
        args: list = []
        signs: list = []
        for i in idx:
            _orthoscheme_arguments(rows_list[i], ideal_list[i], args, signs)
        pieces = lobachevsky(np.array(args, dtype=float).reshape(-1, 6, 7)) @ _ORTHOSCHEME_WEIGHTS
        vols = np.abs((pieces * np.array(signs, dtype=float).reshape(-1, 6)).sum(axis=-1)).tolist()
        if tol < _ORTHOSCHEME_BOUND:
            raise IntegrationError(
                f"requested tolerance {tol} is below what double precision reaches "
                f"here (estimate {vols[0]}, bound {_ORTHOSCHEME_BOUND})",
                vols[0], _ORTHOSCHEME_BOUND, idx[0])
        for i, v in zip(idx, vols):
            out[i] = v
    return np.array(out)


def _closed_form(n: int) -> bool:
    """Whether n-simplices take a closed-form volume: every 2-simplex
    (its area from the determinant, _triangle_volumes) and every
    3-simplex (Bloch-Wigner of the cross-ratio when all-ideal, signed
    orthoschemes otherwise), and no simplex of n >= 4, which cubature
    integrates."""
    return n <= 3


def _stack_volumes(stack: _VertexStack, tol: float = 1e-9,
                   rule: Optional[VolumeRule] = None) -> np.ndarray:
    """Signed volumes of a stack of same-dimension simplices, shaped like
    its leading axes: degenerate simplices give 0, 2-simplices their
    areas from the stack's determinants (_triangle_volumes), 3-simplices
    their closed forms (_tetrahedron_volumes: one Lobachevsky evaluation
    for the Bloch-Wigner dilogarithms of the all-ideal ones and one for
    the orthoschemes of the rest), and every simplex of n >= 4 is
    integrated in one build_rules batch (whose values are read without
    building the rules), or, given a `rule` frozen on a simplex of the
    same dimension and vertex kinds, by that rule re-applied in one
    evaluation (so the values vary analytically along vertex paths).  A
    route that takes the whole stack reads it as it is.  Every route
    gives v >= 0, and each volume takes the sign of its simplex's det.
    A tol that is not a positive finite number raises ValueError on
    every route; an IntegrationError (a tol below what the route
    reaches) names the failing simplex's index in the flattened stack;
    the triangle area and Bloch-Wigner ignore tol otherwise."""
    _check_tol(tol)
    n = stack.rows.shape[-1] - 1
    dets = stack.dets.reshape(-1)
    live = (~stack.degenerate.reshape(-1)).nonzero()[0]
    vols = np.zeros(len(dets))
    if len(live):
        sel = slice(None) if len(live) == len(dets) else live
        rows, ideal = stack.rows.reshape(-1, n + 1, n + 1)[sel], stack.ideal.reshape(-1, n + 1)[sel]
        dets_live = dets[sel]
        try:
            if n == 2:
                v = _triangle_volumes(rows, ideal, dets_live)
            elif _closed_form(n):
                v = _tetrahedron_volumes(rows, ideal, tol)
            elif rule is not None:
                v = rule.evaluate(rows[..., 1:])
            else:
                v = _rule_values(rows[..., 1:], ideal, tol)
        except IntegrationError as exc:
            raise IntegrationError(exc.reason, exc.best, exc.bound, int(live[exc.simplex])) from exc
        vols[sel] = np.copysign(v, dets_live)
    return vols.reshape(stack.dets.shape)


def signed_volumes(simplices: Sequence[GeodesicSimplex], tol: float = 1e-9) -> list[float]:
    """Signed volumes of a list of simplices, each as signed_volume gives
    it: the simplices of each dimension are stacked and go through one
    _stack_volumes call, so closed forms are evaluated together and every
    simplex of n >= 4 is integrated in one cubature._rule_values pass per
    dimension rather than one rule at a time.  An IntegrationError names the
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

    Closed forms are used for n=2 (the area from the determinant) and
    n=3 (Bloch-Wigner of the cross-ratio when all-ideal, signed
    orthoschemes otherwise); n >= 4 integrates numerically at tol.  A
    tol below what the route reaches raises IntegrationError, except on
    triangles and Bloch-Wigner, which ignore it.  _stack_volumes on the simplex's
    stack of one.
    """
    return float(_stack_volumes(simplex._stack, tol)[0])


def volume_evaluator(simplex: GeodesicSimplex, tol: float = 1e-9) -> Callable[[GeodesicSimplex], float]:
    """Signed-volume evaluator frozen on the shape of `simplex`: each
    call is _stack_volumes, with the rule frozen on `simplex`, on the
    stack of one of the simplex it is given.

    For closed-form dimensions (n <= 3) the value is signed_volume's and
    no rule is built; for n >= 4 the cubature rule (cells and degree) is
    fixed here and re-applied, so the result varies analytically along a
    vertex path.  Used for finite differencing of volumes along families.
    """
    mask = simplex.ideal_mask()
    rule = simplex._frozen_rule(tol)  # the rule is built here, once

    def evaluate(s: GeodesicSimplex) -> float:
        if s.ideal_mask() != mask:
            raise SimplexError("simplex type changed under a frozen volume rule")
        return float(_stack_volumes(s._stack, tol, rule)[0])

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
    i, j = _omitted_pair(simplex, face)
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


def _keyframe_times(times: Sequence[float], count: int, what: str, error: type) -> np.ndarray:
    """The times of `what`, a keyframe family or path with `count`
    keyframes, as an array; `error` unless there is one time per
    keyframe, at least two, and the times are finite and strictly
    increasing."""
    times = np.asarray(times, dtype=float)
    if count < 2 or count != len(times):
        raise error(f"{what} needs one keyframe per time, at least two; "
                    f"got {count} keyframes for {len(times)} times")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise error(f"{what} needs finite, strictly increasing times; got times {times.tolist()}")
    return times


def _check_keyframe_time(t: float, times: np.ndarray, error: type) -> None:
    """`error` unless t lies in [times[0], times[-1]]: a keyframe spline
    is not extrapolated."""
    if not times[0] <= t <= times[-1]:
        raise error(f"t = {t} lies outside the keyframe times "
                    f"[{times[0]}, {times[-1]}]")


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
        slot.  The times must be finite and strictly increasing, and the
        family refuses any t outside [times[0], times[-1]] rather than
        extrapolate."""
        from scipy.interpolate import CubicSpline

        times = _keyframe_times(times, len(keyframes), "a keyframe family", SimplexError)
        kinds = keyframes[0].kinds
        for s in keyframes:
            if s.kinds != kinds:
                raise SimplexError("keyframes are not all of the same type")
        data = np.array([s.vertex_matrix() for s in keyframes])
        spline = CubicSpline(times, data, axis=0)

        def fn(t: float) -> GeodesicSimplex:
            _check_keyframe_time(t, times, SimplexError)
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
