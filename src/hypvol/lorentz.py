"""Minkowski-space linear algebra for the hyperboloid model of H^n.

Points of hyperbolic n-space are unit timelike vectors on the upper sheet
of the hyperboloid <x,x> = -1 in R^{n,1}; points of the sphere at infinity
are future-pointing lightlike rays, stored through a representative with
x_0 > 0.  Orientation-preserving isometries are SO(n,1)^+ matrices.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Kind",
    "LorentzVector",
    "Isometry",
    "IsometryClass",
    "IsometryClassification",
    "FixedSet",
    "LorentzError",
    "AmbiguousClassificationError",
    "EmptyFixedSetError",
    "minkowski_inner",
    "minkowski_matrix",
    "distance",
    "model_convert",
    "from_klein",
    "classify_isometry",
    "common_fixed_set",
    "lift_moebius",
    "minkowski_gram_schmidt",
    "so_algebra_residual",
]

FORM_TOL = 1e-10
MATERIAL_TOL = 1e-12
IDEAL_EQ_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


class LorentzError(ValueError):
    """Base error for invalid Minkowski-space inputs."""


class AmbiguousClassificationError(LorentzError):
    """Raised when an isometry sits on a classification boundary at the
    requested tolerance.  ``candidates`` holds the competing classes."""

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = tuple(candidates)


class EmptyFixedSetError(LorentzError):
    """Raised when a generating set has no common fixed point in the
    closed ball at the requested tolerance."""


class Kind(enum.Enum):
    MATERIAL = "material"
    IDEAL = "ideal"
    RAW = "raw"


@functools.lru_cache(maxsize=None)
def minkowski_matrix(n: int) -> np.ndarray:
    """diag(-1, 1, ..., 1) for R^{n,1}, built once per dimension and
    shared read-only."""
    J = np.eye(n + 1)
    J[0, 0] = -1.0
    J.setflags(write=False)
    return J


def _inner(u: np.ndarray, v: np.ndarray) -> float:
    return float(-u[0] * v[0] + u[1:] @ v[1:])


def _finite_form(c: np.ndarray) -> float:
    """<c, c>, refusing coordinates that are not all finite (a NaN or an
    infinity makes the form NaN or infinite)."""
    q = _inner(c, c)
    if not math.isfinite(q):
        raise LorentzError(f"coordinates are not finite: {c.tolist()}")
    return q


def _project_material(coords: Sequence[float]) -> np.ndarray:
    """A fresh array on the upper hyperboloid sheet, rescaled from a
    future-pointing timelike vector (refused otherwise)."""
    c = np.asarray(coords, dtype=float)
    q = _finite_form(c)
    if q >= 0 or c[0] <= 0:
        raise LorentzError(f"not timelike future-pointing: <x,x>={q}")
    return c / np.sqrt(-q)


def _project_ideal(coords: Sequence[float]) -> np.ndarray:
    """A fresh array on the future light cone: the time coordinate of a
    representative within 0.1% of the cone is reset to the length of
    its space part (refused otherwise)."""
    c = np.asarray(coords, dtype=float)
    q = _finite_form(c)
    if c[0] <= 0:
        raise LorentzError("ideal representative must have x0 > 0")
    s = math.sqrt(c[1:] @ c[1:])
    if s == 0:
        raise LorentzError("zero space part cannot be lightlike")
    if abs(q) > 1e-3 * float(c @ c):
        raise LorentzError(f"representative too far from the light cone: <x,x>={q}")
    return np.concatenate(([s], c[1:]))


@dataclass(frozen=True)
class LorentzVector:
    """A vector of R^{n,1} tagged as a hyperbolic point, an ideal point,
    or a raw vector.

    Material vectors satisfy <x,x> = -1 with x_0 > 0.  Ideal vectors are
    future-pointing lightlike representatives, defined up to positive
    scaling.  Raw vectors carry no constraint.
    """

    coords: np.ndarray
    kind: Kind

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.shape[0] < 3:
            raise LorentzError(f"need at least 3 coordinates (n >= 2), got shape {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)
        q = _finite_form(c)
        scale = float(c @ c)
        if self.kind is Kind.MATERIAL:
            # <x,x> of a rounded point carries rounding of up to about
            # (n+1) eps (c . c), which grows like x0^2 near the sphere
            if abs(q + 1.0) > 1e-9 + _EPS * len(c) * scale or c[0] <= 0:
                raise LorentzError(f"not a material point: <x,x>={q}, x0={c[0]}")
        elif self.kind is Kind.IDEAL:
            if scale == 0.0 or abs(q) > 1e-9 * scale or c[0] <= 0:
                raise LorentzError(f"not an ideal point: <x,x>={q}, x0={c[0]}")

    @property
    def n(self) -> int:
        return self.coords.shape[0] - 1

    @property
    def x0(self) -> float:
        return float(self.coords[0])

    @staticmethod
    def material(coords: Sequence[float]) -> "LorentzVector":
        """Material point from hyperboloid coordinates, renormalized to
        kill floating-point drift in <x,x>."""
        return LorentzVector(_project_material(coords), Kind.MATERIAL)

    @staticmethod
    def ideal(coords: Sequence[float]) -> "LorentzVector":
        """Ideal point from an approximately lightlike representative,
        projected exactly onto the light cone by renormalizing the space
        part.  The input only needs to be near the cone (sanity guard at
        0.1% relative); interpolation or long isometry products may have
        drifted it."""
        return LorentzVector(_project_ideal(coords), Kind.IDEAL)

    @classmethod
    def _trusted(cls, c: np.ndarray, kind: Kind) -> "LorentzVector":
        """Wrap a fresh float array that is a point of the given kind by
        construction, without validating it; the array is frozen, not
        copied."""
        c.setflags(write=False)
        x = object.__new__(cls)
        object.__setattr__(x, "coords", c)
        object.__setattr__(x, "kind", kind)
        return x

    @staticmethod
    def raw(coords: Sequence[float]) -> "LorentzVector":
        return LorentzVector(np.asarray(coords, dtype=float), Kind.RAW)

    @staticmethod
    def basis_point(n: int) -> "LorentzVector":
        """The point e_0, the center of the ball model."""
        c = np.zeros(n + 1)
        c[0] = 1.0
        return LorentzVector(c, Kind.MATERIAL)

    def unit(self) -> "LorentzVector":
        """x_0 = 1 representative (projective normalization)."""
        return LorentzVector(self.coords / self.coords[0], self.kind) if self.kind is Kind.IDEAL \
            else self

    def scaled(self, factor: float) -> "LorentzVector":
        """Positive rescaling of an ideal representative."""
        if self.kind is not Kind.IDEAL:
            raise LorentzError("only ideal representatives rescale")
        if factor <= 0:
            raise LorentzError("scale factor must be positive")
        return LorentzVector(self.coords * factor, Kind.IDEAL)

    def same_point(self, other: "LorentzVector", tol: float = IDEAL_EQ_TOL) -> bool:
        """Equality as points of the closed ball (ideal reps compared at
        x_0 = 1)."""
        if self.kind is not other.kind:
            return False
        a, b = self.coords, other.coords
        if self.kind is Kind.IDEAL:
            a, b = a / a[0], b / b[0]
        return bool(np.abs(a - b).max() <= tol)


def minkowski_inner(u: LorentzVector, v: LorentzVector) -> float:
    """The bilinear form -u_0 v_0 + sum u_i v_i."""
    if u.coords.shape != v.coords.shape:
        raise LorentzError(f"dimension mismatch: {u.coords.shape} vs {v.coords.shape}")
    return _inner(u.coords, v.coords)


def distance(x: LorentzVector, y: LorentzVector) -> float:
    """Hyperbolic distance between material points, cosh d = -<x,y>."""
    if x.kind is not Kind.MATERIAL or y.kind is not Kind.MATERIAL:
        raise LorentzError("distance requires material points")
    c = -minkowski_inner(x, y)
    return float(np.arccosh(max(c, 1.0)))


def model_convert(x: LorentzVector, target: str):
    """Convert between the hyperboloid and Klein models.

    target="klein": material or ideal vector -> length-n array (inside or
    on the unit sphere).  target="hyperboloid": length-n Klein array ->
    LorentzVector (material strictly inside, ideal on the sphere).
    """
    t = target.lower()
    if t == "klein":
        if not isinstance(x, LorentzVector) or x.kind is Kind.RAW:
            raise LorentzError("klein conversion needs a material or ideal vector")
        return x.coords[1:] / x.coords[0]
    if t == "hyperboloid":
        k = np.asarray(x, dtype=float)
        return from_klein(k)
    raise LorentzError(f"unknown target model {target!r}")


def from_klein(k: np.ndarray, boundary_tol: float = 1e-12) -> LorentzVector:
    """Lift a Klein-model point to the hyperboloid (or the light cone if
    it lies on the unit sphere within boundary_tol).

    The ball check is the whole validation: the lift of a finite point
    of the closed ball is a point of its kind by construction, so it is
    wrapped without the constructor's second check.  An ideal lift's
    time coordinate is the length of its space part, as
    LorentzVector.ideal sets it."""
    k = np.asarray(k, dtype=float)
    if k.ndim != 1 or k.shape[0] < 2:
        raise LorentzError(f"need at least 2 Klein coordinates (n >= 2), got shape {k.shape}")
    r2 = float(k @ k)
    if not math.isfinite(r2):
        raise LorentzError(f"Klein coordinates are not finite: {k.tolist()}")
    if r2 > 1.0 + boundary_tol:
        raise LorentzError(f"Klein point outside the closed ball: |k|^2={r2}")
    if r2 >= 1.0 - boundary_tol:
        c = np.concatenate(([1.0], k / np.sqrt(r2)))
        c[0] = math.sqrt(c[1:] @ c[1:])
        return LorentzVector._trusted(c, Kind.IDEAL)
    return LorentzVector._trusted(np.concatenate(([1.0], k)) / np.sqrt(1.0 - r2),
                                  Kind.MATERIAL)


def minkowski_gram_schmidt(A: np.ndarray) -> np.ndarray:
    """Project a near-SO(n,1) matrix back onto the form-preserving
    manifold by Gram-Schmidt in the Minkowski metric (column 0 timelike,
    the rest spacelike)."""
    A = np.array(A, dtype=float)
    m = A.shape[0]
    J = minkowski_matrix(m - 1)
    cols = []
    signs = []
    for i in range(m):
        v = A[:, i].copy()
        for u, s in zip(cols, signs):
            v -= (s * (u @ J @ v)) * u
        q = float(v @ J @ v)
        if i == 0:
            if q >= 0:
                raise LorentzError("column 0 not timelike; cannot reproject")
            v = v / np.sqrt(-q)
            signs.append(-1.0)
        else:
            if q <= 0:
                raise LorentzError("spacelike column collapsed; cannot reproject")
            v = v / np.sqrt(q)
            signs.append(1.0)
        cols.append(v)
    return np.column_stack(cols)


def _form_residuals(A: np.ndarray):
    """Form residuals max |A^T J A - J| of a stack of matrices (..., m, m)
    and their scales max(1, max |A|^2): the residual of an exact isometry
    rounded to floats scales with |A|^2, so tolerances are relative to
    that."""
    J = minkowski_matrix(A.shape[-1] - 1)
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)) ** 2)
    resid = np.abs(np.swapaxes(A, -1, -2) @ J @ A - J).max(axis=(-2, -1))
    return resid, scale


def _require_square(A: np.ndarray) -> None:
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 3:
        raise LorentzError(f"isometry matrix must be square of size >= 3, got {A.shape}")


def _check_isometries(A: np.ndarray, resid: np.ndarray, scale: np.ndarray) -> None:
    """Raise LorentzError for the first matrix of the stack A (k, m, m)
    that is not in SO(n,1)^+, given its form residual and scale: the form
    residual is checked first, then the determinant, then the sheet."""
    det = np.linalg.det(A)
    bad = (resid > FORM_TOL * scale) | (np.abs(det - 1.0) > FORM_TOL * scale) | (A[:, 0, 0] <= 0)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if resid[i] > FORM_TOL * scale[i]:
        raise LorentzError(
            f"form residual {resid[i]:.3e} exceeds {FORM_TOL} * {scale[i]:.2e}")
    if abs(det[i] - 1.0) > FORM_TOL * scale[i]:
        raise LorentzError(f"determinant {det[i]} != +1")
    raise LorentzError("A_00 <= 0: does not preserve the upper sheet")


def _validated(A: np.ndarray) -> np.ndarray:
    """The stack A (k, m, m) of candidate SO(n,1)^+ matrices, validated
    with one form residual per matrix.  A matrix whose residual is above
    drift level but still small is first reprojected onto the
    form-preserving manifold (and its residual taken again).
    LorentzError names the first matrix refused; A is modified only
    where it is reprojected."""
    resid, scale = _form_residuals(A)
    drifted = (0.5 * FORM_TOL * scale < resid) & (resid < 1e-4 * scale)
    if drifted.any():
        for i in np.flatnonzero(drifted):
            A[i] = minkowski_gram_schmidt(A[i])
        resid, scale = _form_residuals(A)
    _check_isometries(A, resid, scale)
    return A


def _reproject_drifted(P: np.ndarray) -> np.ndarray:
    """A matrix (m, m) or stack (k, m, m) of products of isometries, each
    matrix reprojected onto the form-preserving manifold when its
    accumulated drift approaches the validation tolerance."""
    resid, scale = _form_residuals(P)
    drifted = resid > 0.5 * FORM_TOL * scale
    if not drifted.any():
        return P
    if P.ndim == 2:
        return minkowski_gram_schmidt(P)
    P = P.copy()
    for i in np.flatnonzero(drifted):
        P[i] = minkowski_gram_schmidt(P[i])
    return P


@dataclass(frozen=True)
class Isometry:
    """An element of SO(n,1)^+: A^T J A = J, det A = +1, A_00 > 0.

    Constructing one validates the matrix; that is the boundary for
    outside input (``Isometry(...)``, ``from_matrix``, ``lift_moebius``).
    Identities, inverses and compositions of validated isometries are
    isometries by construction and skip the check."""

    matrix: np.ndarray

    def __post_init__(self):
        A = np.array(self.matrix, dtype=float)
        _require_square(A)
        _check_isometries(A[None], *_form_residuals(A[None]))
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)

    @classmethod
    def _trusted(cls, A: np.ndarray) -> "Isometry":
        """Wrap a fresh array that is an isometry by construction,
        without validating it; the array is frozen, not copied."""
        A.setflags(write=False)
        iso = object.__new__(cls)
        object.__setattr__(iso, "matrix", A)
        return iso

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def identity(n: int) -> "Isometry":
        return Isometry(np.eye(n + 1))

    @staticmethod
    def from_matrix(A: np.ndarray) -> "Isometry":
        """Wrap a matrix, reprojecting to the form-preserving manifold
        first when the residual is above drift level but still small;
        the form residual is computed once (twice when reprojected).
        Isometry(A) validates without reprojecting."""
        A = np.array(A, dtype=float)
        _require_square(A)
        return Isometry._trusted(_validated(A[None])[0])

    def inverse(self) -> "Isometry":
        """J A^T J, exact in floating point."""
        J = minkowski_matrix(self.n)
        return Isometry._trusted(J @ self.matrix.T @ J)

    def compose(self, other: "Isometry") -> "Isometry":
        """self o other, reprojected onto the form-preserving manifold
        when accumulated drift approaches the validation tolerance."""
        return Isometry._trusted(_reproject_drifted(self.matrix @ other.matrix))

    def __matmul__(self, other):
        if isinstance(other, Isometry):
            return self.compose(other)
        return NotImplemented

    def apply(self, x: LorentzVector) -> LorentzVector:
        y = self.matrix @ x.coords
        # strong contractions shrink lightlike vectors by 1/lambda while
        # rounding noise stays relative to |A||x|; re-project onto the
        # cone / hyperboloid instead of validating the raw product.  The
        # projection guards and builds a fresh array, so the image is
        # trusted like a composition.
        if x.kind is Kind.IDEAL:
            return LorentzVector._trusted(_project_ideal(y), Kind.IDEAL)
        if x.kind is Kind.MATERIAL:
            return LorentzVector._trusted(_project_material(y), Kind.MATERIAL)
        return LorentzVector._trusted(y, Kind.RAW)


class IsometryClass(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"


@dataclass(frozen=True)
class IsometryClassification:
    kind: IsometryClass
    interior_fixed: Optional[LorentzVector]
    ideal_fixed: tuple[LorentzVector, ...]
    fixes_sphere: bool = False


@dataclass(frozen=True)
class FixedSet:
    interior: Optional[LorentzVector]
    ideal: tuple[LorentzVector, ...]
    sphere: bool = False


def _fixed_subspace(mats: Sequence[np.ndarray], tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the common eigenvalue-1 space of
    the given matrices, via SVD of the stacked (A_i - I)."""
    m = mats[0].shape[0]
    stacked = np.vstack([A - np.eye(m) for A in mats])
    _, s, vt = np.linalg.svd(stacked)
    smax = s[0] if len(s) else 0.0
    cutoff = tol * max(smax, 1.0)
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T  # (m, k)


def _ball_points_from_subspace(B: np.ndarray, tol: float):
    """Split a fixed linear subspace into its hyperbolic content.

    Returns (interior, ideal_rays, sphere) where interior is a material
    vector or None, ideal_rays is a list of lightlike representatives
    (only enumerated when isolated), and sphere flags a fixed set that
    contains the whole sphere at infinity.
    """
    m, k = B.shape
    if k == 0:
        return None, [], False
    J = minkowski_matrix(m - 1)
    G = B.T @ J @ B
    w, U = np.linalg.eigh(G)
    interior = None
    rays: list[np.ndarray] = []
    if w[0] < -tol:
        v = B @ U[:, 0]
        if v[0] < 0:
            v = -v
        interior = v / np.sqrt(-_inner(v, v))
        if k == m:
            return interior, [], True
        if k == 2 and w[1] > tol:
            t = B @ U[:, 0] / np.sqrt(-w[0])
            s = B @ U[:, 1] / np.sqrt(w[1])
            for ray in (t + s, t - s):
                if ray[0] < 0:
                    ray = -ray
                rays.append(ray)
        # k >= 3 with a timelike direction fixes a whole subsphere of
        # ideal points; those are not enumerated.
    elif abs(w[0]) <= tol:
        ray = B @ U[:, 0]
        if abs(ray[0]) > tol * math.sqrt(ray @ ray):
            if ray[0] < 0:
                ray = -ray
            rays.append(ray)
    return interior, rays, False


def _residual(A: np.ndarray, x: np.ndarray) -> float:
    """Relative eigen-residual of x as a fixed ray of A."""
    y = A @ x
    lam = float(y @ x) / float(x @ x)
    if lam <= 0:
        return np.inf
    r = y - lam * x
    return math.sqrt((r @ r) / (y @ y))


def _loxodromic_rays(eigvals: np.ndarray, eigvecs: np.ndarray) -> list[np.ndarray]:
    """The expanding and contracting lightlike eigenvectors of a
    loxodromic element, from its eigendecomposition."""
    order = np.argsort(np.abs(eigvals))
    rays = []
    for idx in (order[-1], order[0]):
        lam = eigvals[idx]
        if abs(lam.imag) > 1e-6 * abs(lam) or lam.real <= 0:
            raise AmbiguousClassificationError(
                "extremal eigenvalue is not real positive",
                [IsometryClass.LOXODROMIC, IsometryClass.ELLIPTIC])
        v = eigvecs[:, idx]
        phase = v[np.argmax(np.abs(v))]
        v = np.real(v * np.conj(phase) / abs(phase))
        nv = math.sqrt(v @ v)
        if nv == 0 or abs(_inner(v, v)) > 1e-6 * nv**2:
            raise AmbiguousClassificationError(
                "extremal eigenvector is not lightlike at tolerance",
                [IsometryClass.LOXODROMIC, IsometryClass.ELLIPTIC])
        if v[0] < 0:
            v = -v
        rays.append(v)
    return rays


def classify_isometry(iso: Isometry, tol: float = 1e-8) -> IsometryClassification:
    """Classify by fixed sets in the closed ball.

    Elliptic elements have a material fixed point (an eigenvalue-1
    timelike eigenvector), parabolic elements a single ideal fixed ray,
    loxodromic elements an expanding/contracting pair of ideal rays.

    The decision runs off a singular value analysis of A - I (stable
    even for the defective Jordan structure of parabolics, where plain
    eigenvalues scatter like eps^(1/3)); the spectral radius is only a
    cross-check.  A conflict between the two views means the element is
    numerically on the parabolic boundary and raises
    AmbiguousClassificationError with both candidates.
    """
    A = iso.matrix
    m = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - np.eye(m)).max() <= tol * scale:
        return IsometryClassification(
            IsometryClass.IDENTITY, LorentzVector.basis_point(m - 1), (), fixes_sphere=True)
    # one eigendecomposition: its spectral radius decides, and its
    # eigenvectors are the fixed rays when the element is loxodromic
    eigvals, eigvecs = np.linalg.eig(A)
    lam_max = float(np.abs(eigvals).max())
    # Below `guard` the spectral radius of a true parabolic is
    # indistinguishable from 1 (defective eigenvalues scatter like
    # eps^(1/3)); above `decisive` the expanding eigenvector is crisp and
    # the eigenvalue-1 analysis may itself be swamped by the matrix norm.
    guard = max(100.0 * tol, 1e-5) * scale
    decisive = 1e-3
    if lam_max > 1.0 + max(decisive, guard):
        lox = _loxodromic_rays(eigvals, eigvecs)
        return IsometryClassification(
            IsometryClass.LOXODROMIC, None,
            tuple(LorentzVector.ideal(r) for r in lox))
    B = _fixed_subspace([A], tol)
    interior, rays, sphere = _ball_points_from_subspace(B, tol)
    if interior is not None:
        if lam_max > 1.0 + guard:
            raise AmbiguousClassificationError(
                f"timelike fixed vector found but spectral radius {lam_max} > 1",
                [IsometryClass.ELLIPTIC, IsometryClass.LOXODROMIC])
        return IsometryClassification(
            IsometryClass.ELLIPTIC,
            LorentzVector(interior, Kind.MATERIAL),
            tuple(LorentzVector.ideal(r) for r in rays),
            fixes_sphere=sphere)
    if rays:
        if lam_max > 1.0 + guard:
            raise AmbiguousClassificationError(
                f"lightlike fixed ray found but spectral radius {lam_max} > 1; "
                "near the parabolic/loxodromic boundary",
                [IsometryClass.PARABOLIC, IsometryClass.LOXODROMIC])
        return IsometryClassification(
            IsometryClass.PARABOLIC, None, (LorentzVector.ideal(rays[0]),))
    if lam_max <= 1.0 + guard:
        raise AmbiguousClassificationError(
            "no eigenvalue-1 fixed point in the closed ball and no clear "
            "expansion; numerically on a classification boundary",
            [IsometryClass.PARABOLIC, IsometryClass.LOXODROMIC])
    lox = _loxodromic_rays(eigvals, eigvecs)
    return IsometryClassification(
        IsometryClass.LOXODROMIC, None, tuple(LorentzVector.ideal(r) for r in lox))


def common_fixed_set(gens: Sequence[Isometry], tol: float = 1e-8) -> FixedSet:
    """Common fixed locus of a family of isometries in the closed ball.

    The interior part and eigenvalue-1 ideal rays come from a singular
    value analysis of the stacked (A_i - I).  Ideal rays fixed with
    eigenvalue != 1 (shared loxodromic endpoints) are recovered from
    per-generator candidates and verified against every generator.
    Generators are classified in order up to the first loxodromic or
    parabolic one, whose finite list of ideal fixed rays contains every
    common fixed ray; no commutativity is assumed.
    """
    if not gens:
        raise LorentzError("need at least one generator")
    mats = [g.matrix for g in gens]
    m = mats[0].shape[0]
    if any(M.shape[0] != m for M in mats):
        raise LorentzError("generators of mixed dimension")
    B = _fixed_subspace(mats, tol)
    interior, rays, sphere = _ball_points_from_subspace(B, tol)

    candidates = list(rays)
    nontrivial = [g for g in gens if np.abs(g.matrix - np.eye(m)).max() > tol]
    if not nontrivial:
        sphere = True
        interior = LorentzVector.basis_point(m - 1).coords
    else:
        for g in nontrivial:
            try:
                cls = classify_isometry(g, tol)
            except AmbiguousClassificationError:
                continue
            for p in cls.ideal_fixed:
                candidates.append(p.coords)
            if cls.kind in (IsometryClass.LOXODROMIC, IsometryClass.PARABOLIC):
                # its ideal fixed set is finite and fully enumerated, so
                # it holds every common fixed ray
                break
        verified = []
        for c in candidates:
            c = c / c[0]
            if any(_residual(M, c) > tol for M in mats):
                continue
            if not any(np.abs(c - v).max() <= IDEAL_EQ_TOL for v in verified):
                verified.append(c)
        candidates = verified

    ideal = tuple(LorentzVector.ideal(c) for c in candidates)
    interior_pt = None
    if interior is not None:
        interior_pt = LorentzVector(np.asarray(interior), Kind.MATERIAL)
    if interior_pt is None and not ideal and not sphere:
        raise EmptyFixedSetError(
            "no common fixed point in the closed ball at tolerance "
            f"{tol} (not an amenable-like configuration)")
    return FixedSet(interior_pt, ideal, sphere)


# Hermitian (n=3) and real symmetric (n=2) 2x2 matrices with coordinates
# x: x0 I + x1 [[0, 1], [1, 0]] + x2 [[0, i], [-i, 0]] + x3 [[1, 0], [0, -1]],
# and the same without the x2 term; the form -det is the Minkowski form
_HERMITIAN_BASIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                             [[0, 1j], [-1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_SYMMETRIC_BASIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]]],
                            dtype=float)


def _sl2_action_matrices(ms: np.ndarray, hermitian: bool) -> np.ndarray:
    """SO-matrices (k, d, d) of X -> m X m^* on Hermitian (d = 4) or
    X -> m X m^T on symmetric (d = 3) 2x2 matrices, for a stack ms
    (k, 2, 2): column i is m B_i m^* for the i-th basis matrix B_i, read
    back in the basis, all in one stacked product."""
    adj = np.swapaxes(ms, -1, -2)
    basis = _HERMITIAN_BASIS if hermitian else _SYMMETRIC_BASIS
    if hermitian:
        adj = adj.conj()
    P = ms[:, None] @ basis @ adj[:, None]  # (k, d, 2, 2)
    half_trace = (P[..., 0, 0] + P[..., 1, 1]).real / 2.0
    half_diff = (P[..., 0, 0] - P[..., 1, 1]).real / 2.0
    off = P[..., 0, 1]
    rows = (half_trace, off.real, off.imag, half_diff) if hermitian \
        else (half_trace, off, half_diff)
    return np.stack(rows, axis=-2)


def _lift_stack(ms: np.ndarray, dim: Optional[int] = None) -> np.ndarray:
    """lift_moebius over a stack ms (k, 2, 2): the validated SO(n,1)^+
    matrices (k, n+1, n+1), refusing the first matrix lift_moebius
    refuses, with its message."""
    det = ms[:, 0, 0] * ms[:, 1, 1] - ms[:, 0, 1] * ms[:, 1, 0]
    bad = np.abs(det - 1.0) > 1e-10
    if bad.any():
        raise LorentzError(f"determinant {det[int(np.argmax(bad))]} is not 1")
    if dim is None:
        dim = 3 if np.iscomplexobj(ms) else 2
    if dim == 3:
        A = _sl2_action_matrices(np.asarray(ms, dtype=complex), hermitian=True)
    elif dim == 2:
        if np.iscomplexobj(ms) and np.abs(ms.imag).max() > 1e-12:
            raise LorentzError("H^2 lift needs a real matrix")
        A = _sl2_action_matrices(np.asarray(ms.real, dtype=float), hermitian=False)
    else:
        raise LorentzError(f"lift target must be dimension 2 or 3, got {dim}")
    return _validated(A)


def lift_moebius(m: np.ndarray, dim: Optional[int] = None) -> Isometry:
    """Lift a determinant-1 2x2 matrix to SO(n,1)^+.

    Complex matrices act on H^3 through Hermitian 2x2 matrices, real
    ones on H^2 through symmetric 2x2 matrices.  lift(-m) = lift(m).
    """
    m = np.asarray(m)
    if m.shape != (2, 2):
        raise LorentzError(f"expected a 2x2 matrix, got {m.shape}")
    return Isometry._trusted(_lift_stack(m[None], dim)[0])


def so_algebra_residual(X: np.ndarray) -> float:
    """Deviation of X from so(n,1): max |X^T J + J X| (zero on the Lie
    algebra, i.e. JX antisymmetric)."""
    X = np.asarray(X, dtype=float)
    J = minkowski_matrix(X.shape[0] - 1)
    return float(np.abs(X.T @ J + J @ X).max())
