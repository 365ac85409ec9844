"""Differentiation of one-parameter simplex families, Schlafli identity
residuals (n >= 4 and the horoball-truncated 3D variant), and the
integer transverse-degree checks for stars of simplices around a
codimension-2 face."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lorentz import Kind, LorentzVector
from .simplex import (
    GeodesicSimplex,
    HoroballAssignment,
    InfiniteFaceMeasureError,
    SimplexError,
    SimplexFamily,
    _stack_dihedral_angles,
    _stack_volumes,
    _VertexStack,
    default_horoballs,
    dihedral_angle,
    face_measure,
    triangle_areas,
    truncated_edge_length,
)

__all__ = [
    "FamilyDerivativeReport",
    "NonIntegralDegreeError",
    "family_derivatives",
    "schlafli_residual",
    "schlafli_residual_truncated_3d",
    "transverse_degree",
    "vertex_degree_2d",
]


class NonIntegralDegreeError(ValueError):
    """Signed dihedral-angle sum around the face is not an integer
    multiple of 2*pi at tolerance (inconsistent star)."""

    def __init__(self, message, value):
        super().__init__(message)
        self.value = value


@dataclass(frozen=True)
class FamilyDerivativeReport:
    """Central-difference derivatives of a simplex family at one time.

    dtheta maps each codimension-2 face (pair of omitted vertex indices)
    to the dihedral-angle derivative; face_measures holds the face
    measures at the center time (n=3 edges with ideal endpoints are
    omitted: their length is infinite).  error_estimate bounds the
    truncation error of dvol via step halving.
    """

    t: float
    h: float
    dvol: float
    dtheta: dict
    face_measures: dict
    error_estimate: float


def _faces(n: int):
    return list(itertools.combinations(range(n + 1), 2))


def _check_same_type(fam: SimplexFamily, stencil: Sequence[GeodesicSimplex], t: float):
    kinds = stencil[0].kinds
    for s in stencil[1:]:
        if s.kinds != kinds:
            slot = next(k for k, (a, b) in enumerate(zip(s.kinds, kinds)) if a != b)
            raise SimplexError(
                f"vertex slot {slot} changes kind within the stencil at t={t}")


def family_derivatives(fam: SimplexFamily, t: float, h: float = 1e-4,
                       tol: float = 1e-10) -> FamilyDerivativeReport:
    """Central finite differences of the volume and of every dihedral
    angle of the family at time t, plus face measures at t.

    The four stencil simplices (t -+ h, t -+ h/2) form one vertex stack,
    which gives their orientations and degeneracy.  Their volumes come
    from one evaluation of the integration rule frozen at the center
    (built once per tol and kept on the center simplex), so the
    difference quotient is free of rule-switching noise; the reported
    error estimate compares the h and h/2 derivative estimates.  The
    dihedral angles of both t -+ h sides come from one batched normal
    computation.  A SimplexFamily keeps the simplices of recent times,
    so a second call at h/2 re-evaluates only the two new times.
    """
    if h <= 0:
        raise SimplexError("step must be positive")
    if t - h < 0.0 or t + h > 1.0:
        raise SimplexError("stencil leaves the parameter interval [0,1]")
    center = fam(t)
    stencil = [fam(t + dt) for dt in (-h, -h / 2, h / 2, h)]
    _check_same_type(fam, [center, *stencil], t)
    stack = _VertexStack.of_simplices(stencil)

    # dvol differentiates the unsigned polyhedron volume: the orientation
    # is constant along a nondegenerate family, so strip it at the center.
    sign = 1.0 if center.orientation_det() > 0 else -1.0
    v_minus, v_minus_half, v_plus_half, v_plus = _stack_volumes(
        stack, tol, center._frozen_rule(tol)).tolist()
    dvol = sign * (v_plus - v_minus) / (2 * h)
    dvol_half = sign * (v_plus_half - v_minus_half) / h
    err = abs(dvol - dvol_half) * (4.0 / 3.0)

    faces = _faces(center.dim)
    minus, plus = _stack_dihedral_angles(stack[[0, 3]])
    dtheta = {face: float(plus[face] - minus[face]) / (2 * h) for face in faces}
    if center.dim == 4:
        measures = dict(zip(faces, triangle_areas(center, faces).tolist()))
    else:
        measures = {}
        for face in faces:
            try:
                measures[face] = face_measure(center, face)
            except InfiniteFaceMeasureError:
                pass
    return FamilyDerivativeReport(t=t, h=h, dvol=dvol, dtheta=dtheta,
                                  face_measures=measures, error_estimate=err)


def schlafli_residual(fam: SimplexFamily, t: float, h: float = 1e-4,
                      tol: float = 1e-10) -> float:
    """(1-n) dVol/dt - sum_F Vol_{n-2}(F) dtheta_F/dt; near zero for a
    genuine C^1 family of polyhedra with finite face measures."""
    report = family_derivatives(fam, t, h, tol)
    n = fam(t).dim
    if len(report.face_measures) != len(report.dtheta):
        raise InfiniteFaceMeasureError(
            "family has n=3 edges of infinite length; use "
            "schlafli_residual_truncated_3d")
    if n == 2:
        # the 0-dimensional measure of a point is the counting measure
        total = sum(report.dtheta.values())
    else:
        total = sum(report.face_measures[f] * report.dtheta[f] for f in report.dtheta)
    return (1 - n) * report.dvol - total


def schlafli_residual_truncated_3d(fam: SimplexFamily, t: float, h: float = 1e-4,
                                   horoballs: Optional[HoroballAssignment] = None,
                                   tol: float = 1e-10) -> float:
    """dVol/dt + (1/2) sum_e l(e) dtheta_e/dt with horoball-truncated
    edge lengths; the value is independent of the horoball scales because
    the angle sum at each ideal vertex link is constant."""
    center = fam(t)
    if center.dim != 3:
        raise SimplexError("the truncated identity is 3-dimensional")
    if horoballs is None:
        horoballs = default_horoballs(center)
    report = family_derivatives(fam, t, h, tol)
    total = 0.0
    for face, dth in report.dtheta.items():
        edge = tuple(k for k in range(4) if k not in face)
        total += truncated_edge_length(center, edge, horoballs) * dth
    return report.dvol + 0.5 * total


def _match_face(simplex: GeodesicSimplex, face_points: Sequence[LorentzVector],
                tol: float = 1e-9) -> tuple[int, int]:
    """Find the omitted-index pair whose complementary vertices coincide
    with face_points (as a set, ideal representatives compared
    projectively)."""
    n = simplex.dim
    want = len(face_points)
    if want != n - 1:
        raise SimplexError(
            f"a codimension-2 face of an n={n} simplex has {n-1} vertices, got {want}")
    matched = []
    for v in simplex.vertices:
        hit = any(v.same_point(p, tol) for p in face_points)
        matched.append(hit)
    keep = [k for k, m in enumerate(matched) if m]
    if len(keep) != want:
        raise SimplexError("simplex does not contain the designated face at tolerance")
    omitted = tuple(k for k, m in enumerate(matched) if not m)
    return omitted  # type: ignore[return-value]


def transverse_degree(star: Sequence[tuple[GeodesicSimplex, int]],
                      face: Sequence[LorentzVector],
                      tol: float = 1e-6) -> int:
    """Integer winding of a star of signed simplices around a shared
    codimension-2 face: sum eps * theta(F, s) / 2pi, which must land on
    an integer within tol.

    The sign of the returned integer is only meaningful relative to a
    fixed orientation convention for the face; its integrality and its
    constancy along deformations are the invariant content.
    """
    total = 0.0
    for simplex, eps in star:
        if eps not in (-1, 1):
            raise SimplexError(f"sign must be +-1, got {eps}")
        omit = _match_face(simplex, face)
        total += eps * dihedral_angle(simplex, omit)
    k = total / (2 * np.pi)
    rounded = int(np.round(k))
    if abs(k - rounded) > tol:
        raise NonIntegralDegreeError(
            f"angle sum {total} is {k} turns, not within {tol} of an integer", k)
    return rounded


def vertex_degree_2d(star: Sequence[tuple[GeodesicSimplex, int]],
                     vertex: LorentzVector, tol: float = 1e-6) -> int:
    """transverse_degree for n=2, where the codimension-2 face is a
    single vertex; stars around an ideal vertex have angle sum zero."""
    for simplex, _ in star:
        if simplex.dim != 2:
            raise SimplexError("vertex degrees are 2-dimensional")
    if vertex.kind is Kind.IDEAL:
        # every angle at an ideal vertex vanishes
        return 0
    return transverse_degree(star, [vertex], tol)
