"""Representations into SO(n,1): relator checking, peripheral
classification, equivariant developing assignments, volumes of
representations and Toledo numbers, deformation paths with constancy
scans, and the two-tetrahedron gluing-equation solver."""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .lorentz import (
    EmptyFixedSetError,
    Isometry,
    IsometryClass,
    Kind,
    LorentzError,
    LorentzVector,
    _lift_stack,
    _project_ideal,
    _project_material,
    _reproject_drifted,
    classify_isometry,
    common_fixed_set,
    from_klein,
    lift_moebius,
    minkowski_gram_schmidt,
    minkowski_matrix,
    so_algebra_residual,
)
# perfbench/tracing.py wraps hypvol.repvol.signed_volume by name
from .simplex import (  # noqa: F401
    GeodesicSimplex,
    _stack_volumes,
    _VertexStack,
    signed_volume,
    tangent_angles,
)
from .triangulation import (
    CycleReport,
    LabeledTriangulation,
    TriangulationError,
    _perm_parity,
    check_cycle,
    peripheral_words,
)

__all__ = [
    "Representation",
    "RepvolError",
    "RelatorResidualError",
    "PeripheralClassificationError",
    "DegenerateDevelopingError",
    "PeripheralKind",
    "PeripheralClassification",
    "DevelopingAssignment",
    "DeformationPath",
    "PathScanReport",
    "GluingSolution",
    "check_representation",
    "evaluate_word",
    "classify_peripheral",
    "build_developing_assignment",
    "representation_volume",
    "toledo_number",
    "milnor_wood_margin",
    "generate_path",
    "scan_path",
    "solve_gluing_equations",
]

RELATOR_TOL = 1e-8
PATH_RELATOR_TOL = 1e-7


class RepvolError(ValueError):
    pass


class RelatorResidualError(RepvolError):
    def __init__(self, message, worst_relator, residual):
        super().__init__(message)
        self.worst_relator = worst_relator
        self.residual = residual


class PeripheralClassificationError(RepvolError):
    """The peripheral image has no detectable fixed point in the closed
    ball (class Neither): numerically broken input."""


class DegenerateDevelopingError(RepvolError):
    pass


def _coerce_image(M) -> Isometry:
    if isinstance(M, Isometry):
        return M
    A = np.asarray(M)
    if A.shape == (2, 2):
        return lift_moebius(A)
    return Isometry.from_matrix(np.asarray(A, dtype=float))


@dataclass(frozen=True)
class Representation:
    """Generator-indexed images in SO(n,1) with the worst relator
    residual recorded; construct through check_representation.  Word
    images are memoized per representation."""

    presentation: object
    images: Mapping[str, Isometry]
    relator_residual: float
    _word_images: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return next(iter(self.images.values())).n


def _word_matrix(mats: Mapping[str, np.ndarray], tokens, n: int) -> np.ndarray:
    """Image of a nonempty parsed word under generator matrices, each an
    (m, m) matrix or an (S, m, m) stack over samples: the raw product
    taken left to right, inverses as J A^T J, and one drift check (with
    reprojection where needed) for the whole word, not per product."""
    J = minkowski_matrix(n)
    out = None
    for g, e in tokens:
        A = mats[g] if e > 0 else J @ np.swapaxes(mats[g], -1, -2) @ J
        out = A if out is None else out @ A
    return out if len(tokens) == 1 else _reproject_drifted(out)


def evaluate_word(rep: Representation, word) -> Isometry:
    """Image of a word (a string or a sequence of (generator, +-1)
    tokens), computed once per representation; the product is
    re-projected onto the form-preserving manifold when its drift
    approaches the validation tolerance, checked once per word."""
    key = word if isinstance(word, str) else tuple((g, e) for g, e in word)
    out = rep._word_images.get(key)
    if out is not None:
        return out
    tokens = rep.presentation.parse(word) if isinstance(word, str) else key
    if not tokens:
        out = Isometry.identity(rep.n)
    elif len(tokens) == 1 and tokens[0][1] > 0:
        out = rep.images[tokens[0][0]]
    else:
        mats = {g: rep.images[g].matrix for g, _ in tokens}
        out = Isometry._trusted(_word_matrix(mats, tokens, rep.n))
    rep._word_images[key] = out
    return out


def _check_stack(presentation, images: Sequence[Mapping[str, Isometry]],
                 tol: float) -> list[Representation]:
    """check_representation for several generator-image maps of one
    dimension at once: each relator image is one product of (S, m, m)
    stacks, each sample's worst residual is checked in sample order, and
    each representation keeps its relator images memoized."""
    n = next(iter(images[0].values())).n
    mats = {g: np.stack([imgs[g].matrix for imgs in images]) for g in presentation.generators}
    relators = [(r, _word_matrix(mats, presentation.parse(r), n)) for r in presentation.relators]
    eye = np.eye(n + 1)
    resids = [np.abs(R - eye).max(axis=(-2, -1)).tolist() for _, R in relators]
    reps = []
    for k, imgs in enumerate(images):
        worst, worst_r = 0.0, None
        for (r, _), resid in zip(relators, resids):
            if resid[k] > worst:
                worst, worst_r = resid[k], r
        if worst > tol:
            raise RelatorResidualError(
                f"relator {worst_r!r} has residual {worst:.3e} > {tol}", worst_r, worst)
        rep = Representation(presentation, imgs, worst)
        for r, R in relators:
            rep._word_images[r] = Isometry._trusted(R[k])
        reps.append(rep)
    return reps


def check_representation(presentation, images, tol: float = RELATOR_TOL) -> Representation:
    """Validate generator images against the relators; accepts iff the
    worst relator residual (max-abs of rho(r) - I) is at most tol.  The
    relator images stay memoized on the representation returned.

    2x2 matrices are auto-lifted (complex ones act on H^3, real on H^2).
    """
    imgs = {}
    for g in presentation.generators:
        if g not in images:
            raise RepvolError(f"no image for generator {g!r}")
        imgs[g] = _coerce_image(images[g])
    dims = {im.n for im in imgs.values()}
    if len(dims) != 1:
        raise RepvolError(f"generator images of mixed dimension: {dims}")
    return _check_stack(presentation, [imgs], tol)[0]


class PeripheralKind(enum.Enum):
    COMPACT_FIX = "compact"
    PARABOLIC_FIX = "parabolic"
    BOTH = "both"


@dataclass(frozen=True)
class PeripheralClassification:
    cusp_id: str
    kind: PeripheralKind
    interior: Optional[LorentzVector]
    ideal: tuple[LorentzVector, ...]
    sphere: bool = False

    def fixed_point(self, preference: str = "prefer_ideal") -> LorentzVector:
        """The developing target for the cusp's cone point, breaking a
        Both tie by the stated preference."""
        if self.kind is PeripheralKind.COMPACT_FIX:
            return self.interior
        if self.kind is PeripheralKind.PARABOLIC_FIX:
            return self.ideal[0]
        if preference == "prefer_interior" or not self.ideal:
            return self.interior
        return self.ideal[0]


def classify_peripheral(rho: Representation, tri: LabeledTriangulation,
                        cusp_id: str, tol: float = 1e-8) -> PeripheralClassification:
    """Classify the image of a cusp's peripheral subgroup by its common
    fixed locus: a material fixed point means a maximal compact subgroup
    contains the image, an ideal one means a minimal parabolic does;
    both can hold at once.  No fixed point at tolerance is an error.
    """
    words = peripheral_words(tri, cusp_id)
    gens = [evaluate_word(rho, w) for w in words]
    try:
        fs = common_fixed_set(gens, tol)
    except EmptyFixedSetError as exc:
        raise PeripheralClassificationError(
            f"peripheral image of cusp {cusp_id!r} fixes nothing in the "
            f"closed ball at tol {tol}") from exc
    has_interior = fs.interior is not None
    has_ideal = bool(fs.ideal) or fs.sphere
    if has_interior and has_ideal:
        kind = PeripheralKind.BOTH
    elif has_interior:
        kind = PeripheralKind.COMPACT_FIX
    else:
        kind = PeripheralKind.PARABOLIC_FIX
    return PeripheralClassification(cusp_id, kind, fs.interior, fs.ideal, fs.sphere)


@dataclass(frozen=True)
class DevelopingAssignment:
    """Values of the equivariant map on orbit vertices: slot (v, w)
    develops to rho(w) applied to points[v].  `stack` holds the vertex
    rows, determinants and degeneracy scales of the triangulation's
    simplices developed once, in its order, as one _VertexStack (built
    from `slots`, each simplex's slots, and `vertices`, the developed
    point of each distinct slot)."""

    points: Mapping[str, LorentzVector]
    seed: int
    classifications: Mapping[str, PeripheralClassification]
    stack: _VertexStack = field(compare=False, repr=False)
    slots: tuple = field(compare=False, repr=False)
    vertices: Mapping[tuple, LorentzVector] = field(compare=False, repr=False)

    def develop(self, rho: Representation, vid: str, word) -> LorentzVector:
        return evaluate_word(rho, word).apply(self.points[vid])

    @functools.cached_property
    def simplices(self) -> tuple[GeodesicSimplex, ...]:
        """The developed simplices, built on first use; each one's stack
        of one is its slice of the assignment's stack."""
        return tuple(GeodesicSimplex._stacked([self.vertices[slot] for slot in slots],
                                              self.stack[i:i + 1])
                     for i, slots in enumerate(self.slots))


def _check_preference(boundary_preference: str) -> None:
    if boundary_preference not in ("prefer_ideal", "prefer_interior"):
        raise RepvolError(f"unknown boundary preference {boundary_preference!r}")


def _develop_points(tri: LabeledTriangulation, points: Mapping[str, Sequence[LorentzVector]],
                    word_matrix: Callable[[str], np.ndarray]) -> tuple[dict, _VertexStack]:
    """The developed points of S samples at once, an (S, m) array per
    distinct slot (v, w) of the triangulation, and the (S, N) _VertexStack
    of its N labeled simplices: points[v] holds the S values of orbit
    vertex v, word_matrix(w) the (S, m, m) images of w.  Each slot is
    developed once, as Isometry.apply would develop it, and scaled to
    x_0 = 1 once; each simplex gathers its rows by slot index."""
    developed = {}
    for s in tri.simplices:
        for slot in s.slots:
            if slot not in developed:
                v, w = slot
                X = np.stack([x.coords for x in points[v]])
                Y = (word_matrix(w) @ X[:, :, None])[:, :, 0]
                developed[slot] = np.stack([
                    _project_ideal(y) if x.kind is Kind.IDEAL else _project_material(y)
                    for x, y in zip(points[v], Y)])
    slots = list(developed)
    index = {slot: k for k, slot in enumerate(slots)}
    gather = [[index[slot] for slot in s.slots] for s in tri.simplices]
    points_x0 = np.stack([developed[slot] / developed[slot][:, :1] for slot in slots], axis=1)
    ideal = np.array([[x.kind is Kind.IDEAL for x in points[v]] for v, _ in slots]).T
    rows = points_x0[:, gather]
    rows.setflags(write=False)
    return developed, _VertexStack.of(rows, ideal[:, gather])


def _assignment(tri: LabeledTriangulation, points, seed: int, classes, developed: Mapping,
                stack: _VertexStack) -> DevelopingAssignment:
    """The DevelopingAssignment of the developing values `points` from
    their one-sample developing (`developed`, `stack`)."""
    vertices = {(v, w): LorentzVector._trusted(y[0], points[v].kind)
                for (v, w), y in developed.items()}
    return DevelopingAssignment(points, seed, classes, stack[0],
                                tuple(s.slots for s in tri.simplices), vertices)


def _develop(rho: Representation, tri: LabeledTriangulation, points, seed: int,
             classes) -> DevelopingAssignment:
    """The assignment of the given developing values `points`, as they
    are, with every simplex of `tri` developed."""
    developed, stack = _develop_points(tri, {v: [x] for v, x in points.items()},
                                       lambda w: evaluate_word(rho, w).matrix[None])
    return _assignment(tri, points, seed, classes, developed, stack)


def _point_sampler(seed: int, n: int) -> Callable[[], LorentzVector]:
    """Draws of material developing values from a generator seeded with
    `seed`: uniform in Klein coordinates within unit hyperbolic radius of
    the origin."""
    rng = np.random.default_rng(seed)
    klein_radius = np.tanh(1.0)

    def sample_point():
        while True:
            k = rng.uniform(-klein_radius, klein_radius, size=n)
            if np.linalg.norm(k) < klein_radius:
                return from_klein(k)

    return sample_point


def _develop_samples(reps: Sequence[Representation], tri: LabeledTriangulation, seed: int,
                     boundary_preference: str, max_retries: int = 200, max_restarts: int = 20):
    """Developing values for S representations of one presentation, each
    as if chosen on its own, over a leading sample axis: word images are
    (S, m, m) products, and every sample is developed in one
    _develop_points pass.

    Cusp cone points go to fixed points of the peripheral images (the
    classification stays per sample, on the stacked word images).  Each
    sample draws its material values from its own _point_sampler(seed, n)
    and is redeveloped, alone among the samples, until none of its
    simplices is degenerate (_VertexStack.degenerate, the predicate that
    zeroes volumes): a retry redraws the material vertices of its
    degenerate simplices in orbit-vertex order, and after max_retries
    retries a restart redraws them all.

    Returns (classes, points, developed, stack, word_matrix): per sample
    {cusp id: PeripheralClassification}, the S values of each orbit
    vertex, the (S, m) developed points of each slot, their (S, N)
    _VertexStack, and the function giving a word's (S, m, m) images."""
    _check_preference(boundary_preference)
    pres, n, count = reps[0].presentation, reps[0].n, len(reps)
    mats = {g: np.stack([rep.images[g].matrix for rep in reps]) for g in pres.generators}
    words: dict = {}

    def word_matrix(word: str) -> np.ndarray:
        W = words.get(word)
        if W is None:
            tokens = pres.parse(word)
            W = words[word] = (_word_matrix(mats, tokens, n) if tokens else
                               np.broadcast_to(np.eye(n + 1), (count, n + 1, n + 1)))
        return W

    for c in tri.cusps:
        for w in peripheral_words(tri, c.id):
            for rep, A in zip(reps, word_matrix(w)):
                rep._word_images.setdefault(w, Isometry._trusted(A))
    classes = [{c.id: classify_peripheral(rep, tri, c.id) for c in tri.cusps} for rep in reps]

    points = {v.id: [cl[v.cusp].fixed_point(boundary_preference) for cl in classes]
              for v in tri.orbit_vertices if v.kind == "ideal"}
    material = [v.id for v in tri.orbit_vertices if v.kind != "ideal"]
    draws = [_point_sampler(seed, n) for _ in reps] if material else []
    for vid in material:
        points[vid] = [draw() for draw in draws]
    retries, restarts = [0] * count, [0] * count

    def resample(samples: Sequence[int], stack: _VertexStack) -> list[int]:
        # the samples with a degenerate simplex, their material vertices redrawn
        again = []
        for k, bad in zip(samples, stack.degenerate.tolist()):
            if not any(bad):
                continue
            in_bad = {v for s, b in zip(tri.simplices, bad) if b for v, _ in s.slots}
            redraw = [vid for vid in material if vid in in_bad]
            retries[k] += 1
            if redraw and retries[k] >= max_retries:
                retries[k], restarts[k], redraw = 0, restarts[k] + 1, material
            # with nothing to redraw, the degeneracy is intrinsic
            if not redraw or restarts[k] >= max_restarts:
                raise DegenerateDevelopingError(
                    "could not reach a nondegenerate developing assignment within the "
                    "retry budget; the representation may collapse every simplex "
                    "(its volume is then 0 in tolerant mode)")
            for vid in redraw:
                points[vid][k] = draws[k]()
            again.append(k)
        return again

    developed, stack = _develop_points(tri, points, word_matrix)
    todo = resample(range(count), stack)
    if todo:
        while todo:
            part = {v: [xs[k] for k in todo] for v, xs in points.items()}
            todo = resample(todo, _develop_points(
                tri, part, lambda w: word_matrix(w)[todo])[1])
        developed, stack = _develop_points(tri, points, word_matrix)
    return classes, points, developed, stack, word_matrix


def build_developing_assignment(rho: Representation, tri: LabeledTriangulation,
                                seed: int = 0,
                                boundary_preference: str = "prefer_ideal",
                                max_retries: int = 200,
                                max_restarts: int = 20) -> DevelopingAssignment:
    """Choose developing values: cusp cone points go to fixed points of
    the peripheral images, material orbit vertices are sampled in the
    unit-radius ball around the origin (uniform in Klein coordinates)
    and rejection-resampled until no developed simplex is degenerate;
    _develop_samples with one sample."""
    classes, points, developed, stack, _ = _develop_samples(
        [rho], tri, seed, boundary_preference, max_retries, max_restarts)
    return _assignment(tri, {v: xs[0] for v, xs in points.items()}, seed, classes[0],
                       developed, stack)


# max-abs distance between x_0 = 1 rows at which a paired point meets its target
_CYCLE_TOL = 1e-6


def _max_abs_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., k, l) max-abs distances between the rows of stacks a
    (..., k, m) and b (..., l, m)."""
    return np.abs(a[..., :, None, :] - b[..., None, :, :]).max(axis=-1)


def _developed_cycles(stack: _VertexStack, tri: LabeledTriangulation,
                      word_matrix: Callable[[str], np.ndarray]) -> list[CycleReport]:
    """Relaxed cycle check of a triangulation with face pairings, for S
    developings at once: stack (S, N) holds the N developed simplices of
    each sample, and word_matrix gives the (S, m, m) images of a pairing
    word.  Each pairing word must carry the developed points of the
    source face onto those of the target face with canceling
    orientation.  Degenerate simplices (_VertexStack.degenerate) are
    degenerate chains and drop out, matching the degenerate-tolerant
    volume convention."""
    rows = stack.rows
    v = rows.shape[-2]
    apart = (~stack.degenerate).tolist()
    close = []  # per pairing: (S, m - 1, m - 1) lists, moved source against target points
    for p in tri.pairings:
        moved = np.delete(rows[:, p.src] @ np.swapaxes(word_matrix(p.word), -1, -2),
                          p.src_face, axis=-2)
        dst_pts = np.delete(rows[:, p.dst], p.dst_face, axis=-2)
        close.append((_max_abs_distances(moved / moved[..., :1], dst_pts) <= _CYCLE_TOL).tolist())
    return [_matched_pairings(tri, v, apart_k, [c[k] for c in close])
            for k, apart_k in enumerate(apart)]


def _matched_pairings(tri: LabeledTriangulation, v: int, apart: Sequence[bool],
                      close: Sequence) -> CycleReport:
    """The cycle report of one developing of simplices with v vertices,
    from whether each simplex has distinct developed points and, per
    pairing, which moved source point meets which target point."""
    need = {(i, f) for i, ok in enumerate(apart) if ok for f in range(v)}
    used = set()
    failures = []
    for p, hits_by_point in zip(tri.pairings, close):
        src_key, dst_key = (p.src, p.src_face), (p.dst, p.dst_face)
        if src_key not in need or dst_key not in need:
            continue  # pairing on a degenerate simplex: nothing to cancel
        if src_key in used or dst_key in used:
            failures.append(f"face reused by pairing {p}")
            continue
        perm = []  # target point index of each moved source point
        for hits in hits_by_point:
            hit = next((j for j, ok in enumerate(hits) if ok and j not in perm), None)
            if hit is None:
                break
            perm.append(hit)
        if len(perm) < len(hits_by_point):
            failures.append(f"pairing {p}: word does not carry the source "
                            "face onto the target face at tolerance")
            continue
        c_src = tri.simplices[p.src].sign * (-1) ** p.src_face
        c_dst = tri.simplices[p.dst].sign * (-1) ** p.dst_face
        if c_src + c_dst * _perm_parity(perm) != 0:
            failures.append(f"pairing {p}: orientations do not cancel")
            continue
        used.add(src_key)
        used.add(dst_key)
    unmatched = tuple(
        {"face": tri.simplices[i].slots[:f] + tri.simplices[i].slots[f + 1:],
         "coefficient": tri.simplices[i].sign * (-1) ** f,
         "from_simplex": (tri.simplices[i].slots, f)}
        for i, f in sorted(need - used)) + tuple(
        {"face": (), "coefficient": 0, "from_simplex": msg} for msg in failures)
    return CycleReport(is_cycle=not unmatched, unmatched=unmatched)


def _validate_cycle(rho: Representation, tri: LabeledTriangulation,
                    assignment: DevelopingAssignment):
    """Raise unless the triangulation is a cycle on the assignment's
    developed simplices (_require_cycles)."""
    if len(assignment.slots) != len(tri.simplices):
        raise RepvolError(
            f"the assignment develops {len(assignment.slots)} simplices, "
            f"the triangulation has {len(tri.simplices)}")
    _require_cycles(tri, assignment.stack[None],
                    lambda w: evaluate_word(rho, w).matrix[None])


def _require_cycles(tri: LabeledTriangulation, stack: _VertexStack,
                    word_matrix: Callable[[str], np.ndarray]) -> None:
    """Raise unless the triangulation is a cycle in each of S developings
    (stack and word_matrix as for _developed_cycles): through its face
    pairings on the developed simplices when it has them, by check_cycle
    otherwise."""
    reports = ([check_cycle(tri)] if tri.pairings is None
               else _developed_cycles(stack, tri, word_matrix))
    for report in reports:
        if not report.is_cycle:
            raise TriangulationError(
                f"triangulation is not a cycle: {len(report.unmatched)} unmatched faces")


def representation_volume(rho: Representation, tri: LabeledTriangulation,
                          assignment: DevelopingAssignment,
                          tol: float = 1e-9) -> float:
    """Sum of signed volumes of the developed simplices weighted by
    their cycle signs; degenerate developed simplices contribute zero.

    The volumes come from one _stack_volumes call on the assignment's
    stack: its determinants and degeneracy scales, closed forms
    evaluated together, and every simplex that needs cubature in one
    batched build_rules ladder.  The value does not depend on the seed
    or fixed-point choices of the assignment (tested, not assumed).
    """
    _validate_cycle(rho, tri, assignment)
    return _signed_sum(tri, _stack_volumes(assignment.stack, tol).tolist())


def _signed_sum(tri: LabeledTriangulation, vols: Sequence[float]) -> float:
    """The simplices' volumes weighted by their cycle signs, summed in
    simplex order."""
    total = 0.0
    for s, vol in zip(tri.simplices, vols):
        total += s.sign * vol
    return total


def toledo_number(rho: Representation, tri: LabeledTriangulation,
                  assignment: DevelopingAssignment) -> float:
    """The 2-dimensional volume of a representation, computed through
    the angle-sum area formula (pi minus the interior angles, measured
    between side tangents by tangent_angles) rather than through
    signed_volume, whose angles come from facet normals; both formulas
    give one number."""
    if tri.dim != 2:
        raise RepvolError("Toledo numbers are 2-dimensional")
    _validate_cycle(rho, tri, assignment)
    stack = assignment.stack
    total = 0.0
    for s, dev, degenerate, det in zip(tri.simplices, assignment.simplices,
                                       stack.degenerate.tolist(), stack.dets.tolist()):
        if degenerate:
            continue
        eps = 1.0 if det > 0 else -1.0
        angle_sum = float(tangent_angles(dev, [0, 1, 2], [1, 0, 0], [2, 2, 1]).sum())
        total += s.sign * eps * (np.pi - angle_sum)
    return total


def milnor_wood_margin(vol: float, reference_vol: float) -> float:
    """reference_vol - |vol|; nonnegative (up to tolerance) for genuine
    representations, near zero exactly for maximal ones."""
    if reference_vol <= 0:
        raise RepvolError("reference volume must be positive")
    return float(reference_vol - abs(vol))


@dataclass
class DeformationPath:
    """C^1 family t in [0,1] -> Representation.  A path kind that can
    evaluate several parameters together more cheaply than one at a
    time supplies `_eval_many`."""

    kind: str
    base: Representation
    _eval: Callable[[float], Representation]
    meta: dict = field(default_factory=dict)
    _eval_many: Optional[Callable[[list], list]] = None

    def evaluate(self, t: float) -> Representation:
        return self._eval(float(t))

    def evaluate_many(self, ts: Sequence[float]) -> list[Representation]:
        """[evaluate(t) for t in ts], with the same representations."""
        if self._eval_many is None:
            return [self.evaluate(t) for t in ts]
        return self._eval_many([float(t) for t in ts])


def _conjugation_path(base: Representation, direction: np.ndarray) -> DeformationPath:
    X = np.asarray(direction, dtype=float)
    n = base.n
    if X.shape != (n + 1, n + 1):
        raise RepvolError(f"direction must be {(n+1, n+1)}, got {X.shape}")
    if so_algebra_residual(X) > 1e-10:
        raise RepvolError("direction is not in so(n,1): X^T J + J X != 0")

    from scipy.linalg import expm

    def ev(t: float) -> Representation:
        g = Isometry.from_matrix(expm(t * X))
        gi = g.inverse()
        images = {k: g @ im @ gi for k, im in base.images.items()}
        return check_representation(base.presentation, images, tol=PATH_RELATOR_TOL)

    return DeformationPath("conjugation", base, ev, {"direction": X})


class TwistEllipticBoundaryError(RepvolError):
    pass


def _twist2d_path(base: Representation, generator: str,
                  direction, boundary_words: Sequence[str]) -> DeformationPath:
    if base.n != 2:
        raise RepvolError("twist paths live on H^2 representations")
    if generator not in base.images:
        raise RepvolError(f"unknown generator {generator!r}")
    from scipy.linalg import expm, logm

    if isinstance(direction, str):
        Y = np.real(logm(evaluate_word(base, direction).matrix))
    else:
        Y = np.asarray(direction, dtype=float)
    if so_algebra_residual(Y) > 1e-8:
        raise RepvolError("twist direction is not in so(2,1)")

    def ev(t: float) -> Representation:
        g = Isometry.from_matrix(expm(t * Y))
        images = dict(base.images)
        images[generator] = images[generator] @ g
        rep = check_representation(base.presentation, images, tol=PATH_RELATOR_TOL)
        for w in boundary_words:
            iso = evaluate_word(rep, w)
            try:
                cls = classify_isometry(iso)
            except LorentzError:
                continue  # boundary element on a classification boundary: not elliptic
            if cls.kind is IsometryClass.ELLIPTIC:
                raise TwistEllipticBoundaryError(
                    f"boundary word {w!r} became elliptic at t={t}")
        return rep

    return DeformationPath("twist2d", base, ev,
                           {"generator": generator, "boundary_words": tuple(boundary_words)})


def _keyframes_path(presentation, times: Sequence[float],
                    keyframes: Sequence[Mapping[str, np.ndarray]]) -> DeformationPath:
    from scipy.interpolate import CubicSpline

    times = np.asarray(times, dtype=float)
    if len(keyframes) < 2 or len(keyframes) != len(times):
        raise RepvolError("a keyframes path needs one keyframe per time, at least two")
    gens = list(keyframes[0])
    reps = [check_representation(presentation, imgs) for imgs in keyframes]
    data = {g: np.array([r.images[g].matrix for r in reps]) for g in gens}
    splines = {g: CubicSpline(times, data[g], axis=0) for g in gens}

    def ev(t: float) -> Representation:
        images = {g: Isometry(minkowski_gram_schmidt(splines[g](t))) for g in gens}
        return check_representation(presentation, images, tol=PATH_RELATOR_TOL)

    return DeformationPath("keyframes", reps[0], ev, {"times": times})


def generate_path(kind: str, params: Mapping) -> DeformationPath:
    """Build a deformation path.

    kinds: "conjugation" (base, direction: so(n,1) matrix),
    "twist2d" (base, generator, direction: so(2,1) matrix or a word whose
    image's logarithm is used, boundary_words guarded non-elliptic),
    "keyframes" (presentation, times, keyframes), and "dehn3d"
    (triangulation with gluing data, filling (p, q), samples) which pulls
    shapes along a filling-coefficient segment from the complete
    structure and reconstitutes the holonomy per sample.
    """
    if kind == "conjugation":
        return _conjugation_path(params["base"], params["direction"])
    if kind == "twist2d":
        return _twist2d_path(params["base"], params["generator"],
                             params["direction"], params.get("boundary_words", ()))
    if kind == "keyframes":
        return _keyframes_path(params["presentation"], params["times"],
                               params["keyframes"])
    if kind == "dehn3d":
        return _dehn3d_path(params["triangulation"], params["filling"],
                            params.get("steps", 24))
    raise RepvolError(f"unknown path kind {kind!r}")


@dataclass(frozen=True)
class PathScanReport:
    samples: tuple  # (t, volume, {cusp: PeripheralKind})
    verdict: str    # "Constant" | "NonConstant"
    max_deviation: float
    milnor_wood_margin_min: Optional[float]
    tolerance: float


def scan_path(path: DeformationPath, tri: LabeledTriangulation, n_samples: int,
              tol: Optional[float] = None, reference_vol: Optional[float] = None,
              seed: int = 0, boundary_preference: Optional[str] = None) -> PathScanReport:
    """Evaluate Vol(rho_t) at uniform samples (one shared seed for the
    developing assignments), record the per-cusp classification at every
    sample, and report the constancy verdict at a scale-aware tolerance
    (default 1e-6 * (1 + |Vol(rho_0)|)).

    When a cusp classifies as Both at some sample, its developing target
    is broken by boundary_preference; the default prefers the ideal
    fixed point on paths built to stay boundary-parabolic (twist and
    Dehn continuation) and the interior one otherwise.  The volume does
    not depend on the choice; the per-sample classifications let a
    caller spot crossings.

    The representations come from one path.evaluate_many call.  They are
    developed together (_develop_samples, with the developing retries of
    build_developing_assignment per sample), cycle-checked in one
    _developed_cycles pass and measured in one _stack_volumes call, so
    each sample gets the volume build_developing_assignment and
    representation_volume give it.  A failing check raises at its stage,
    so when several samples fail, the error of the earliest stage is
    raised.
    """
    if n_samples < 3:
        raise RepvolError("need at least 3 samples")
    if boundary_preference is None:
        boundary_preference = ("prefer_ideal" if path.kind in ("twist2d", "dehn3d")
                               else "prefer_interior")
    ts = np.linspace(0.0, 1.0, n_samples)
    classes, _, _, stack, word_matrix = _develop_samples(
        path.evaluate_many(ts), tri, seed, boundary_preference)
    _require_cycles(tri, stack, word_matrix)
    samples = []
    vols = []
    margin_min = None
    for t, row, cl in zip(ts, _stack_volumes(stack).tolist(), classes):
        vol = _signed_sum(tri, row)
        samples.append((float(t), vol, {c: k.kind.value for c, k in cl.items()}))
        vols.append(vol)
        if reference_vol is not None:
            m = milnor_wood_margin(vol, reference_vol)
            margin_min = m if margin_min is None else min(margin_min, m)
    vols = np.asarray(vols)
    if tol is None:
        tol = 1e-6 * (1.0 + abs(vols[0]))
    dev = float(np.max(np.abs(vols - vols[0])))
    verdict = "Constant" if dev <= tol else "NonConstant"
    return PathScanReport(tuple(samples), verdict, dev, margin_min, tol)


# --- gluing equations (two-ideal-tetrahedron fixtures) -----------------

@dataclass(frozen=True)
class GluingSolution:
    shapes: tuple[complex, ...]
    representation: Representation
    residual: float
    log_holonomies: tuple[complex, complex]  # (meridian, longitude)


class GluingError(RepvolError):
    pass


def _mobius_three_point(src, dst) -> np.ndarray:
    """SL(2,C) matrix sending the three source points (None = infinity)
    to the three targets."""

    def to_quad(p):
        # projective coordinates
        return (1.0 + 0j, 0.0 + 0j) if p is None else (complex(p), 1.0 + 0j)

    def std_map(z):
        # sends z1,z2,z3 -> 0, 1, infinity
        (a1, b1), (a2, b2), (a3, b3) = [to_quad(p) for p in z]
        m = np.array([
            [(a2 * b3 - a3 * b2) * b1, -(a2 * b3 - a3 * b2) * a1],
            [(a2 * b1 - a1 * b2) * b3, -(a2 * b1 - a1 * b2) * a3],
        ], dtype=complex)
        return m

    m1 = std_map(src)
    m2 = std_map(dst)
    out = np.linalg.inv(m2) @ m1
    det = out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]
    return out / np.sqrt(det)


def _fig8_generators(z1: complex, z2: complex):
    """SL(2,C) images of the two generators reconstructed from the
    developed cells (infinity, 0, 1, z1) and (infinity, 0, 1, 1/z2)
    through the fixture's face pairings; both shape parameters live in
    the upper half plane and the apex positions are holomorphic in
    them."""
    u = z1
    v = 1.0 / z2
    m2 = _mobius_three_point([None, 1.0 + 0j, u], [v, 0j, None])
    m3 = _mobius_three_point([None, 0j, u], [v, 0j, 1.0 + 0j])
    b = np.linalg.inv(m3)
    a = np.linalg.inv(m2) @ m3
    return a, b


# Logarithmic gluing equations of the shipped two-cell complex: integer
# exponent rows over (log z1, log(1-z1), log z2, log(1-z2)) plus a
# constant, all logarithms principal (they are analytic on the upper half
# plane, where both shapes stay).
#   edge       2 log z1 - log(1-z1) - log z2 + 2 log(1-z2) = 0: the first
#              edge class, derived from the face pairings (the first cell
#              contributes its edges (inf 0), (inf 1), (1 u), the reversed
#              second cell its edges (inf 0), (inf 1), (v 0), which sum to
#              2 pi i with 2 log(z2-1) = 2 log(1-z2) + 2 pi i); the second
#              edge class is complementary
#   meridian   u = log mu^2 with mu^2 = (1-z1) z2 / (z1 (1-z2)) identically
#   longitude  v = log lambda^2 with lambda^2 = z1^4 / (1-z1)^2 on the edge
#              variety
# mu and lambda are the (0,0) entries, that is the eigenvalues, of the
# images of the meridian "a" and the longitude "b a B A A B a b" under
# _fig8_generators, which fix infinity; squaring removes the sign of the
# SL(2,C) lift.  u and v vanish at the complete structure.
_FIG8_LOG_ROWS = np.array([[2, -1, -1, 2],
                           [-1, 1, 1, -1],
                           [4, -2, 0, 0]])
_FIG8_LOG_CONST = np.array([0.0, 0.0, -2j * np.pi])
# the same rows and constants as Python numbers, for scalar evaluation
_FIG8_ROW_TERMS = tuple(zip(_FIG8_LOG_ROWS.tolist(), _FIG8_LOG_CONST.tolist()))


def _fig8_log_equations(z1: complex, z2: complex):
    """(edge, u, v) at the shapes, and their Jacobian in (z1, z2): the
    rows times diag(1/z1, -1/(1-z1), 1/z2, -1/(1-z2)), folded onto the
    two shapes.  Evaluated in scalar complex arithmetic and returned as a
    length-3 array and a (3, 2) array."""
    w = (z1, 1.0 - z1, z2, 1.0 - z2)
    l1, l2, l3, l4 = (cmath.log(x) for x in w)
    d1, d2, d3, d4 = 1.0 / w[0], -1.0 / w[1], 1.0 / w[2], -1.0 / w[3]
    vals = [a * l1 + b * l2 + c * l3 + d * l4 + k for (a, b, c, d), k in _FIG8_ROW_TERMS]
    jac = [(a * d1 + b * d2, c * d3 + d * d4) for (a, b, c, d), _ in _FIG8_ROW_TERMS]
    return np.array(vals), np.array(jac)


def _branch(h: complex, ref: complex) -> complex:
    """h moved by a multiple of 2 pi i to the branch nearest ref."""
    return h + 2j * math.pi * round((ref - h).imag / (2 * math.pi))


def _solve_shapes(x0: Sequence[complex], target, tol: float, max_iter: int, logs):
    """Damped Newton on the edge equation plus one cusp equation, with
    the analytic Jacobian of the logarithmic equations, in scalar complex
    arithmetic: the 2x2 step is solved by Cramer's rule, and a zero
    determinant is a singular system.

    target None cuts the complete structure by mu^2 = exp(u) = 1; a
    triple (p, q, w) asks for p*u + q*v = w on the log holonomies, which
    are branch-tracked against `logs` (then against each accepted
    iterate) when `logs` is given.  A step is taken only if it keeps
    both shapes in the upper half plane and strictly decreases the
    max-abs residual, halving it down to 1e-4.  Returns (shapes,
    residual, (u, v)) at the first iterate with max-abs residual at most
    tol."""

    def system(z1, z2):
        vals, jac = _fig8_log_equations(z1, z2)
        e, u, v = vals.tolist()
        (e1, e2), (u1, u2), (v1, v2) = jac.tolist()
        if logs is not None:
            u, v = _branch(u, logs[0]), _branch(v, logs[1])
        if target is None:
            mu2 = cmath.exp(u)
            res, row = mu2 - 1.0, (mu2 * u1, mu2 * u2)
        else:
            p, q, w = target
            res, row = p * u + q * v - w, (p * u1 + q * v1, p * u2 + q * v2)
        return (e, res), ((e1, e2), row), (u, v)

    def size(res) -> float:
        return max(abs(res[0]), abs(res[1]))

    z1, z2 = (complex(z) for z in x0)
    res, jac, hol = system(z1, z2)
    for _ in range(max_iter):
        if size(res) <= tol:
            break
        ((a, b), (c, d)), (r1, r2) = jac, res
        det = a * d - b * c
        if det == 0:
            raise GluingError("singular Newton system")
        s1, s2 = (b * r2 - d * r1) / det, (c * r1 - a * r2) / det
        damp = 1.0
        while damp > 1e-4:
            n1, n2 = z1 + damp * s1, z2 + damp * s2
            if n1.imag > 0 and n2.imag > 0:
                rn, jn, hol_n = system(n1, n2)
                if size(rn) < size(res):
                    z1, z2, res, jac, hol = n1, n2, rn, jn, hol_n
                    if logs is not None:
                        logs = hol
                    break
            damp *= 0.5
        else:
            raise GluingError(
                f"Newton stalled at shapes {np.array([z1, z2])}: residual {size(res):.3e}")
    if size(res) > tol:
        raise GluingError(
            f"Newton did not reach tol {tol}: residual {size(res):.3e}")
    return (z1, z2), size(res), hol


def _gluing_solutions(tri: LabeledTriangulation, solved) -> list[GluingSolution]:
    """Reconstruct the generators from each solved (shapes, residual,
    log holonomies) and relator-check the representations, with the
    lifts and the relator products stacked over the solutions."""
    gens = [_fig8_generators(*shapes) for shapes, _, _ in solved]
    a, b = (_lift_stack(np.array([g[i] for g in gens])) for i in (0, 1))
    images = [{"a": Isometry._trusted(x), "b": Isometry._trusted(y)} for x, y in zip(a, b)]
    reps = _check_stack(tri.presentation, images, RELATOR_TOL)
    return [GluingSolution(shapes, rep, residual, logs)
            for (shapes, residual, logs), rep in zip(solved, reps)]


def solve_gluing_equations(tri: LabeledTriangulation, filling,
                           init_shapes: Sequence[complex],
                           tol: float = 1e-11, max_iter: int = 60) -> GluingSolution:
    """Newton-solve the fixture's gluing equations.

    filling is "complete" or a pair (p, q).  Filled structures satisfy
    p*u + q*v = 2 pi i on the logarithmic meridian/longitude holonomies
    u, v, which are integer combinations of logarithms of the shapes
    (analytic on the upper half plane, zero at the complete structure);
    the complete structure is cut instead by the squared meridian
    eigenvalue exp(u) equalling 1.  Shapes must start in the upper half
    plane and are rejected if Newton leaves it.

    Newton has no global convergence guarantee: a filled solve from
    shapes far from the solution may stop with a GluingError.
    Continuation from the complete structure, generate_path("dehn3d",
    ...) or `hypvol path scan` on a dehn3d path spec, follows the
    cone-manifold deformation to the filling.

    Returns shape parameters (upper-half-plane for both cells), the
    reconstructed representation, the final residual and the log
    holonomies (zero up to the residual for the complete structure).
    """
    if tri.gluing is None or tri.gluing.get("recipe") != "two_tet_once_cusped":
        raise GluingError("triangulation carries no supported gluing data")
    z1, z2 = [complex(z) for z in init_shapes]
    if z1.imag <= 0 or z2.imag <= 0:
        raise GluingError("initial shapes must lie in the upper half plane")
    if isinstance(filling, str):
        if filling.lower() != "complete":
            raise GluingError(f"unknown filling spec {filling!r}")
        target = None
    else:
        p, q = filling
        target = (float(p), float(q), 2j * np.pi)
    return _gluing_solutions(tri, [_solve_shapes((z1, z2), target, tol, max_iter, None)])[0]


def _dehn3d_path(tri: LabeledTriangulation, filling, steps: int) -> DeformationPath:
    """Continuation from the complete structure toward the (p, q) Dehn
    filling: at parameter t the cusp equation is p*u + q*v = t * 2 pi i.

    Every continuation step's (shapes, residual, log holonomies) is
    kept; a relator-checked GluingSolution is built only for the
    parameters asked for.  evaluate_many walks the continuation through
    its parameters in order once and builds their solutions in one
    stacked lift and relator check."""
    if steps < 1:
        raise RepvolError(f"a dehn3d path needs at least one step, not {steps}")
    p, q = filling
    omega = complex(np.cos(np.pi / 3), np.sin(np.pi / 3))
    base_sol = solve_gluing_equations(tri, "complete", (omega, omega))
    walked = {0.0: (base_sol.shapes, base_sol.residual, base_sol.log_holonomies)}
    solutions = {0.0: base_sol}

    def walk(t: float):
        # walk from the last step at or below t, tracking branches
        s = max(k for k in walked if k <= t + 1e-12)
        state = walked[s]
        while s < t - 1e-12:
            s = min(t, s + 1.0 / steps)
            state = walked[s] = _solve_shapes(
                state[0], (p, q, s * 2j * np.pi), 1e-11, 60, state[2])
        return state

    def solve_many(ts: Sequence[float]) -> list[GluingSolution]:
        # walk in the order asked, then build the new solutions together
        pending = {}
        for t in ts:
            if t not in solutions and t not in pending:
                pending[t] = walk(t)
        if pending:
            solutions.update(zip(pending, _gluing_solutions(tri, list(pending.values()))))
        return [solutions[t] for t in ts]

    def solve_at(t: float) -> GluingSolution:
        return solve_many([t])[0]

    def ev(t: float) -> Representation:
        return solve_at(float(t)).representation

    def ev_many(ts: list) -> list:
        return [sol.representation for sol in solve_many(ts)]

    return DeformationPath("dehn3d", base_sol.representation, ev,
                           {"filling": (p, q), "solver": solve_at}, ev_many)
