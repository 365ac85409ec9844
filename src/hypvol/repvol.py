"""Representations into SO(n,1): relator checking, peripheral
classification, equivariant developing assignments, volumes of
representations and Toledo numbers, deformation paths with constancy
scans, and the two-tetrahedron gluing-equation solver."""

from __future__ import annotations

import cmath
import enum
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
    _fixed_sets,
    _lift_stack,
    _project_ideal,
    _project_material,
    _reproject_drifted,
    _rowdot,
    classify_isometry,
    lift_moebius,
    minkowski_gram_schmidt,
    minkowski_matrix,
    so_algebra_residual,
)
# perfbench/tracing.py wraps hypvol.repvol.signed_volume by name
from .simplex import (  # noqa: F401
    _check_keyframe_time,
    _keyframe_times,
    _stack_dihedral_angles,
    _stack_volumes,
    _VertexStack,
    signed_volume,
)
from .triangulation import (
    LabeledTriangulation,
    TriangulationError,
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
    residual recorded; construct through check_representation."""

    presentation: object
    images: Mapping[str, Isometry]
    relator_residual: float

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
    tokens); the product is re-projected onto the form-preserving
    manifold when its drift approaches the validation tolerance, checked
    once per word."""
    tokens = (rep.presentation.parse(word) if isinstance(word, str)
              else tuple((g, e) for g, e in word))
    if not tokens:
        return Isometry.identity(rep.n)
    if len(tokens) == 1 and tokens[0][1] > 0:
        return rep.images[tokens[0][0]]
    mats = {g: rep.images[g].matrix for g, _ in tokens}
    return Isometry._trusted(_word_matrix(mats, tokens, rep.n))


def _check_stack(presentation, images: Sequence[Mapping[str, Isometry]],
                 tol: float) -> list[Representation]:
    """check_representation for several generator-image maps of one
    dimension at once: each relator image is one product of (S, m, m)
    stacks and each sample's worst residual is checked in sample order."""
    n = next(iter(images[0].values())).n
    mats = {g: np.stack([imgs[g].matrix for imgs in images]) for g in presentation.generators}
    eye = np.eye(n + 1)
    resids = [np.abs(_word_matrix(mats, presentation.parse(r), n) - eye)
              .max(axis=(-2, -1)).tolist() for r in presentation.relators]
    reps = []
    for k, imgs in enumerate(images):
        worst, worst_r = 0.0, None
        for r, resid in zip(presentation.relators, resids):
            if resid[k] > worst:
                worst, worst_r = resid[k], r
        if worst > tol:
            raise RelatorResidualError(
                f"relator {worst_r!r} has residual {worst:.3e} > {tol}", worst_r, worst)
        reps.append(Representation(presentation, imgs, worst))
    return reps


def check_representation(presentation, images, tol: float = RELATOR_TOL) -> Representation:
    """Validate generator images against the relators; accepts iff the
    worst relator residual (max-abs of rho(r) - I) is at most tol.

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
    This is the one-sample case of the stacked classification that
    developing runs over all samples of a scan at once.
    """
    images = [evaluate_word(rho, w).matrix[None] for w in peripheral_words(tri, cusp_id)]
    return _classify_cusp(cusp_id, images, tol)[0]


def _classify_cusp(cusp_id: str, images: Sequence[np.ndarray],
                   tol: float = 1e-8) -> list[PeripheralClassification]:
    """classify_peripheral of one cusp for S samples at once, from the
    (S, m, m) images of each of its peripheral words: one _fixed_sets
    pass, whose failure names the first sample that fixes nothing."""
    try:
        sets = _fixed_sets(images, tol)
    except EmptyFixedSetError as exc:
        where = f" at sample {exc.sample}" if len(images[0]) > 1 else ""
        raise PeripheralClassificationError(
            f"peripheral image of cusp {cusp_id!r}{where} fixes nothing in the "
            f"closed ball at tol {tol}") from exc
    out = []
    for fs in sets:
        has_interior = fs.interior is not None
        has_ideal = bool(fs.ideal) or fs.sphere
        if has_interior and has_ideal:
            kind = PeripheralKind.BOTH
        elif has_interior:
            kind = PeripheralKind.COMPACT_FIX
        else:
            kind = PeripheralKind.PARABOLIC_FIX
        out.append(PeripheralClassification(cusp_id, kind, fs.interior, fs.ideal, fs.sphere))
    return out


@dataclass(frozen=True)
class DevelopingAssignment:
    """Values of the equivariant map on orbit vertices: slot (v, w)
    develops to rho(w) applied to points[v].  `stack` holds the vertex
    rows, determinants and degeneracy flags of the triangulation's
    simplices developed once, in its order, as one _VertexStack."""

    points: Mapping[str, LorentzVector]
    seed: int
    classifications: Mapping[str, PeripheralClassification]
    stack: _VertexStack = field(compare=False, repr=False)

    def develop(self, rho: Representation, vid: str, word) -> LorentzVector:
        return evaluate_word(rho, word).apply(self.points[vid])


def _check_preference(boundary_preference: str) -> None:
    if boundary_preference not in ("prefer_ideal", "prefer_interior"):
        raise RepvolError(f"unknown boundary preference {boundary_preference!r}")


def _develop_points(tri: LabeledTriangulation, points: Mapping[str, Sequence[LorentzVector]],
                    word_matrix: Callable[[str], np.ndarray]) -> _VertexStack:
    """The (S, N) _VertexStack of the N labeled simplices of the
    triangulation developed for S samples at once: points[v] holds the S
    values of orbit vertex v, word_matrix(w) the (S, m, m) images of w.
    Each distinct slot (v, w) is developed once, as Isometry.apply would
    develop it: the slots of one word take its images in one stacked
    product of (m, m) by (m, 1) matrices, all developed points are
    projected in one validated stacked projection per kind (onto the
    light cone or the hyperboloid) and scaled to x_0 = 1 together, and
    each simplex gathers its rows by slot index."""
    vids = {v: i for i, v in enumerate(points)}
    values = np.array([[x.coords for x in xs] for xs in points.values()])  # (V, S, m)
    kinds = np.array([[x.kind is Kind.IDEAL for x in xs] for xs in points.values()])
    # the distinct slots, numbered in order of first appearance
    index: dict = {}
    gather = np.array([index.setdefault(slot, len(index))
                       for s in tri.simplices for slot in s.slots]).reshape(len(tri.simplices), -1)
    by_word: dict = {}
    for k, (_, w) in enumerate(index):
        by_word.setdefault(w, []).append(k)
    vertex = [vids[v] for v, _ in index]
    X = values[vertex].swapaxes(0, 1)[..., None]  # (S, P, m, 1)
    Y = np.empty(X.shape[:-1])
    for w, ks in by_word.items():
        Y[:, ks] = (word_matrix(w)[:, None] @ X[:, ks])[..., 0]
    ideal = kinds[vertex].T  # (S, P)
    Y = _project_points(Y, ideal)
    rows = (Y / Y[..., :1])[:, gather]
    rows.setflags(write=False)
    return _VertexStack.of(rows, ideal[:, gather])


def _project_points(Y: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """The points Y (..., m) projected onto the light cone where `ideal`
    (shaped like Y's leading axes) and onto the hyperboloid elsewhere,
    as Isometry.apply projects a developed point, in one validated
    stacked projection per kind."""
    if ideal.all():
        return _project_ideal(Y)
    if not ideal.any():
        return _project_material(Y)
    out = np.empty_like(Y)
    out[ideal] = _project_ideal(Y[ideal])
    out[~ideal] = _project_material(Y[~ideal])
    return out


def _develop(rho: Representation, tri: LabeledTriangulation, points, seed: int,
             classes) -> DevelopingAssignment:
    """The assignment of the given developing values `points`, as they
    are, with every simplex of `tri` developed."""
    stack = _develop_points(tri, {v: [x] for v, x in points.items()},
                            lambda w: evaluate_word(rho, w).matrix[None])
    return DevelopingAssignment(points, seed, classes, stack[0])


def _point_sampler(seed: int, n: int) -> Callable[[int], list[LorentzVector]]:
    """Draws of material developing values from a generator seeded with
    `seed`: uniform in Klein coordinates within unit hyperbolic radius of
    the origin.  A draw of `count` points runs rejection rounds, each of
    one stacked uniform draw of a candidate per point still missing, so
    the generator is consumed as drawing the points one at a time
    consumes it, and lifts the accepted points to the hyperboloid
    together, each as from_klein lifts it."""
    rng = np.random.default_rng(seed)
    klein_radius = np.tanh(1.0)

    def sample_points(count: int) -> list[LorentzVector]:
        K, r2 = np.empty((count, n)), np.empty(count)
        done = 0
        while done < count:
            k = rng.uniform(-klein_radius, klein_radius, size=(count - done, n))
            s = _rowdot(k, k)  # rounds as np.linalg.norm's k @ k does
            inside = np.sqrt(s) < klein_radius
            got = done + int(inside.sum())
            K[done:got], r2[done:got] = k[inside], s[inside]
            done = got
        X = np.concatenate((np.ones((count, 1)), K), axis=1) / np.sqrt(1.0 - r2)[:, None]
        return [LorentzVector._trusted(x, Kind.MATERIAL) for x in X]

    return sample_points


def _develop_samples(reps: Sequence[Representation], tri: LabeledTriangulation, seed: int,
                     boundary_preference: str, max_retries: int = 200, max_restarts: int = 20):
    """Developing values for S representations of one presentation, each
    as if chosen on its own, over a leading sample axis: word images are
    (S, m, m) products, and every sample is developed in one
    _develop_points pass.

    Cusp cone points go to fixed points of the peripheral images: each
    cusp is classified once for all S samples, on the (S, m, m) images
    of its peripheral words that word_matrix holds (_classify_cusp), and
    a cusp that fixes nothing names the first such sample.  Each sample
    draws its material values from its own _point_sampler(seed, n) and
    is redeveloped, alone among the samples, until none of its simplices
    is degenerate (_VertexStack.degenerate, the predicate that zeroes
    volumes): a retry redraws the material vertices of its degenerate
    simplices in orbit-vertex order, and after max_retries retries a
    restart redraws them all.

    Returns (classes, points, stack, word_matrix): per sample {cusp id:
    PeripheralClassification}, the S values of each orbit vertex, the
    (S, N) _VertexStack of the developed simplices, and the function
    giving a word's (S, m, m) images."""
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

    by_cusp = {c.id: _classify_cusp(c.id, [word_matrix(w) for w in peripheral_words(tri, c.id)])
               for c in tri.cusps}
    classes = [{cid: cls[k] for cid, cls in by_cusp.items()} for k in range(count)]

    points = {v.id: [cl[v.cusp].fixed_point(boundary_preference) for cl in classes]
              for v in tri.orbit_vertices if v.kind == "ideal"}
    material = [v.id for v in tri.orbit_vertices if v.kind != "ideal"]
    draws = [_point_sampler(seed, n) for _ in reps] if material else []
    drawn = [draw(len(material)) for draw in draws]
    for i, vid in enumerate(material):
        points[vid] = [xs[i] for xs in drawn]
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
                why = ("its degenerate simplices have no material vertex to redraw"
                       if not redraw else f"the retry budget ({max_restarts} restarts of "
                       f"{max_retries} retries) ran out")
                raise DegenerateDevelopingError(
                    f"could not reach a nondegenerate developing assignment: {why}")
            for vid, x in zip(redraw, draws[k](len(redraw))):
                points[vid][k] = x
            again.append(k)
        return again

    stack = _develop_points(tri, points, word_matrix)
    todo = resample(range(count), stack)
    if todo:
        while todo:
            part = {v: [xs[k] for k in todo] for v, xs in points.items()}
            todo = resample(todo, _develop_points(tri, part, lambda w: word_matrix(w)[todo]))
        stack = _develop_points(tri, points, word_matrix)
    return classes, points, stack, word_matrix


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
    classes, points, stack, _ = _develop_samples(
        [rho], tri, seed, boundary_preference, max_retries, max_restarts)
    return DevelopingAssignment({v: xs[0] for v, xs in points.items()}, seed, classes[0],
                                stack[0])


# max-abs distance between x_0 = 1 rows at which a paired point meets its target
_CYCLE_TOL = 1e-6


def _developed_cycles(stack: _VertexStack, tri: LabeledTriangulation,
                      word_matrix: Callable[[str], np.ndarray]) -> np.ndarray:
    """Relaxed cycle check of a triangulation with face pairings, for S
    developings at once: stack (S, N) holds the N developed simplices of
    each sample, and word_matrix gives the (S, m, m) images of a pairing
    word.  Returns the (S,) failure counts, 0 where a sample is a cycle.

    A pairing holds when its word carries each source-face point within
    _CYCLE_TOL of its nearest target-face point, those targets are
    distinct, and their permutation cancels the orientations.  A pairing
    on a degenerate simplex (_VertexStack.degenerate) drops out, as in
    the degenerate-tolerant volume convention.  The count is the
    nondegenerate faces not covered exactly once by holding pairings,
    plus the other pairings that fail."""
    rows, apart = stack.rows, ~stack.degenerate  # (S, N, v, m), (S, N)
    count, v, m = apart.shape[0], rows.shape[-2], rows.shape[-1]
    src, src_face, dst, dst_face = np.array([(p.src, p.src_face, p.dst, p.dst_face)
                                             for p in tri.pairings], dtype=int).reshape(-1, 4).T
    # the (S, P, m, m) transposed word images, and the face omitting each vertex
    images_t = np.array([word_matrix(p.word) for p in tri.pairings]).reshape(
        -1, count, m, m).transpose(1, 0, 3, 2)
    faces = np.array([[j for j in range(v) if j != f] for f in range(v)], dtype=int)
    moved = rows[:, src[:, None], faces[src_face]] @ images_t  # (S, P, v - 1, m)
    moved /= moved[..., :1]
    target = rows[:, dst[:, None], faces[dst_face]]
    dist = np.abs(moved[..., :, None, :] - target[..., None, :, :]).max(-1)
    # a repeated nearest target makes the one-hot matrix singular: det 0 fails the signs
    sgn = np.linalg.det((dist.argmin(-1)[..., None] == np.arange(v - 1)).astype(float))
    coef = np.array([s.sign for s in tri.simplices])[:, None] * (-1) ** np.arange(v)
    active = apart[:, src] & apart[:, dst]
    holds = (active & (dist.min(-1) <= _CYCLE_TOL).all(-1)
             & (coef[src, src_face] + coef[dst, dst_face] * sgn == 0))
    cover = np.zeros(rows.shape[:-1], dtype=int)  # (S, N, v) holding pairings per face
    np.add.at(cover, (np.arange(count)[:, None], np.concatenate([src, dst]),
                      np.concatenate([src_face, dst_face])), np.concatenate([holds, holds], 1))
    return ((cover != 1) & apart[..., None]).sum((1, 2)) + (active & ~holds).sum(1)


def _validate_cycle(rho: Representation, tri: LabeledTriangulation,
                    assignment: DevelopingAssignment):
    """Raise unless the triangulation is a cycle on the assignment's
    developed simplices (_require_cycles)."""
    if len(assignment.stack.rows) != len(tri.simplices):
        raise RepvolError(
            f"the assignment develops {len(assignment.stack.rows)} simplices, "
            f"the triangulation has {len(tri.simplices)}")
    _require_cycles(tri, assignment.stack[None],
                    lambda w: evaluate_word(rho, w).matrix[None])


def _require_cycles(tri: LabeledTriangulation, stack: _VertexStack,
                    word_matrix: Callable[[str], np.ndarray]) -> None:
    """Raise unless the triangulation is a cycle in each of S developings
    (stack and word_matrix as for _developed_cycles): through its face
    pairings on the developed simplices when it has them, by check_cycle
    otherwise."""
    counts = ([len(check_cycle(tri).unmatched)] if tri.pairings is None
              else _developed_cycles(stack, tri, word_matrix).tolist())
    for k, count in enumerate(counts):
        if count:
            where = f"sample {k}: " if len(counts) > 1 else ""
            raise TriangulationError(
                f"{where}triangulation is not a cycle: {count} unmatched faces")


def representation_volume(rho: Representation, tri: LabeledTriangulation,
                          assignment: DevelopingAssignment,
                          tol: float = 1e-9) -> float:
    """Sum of signed volumes of the developed simplices weighted by
    their cycle signs; degenerate developed simplices contribute zero.

    The volumes come from one _stack_volumes call on the assignment's
    stack: its determinants and degeneracy flags, closed forms
    evaluated together, and every simplex that needs cubature in one
    cubature._rule_values pass.  The value does not depend on the seed
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
    the angle-sum area formula (pi minus the interior angles, all from
    one _stack_dihedral_angles call on the nondegenerate developed
    triangles) rather than through signed_volume, whose areas come from
    Eriksson's determinant formula; both formulas give one number."""
    if tri.dim != 2:
        raise RepvolError("Toledo numbers are 2-dimensional")
    _validate_cycle(rho, tri, assignment)
    stack = assignment.stack
    live = ~stack.degenerate
    angles = _stack_dihedral_angles(stack[live])
    areas = np.zeros(len(live))
    areas[live] = np.copysign(np.pi - (angles[:, 1, 2] + angles[:, 0, 2] + angles[:, 0, 1]),
                              stack.dets[live])
    return _signed_sum(tri, areas.tolist())


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

    return DeformationPath("conjugation", ev, {"direction": X})


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

    return DeformationPath("twist2d", ev,
                           {"generator": generator, "boundary_words": tuple(boundary_words)})


def _keyframes_path(presentation, times: Sequence[float],
                    keyframes: Sequence[Mapping[str, np.ndarray]]) -> DeformationPath:
    from scipy.interpolate import CubicSpline

    times = _keyframe_times(times, len(keyframes), "a keyframes path", RepvolError)
    gens = list(keyframes[0])
    reps = [check_representation(presentation, imgs) for imgs in keyframes]
    data = {g: np.array([r.images[g].matrix for r in reps]) for g in gens}
    splines = {g: CubicSpline(times, data[g], axis=0) for g in gens}

    def ev(t: float) -> Representation:
        _check_keyframe_time(t, times, RepvolError)
        images = {g: Isometry(minkowski_gram_schmidt(splines[g](t))) for g in gens}
        return check_representation(presentation, images, tol=PATH_RELATOR_TOL)

    return DeformationPath("keyframes", ev, {"times": times})


def generate_path(kind: str, params: Mapping) -> DeformationPath:
    """Build a deformation path.

    kinds: "conjugation" (base, direction: so(n,1) matrix),
    "twist2d" (base, generator, direction: so(2,1) matrix or a word whose
    image's logarithm is used, boundary_words guarded non-elliptic),
    "keyframes" (presentation, finite and strictly increasing times,
    keyframes; a t outside [times[0], times[-1]] is refused), and "dehn3d"
    (triangulation with gluing data, filling (p, q), steps: continuation
    steps over [0, 1], default 24; a t outside [0, 1] is refused) which
    pulls shapes along a filling-coefficient segment from the complete
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

    The representations come from one path.evaluate_many call.  Their
    cusps are classified once for all samples and they are developed
    together (_develop_samples, with the developing retries of
    build_developing_assignment per sample), cycle-checked in one array
    pass over samples x pairings (_developed_cycles) and measured in one
    _stack_volumes call, so each sample gets the classifications and the
    volume that classify_peripheral, build_developing_assignment and
    representation_volume give it.  Only the dehn3d Newton continuation
    runs sample by sample.  A failing check raises at its stage, so when
    several samples fail, the error of the earliest stage is raised; a
    cusp that fixes nothing and a developing that is not a cycle
    ("sample k: triangulation is not a cycle") name the first such
    sample.
    """
    if n_samples < 3:
        raise RepvolError("need at least 3 samples")
    if boundary_preference is None:
        boundary_preference = ("prefer_ideal" if path.kind in ("twist2d", "dehn3d")
                               else "prefer_interior")
    ts = np.linspace(0.0, 1.0, n_samples)
    classes, _, stack, word_matrix = _develop_samples(
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


def _fig8_generators(z1, z2):
    """SL(2,C) images of the two generators reconstructed from the
    developed cells (infinity, 0, 1, z1) and (infinity, 0, 1, 1/z2)
    through the fixture's face pairings; both shape parameters live in
    the upper half plane and the apex positions are holomorphic in
    them.  z1 and z2 are numbers, giving two (2, 2) matrices, or (S,)
    arrays, giving two (S, 2, 2) stacks.

    With u = z1 and v = 1/z2, m2 sends [inf, 1, u] to [v, 0, inf], that
    is z -> v (z - 1) / (z - u), and m3 sends [inf, 0, u] to [v, 0, 1],
    that is z -> v z / (z + u (v - 1)); each is scaled to determinant 1.
    The generators are b = m3^-1 and a = m2^-1 m3, from one batched
    inversion."""
    u, v = np.asarray(z1, dtype=complex), 1.0 / np.asarray(z2, dtype=complex)
    zero, one = np.zeros_like(u), np.ones_like(u)
    # m2 and m3 on a leading axis, the matrix entries on the last two
    m = np.moveaxis(np.array([[[v, -v], [one, -u]], [[v, zero], [one, u * (v - 1.0)]]]),
                    (1, 2), (-2, -1))
    m /= np.sqrt([v * (1.0 - u), u * v * (v - 1.0)])[..., None, None]
    m2_inv, b = np.linalg.inv(m)
    return m2_inv @ m[1], b


# Logarithmic gluing equations of the shipped two-cell complex: integer
# exponent rows over (log z1, log(1-z1), log z2, log(1-z2)) plus a
# constant, all logarithms principal.  They are analytic on the upper
# half plane, where both shapes stay (1 - z then lies in the lower half
# plane, off the cut), so no branch needs tracking.
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
_FIG8_LOG_ROWS = (((2, -1, -1, 2), 0.0),
                  ((-1, 1, 1, -1), 0.0),
                  ((4, -2, 0, 0), -2j * math.pi))


def _fig8_log_equations(z1: complex, z2: complex):
    """[edge, u, v] at the shapes, and their Jacobian in (z1, z2) as
    three (d/dz1, d/dz2) pairs: the rows times diag(1/z1, -1/(1-z1),
    1/z2, -1/(1-z2)), folded onto the two shapes."""
    w = (z1, 1.0 - z1, z2, 1.0 - z2)
    l1, l2, l3, l4 = (cmath.log(x) for x in w)
    d1, d2, d3, d4 = 1.0 / w[0], -1.0 / w[1], 1.0 / w[2], -1.0 / w[3]
    vals = [a * l1 + b * l2 + c * l3 + d * l4 + k for (a, b, c, d), k in _FIG8_LOG_ROWS]
    jac = [(a * d1 + b * d2, c * d3 + d * d4) for (a, b, c, d), _ in _FIG8_LOG_ROWS]
    return vals, jac


def _solve_shapes(x0: Sequence[complex], target, tol: float, max_iter: int):
    """Damped Newton on the edge equation plus the cusp equation
    p*u + q*v = w, target = (p, q, w), on the log holonomies, with the
    analytic Jacobian of the logarithmic equations, in scalar complex
    arithmetic.  The cusp row p*u + q*v - w is folded into the
    _FIG8_LOG_ROWS coefficients once per solve, so a residual
    evaluation is four logarithms, four reciprocals and two four-term
    sums; the 2x2 step is solved by Cramer's rule, and a zero
    determinant is a singular system.  A step is taken only if it keeps
    both shapes in the upper half plane and strictly decreases the
    max-abs residual, halving it down to 1e-4.  Returns (shapes,
    residual, jac) at the first iterate with max-abs residual at most
    tol, with jac the 2x2 Jacobian of the folded system there, from
    which a continuation takes its tangent; u and v are evaluated only
    for the solutions kept (_gluing_solutions)."""
    p, q, w = target
    (edge, k_edge), (mer, k_mer), (lon, k_lon) = _FIG8_LOG_ROWS
    e1, e2, e3, e4 = edge
    c1, c2, c3, c4 = (p * a + q * b for a, b in zip(mer, lon))
    k_cusp = p * k_mer + q * k_lon - w

    def system(z1, z2):
        # the folded residuals, their max-abs size and the 2x2 Jacobian
        y1, y2 = 1.0 - z1, 1.0 - z2
        l1, l2, l3, l4 = cmath.log(z1), cmath.log(y1), cmath.log(z2), cmath.log(y2)
        d1, d2, d3, d4 = 1.0 / z1, -1.0 / y1, 1.0 / z2, -1.0 / y2
        r1 = e1 * l1 + e2 * l2 + e3 * l3 + e4 * l4 + k_edge
        r2 = c1 * l1 + c2 * l2 + c3 * l3 + c4 * l4 + k_cusp
        return (r1, r2, max(abs(r1), abs(r2)), e1 * d1 + e2 * d2, e3 * d3 + e4 * d4,
                c1 * d1 + c2 * d2, c3 * d3 + c4 * d4)

    z1, z2 = (complex(z) for z in x0)
    r1, r2, size, a, b, c, d = system(z1, z2)
    for _ in range(max_iter):
        if size <= tol:
            break
        det = a * d - b * c
        if det == 0:
            raise GluingError("singular Newton system")
        s1, s2 = (b * r2 - d * r1) / det, (c * r1 - a * r2) / det
        damp = 1.0
        while damp > 1e-4:
            n1, n2 = z1 + damp * s1, z2 + damp * s2
            if n1.imag > 0 and n2.imag > 0:
                trial = system(n1, n2)
                if trial[2] < size:
                    z1, z2 = n1, n2
                    r1, r2, size, a, b, c, d = trial
                    break
            damp *= 0.5
        else:
            raise GluingError(
                f"Newton stalled at shapes {np.array([z1, z2])}: residual {size:.3e}")
    if size > tol:
        raise GluingError(f"Newton did not reach tol {tol}: residual {size:.3e}")
    return (z1, z2), size, ((a, b), (c, d))


def _gluing_solutions(tri: LabeledTriangulation, solved) -> list[GluingSolution]:
    """Reconstruct the generators from each solved (shapes, residual,
    jac) of _solve_shapes, take its log holonomies, and relator-check
    the representations, with the generators, one lift of both
    generator stacks and the relator products stacked over the
    solutions."""
    z1, z2 = np.array([shapes for shapes, _, _ in solved]).T
    a, b = np.split(_lift_stack(np.concatenate(_fig8_generators(z1, z2))), 2)
    images = [{"a": Isometry._trusted(x), "b": Isometry._trusted(y)} for x, y in zip(a, b)]
    reps = _check_stack(tri.presentation, images, RELATOR_TOL)
    return [GluingSolution(shapes, rep, residual, tuple(_fig8_log_equations(*shapes)[0][1:]))
            for (shapes, residual, _), rep in zip(solved, reps)]


def _check_recipe(tri: LabeledTriangulation) -> None:
    if tri.gluing is None or tri.gluing.get("recipe") != "two_tet_once_cusped":
        raise GluingError("triangulation carries no supported gluing data")


def _filling(filling) -> tuple[float, float]:
    """(p, q) as floats, refused unless both are finite and not both 0:
    a NaN cusp residual would pass Newton's max-abs test."""
    p, q = (float(x) for x in filling)
    if not (math.isfinite(p) and math.isfinite(q)) or p == q == 0:
        raise GluingError(f"filling must be finite and not (0, 0), not ({p}, {q})")
    return p, q


def solve_gluing_equations(tri: LabeledTriangulation, filling,
                           init_shapes: Sequence[complex],
                           tol: float = 1e-11, max_iter: int = 60) -> GluingSolution:
    """Newton-solve the fixture's gluing equations.

    filling is "complete" or a pair (p, q) of finite numbers, not both
    zero.  Filled structures satisfy p*u + q*v = 2 pi i on the
    logarithmic meridian/longitude holonomies u, v, which are integer
    combinations of principal logarithms of the shapes (analytic on the
    upper half plane, zero at the complete structure); the complete
    structure is cut by the cusp equation u = 0.  Shapes must be finite
    and start in the upper half plane, and Newton never leaves it.

    Newton has no global convergence guarantee: a filled solve from
    shapes far from the solution may stop with a GluingError.
    Continuation from the complete structure, generate_path("dehn3d",
    ...) or `hypvol path scan` on a dehn3d path spec, follows the
    cone-manifold deformation to the filling.

    Returns shape parameters (upper-half-plane for both cells), the
    reconstructed representation, the final residual and the log
    holonomies (zero up to the residual for the complete structure).
    """
    _check_recipe(tri)
    shapes = [complex(z) for z in init_shapes]
    if len(shapes) != 2 or not all(cmath.isfinite(z) and z.imag > 0 for z in shapes):
        raise GluingError("initial shapes must be two finite numbers in the upper half "
                          f"plane, not {shapes}")
    if isinstance(filling, str):
        if filling.lower() != "complete":
            raise GluingError(f"unknown filling spec {filling!r}")
        target = (1, 0, 0)
    else:
        target = (*_filling(filling), 2j * math.pi)
    return _gluing_solutions(tri, [_solve_shapes(shapes, target, tol, max_iter)])[0]


def _dehn3d_path(tri: LabeledTriangulation, filling, steps: int) -> DeformationPath:
    """Continuation from the complete structure toward the (p, q) Dehn
    filling: at parameter t the cusp equation is p*u + q*v = t * 2 pi i,
    and at t = 0 it is u = 0, which (omega, omega) solves.

    Each step of at most 1/steps starts Newton from the tangent
    prediction z + ds J^-1 (0, 2 pi i), with J the Jacobian of the edge
    row and the path's cusp row p*u + q*v at the previous solution, or
    from the previous shapes when a predicted shape leaves the upper
    half plane.  A step that fails raises a GluingError naming the
    filling and the parameter s it was solving for.

    Every continuation step's (shapes, residual, Jacobian) is kept; a
    relator-checked GluingSolution with its log holonomies is built only
    for the parameters asked for.  evaluate_many walks the continuation
    through its parameters in order once and builds their solutions in
    one stacked lift and relator check."""
    _check_recipe(tri)
    if steps < 1:
        raise RepvolError(f"a dehn3d path needs at least one step, not {steps}")
    p, q = _filling(filling)
    omega = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    shapes, residual, _ = _solve_shapes((omega, omega), (1, 0, 0), 1e-11, 60)
    # that solve's Jacobian has the row of u; the path's has p*u + q*v
    _, (edge, (u1, u2), (v1, v2)) = _fig8_log_equations(*shapes)
    walked = {0.0: (shapes, residual, (edge, (p * u1 + q * v1, p * u2 + q * v2)))}
    solutions = {}

    def walk(t: float):
        if not 0.0 <= t <= 1.0:
            raise RepvolError(f"a dehn3d path is defined for t in [0, 1], not t = {t}")
        # walk from the last step at or below t
        s = max(k for k in walked if k <= t + 1e-12)
        state = walked[s]
        while s < t - 1e-12:
            step = min(t, s + 1.0 / steps)
            (z1, z2), _, ((a, b), (c, d)) = state
            # predictor: z + ds J^-1 (0, 2 pi i), with J = [edge; p*u + q*v]
            det = a * d - b * c
            start = (z1, z2)
            if det != 0:
                k = (step - s) * 2j * math.pi / det
                predicted = (z1 - b * k, z2 + a * k)
                if predicted[0].imag > 0 and predicted[1].imag > 0:
                    start = predicted
            try:
                state = _solve_shapes(start, (p, q, step * 2j * math.pi), 1e-11, 60)
            except GluingError as exc:
                raise GluingError(f"dehn3d continuation toward the ({p:g}, {q:g}) filling "
                                  f"failed at s = {step}: {exc}") from exc
            s, walked[step] = step, state
        return state

    def solve_many(ts: Sequence[float]) -> list[GluingSolution]:
        # walk in the order asked, then build the new solutions together
        pending = {t: walk(t) for t in dict.fromkeys(ts) if t not in solutions}
        if pending:
            solutions.update(zip(pending, _gluing_solutions(tri, list(pending.values()))))
        return [solutions[t] for t in ts]

    def solve_at(t: float) -> GluingSolution:
        return solve_many([float(t)])[0]

    return DeformationPath("dehn3d", lambda t: solve_at(t).representation,
                           {"filling": (p, q), "solver": solve_at},
                           lambda ts: [sol.representation for sol in solve_many(ts)])
