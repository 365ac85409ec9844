import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_so_direction, random_so_element
from hypvol.fixtures import (
    FIG8_LONGITUDE,
    FIG8_MERIDIAN,
    figure_eight_geometric_images,
    figure_eight_triangulation,
    fuchsian_punctured_torus_images,
    punctured_torus_triangulation,
    subdivide_at_material_vertex,
    suspension_4d,
)
from hypvol.lorentz import Isometry, Kind, lift_moebius
from hypvol.repvol import (
    DegenerateDevelopingError,
    GluingError,
    PeripheralKind,
    RelatorResidualError,
    Representation,
    RepvolError,
    TwistEllipticBoundaryError,
    build_developing_assignment,
    check_representation,
    classify_peripheral,
    evaluate_word,
    generate_path,
    milnor_wood_margin,
    representation_volume,
    scan_path,
    solve_gluing_equations,
    toledo_number,
)
from hypvol import repvol as repvol_mod
from hypvol import simplex as simplex_mod
from hypvol import triangulation
from hypvol.repvol import _develop, _fig8_generators, _fig8_log_equations
from hypvol.simplex import (
    GeodesicSimplex,
    _degeneracy_scales,
    bloch_wigner,
    signed_volume,
    signed_volumes,
)
from hypvol.triangulation import LabeledSimplex, LabeledTriangulation

V3 = 1.0149416064096535
FIG8_VOL = 2 * V3


@pytest.fixture(scope="module")
def fig8():
    tri = figure_eight_triangulation()
    rho = check_representation(tri.presentation, figure_eight_geometric_images())
    return tri, rho


@pytest.fixture(scope="module")
def ptorus():
    tri = punctured_torus_triangulation()
    rho = check_representation(tri.presentation, fuchsian_punctured_torus_images())
    return tri, rho


# --- representation checking -----------------------------------------------

def test_trivial_representation_accepted(fig8):
    tri, _ = fig8
    rep = check_representation(
        tri.presentation, {"a": Isometry.identity(3), "b": Isometry.identity(3)})
    assert rep.relator_residual == 0.0


def test_fig8_geometric_accepted(fig8):
    _, rho = fig8
    assert rho.relator_residual < 1e-10


def test_perturbed_images_rejected(fig8):
    tri, _ = fig8
    images = figure_eight_geometric_images()
    bad = dict(images)
    m = np.array(bad["a"], dtype=complex)
    m[0, 1] += 1e-3
    m /= np.sqrt(np.linalg.det(m))
    bad["a"] = m
    with pytest.raises(RelatorResidualError) as err:
        check_representation(tri.presentation, bad)
    assert err.value.residual > 1e-4


def test_missing_generator_image(fig8):
    tri, _ = fig8
    with pytest.raises(Exception):
        check_representation(tri.presentation, {"a": np.eye(2, dtype=complex)})


def test_evaluate_word_long_product_stays_valid(fig8):
    tri, rho = fig8
    word = " ".join(["a b a B A"] * 40)
    iso = evaluate_word(rho, word)
    assert isinstance(iso, Isometry)


def _parabolic_so41(v):
    """exp of the nilpotent so(4,1) element with translation vector v: a
    parabolic fixing the ideal point (1, 1, 0, 0, 0)."""
    X = np.zeros((5, 5))
    X[0, 2:] = X[1, 2:] = X[2:, 0] = v
    X[2:, 1] = -np.asarray(v)
    return np.eye(5) + X + X @ X / 2.0


@pytest.fixture(scope="module")
def suspension4_rho():
    tri = suspension_4d()
    return check_representation(tri.presentation,
                                {"x": _parabolic_so41(np.array([0.3, -0.5, 0.4]))})


def _matrix_product(rho, word):
    out = np.eye(rho.n + 1)
    for g, e in rho.presentation.parse(word):
        m = rho.images[g].matrix
        out = out @ (m if e > 0 else np.linalg.inv(m))
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_word_images_are_valid_cached_isometries(fig8, suspension4_rho, data):
    for rho, letters in ((fig8[1], "abAB"), (suspension4_rho, "xX")):
        word = " ".join(data.draw(st.lists(st.sampled_from(letters), max_size=20)))
        iso = evaluate_word(rho, word)
        Isometry(iso.matrix)  # full validation, as for outside input
        assert evaluate_word(rho, word) is iso
        fresh = Representation(rho.presentation, rho.images, rho.relator_residual)
        assert np.array_equal(evaluate_word(fresh, word).matrix, iso.matrix)
        P = _matrix_product(rho, word)
        assert np.max(np.abs(iso.matrix - P)) <= 1e-9 * max(1.0, np.max(np.abs(P)))


def test_representations_never_share_word_images(fig8):
    tri, _ = fig8
    images = figure_eight_geometric_images()
    r1 = check_representation(tri.presentation, images)
    r2 = check_representation(tri.presentation, images)
    a1 = evaluate_word(r1, "a b A")
    assert "a b A" not in r2._word_images
    a2 = evaluate_word(r2, "a b A")
    assert a2 is not a1 and np.array_equal(a2.matrix, a1.matrix)
    conj = check_representation(
        tri.presentation, {g: evaluate_word(r1, "b") @ im @ evaluate_word(r1, "B")
                           for g, im in r1.images.items()})
    assert not np.allclose(evaluate_word(conj, "a b A").matrix, a1.matrix)


def test_check_representation_keeps_relator_images(fig8, monkeypatch):
    """The relator products computed by the check stay memoized on the
    representation it returns."""
    tri, _ = fig8
    rep = check_representation(tri.presentation, figure_eight_geometric_images())
    (relator,) = tri.presentation.relators
    assert relator in rep._word_images

    def no_product(*_):
        raise AssertionError("the relator image was multiplied out again")

    monkeypatch.setattr(repvol_mod, "_word_matrix", no_product)
    assert evaluate_word(rep, relator) is rep._word_images[relator]


def test_evaluate_many_matches_evaluate(fig8):
    tri, _ = fig8
    ts = [0.0, 0.4, 0.2, 0.4, 1.0]
    many = generate_path("dehn3d", {"triangulation": tri, "filling": (3, 2)}).evaluate_many(ts)
    one = generate_path("dehn3d", {"triangulation": tri, "filling": (3, 2)})
    assert many[1] is many[3]
    for t, rep in zip(ts, many):
        ref = one.evaluate(t)
        assert rep.relator_residual == ref.relator_residual
        for g in ("a", "b"):
            assert np.array_equal(rep.images[g].matrix, ref.images[g].matrix)


# --- peripheral classification ------------------------------------------------

def test_trivial_rep_classifies_both(fig8):
    tri, _ = fig8
    rep = check_representation(
        tri.presentation, {"a": Isometry.identity(3), "b": Isometry.identity(3)})
    cls = classify_peripheral(rep, tri, "cusp0")
    assert cls.kind is PeripheralKind.BOTH


def test_fig8_geometric_classifies_parabolic(fig8):
    tri, rho = fig8
    cls = classify_peripheral(rho, tri, "cusp0")
    assert cls.kind is PeripheralKind.PARABOLIC_FIX
    assert np.allclose(cls.ideal[0].unit().coords, [1, 0, 0, 1], atol=1e-8)


def test_compact_block_rep_classifies_compact(fig8):
    tri, _ = fig8
    R = np.eye(4)
    c, s = np.cos(0.7), np.sin(0.7)
    R[1, 1], R[1, 2], R[2, 1], R[2, 2] = c, -s, s, c
    rep = check_representation(
        tri.presentation, {"a": Isometry(R), "b": Isometry(R)}, tol=10.0)
    cls = classify_peripheral(rep, tri, "cusp0")
    assert cls.kind in (PeripheralKind.COMPACT_FIX, PeripheralKind.BOTH)
    assert cls.interior is not None


def test_punctured_torus_classifies_parabolic(ptorus):
    tri, rho = ptorus
    cls = classify_peripheral(rho, tri, "cusp0")
    assert cls.kind is PeripheralKind.PARABOLIC_FIX


# --- developing assignments -----------------------------------------------------

def test_fig8_assignment_all_ideal_nondegenerate(fig8):
    tri, rho = fig8
    asg = build_developing_assignment(rho, tri, seed=0)
    assert len(asg.simplices) == len(tri.simplices)
    for s, dev in zip(tri.simplices, asg.simplices):
        again = GeodesicSimplex([asg.develop(rho, v, w) for v, w in s.slots])
        assert np.array_equal(dev.vertex_matrix(), again.vertex_matrix())
        assert not dev.is_degenerate()
        assert all(v.kind is Kind.IDEAL for v in dev.vertices)


def test_trivial_rep_developing_fails(fig8):
    tri, _ = fig8
    rep = check_representation(
        tri.presentation, {"a": Isometry.identity(3), "b": Isometry.identity(3)})
    with pytest.raises(DegenerateDevelopingError):
        build_developing_assignment(rep, tri, seed=0, max_retries=5, max_restarts=2)


def test_boundary_preference_both_case(ptorus):
    tri, _ = ptorus
    # a representation into the compact block fixes e0 and the whole
    # sphere pointwise is not fixed: classification Both via identity
    rep = check_representation(
        tri.presentation, {"a": Isometry.identity(2), "b": Isometry.identity(2)})
    cls = classify_peripheral(rep, tri, "cusp0")
    assert cls.kind is PeripheralKind.BOTH
    assert cls.fixed_point("prefer_interior").kind is Kind.MATERIAL


# --- volumes ----------------------------------------------------------------------

def test_fig8_volume_golden(fig8):
    tri, rho = fig8
    asg = build_developing_assignment(rho, tri, seed=0)
    vol = representation_volume(rho, tri, asg)
    assert abs(vol - FIG8_VOL) < 1e-9


def test_orientation_flip_negates_volume(fig8):
    tri, rho = fig8
    flipped = LabeledTriangulation(
        tri.dim, tri.presentation, tri.orbit_vertices,
        tuple(LabeledSimplex(s.slots, -s.sign) for s in tri.simplices),
        tri.cusps, pairings=tri.pairings, gluing=tri.gluing)
    asg = build_developing_assignment(rho, flipped, seed=0)
    vol = representation_volume(rho, flipped, asg)
    assert abs(vol + FIG8_VOL) < 1e-9


def test_volume_conjugation_invariance(fig8, rng):
    tri, rho = fig8
    for _ in range(3):
        g = random_so_element(rng, 3, scale=0.4)
        gi = g.inverse()
        images = {k: g @ im @ gi for k, im in rho.images.items()}
        conj = check_representation(tri.presentation, images)
        asg = build_developing_assignment(conj, tri, seed=0)
        assert abs(representation_volume(conj, tri, asg) - FIG8_VOL) < 1e-7


def test_volume_seed_independence_with_material_vertices(fig8):
    tri, rho = fig8
    sub = subdivide_at_material_vertex(tri, 0)
    vols = []
    for seed in range(5):
        asg = build_developing_assignment(rho, sub, seed=seed)
        vols.append(representation_volume(rho, sub, asg))
    assert max(vols) - min(vols) < 5e-6
    assert abs(vols[0] - FIG8_VOL) < 1e-6


def test_trivial_rep_tolerant_volume_zero(ptorus):
    tri, _ = ptorus
    rep = check_representation(
        tri.presentation, {"a": Isometry.identity(2), "b": Isometry.identity(2)})
    # bypass nondegeneracy: assign the fixed point to every vertex
    cls = classify_peripheral(rep, tri, "cusp0")
    asg = _develop(rep, tri, {"c": cls.fixed_point("prefer_ideal")}, 0, {"cusp0": cls})
    assert representation_volume(rep, tri, asg) == 0.0


def test_volume_rejects_assignment_of_another_triangulation(fig8):
    tri, rho = fig8
    sub = subdivide_at_material_vertex(tri, 0)
    asg = build_developing_assignment(rho, sub, seed=0)
    with pytest.raises(RepvolError, match="the assignment develops"):
        representation_volume(rho, tri, asg)


def test_scan_sample_develops_each_slot_once(fig8, monkeypatch):
    """Developing, the cycle check and Vol(rho) share one developed
    simplex stack, and a slot (v, w) shared by simplices is developed
    once: a scan projects one developed point per distinct slot and
    sample onto the light cone."""
    tri, _ = fig8
    path = generate_path("dehn3d", {"triangulation": tri, "filling": (5, 1), "steps": 8})
    projected = []
    project = repvol_mod._project_ideal
    monkeypatch.setattr(repvol_mod, "_project_ideal", lambda y: projected.append(y) or project(y))
    scan_path(path, tri, 3)
    distinct = {slot for s in tri.simplices for slot in s.slots}
    assert len(distinct) == 5
    assert len(projected) == 3 * len(distinct)


def _scan_case(case, fig8, ptorus):
    tri, rho = fig8
    if case == "dehn3d":
        return tri, lambda: generate_path("dehn3d", {"triangulation": tri, "filling": (5, 1),
                                                     "steps": 8})
    if case == "conjugation, material vertex":
        X = np.zeros((4, 4))
        X[0, 1] = X[1, 0] = 0.3
        X[2, 3], X[3, 2] = 0.2, -0.2
        return (subdivide_at_material_vertex(tri, 0),
                lambda: generate_path("conjugation", {"base": rho, "direction": X}))
    tri, rho = ptorus
    return tri, lambda: generate_path("twist2d", {"base": rho, "generator": "a",
                                                  "direction": "b",
                                                  "boundary_words": ["a b A B"]})


@pytest.mark.parametrize("case", ["dehn3d", "conjugation, material vertex", "twist2d"])
def test_scan_matches_one_sample_at_a_time(fig8, ptorus, case):
    """The stacked scan gives every sample exactly the volume and the
    classifications that build_developing_assignment and
    representation_volume give that sample on its own."""
    tri, make_path = _scan_case(case, fig8, ptorus)
    report = scan_path(make_path(), tri, 3, seed=4)
    path = make_path()
    pref = "prefer_interior" if path.kind == "conjugation" else "prefer_ideal"
    for t, vol, classes in report.samples:
        rep = path.evaluate(t)
        asg = build_developing_assignment(rep, tri, seed=4, boundary_preference=pref)
        assert vol == representation_volume(rep, tri, asg)
        assert classes == {c: cl.kind.value for c, cl in asg.classifications.items()}


def test_scan_resamples_a_degenerate_sample_on_its_own(fig8, monkeypatch):
    """A scan sample whose first developing degenerates redraws its
    material vertex within the stacked scan, the other samples keep
    their first draw, and every sample gets exactly the volume that
    build_developing_assignment and representation_volume give it.  An
    undevelopable scan refuses."""
    tri, rho = fig8
    sub, make_path = _scan_case("conjugation, material vertex", fig8, None)
    # judged degenerate below a tenth of scale^3, seed 0's first draw
    # degenerates a simplex of the first sample only
    is_degenerate = simplex_mod._is_degenerate
    monkeypatch.setattr(simplex_mod, "_is_degenerate",
                        lambda det, scale, dim: is_degenerate(det, scale, dim, 0.1))
    draws = []
    point_sampler = repvol_mod._point_sampler

    def counted_sampler(seed, n):
        draw = point_sampler(seed, n)
        draws.append(0)
        k = len(draws) - 1

        def counted():
            draws[k] += 1
            return draw()

        return counted

    monkeypatch.setattr(repvol_mod, "_point_sampler", counted_sampler)
    report = scan_path(make_path(), sub, 3, seed=0)
    assert draws[0] > 1 and draws[1:] == [1, 1]
    path = make_path()
    for t, vol, _ in report.samples:
        rep = path.evaluate(t)
        asg = build_developing_assignment(rep, sub, seed=0, boundary_preference="prefer_interior")
        assert vol == representation_volume(rep, sub, asg)
        assert abs(vol - FIG8_VOL) < 1e-6
    monkeypatch.undo()
    trivial = check_representation(
        tri.presentation, {"a": Isometry.identity(3), "b": Isometry.identity(3)})
    direction = np.zeros((4, 4))
    direction[0, 1] = direction[1, 0] = 0.3
    with pytest.raises(DegenerateDevelopingError):
        scan_path(generate_path("conjugation", {"base": trivial, "direction": direction}), tri, 3)


_HASH_SEED_SCRIPT = """
import numpy as np
from hypvol import repvol, simplex
from hypvol.fixtures import suspension_4d

is_degenerate = simplex._is_degenerate
simplex._is_degenerate = lambda det, scale, dim: is_degenerate(det, scale, dim, 1e-3)
rounds = []
develop_points = repvol._develop_points
repvol._develop_points = lambda tri, points, word_matrix: (
    rounds.append({v: [x.coords.tolist() for x in xs] for v, xs in points.items()})
    or develop_points(tri, points, word_matrix))
tri = suspension_4d()
X = np.zeros((5, 5))
X[0, 2:] = X[1, 2:] = X[2:, 0] = [0.3, -0.5, 0.4]
X[2:, 1] = [-0.3, 0.5, -0.4]
rho = repvol.check_representation(tri.presentation, {"x": np.eye(5) + X + X @ X / 2.0})
asg = repvol.build_developing_assignment(rho, tri, seed=0)
print(max(sum(a[v] != b[v] for v in a) for a, b in zip(rounds, rounds[1:])))
print(repr({v: x.coords.tolist() for v, x in asg.points.items()}))
"""


def test_resampling_does_not_depend_on_string_hashing():
    """A retry that redraws several material vertices at once draws them
    in orbit-vertex order, so processes with different string hashing
    reach the same developing values."""
    src = str(Path(repvol_mod.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    redrawn_at_once = int(outputs[0].split()[0])
    assert redrawn_at_once >= 2
    assert outputs[0] == outputs[1]


def test_suspension4_develops_each_slot_once(suspension4_rho, monkeypatch):
    """The 324 simplices of the 4-D suspension hold 1620 slots but only
    29 distinct ones; developing projects 29 developed points, and every
    developed vertex equals its slot developed on its own."""
    tri = suspension_4d()
    asg = build_developing_assignment(suspension4_rho, tri, seed=0)
    distinct = {slot for s in tri.simplices for slot in s.slots}
    assert len(distinct) == 29
    projected = []
    for name in ("_project_ideal", "_project_material"):
        project = getattr(repvol_mod, name)
        monkeypatch.setattr(repvol_mod, name,
                            lambda y, project=project: projected.append(y) or project(y))
    again = _develop(suspension4_rho, tri, asg.points, 0, asg.classifications)
    assert len(projected) == len(distinct)
    monkeypatch.undo()
    for s, dev in zip(tri.simplices, again.simplices, strict=True):
        for (v, w), vertex in zip(s.slots, dev.vertices):
            assert np.array_equal(vertex.coords, asg.develop(suspension4_rho, v, w).coords)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_suspension4_batched_volumes_match_per_simplex(suspension4_rho, seed):
    """Vol(rho) integrates the developed 4-simplices in one batched
    ladder; each batched signed volume equals that simplex's own
    signed_volume to 1e-14 relative."""
    tri = suspension_4d()
    asg = build_developing_assignment(suspension4_rho, tri, seed=seed)
    together = signed_volumes(asg.simplices, 1e-9)
    for dev, vol in zip(asg.simplices, together, strict=True):
        assert vol == pytest.approx(signed_volume(dev, 1e-9), rel=1e-14, abs=0.0)
    total = sum(s.sign * v for s, v in zip(tri.simplices, together))
    assert total == representation_volume(suspension4_rho, tri, asg)


def test_stack_reproduces_per_simplex_predicates(suspension4_rho, fig8):
    """On the suspension's developing seeds 0-3 and on the subdivided
    figure-eight of criterion 6, each stacked determinant and degeneracy
    scale equals that of the developed simplex computed on its own, so
    the relative is_degenerate test, which developing, the cycle check
    and the volumes share, decides as it does per simplex."""
    tri, rho = fig8
    sub = subdivide_at_material_vertex(tri, 0)
    cases = ([(suspension4_rho, suspension_4d(), seed) for seed in range(4)]
             + [(rho, sub, seed) for seed in range(5)])
    for rho, tri, seed in cases:
        asg = build_developing_assignment(rho, tri, seed=seed)
        stack = asg.stack
        assert stack.rows.shape == (len(tri.simplices), tri.dim + 1, tri.dim + 1)
        degenerate = stack.degenerate
        for k, dev in enumerate(asg.simplices):
            alone = GeodesicSimplex(dev.vertices)
            det = np.linalg.det(alone.vertex_matrix())
            scale = _degeneracy_scales(alone.klein())
            assert np.array_equal(stack.rows[k], alone.vertex_matrix())
            assert stack.dets[k] == det and dev.orientation_det() == det
            assert stack.scales[k] == scale
            assert degenerate[k] == alone.is_degenerate() == dev.is_degenerate()
            assert stack.ideal[k].tolist() == list(alone.ideal_mask())


def test_developed_simplices_share_the_stack(suspension4_rho):
    """Every developed simplex reads its vertex matrix, determinant and
    degeneracy scale as read-only views of its slice of the assignment's
    stack."""
    asg = build_developing_assignment(suspension4_rho, suspension_4d(), seed=0)
    assert not asg.stack.rows.flags.writeable
    for k, dev in enumerate(asg.simplices):
        assert np.shares_memory(dev.vertex_matrix(), asg.stack.rows[k])
        assert np.shares_memory(dev._stack.dets, asg.stack.dets[k:k + 1])
        assert np.shares_memory(dev._stack.scales, asg.stack.scales[k:k + 1])


def test_combinatorial_cycle_checked_once_per_triangulation(suspension4_rho, monkeypatch):
    """Without face pairings Vol(rho) checks the cycle combinatorially;
    that report depends on the triangulation alone and is computed once."""
    tri = suspension_4d()
    assert tri.pairings is None
    faces = []
    canonical_face = triangulation._canonical_face
    monkeypatch.setattr(triangulation, "_canonical_face",
                        lambda face: faces.append(face) or canonical_face(face))
    cls = classify_peripheral(suspension4_rho, tri, "cusp0")
    # every vertex on the cusp point: all simplices collapse, Vol = 0
    points = {v.id: cls.fixed_point() for v in tri.orbit_vertices}
    counts = []
    for seed in (0, 1):
        asg = _develop(suspension4_rho, tri, points, seed, {"cusp0": cls})
        assert representation_volume(suspension4_rho, tri, asg) == 0.0
        counts.append(len(faces))
    assert counts[0] > 0 and counts[1] == counts[0]


def test_suspension4_volume_vanishes(suspension4_rho):
    """Vol(rho) in SO(4,1): the straightened 4-cycle of the suspension
    bounds, so its volume is 0 up to the summed simplex tolerances, for
    every developing seed, with the cusp parabolic."""
    tri = suspension_4d()
    tol = 1e-9
    for seed in (0, 1):
        asg = build_developing_assignment(suspension4_rho, tri, seed=seed)
        assert asg.classifications["cusp0"].kind is PeripheralKind.PARABOLIC_FIX
        vol = representation_volume(suspension4_rho, tri, asg, tol=tol)
        assert abs(vol) <= len(tri.simplices) * tol


# --- Toledo numbers -----------------------------------------------------------------

def test_toledo_trivial_rep_zero(ptorus):
    tri, _ = ptorus
    rep = check_representation(
        tri.presentation, {"a": Isometry.identity(2), "b": Isometry.identity(2)})
    cls = classify_peripheral(rep, tri, "cusp0")
    asg = _develop(rep, tri, {"c": cls.fixed_point()}, 0, {"cusp0": cls})
    assert toledo_number(rep, tri, asg) == 0.0


def test_toledo_equals_volume(ptorus, rng):
    tri, rho = ptorus
    asg = build_developing_assignment(rho, tri, seed=0)
    t = toledo_number(rho, tri, asg)
    v = representation_volume(rho, tri, asg)
    assert abs(t - v) < 1e-8
    assert abs(abs(t) - 2 * np.pi) < 1e-6


def test_toledo_on_subdivided_fixture(ptorus):
    tri, rho = ptorus
    sub = subdivide_at_material_vertex(tri, 1)
    asg = build_developing_assignment(rho, sub, seed=3)
    t = toledo_number(rho, sub, asg)
    v = representation_volume(rho, sub, asg)
    assert abs(t - v) < 1e-8
    assert abs(abs(t) - 2 * np.pi) < 1e-6


def test_random_f2_reps_milnor_wood(ptorus, rng):
    tri, _ = ptorus
    bound = 2 * np.pi
    for _ in range(20):
        images = {}
        for g in ("a", "b"):
            m = rng.normal(size=(2, 2))
            d = np.linalg.det(m)
            if d < 0:
                m[0] = -m[0]
                d = -d
            images[g] = m / np.sqrt(d)
        rep = check_representation(tri.presentation, images)
        try:
            asg = build_developing_assignment(rep, tri, seed=1)
        except DegenerateDevelopingError:
            continue
        t = toledo_number(rep, tri, asg)
        assert abs(t) <= bound + 1e-6


def test_milnor_wood_margin_values():
    assert abs(milnor_wood_margin(2.0298832, 2.0298832)) < 1e-7
    assert milnor_wood_margin(0.0, 2.0298832) == pytest.approx(2.0298832)
    assert milnor_wood_margin(-2 * np.pi, 2 * np.pi) == pytest.approx(0.0)
    with pytest.raises(Exception):
        milnor_wood_margin(1.0, -1.0)


# --- deformation paths ---------------------------------------------------------------

def test_conjugation_path_constant_scan(fig8, rng):
    tri, rho = fig8
    X = random_so_direction(rng, 3, scale=0.4)
    path = generate_path("conjugation", {"base": rho, "direction": X})
    report = scan_path(path, tri, 11, reference_vol=FIG8_VOL)
    assert report.verdict == "Constant"
    assert report.max_deviation <= 1e-8
    assert abs(report.milnor_wood_margin_min) <= 1e-5
    kinds = {c for (_, _, classes) in report.samples for c in classes.values()}
    assert kinds == {"parabolic"}


def test_conjugation_zero_direction_constant(fig8):
    tri, rho = fig8
    path = generate_path("conjugation", {"base": rho, "direction": np.zeros((4, 4))})
    r0 = path.evaluate(0.0)
    r1 = path.evaluate(1.0)
    assert np.allclose(r0.images["a"].matrix, r1.images["a"].matrix)


def test_conjugation_invalid_direction_rejected(fig8):
    tri, rho = fig8
    with pytest.raises(Exception):
        generate_path("conjugation", {"base": rho, "direction": np.eye(4)})


def test_twist_path_stays_in_hom_boundary(ptorus):
    tri, rho = ptorus
    path = generate_path("twist2d", {"base": rho, "generator": "a",
                                     "direction": "b",
                                     "boundary_words": ["a b A B"]})
    report = scan_path(path, tri, 11, reference_vol=2 * np.pi)
    assert report.verdict == "Constant"
    assert report.max_deviation <= 1e-7
    for t in (0.0, 0.5, 1.0):
        rep = path.evaluate(t)
        asg = build_developing_assignment(rep, tri, seed=0)
        assert abs(abs(toledo_number(rep, tri, asg)) - 2 * np.pi) < 1e-6


def test_twist_detects_elliptic_boundary(ptorus, rng):
    tri, rho = ptorus
    # twisting toward an elliptic direction must trip the guard for
    # some sample; rotation generator around e0
    Y = np.zeros((3, 3))
    Y[1, 2], Y[2, 1] = -2.5, 2.5
    path = generate_path("twist2d", {"base": rho, "generator": "a",
                                     "direction": Y,
                                     "boundary_words": ["a b A B"]})
    tripped = False
    for t in np.linspace(0, 1, 9):
        try:
            path.evaluate(t)
        except TwistEllipticBoundaryError:
            tripped = True
            break
    assert tripped


def test_keyframes_path(ptorus):
    tri, rho = ptorus
    images0 = {g: rho.images[g].matrix for g in ("a", "b")}
    g = lift_moebius(np.array([[1.0, 0.3], [0.0, 1.0]]) /
                     np.sqrt(1.0), dim=2)
    images1 = {k: (g @ rho.images[k] @ g.inverse()).matrix for k in ("a", "b")}
    path = generate_path("keyframes", {
        "presentation": tri.presentation,
        "times": [0.0, 1.0],
        "keyframes": [images0, images1]})
    rep = path.evaluate(0.5)
    assert rep.relator_residual <= 1e-7


# --- gluing equations ------------------------------------------------------------------

def test_gluing_complete_solution(fig8):
    tri, rho = fig8
    w = np.exp(1j * np.pi / 3)
    sol = solve_gluing_equations(tri, "complete", (0.4 + 1.1j, 0.6 + 0.7j))
    assert abs(sol.shapes[0] - w) < 1e-9
    assert abs(sol.shapes[1] - w) < 1e-9
    assert sol.residual < 1e-10
    assert sol.representation.relator_residual < 1e-8
    asg = build_developing_assignment(sol.representation, tri, seed=0)
    assert abs(representation_volume(sol.representation, tri, asg) - FIG8_VOL) < 1e-8


def test_gluing_complete_log_holonomies_vanish(fig8):
    tri, _ = fig8
    sol = solve_gluing_equations(tri, "complete", (0.4 + 1.1j, 0.6 + 0.7j))
    assert max(abs(h) for h in sol.log_holonomies) <= 1e-10


def test_gluing_jacobian_matches_finite_differences(rng):
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.uniform(0.2, 2.0, size=2)
        _, jac = _fig8_log_equations(*z)
        h = 1e-6
        for k in range(2):
            dz = np.zeros(2, dtype=complex)
            dz[k] = h
            fd = (_fig8_log_equations(*(z + dz))[0] - _fig8_log_equations(*(z - dz))[0]) / (2 * h)
            assert np.max(np.abs(fd - jac[:, k])) <= 1e-7 * max(1.0, np.max(np.abs(jac)))


def _sl2_word(mats, word):
    out = np.eye(2, dtype=complex)
    for tok in word.split():
        out = out @ (mats[tok] if tok in mats else np.linalg.inv(mats[tok.lower()]))
    return out


@pytest.mark.parametrize("filling", [(5, 1), (-4, 3), (3, 2)])
def test_continuation_log_holonomies_match_word_images(fig8, filling):
    # the reconstructed meridian and longitude images fix infinity, so
    # their squared (0,0) entries are the squared eigenvalues
    tri, _ = fig8
    solve = generate_path("dehn3d", {"triangulation": tri,
                                     "filling": filling}).meta["solver"]
    for t in np.linspace(0.0, 1.0, 11):
        sol = solve(float(t))
        a, b = _fig8_generators(*sol.shapes)
        mats = {"a": a, "b": b}
        u, v = sol.log_holonomies
        assert abs(np.exp(u) - _sl2_word(mats, FIG8_MERIDIAN)[0, 0] ** 2) <= 1e-10
        assert abs(np.exp(v) - _sl2_word(mats, FIG8_LONGITUDE)[0, 0] ** 2) <= 1e-10


@pytest.mark.parametrize("filling", [(5, 1), (-5, 1), (3, 2)])
def test_filled_solve_reaches_continuation_endpoint(fig8, filling):
    tri, _ = fig8
    direct = solve_gluing_equations(tri, filling, (0.5 + 0.8j, 0.5 + 0.8j))
    walked = generate_path("dehn3d", {"triangulation": tri,
                                      "filling": filling}).meta["solver"](1.0)
    assert np.max(np.abs(np.subtract(direct.shapes, walked.shapes))) <= 1e-9
    assert np.max(np.abs(np.subtract(direct.log_holonomies, walked.log_holonomies))) <= 1e-9


def test_gluing_rejects_real_line_shapes(fig8):
    tri, _ = fig8
    with pytest.raises(GluingError):
        solve_gluing_equations(tri, "complete", (0.5, 0.5 + 0.8j))


def test_gluing_filled_volume_decreases(fig8):
    tri, _ = fig8
    path = generate_path("dehn3d", {"triangulation": tri, "filling": (5, 1),
                                    "steps": 16})
    rep = path.evaluate(1.0)
    asg = build_developing_assignment(rep, tri, seed=0)
    vol = representation_volume(rep, tri, asg)
    assert vol < FIG8_VOL - 0.5
    assert rep.relator_residual < 1e-8


def test_dehn_scan_nonconstant_monotone(fig8):
    tri, _ = fig8
    path = generate_path("dehn3d", {"triangulation": tri, "filling": (5, 1),
                                    "steps": 16})
    report = scan_path(path, tri, 11, reference_vol=FIG8_VOL)
    assert report.verdict == "NonConstant"
    vols = [v for (_, v, _) in report.samples]
    assert all(vols[i] > vols[i + 1] for i in range(len(vols) - 1))
    assert all(v < FIG8_VOL + 1e-9 for v in vols)
    assert report.milnor_wood_margin_min >= -1e-6


@pytest.mark.parametrize("t", [0.3, 0.7, 1.0])
def test_dehn_continuation_solves_filled_equations(fig8, t):
    tri, _ = fig8
    vols = []
    for p, q in [(5, 1), (-5, 1)]:
        path = generate_path("dehn3d", {"triangulation": tri, "filling": (p, q)})
        sol = path.meta["solver"](t)
        z1, z2 = sol.shapes
        edge = (2 * np.log(z1) - np.log(1 - z1) - np.log(z2) + 2 * np.log(z2 - 1)
                - 2j * np.pi)
        u, v = sol.log_holonomies
        assert abs(edge) <= 1e-10
        assert abs(p * u + q * v - t * 2j * np.pi) <= 1e-10
        assert sol.residual <= 1e-11
        rep = path.evaluate(t)
        asg = build_developing_assignment(rep, tri, seed=0,
                                          boundary_preference="prefer_ideal")
        vols.append(representation_volume(rep, tri, asg))
    assert abs(vols[0] - vols[1]) <= 1e-9


# --- manifold-level oracles along the Dehn continuation -------------------

def _dehn_volume(tri, path, t):
    rep = path.evaluate(t)
    return representation_volume(rep, tri, build_developing_assignment(rep, tri, seed=0))


@pytest.mark.parametrize("filling", [(5, 1), (-5, 1), (3, 2)])
def test_dehn_volume_is_bloch_wigner_sum_of_shapes(fig8, filling):
    # Neumann-Zagier: the volume of the structure with shapes z_i is
    # sum D(z_i); the developed volume reaches its tetrahedra through the
    # reconstructed holonomy and the developing map, not through the shapes
    tri, _ = fig8
    path = generate_path("dehn3d", {"triangulation": tri, "filling": filling})
    solve = path.meta["solver"]
    report = scan_path(path, tri, 11)
    for t, vol, _ in report.samples:
        assert abs(vol - sum(bloch_wigner(z) for z in solve(t).shapes)) <= 1e-10


@pytest.mark.parametrize("filling", [(5, 1), (-5, 1)])
def test_dehn_volume_slope_at_the_complete_structure_is_neumann_zagier(fig8, filling):
    # Neumann-Zagier: as t -> 0, dVol/dt = -2 pi^2 t / Q(p, q) (1 + O(t^2))
    # with Q(p, q) = |p + q 2 sqrt(3) i|^2 / (2 sqrt(3)) for the cusp shape
    # 2 sqrt(3) i of the figure-eight; the relative residual must fall by
    # a factor near 4 when t halves
    tri, _ = fig8
    p, q = filling
    Q = abs(p + q * 2 * np.sqrt(3) * 1j) ** 2 / (2 * np.sqrt(3))
    path = generate_path("dehn3d", {"triangulation": tri, "filling": filling})
    h = 1e-3

    def relative_residual(t):
        dvol = (_dehn_volume(tri, path, t + h) - _dehn_volume(tri, path, t - h)) / (2 * h)
        return dvol / (-2 * np.pi ** 2 * t / Q) - 1.0

    ratio = relative_residual(0.1) / relative_residual(0.05)
    assert 3.8 <= ratio <= 4.2


@pytest.mark.parametrize("filling, dual", [((5, 1), (-1, 0)), ((-5, 1), (-1, 0)),
                                           ((3, 2), (1, 1))])
@pytest.mark.parametrize("t", [0.3, 0.5])
def test_dehn_volume_derivative_is_minus_pi_core_length(fig8, filling, dual, t):
    # Hodgson-Kerckhoff: along the cone-manifold deformation of angle
    # 2 pi t, dVol/dt = -pi l(t) with l the length of the core geodesic,
    # the real part of the dual holonomy r u + s v (p s - q r = 1)
    tri, _ = fig8
    (p, q), (r, s) = filling, dual
    assert p * s - q * r == 1
    path = generate_path("dehn3d", {"triangulation": tri, "filling": filling})
    h = 1e-3
    dvol = (_dehn_volume(tri, path, t + h) - _dehn_volume(tri, path, t - h)) / (2 * h)
    u, v = path.meta["solver"](t).log_holonomies
    length = abs((r * u + s * v).real)
    assert abs(dvol + np.pi * length) <= 1e-5
