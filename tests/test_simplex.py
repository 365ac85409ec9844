import itertools

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_point_tuple, random_so_element
from hypvol.cubature import IntegrationError, build_rule
from hypvol import simplex as simplex_mod
from hypvol.lorentz import Kind, LorentzVector, from_klein, minkowski_matrix
from hypvol.simplex import (
    REGULAR_IDEAL_VOLUME,
    GeodesicSimplex,
    HoroballAssignment,
    InfiniteFaceMeasureError,
    OverlappingHoroballsError,
    SimplexError,
    SimplexFamily,
    bloch_wigner,
    default_horoballs,
    dihedral_angle,
    dihedral_angles,
    face_measure,
    ideal_tet_volume,
    lobachevsky,
    numeric_volume,
    signed_volume,
    triangle_areas,
    truncated_edge_length,
    volume_evaluator,
)

V3 = REGULAR_IDEAL_VOLUME[3]


def regular_ideal_tet():
    V = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    return GeodesicSimplex([from_klein(v) for v in V])


def ideal_triangle(angles=(0.3, 2.4, 4.4)):
    return GeodesicSimplex([from_klein([np.cos(a), np.sin(a)]) for a in angles])


def random_simplex(rng, n, n_ideal, radius=0.95, center=None, diameter=None):
    """n+1 points in random order, n_ideal of them on the sphere; the
    material ones uniform in the Klein ball of the given radius, or in a
    cube of the given diameter about `center`."""
    pts = []
    for k in range(n + 1):
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        if k < n_ideal:
            pts.append(from_klein(d))
        elif diameter is not None:
            pts.append(from_klein(center + diameter * rng.uniform(-0.5, 0.5, size=n)))
        else:
            pts.append(from_klein(radius * rng.uniform() ** (1.0 / n) * d))
    return GeodesicSimplex([pts[k] for k in rng.permutation(n + 1)])


# --- Lobachevsky function -------------------------------------------------

def test_lobachevsky_against_clausen_series():
    # independent oracle: Clausen's function, L(t) = Cl_2(2t) / 2
    for t in [0.05, np.pi / 6, np.pi / 3, np.pi / 2, 1.1, 2.7, -0.9, 12.3]:
        ref = float(0.5 * mpmath.clsin(2, 2 * t))
        assert abs(lobachevsky(t) - ref) < 5e-14


def test_lobachevsky_against_defining_integral():
    # second oracle: numerical quadrature of -log|2 sin u|
    for t in [0.4, 1.0, 1.4]:
        ref, err = quad(lambda u: -np.log(abs(2 * np.sin(u))), 0, t, limit=200)
        assert abs(lobachevsky(t) - ref) < max(1e-10, 5 * err)


def test_lobachevsky_matches_horner_series():
    # reference: the same 40-term series summed by Horner's rule, one
    # angle at a time; only the order of summation differs
    rng = np.random.default_rng(4)
    ts = np.concatenate([rng.uniform(-7, 7, size=300), [1e-12, -3e-8, np.pi / 2, 0.0]])
    for t in ts:
        r = t - np.pi * np.round(t / np.pi)
        ratio = (r / np.pi) ** 2
        acc = 0.0
        for c in simplex_mod._LOB_COEFF[::-1]:
            acc = acc * ratio + c
        ref = 0.0 if r == 0 else r - r * np.log(abs(2 * r)) + r * ratio * acc
        assert abs(lobachevsky(t) - ref) <= 1e-15
    assert np.array_equal(lobachevsky(ts.reshape(4, -1)), lobachevsky(ts).reshape(4, -1))


def test_lobachevsky_odd_periodic_zeros():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(np.pi / 2)) < 1e-14
    rng = np.random.default_rng(1)
    ts = rng.uniform(-4, 4, size=50)
    assert np.max(np.abs(lobachevsky(ts) + lobachevsky(-ts))) < 1e-13
    assert np.max(np.abs(lobachevsky(ts) - lobachevsky(ts + np.pi))) < 1e-12


def test_lobachevsky_pi_six_value():
    assert abs(lobachevsky(np.pi / 6) - 0.5074708) < 1e-6


def test_bloch_wigner_against_mpmath():
    # independent oracle: D(z) = Im Li_2(z) + arg(1 - z) log|z| at 30 digits
    rng = np.random.default_rng(2)
    zs = [complex(x, y) for x, y in rng.normal(scale=2.0, size=(40, 2))]
    zs += [0.5 + 0.8660254037844386j, 1e-6 + 2e-6j, 1 + 1e-7j, -3 + 1e-9j,
           40 - 25j, 0.3 - 1e-4j, 0.5, -1.0]
    with mpmath.workdps(30):
        for z in zs:
            w = mpmath.mpc(z)
            ref = mpmath.im(mpmath.polylog(2, w)) + mpmath.arg(1 - w) * mpmath.log(abs(w))
            assert abs(bloch_wigner(z) - float(ref)) <= 1e-14
    assert abs(bloch_wigner(0.5 + 0.8660254037844386j) - V3) <= 1e-14
    assert bloch_wigner(0) == 0.0 and bloch_wigner(1) == 0.0


def test_bloch_wigner_symmetries():
    rng = np.random.default_rng(3)
    for x, y in rng.normal(size=(30, 2)):
        z = complex(x, y)
        d = bloch_wigner(z)
        for image in (z.conjugate(), 1 / z, 1 - z):
            assert abs(bloch_wigner(image) + d) <= 1e-14
        for image in (1 / (1 - z), 1 - 1 / z):
            assert abs(bloch_wigner(image) - d) <= 1e-14


# --- volumes ---------------------------------------------------------------

def test_degenerate_repeated_vertex_zero():
    p = from_klein([0.1, 0.2])
    q = from_klein([0.4, -0.1])
    s = GeodesicSimplex([p, q, p])
    assert signed_volume(s) == 0.0


def test_ideal_triangle_area_pi():
    tri = ideal_triangle()
    v = signed_volume(tri)
    assert abs(abs(v) - np.pi) < 1e-12
    # positively oriented order gives +pi
    if v < 0:
        tri = GeodesicSimplex([tri.vertices[1], tri.vertices[0], tri.vertices[2]])
    assert abs(signed_volume(tri) - np.pi) < 1e-12


def test_regular_ideal_tet_closed_form_and_cubature():
    tet = regular_ideal_tet()
    v = signed_volume(tet)
    assert abs(abs(v) - 1.0149416064) < 1e-7
    assert abs(abs(v) - 3 * lobachevsky(np.pi / 3)) < 1e-12
    num = numeric_volume(tet, 1e-8)
    assert abs(num - abs(v)) < 1e-6


def _all_ideal_tets(rng, count):
    """Random all-ideal tetrahedra with pairwise separated vertices:
    every fifth has a vertex at (1, 0, 0, -1), the point where one spinor
    chart degenerates, and every third is nearly flat, its vertices
    within 1e-9 to 1e-3 of a great circle."""
    tets = []
    while len(tets) < count:
        k = len(tets)
        if k % 3 == 0:
            a = rng.uniform(0.0, 2 * np.pi, size=4)
            lift = 10.0 ** rng.uniform(-9, -3) * rng.normal(size=4)
            pts = np.column_stack([np.cos(a), np.sin(a), lift])
        else:
            pts = rng.normal(size=(4, 3))
        if k % 5 == 0:
            pts[rng.integers(4)] = [0.0, 0.0, -1.0]
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        if min(np.linalg.norm(p - q) for p, q in itertools.combinations(pts, 2)) < 0.15:
            continue
        tet = GeodesicSimplex([from_klein(p) for p in pts])
        if not tet.is_degenerate():
            tets.append(tet)
    return tets


def test_all_ideal_cross_ratio_matches_dihedral_angles(rng, monkeypatch):
    # second route: Lobachevsky's formula on the dihedral angles at the
    # three edges through vertex 0, from the facet normals
    tets = _all_ideal_tets(rng, 200)
    oracle = []
    for tet in tets:
        angles = dihedral_angles(tet)[[2, 1, 1], [3, 3, 2]]
        sign = 1.0 if tet.orientation_det() > 0 else -1.0
        oracle.append(sign * float(lobachevsky(angles).sum()))

    def no_normals(_):
        raise AssertionError("the all-ideal closed form used facet normals")

    monkeypatch.setattr(simplex_mod, "_stacked_face_normals", no_normals)
    for tet, ref in zip(tets, oracle):
        assert abs(signed_volume(tet) - ref) <= 1e-13


def test_stacked_ideal_tet_volumes_equal_signed_volume(rng):
    # the stacked closed form against the one-simplex route, exactly,
    # with a degenerate (coplanar) tetrahedron among them
    tets = _all_ideal_tets(rng, 60)
    flat = GeodesicSimplex([from_klein(np.array([np.cos(a), np.sin(a), 0.0]))
                            for a in (0.1, 1.7, 3.0, 4.4)])
    assert flat.is_degenerate()
    tets.append(flat)
    rows = np.array([t.vertex_matrix() for t in tets]).reshape(61, 1, 4, 4)
    stack = simplex_mod._VertexStack.of(rows, np.ones((61, 1, 4), dtype=bool))
    stacked = simplex_mod._stack_volumes(stack)
    assert stacked.shape == (61, 1)
    assert stacked[:, 0].tolist() == [signed_volume(t) for t in tets]
    assert stacked[60, 0] == 0.0


def test_stacked_angle_defects_equal_signed_volume(rng):
    # the stacked angle defect of 2-simplices against the one-simplex
    # route, exactly, with ideal vertices and a degenerate triangle
    tris = [random_simplex(rng, 2, k % 4) for k in range(40)] + [ideal_triangle()]
    flat = GeodesicSimplex([from_klein(np.array([x, 0.5 * x])) for x in (-0.4, 0.1, 0.6)])
    assert flat.is_degenerate()
    tris.append(flat)
    stack = simplex_mod._VertexStack.of(np.array([t.vertex_matrix() for t in tris]),
                                        np.array([t.ideal_mask() for t in tris]))
    stacked = simplex_mod._stack_volumes(stack)
    assert stacked.tolist() == [signed_volume(t) for t in tris]
    assert stacked[-1] == 0.0


def test_numeric_volume_barycentric_additivity(rng):
    pts = random_point_tuple(rng, 3, 4, ideal_prob=0.4)
    s = GeodesicSimplex(pts)
    if s.is_degenerate():
        pytest.skip("degenerate draw")
    whole = numeric_volume(s, 1e-9)
    bary = from_klein(s.klein().mean(axis=0))
    parts = 0.0
    for i in range(4):
        verts = list(pts)
        verts[i] = bary
        piece = GeodesicSimplex(verts)
        parts += numeric_volume(piece, 1e-9)
    assert abs(parts - whole) < 2e-9


def test_numeric_volume_flat_limit_matches_euclidean(rng):
    pts = rng.normal(size=(5, 4)) * (1e-3 / 3)
    s = GeodesicSimplex([from_klein(p) for p in pts])
    v = numeric_volume(s, 1e-16)
    euclid = abs(np.linalg.det(pts[1:] - pts[0])) / 24.0
    assert abs(v / euclid - 1.0) < 0.01


def test_numeric_volume_dimension_five(rng):
    pts = rng.uniform(-0.35, 0.35, size=(6, 5))
    s = GeodesicSimplex([from_klein(p) for p in pts])
    whole = numeric_volume(s, 1e-9)
    bary = from_klein(s.klein().mean(axis=0))
    parts = sum(
        numeric_volume(GeodesicSimplex(
            [bary if k == i else v for k, v in enumerate(s.vertices)]), 1e-9)
        for i in range(6))
    assert abs(parts - whole) < 1e-8


def test_ideal_tet_volume_formula():
    assert abs(ideal_tet_volume(np.pi / 3, np.pi / 3, np.pi / 3) - 1.0149416064) < 1e-9
    beta = 1.1
    assert abs(ideal_tet_volume(0.0, beta, np.pi - beta)) < 1e-12
    with pytest.raises(SimplexError):
        ideal_tet_volume(0.5, 0.5, 0.5)


def test_ideal_tet_volume_matches_realization(rng):
    # realize angles by placing the vertex link as a Euclidean triangle
    for _ in range(5):
        alpha = rng.uniform(0.3, 1.4)
        beta = rng.uniform(0.3, min(1.6, np.pi - alpha - 0.2))
        gamma = np.pi - alpha - beta
        z = (np.sin(beta) / np.sin(gamma)) * np.exp(1j * alpha)
        pts = []
        for w in [None, 0j, 1 + 0j, z]:
            if w is None:
                pts.append(from_klein([0, 0, 1]))
            else:
                r2 = abs(w) ** 2
                pts.append(from_klein(
                    np.array([2 * w.real, 2 * w.imag, r2 - 1]) / (r2 + 1)))
        s = GeodesicSimplex(pts)
        assert abs(abs(signed_volume(s)) - ideal_tet_volume(alpha, beta, gamma)) < 1e-6


def test_signed_volume_antisymmetry(rng):
    pts = random_point_tuple(rng, 3, 4, ideal_prob=0.3)
    s = GeodesicSimplex(pts)
    v = signed_volume(s, 1e-10)
    for perm in itertools.permutations(range(4)):
        sign = np.sign(np.linalg.det(np.eye(4)[list(perm)]))
        sp = GeodesicSimplex([pts[i] for i in perm])
        assert abs(signed_volume(sp, 1e-10) - sign * v) < 1e-9


def test_signed_volume_isometry_invariance(rng):
    for n in (2, 3):
        pts = random_point_tuple(rng, n, n + 1, ideal_prob=0.3)
        s = GeodesicSimplex(pts)
        v = signed_volume(s, 1e-9)
        for _ in range(3):
            g = random_so_element(rng, n)
            moved = GeodesicSimplex([g.apply(p) for p in pts])
            assert abs(signed_volume(moved, 1e-9) - v) < 1e-8


def test_cocycle_identity_small_sample(rng):
    # alternating sum over the faces of a random (n+2)-tuple vanishes
    for n in (2, 3):
        for _ in range(10):
            pts = random_point_tuple(rng, n, n + 2, ideal_prob=0.3)
            total = 0.0
            for i in range(n + 2):
                face = [pts[k] for k in range(n + 2) if k != i]
                total += (-1) ** i * signed_volume(GeodesicSimplex(face), 1e-8)
            assert abs(total) < 1e-6


def test_volume_boundedness(rng):
    for n in (2, 3):
        for _ in range(20):
            pts = random_point_tuple(rng, n, n + 1, ideal_prob=0.5)
            v = signed_volume(GeodesicSimplex(pts), 1e-8)
            assert abs(v) <= REGULAR_IDEAL_VOLUME[n] + 1e-6


# --- angles and faces ------------------------------------------------------

def test_dihedral_angles_regular_ideal_tet():
    tet = regular_ideal_tet()
    for face in itertools.combinations(range(4), 2):
        assert abs(dihedral_angle(tet, face) - np.pi / 3) < 1e-9


def test_vertex_angle_of_ideal_triangle_zero(rng):
    tri = ideal_triangle()
    # face = a single vertex: omit the other two
    assert dihedral_angle(tri, (1, 2)) == 0.0
    assert signed_volume(tri) == np.pi
    for n_ideal in (1, 2, 3):
        for _ in range(200):
            s = random_simplex(rng, 2, n_ideal)
            for k in range(3):
                if s.vertices[k].kind is Kind.IDEAL:
                    assert dihedral_angle(s, tuple(j for j in range(3) if j != k)) == 0.0
    two_ideal = GeodesicSimplex([from_klein([1.0, 0.0]), from_klein([0.0, 1.0]),
                                 from_klein([0.1, -0.2])])
    assert dihedral_angle(two_ideal, (1, 2)) == 0.0
    assert dihedral_angle(two_ideal, (0, 2)) == 0.0


def test_material_triangle_angle_sum_below_pi(rng):
    for _ in range(10):
        pts = random_point_tuple(rng, 2, 3, ideal_prob=0.0)
        s = GeodesicSimplex(pts)
        if s.is_degenerate():
            continue
        total = sum(dihedral_angle(s, tuple(f))
                    for f in itertools.combinations(range(3), 2))
        assert total < np.pi


def test_dihedral_angle_isometry_and_scale_invariance(rng):
    tet = regular_ideal_tet()
    g = random_so_element(rng, 3)
    moved = GeodesicSimplex([g.apply(p) for p in tet.vertices])
    for face in itertools.combinations(range(4), 2):
        assert abs(dihedral_angle(moved, face) - dihedral_angle(tet, face)) < 1e-10
    scaled = GeodesicSimplex(
        [v.scaled(3.7) if v.kind is Kind.IDEAL else v for v in tet.vertices])
    for face in itertools.combinations(range(4), 2):
        assert dihedral_angle(scaled, face) == dihedral_angle(tet, face)


def test_face_measure_dimensions(rng):
    # n=2: points measure zero
    tri = ideal_triangle()
    assert face_measure(tri, (0, 1)) == 0.0
    # n=3 material edge
    x = LorentzVector.material([1, 0, 0, 0])
    y = LorentzVector.material([np.cosh(1), np.sinh(1), 0, 0])
    s = GeodesicSimplex([x, y, from_klein([0, 0.9, 0.1]), from_klein([0, 0.1, 0.9])])
    assert abs(face_measure(s, (2, 3)) - 1.0) < 1e-10
    # n=3 ideal endpoint refused
    s2 = GeodesicSimplex([x, from_klein([0, 1, 0]), from_klein([0.2, 0, 0.3]),
                          from_klein([-0.3, 0.1, 0])])
    with pytest.raises(InfiniteFaceMeasureError):
        face_measure(s2, (2, 3))


def test_face_measure_ideal_triangle_in_h4():
    ang = [0.2, 2.0, 4.2]
    ideal3 = [from_klein([np.cos(a), np.sin(a), 0, 0]) for a in ang]
    others = [from_klein([0.1, 0.2, 0.5, 0.1]), from_klein([0.0, -0.1, 0.2, -0.6])]
    s = GeodesicSimplex(ideal3 + others)
    assert abs(face_measure(s, (3, 4)) - np.pi) < 1e-9


def test_face_measure_scale_invariance(rng):
    ang = [0.4, 2.1, 4.0]
    ideal3 = [from_klein([np.cos(a), np.sin(a), 0, 0]) for a in ang]
    others = [from_klein([0.1, 0.2, 0.5, 0.1]), from_klein([0.0, -0.1, 0.2, -0.6])]
    s = GeodesicSimplex(ideal3 + others)
    scaled = GeodesicSimplex([v.scaled(2.5) if v.kind is Kind.IDEAL else v
                              for v in s.vertices])
    assert face_measure(scaled, (3, 4)) == face_measure(s, (3, 4))


def oracle_dihedral_angle(s, i, j):
    """One SVD per facet and the atan2 form on the two normals."""
    M = s.vertex_matrix()
    J = minkowski_matrix(s.dim)

    def normal(omit):
        _, _, vt = np.linalg.svd(np.delete(M, omit, axis=0) @ J)
        m = vt[-1] / np.sqrt(vt[-1] @ J @ vt[-1])
        return -m if m @ J @ M[omit] > 0 else m

    mi, mj = normal(i), normal(j)
    return 2 * np.arctan2(np.sqrt(max((mi + mj) @ J @ (mi + mj), 0.0)),
                          np.sqrt(max((mi - mj) @ J @ (mi - mj), 0.0)))


def test_dihedral_angles_match_per_pair_oracle(rng):
    checked = 0
    for n in (2, 3, 4):
        for n_ideal in range(n + 2):
            for _ in range(12):
                s = random_simplex(rng, n, n_ideal)
                if s.is_degenerate():
                    continue
                A = dihedral_angles(s)
                assert np.array_equal(A, A.T) and np.all(np.diag(A) == 0.0)
                for i, j in itertools.combinations(range(n + 1), 2):
                    ideal_corner = n == 2 and s.vertices[3 - i - j].kind is Kind.IDEAL
                    if ideal_corner:
                        assert A[i, j] == 0.0
                    else:
                        assert abs(A[i, j] - oracle_dihedral_angle(s, i, j)) < 1e-12
                    assert dihedral_angle(s, (i, j)) == A[i, j]
                    checked += 1
    assert checked > 1000


def test_dihedral_angle_refuses_bad_faces():
    tet = regular_ideal_tet()
    for face in ((1, 1), (0, 4), (-1, 2)):
        with pytest.raises(SimplexError):
            dihedral_angle(tet, face)


@pytest.mark.parametrize("case", ["ideal", "near_sphere", "small"])
def test_triangle_areas_match_span_basis_route(rng, case):
    faces = list(itertools.combinations(range(5), 2))
    simplices = []
    for k in range(24):
        if case == "ideal":
            simplices.append(random_simplex(rng, 4, 1 + k % 2))
        elif case == "near_sphere":
            # material vertices exactly at Klein radius 0.999
            s = random_simplex(rng, 4, k % 3, radius=1.0)
            simplices.append(GeodesicSimplex(
                [from_klein(0.999 * v.coords[1:] / np.linalg.norm(v.coords[1:]))
                 if v.kind is Kind.MATERIAL else v for v in s.vertices]))
        else:
            center = rng.uniform(-0.5, 0.5, size=4)
            simplices.append(random_simplex(rng, 4, 0, center=center, diameter=1e-3))
    for s in simplices:
        if s.is_degenerate():
            continue
        got = triangle_areas(s, faces)
        for face, area in zip(faces, got):
            keep = [k for k in range(5) if k not in face]
            ref = simplex_mod._span_face_measure(s.subsimplex(keep), 1e-12)
            assert abs(area - ref) <= 5e-13
            assert face_measure(s, face) == area


# --- truncated edge lengths ------------------------------------------------

def test_truncated_length_material_edge_ignores_horoballs():
    x = LorentzVector.material([1, 0, 0, 0])
    y = LorentzVector.material([np.cosh(1), np.sinh(1), 0, 0])
    s = GeodesicSimplex([x, y, from_klein([0, 0.9, 0]), from_klein([0, 0, 0.9])])
    h = HoroballAssignment({0: 5.0, 1: 0.2})
    assert abs(truncated_edge_length(s, (0, 1), h) - 1.0) < 1e-12


def test_truncated_length_busemann_shift():
    x = LorentzVector.material([1, 0, 0, 0])
    s = GeodesicSimplex([x, from_klein([1, 0, 0]), from_klein([0, 1, 0]),
                         from_klein([0, 0, 1])])
    base = truncated_edge_length(s, (0, 1), HoroballAssignment({1: 2.0}))
    shifted = truncated_edge_length(s, (0, 1), HoroballAssignment({1: 2.0 * np.e}))
    assert abs(shifted - base - 1.0) < 1e-10


def test_truncated_length_ideal_ideal_closed_form():
    from hypvol.lorentz import minkowski_inner
    a = from_klein([1, 0, 0])
    b = from_klein([-0.6, 0.8, 0])
    s = GeodesicSimplex([a, b, from_klein([0, 0, 0.2]), from_klein([0.1, 0.2, -0.3])])
    h = HoroballAssignment({0: 3.0, 1: 2.0})
    want = np.log(-minkowski_inner(a, b) * 6.0 / 2.0)
    assert abs(truncated_edge_length(s, (0, 1), h) - want) < 1e-9


def test_truncated_length_independent_oracle_horosphere_crossing():
    # march along the geodesic and find the horosphere crossings
    from hypvol.lorentz import minkowski_inner, minkowski_matrix
    a = from_klein([1, 0, 0])
    b = from_klein([-0.6, 0.8, 0])
    s = GeodesicSimplex([a, b, from_klein([0, 0, 0.2]), from_klein([0.1, 0.2, -0.3])])
    sa, sb = 3.0, 2.0
    h = HoroballAssignment({0: sa, 1: sb})
    want = truncated_edge_length(s, (0, 1), h)
    # parameterize the geodesic between the two ideal points
    J = minkowski_matrix(3)
    la = sa * a.coords
    lb = sb * b.coords
    ip = float(la @ J @ lb)
    # x(t) = (e^t la + e^-t lb) / sqrt(-2 ip) traces the geodesic
    denom = np.sqrt(-2.0 * ip)

    def busemann_a(t):
        x = (np.exp(t) * la + np.exp(-t) * lb) / denom
        return -float(x @ J @ la)

    def busemann_b(t):
        x = (np.exp(t) * la + np.exp(-t) * lb) / denom
        return -float(x @ J @ lb)

    from scipy.optimize import brentq
    ta = brentq(lambda t: busemann_a(t) - 1.0, -30, 30)
    tb = brentq(lambda t: busemann_b(t) - 1.0, -30, 30)
    assert abs(abs(tb - ta) - want) < 1e-9


def test_truncated_length_overlap_errors():
    a = from_klein([1, 0, 0])
    b = from_klein([-0.6, 0.8, 0])
    s = GeodesicSimplex([a, b, from_klein([0, 0, 0.2]), from_klein([0.1, 0.2, -0.3])])
    with pytest.raises(OverlappingHoroballsError):
        truncated_edge_length(s, (0, 1), HoroballAssignment({0: 0.2, 1: 0.2}))


def test_default_horoballs_are_valid(rng):
    for _ in range(10):
        pts = random_point_tuple(rng, 3, 4, ideal_prob=0.7)
        s = GeodesicSimplex(pts)
        if s.is_degenerate():
            continue
        h = default_horoballs(s)
        for i, j in itertools.combinations(range(4), 2):
            if s.vertices[i].kind is Kind.IDEAL or s.vertices[j].kind is Kind.IDEAL:
                assert truncated_edge_length(s, (i, j), h) > 0


# --- families and evaluators ------------------------------------------------

def test_family_type_change_detected():
    def fn(t):
        if t < 0.5:
            return ideal_triangle()
        return GeodesicSimplex([from_klein([0.1, 0.1]), from_klein([0.5, 0]),
                                from_klein([0, 0.5])])
    fam = SimplexFamily(fn)
    fam(0.2)
    with pytest.raises(SimplexError):
        fam(0.8)


def test_family_from_keyframes_c1():
    frames = []
    times = [0.0, 0.5, 1.0]
    for t in times:
        frames.append(GeodesicSimplex([
            from_klein([0.1 + 0.2 * t, 0.0]),
            from_klein([0.5, 0.1 * t]),
            from_klein([-0.2, 0.4]),
        ]))
    fam = SimplexFamily.from_keyframes(times, frames)
    # interpolates the keyframes
    for t, f in zip(times, frames):
        assert np.max(np.abs(fam(t).vertex_matrix() - f.vertex_matrix())) < 1e-12
    # C^1: difference quotients converge
    h1 = (fam(0.3 + 1e-4).vertex_matrix() - fam(0.3 - 1e-4).vertex_matrix()) / 2e-4
    h2 = (fam(0.3 + 5e-5).vertex_matrix() - fam(0.3 - 5e-5).vertex_matrix()) / 1e-4
    assert np.max(np.abs(h1 - h2)) < 1e-6


def test_family_from_keyframes_with_ideal_slots(rng):
    # spline interpolation drifts ideal rows off the cone by ~1e-5;
    # re-normalization must absorb that
    times = [0.0, 0.5, 1.0]
    frames = []
    sph = rng.normal(size=3)
    sph /= np.linalg.norm(sph)
    sphd = rng.normal(size=3) * 0.3
    base = rng.uniform(-0.3, 0.3, size=(3, 3))
    for t in times:
        u = sph + sphd * np.sin(2 * t)
        verts = [from_klein(u / np.linalg.norm(u))]
        verts += [from_klein(base[i] + 0.1 * t) for i in range(3)]
        frames.append(GeodesicSimplex(verts))
    fam = SimplexFamily.from_keyframes(times, frames)
    mid = fam(0.25)
    assert mid.vertices[0].kind is Kind.IDEAL
    assert abs(signed_volume(mid, 1e-8)) > 0


def test_volume_evaluator_frozen_rule_consistency(rng):
    pts = random_point_tuple(rng, 4, 5, ideal_prob=0.0, radius=0.6)
    s = GeodesicSimplex(pts)
    ev = volume_evaluator(s, 1e-10)
    assert abs(ev(s) - signed_volume(s, 1e-10)) < 1e-9


def test_rule_value_is_its_evaluation(rng):
    for n, ideal in ((3, [True, False, False, False]), (4, [False] * 5)):
        s = GeodesicSimplex(random_point_tuple(rng, n, n + 1, ideal_prob=0.0, radius=0.6))
        klein = s.klein()
        rule = build_rule(klein, ideal, 1e-10)
        assert rule.value == build_rule(klein, ideal, 1e-10).value
        assert abs(rule.value - rule.evaluate(klein)) <= 1e-13 * rule.value


def test_zeta_constants_match_scipy():
    from scipy.special import zeta

    from hypvol.simplex import _ZETA_EVEN

    assert np.array_equal(_ZETA_EVEN, zeta(2 * np.arange(1, 41, dtype=float)))


def test_integration_budget_error():
    # a tolerance below double precision exhausts the subdivision budget
    verts = np.array([[0.9999, 0], [0.99991, 1e-9], [0.99, 1e-5]])
    with pytest.raises(IntegrationError) as err:
        build_rule(verts, [False, False, False], 1e-280)
    assert err.value.bound > 1e-280


def _mixed_batch(rng):
    """n=4 simplices with 0, 1 and 2 ideal vertices, a degenerate one,
    n=3 simplices all-ideal and with 0, 1 and 2 ideal vertices, and an
    ideal triangle, interleaved."""
    batch = [random_simplex(rng, 4, k % 3, radius=0.9) for k in range(6)]
    batch += [random_simplex(rng, 3, k % 3, radius=0.9) for k in range(6)]
    batch.append(regular_ideal_tet())
    batch.append(ideal_triangle())
    flat = random_simplex(rng, 4, 1, radius=0.9)
    flat = GeodesicSimplex(flat.vertices[:4] + (flat.vertices[3],))
    assert flat.is_degenerate()
    batch.append(flat)
    return [batch[k] for k in rng.permutation(len(batch))]


def test_signed_volumes_match_signed_volume(rng):
    """One batched call gives each simplex's signed_volume: closed forms
    per simplex, 0 for the degenerate one, and one build_rules ladder per
    dimension for the rest."""
    batch = _mixed_batch(rng)
    together = simplex_mod.signed_volumes(batch, 1e-9)
    alone = [signed_volume(s, 1e-9) for s in batch]
    assert len(together) == len(batch)
    for a, b in zip(together, alone):
        assert a == pytest.approx(b, rel=1e-14, abs=0.0)
    assert sum(v == 0.0 for v in together) == 1


def test_signed_volumes_name_the_failing_simplex(rng):
    """An IntegrationError from the batched ladder names the simplex by
    its index in the list given, not in the cubature batch."""
    batch = [ideal_triangle(), regular_ideal_tet(), random_simplex(rng, 4, 0, radius=0.5),
             GeodesicSimplex(random_point_tuple(rng, 3, 4, ideal_prob=0.0, radius=0.5)),
             random_simplex(rng, 4, 0, radius=0.5)]
    with pytest.raises(IntegrationError, match="^simplex 2: requested tolerance") as err:
        simplex_mod.signed_volumes(batch, 1e-280)
    assert err.value.simplex == 2
