import copy
import itertools

import numpy as np
import pytest

from conftest import trig_family
from hypvol import simplex as simplex_mod
from hypvol.lorentz import LorentzVector, from_klein
from hypvol.simplex import (
    GeodesicSimplex,
    HoroballAssignment,
    InfiniteFaceMeasureError,
    SimplexError,
    SimplexFamily,
    default_horoballs,
    dihedral_angles,
    face_measure,
    lobachevsky,
    volume_evaluator,
)
from hypvol.schlafli import (
    FamilyDerivativeReport,
    NonIntegralDegreeError,
    family_derivatives,
    schlafli_residual,
    schlafli_residual_truncated_3d,
    transverse_degree,
    vertex_degree_2d,
)


def constant_family(simplex):
    return SimplexFamily(lambda t: simplex)


def isometry_orbit_family(rng, simplex, n):
    from scipy.linalg import expm
    from hypvol.lorentz import Isometry, minkowski_matrix
    X = rng.normal(size=(n + 1, n + 1)) * 0.3
    J = minkowski_matrix(n)
    X = 0.5 * (X - J @ X.T @ J)

    def fn(t):
        g = Isometry.from_matrix(expm(t * X))
        return GeodesicSimplex([g.apply(v) for v in simplex.vertices])

    return SimplexFamily(fn)


def build_star(rng, n, wedge_angles, signs, radius=0.8):
    """Star of simplices sharing a codimension-2 face, with prescribed
    wedge angles: wedge i spans [phi_i, phi_{i+1}] in the orthogonal
    2-plane at the face."""
    face_pts = [LorentzVector.basis_point(n)]
    delta = 0.7
    for k in range(n - 2):
        c = np.zeros(n + 1)
        c[0] = np.cosh(delta)
        c[1 + k] = np.sinh(delta)
        face_pts.append(LorentzVector.material(c))

    def wing(phi):
        c = np.zeros(n + 1)
        c[0] = np.cosh(radius)
        c[n - 1] = np.sinh(radius) * np.cos(phi)
        c[n] = np.sinh(radius) * np.sin(phi)
        return LorentzVector.material(c)

    phis = np.concatenate([[0.0], np.cumsum(wedge_angles)])
    star = []
    for i, eps in enumerate(signs):
        verts = face_pts + [wing(phis[i]), wing(phis[i + 1])]
        star.append((GeodesicSimplex(verts), eps))
    return star, face_pts


# --- family derivatives -----------------------------------------------------

def test_constant_family_derivatives_zero(rng):
    s = GeodesicSimplex([from_klein(k) for k in
                         rng.uniform(-0.4, 0.4, size=(5, 4))])
    rep = family_derivatives(constant_family(s), 0.5, 1e-4)
    assert abs(rep.dvol) < 1e-10
    assert all(abs(d) < 1e-10 for d in rep.dtheta.values())


def test_isometry_orbit_family_derivatives_zero(rng):
    s = GeodesicSimplex([from_klein(k) for k in
                         rng.uniform(-0.4, 0.4, size=(4, 3))])
    fam = isometry_orbit_family(rng, s, 3)
    rep = family_derivatives(fam, 0.5, 1e-4)
    assert abs(rep.dvol) < 1e-8
    assert all(abs(d) < 1e-8 for d in rep.dtheta.values())


def test_2d_gauss_bonnet_derivative(rng):
    fam = trig_family(rng, 2, n_ideal=0)
    rep = family_derivatives(fam, 0.5, 1e-4)
    # area = pi - angle sum, so the unsigned-volume derivative is minus
    # the angle-derivative total
    assert abs(rep.dvol + sum(rep.dtheta.values())) < 1e-6


def test_type_change_in_stencil_detected():
    def fn(t):
        if t < 0.5:
            return GeodesicSimplex([from_klein([0.1, 0.2]), from_klein([0.4, 0]),
                                    from_klein([0, 0.4])])
        return GeodesicSimplex([from_klein([1.0, 0.0]), from_klein([0.4, 0]),
                                from_klein([0, 0.4])])

    # a raw callable bypasses SimplexFamily's own per-call guard, so the
    # stencil check must name the offending vertex slot itself
    with pytest.raises(SimplexError, match="slot 0 changes kind within the stencil"):
        family_derivatives(fn, 0.5, 0.2)


# --- Schlafli residuals ------------------------------------------------------

def test_schlafli_residual_n4_material(rng):
    for _ in range(3):
        fam = trig_family(rng, 4, n_ideal=0)
        r1 = schlafli_residual(fam, 0.5, 1e-4)
        r2 = schlafli_residual(fam, 0.5, 5e-5)
        rep = family_derivatives(fam, 0.5, 1e-4)
        assert abs(r1) <= 1e-5 * (1.0 + abs(rep.dvol))
        assert 2.5 <= abs(r1 / r2) <= 6.0


def test_schlafli_residual_n4_one_ideal(rng):
    for _ in range(3):
        fam = trig_family(rng, 4, n_ideal=1)
        r1 = schlafli_residual(fam, 0.5, 1e-4)
        r2 = schlafli_residual(fam, 0.5, 5e-5)
        rep = family_derivatives(fam, 0.5, 1e-4)
        assert abs(r1) <= 1e-5 * (1.0 + abs(rep.dvol))
        assert 2.5 <= abs(r1 / r2) <= 6.0


def test_family_derivatives_batches_angles_and_areas(rng, monkeypatch):
    """An n=4 family's derivatives take the dihedral angles of both
    stencil sides (t -+ h) from one batched normal computation, and all
    face areas from Eriksson's formula, never from a span basis."""
    fam = trig_family(rng, 4, n_ideal=1)
    normals, spans = [], []
    stacked, span_basis = simplex_mod._stacked_face_normals, simplex_mod._span_basis
    monkeypatch.setattr(simplex_mod, "_stacked_face_normals",
                        lambda M: normals.append(M.shape) or stacked(M))
    monkeypatch.setattr(simplex_mod, "_span_basis",
                        lambda verts: spans.append(verts) or span_basis(verts))
    rep = family_derivatives(fam, 0.5, 1e-4)
    assert normals == [(2, 5, 5)] and spans == []
    assert len(rep.dtheta) == len(rep.face_measures) == 10


def _per_simplex_derivatives(fn, t, h, tol=1e-10):
    """family_derivatives rebuilt one simplex at a time: volume_evaluator
    on each stencil simplex, dihedral_angles on each side and
    face_measure on each face of the center."""
    center = fn(t)
    stencil = {dt: fn(t + dt) for dt in (-h, -h / 2, h / 2, h)}
    sign = 1.0 if center.orientation_det() > 0 else -1.0
    vol = volume_evaluator(center, tol)
    dvol = sign * (vol(stencil[h]) - vol(stencil[-h])) / (2 * h)
    dvol_half = sign * (vol(stencil[h / 2]) - vol(stencil[-h / 2])) / h
    plus, minus = dihedral_angles(stencil[h]), dihedral_angles(stencil[-h])
    faces = list(itertools.combinations(range(center.dim + 1), 2))
    measures = {}
    for face in faces:
        try:
            measures[face] = face_measure(center, face)
        except InfiniteFaceMeasureError:
            pass
    return FamilyDerivativeReport(
        t=t, h=h, dvol=dvol,
        dtheta={face: float(plus[face] - minus[face]) / (2 * h) for face in faces},
        face_measures=measures, error_estimate=abs(dvol - dvol_half) * (4.0 / 3.0))


@pytest.mark.parametrize("n, n_ideal", [(2, 0), (2, 1), (3, 4), (3, 1), (3, 2), (4, 0), (4, 1)],
                         ids=["n2", "n2-ideal", "n3-all-ideal", "n3-truncated-1",
                              "n3-truncated-2", "n4", "n4-ideal"])
def test_family_derivatives_equal_per_simplex_reference(rng, n, n_ideal):
    """The stacked stencil (one vertex stack, one frozen-rule evaluation,
    one batched normal computation) gives exactly the numbers of the
    one-simplex-at-a-time route, at h and again at h/2 from the memo."""
    for _ in range(2):
        twin = copy.deepcopy(rng)
        fam, same = trig_family(rng, n, n_ideal=n_ideal), trig_family(twin, n, n_ideal=n_ideal)
        for h in (1e-4, 5e-5):
            assert family_derivatives(fam, 0.5, h) == _per_simplex_derivatives(same, 0.5, h)


def test_residual_pair_evaluates_seven_times_with_one_rule(rng, monkeypatch):
    """A Schlafli residual at h and then at h/2 shares the center and the
    t -+ h/2 simplices through the family's memo, and the center's
    frozen rule with them: 7 distinct times and one rule, not 12 and 2."""
    twins = [copy.deepcopy(rng) for _ in range(2)]
    base = trig_family(rng, 4, n_ideal=1)
    times, rules = [], []
    fam = SimplexFamily(lambda t: times.append(t) or base(t), base.kinds)
    build_rule = simplex_mod.build_rule
    monkeypatch.setattr(simplex_mod, "build_rule",
                        lambda *args, **kwargs: rules.append(args) or build_rule(*args, **kwargs))
    r1 = schlafli_residual(fam, 0.5, 1e-4)
    r2 = schlafli_residual(fam, 0.5, 5e-5)
    assert len(times) == len(set(times)) == 7
    assert len(rules) == 1
    # the shared work changes no number: each residual on its own
    assert r1 == schlafli_residual(trig_family(twins[0], 4, n_ideal=1), 0.5, 1e-4)
    assert r2 == schlafli_residual(trig_family(twins[1], 4, n_ideal=1), 0.5, 5e-5)


def test_family_memo_refuses_a_kind_change_every_time():
    """A time whose simplex changes kind is not kept: each call there
    raises again, naming the slot, through the family and through
    family_derivatives alike."""
    def fn(t):
        first = [0.1, 0.2] if t < 0.6 else [1.0, 0.0]  # vertex 0 ideal from 0.6 on
        return GeodesicSimplex([from_klein(first), from_klein([0.4, 0]), from_klein([0, 0.4])])

    fam = SimplexFamily(fn)
    for _ in range(3):
        with pytest.raises(SimplexError, match="slot 0 changed kind"):
            fam(0.7)
        with pytest.raises(SimplexError, match="slot 0 changed kind"):
            family_derivatives(fam, 0.5, 0.2)
    assert fam(0.5) is fam(0.5)


def test_family_memo_stays_within_its_bound(rng):
    fam = trig_family(rng, 3, n_ideal=1)
    for t in np.linspace(0.0, 1.0, 100):
        fam(t)
        assert len(fam._memo) <= SimplexFamily._MEMO_SIZE
    assert fam(1.0) is fam(1.0)


def test_schlafli_residual_constant_zero(rng):
    s = GeodesicSimplex([from_klein(k) for k in rng.uniform(-0.4, 0.4, size=(5, 4))])
    assert abs(schlafli_residual(constant_family(s), 0.5, 1e-4)) < 1e-10


def test_schlafli_residual_refuses_infinite_edges(rng):
    fam = trig_family(rng, 3, n_ideal=1)
    with pytest.raises(InfiniteFaceMeasureError):
        schlafli_residual(fam, 0.5, 1e-4)


def test_truncated_3d_residual(rng):
    for n_ideal in (1, 2, 3):
        fam = trig_family(rng, 3, n_ideal=n_ideal)
        r = schlafli_residual_truncated_3d(fam, 0.5, 1e-4)
        assert abs(r) <= 1e-5


def test_truncated_3d_all_ideal_against_lobachevsky(rng):
    # all-ideal family parameterized by angles: compare the residual's
    # volume derivative against the closed-form derivative
    def realize(alpha, beta):
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
        return GeodesicSimplex(pts)

    def alpha(t):
        return 1.0 + 0.25 * np.sin(2 * t)

    def beta(t):
        return 0.9 + 0.2 * np.cos(3 * t)

    fam = SimplexFamily(lambda t: realize(alpha(t), beta(t)))
    r = schlafli_residual_truncated_3d(fam, 0.5, 1e-4)
    assert abs(r) <= 1e-5
    # direct check of dvol against the angle closed form
    rep = family_derivatives(fam, 0.5, 1e-4)
    h = 1e-5

    def vol(t):
        a, b = alpha(t), beta(t)
        return (lobachevsky(a) + lobachevsky(b) + lobachevsky(np.pi - a - b))

    dvol_cf = (vol(0.5 + h) - vol(0.5 - h)) / (2 * h)
    assert abs(abs(rep.dvol) - abs(dvol_cf)) < 1e-7


def test_truncated_3d_constant_family_zero(rng):
    fam = trig_family(rng, 3, n_ideal=2)
    frozen = fam(0.37)
    const = SimplexFamily(lambda t: frozen)
    assert abs(schlafli_residual_truncated_3d(const, 0.5, 1e-4)) < 1e-10


def test_truncated_3d_horoball_independence(rng):
    fam = trig_family(rng, 3, n_ideal=2)
    center = fam(0.5)
    h0 = default_horoballs(center)
    r0 = schlafli_residual_truncated_3d(fam, 0.5, 1e-4, h0)
    for u in (-1.0, 0.4, 1.0):
        h1 = HoroballAssignment({k: v * np.exp(u) for k, v in h0.scales.items()})
        r1 = schlafli_residual_truncated_3d(fam, 0.5, 1e-4, h1)
        assert abs(r1 - r0) <= 1e-8


# --- transverse degrees -------------------------------------------------------

def test_embedded_star_degree_one(rng):
    for n in (3, 4):
        k = int(rng.integers(4, 8))
        angles = rng.uniform(0.3, 1.0, size=k)
        angles = angles / angles.sum() * 2 * np.pi
        star, face = build_star(rng, n, angles, [1] * k)
        assert abs(transverse_degree(star, face)) == 1


def test_star_with_canceling_signs_degree_zero(rng):
    angles = np.array([1.2, 1.2])
    star, face = build_star(rng, 3, angles, [1, -1])
    assert transverse_degree(star, face) == 0


def test_double_wrap_star_degree_two(rng):
    k = 9
    angles = np.full(k, 4 * np.pi / k)
    star, face = build_star(rng, 3, angles, [1] * k)
    assert abs(transverse_degree(star, face)) == 2


def test_hexagonal_star_pi_over_three(rng):
    # six wedges of pi/3 each around a common edge in H^3
    angles = np.full(6, np.pi / 3)
    star, face = build_star(rng, 3, angles, [1] * 6)
    assert abs(transverse_degree(star, face)) == 1


def test_inconsistent_star_rejected(rng):
    angles = np.array([1.0, 1.0, 1.0])  # sums to 3, not a 2 pi multiple
    star, face = build_star(rng, 3, angles, [1, 1, 1])
    with pytest.raises(NonIntegralDegreeError):
        transverse_degree(star, face)


def test_vertex_degree_2d_fan(rng):
    k = 5
    angles = rng.uniform(0.5, 1.5, size=k)
    angles = angles / angles.sum() * 2 * np.pi
    star, face = build_star(rng, 2, angles, [1] * k)
    v = face[0]
    assert abs(vertex_degree_2d(star, v)) == 1
    flipped = [(s, -e) for s, e in star]
    assert vertex_degree_2d(flipped, v) == -vertex_degree_2d(star, v)


def test_vertex_degree_2d_ideal_vertex_zero(rng):
    ideal_v = from_klein([1.0, 0.0])
    a = from_klein([0.2, 0.3])
    b = from_klein([0.1, -0.4])
    star = [(GeodesicSimplex([ideal_v, a, b]), 1)]
    assert vertex_degree_2d(star, ideal_v) == 0


def test_degree_constant_along_family(rng):
    k = 5
    base = rng.uniform(0.5, 1.5, size=k)
    base = base / base.sum() * 2 * np.pi

    def star_at(t):
        # wedge angles wobble but keep their 2 pi sum
        w = base + 0.2 * np.sin(2 * t + np.arange(k))
        w = w / w.sum() * 2 * np.pi
        return build_star(np.random.default_rng(0), 3, w, [1] * k,
                          radius=0.8 + 0.1 * np.sin(t))

    degrees = set()
    for t in np.linspace(0, 1, 11):
        star, face = star_at(t)
        degrees.add(abs(transverse_degree(star, face)))
    assert degrees == {1}
