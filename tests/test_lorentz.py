import numpy as np
import pytest
from scipy.linalg import expm

from conftest import MIXED_PERIPHERAL, NO_FIXED_POINT, lifted_stack
from hypvol import lorentz as lorentz_mod
from hypvol.lorentz import (
    AmbiguousClassificationError,
    EmptyFixedSetError,
    Isometry,
    IsometryClass,
    LorentzError,
    LorentzVector,
    classify_isometry,
    common_fixed_set,
    distance,
    from_klein,
    lift_moebius,
    minkowski_gram_schmidt,
    minkowski_inner,
    minkowski_matrix,
    model_convert,
    so_algebra_residual,
)


def random_so_element(rng, n, scale=0.5):
    X = rng.normal(size=(n + 1, n + 1)) * scale
    J = minkowski_matrix(n)
    X = 0.5 * (X - J @ X.T @ J)  # antisymmetrize JX
    return Isometry.from_matrix(expm(X))


def rotation(theta, n=2):
    A = np.eye(n + 1)
    A[1, 1] = A[2, 2] = np.cos(theta)
    A[1, 2] = -np.sin(theta)
    A[2, 1] = np.sin(theta)
    return Isometry(A)


def test_inner_form_values():
    e0 = LorentzVector.basis_point(2)
    assert minkowski_inner(e0, e0) == -1.0
    e1 = LorentzVector.raw([0, 1, 0])
    assert minkowski_inner(e1, e1) == 1.0
    v = LorentzVector.raw([np.sqrt(2), 1, 0])
    assert abs(minkowski_inner(v, v) + 1.0) < 1e-12


def test_inner_dimension_mismatch():
    u = LorentzVector.raw([1, 0, 0])
    v = LorentzVector.raw([1, 0, 0, 0])
    with pytest.raises(LorentzError):
        minkowski_inner(u, v)


def test_distance_basics():
    e0 = LorentzVector.basis_point(2)
    assert distance(e0, e0) == 0.0
    y = LorentzVector.material([np.cosh(1), np.sinh(1), 0])
    assert abs(distance(e0, y) - 1.0) < 1e-12
    with pytest.raises(LorentzError):
        distance(e0, LorentzVector.ideal([1, 1, 0]))


def test_distance_isometry_invariance_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_so_element(rng, 3)
        pts = [from_klein(rng.uniform(-0.4, 0.4, size=3)) for _ in range(3)]
        x, y, z = pts
        assert abs(distance(g.apply(x), g.apply(y)) - distance(x, y)) < 1e-10
        assert distance(x, z) <= distance(x, y) + distance(y, z) + 1e-9


def test_model_convert_round_trip():
    rng = np.random.default_rng(5)
    e0 = LorentzVector.basis_point(3)
    assert np.allclose(model_convert(e0, "klein"), 0.0)
    ideal = LorentzVector.ideal([1, 1, 0, 0])
    k = model_convert(ideal, "klein")
    assert abs(np.linalg.norm(k) - 1.0) < 1e-12
    for _ in range(20):
        x = from_klein(rng.uniform(-0.5, 0.5, size=3))
        back = model_convert(model_convert(x, "klein"), "hyperboloid")
        assert np.max(np.abs(back.coords - x.coords)) < 1e-12
    with pytest.raises(LorentzError):
        model_convert(LorentzVector.raw([1, 2, 0, 0]), "klein")


def test_isometry_validation_rejects_bad_matrices():
    A = np.eye(4)
    A[0, 1] = 1e-3
    with pytest.raises(LorentzError):
        Isometry(A)
    B = np.eye(4)
    B[0, 0] = -1
    B[1, 1] = -1
    with pytest.raises(LorentzError):
        Isometry(B)


def test_products_and_inverses_pass_full_validation():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        g = Isometry.identity(n)
        for _ in range(30):
            h = random_so_element(rng, n)
            g = g @ h.inverse() @ h @ h
            Isometry(g.matrix)
            Isometry(g.inverse().matrix)
        assert np.max(np.abs((g @ g.inverse()).matrix - np.eye(n + 1))) < 1e-9
        assert Isometry.identity(n) is Isometry.identity(n)
    with pytest.raises(LorentzError):
        Isometry.identity(1)
    with pytest.raises(ValueError):
        minkowski_matrix(3)[0, 0] = 1.0


def test_applied_images_pass_full_validation():
    """apply re-projects its image and wraps it without validating; the
    wrapped point must still pass the LorentzVector check, frozen."""
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        for _ in range(20):
            g = random_so_element(rng, n, scale=1.5)
            d = rng.normal(size=n)
            d /= np.linalg.norm(d)
            points = [from_klein(0.9 * rng.uniform() * d), from_klein(d),
                      LorentzVector.raw(rng.normal(size=n + 1))]
            for x in points:
                y = g.apply(x)
                again = LorentzVector(y.coords, y.kind)
                assert y.kind is x.kind
                assert np.array_equal(again.coords, y.coords)
                assert not y.coords.flags.writeable
                assert np.max(np.abs(y.coords - g.matrix @ x.coords)) <= 1e-12 * np.max(
                    np.abs(g.matrix)) * np.max(np.abs(x.coords))


def test_form_preservation_random_products():
    rng = np.random.default_rng(11)
    J = minkowski_matrix(3)
    g = Isometry.identity(3)
    for _ in range(40):
        g = g @ random_so_element(rng, 3)
    assert np.max(np.abs(g.matrix.T @ J @ g.matrix - J)) < 1e-9
    u = LorentzVector.raw(rng.normal(size=4))
    v = LorentzVector.raw(rng.normal(size=4))
    gu, gv = g.apply(u), g.apply(v)
    assert abs(minkowski_inner(gu, gv) - minkowski_inner(u, v)) < 1e-9


def test_classify_identity_and_rotation():
    c = classify_isometry(Isometry.identity(3))
    assert c.kind is IsometryClass.IDENTITY and c.fixes_sphere
    c = classify_isometry(rotation(np.pi / 2))
    assert c.kind is IsometryClass.ELLIPTIC
    assert np.allclose(c.interior_fixed.coords, [1, 0, 0])


def test_classify_parabolic_lift():
    iso = lift_moebius(np.array([[1, 1], [0, 1]], dtype=complex))
    c = classify_isometry(iso)
    assert c.kind is IsometryClass.PARABOLIC
    assert len(c.ideal_fixed) == 1
    fp = c.ideal_fixed[0].unit().coords
    assert np.allclose(fp, [1, 0, 0, 1], atol=1e-9)


def test_classify_parabolic_lift_h2():
    # the real 2x2 shear lifts to a 3x3 parabolic
    iso = lift_moebius(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert iso.n == 2
    c = classify_isometry(iso)
    assert c.kind is IsometryClass.PARABOLIC
    assert len(c.ideal_fixed) == 1


def test_classify_strong_loxodromic_large_norm():
    iso = lift_moebius(np.array([[2000.0, 0], [0, 5e-4]], dtype=complex))
    c = classify_isometry(iso)
    assert c.kind is IsometryClass.LOXODROMIC
    assert len(c.ideal_fixed) == 2


def test_classify_loxodromic_lift():
    iso = lift_moebius(np.array([[2, 0], [0, 0.5]], dtype=complex))
    c = classify_isometry(iso)
    assert c.kind is IsometryClass.LOXODROMIC
    assert len(c.ideal_fixed) == 2


def test_classify_conjugation_covariance():
    rng = np.random.default_rng(7)
    iso = lift_moebius(np.array([[1, 1], [0, 1]], dtype=complex))
    for _ in range(10):
        g = random_so_element(rng, 3)
        conj = g @ iso @ g.inverse()
        c = classify_isometry(conj)
        assert c.kind is IsometryClass.PARABOLIC
        want = g.apply(classify_isometry(iso).ideal_fixed[0])
        assert c.ideal_fixed[0].same_point(want, tol=1e-6)


def test_classify_ambiguous_near_parabolic():
    # loxodromic with tiny translation length sits in the guard zone
    eps = 1e-7
    m = np.array([[np.exp(eps / 2), 0], [0, np.exp(-eps / 2)]], dtype=complex)
    with pytest.raises(AmbiguousClassificationError) as err:
        classify_isometry(lift_moebius(m))
    assert len(err.value.candidates) == 2


def test_common_fixed_set_identity_and_rotations():
    fs = common_fixed_set([Isometry.identity(2)])
    assert fs.sphere and np.allclose(fs.interior.coords, [1, 0, 0])
    fs = common_fixed_set([rotation(np.pi / 3), rotation(np.pi / 5)])
    assert np.allclose(fs.interior.coords, [1, 0, 0])
    assert fs.ideal == () and not fs.sphere


def test_common_fixed_set_shared_parabolic_point():
    p1 = lift_moebius(np.array([[1, 1], [0, 1]], dtype=complex))
    p2 = lift_moebius(np.array([[1, 1j], [0, 1]], dtype=complex))
    fs = common_fixed_set([p1, p2])
    assert fs.interior is None and len(fs.ideal) == 1
    assert np.allclose(fs.ideal[0].unit().coords, [1, 0, 0, 1], atol=1e-9)


def test_common_fixed_set_loxodromic_axis():
    g1 = lift_moebius(np.array([[2, 0], [0, 0.5]], dtype=complex))
    g2 = lift_moebius(np.array([[3, 0], [0, 1 / 3]], dtype=complex))
    fs = common_fixed_set([g1, g2])
    assert fs.interior is None and len(fs.ideal) == 2


def test_common_fixed_set_empty():
    g1 = lift_moebius(np.array([[2, 0], [0, 0.5]], dtype=complex))
    # parabolic fixing 1, sharing nothing with the axis {0, infinity}
    g2 = lift_moebius(np.array([[2, -1], [1, 0]], dtype=complex))
    with pytest.raises(EmptyFixedSetError):
        common_fixed_set([g1, g2])


INFINITY = [1, 0, 0, 1]  # the ideal point of z = infinity, fixed by upper triangular m
ZERO = [1, 0, 0, -1]


def _lift(m):
    return lift_moebius(np.array(m, dtype=complex))


def _unit_rays(fs):
    return sorted(tuple(np.round(p.unit().coords, 9)) for p in fs.ideal)


@pytest.mark.parametrize("order", [0, 1])
def test_common_fixed_set_loxodromic_and_parabolic_share_one_endpoint(order):
    lox = _lift([[2, 0], [0, 0.5]])       # axis from 0 to infinity
    par = _lift([[1, 1], [0, 1]])         # fixes infinity
    gens = [lox, par] if order == 0 else [par, lox]
    fs = common_fixed_set(gens)
    assert fs.interior is None and not fs.sphere
    assert len(fs.ideal) == 1
    assert np.allclose(fs.ideal[0].unit().coords, INFINITY, atol=1e-9)


def test_common_fixed_set_commuting_loxodromics_give_both_endpoints():
    g1 = _lift([[2, 0], [0, 0.5]])
    rot = np.exp(0.3 + 0.5j)             # a loxodromic with a rotational part
    g2 = _lift([[rot, 0], [0, 1 / rot]])
    fs = common_fixed_set([g1, g2])
    assert fs.interior is None
    assert _unit_rays(fs) == sorted([tuple(map(float, ZERO)), tuple(map(float, INFINITY))])


def test_common_fixed_set_elliptic_then_loxodromic_along_its_axis():
    # a rotation about the geodesic from 0 to infinity fixes that axis
    # pointwise; the boost along it fixes only the two endpoints
    phase = np.exp(0.5j * 1.1)
    ell = _lift([[phase, 0], [0, 1 / phase]])
    assert classify_isometry(ell).kind is IsometryClass.ELLIPTIC
    lox = _lift([[2, 0], [0, 0.5]])
    fs = common_fixed_set([ell, lox])
    assert fs.interior is None and not fs.sphere
    assert _unit_rays(fs) == sorted([tuple(map(float, ZERO)), tuple(map(float, INFINITY))])


def test_common_fixed_set_unrelated_parabolic_and_loxodromic_fix_nothing():
    par = _lift([[1, 1], [0, 1]])                   # fixes infinity
    lox = _lift([[np.cosh(1.0), np.sinh(1.0)],
                 [np.sinh(1.0), np.cosh(1.0)]])     # axis from -1 to 1
    for gens in ([par, lox], [lox, par]):
        with pytest.raises(EmptyFixedSetError):
            common_fixed_set(gens)


def test_common_fixed_set_classifies_up_to_first_loxodromic_or_parabolic(monkeypatch):
    """Only the first generator is classified: one classification pass,
    over a stack holding its matrix alone."""
    calls = []
    classify = lorentz_mod._classify_stack
    monkeypatch.setattr(lorentz_mod, "_classify_stack",
                        lambda A, tol: calls.append(A.copy()) or classify(A, tol))
    par = _lift([[1, 1], [0, 1]])
    fs = common_fixed_set([par, _lift([[1, 1j], [0, 1]]), _lift([[2, 1], [0, 0.5]])])
    assert len(calls) == 1 and np.array_equal(calls[0], par.matrix[None])
    assert len(fs.ideal) == 1 and np.allclose(fs.ideal[0].unit().coords, INFINITY, atol=1e-9)


def test_common_fixed_set_singleton_matches_classification():
    rng = np.random.default_rng(13)
    for m in ([[2, 0], [0, 0.5]], [[1, 1], [0, 1]]):
        iso = lift_moebius(np.array(m, dtype=complex))
        cls = classify_isometry(iso)
        fs = common_fixed_set([iso])
        assert (fs.interior is None) == (cls.interior_fixed is None)
        assert len(fs.ideal) == len(cls.ideal_fixed)
        for p in cls.ideal_fixed:
            assert any(p.same_point(q, tol=1e-7) for q in fs.ideal)


def _same_point(p, q):
    return p.kind is q.kind and np.array_equal(p.coords, q.coords)


def test_stacked_fixed_sets_equal_their_stacks_of_one():
    """Each sample of one mixed stack gets the FixedSet that
    common_fixed_set (the stack of one) gives it: the same kinds and the
    same coordinates, bit for bit."""
    pairs = list(MIXED_PERIPHERAL.values())
    stacked = lorentz_mod._fixed_sets(lifted_stack(pairs), 1e-8)
    with pytest.raises(AmbiguousClassificationError):
        classify_isometry(lift_moebius(np.array(MIXED_PERIPHERAL["near-parabolic"][0],
                                                dtype=complex)))
    for name, pair, fs in zip(MIXED_PERIPHERAL, pairs, stacked, strict=True):
        one = common_fixed_set([lift_moebius(np.array(m, dtype=complex)) for m in pair])
        assert fs.sphere == one.sphere, name
        assert (fs.interior is None) == (one.interior is None), name
        assert fs.interior is None or _same_point(fs.interior, one.interior), name
        assert len(fs.ideal) == len(one.ideal), name
        assert all(_same_point(p, q) for p, q in zip(fs.ideal, one.ideal)), name
    counts = {name: (fs.interior is not None, len(fs.ideal), fs.sphere)
              for name, fs in zip(MIXED_PERIPHERAL, stacked)}
    assert counts == {"identity": (True, 0, True), "rotation-axis": (True, 2, False),
                      "parabolic": (False, 1, False), "loxodromic-pair": (False, 2, False),
                      "near-parabolic": (False, 1, False), "torsion": (False, 1, False)}
    for name in ("parabolic", "near-parabolic", "torsion"):
        fs = stacked[list(MIXED_PERIPHERAL).index(name)]
        assert np.allclose(fs.ideal[0].unit().coords, INFINITY, atol=1e-9), name


def test_stacked_fixed_sets_take_the_svd_only_where_no_generator_decides(monkeypatch):
    """Generators are classified first: a loxodromic or parabolic one
    decides its sample, and the identity needs nothing, so of the mixed
    stack only the two rotations about one axis reach the SVD; that
    sample keeps its interior point."""
    shapes = []
    fixed_subspaces = lorentz_mod._fixed_subspaces
    monkeypatch.setattr(lorentz_mod, "_fixed_subspaces",
                        lambda D, tol: shapes.append(D.shape) or fixed_subspaces(D, tol))
    stacked = lorentz_mod._fixed_sets(lifted_stack(list(MIXED_PERIPHERAL.values())), 1e-8)
    # classification takes its own SVD of one generator's (A - I), (S, 4, 4)
    assert [shape for shape in shapes if shape[1] != 4] == [(1, 8, 4)]
    rotations = stacked[list(MIXED_PERIPHERAL).index("rotation-axis")]
    assert rotations.interior is not None and not rotations.sphere
    assert np.allclose(rotations.interior.coords, [1, 0, 0, 0], atol=1e-12)
    assert _unit_rays(rotations) == sorted([tuple(map(float, ZERO)), tuple(map(float, INFINITY))])


def test_stacked_fixed_sets_name_the_first_sample_fixing_nothing():
    pairs = list(MIXED_PERIPHERAL.values())
    pairs[3:3] = [NO_FIXED_POINT]
    pairs[5:5] = [NO_FIXED_POINT]
    with pytest.raises(EmptyFixedSetError, match="^sample 3: no common fixed point") as err:
        lorentz_mod._fixed_sets(lifted_stack(pairs), 1e-8)
    assert err.value.sample == 3
    with pytest.raises(EmptyFixedSetError, match="^no common fixed point") as err:
        lorentz_mod._fixed_sets(lifted_stack([NO_FIXED_POINT]), 1e-8)
    assert err.value.sample == 0


def test_lift_homomorphism_and_involution():
    rng = np.random.default_rng(17)
    for _ in range(15):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m / np.sqrt(np.linalg.det(m))
        nmat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        nmat = nmat / np.sqrt(np.linalg.det(nmat))
        lhs = lift_moebius(m @ nmat).matrix
        rhs = (lift_moebius(m) @ lift_moebius(nmat)).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        assert np.max(np.abs(lift_moebius(-m).matrix - lift_moebius(m).matrix)) < 1e-12
        inv = lift_moebius(np.linalg.inv(m))
        prod = (lift_moebius(m) @ inv).matrix
        assert np.max(np.abs(prod - np.eye(4))) < 1e-10


def test_lift_trace_relation():
    # tr(lift m) = |tr m|^2 on H^3; (tr m)^2 - 1 on H^2
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m / np.sqrt(np.linalg.det(m))
        assert abs(np.trace(lift_moebius(m).matrix) - abs(np.trace(m)) ** 2) < 1e-9
        r = rng.normal(size=(2, 2))
        d = np.linalg.det(r)
        if d <= 0:
            continue
        r = r / np.sqrt(d)
        assert abs(np.trace(lift_moebius(r).matrix) - (np.trace(r) ** 2 - 1)) < 1e-9


def test_lift_rejects_bad_determinant():
    with pytest.raises(LorentzError):
        lift_moebius(np.array([[2, 0], [0, 1]], dtype=complex))


def _hermitian(x):
    return np.array([[x[0] + x[3], x[1] + 1j * x[2]], [x[1] - 1j * x[2], x[0] - x[3]]])


def _symmetric(x):
    return np.array([[x[0] + x[2], x[1]], [x[1], x[0] - x[2]]])


def test_lift_matches_the_action_on_hermitian_and_symmetric_matrices():
    # the closed-form lift against X -> m X m^* (H^3) and X -> m X m^T
    # (H^2), applied to random coordinate vectors
    rng = np.random.default_rng(29)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m / np.sqrt(np.linalg.det(m))
        x = rng.normal(size=4)
        image = m @ _hermitian(x) @ m.conj().T
        want = np.array([(image[0, 0] + image[1, 1]).real / 2, image[0, 1].real,
                         image[0, 1].imag, (image[0, 0] - image[1, 1]).real / 2])
        got = lift_moebius(m).matrix @ x
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

        r = rng.normal(size=(2, 2))
        r[1] *= np.sign(np.linalg.det(r))
        r = r / np.sqrt(np.linalg.det(r))
        y = rng.normal(size=3)
        image = r @ _symmetric(y) @ r.T
        want = np.array([(image[0, 0] + image[1, 1]) / 2, image[0, 1],
                         (image[0, 0] - image[1, 1]) / 2])
        got = lift_moebius(r).matrix @ y
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_lift_and_from_matrix_refusals():
    with pytest.raises(LorentzError, match="determinant"):
        lift_moebius(np.array([[1.0, 1.0], [0.0, 1.5]]))
    with pytest.raises(LorentzError, match="expected a 2x2"):
        lift_moebius(np.eye(3))
    with pytest.raises(LorentzError, match="H\\^2 lift needs a real matrix"):
        lift_moebius(np.array([[1, 1j], [0, 1]]), dim=2)
    with pytest.raises(LorentzError, match="dimension 2 or 3"):
        lift_moebius(np.eye(2), dim=4)
    with pytest.raises(LorentzError, match="form residual"):
        Isometry.from_matrix(np.diag([1.0, 2.0, 1.0, 1.0]))
    with pytest.raises(LorentzError, match="determinant"):
        Isometry.from_matrix(np.diag([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(LorentzError, match="A_00"):
        Isometry.from_matrix(np.diag([-1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(LorentzError, match="square"):
        Isometry.from_matrix(np.eye(2))
    # a drifted isometry is reprojected and accepted, and only then
    g = lift_moebius(np.array([[2, 1], [0, 0.5]], dtype=complex)).matrix
    drifted = g + 1e-9
    assert Isometry.from_matrix(drifted).matrix is not drifted
    with pytest.raises(LorentzError, match="form residual"):
        Isometry(drifted)


def test_gram_schmidt_reprojects():
    rng = np.random.default_rng(23)
    g = random_so_element(rng, 3)
    noisy = g.matrix + rng.normal(size=(4, 4)) * 1e-7
    fixed = minkowski_gram_schmidt(noisy)
    J = minkowski_matrix(3)
    assert np.max(np.abs(fixed.T @ J @ fixed - J)) < 1e-12
    assert np.max(np.abs(fixed - g.matrix)) < 1e-5


def test_stacked_products_reproject_only_the_drifted():
    """_reproject_drifted on a stack of products reprojects exactly the
    matrices whose form residual is above half the validation tolerance,
    each to the bits minkowski_gram_schmidt gives it alone, and returns
    the others untouched, leaving its input as it was."""
    rng = np.random.default_rng(31)
    P = np.array([random_so_element(rng, 3).matrix @ random_so_element(rng, 3).matrix
                  for _ in range(6)])
    drift = np.array([False, True, False, True, True, False])
    P[drift] += rng.normal(size=(drift.sum(), 4, 4)) * 1e-8
    resid, scale = lorentz_mod._form_residuals(P)
    assert np.array_equal(resid > 0.5 * lorentz_mod.FORM_TOL * scale, drift)
    before = P.copy()
    out = lorentz_mod._reproject_drifted(P)
    assert np.array_equal(P, before)
    for i, (p, q) in enumerate(zip(P, out, strict=True)):
        assert np.array_equal(q, minkowski_gram_schmidt(p) if drift[i] else p)


def test_so_algebra_residual():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(4, 4))
    J = minkowski_matrix(3)
    Xp = 0.5 * (X - J @ X.T @ J)
    assert so_algebra_residual(Xp) < 1e-12
    assert so_algebra_residual(np.eye(4)) > 0.1


def test_ideal_scaling_projective_equality():
    p = LorentzVector.ideal([2, 2, 0, 0])
    q = LorentzVector.ideal([5, 5, 0, 0])
    assert p.same_point(q)
    assert not p.same_point(LorentzVector.ideal([1, 0, 1, 0]))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: LorentzVector.material([NAN, 0.0, 0.0]),
    lambda: LorentzVector.material([1.0, NAN, 0.0]),
    lambda: LorentzVector.ideal([NAN, 0.0, 1.0]),
    lambda: LorentzVector.ideal([1.0, INF, 0.0]),
    lambda: LorentzVector(np.array([NAN, 0.0, 0.0]), lorentz_mod.Kind.MATERIAL),
    lambda: LorentzVector(np.array([1.0, 1.0, NAN]), lorentz_mod.Kind.IDEAL),
    lambda: LorentzVector.raw([0.0, INF, 0.0]),
    lambda: from_klein([NAN, 0.0]),
    lambda: from_klein([0.1, 0.2, NAN]),
], ids=["material-x0", "material-space", "ideal-x0", "ideal-space", "post-init-material",
        "post-init-ideal", "raw", "klein-nan", "klein-nan-3d"])
def test_non_finite_coordinates_are_refused(make):
    with pytest.raises(LorentzError, match="not finite"):
        make()


@pytest.mark.parametrize("project, bad, message", [
    ("_project_ideal", [NAN, 0.6, 0.8], "not finite"),
    ("_project_ideal", [-1.0, 0.6, 0.8], "x0 > 0"),
    ("_project_ideal", [1.0, 0.0, 0.0], "zero space part"),
    ("_project_ideal", [1.0, 0.5, 0.5], "too far from the light cone"),
    ("_project_material", [1.0, INF, 0.0], "not finite"),
    ("_project_material", [INF, 0.0, 0.0], "not finite"),
    ("_project_material", [1.0, 2.0, 0.0], "not timelike future-pointing"),
    ("_project_material", [-2.0, 0.5, 0.0], "not timelike future-pointing"),
], ids=["ideal-nan", "ideal-past", "ideal-no-space", "ideal-far", "material-inf-space",
        "material-inf-x0", "material-spacelike", "material-past"])
def test_stacked_projection_refuses_its_first_bad_row(project, bad, message):
    """A stack of developed points is refused as each of its rows would
    be on its own, and a stack of good rows projects row by row."""
    good = [[1.0, 0.6, 0.8], [2.0, -1.6, 1.2001]] if project == "_project_ideal" \
        else [[2.0, 0.6, 0.8], [3.0, -1.2, 0.4]]
    fn = getattr(lorentz_mod, project)
    with pytest.raises(LorentzError, match=message):
        fn(np.array(bad))
    with pytest.raises(LorentzError, match=message):
        fn(np.array([good[0], bad, good[1]]))
    rows = np.array(good)
    assert all(np.array_equal(r, fn(x)) for r, x in zip(fn(rows), rows))


@pytest.mark.parametrize("gap", [1e-8, 1e-10, 1e-11])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_material_points_close_to_the_sphere_lift(n, gap):
    """A Klein point with 1 - |k|^2 = gap lifts to x0 ~ gap^(-1/2), where
    <x,x> rounds by about eps x0^2: every direction lifts, the lift
    passes LorentzVector.material and the constructor again, and its
    Klein coordinates come back."""
    rng = np.random.default_rng(int(n / gap) % 2**32)
    for _ in range(200):
        d = rng.normal(size=n)
        k = d / np.linalg.norm(d) * np.sqrt(1.0 - gap)
        x = from_klein(k)
        assert x.kind is lorentz_mod.Kind.MATERIAL
        again = LorentzVector.material(x.coords)
        LorentzVector(x.coords, lorentz_mod.Kind.MATERIAL)
        for y in (x, again):
            assert np.max(np.abs(model_convert(y, "klein") - k)) <= 4e-16


def test_from_klein_keeps_the_ideal_time_coordinate():
    """An ideal lift's x0 is the length of its space part, as
    LorentzVector.ideal resets it, not 1."""
    k = np.array([0.8961636735304289, 0.31601577070862796, -0.29289787320811606,
                  -0.10599782439956573])  # |k / |k|| rounds to 1 - eps/2
    x = from_klein(k)
    assert x.kind is lorentz_mod.Kind.IDEAL
    assert x.coords[0] == 0.9999999999999999
    assert np.array_equal(x.coords, LorentzVector.ideal(np.concatenate(([1.0], k / np.sqrt(k @ k)))).coords)
