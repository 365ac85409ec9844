import itertools
from math import factorial

import mpmath
import numpy as np
import pytest

from conftest import parabolic_so41
from hypvol import cubature
from hypvol.cubature import (
    IntegrationError,
    VolumeRule,
    _cell_frames,
    _diagonal_skip,
    _face_sums,
    _radial_kernel,
    _simplex_matrices,
    build_rule,
    build_rules,
)
from hypvol.fixtures import suspension_4d
from hypvol.repvol import build_developing_assignment, check_representation


def cell_value(mix, has_ideal, klein, g, ideal):
    """One cell's value at degree g: a one-cell frozen rule, with the
    simplex's ideal-vertex mask, evaluated on the Klein simplex."""
    return VolumeRule(((mix, has_ideal, g),), 0.0, 0.0, tuple(ideal)).evaluate(klein)


def dense_collapsed_rule(n, g, ideal_corner):
    """The g^n-point collapsed (Duffy) rule on the simplex with the
    collapse corner first, built point by point: barycentric rows C and
    weights omega with integral over the simplex = |det| * omega . f(C W).
    At an ideal corner the radial node is squared."""
    x, w = np.polynomial.legendre.leggauss(g)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    rows, weights = [], []
    for idx in itertools.product(range(g), repeat=n):
        u, weight = x[list(idx)], float(np.prod(w[list(idx)]))
        r = u[0] ** 2 if ideal_corner else u[0]
        if ideal_corner:
            weight *= 2.0 * u[0]
        weight *= r ** (n - 1)
        face, rest = [], 1.0
        for k in range(1, n):
            face.append(u[k] * rest)
            weight *= (1.0 - u[k]) ** (n - 1 - k)
            rest *= 1.0 - u[k]
        face.append(rest)
        rows.append([1.0 - r] + [r * b for b in face])
        weights.append(weight)
    return np.array(rows), np.array(weights)


def _klein_simplex(rng, n, nideal, rmin, rmax):
    """Random Klein vertices, the first nideal on the sphere and the rest
    at radii drawn from [rmin, rmax)."""
    dirs = rng.normal(size=(n + 1, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.where(np.arange(n + 1) < nideal, 1.0, rng.uniform(rmin, rmax, n + 1))
    return dirs * radii[:, None]


def face_rule(n, g):
    """The g^{n-1}-point collapsed Gauss rule on the standard
    (n-1)-simplex, built point by point: barycentric rows and weights
    summing to 1/(n-1)!."""
    x, w = np.polynomial.legendre.leggauss(g)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    rows, weights = [], []
    for idx in itertools.product(range(g), repeat=n - 1):
        u, weight = x[list(idx)], float(np.prod(w[list(idx)]))
        face, rest = [], 1.0
        for k in range(n - 1):
            face.append(u[k] * rest)
            weight *= (1.0 - u[k]) ** (n - 2 - k)
            rest *= 1.0 - u[k]
        face.append(rest)
        rows.append(face)
        weights.append(weight)
    return np.array(rows), np.array(weights)


def radial_integral(w0, q, n):
    """int_0^1 r^{n-1} (1 - |(1-r) w0 + r q|^2)^{-(n+1)/2} dr by mpmath
    quadrature, with 1 - |w0 + r d|^2 = a - 2 r w0.d - r^2 |d|^2 expanded
    in extended precision and r = u^2 to smooth the ideal-corner end."""
    w0 = [mpmath.mpf(float(v)) for v in w0]
    d = [mpmath.mpf(float(v)) - u for u, v in zip(w0, q)]
    a = 1 - mpmath.fsum(u * u for u in w0)
    b = mpmath.fsum(u * v for u, v in zip(w0, d))
    s = mpmath.fsum(v * v for v in d)
    p = -mpmath.mpf(n + 1) / 2
    return mpmath.quad(lambda u: 2 * u ** (2 * n - 1) * (a - u * u * (2 * b + u * u * s)) ** p,
                       [0, 1])


def _cell_simplex(n, ideal_corner):
    """A random Klein simplex with material vertices at radii in [0.2,
    0.8); at an ideal corner vertex 0 is a unit coordinate vector, so it
    lies exactly on the sphere in double precision too."""
    klein = _klein_simplex(np.random.default_rng(10 * n + ideal_corner), n, 0, 0.2, 0.8)
    if ideal_corner:
        klein[0] = 0.0
        klein[0, -1] = -1.0
    return klein


_FACE_DEGREE = {2: 12, 3: 8, 4: 6}


@pytest.mark.parametrize("ideal_corner", [False, True], ids=["material", "ideal"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_eval_cell_matches_pointwise_face_rule(n, ideal_corner):
    """A cell's value is |det| times the face rule summed over exact
    radial integrals, here each one taken by mpmath."""
    klein = _cell_simplex(n, ideal_corner)
    g = _FACE_DEGREE[n]
    beta, wf = face_rule(n, g)
    assert wf.sum() == pytest.approx(1.0 / factorial(n - 1), rel=1e-13)
    with mpmath.workdps(20):
        total = mpmath.fsum(wk * radial_integral(klein[0], b @ klein[1:], n)
                            for b, wk in zip(beta, wf))
    expected = abs(np.linalg.det(klein[1:] - klein[0])) * float(total)
    got = cell_value(np.eye(n + 1), ideal_corner, klein, g, (ideal_corner,) + (False,) * n)
    assert got == pytest.approx(expected, rel=1e-13)


# A Gauss degree at which the dense g^n rule has converged to 1e-10 on
# each _cell_simplex (its ideal-corner radial axis converges slowest).
_DENSE_DEGREE = {(2, False): 48, (2, True): 48, (3, False): 24, (3, True): 24,
                 (4, False): 13, (4, True): 19}


@pytest.mark.parametrize("ideal_corner", [False, True], ids=["material", "ideal"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_eval_cell_matches_dense_collapsed_rule(n, ideal_corner):
    """The face rule with closed-form radial integrals agrees with the
    g^n collapsed Gauss rule that integrates the radial axis too."""
    klein = _cell_simplex(n, ideal_corner)
    C, omega = dense_collapsed_rule(n, _DENSE_DEGREE[n, ideal_corner], ideal_corner)
    assert omega.sum() == pytest.approx(1.0 / factorial(n), rel=1e-13)
    pts = C @ klein
    f = (1.0 - np.sum(pts * pts, axis=1)) ** (-(n + 1) / 2.0)
    dense = abs(np.linalg.det(klein[1:] - klein[0])) * float(omega @ f)
    got = cell_value(np.eye(n + 1), ideal_corner, klein, _DENSE_DEGREE[n, ideal_corner],
                     (ideal_corner,) + (False,) * n)
    assert got == pytest.approx(dense, rel=1e-10)


def _kernel_reference(n, x):
    """K_n(x) = cosh(d) S_n(d) / sinh(d)^n at x = tanh d, with S_n(d) =
    int_0^d sinh^{n-1} by mpmath quadrature in 40 digits, taken as
    d int_0^1 sinh(d v)^{n-1} dv so that the integrand is O(1) at small d."""
    with mpmath.workdps(40):
        d = mpmath.atanh(mpmath.mpf(x))
        sd = mpmath.sinh(d)
        ratio = mpmath.quad(lambda v: (mpmath.sinh(d * v) / sd) ** (n - 1), [0, 1])
        return float(mpmath.cosh(d) * d * ratio / sd)


_KERNEL_XS = (1e-8, 1e-4, 1e-2, 0.29, 0.31, 0.5, 0.99, 1.0 - 1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_radial_kernel_matches_mpmath(n):
    x = np.array(_KERNEL_XS)
    m = np.sqrt((1.0 - x) * (1.0 + x))
    got = _radial_kernel(n, x, m)
    for xi, k in zip(_KERNEL_XS, got):
        assert k == pytest.approx(_kernel_reference(n, xi), rel=1e-14, abs=0.0), xi
    at_ideal = _radial_kernel(n, np.ones(1), np.zeros(1))[0]
    assert at_ideal == pytest.approx(1.0 / (n - 1), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vertex_outside_ball_escapes(n):
    """A material vertex on or outside the sphere is refused at once, by
    the rule builder and by a frozen rule, whether it is the collapse
    corner (1e-3 outside) or not (1e-6 outside); a frozen rule on a
    stack names the simplex that escaped."""
    klein = _klein_simplex(np.random.default_rng(n), n, 0, 0.2, 0.8)
    material = [False] * (n + 1)
    rule = build_rule(klein, material, 1e-9)
    corner = klein.copy()
    corner[0] *= 1.001 / np.linalg.norm(corner[0])
    other = klein.copy()
    other[1] *= (1.0 + 1e-6) / np.linalg.norm(other[1])
    for outside in (corner, other):
        with pytest.raises(IntegrationError, match="escaped the open ball"):
            build_rule(outside, material, 1e-9)
        with pytest.raises(IntegrationError, match="escaped the open ball"):
            rule.evaluate(outside)
        with pytest.raises(IntegrationError, match="^simplex 1: .*escaped the open ball") as exc:
            rule.evaluate(np.array([klein, outside]))
        assert exc.value.simplex == 1


def _seeded_simplices():
    """Ten n=3 and ten n=4 Klein simplices with 0, 1, 2 ideal vertices in
    turn and material vertices up to 0.999 from the centre."""
    rng = np.random.default_rng(2026)
    return [(_klein_simplex(rng, n, i % 3, 0.5, 0.999), [k < i % 3 for k in range(n + 1)])
            for n in (3, 4) for i in range(10)]


# (Gauss degree, corner is ideal) per cell of each seeded simplex's rule at
# tol 1e-9, in build order.
_M, _I = False, True
_PINNED_RULES = [
    ((17, _M),),
    ((24, _I),),
    ((17, _I), (17, _I)),
    ((34, _M),),
    ((12, _I),),
    ((34, _I), (34, _I)),
    ((17, _M),),
    ((48, _I),),
    ((17, _I), (17, _I)),
    ((17, _M),),
    ((19, _M),),
    ((27, _I),),
    ((27, _I), (13, _I), (13, _M), (9, _M), (13, _M), (38, _M), (13, _M), (9, _M), (13, _M),
     (13, _M), (27, _I), (27, _M), (13, _M), (13, _M), (9, _M), (13, _M), (38, _M), (13, _M),
     (9, _M), (13, _M), (13, _M)),
    ((27, _M),),
    ((27, _I),),
    ((27, _I), (27, _I)),
    ((19, _M),),
    ((13, _I), (9, _M), (9, _M), (38, _M), (13, _M), (13, _M), (9, _M), (9, _M), (13, _M),
     (9, _M), (9, _M), (9, _M), (9, _M), (13, _I)),
    ((19, _I), (19, _I)),
    ((13, _M),),
]

# Seeded simplices (n=4, two ideal vertices, material ones near the
# sphere) on which no rule reaches tol 1e-12: a cell pinched against the
# sphere exhausts its split budget, as it did under the g^n rule.  Their
# reference is the pinned cells evaluated at a degree far above the ladder.
_NO_TIGHT_RULE = {12, 17}
_REFERENCE_DEGREE = 54


def test_rule_selection_is_pinned():
    """The ladder's choice of cells and Gauss degrees on a fixed set of
    n=3 and n=4 simplices, splitting included, the bound it meets, and
    its value against a reference to 1e-9."""
    tol = 1e-9
    cases = zip(_seeded_simplices(), _PINNED_RULES, strict=True)
    for i, ((klein, ideal), pinned) in enumerate(cases):
        rule = build_rule(klein, ideal, tol)
        assert tuple((g, flag) for _, flag, g in rule.cells) == pinned
        assert rule.error_estimate <= tol
        if i in _NO_TIGHT_RULE:
            with pytest.raises(IntegrationError):
                build_rule(klein, ideal, 1e-12)
            reference = sum(cell_value(mix, flag, klein, _REFERENCE_DEGREE, ideal)
                            for mix, flag, _ in rule.cells)
        else:
            reference = build_rule(klein, ideal, 1e-12).value
        assert abs(rule.value - reference) <= 1e-9


def test_rule_value_is_its_evaluation_on_its_simplex():
    """A rule's value is what the rule evaluates to on the simplex it was
    built on, exactly, bisected cells included: building and evaluating
    weight a cell by the same |det mix|."""
    for klein, ideal in _seeded_simplices():
        rule = build_rule(klein, ideal, 1e-9)
        assert rule.value == rule.evaluate(klein)


@pytest.mark.parametrize("n", [3, 4])
def test_build_rules_matches_build_rule(n):
    """One batched ladder over the seeded simplices of a dimension picks
    the cells, corner flags, Gauss degrees and order of building each
    alone, with the same value and bound.  The n = 4 batch holds pinned
    case 12, whose cells split across generations."""
    cases = [(klein, ideal) for klein, ideal in _seeded_simplices() if klein.shape[1] == n]
    batch = build_rules([klein for klein, _ in cases], [ideal for _, ideal in cases], 1e-9)
    assert len(batch) == len(cases)
    for (klein, ideal), rule in zip(cases, batch, strict=True):
        alone = build_rule(klein, ideal, 1e-9)
        assert len(rule.cells) == len(alone.cells)
        for (mix, flag, g), (mix1, flag1, g1) in zip(rule.cells, alone.cells):
            assert np.array_equal(mix, mix1) and flag == flag1 and g == g1
        assert rule.value == pytest.approx(alone.value, rel=1e-14, abs=0.0)
        assert abs(rule.error_estimate - alone.error_estimate) <= 4e-16 * alone.value
        assert rule.ideal == alone.ideal
    if n == 4:
        assert len(batch[2].cells) == len(_PINNED_RULES[12]) > 2


def test_build_rules_names_the_failing_simplex():
    """A material vertex outside the ball in simplex 2 of a batch of 5
    is refused with that simplex's index, in the message and on the
    error; so is a tolerance the ladder cannot reach."""
    rng = np.random.default_rng(5)
    kleins = [_klein_simplex(rng, 4, 0, 0.2, 0.8) for _ in range(5)]
    ideals = [[False] * 5] * 5
    kleins[2][3] *= 1.01 / np.linalg.norm(kleins[2][3])
    with pytest.raises(IntegrationError, match="^simplex 2: material vertex 3 .* escaped the open ball") as err:
        build_rules(kleins, ideals, 1e-9)
    assert err.value.simplex == 2
    cases = _seeded_simplices()
    batch = [klein for klein, _ in cases[10:15]]
    with pytest.raises(IntegrationError, match="^simplex 2: ") as err:
        build_rules(batch, [ideal for _, ideal in cases[10:15]], 1e-12)
    assert err.value.simplex == 2


def test_kernel_batches_match_cells_alone():
    """The kernel's value for a cell does not depend on the other cells
    of its batch, on how many chunks the batch needs or on the degrees
    evaluated beside it."""
    rng = np.random.default_rng(11)
    ideal = [c % 3 == 0 for c in range(40)]  # corners ideal and material
    kleins = [_klein_simplex(rng, 4, int(flag), 0.3, 0.9) for flag in ideal]
    ms, dets = _simplex_matrices(
        np.array(kleins), np.array([_diagonal_skip((flag,) + (False,) * 4) for flag in ideal]))
    mixes = np.repeat(np.eye(5)[None], 40, axis=0)
    frames = _cell_frames(mixes, ms, 1.0 - np.array(ideal, float)[:, None], dets)
    together = _face_sums(frames, 4, (9, 13))
    for c in (0, 16, 17, 38, 39):
        for k, g in enumerate((9, 13)):
            alone = cell_value(np.eye(5), ideal[c], kleins[c], g, (ideal[c],) + (False,) * 4)
            assert together[k, c] == pytest.approx(alone, rel=1e-14, abs=0.0)


def test_build_rules_interleaving_corner_kinds_matches_alone(monkeypatch):
    """A batch of n = 4 simplices that runs ideal-corner ones, then
    ideal-corner and material-corner ones interleaved, then
    material-corner ones, puts kernel chunks of only ideal corners (where
    the kernel skips the p terms), mixed chunks and chunks of only
    material corners side by side; every simplex's rule value and bound
    equal (==) those of building it alone, and the values that
    _stack_volumes reads without building the rules are those values."""
    monkeypatch.setattr(cubature, "_CHUNK", 1 << 12)
    rng = np.random.default_rng(25)
    nideal = [1] * 40 + [k % 3 for k in range(30)] + [0] * 40
    kleins = [_klein_simplex(rng, 4, k, 0.2, 0.8) for k in nideal]
    ideals = [[i < k for i in range(5)] for k in nideal]
    batch = build_rules(kleins, ideals, 1e-9)
    for klein, ideal, rule in zip(kleins, ideals, batch, strict=True):
        alone = build_rule(klein, ideal, 1e-9)
        assert rule.value == alone.value and rule.error_estimate == alone.error_estimate
    values = cubature._rule_values(kleins, ideals, 1e-9)
    assert values.tolist() == [rule.value for rule in batch]


def _developed_suspension4():
    """Klein vertices and ideal masks of the non-degenerate simplices of
    the 4-D suspension developed at seed 0, x mapped to a parabolic."""
    tri = suspension_4d()
    rho = check_representation(tri.presentation,
                               {"x": parabolic_so41(np.array([0.3, -0.5, 0.4]))})
    stack = build_developing_assignment(rho, tri, seed=0).stack
    live = ~stack.degenerate
    return list(stack.rows[live][..., 1:]), stack.ideal[live].tolist()


@pytest.mark.parametrize("case", ["seeded", "suspension4"])
def test_kernel_chunks_change_no_rule(case, monkeypatch):
    """With the kernel's cell chunks at 2^10 and at 2^20 node values,
    build_rules gives equal (==) cells, values and bounds, and a frozen
    rule evaluated on the stack of every simplex of its kind gives each
    simplex's value alone, exactly: on the seeded n=4 simplices (pinned
    case 12 splits, and its degrees 27 and 38 take the weighted sum in
    pieces) and on a developed suspension4 stack."""
    if case == "seeded":
        kleins, ideals = zip(*[(k, m) for k, m in _seeded_simplices() if k.shape[1] == 4])
    else:
        kleins, ideals = _developed_suspension4()
    kinds: dict = {}
    for i, mask in enumerate(ideals):
        kinds.setdefault(tuple(mask), []).append(i)
    built = []
    for chunk in (1 << 10, 1 << 20):
        monkeypatch.setattr(cubature, "_CHUNK", chunk)
        rules = build_rules(kleins, ideals, 1e-9)
        stacked = []
        for idx in kinds.values():
            rule = rules[idx[-1]]
            together = rule.evaluate(np.array([kleins[i] for i in idx])).tolist()
            assert together == [rule.evaluate(kleins[i]) for i in idx]
            stacked.append(together)
        built.append((rules, stacked))
    (rules, stacked), (again, stacked_again) = built
    assert stacked == stacked_again
    assert len(rules) == len(again) == len(kleins)
    for rule, other in zip(rules, again):
        assert len(rule.cells) == len(other.cells)
        for (mix, flag, g), (mix1, flag1, g1) in zip(rule.cells, other.cells):
            assert np.array_equal(mix, mix1) and flag == flag1 and g == g1
        assert rule.value == other.value and rule.error_estimate == other.error_estimate
    if case == "seeded":
        assert max(g for rule in rules for *_, g in rule.cells) == 38
