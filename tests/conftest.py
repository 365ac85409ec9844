import numpy as np
import pytest
from scipy.linalg import expm

from hypvol.lorentz import Isometry, from_klein, lift_moebius, minkowski_matrix
from hypvol.simplex import GeodesicSimplex, SimplexFamily


def random_so_element(rng, n, scale=0.5):
    X = rng.normal(size=(n + 1, n + 1)) * scale
    J = minkowski_matrix(n)
    X = 0.5 * (X - J @ X.T @ J)
    return Isometry.from_matrix(expm(X))


def random_so_direction(rng, n, scale=0.5):
    X = rng.normal(size=(n + 1, n + 1)) * scale
    J = minkowski_matrix(n)
    return 0.5 * (X - J @ X.T @ J)


def parabolic_so41(v):
    """exp of the nilpotent so(4,1) element with translation vector v: a
    parabolic fixing the ideal point (1, 1, 0, 0, 0)."""
    X = np.zeros((5, 5))
    X[0, 2:] = X[1, 2:] = X[2:, 0] = v
    X[2:, 1] = -np.asarray(v)
    return np.eye(5) + X + X @ X / 2.0


def _diagonal(z):
    return [[z, 0], [0, 1 / z]]


# Pairs of SL(2,C) matrices acting on H^3 (upper half space, the ideal
# point infinity is (1, 0, 0, 1)), as peripheral images of one cusp:
MIXED_PERIPHERAL = {
    "identity": ([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
    # two rotations about the geodesic from 0 to infinity: its points and
    # both endpoints are fixed (Both)
    "rotation-axis": (_diagonal(np.exp(0.55j)), _diagonal(np.exp(0.2j))),
    "parabolic": ([[1, 1], [0, 1]], [[1, 1j], [0, 1]]),
    # commuting loxodromics along one axis, as a meridian and a longitude
    "loxodromic-pair": (_diagonal(np.exp(0.3 + 0.5j)), _diagonal(np.exp(0.7 - 0.2j))),
    # a loxodromic of translation length 1e-7 classifies as ambiguous and
    # is skipped; the parabolic then gives the fixed point
    "near-parabolic": (_diagonal(np.exp(0.5e-7)), [[1, 1], [0, 1]]),
    # a translation and the order-2 rotation z -> -z, both fixing infinity
    "torsion": ([[1, 1], [0, 1]], _diagonal(1j)),
}
# an axis from 0 to infinity and a parabolic fixing 1: no common fixed point
NO_FIXED_POINT = (_diagonal(2.0), [[2, -1], [1, 0]])


def lifted_stack(pairs):
    """The (S, 4, 4) SO(3,1) images of each generator of S pairs."""
    return [np.stack([lift_moebius(np.array(pair[g], dtype=complex)).matrix
                      for pair in pairs]) for g in (0, 1)]


def random_point_tuple(rng, n, count, ideal_prob=0.3, radius=0.95,
                       separation=0.15):
    """Random points of the closed ball in Klein coordinates, kept
    pairwise separated so the integrands stay numerically tame."""
    pts = []
    kleins = []
    while len(pts) < count:
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        if rng.uniform() < ideal_prob:
            k = d
        else:
            k = radius * rng.uniform() ** (1.0 / n) * d
        if any(np.linalg.norm(k - k2) < separation for k2 in kleins):
            continue
        kleins.append(k)
        pts.append(from_klein(k))
    return pts


def trig_family(rng, n, n_ideal=0, base_span=0.35, amp=0.08, freqs=(2, 5)):
    """Smooth (trigonometric) vertex paths: material vertices wander in
    a ball, ideal vertices slide on the sphere; healthy third
    derivatives so finite-difference truncation dominates noise."""
    n_mat = n + 1 - n_ideal
    base = rng.uniform(-base_span, base_span, size=(n_mat, n))
    amps = rng.uniform(-amp, amp, size=(n_mat, n, 2))
    freq = rng.integers(freqs[0], freqs[1], size=(n_mat, n, 2))
    phase = rng.uniform(0, 2 * np.pi, size=(n_mat, n, 2))
    sph = rng.normal(size=(n_ideal, n))
    sph /= np.linalg.norm(sph, axis=1, keepdims=True)
    sphd = rng.normal(size=(n_ideal, n)) * 0.3
    sphf = rng.integers(freqs[0], freqs[1], size=n_ideal)

    def fn(t):
        verts = []
        for i in range(n_ideal):
            u = sph[i] + sphd[i] * np.sin(sphf[i] * t + i)
            verts.append(from_klein(u / np.linalg.norm(u)))
        for i in range(n_mat):
            k = base[i] + (amps[i] * np.sin(freq[i] * t + phase[i])).sum(axis=1)
            verts.append(from_klein(k))
        return GeodesicSimplex(verts)

    return SimplexFamily(fn)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
