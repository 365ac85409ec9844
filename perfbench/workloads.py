"""The four workloads: seeded inputs, the timed operation, and the
off-clock checks of each operation's outputs.

Every workload calls hypvol only through its public names, looked up on
the module at call time (``repvol.scan_path``, ``simplex.signed_volume``)
so that the tracer's wrappers see the calls.  Round ``r`` of a run with
seed ``s`` draws its inputs from ``numpy.random.default_rng([s, r])``;
every round of a workload has the same number and make-up of
operations.
"""

from __future__ import annotations

import json

import numpy as np

import hypvol
from hypvol import repvol, schlafli, simplex
from hypvol.lorentz import from_klein
from hypvol.triangulation import LabeledTriangulation

import reference


class Checker:
    """Collects check results: the worst deviation from a reference as a
    share of its tolerance, and the first failures."""

    def __init__(self):
        self.worst = 0.0
        self.failures = []

    def close(self, label, value, expected, tol):
        err = abs(value - expected)
        self.worst = max(self.worst, err / tol)
        if not err <= tol:
            self.fail(f"{label}: {value!r} vs reference {expected!r} (|diff| {err:.3e} > {tol:.1e})")

    def holds(self, label, ok):
        if not ok:
            self.fail(label)

    def fail(self, message):
        if len(self.failures) < 20:
            self.failures.append(message)


def _load_triangulation(root, name):
    return LabeledTriangulation.from_json(json.loads((root / "fixtures" / name).read_text()))


def _sphere_direction(rng, n):
    d = rng.normal(size=n)
    return d / np.linalg.norm(d)


# --- fig8_dehn -------------------------------------------------------------

class Fig8Dehn:
    """One operation is an 11-sample scan over a fresh dehn3d path of the
    figure-eight; a round scans six amphichiral pairs (p, q) / (-p, q)
    in seeded order, each with its own developing seed."""

    name = "fig8_dehn"
    pairs = ((5, 1), (6, 1), (7, 1), (5, 2), (3, 2), (4, 3))
    samples = 11
    volume_tol = 1e-9      # the program's default simplex tol
    dilog_tol = 1e-10      # Vol(rho_t) against sum of D(z_i)

    def load(self, root):
        self.tri = _load_triangulation(root, "fig8.json")
        self._pending = {}

    def round_inputs(self, rng):
        fillings = [(s * p, q) for p, q in self.pairs for s in (1, -1)]
        order = rng.permutation(len(fillings))
        seeds = rng.integers(0, 2**31, size=len(fillings))
        return [(fillings[i], int(seeds[k])) for k, i in enumerate(order)]

    def run(self, inp):
        filling, seed = inp
        path = repvol.generate_path("dehn3d", {"triangulation": self.tri, "filling": filling})
        return path, repvol.scan_path(path, self.tri, self.samples, seed=seed)

    def check(self, inp, out, ck):
        filling, _ = inp
        path, report = out
        ts = [t for t, _, _ in report.samples]
        vols = [v for _, v, _ in report.samples]
        ck.close(f"{filling} Vol at t=0 vs 6 L(pi/3)", vols[0],
                 reference.figure_eight_volume(), self.volume_tol)
        solver = path.meta["solver"]
        for t, vol in zip(ts, vols):
            shapes = solver(t).shapes
            ck.close(f"{filling} t={t:.1f} Vol vs Bloch-Wigner", vol,
                     sum(reference.bloch_wigner(z) for z in shapes), self.dilog_tol)
        ck.holds(f"{filling} volumes fall strictly with t: {vols}",
                 all(a > b for a, b in zip(vols, vols[1:])))
        ck.holds(f"{filling} verdict {report.verdict} != NonConstant",
                 report.verdict == "NonConstant")
        key = (abs(filling[0]), filling[1])
        other = self._pending.pop(key, None)
        if other is None:
            self._pending[key] = vols
        else:
            for t, a, b in zip(ts, vols, other):
                ck.close(f"Vol{key} vs Vol(-p,q) at t={t:.1f}", a, b, self.volume_tol)


# --- suspension4 -----------------------------------------------------------

def parabolic_so41(v):
    """Parabolic element of SO(4,1) fixing the ideal point (1, 1, 0, 0, 0):
    exp of the nilpotent so(4,1) element with translation vector v, which
    is I + X + X^2 / 2 since X^3 = 0."""
    X = np.zeros((5, 5))
    X[0, 2:] = v
    X[1, 2:] = v
    X[2:, 0] = v
    X[2:, 1] = -v
    return np.eye(5) + X + X @ X / 2.0


class Suspension4:
    """One operation is build_developing_assignment plus
    representation_volume for one developing seed on the 324-simplex
    suspension of the 3-torus, with x mapped to a parabolic.

    A round runs the four developing seeds of `dev_seeds` in seeded
    order, each with its own seeded parabolic.  The cost of an operation
    follows where the program's sampler puts the 28 material points
    (1.0 to 1.7 s for seeds 0-9), so developing seeds drawn from --seed
    made runs differ in cost; a fixed pool keeps every round's work the
    same."""

    name = "suspension4"
    dev_seeds = (0, 1, 2, 3)
    tol = 1e-9
    checked_simplices = 2      # material 4-simplices integrated apart, per op
    reference_tol = 1e-8

    def load(self, root):
        self.tri = _load_triangulation(root, "suspension4.json")
        # core simplices: the 3-torus coned to the material point m
        self.material = [i for i, s in enumerate(self.tri.simplices)
                         if all(self.tri.vertex(v).kind == "material" for v, _ in s.slots)]

    def round_inputs(self, rng):
        out = []
        for k in rng.permutation(len(self.dev_seeds)):
            v = _sphere_direction(rng, 3) * rng.uniform(0.2, 1.0)
            rho = repvol.check_representation(self.tri.presentation, {"x": parabolic_so41(v)})
            picks = rng.choice(self.material, size=self.checked_simplices, replace=False)
            out.append((rho, self.dev_seeds[k], [int(i) for i in picks]))
        return out

    def run(self, inp):
        rho, seed, _ = inp
        assignment = repvol.build_developing_assignment(rho, self.tri, seed=seed)
        return assignment, repvol.representation_volume(rho, self.tri, assignment, tol=self.tol)

    def check(self, inp, out, ck):
        rho, seed, picks = inp
        assignment, vol = out
        bound = len(self.tri.simplices) * self.tol
        ck.close(f"seed {seed}: Vol of the closed 4-cycle", vol, 0.0, bound)
        kind = assignment.classifications["cusp0"].kind
        ck.holds(f"seed {seed}: cusp classifies as {kind}, not parabolic",
                 kind is repvol.PeripheralKind.PARABOLIC_FIX)
        for i in picks:
            verts = [assignment.develop(rho, v, w) for v, w in self.tri.simplices[i].slots]
            dev = simplex.GeodesicSimplex(verts)
            got = simplex.signed_volume(dev, self.tol)
            ref, err = reference.material_simplex_volume(dev.klein())
            sign = 1.0 if np.linalg.det(np.array([v.coords for v in verts])) > 0 else -1.0
            ck.close(f"seed {seed}: simplex {i} signed_volume vs Grundmann-Moeller",
                     got, sign * ref, self.reference_tol + err)


# --- simplex_cocycle -------------------------------------------------------

def random_orthogonal(rng, n):
    """Haar-random element of O(n).  It acts on Klein coordinates as a
    hyperbolic isometry fixing the origin, so volumes are unchanged, and
    the cubature, which sees the integrand only through |x|^2 and edge
    lengths, does the same work on the rotated simplex."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _separated_tuple(rng, n, ideal_flags, separation=0.15):
    """Klein points with the given ideal pattern: ideal ones on the
    sphere, material ones uniform in the ball of radius 0.95, pairwise at
    least `separation` apart."""
    points = []
    for ideal in ideal_flags:
        while True:
            k = _sphere_direction(rng, n)
            if not ideal:
                k *= 0.95 * rng.uniform() ** (1.0 / n)
            if all(np.linalg.norm(k - q) >= separation for q in points):
                break
        points.append(k)
    return points


class SimplexCocycle:
    """One operation is a batch of alternating face sums of (n+2)-tuples:
    4 tuples in H^2 with one ideal vertex each, 6 tuples in H^3 with one
    or two ideal vertices (alternating), and one all-ideal 5-tuple in
    H^3; 18 of 51 vertices are ideal.

    The shapes of a round's ten batches are drawn once from a fixed seed;
    --seed places every tuple by its own random rotation of the Klein
    ball.  Cubature cost varies a hundredfold between tetrahedra (it
    grows as material vertices near the sphere), so shapes drawn from
    --seed made runs differ in cost; rotated copies of fixed shapes keep
    every round's work the same."""

    name = "simplex_cocycle"
    ops_per_round = 10
    shape_seed = 2026
    tol = 1e-8
    closed_form_tol = 1e-10
    layout = ((2, 1),) * 4 + ((3, 1), (3, 2)) * 3 + ((3, 5),)

    def load(self, root):
        rng = np.random.default_rng(self.shape_seed)
        self.shapes = []
        for _ in range(self.ops_per_round):
            batch = []
            for n, n_ideal in self.layout:
                flags = [True] * n_ideal + [False] * (n + 2 - n_ideal)
                flags = [flags[i] for i in rng.permutation(n + 2)]
                batch.append(np.array(_separated_tuple(rng, n, flags)))
            self.shapes.append(batch)

    def round_inputs(self, rng):
        return [[[from_klein(k) for k in pts @ random_orthogonal(rng, pts.shape[1]).T]
                 for pts in batch] for batch in self.shapes]

    def run(self, batch):
        out = []
        for pts in batch:
            faces = []
            for i in range(len(pts)):
                face = simplex.GeodesicSimplex(pts[:i] + pts[i + 1:])
                faces.append(simplex.signed_volume(face, self.tol))
            out.append(faces)
        return out

    def check(self, batch, out, ck):
        for pts, faces in zip(batch, out):
            n = pts[0].n
            total = sum((-1) ** i * v for i, v in enumerate(faces))
            ck.close(f"H^{n} alternating face sum", total, 0.0, len(faces) * self.tol)
            for i, vol in enumerate(faces):
                face = pts[:i] + pts[i + 1:]
                if n == 2:
                    ck.close("triangle area vs law of cosines", abs(vol),
                             reference.triangle_area([p.coords for p in face]),
                             self.closed_form_tol)
                elif all(p.kind is hypvol.Kind.IDEAL for p in face):
                    ck.close("ideal tetrahedron vs Bloch-Wigner", abs(vol),
                             reference.ideal_tetrahedron_volume(
                                 [p.coords[1:] / p.coords[0] for p in face]),
                             self.closed_form_tol)


# --- schlafli_families -----------------------------------------------------

def family_shape(rng, n, n_ideal, base_span=0.35, amp=0.08):
    """Parameters of a smooth family of n-simplices, drawn as in
    acceptance criterion 3: material vertices move on sums of two
    sinusoids about a base point, ideal vertices slide on the sphere."""
    n_mat = n + 1 - n_ideal
    sph = rng.normal(size=(n_ideal, n))
    return {
        "base": rng.uniform(-base_span, base_span, size=(n_mat, n)),
        "amps": rng.uniform(-amp, amp, size=(n_mat, n, 2)),
        "freq": rng.integers(2, 5, size=(n_mat, n, 2)),
        "phase": rng.uniform(0, 2 * np.pi, size=(n_mat, n, 2)),
        "sph": sph / np.linalg.norm(sph, axis=1, keepdims=True),
        "sphd": rng.normal(size=(n_ideal, n)) * 0.3,
        "sphf": rng.integers(2, 5, size=n_ideal),
    }


def trig_family(shape, rotation):
    """The family with the given parameters, carried by a rotation of
    the Klein ball."""
    p = shape

    def fn(t):
        verts = []
        for i in range(len(p["sph"])):
            u = p["sph"][i] + p["sphd"][i] * np.sin(p["sphf"][i] * t + i)
            verts.append(from_klein(rotation @ (u / np.linalg.norm(u))))
        for i in range(len(p["base"])):
            k = p["base"][i] + (p["amps"][i] * np.sin(p["freq"][i] * t + p["phase"][i])).sum(axis=1)
            verts.append(from_klein(rotation @ k))
        return simplex.GeodesicSimplex(verts)

    return simplex.SimplexFamily(fn)


class SchlafliFamilies:
    """One operation is the n=4 Schlafli residual of one smooth family
    with one ideal vertex, at t=0.5 with steps h and h/2.  As in
    simplex_cocycle, a round's 40 family shapes are drawn once from a
    fixed seed and --seed rotates each family as a whole."""

    name = "schlafli_families"
    ops_per_round = 40
    shape_seed = 40404
    h = 1e-4
    residual_tol = 1e-5
    ratio_range = (2.5, 6.0)
    # Rounding moves each residual by about 2e-12 at these steps.  Where
    # the h^2 term itself is that small (a family whose truncation terms
    # nearly cancel) the ratio is noise, so below this floor the check is
    # that both residuals stay at the floor instead.
    ratio_floor = 2e-11

    def load(self, root):
        rng = np.random.default_rng(self.shape_seed)
        self.shapes = [family_shape(rng, 4, n_ideal=1) for _ in range(self.ops_per_round)]

    def round_inputs(self, rng):
        return [trig_family(shape, random_orthogonal(rng, 4)) for shape in self.shapes]

    def run(self, fam):
        return (schlafli.schlafli_residual(fam, 0.5, self.h),
                schlafli.schlafli_residual(fam, 0.5, self.h / 2))

    def check(self, fam, out, ck):
        r1, r2 = out
        # |r1| / (1 + |dvol|) <= |r1|, so dvol is only needed when |r1| > tol
        scale = 1.0
        if abs(r1) > self.residual_tol:
            scale += abs(schlafli.family_derivatives(fam, 0.5, self.h).dvol)
        ck.close("|residual| / (1 + |dvol|)", abs(r1) / scale, 0.0, self.residual_tol)
        if abs(r2) < self.ratio_floor:
            ck.holds(f"residual {r1:.3e} at h not O(h^2) with {r2:.3e} at h/2",
                     abs(r1) <= self.ratio_range[1] * self.ratio_floor)
            return
        ratio = abs(r1 / r2)
        lo, hi = self.ratio_range
        ck.holds(f"step-halving ratio {ratio:.3f} outside [{lo}, {hi}]", lo <= ratio <= hi)


WORKLOADS = {w.name: w for w in (Fig8Dehn, Suspension4, SimplexCocycle, SchlafliFamilies)}
