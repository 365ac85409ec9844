"""Shipped fixtures: the figure-eight knot complement (two ideal
tetrahedra), the once-punctured torus (two ideal triangles), and
synthetic torus-boundary / coned-suspension complexes for the
combinatorial operations.

Builders return in-memory objects; write_fixtures() serializes them to a
directory (the CLI reads the same JSON through HYPVOL_FIXTURES).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .triangulation import (
    AnyOf,
    Cusp,
    FacePairing,
    GroupPresentation,
    LabeledSimplex,
    LabeledTriangulation,
    OrbitVertex,
    check_schema,
    cone_boundary,
)

__all__ = [
    "figure_eight_triangulation",
    "figure_eight_geometric_images",
    "punctured_torus_triangulation",
    "fuchsian_punctured_torus_images",
    "torus_boundary_2d",
    "torus_boundary_3d",
    "suspension_4d",
    "subdivide_at_material_vertex",
    "write_fixtures",
    "fixture_dir",
]

FIG8_RELATOR = "a b a B A b a b A B"
FIG8_MERIDIAN = "a"
FIG8_LONGITUDE = "b a B A A B a b"


def figure_eight_triangulation() -> LabeledTriangulation:
    """The two-tetrahedron ideal triangulation of the figure-eight knot
    complement.

    Slot words develop (under the geometric representation, with the
    cusp's fixed point at infinity in the upper-half-space picture) to
    the cells (inf, 0, 1, omega) and (inf, 0, 1, conj(omega)) with
    omega = exp(i pi / 3).  The face pairings identify each face of one
    cell with a face of the other; the identifying words are stored
    because word labels can only realize vertex-stabilizer cosets up to
    peripheral corrections, never literally.
    """
    pres = GroupPresentation(("a", "b"), (FIG8_RELATOR,))
    verts = (OrbitVertex("c", "ideal", "cusp0"),)
    cusps = (Cusp("cusp0", (FIG8_MERIDIAN, FIG8_LONGITUDE)),)
    t1 = LabeledSimplex((("c", ""), ("c", "a b A B"), ("c", "B a b"), ("c", "a b")), -1)
    t2 = LabeledSimplex((("c", ""), ("c", "a b A B"), ("c", "B a b"), ("c", "B")), 1)
    pairings = (
        FacePairing(0, 3, 1, 3, ""),        # shared face (inf, 0, 1)
        FacePairing(0, 0, 1, 1, "a B A"),   # (0, 1, omega)   -> (inf, 1, cw)
        FacePairing(0, 1, 1, 2, "B A"),     # (inf, 1, omega) -> (inf, 0, cw)
        FacePairing(0, 2, 1, 0, "B"),       # (inf, 0, omega) -> (0, 1, cw)
    )
    return LabeledTriangulation(3, pres, verts, (t1, t2), cusps, pairings=pairings,
                                gluing={"recipe": "two_tet_once_cusped"})


def figure_eight_geometric_images() -> dict:
    """2x2 images of the geometric (discrete faithful) representation;
    check_representation lifts them to SO(3,1)."""
    omega = np.exp(1j * np.pi / 3)
    return {
        "a": np.array([[1, 1], [0, 1]], dtype=complex),
        "b": np.array([[1, 0], [-omega, 1]], dtype=complex),
    }


def punctured_torus_triangulation() -> LabeledTriangulation:
    """The once-punctured torus (genus 1, one puncture) as two ideal
    triangles on the quadrilateral (-1, 0, 1, inf) of the cusp orbit;
    the boundary word is the commutator of the two generators."""
    pres = GroupPresentation(("a", "b"))
    verts = (OrbitVertex("c", "ideal", "cusp0"),)
    cusps = (Cusp("cusp0", ("a b A B",)),)
    t1 = LabeledSimplex((("c", "A"), ("c", ""), ("c", "B")), 1)       # (-1, 0, 1)
    t2 = LabeledSimplex((("c", "A"), ("c", "B"), ("c", "B A")), 1)    # (-1, 1, inf)
    pairings = (
        FacePairing(0, 1, 1, 2, ""),   # shared diagonal (-1, 1)
        FacePairing(1, 1, 0, 0, "a"),  # a . (-1, inf) = (0, 1)
        FacePairing(1, 0, 0, 2, "b"),  # b . (1, inf)  = (0, -1)
    )
    return LabeledTriangulation(2, pres, verts, (t1, t2), cusps, pairings=pairings)


def fuchsian_punctured_torus_images() -> dict:
    """2x2 real images of a Fuchsian punctured-torus representation
    whose commutator is parabolic (trace -2)."""
    return {
        "a": np.array([[1.0, 1.0], [1.0, 2.0]]),
        "b": np.array([[1.0, -1.0], [-1.0, 2.0]]),
    }


def torus_boundary_2d() -> LabeledTriangulation:
    """A 2-torus from one square split into two triangles; vertex words
    are powers of a single letter so that the combinatorial cycle check
    passes literally."""
    pres = GroupPresentation(("x",))

    def W(i, j):
        return " ".join(["x"] * (i + 2 * j))

    verts = (OrbitVertex("v", "material"),)
    simps = (
        LabeledSimplex((("v", W(0, 0)), ("v", W(1, 0)), ("v", W(1, 1))), 1),
        LabeledSimplex((("v", W(0, 0)), ("v", W(1, 1)), ("v", W(0, 1))), 1),
    )
    return LabeledTriangulation(2, pres, verts, simps)


def torus_boundary_3d(grid: int = 3) -> LabeledTriangulation:
    """A 3-torus as a grid^3 cube complex with wrapped identifications,
    each cube in the staircase (Kuhn) triangulation.  Every vertex is
    its own material orbit vertex with the empty word, so the complex is
    an honest simplicial complex and the combinatorial cycle condition
    holds literally (grid >= 3 avoids doubled edges)."""
    import itertools

    pres = GroupPresentation(("x",))
    ids = {}
    for c in itertools.product(range(grid), repeat=3):
        ids[c] = "v" + "".join(map(str, c))
    simps = []
    e = np.eye(3, dtype=int)
    for base in itertools.product(range(grid), repeat=3):
        for perm in itertools.permutations(range(3)):
            corners = [np.array(base, dtype=int)]
            for axis in perm:
                corners.append(corners[-1] + e[axis])
            sign = int(np.sign(np.linalg.det(np.array([e[a] for a in perm]))))
            slots = tuple((ids[tuple(c % grid)], "") for c in corners)
            simps.append(LabeledSimplex(slots, sign))
    verts = tuple(OrbitVertex(v, "material") for v in ids.values())
    return LabeledTriangulation(3, pres, verts, tuple(simps))


def suspension_4d() -> LabeledTriangulation:
    """A synthetic 4-dimensional compact-core-plus-cone example: the
    3-torus coned to a material core point on one side and to an ideal
    cusp point on the other (a suspension), which is a closed cycle."""
    torus = torus_boundary_3d()
    pres = torus.presentation
    core = [LabeledSimplex(s.slots + (("m", ""),), -s.sign) for s in torus.simplices]
    cusp_cone = cone_boundary(torus, "cusp0", apex_id="cusp_pt")
    verts = torus.orbit_vertices + (
        OrbitVertex("m", "material"), OrbitVertex("cusp_pt", "ideal", "cusp0"))
    cusps = (Cusp("cusp0", ("x",)),)
    return LabeledTriangulation(4, pres, verts, tuple(core) + tuple(cusp_cone), cusps)


def subdivide_at_material_vertex(tri: LabeledTriangulation, simplex_index: int,
                                 vertex_id: str = "m0") -> LabeledTriangulation:
    """Replace one simplex by its cone from a fresh material orbit
    vertex (word-free slots), preserving the cycle: the three new
    internal faces cancel among the cone pieces.

    Used to exercise seed dependence of developing assignments: the new
    vertex develops to a random sample, and the volume must not move.
    """
    target = tri.simplices[simplex_index]
    n1 = len(target.slots)
    pieces = []
    pairings = list(tri.pairings) if tri.pairings is not None else None
    base = len(tri.simplices) - 1
    for i in range(n1):
        slots = target.slots[:i] + target.slots[i + 1:] + ((vertex_id, ""),)
        pieces.append(LabeledSimplex(slots, target.sign * (-1) ** (n1 - 1 - i)))
    new_simplices = (tri.simplices[:simplex_index] + tri.simplices[simplex_index + 1:]
                     + tuple(pieces))
    if pairings is not None:
        remapped = []
        for p in pairings:
            src, sf, dst, df = p.src, p.src_face, p.dst, p.dst_face
            src, sf = _remap_face(src, sf, simplex_index, base, n1, tri)
            dst, df = _remap_face(dst, df, simplex_index, base, n1, tri)
            remapped.append(FacePairing(src, sf, dst, df, p.word))
        # internal faces of the cone cancel pairwise: faces of piece i
        # and piece j sharing n1-2 original slots plus the apex
        for i in range(n1):
            for j in range(i + 1, n1):
                # piece for omitted i has faces; the face of piece_i
                # omitting (the slot that was j) equals the face of
                # piece_j omitting (the slot that was i)
                fi = j - 1 if j > i else j
                fj = i
                remapped.append(FacePairing(base + i, fi, base + j, fj, ""))
        pairings = tuple(remapped)
    return LabeledTriangulation(tri.dim, tri.presentation, tri.orbit_vertices
                                + (OrbitVertex(vertex_id, "material"),),
                                new_simplices, tri.cusps, pairings=pairings,
                                gluing=tri.gluing)


def _remap_face(s, f, removed, base, n1, tri):
    """Map a face reference of the original complex into the subdivided
    one: faces of the removed simplex become the outer faces of the cone
    pieces (piece i keeps the face omitting slot i as its last face)."""
    if s < removed:
        return s, f
    if s > removed:
        return s - 1, f
    # face f of the removed simplex = face of piece f omitting the apex
    return base + f, n1 - 1


def fixture_dir() -> Path:
    env = os.environ.get("HYPVOL_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[2] / "fixtures"


_BUILDERS = {
    "fig8.json": figure_eight_triangulation,
    "punctured_torus.json": punctured_torus_triangulation,
    "torus2.json": torus_boundary_2d,
    "torus3.json": torus_boundary_3d,
    "suspension4.json": suspension_4d,
}


def write_fixtures(directory=None) -> list:
    """Serialize the shipped fixtures (triangulations and the geometric
    representations) to JSON files; returns the paths written."""
    directory = Path(directory) if directory is not None else fixture_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in _BUILDERS.items():
        path = directory / name
        path.write_text(json.dumps(builder().to_json(), indent=1) + "\n")
        written.append(path)
    reps = {
        "fig8_geometric.json": (figure_eight_geometric_images(), 3),
        "punctured_torus_fuchsian.json": (fuchsian_punctured_torus_images(), 2),
    }
    for name, (images, dim) in reps.items():
        payload = {"dim": dim, "images": {
            g: [[_cplx(v) for v in row] for row in np.asarray(m).tolist()]
            for g, m in images.items()}}
        path = directory / name
        path.write_text(json.dumps(payload, indent=1) + "\n")
        written.append(path)
    return written


def _cplx(v):
    v = complex(v)
    if v.imag == 0.0:
        return v.real
    return [v.real, v.imag]


# a generator image: rows of entries, each a real number or an [re, im] pair
_IMAGE = [[AnyOf(float, (float, float))]]


def load_representation_images(path) -> dict:
    """Read a representation JSON: "images" maps generator names to
    matrices, 2x2 or (n+1)x(n+1), as lists of rows with entries real or
    [re, im] pairs; a top-level "dim" of 3 keeps 2x2 matrices complex so
    real-entried generators still act on H^3.  A file of another shape
    raises a ValueError naming the file and the key."""
    data = json.loads(Path(path).read_text())
    check_schema(data, {"dim?": int, "images": dict}, str(path))
    dim = data.get("dim")
    out = {}
    for g, rows in data["images"].items():
        where = f"{path}: images.{g}"
        check_schema(rows, _IMAGE, where)
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError(f"{where} must be a nonempty rectangular matrix")
        mat = np.array([[_parse_entry(v) for v in row] for row in rows])
        if np.max(np.abs(mat.imag)) == 0.0 and dim != 3:
            mat = mat.real
        out[g] = mat
    return out


def _parse_entry(v):
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)
