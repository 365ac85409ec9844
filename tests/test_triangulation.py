import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypvol.fixtures import (
    figure_eight_triangulation,
    punctured_torus_triangulation,
    suspension_4d,
    torus_boundary_2d,
    torus_boundary_3d,
)
from hypvol.repvol import (_develop_samples, _developed_cycles, _require_cycles,
                           generate_path, representation_volume, scan_path)
from hypvol.triangulation import (
    Cusp,
    FacePairing,
    GroupPresentation,
    LabeledSimplex,
    LabeledTriangulation,
    Matrix,
    OrbitVertex,
    TriangulationError,
    check_cycle,
    check_schema,
    cone_boundary,
    format_word,
    parse_word,
    peripheral_words,
    reduce_word,
    validate_triangulation,
    word_inverse,
    word_multiply,
)


# --- words -------------------------------------------------------------------

def test_parse_and_reduce():
    gens = ("a", "b")
    assert parse_word("a b A B", gens) == (("a", 1), ("b", 1), ("a", -1), ("b", -1))
    assert parse_word("a A", gens) == ()
    assert parse_word("a B a a A", gens) == (("a", 1), ("b", -1), ("a", 1))
    assert parse_word("aBa", gens) == (("a", 1), ("b", -1), ("a", 1))
    with pytest.raises(TriangulationError):
        parse_word("a q", gens)


def test_reduction_idempotent():
    gens = ("a", "b")
    rng = np.random.default_rng(3)
    letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    for _ in range(50):
        raw = [letters[i] for i in rng.integers(0, 4, size=12)]
        once = reduce_word(raw)
        assert reduce_word(once) == once


def test_word_algebra():
    gens = ("a", "b")
    w = parse_word("a b A", gens)
    assert word_multiply(w, word_inverse(w)) == ()
    assert format_word(w) == "a b A"


_letters = st.sampled_from([("a", 1), ("a", -1), ("b", 1), ("b", -1)])
_words = st.lists(_letters, max_size=14).map(reduce_word)


@given(_words)
@settings(max_examples=200, deadline=None)
def test_reduce_idempotent_property(w):
    assert reduce_word(w) == w
    assert parse_word(format_word(w), ("a", "b")) == w


@given(_words, _words)
@settings(max_examples=200, deadline=None)
def test_group_axioms_property(u, v):
    assert word_multiply(u, word_inverse(u)) == ()
    assert word_inverse(word_inverse(u)) == u
    assert word_inverse(word_multiply(u, v)) == word_multiply(
        word_inverse(v), word_inverse(u))


@given(_words, _words, _words)
@settings(max_examples=100, deadline=None)
def test_face_key_translation_invariance_property(g, u, v):
    from hypvol.triangulation import _canonical_face
    if u == v:
        return
    face = [("c", u), ("c", v)]
    translated = [("c", word_multiply(g, u)), ("c", word_multiply(g, v))]
    assert _canonical_face(face)[0] == _canonical_face(translated)[0]


def test_presentation_validation():
    with pytest.raises(TriangulationError):
        GroupPresentation(())
    with pytest.raises(TriangulationError):
        GroupPresentation(("A",))
    with pytest.raises(TriangulationError):
        GroupPresentation(("a",), ("a A",))
    p = GroupPresentation(("a", "b"), ("a b A B",))
    assert p.relators == ("a b A B",)


def test_presentation_parses_each_word_once():
    p = GroupPresentation(("a", "b"), ("a b A B",))
    tokens = p.parse("a b B A a")
    assert tokens == (("a", 1),)
    assert p.parse("a b B A a") is tokens
    # the memo takes no part in equality or hashing
    fresh = GroupPresentation(("a", "b"), ("a b A B",))
    assert fresh == p and hash(fresh) == hash(p)
    for _ in range(2):  # a bad word is refused on every call, not memoized
        with pytest.raises(TriangulationError, match="unknown generator"):
            p.parse("a c")


# --- validation ---------------------------------------------------------------

def test_validate_shipped_fixtures():
    for tri in (figure_eight_triangulation(), punctured_torus_triangulation(),
                torus_boundary_2d(), torus_boundary_3d(), suspension_4d()):
        assert validate_triangulation(tri) == []


def test_validate_unknown_generator():
    tri = LabeledTriangulation(
        2, GroupPresentation(("a",)), (OrbitVertex("v", "material"),),
        (LabeledSimplex((("v", ""), ("v", "a"), ("v", "q q")), 1),))
    issues = validate_triangulation(tri)
    assert any("unknown generator" in s for s in issues)


def test_validate_degenerate_slot():
    tri = LabeledTriangulation(
        2, GroupPresentation(("a",)), (OrbitVertex("v", "material"),),
        (LabeledSimplex((("v", "a"), ("v", "a"), ("v", "")), 1),))
    issues = validate_triangulation(tri)
    assert any("degenerate slot" in s for s in issues)


def test_validate_unknown_cusp_reference():
    tri = LabeledTriangulation(
        2, GroupPresentation(("a",)),
        (OrbitVertex("v", "ideal", "nope"),),
        (LabeledSimplex((("v", ""), ("v", "a"), ("v", "a a")), 1),))
    issues = validate_triangulation(tri)
    assert any("unknown cusp" in s for s in issues)


# --- combinatorial cycle checking ----------------------------------------------

def test_single_simplex_not_cycle():
    tri = LabeledTriangulation(
        2, GroupPresentation(("a", "b")), (OrbitVertex("v", "material"),),
        (LabeledSimplex((("v", ""), ("v", "a"), ("v", "b")), 1),))
    report = check_cycle(tri)
    assert not report.is_cycle
    assert len(report.unmatched) == 3


def test_doubled_simplex_cancels():
    s = (("v", ""), ("v", "a"), ("v", "b"))
    tri = LabeledTriangulation(
        2, GroupPresentation(("a", "b")), (OrbitVertex("v", "material"),),
        (LabeledSimplex(s, 1), LabeledSimplex(s, -1)))
    assert check_cycle(tri).is_cycle


def test_cycle_invariant_under_left_translation():
    base = torus_boundary_2d()
    translated = []
    for k, s in enumerate(base.simplices):
        if k == 0:
            slots = tuple((v, format_word(word_multiply(
                parse_word("x x x", ("x",)), parse_word(w, ("x",)))))
                for v, w in s.slots)
            translated.append(LabeledSimplex(slots, s.sign))
        else:
            translated.append(s)
    tri = LabeledTriangulation(base.dim, base.presentation, base.orbit_vertices,
                               tuple(translated))
    assert check_cycle(tri).is_cycle


def test_torus_fixtures_are_cycles():
    assert check_cycle(torus_boundary_2d()).is_cycle
    assert check_cycle(torus_boundary_3d()).is_cycle
    assert check_cycle(suspension_4d()).is_cycle


def _fig8_developed(tri):
    from hypvol.fixtures import figure_eight_geometric_images
    from hypvol.repvol import build_developing_assignment, check_representation

    rho = check_representation(tri.presentation, figure_eight_geometric_images())
    return rho, build_developing_assignment(rho, tri, seed=0)


def test_fig8_combinatorial_cycle_fails_but_relaxed_passes():
    """Word matching cannot close a fundamental cycle of a group with
    relators (any combinatorially-matching cycle develops to volume 0),
    so the figure-eight fixture carries face pairings and passes the
    developed check instead."""
    tri = figure_eight_triangulation()
    assert not check_cycle(tri).is_cycle
    rho, asg = _fig8_developed(tri)
    assert abs(representation_volume(rho, tri, asg) - 2.0298832128193) < 1e-9


def test_validate_flags_bad_pairing_data():
    tri = figure_eight_triangulation()
    bad = LabeledTriangulation(
        tri.dim, tri.presentation, tri.orbit_vertices, tri.simplices,
        tri.cusps, pairings=(FacePairing(0, 0, 5, 1, "a"),
                             FacePairing(0, 0, 1, 1, "q")),
        gluing=tri.gluing)
    issues = validate_triangulation(bad)
    assert any("out of range" in s for s in issues)
    assert any("unknown generator" in s for s in issues)


def test_relaxed_check_detects_flipped_sign():
    tri = figure_eight_triangulation()
    flipped = LabeledTriangulation(
        tri.dim, tri.presentation, tri.orbit_vertices,
        (tri.simplices[0],
         LabeledSimplex(tri.simplices[1].slots, -tri.simplices[1].sign)),
        tri.cusps, pairings=tri.pairings, gluing=tri.gluing)
    rho, asg = _fig8_developed(flipped)
    with pytest.raises(TriangulationError, match="not a cycle"):
        representation_volume(rho, flipped, asg)


def test_relaxed_check_detects_broken_pairing():
    tri = figure_eight_triangulation()
    bad_pairings = tuple(
        FacePairing(p.src, p.src_face, p.dst, p.dst_face, "a b")
        for p in tri.pairings)
    bad = LabeledTriangulation(tri.dim, tri.presentation, tri.orbit_vertices,
                               tri.simplices, tri.cusps, pairings=bad_pairings)
    rho, asg = _fig8_developed(bad)
    with pytest.raises(TriangulationError, match="not a cycle"):
        representation_volume(rho, bad, asg)


def _fig8_pairings_mutated(how):
    """The figure-eight fixture with one of its face pairings broken."""
    tri = figure_eight_triangulation()
    pairs = list(tri.pairings)
    p = pairs[1]  # the face omitting vertex 0 of simplex 0 onto simplex 1's, by "a B A"
    if how == "dropped":
        del pairs[1]
    elif how == "face reused":
        pairs.append(p)
    elif how == "face reused by a failing pairing":
        pairs.append(FacePairing(p.src, p.src_face, p.dst, p.dst_face, "a b"))
    elif how == "src and dst swapped":
        pairs[1] = FacePairing(p.dst, p.dst_face, p.src, p.src_face, p.word)
    elif how == "wrong face":
        pairs[1] = FacePairing(p.src, p.src_face, p.dst, 2, p.word)
    return replace(tri, pairings=tuple(pairs))


def _dehn_stack(tri, filling=(5, 1)):
    """The 11-sample developed stack of a dehn3d scan and its word images."""
    path = generate_path("dehn3d", {"triangulation": tri, "filling": filling})
    _, _, stack, word_matrix = _develop_samples(
        path.evaluate_many(np.linspace(0.0, 1.0, 11)), tri, 0, "prefer_ideal")
    return stack, word_matrix


_PAIRING_FAULTS = ["dropped", "face reused", "face reused by a failing pairing",
                   "src and dst swapped", "wrong face"]


@pytest.mark.parametrize("how", _PAIRING_FAULTS)
def test_relaxed_check_detects_a_broken_pairing_on_one_developing(how):
    bad = _fig8_pairings_mutated(how)
    rho, asg = _fig8_developed(bad)
    with pytest.raises(TriangulationError, match="^triangulation is not a cycle"):
        representation_volume(rho, bad, asg)


@pytest.mark.parametrize("how", _PAIRING_FAULTS)
def test_relaxed_check_detects_a_broken_pairing_on_every_scan_sample(how):
    bad = _fig8_pairings_mutated(how)
    stack, word_matrix = _dehn_stack(bad)
    assert (_developed_cycles(stack, bad, word_matrix) > 0).all()
    path = generate_path("dehn3d", {"triangulation": bad, "filling": (5, 1)})
    with pytest.raises(TriangulationError, match="^sample 0: triangulation is not a cycle"):
        scan_path(path, bad, 11)


@pytest.mark.parametrize("filling", [(5, 1), (-5, 1)])
def test_shipped_pairings_hold_on_every_scan_sample(filling):
    tri = figure_eight_triangulation()
    stack, word_matrix = _dehn_stack(tri, filling)
    assert _developed_cycles(stack, tri, word_matrix).tolist() == [0] * 11


def test_relaxed_check_names_the_one_failing_sample():
    """A pairing word whose image at sample 7 alone is turned by 1e-3
    carries each point to the same nearest target, with the same
    orientation, but farther than the cycle tolerance: the check fails
    at sample 7 alone, and the error names that sample."""
    tri = figure_eight_triangulation()
    stack, word_matrix = _dehn_stack(tri)
    turn = np.eye(4)
    turn[1:3, 1:3] = [[np.cos(1e-3), -np.sin(1e-3)], [np.sin(1e-3), np.cos(1e-3)]]

    def broken_at_7(word):
        W = np.array(word_matrix(word))
        if word == tri.pairings[3].word:
            W[7] = turn @ W[7]
        return W

    assert _developed_cycles(stack, tri, broken_at_7).astype(bool).tolist() == [
        k == 7 for k in range(11)]
    with pytest.raises(TriangulationError, match="^sample 7: triangulation is not a cycle"):
        _require_cycles(tri, stack, broken_at_7)


# --- coning ---------------------------------------------------------------------

def test_cone_boundary_counts_and_slots():
    torus = torus_boundary_2d()
    cones = cone_boundary(torus, "cusp0")
    assert len(cones) == len(torus.simplices)
    for c in cones:
        assert len(c.slots) == 4
        assert sum(1 for v, _ in c.slots if v == "cusp_cusp0") == 1


def test_cone_boundary_empty():
    empty = LabeledTriangulation(
        2, GroupPresentation(("x",)), (OrbitVertex("v", "material"),), ())
    assert cone_boundary(empty, "c") == []


def test_cone_boundary_rejects_open_complex():
    tri = LabeledTriangulation(
        2, GroupPresentation(("a", "b")), (OrbitVertex("v", "material"),),
        (LabeledSimplex((("v", ""), ("v", "a"), ("v", "b")), 1),))
    with pytest.raises(TriangulationError):
        cone_boundary(tri, "c")


def test_suspension_cone_plus_core_is_cycle():
    assert check_cycle(suspension_4d()).is_cycle


def test_cone_output_passes_slot_distinctness():
    torus = torus_boundary_2d()
    cones = cone_boundary(torus, "cusp0")
    tri = LabeledTriangulation(
        3, torus.presentation,
        torus.orbit_vertices + (OrbitVertex("cusp_cusp0", "ideal", "cusp0"),),
        tuple(cones), (Cusp("cusp0", ("x",)),))
    assert validate_triangulation(tri) == []


# --- peripheral words and serialization ------------------------------------------

def test_peripheral_words_fig8():
    tri = figure_eight_triangulation()
    words = peripheral_words(tri, "cusp0")
    assert words[0] == "a"
    assert words[1].startswith("b a B A")


def test_peripheral_words_punctured_torus_commutator():
    tri = punctured_torus_triangulation()
    assert peripheral_words(tri, "cusp0") == ["a b A B"]


def test_peripheral_words_unknown_cusp():
    with pytest.raises(TriangulationError):
        peripheral_words(figure_eight_triangulation(), "nope")


def test_json_round_trip():
    for tri in (figure_eight_triangulation(), punctured_torus_triangulation(),
                suspension_4d()):
        blob = json.dumps(tri.to_json())
        back = LabeledTriangulation.from_json(blob)
        assert back == tri


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("dim"), "triangulation has no 'dim'"),
    (lambda d: d["orbit_vertices"][0].pop("kind"),
     "triangulation.orbit_vertices[0] has no 'kind'"),
    (lambda d: d.update(dim="3"), "triangulation.dim must be an integer, not str"),
    (lambda d: d.update(dim=True), "triangulation.dim must be an integer, not bool"),
    (lambda d: d["simplices"][1]["slots"].append(["c"]),
     "triangulation.simplices[1].slots[4] must have 2 entries"),
    (lambda d: d["pairings"][2].__setitem__(0, 1.0),
     "triangulation.pairings[2][0] must be an integer, not float"),
    (lambda d: d["cusps"][0].update(peripheral="a"),
     "triangulation.cusps[0].peripheral must be a list, not str"),
    (lambda d: d.update(gluing=[]), "triangulation.gluing must be an object, not list"),
], ids=["no-dim", "vertex-no-kind", "dim-str", "dim-bool", "short-slot",
        "float-index", "peripheral-str", "gluing-list"])
def test_from_json_names_the_bad_key(mutate, message):
    data = figure_eight_triangulation().to_json()
    mutate(data)
    with pytest.raises(TriangulationError) as err:
        LabeledTriangulation.from_json(data)
    assert str(err.value) == message


def test_from_json_rejects_a_non_object():
    with pytest.raises(TriangulationError, match="must be an object, not list"):
        LabeledTriangulation.from_json([figure_eight_triangulation().to_json()])


@pytest.mark.parametrize("value, message", [
    ([[0, 1], [1]], "spec.direction must be a rectangular matrix, but row 1 has 1 "
                    "entries and row 0 has 2"),
    ([[0, 1], [1, "x"]], "spec.direction[1][1] must be a number, not str"),
    ([0, 1], "spec.direction[0] must be a list, not int"),
], ids=["ragged", "entry-str", "flat"])
def test_matrix_schema_names_the_bad_entry(value, message):
    check_schema([[0.0, 1.5], [2, 3]], Matrix(), "spec.direction")
    with pytest.raises(TriangulationError) as err:
        check_schema(value, Matrix(), "spec.direction")
    assert str(err.value) == message


def test_shipped_fixture_files_match_builders():
    from pathlib import Path
    from hypvol.fixtures import _BUILDERS
    fixdir = Path(__file__).resolve().parents[1] / "fixtures"
    for name, builder in _BUILDERS.items():
        on_disk = json.loads((fixdir / name).read_text())
        assert on_disk == builder().to_json(), f"{name} drifted from its builder"
