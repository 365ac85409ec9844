import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypvol
from hypvol.cli import main
from hypvol.fixtures import (figure_eight_geometric_images, figure_eight_triangulation,
                             write_fixtures)
from hypvol.repvol import check_representation


@pytest.fixture(scope="module")
def fixdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    write_fixtures(d)
    return d


@pytest.fixture()
def run(fixdir, monkeypatch, capsys):
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))

    def invoke(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    return invoke


def test_rep_vol_fig8_golden(run):
    code, out = run("--no-timestamp", "rep", "vol", "--tri", "fig8.json",
                    "--rep", "fig8_geometric.json", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert abs(report["volume"] - 2.0298832128) < 1e-5
    assert "tol" in report


def test_tri_validate_ok_and_broken(run, fixdir):
    code, out = run("--no-timestamp", "tri", "validate", "--tri", "fig8.json")
    assert code == 0
    assert json.loads(out)["violations"] == []

    broken = json.loads((fixdir / "fig8.json").read_text())
    broken["simplices"][0]["slots"][0][1] = "a q"
    (fixdir / "broken.json").write_text(json.dumps(broken))
    code, out = run("--no-timestamp", "tri", "validate", "--tri", "broken.json")
    assert code == 2
    assert json.loads(out)["violations"]


def test_missing_file_exit_2(run):
    code, _ = run("--no-timestamp", "tri", "validate", "--tri", "nope.json")
    assert code == 2


def test_rep_toledo(run):
    code, out = run("--no-timestamp", "rep", "toledo",
                    "--tri", "punctured_torus.json",
                    "--rep", "punctured_torus_fuchsian.json")
    assert code == 0
    assert abs(abs(json.loads(out)["toledo"]) - 2 * np.pi) < 1e-6


def test_rep_classify(run):
    code, out = run("--no-timestamp", "rep", "classify", "--tri", "fig8.json",
                    "--rep", "fig8_geometric.json")
    assert code == 0
    assert json.loads(out)["cusps"] == {"cusp0": "parabolic"}


def test_tri_solve_complete(run):
    code, out = run("--no-timestamp", "tri", "solve", "--tri", "fig8.json",
                    "--filling", "complete", "--shapes", "0.5+0.9j;0.4+1.1j")
    assert code == 0
    report = json.loads(out)
    for re_im in report["shapes"]:
        assert abs(complex(*re_im) - np.exp(1j * np.pi / 3)) < 1e-9


@pytest.mark.parametrize("flag, value, message", [
    ("--shapes", "nan+1j;0.5+0.8j", "initial shapes must be two finite numbers in the "
                                     "upper half plane, not [(nan+1j), (0.5+0.8j)]"),
    ("--shapes", "0.5+0.8j", "upper half plane, not [(0.5+0.8j)]"),
    ("--filling", "nan,1", "filling must be finite and not (0, 0), not (nan, 1.0)"),
    ("--filling", "0,0", "filling must be finite and not (0, 0), not (0.0, 0.0)"),
    ("--filling", "5", "--filling must be 'complete' or p,q, not '5'"),
], ids=["nan-shape", "one-shape", "nan-filling", "zero-filling", "one-number-filling"])
def test_tri_solve_bad_input_exit_2(fixdir, monkeypatch, capsys, flag, value, message):
    """Shapes that are not two finite numbers in the upper half plane,
    and a filling that is not finite p,q other than (0, 0), are refused
    before Newton runs, with a message naming them."""
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    code = main(["--no-timestamp", "tri", "solve", "--tri", "fig8.json", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_tri_solve_without_gluing_data_exit_2(fixdir, monkeypatch, capsys):
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    code = main(["--no-timestamp", "tri", "solve", "--tri", "punctured_torus.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: triangulation carries no supported gluing data\n"


def test_path_scan_expect_constant(run, fixdir):
    spec = {"kind": "conjugation", "rep": "fig8_geometric.json",
            "params": {"direction":
                       [[0, 0.1, 0.2, 0], [0.1, 0, 0.3, -0.1],
                        [0.2, -0.3, 0, 0.2], [0, 0.1, -0.2, 0]]}}
    (fixdir / "conj.json").write_text(json.dumps(spec))
    code, out = run("--no-timestamp", "path", "scan", "--path", "conj.json",
                    "--tri", "fig8.json", "--expect-constant")
    assert code == 0
    assert json.loads(out)["verdict"] == "Constant"


def test_path_scan_keyframes_over_the_triangulation_presentation(run, fixdir):
    rep = check_representation(figure_eight_triangulation().presentation,
                               figure_eight_geometric_images())
    frame = {g: im.matrix.tolist() for g, im in rep.images.items()}
    spec = {"kind": "keyframes", "params": {"times": [0, 1], "keyframes": [frame, frame]}}
    (fixdir / "keyframes.json").write_text(json.dumps(spec))
    code, out = run("--no-timestamp", "path", "scan", "--path", "keyframes.json",
                    "--tri", "fig8.json", "--samples", "3", "--expect-constant")
    assert code == 0
    assert json.loads(out)["verdict"] == "Constant"


@pytest.mark.parametrize("times, message", [
    ([0, 0], "strictly increasing times; got times [0.0, 0.0]"),
    ([0, 0.5], "lies outside the keyframe times [0.0, 0.5]"),
], ids=["equal-times", "samples-past-the-last-time"])
def test_path_scan_keyframes_bad_times_exit_2(fixdir, monkeypatch, capsys, times, message):
    """A keyframes path refuses times that are not strictly increasing,
    and a scan over [0, 1] refuses to sample past its last keyframe."""
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    rep = check_representation(figure_eight_triangulation().presentation,
                               figure_eight_geometric_images())
    frame = {g: im.matrix.tolist() for g, im in rep.images.items()}
    spec = {"kind": "keyframes", "params": {"times": times, "keyframes": [frame, frame]}}
    (fixdir / "bad_keyframes.json").write_text(json.dumps(spec))
    code = main(["--no-timestamp", "path", "scan", "--path", "bad_keyframes.json",
                 "--tri", "fig8.json", "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_path_scan_dehn_expect_constant_fails(run, fixdir):
    spec = {"kind": "dehn3d", "params": {"filling": [5, 1], "steps": 12}}
    (fixdir / "dehn.json").write_text(json.dumps(spec))
    code, out = run("--no-timestamp", "path", "scan", "--path", "dehn.json",
                    "--tri", "fig8.json", "--samples", "5", "--expect-constant")
    assert code == 1
    assert json.loads(out)["verdict"] == "NonConstant"


@pytest.mark.parametrize("filling, message", [
    ((4, 1), r"continuation toward the \(4, 1\) filling failed at s = 1\.0: Newton"),
    ((1, 0), r"continuation toward the \(1, 0\) filling failed at s = 0\.24\d*: Newton stalled"),
    ((0, 1), r"nondegenerate developing assignment"),
], ids=["4,1", "1,0", "0,1"])
def test_path_scan_dehn_exceptional_filling_exit_2(fixdir, monkeypatch, capsys,
                                                    filling, message):
    """The continuation toward (4, 1) or (1, 0) fails, and its message
    names the filling and the parameter s; (0, 1) is walked, but its
    developing degenerates."""
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    spec = {"kind": "dehn3d", "params": {"filling": list(filling)}}
    (fixdir / "dehn_exceptional.json").write_text(json.dumps(spec))
    code = main(["--no-timestamp", "path", "scan", "--path", "dehn_exceptional.json",
                 "--tri", "fig8.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert re.search(message, captured.err), captured.err


def test_determinism_byte_identical(run):
    _, out1 = run("--no-timestamp", "rep", "vol", "--tri", "fig8.json",
                  "--rep", "fig8_geometric.json", "--seed", "0")
    _, out2 = run("--no-timestamp", "rep", "vol", "--tri", "fig8.json",
                  "--rep", "fig8_geometric.json", "--seed", "0")
    assert out1 == out2


def test_csv_and_pretty_formats(run):
    code, out = run("--no-timestamp", "--format", "csv", "rep", "vol",
                    "--tri", "fig8.json", "--rep", "fig8_geometric.json")
    assert code == 0
    header, row = out.strip().split("\n")
    assert "volume" in header
    code, out = run("--no-timestamp", "--pretty", "rep", "vol",
                    "--tri", "fig8.json", "--rep", "fig8_geometric.json")
    assert code == 0
    assert "volume" in out


def test_simplex_vol_command(run, fixdir):
    simplex = {"dim": 2, "vertices": [
        {"coords": [1, 1, 0], "kind": "ideal"},
        {"coords": [1, -0.5, 0.8660254037844386], "kind": "ideal"},
        {"coords": [1, -0.5, -0.8660254037844387], "kind": "ideal"}]}
    (fixdir / "tri2.json").write_text(json.dumps(simplex))
    code, out = run("--no-timestamp", "simplex", "vol", "--simplex", "tri2.json")
    assert code == 0
    assert abs(abs(json.loads(out)["signed_volume"]) - np.pi) < 1e-9


def test_simplex_angle_command(run, fixdir):
    simplex = {"dim": 3, "vertices": [
        {"coords": [1, 0.5773502691896258, 0.5773502691896258, 0.5773502691896258],
         "kind": "ideal"},
        {"coords": [1, 0.5773502691896258, -0.5773502691896258, -0.5773502691896258],
         "kind": "ideal"},
        {"coords": [1, -0.5773502691896258, 0.5773502691896258, -0.5773502691896258],
         "kind": "ideal"},
        {"coords": [1, -0.5773502691896258, -0.5773502691896258, 0.5773502691896258],
         "kind": "ideal"}]}
    (fixdir / "regtet.json").write_text(json.dumps(simplex))
    code, out = run("--no-timestamp", "simplex", "angle",
                    "--simplex", "regtet.json", "--face", "2,3")
    assert code == 0
    assert abs(json.loads(out)["dihedral_angle"] - np.pi / 3) < 1e-9


def test_simplex_angle_at_ideal_vertex_prints_zero(run, fixdir):
    simplex = {"dim": 2, "vertices": [
        {"coords": [1, 0.6, 0.8], "kind": "ideal"},
        {"coords": [1, 0.1, -0.2], "kind": "material"},
        {"coords": [1, -0.3, 0.4], "kind": "material"}]}
    (fixdir / "one_ideal_tri.json").write_text(json.dumps(simplex))
    code, out = run("--no-timestamp", "simplex", "angle",
                    "--simplex", "one_ideal_tri.json", "--face", "1,2")
    assert code == 0
    assert json.loads(out)["dihedral_angle"] == 0.0
    code, out = run("--no-timestamp", "simplex", "angle",
                    "--simplex", "one_ideal_tri.json", "--face", "0,1")
    assert code == 0
    assert 0.0 < json.loads(out)["dihedral_angle"] < np.pi
    code, _ = run("--no-timestamp", "simplex", "angle",
                  "--simplex", "one_ideal_tri.json", "--face", "0,3")
    assert code == 2


@pytest.mark.parametrize("face", ["0", "0,1,2", "a,b", "0.5,1", "", "0;1"])
def test_simplex_angle_bad_face_exit_2(fixdir, monkeypatch, capsys, face):
    """--face is refused at parsing unless it is two comma-separated
    integers, with a usage error naming the flag."""
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    with pytest.raises(SystemExit) as exc:
        main(["--no-timestamp", "simplex", "angle", "--simplex", "tet.json", f"--face={face}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --face:" in captured.err and "Traceback" not in captured.err


def test_rep_check_command(run):
    code, out = run("--no-timestamp", "rep", "check", "--tri", "fig8.json",
                    "--rep", "fig8_geometric.json")
    assert code == 0
    report = json.loads(out)
    assert report["accepted"] and report["relator_residual"] < 1e-10


def test_rep_vol_reference_margin(run):
    code, out = run("--no-timestamp", "rep", "vol", "--tri", "fig8.json",
                    "--rep", "fig8_geometric.json",
                    "--reference-vol", "2.0298832128193069")
    assert code == 0
    assert abs(json.loads(out)["milnor_wood_margin"]) < 1e-9


def test_simplex_schlafli_command(run, fixdir):
    frames = {"times": [0.0, 0.5, 1.0], "keyframes": []}
    rng = np.random.default_rng(0)
    base = rng.uniform(-0.4, 0.4, size=(5, 4))
    drift = rng.uniform(-0.2, 0.2, size=(5, 4))
    for t in frames["times"]:
        verts = []
        for i in range(5):
            k = base[i] + t * (1 - t) * drift[i]
            x0 = 1.0 / np.sqrt(1 - k @ k)
            verts.append({"coords": [x0] + list(x0 * k), "kind": "material"})
        frames["keyframes"].append({"vertices": verts})
    (fixdir / "family.json").write_text(json.dumps(frames))
    code, out = run("--no-timestamp", "simplex", "schlafli",
                    "--family", "family.json", "--samples", "3")
    assert code == 0
    assert json.loads(out)["max_residual"] <= 1e-5


_FRAME = {"vertices": [{"kind": "material", "coords": c}
                      for c in [[1.0, 0.0, 0.0], [1.25, 0.75, 0.0], [1.25, 0.0, 0.75]]]}


@pytest.mark.parametrize("frames, message", [
    ({"times": [0.0, 1.0], "keyframes": []}, "got 0 keyframes for 2 times"),
    ({"times": [0.0, 0.5, 1.0], "keyframes": [_FRAME] * 2}, "got 2 keyframes for 3 times"),
    ({"times": [0.0, True], "keyframes": [_FRAME] * 2},
     "bad_family.json: family.times[1] must be a number, not bool"),
    ({"times": [0.0, 0.0], "keyframes": [_FRAME] * 2},
     "strictly increasing times; got times [0.0, 0.0]"),
    ({"times": [1.0, 0.0], "keyframes": [_FRAME] * 2},
     "strictly increasing times; got times [1.0, 0.0]"),
    ({"times": [0.0, float("inf")], "keyframes": [_FRAME] * 2},
     "strictly increasing times; got times [0.0, inf]"),
    ({"times": [0.0, 0.5], "keyframes": [_FRAME] * 2},
     "lies outside the keyframe times [0.0, 0.5]"),
], ids=["no-keyframes", "count-differs-from-times", "boolean-time", "equal-times",
        "decreasing-times", "time-not-finite", "samples-past-the-last-time"])
def test_simplex_schlafli_bad_family_exit_2(fixdir, monkeypatch, capsys, frames, message):
    """A family needs a number per time, finite and strictly increasing
    times and one keyframe per time, at least two; and `simplex schlafli`
    samples t in [0, 1], which the keyframe times must cover, as a family
    refuses t past its last time rather than extrapolate.  Otherwise it
    exits 2 with a message naming the entry, both counts, the times or
    their range."""
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    (fixdir / "bad_family.json").write_text(json.dumps(frames))
    code = main(["--no-timestamp", "simplex", "schlafli", "--family", "bad_family.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_console_script_entrypoint(fixdir):
    # the child imports the same hypvol as this test, installed or not
    src = str(Path(hypvol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "hypvol.cli", "--no-timestamp", "tri",
         "validate", "--tri", str(fixdir / "fig8.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(hypvol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hypvol.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


MATERIAL_TET = [[1.0, 0.0, 0.0, 0.0], [1.5, 1.118033988749895, 0.0, 0.0],
                [1.5, 0.0, 1.118033988749895, 0.0], [1.5, 0.0, 0.0, 1.118033988749895]]


@pytest.mark.parametrize("simplex, extra, message", [
    ({"vertices": [{"kind": "Material", "coords": [1, 1, 0, 0]}]
      + [{"kind": "material", "coords": c} for c in MATERIAL_TET[1:]]}, (),
     "simplex.vertices[0] has kind 'Material'"),
    ({"verts": []}, (), "simplex has no 'vertices'"),
    ({"vertices": [{"kind": "material", "coords": c} for c in MATERIAL_TET]},
     ("--tol", "1e-20"), "requested tolerance 1e-20"),
    ({"vertices": 5}, (), "simplex.vertices must be a list"),
    ({"vertices": [{"kind": "material", "coords": None}]}, (),
     "simplex.vertices[0].coords must be a list"),
    ({"vertices": [{"kind": "ideal", "coords": [float("nan"), 0, 1]}]
      + [{"kind": "ideal", "coords": [1, -0.5, s * 0.8660254037844386]} for s in (1, -1)]}, (),
     "not finite"),
    ({"vertices": [{"kind": "material", "coords": [float("nan"), 0, 0]}]
      + [{"kind": "ideal", "coords": [1, -0.5, s * 0.8660254037844386]} for s in (1, -1)]}, (),
     "not finite"),
    ({"vertices": [{"kind": "ideal", "coords": [1, True, 0]}]
      + [{"kind": "ideal", "coords": [1, -0.5, s * 0.8660254037844386]} for s in (1, -1)]}, (),
     "simplex.vertices[0].coords[1] must be a number, not bool"),
    ({"vertices": [{"kind": "material", "coords": c} for c in MATERIAL_TET[:3]]}, (),
     "3 vertices but ambient dimension 3"),
], ids=["unknown-kind", "missing-vertices", "unreachable-tol", "vertices-not-list",
        "coords-not-list", "ideal-nan-x0", "material-nan-x0", "boolean-coordinate",
        "too-few-vertices"])
def test_simplex_vol_bad_input_exit_2(fixdir, monkeypatch, capsys, simplex, extra, message):
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    (fixdir / "bad_simplex.json").write_text(json.dumps(simplex))
    code = main(["--no-timestamp", "simplex", "vol", "--simplex", "bad_simplex.json",
                 *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert message in captured.err


@pytest.mark.parametrize("spec", [
    [{"kind": "dehn3d"}],
    {"params": {"filling": [5, 1]}},
    {"kind": 3, "params": {"filling": [5, 1]}},
    {"kind": "dehn3d", "params": [5, 1]},
    {"kind": "conjugation", "rep": "fig8_geometric.json"},
    {"kind": "twist2d", "base": "fig8_geometric.json", "params": {"direction": "a"}},
    {"kind": "keyframes", "params": {"times": [0.0, 1.0]}},
    {"kind": "dehn3d"},
    {"kind": "dehn3d", "params": {"filling": [5, "1"]}},
    {"kind": "dehn3d", "params": {"filling": [5, 1], "steps": 0}},
    {"kind": "spiral", "params": {}},
], ids=["spec-not-object", "missing-kind", "kind-not-string", "params-not-object",
        "conjugation-no-direction", "twist2d-no-generator", "keyframes-no-keyframes",
        "dehn3d-no-filling", "filling-not-int", "dehn3d-zero-steps", "unknown-kind"])
def test_path_scan_bad_spec_exit_2(fixdir, monkeypatch, capsys, spec):
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    (fixdir / "bad_path.json").write_text(json.dumps(spec))
    code = main(["--no-timestamp", "path", "scan", "--path", "bad_path.json",
                 "--tri", "fig8.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("spec, key", [
    ({"kind": "conjugation", "rep": "fig8_geometric.json",
      "params": {"direction": [[0, 1], [1]]}}, "conjugation params.direction"),
    ({"kind": "twist2d", "base": "fig8_geometric.json",
      "params": {"generator": "a", "direction": [[0, 1, 0], [1, 0], [0, 0, 0]]}},
     "twist2d params.direction"),
], ids=["conjugation", "twist2d"])
def test_path_scan_ragged_direction_exit_2(fixdir, monkeypatch, capsys, spec, key):
    """A direction matrix with rows of different lengths exits 2 with a
    message naming the file and the key."""
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    (fixdir / "bad_path.json").write_text(json.dumps(spec))
    code = main(["--no-timestamp", "path", "scan", "--path", "bad_path.json",
                 "--tri", "fig8.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert f"bad_path.json: {key} must be a rectangular matrix" in captured.err


@pytest.mark.parametrize("rep, key", [
    ("fig8.json", "has no 'images'"),
    ([1, 2], "must be an object"),
    ({"images": [[1, 0], [0, 1]]}, "images must be an object"),
    ({"images": {"a": [[1, 0], [0, 1]], "b": 3}}, "images.b must be a list"),
    ({"images": {"a": [[1, 0], [0, 1]], "b": [[1, "x"], [0, 1]]}}, "images.b[0][1]"),
    ({"images": {"a": [[1, 0], [0, 1]], "b": [[1, 0], [1]]}}, "images.b must be a nonempty"),
], ids=["triangulation-file", "not-object", "images-not-object", "image-not-rows",
        "entry-not-number", "ragged-image"])
def test_rep_vol_bad_representation_exit_2(fixdir, monkeypatch, capsys, rep, key):
    """A representation file without a mapping of generator names to
    lists of rows (a triangulation passed as --rep, say) exits 2 with a
    message naming the file and the key."""
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    if not isinstance(rep, str):
        (fixdir / "bad_rep.json").write_text(json.dumps(rep))
        rep = "bad_rep.json"
    code = main(["--no-timestamp", "rep", "vol", "--tri", "fig8.json", "--rep", rep])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert rep in captured.err and key in captured.err


def test_rep_vol_trivial_representation_exit_2(fixdir, monkeypatch, capsys):
    """The trivial representation of the figure-eight develops every
    simplex onto one ideal point, with no material vertex to redraw:
    exit 2 with a message saying so."""
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    identity = np.eye(4).tolist()
    (fixdir / "trivial_rep.json").write_text(json.dumps({"images": {"a": identity,
                                                                    "b": identity}}))
    code = main(["--no-timestamp", "rep", "vol", "--tri", "fig8.json",
                 "--rep", "trivial_rep.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: could not reach a nondegenerate developing assignment: "
                            "its degenerate simplices have no material vertex to redraw\n")


_REP = ("--tri", "fig8.json", "--rep", "fig8_geometric.json")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "x"])
@pytest.mark.parametrize("argv, flag", [
    (("simplex", "vol", "--simplex", "tet.json"), "--tol"),
    (("simplex", "schlafli", "--family", "family.json"), "--tol"),
    (("simplex", "schlafli", "--family", "family.json"), "--h"),
    (("simplex", "schlafli", "--family", "family.json"), "--samples"),
    (("tri", "solve", "--tri", "fig8.json"), "--tol"),
    (("rep", "classify", *_REP), "--tol"),
    (("rep", "vol", *_REP), "--tol"),
    (("path", "scan", "--path", "path.json", "--tri", "fig8.json"), "--tol"),
], ids=["simplex-vol", "schlafli-tol", "schlafli-h", "schlafli-samples", "tri-solve",
        "rep-classify", "rep-vol", "path-scan"])
def test_tolerance_not_positive_finite_exit_2(fixdir, monkeypatch, capsys, argv, flag, value):
    """--tol, --h and --samples are refused at parsing, before any input
    is read or any work is done, with a usage error naming the flag."""
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    with pytest.raises(SystemExit) as exc:
        main(["--no-timestamp", *argv, f"{flag}={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err and "Traceback" not in captured.err


_OTHER_TYPES = (None, True, 7, 1.5, "x", [], {})


@st.composite
def _mutated_fig8(draw):
    """fig8.json with one entry, at most two object keys deep, deleted or
    replaced by a value of another JSON type."""
    data = figure_eight_triangulation().to_json()
    parent, key, keys = None, None, 0
    node = data
    while isinstance(node, (dict, list)) and node and keys < 2 and (
            parent is None or draw(st.booleans())):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        keys += isinstance(node, dict)
        node = parent[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(
            [v for v in _OTHER_TYPES if type(v) is not type(node)]))
    return data


@given(_mutated_fig8())
@settings(max_examples=80, deadline=None)
def test_malformed_triangulation_never_tracebacks(fixdir, data):
    """A triangulation file with a key deleted or a value of the wrong
    type is accepted (exit 0) or rejected with exit 2, never with the
    verdict code 1 or an exception."""
    path = fixdir / "mutated.json"
    path.write_text(json.dumps(data))
    for argv in (["tri", "validate", "--tri", str(path)],
                 ["rep", "vol", "--tri", str(path), "--rep",
                  str(fixdir / "fig8_geometric.json")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--no-timestamp", *argv])
        assert code in (0, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
