import contextlib
import io
import json
import os
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


def test_path_scan_dehn_expect_constant_fails(run, fixdir):
    spec = {"kind": "dehn3d", "params": {"filling": [5, 1], "steps": 12}}
    (fixdir / "dehn.json").write_text(json.dumps(spec))
    code, out = run("--no-timestamp", "path", "scan", "--path", "dehn.json",
                    "--tri", "fig8.json", "--samples", "5", "--expect-constant")
    assert code == 1
    assert json.loads(out)["verdict"] == "NonConstant"


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


@pytest.mark.parametrize("simplex, extra", [
    ({"vertices": [{"kind": "Material", "coords": [1, 1, 0, 0]}]
      + [{"kind": "material", "coords": c} for c in MATERIAL_TET[1:]]}, ()),
    ({"verts": []}, ()),
    ({"vertices": [{"kind": "material", "coords": c} for c in MATERIAL_TET]},
     ("--tol", "1e-20")),
    ({"vertices": 5}, ()),
    ({"vertices": [{"kind": "material", "coords": None}]}, ()),
    ({"vertices": [{"kind": "ideal", "coords": [float("nan"), 0, 1]}]
      + [{"kind": "ideal", "coords": [1, -0.5, s * 0.8660254037844386]} for s in (1, -1)]}, ()),
    ({"vertices": [{"kind": "material", "coords": [float("nan"), 0, 0]}]
      + [{"kind": "ideal", "coords": [1, -0.5, s * 0.8660254037844386]} for s in (1, -1)]}, ()),
], ids=["unknown-kind", "missing-vertices", "unreachable-tol", "vertices-not-list",
        "coords-not-list", "ideal-nan-x0", "material-nan-x0"])
def test_simplex_vol_bad_input_exit_2(fixdir, monkeypatch, capsys, simplex, extra):
    monkeypatch.setenv("HYPVOL_FIXTURES", str(fixdir))
    (fixdir / "bad_simplex.json").write_text(json.dumps(simplex))
    code = main(["--no-timestamp", "simplex", "vol", "--simplex", "bad_simplex.json",
                 *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


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


_REP = ("--tri", "fig8.json", "--rep", "fig8_geometric.json")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "x"])
@pytest.mark.parametrize("argv, flag", [
    (("simplex", "vol", "--simplex", "tet.json"), "--tol"),
    (("simplex", "schlafli", "--family", "family.json"), "--tol"),
    (("simplex", "schlafli", "--family", "family.json"), "--h"),
    (("tri", "solve", "--tri", "fig8.json"), "--tol"),
    (("rep", "classify", *_REP), "--tol"),
    (("rep", "vol", *_REP), "--tol"),
    (("path", "scan", "--path", "path.json", "--tri", "fig8.json"), "--tol"),
], ids=["simplex-vol", "schlafli-tol", "schlafli-h", "tri-solve", "rep-classify", "rep-vol",
        "path-scan"])
def test_tolerance_not_positive_finite_exit_2(fixdir, monkeypatch, capsys, argv, flag, value):
    """--tol and --h are refused at parsing, before any input is read or
    any work is done, with a usage error naming the flag."""
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
