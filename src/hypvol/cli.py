"""Command-line surface: run the library operations on JSON fixtures and
emit deterministic JSON/CSV reports.

Exit codes: 0 = success (and every asserted verdict passed), 1 = a
verdict assertion failed (e.g. --expect-constant on a non-constant
path), 2 = input or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import fixtures as fixture_mod
from .cubature import IntegrationError
from .lorentz import LorentzVector
from .simplex import GeodesicSimplex, SimplexFamily, signed_volume, dihedral_angle
from .schlafli import schlafli_residual, schlafli_residual_truncated_3d
from .triangulation import (AnyOf, LabeledTriangulation, Matrix, check_cycle,
                            check_schema, validate_triangulation)
from .repvol import (
    RepvolError,
    build_developing_assignment,
    check_representation,
    classify_peripheral,
    generate_path,
    milnor_wood_margin,
    representation_volume,
    scan_path,
    solve_gluing_equations,
    toledo_number,
)


def _resolve(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    candidate = fixture_mod.fixture_dir() / path
    if candidate.exists():
        return candidate
    raise FileNotFoundError(f"no such file: {path} (also tried {candidate})")


def _read_tri(path: str) -> LabeledTriangulation:
    return LabeledTriangulation.from_json(json.loads(_resolve(path).read_text()))


def _load_tri(path: str) -> LabeledTriangulation:
    """A triangulation without structural violations."""
    tri = _read_tri(path)
    issues = validate_triangulation(tri)
    if issues:
        raise ValueError(f"{path}: " + "; ".join(issues))
    return tri


_VERTEX_KINDS = {"material": LorentzVector.material, "ideal": LorentzVector.ideal}


def _parse_simplex(data, where: str) -> GeodesicSimplex:
    """The simplex of a JSON object {"vertices": [{"kind", "coords"}, ...]}
    with kind "material" or "ideal"."""
    if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
        raise ValueError(f"{where}: missing 'vertices' list")
    verts = []
    for i, v in enumerate(data["vertices"]):
        if not isinstance(v, dict) or "kind" not in v or "coords" not in v:
            raise ValueError(f"{where}: vertex {i} needs 'kind' and 'coords'")
        if v["kind"] not in _VERTEX_KINDS:
            raise ValueError(f"{where}: vertex {i} has kind {v['kind']!r}, "
                             f"not 'material' or 'ideal'")
        coords = np.asarray(v["coords"], dtype=float)
        if coords.ndim != 1:
            raise ValueError(f"{where}: vertex {i} coords are not a list of numbers")
        verts.append(_VERTEX_KINDS[v["kind"]](coords))
    return GeodesicSimplex(verts)


def _load_simplex(path: str) -> GeodesicSimplex:
    return _parse_simplex(json.loads(_resolve(path).read_text()), path)


def _load_family(path: str) -> SimplexFamily:
    data = json.loads(_resolve(path).read_text())
    if not isinstance(data, dict) or "times" not in data or "keyframes" not in data:
        raise ValueError(f"{path}: a family needs 'times' and 'keyframes'")
    keyframes = [_parse_simplex(frame, f"{path} keyframe {k}")
                 for k, frame in enumerate(data["keyframes"])]
    return SimplexFamily.from_keyframes(data["times"], keyframes)


def _load_rep(tri: LabeledTriangulation, path: str):
    images = fixture_mod.load_representation_images(_resolve(path))
    return check_representation(tri.presentation, images)


def _emit(report: dict, args) -> None:
    if not getattr(args, "no_timestamp", False):
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if getattr(args, "format", "json") == "csv":
        flat = _flatten(report)
        lines = [",".join(flat), ",".join(str(flat[k]) for k in flat)]
        sys.stdout.write("\n".join(lines) + "\n")
    elif getattr(args, "pretty", False):
        width = max(len(k) for k in report)
        for k in sorted(report):
            sys.stdout.write(f"{k:<{width}}  {report[k]}\n")
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    return str(obj)


def _flatten(d, prefix=""):
    out = {}
    for k, v in sorted(d.items()):
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            out[key] = ";".join(str(x) for x in v)
        else:
            out[key] = v
    return out


def _cmd_simplex_vol(args) -> int:
    s = _load_simplex(args.simplex)
    vol = signed_volume(s, args.tol)
    _emit({"command": "simplex vol", "signed_volume": vol, "tol": args.tol,
           "dim": s.dim}, args)
    return 0


def _cmd_simplex_angle(args) -> int:
    s = _load_simplex(args.simplex)
    i, j = (int(x) for x in args.face.split(","))
    theta = dihedral_angle(s, (i, j))
    _emit({"command": "simplex angle", "face": [i, j], "dihedral_angle": theta,
           "tol": 1e-10}, args)
    return 0


def _cmd_simplex_schlafli(args) -> int:
    fam = _load_family(args.family)
    n = fam(0.0).dim
    ts = np.linspace(args.h, 1.0 - args.h, args.samples)
    rows = []
    for t in ts:
        if n == 3 and args.truncated:
            r = schlafli_residual_truncated_3d(fam, float(t), args.h)
        else:
            r = schlafli_residual(fam, float(t), args.h)
        rows.append({"t": float(t), "residual": r})
    worst = max(abs(r["residual"]) for r in rows)
    _emit({"command": "simplex schlafli", "rows": rows, "max_residual": worst,
           "h": args.h, "tol": args.tol}, args)
    return 0 if worst <= args.tol else 1


def _cmd_tri_validate(args) -> int:
    tri = _read_tri(args.tri)
    issues = validate_triangulation(tri)
    report = {"command": "tri validate", "violations": issues}
    if not issues:
        cyc = check_cycle(tri)
        report["combinatorial_cycle"] = cyc.is_cycle
        report["has_pairings"] = tri.pairings is not None
    _emit(report, args)
    return 0 if not issues else 2


def _cmd_tri_solve(args) -> int:
    tri = _load_tri(args.tri)
    if args.filling.lower() == "complete":
        filling = "complete"
    else:
        p, q = (float(x) for x in args.filling.split(","))
        filling = (p, q)
    init = [complex(z) for z in args.shapes.split(";")] if args.shapes else \
        [0.5 + 0.8j, 0.5 + 0.8j]
    sol = solve_gluing_equations(tri, filling, init, tol=args.tol)
    _emit({"command": "tri solve", "filling": str(filling),
           "shapes": [[z.real, z.imag] for z in sol.shapes],
           "residual": sol.residual, "tol": args.tol,
           "relator_residual": sol.representation.relator_residual}, args)
    return 0


def _cmd_rep_check(args) -> int:
    tri = _load_tri(args.tri)
    rep = _load_rep(tri, args.rep)
    _emit({"command": "rep check", "accepted": True,
           "relator_residual": rep.relator_residual, "tol": 1e-8}, args)
    return 0


def _cmd_rep_classify(args) -> int:
    tri = _load_tri(args.tri)
    rep = _load_rep(tri, args.rep)
    out = {}
    for c in tri.cusps:
        cls = classify_peripheral(rep, tri, c.id, tol=args.tol)
        out[c.id] = cls.kind.value
    _emit({"command": "rep classify", "cusps": out, "tol": args.tol}, args)
    return 0


def _cmd_rep_vol(args) -> int:
    tri = _load_tri(args.tri)
    rep = _load_rep(tri, args.rep)
    assignment = build_developing_assignment(rep, tri, seed=args.seed)
    vol = representation_volume(rep, tri, assignment, tol=args.tol)
    report = {"command": "rep vol", "volume": vol, "seed": args.seed,
              "tol": args.tol}
    if args.reference_vol is not None:
        report["milnor_wood_margin"] = milnor_wood_margin(vol, args.reference_vol)
    _emit(report, args)
    return 0


def _cmd_rep_toledo(args) -> int:
    tri = _load_tri(args.tri)
    rep = _load_rep(tri, args.rep)
    assignment = build_developing_assignment(rep, tri, seed=args.seed)
    value = toledo_number(rep, tri, assignment)
    _emit({"command": "rep toledo", "toledo": value, "seed": args.seed,
           "tol": 1e-9}, args)
    return 0


_MATRIX = Matrix()
# The parameters of each path kind, as a triangulation-style schema; "base"
# is the representation file named by the spec's "base" (or "rep") key.
_PATH_PARAMS = {
    "conjugation": {"base": str, "direction": _MATRIX},
    "twist2d": {"base": str, "generator": str, "direction": AnyOf(str, _MATRIX),
                "boundary_words?": [str]},
    "keyframes": {"times": [float], "keyframes": [dict]},
    "dehn3d": {"filling": (int, int), "steps?": int},
}


def _cmd_path_scan(args) -> int:
    tri = _load_tri(args.tri)
    spec = json.loads(_resolve(args.path).read_text())
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise ValueError(f"{args.path}: a path spec is an object with a 'kind'")
    if not isinstance(spec.get("params", {}), dict):
        raise ValueError(f"{args.path}: 'params' must be an object")
    kind = spec["kind"]
    if kind not in _PATH_PARAMS:
        raise ValueError(f"{args.path}: unknown path kind {kind!r}; "
                         f"known: {', '.join(_PATH_PARAMS)}")
    params = dict(spec.get("params", {}))
    schema = _PATH_PARAMS[kind]
    base_ref = spec.get("base", spec.get("rep"))
    if "base" in schema and base_ref is not None:
        params["base"] = base_ref
    check_schema(params, schema, f"{args.path}: {kind} params")
    if "base" in schema:
        params["base"] = _load_rep(tri, params["base"])
    if kind == "conjugation":
        params["direction"] = np.asarray(params["direction"], dtype=float)
    if kind == "keyframes":
        params["presentation"] = tri.presentation
    if kind == "dehn3d":
        params["triangulation"] = tri
        params["filling"] = tuple(params["filling"])
    path = generate_path(kind, params)
    report = scan_path(path, tri, args.samples, tol=args.tol,
                       reference_vol=args.reference_vol, seed=args.seed)
    out = {"command": "path scan", "kind": kind, "verdict": report.verdict,
           "max_deviation": report.max_deviation,
           "tolerance": report.tolerance,
           "samples": [{"t": t, "volume": v, "classes": c}
                       for (t, v, c) in report.samples]}
    if report.milnor_wood_margin_min is not None:
        out["milnor_wood_margin_min"] = report.milnor_wood_margin_min
    _emit(out, args)
    if args.expect_constant and report.verdict != "Constant":
        return 1
    if args.expect_nonconstant and report.verdict != "NonConstant":
        return 1
    return 0


def _positive(text: str) -> float:
    """An argparse type for tolerances and steps: a positive finite
    number, or a usage error (exit 2) naming the flag."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hypvol")
    ap.add_argument("--format", choices=["json", "csv"], default="json")
    ap.add_argument("--no-timestamp", action="store_true")
    ap.add_argument("--pretty", action="store_true")
    sub = ap.add_subparsers(dest="group", required=True)

    sp = sub.add_parser("simplex")
    ssub = sp.add_subparsers(dest="cmd", required=True)
    v = ssub.add_parser("vol")
    v.add_argument("--simplex", required=True)
    v.add_argument("--tol", type=_positive, default=1e-9)
    v.set_defaults(fn=_cmd_simplex_vol)
    a = ssub.add_parser("angle")
    a.add_argument("--simplex", required=True)
    a.add_argument("--face", required=True, help="omitted vertex pair, e.g. 0,1")
    a.set_defaults(fn=_cmd_simplex_angle)
    s = ssub.add_parser("schlafli")
    s.add_argument("--family", required=True)
    s.add_argument("--samples", type=int, default=5)
    s.add_argument("--h", type=_positive, default=1e-4)
    s.add_argument("--tol", type=_positive, default=1e-5)
    s.add_argument("--truncated", action="store_true")
    s.set_defaults(fn=_cmd_simplex_schlafli)

    tp = sub.add_parser("tri")
    tsub = tp.add_subparsers(dest="cmd", required=True)
    tv = tsub.add_parser("validate")
    tv.add_argument("--tri", required=True)
    tv.set_defaults(fn=_cmd_tri_validate)
    ts = tsub.add_parser("solve")
    ts.add_argument("--tri", required=True)
    ts.add_argument("--filling", default="complete", help="complete or p,q")
    ts.add_argument("--shapes", default=None, help="initial shapes, e.g. '0.5+0.8j;0.5+0.8j'")
    ts.add_argument("--tol", type=_positive, default=1e-11)
    ts.set_defaults(fn=_cmd_tri_solve)

    rp = sub.add_parser("rep")
    rsub = rp.add_subparsers(dest="cmd", required=True)
    rc = rsub.add_parser("check")
    rc.add_argument("--tri", required=True)
    rc.add_argument("--rep", required=True)
    rc.set_defaults(fn=_cmd_rep_check)
    rk = rsub.add_parser("classify")
    rk.add_argument("--tri", required=True)
    rk.add_argument("--rep", required=True)
    rk.add_argument("--tol", type=_positive, default=1e-8)
    rk.set_defaults(fn=_cmd_rep_classify)
    rv = rsub.add_parser("vol")
    rv.add_argument("--tri", required=True)
    rv.add_argument("--rep", required=True)
    rv.add_argument("--seed", type=int, default=0)
    rv.add_argument("--tol", type=_positive, default=1e-9)
    rv.add_argument("--reference-vol", type=float, default=None)
    rv.set_defaults(fn=_cmd_rep_vol)
    rt = rsub.add_parser("toledo")
    rt.add_argument("--tri", required=True)
    rt.add_argument("--rep", required=True)
    rt.add_argument("--seed", type=int, default=0)
    rt.set_defaults(fn=_cmd_rep_toledo)

    pp = sub.add_parser("path")
    psub = pp.add_subparsers(dest="cmd", required=True)
    ps = psub.add_parser("scan")
    ps.add_argument("--path", required=True)
    ps.add_argument("--tri", required=True)
    ps.add_argument("--samples", type=int, default=11)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--tol", type=_positive, default=None)
    ps.add_argument("--reference-vol", type=float, default=None)
    ps.add_argument("--expect-constant", action="store_true")
    ps.add_argument("--expect-nonconstant", action="store_true")
    ps.set_defaults(fn=_cmd_path_scan)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except (RepvolError, ValueError, IntegrationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
