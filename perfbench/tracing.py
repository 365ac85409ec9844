"""Layer tracing from outside the program.

The tracer wraps public functions of hypvol by rebinding the names that
callers look up at call time: module globals (including the copies a
module imported with ``from .x import f``) and class attributes.  It
keeps spans in memory (name, start, end, parent span, operation index)
and counters per layer; ``install`` and ``uninstall`` swap the wrappers
in and out, so untraced rounds run the program unchanged.

Hot functions (thousands of calls per operation) get counters and
inclusive time only; the rest also record spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (layer name, kind, call sites) per wrapped function.  kind is "count"
# (calls only), "hot" (calls and time) or "span" (calls, time and spans);
# a call site is a module and the attribute path callers look up there.
TARGETS = [
    ("lorentz.isometry_checks", "count", [("hypvol.lorentz", "Isometry.__post_init__")]),
    ("lorentz.compose", "hot", [("hypvol.lorentz", "Isometry.compose")]),
    ("repvol.evaluate_word", "hot", [("hypvol.repvol", "evaluate_word")]),
    ("repvol.path_evaluate", "span", [("hypvol.repvol", "DeformationPath.evaluate")]),
    ("repvol.gluing_solve", "span", [("hypvol.repvol", "solve_gluing_equations"),
                                     ("hypvol", "solve_gluing_equations")]),
    ("repvol.developing", "span", [("hypvol.repvol", "build_developing_assignment"),
                                   ("hypvol", "build_developing_assignment")]),
    ("repvol.volume", "span", [("hypvol.repvol", "representation_volume"),
                               ("hypvol", "representation_volume")]),
    ("triangulation.check_cycle", "span", [("hypvol.triangulation", "check_cycle"),
                                           ("hypvol.repvol", "check_cycle"),
                                           ("hypvol", "check_cycle")]),
    ("simplex.signed_volume", "span", [("hypvol.simplex", "signed_volume"),
                                       ("hypvol.repvol", "signed_volume"),
                                       ("hypvol", "signed_volume")]),
    ("simplex.cubature", "span", [("hypvol.simplex", "numeric_volume"),
                                  ("hypvol", "numeric_volume")]),
    ("simplex.dihedral_angle", "hot", [("hypvol.simplex", "dihedral_angle"),
                                       ("hypvol.schlafli", "dihedral_angle"),
                                       ("hypvol", "dihedral_angle")]),
    ("simplex.face_measure", "span", [("hypvol.simplex", "face_measure"),
                                      ("hypvol.schlafli", "face_measure"),
                                      ("hypvol", "face_measure")]),
    ("cubature.build_rule", "span", [("hypvol.cubature", "build_rule"),
                                     ("hypvol.simplex", "build_rule")]),
    ("cubature.evaluate", "span", [("hypvol.cubature", "VolumeRule.evaluate")]),
    ("schlafli.family_derivatives", "span", [("hypvol.schlafli", "family_derivatives"),
                                             ("hypvol", "family_derivatives")]),
]

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self.closed_form = 0
        self.rules = []  # (cells, points, error_estimate / tol) per built rule
        self.spans = []
        self.dropped_spans = 0
        self.op_index = -1
        self._next_span = 0
        self._stack = []
        self._saved = []

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, name, kind, fn):
        tracer = self

        if kind == "count":
            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        if kind == "hot":
            def hot(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.counts[name] += 1
                    tracer.seconds[name] += time.perf_counter() - t0
            return hot

        def spanned(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span_id = tracer._next_span
            tracer._next_span += 1
            tracer._stack.append(span_id)
            cubature_before = tracer.counts["simplex.cubature"]
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.counts[name] += 1
                tracer.seconds[name] += t1 - t0
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, parent, name, t0, t1, tracer.op_index))
                else:
                    tracer.dropped_spans += 1
            if name == "simplex.signed_volume" and tracer.counts["simplex.cubature"] == cubature_before:
                tracer.closed_form += 1
            elif name == "cubature.build_rule":
                tracer._record_rule(args, kwargs, out)
            return out
        return spanned

    def _record_rule(self, args, kwargs, rule):
        klein = args[0]
        tol = kwargs["tol"] if "tol" in kwargs else args[2]
        n = len(klein[0])
        points = sum(g ** n for _, _, g in rule.cells)
        self.rules.append((len(rule.cells), points, rule.error_estimate / tol))

    # -- patching -----------------------------------------------------------
    def install(self):
        for name, kind, sites in TARGETS:
            for module_name, attr in sites:
                owner = sys.modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, kind, original))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- results ------------------------------------------------------------
    def metrics(self, ops: int) -> dict:
        """Per-layer metrics per traced operation (counts and ms), plus
        per-rule cubature figures."""
        c, s = self.counts, self.seconds
        per_op = 1.0 / max(ops, 1)
        rules = len(self.rules)

        def ms(key):
            return 1e3 * s[key] * per_op

        return {
            "lorentz.isometry_checks": (c["lorentz.isometry_checks"] * per_op, "count/op"),
            "lorentz.compose_calls": (c["lorentz.compose"] * per_op, "count/op"),
            "lorentz.compose_ms": (ms("lorentz.compose"), "ms/op"),
            "repvol.evaluate_word_calls": (c["repvol.evaluate_word"] * per_op, "count/op"),
            "repvol.evaluate_word_ms": (ms("repvol.evaluate_word"), "ms/op"),
            "repvol.path_evaluate_ms": (ms("repvol.path_evaluate"), "ms/op"),
            "repvol.gluing_solve_ms": (ms("repvol.gluing_solve"), "ms/op"),
            "repvol.developing_ms": (ms("repvol.developing"), "ms/op"),
            "repvol.volume_ms": (ms("repvol.volume"), "ms/op"),
            "triangulation.check_cycle_calls": (c["triangulation.check_cycle"] * per_op, "count/op"),
            "triangulation.check_cycle_ms": (ms("triangulation.check_cycle"), "ms/op"),
            "simplex.signed_volume_calls": (c["simplex.signed_volume"] * per_op, "count/op"),
            "simplex.closed_form_calls": (self.closed_form * per_op, "count/op"),
            "simplex.cubature_calls": (c["simplex.cubature"] * per_op, "count/op"),
            "simplex.dihedral_angle_calls": (c["simplex.dihedral_angle"] * per_op, "count/op"),
            "simplex.dihedral_angle_ms": (ms("simplex.dihedral_angle"), "ms/op"),
            "simplex.face_measure_ms": (ms("simplex.face_measure"), "ms/op"),
            "cubature.build_rule_calls": (c["cubature.build_rule"] * per_op, "count/op"),
            "cubature.build_rule_ms": (ms("cubature.build_rule"), "ms/op"),
            "cubature.evaluate_calls": (c["cubature.evaluate"] * per_op, "count/op"),
            "cubature.evaluate_ms": (ms("cubature.evaluate"), "ms/op"),
            "cubature.evaluations_per_rule": (c["cubature.evaluate"] / rules if rules else 0.0, "ratio"),
            "cubature.cells_per_rule": (sum(r[0] for r in self.rules) / rules if rules else 0.0, "count"),
            "cubature.points_per_rule": (sum(r[1] for r in self.rules) / rules if rules else 0.0, "count"),
            "cubature.bound_over_tol": (max((r[2] for r in self.rules), default=0.0), "ratio"),
            "schlafli.family_derivatives_ms": (ms("schlafli.family_derivatives"), "ms/op"),
        }

    def self_times(self) -> dict:
        """Self time per span name in ms: each span's duration minus the
        time its child spans cover."""
        child = defaultdict(float)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for span_id, _, name, t0, t1, _ in self.spans:
            out[name] += 1e3 * (t1 - t0 - child[span_id])
        return dict(out)

    def write(self, path) -> None:
        payload = {
            "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b, "op": o}
                      for i, p, n, a, b, o in self.spans],
            "dropped_spans": self.dropped_spans,
            "self_ms": self.self_times(),
            "counts": dict(self.counts),
            "inclusive_ms": {k: 1e3 * v for k, v in self.seconds.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
