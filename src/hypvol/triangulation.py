"""Labeled triangulations of coned-off cusped manifolds.

A triangulation stores abstract simplices whose vertex slots are pairs
(orbit vertex, group word); a slot (v, w) stands for the translate of the
orbit vertex's chosen lift by the group element w.  Words are strings
over the presentation's generators, a capitalized first letter marking
the inverse ("a B" is a * b^-1); free reduction is the only word
equivalence used by the combinatorial checks, so face matching is exact
rather than solving the word problem.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

__all__ = [
    "GroupPresentation",
    "OrbitVertex",
    "LabeledSimplex",
    "Cusp",
    "FacePairing",
    "LabeledTriangulation",
    "TriangulationError",
    "CycleReport",
    "parse_word",
    "reduce_word",
    "word_inverse",
    "word_multiply",
    "format_word",
    "validate_triangulation",
    "check_cycle",
    "cone_boundary",
    "peripheral_words",
]


class TriangulationError(ValueError):
    pass


Token = tuple[str, int]  # (generator name, +-1)


def _cap(name: str) -> str:
    return name[0].upper() + name[1:]


def parse_word(word: str, generators: Sequence[str]) -> tuple[Token, ...]:
    """Parse "a B c" (or tight "aBc" when every generator is one letter)
    into ((gen, exp), ...) tokens and freely reduce."""
    gens = set(generators)
    caps = {_cap(g): g for g in generators}
    word = word.strip()
    if not word:
        return ()
    if any(ch.isspace() for ch in word):
        raw = word.split()
    elif all(len(g) == 1 for g in generators):
        raw = list(word)
    else:
        raw = [word]
    tokens: list[Token] = []
    for tok in raw:
        if tok in gens:
            tokens.append((tok, 1))
        elif tok in caps:
            tokens.append((caps[tok], -1))
        else:
            raise TriangulationError(f"unknown generator in word: {tok!r}")
    return reduce_word(tokens)


def reduce_word(tokens: Iterable[Token]) -> tuple[Token, ...]:
    out: list[Token] = []
    for g, e in tokens:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_inverse(tokens: Sequence[Token]) -> tuple[Token, ...]:
    return tuple((g, -e) for g, e in reversed(tokens))


def word_multiply(*words: Sequence[Token]) -> tuple[Token, ...]:
    return reduce_word(itertools.chain(*words))


def format_word(tokens: Sequence[Token]) -> str:
    return " ".join(g if e > 0 else _cap(g) for g, e in tokens)


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation; relators are stored freely reduced.  Parsed
    words are memoized per presentation."""

    generators: tuple[str, ...]
    relators: tuple[str, ...] = ()
    _parsed: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.generators:
            raise TriangulationError("presentation needs at least one generator")
        for g in self.generators:
            if not g or not g[0].islower():
                raise TriangulationError(
                    f"generator {g!r} must start with a lowercase letter "
                    "(capitalization marks inverses)")
        if len(set(self.generators)) != len(self.generators):
            raise TriangulationError("duplicate generator names")
        reduced = []
        for r in self.relators:
            toks = parse_word(r, self.generators)
            if not toks:
                raise TriangulationError(f"relator {r!r} reduces to the empty word")
            if format_word(toks).replace(" ", "") != r.replace(" ", ""):
                raise TriangulationError(f"relator {r!r} is not freely reduced")
            reduced.append(format_word(toks))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(reduced))

    def parse(self, word: str) -> tuple[Token, ...]:
        """parse_word over this presentation's generators, computed once
        per word; a word that does not parse is not memoized, so it
        raises TriangulationError on every call."""
        tokens = self._parsed.get(word)
        if tokens is None:
            tokens = self._parsed[word] = parse_word(word, self.generators)
        return tokens


@dataclass(frozen=True)
class OrbitVertex:
    id: str
    kind: str  # "material" or "ideal"
    cusp: Optional[str] = None  # cusp id when kind == "ideal"

    def __post_init__(self):
        if self.kind not in ("material", "ideal"):
            raise TriangulationError(f"unknown vertex kind {self.kind!r}")
        if self.kind == "ideal" and not self.cusp:
            raise TriangulationError(f"ideal vertex {self.id} needs a cusp id")


@dataclass(frozen=True)
class LabeledSimplex:
    """n+1 slots of (orbit vertex id, word string) plus an orientation
    sign realizing the simplex's coefficient in the fundamental cycle."""

    slots: tuple[tuple[str, str], ...]
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise TriangulationError(f"sign must be +-1, got {self.sign}")
        object.__setattr__(self, "slots", tuple((v, w) for v, w in self.slots))


@dataclass(frozen=True)
class Cusp:
    id: str
    peripheral: tuple[str, ...]


@dataclass(frozen=True)
class FacePairing:
    """Gluing datum: the face of simplex `src` omitting slot `src_face`
    is carried onto the face of `dst` omitting `dst_face` by the group
    word `word` (acting through a representation on developed points)."""

    src: int
    src_face: int
    dst: int
    dst_face: int
    word: str


@dataclass(frozen=True)
class LabeledTriangulation:
    dim: int
    presentation: GroupPresentation
    orbit_vertices: tuple[OrbitVertex, ...]
    simplices: tuple[LabeledSimplex, ...]
    cusps: tuple[Cusp, ...] = ()
    pairings: Optional[tuple[FacePairing, ...]] = None
    gluing: Optional[dict] = None  # shape-parameter edge equations, if shipped

    def __post_init__(self):
        object.__setattr__(self, "orbit_vertices", tuple(self.orbit_vertices))
        object.__setattr__(self, "simplices", tuple(self.simplices))
        object.__setattr__(self, "cusps", tuple(self.cusps))
        if self.pairings is not None:
            object.__setattr__(self, "pairings", tuple(self.pairings))

    def vertex(self, vid: str) -> OrbitVertex:
        for v in self.orbit_vertices:
            if v.id == vid:
                return v
        raise TriangulationError(f"unknown orbit vertex {vid!r}")

    def cusp(self, cusp_id: str) -> Cusp:
        for c in self.cusps:
            if c.id == cusp_id:
                return c
        raise TriangulationError(f"unknown cusp {cusp_id!r}")

    def to_json(self) -> dict:
        out = {
            "dim": self.dim,
            "generators": list(self.presentation.generators),
            "relators": list(self.presentation.relators),
            "cusps": [{"id": c.id, "peripheral": list(c.peripheral)} for c in self.cusps],
            "orbit_vertices": [
                {"id": v.id, "kind": v.kind, **({"cusp": v.cusp} if v.cusp else {})}
                for v in self.orbit_vertices],
            "simplices": [
                {"slots": [[v, w] for v, w in s.slots], "sign": s.sign}
                for s in self.simplices],
        }
        if self.pairings is not None:
            out["pairings"] = [
                [p.src, p.src_face, p.dst, p.dst_face, p.word] for p in self.pairings]
        if self.gluing is not None:
            out["gluing"] = self.gluing
        return out

    @staticmethod
    def from_json(data) -> "LabeledTriangulation":
        """Parse the JSON form written by to_json; a missing or ill-typed
        key raises TriangulationError naming it."""
        if isinstance(data, str):
            data = json.loads(data)
        check_schema(data, _SCHEMA, "triangulation")
        pres = GroupPresentation(tuple(data["generators"]), tuple(data.get("relators", ())))
        verts = tuple(
            OrbitVertex(v["id"], v["kind"], v.get("cusp"))
            for v in data["orbit_vertices"])
        simps = tuple(
            LabeledSimplex(tuple((v, w) for v, w in s["slots"]), s.get("sign", 1))
            for s in data["simplices"])
        cusps = tuple(Cusp(c["id"], tuple(c["peripheral"])) for c in data.get("cusps", ()))
        pairings = None
        if "pairings" in data:
            pairings = tuple(FacePairing(*row) for row in data["pairings"])
        return LabeledTriangulation(
            dim=data["dim"], presentation=pres, orbit_vertices=verts,
            simplices=simps, cusps=cusps, pairings=pairings,
            gluing=data.get("gluing"))

    @functools.cached_property
    def _cycle_report(self) -> "CycleReport":
        """check_cycle's report, computed on first use."""
        pres = self.presentation
        totals: dict = {}
        examples: dict = {}
        for s in self.simplices:
            slots = [(v, pres.parse(w)) for v, w in s.slots]
            if len(set(slots)) != len(slots):
                continue
            for i in range(len(slots)):
                face = slots[:i] + slots[i + 1:]
                if len(set(face)) != len(face):
                    continue
                key, parity = _canonical_face(face)
                coeff = s.sign * (-1) ** i * parity
                totals[key] = totals.get(key, 0) + coeff
                examples.setdefault(key, (s.slots, i))
        unmatched = tuple(
            {"face": tuple((v, format_word(w)) for v, w in key),
             "coefficient": c,
             "from_simplex": examples[key]}
            for key, c in sorted(totals.items()) if c != 0)
        return CycleReport(is_cycle=not unmatched, unmatched=unmatched)


class AnyOf:
    """A schema met by a value that meets any one of the alternatives."""

    def __init__(self, *alternatives):
        self.alternatives = alternatives


class Matrix:
    """A schema met by a list of number rows that all have one length."""


# The JSON form of a triangulation: a type, [schema of every entry],
# (schema of each position), {key: schema}, where a key ending in "?"
# may be absent, AnyOf(schema, ...), or Matrix().
_SCHEMA = {
    "dim": int, "generators": [str], "relators?": [str],
    "cusps?": [{"id": str, "peripheral": [str]}],
    "orbit_vertices": [{"id": str, "kind": str, "cusp?": str}],
    "simplices": [{"slots": [(str, str)], "sign?": int}],
    "pairings?": [(int, int, int, int, str)], "gluing?": dict,
}
_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "an object"}


def check_schema(value, schema, where: str) -> None:
    """Raise TriangulationError naming the first entry of the JSON value
    that is missing or of the wrong type under the schema; booleans are
    not numbers and integers are numbers."""
    if isinstance(schema, AnyOf):
        failures = []
        for alternative in schema.alternatives:
            try:
                return check_schema(value, alternative, where)
            except TriangulationError as exc:
                failures.append(str(exc))
        raise TriangulationError(" or ".join(failures))
    if isinstance(schema, Matrix):
        check_schema(value, [[float]], where)
        for i, row in enumerate(value):
            if len(row) != len(value[0]):
                raise TriangulationError(
                    f"{where} must be a rectangular matrix, but row {i} has "
                    f"{len(row)} entries and row 0 has {len(value[0])}")
        return
    kind = {dict: dict, list: list, tuple: list}.get(type(schema), schema)
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (kind in (int, float) and isinstance(value, bool)):
        raise TriangulationError(
            f"{where} must be {_JSON_TYPES[kind]}, not {type(value).__name__}")
    if isinstance(schema, dict):
        for key, sub in schema.items():
            name = key.rstrip("?")
            if name in value:
                check_schema(value[name], sub, f"{where}.{name}")
            elif name == key:
                raise TriangulationError(f"{where} has no {name!r}")
    elif isinstance(schema, list):
        for i, item in enumerate(value):
            check_schema(item, schema[0], f"{where}[{i}]")
    elif isinstance(schema, tuple):
        if len(value) != len(schema):
            raise TriangulationError(f"{where} must have {len(schema)} entries")
        for i, (item, sub) in enumerate(zip(value, schema)):
            check_schema(item, sub, f"{where}[{i}]")


def validate_triangulation(tri: LabeledTriangulation) -> list[str]:
    """Structural checks: word well-formedness, cusp references, slot
    counts and slot distinctness.  Returns the list of violations."""
    issues: list[str] = []
    vids = {v.id for v in tri.orbit_vertices}
    if len(vids) != len(tri.orbit_vertices):
        issues.append("duplicate orbit vertex ids")
    cusp_ids = {c.id for c in tri.cusps}
    for v in tri.orbit_vertices:
        if v.kind == "ideal" and v.cusp not in cusp_ids:
            issues.append(f"vertex {v.id} references unknown cusp {v.cusp!r}")
    for c in tri.cusps:
        for w in c.peripheral:
            try:
                tri.presentation.parse(w)
            except TriangulationError as exc:
                issues.append(f"cusp {c.id}: {exc}")
    for k, s in enumerate(tri.simplices):
        if len(s.slots) != tri.dim + 1:
            issues.append(f"simplex {k}: {len(s.slots)} slots, expected {tri.dim + 1}")
        seen = set()
        for v, w in s.slots:
            if v not in vids:
                issues.append(f"simplex {k}: unknown orbit vertex {v!r}")
                continue
            try:
                key = (v, tri.presentation.parse(w))
            except TriangulationError as exc:
                issues.append(f"simplex {k}: {exc}")
                continue
            if key in seen:
                issues.append(f"simplex {k}: degenerate slot ({v}, {w!r})")
            seen.add(key)
    if tri.pairings is not None:
        nsimp = len(tri.simplices)
        for p in tri.pairings:
            for label, s_idx, f_idx in (("src", p.src, p.src_face),
                                        ("dst", p.dst, p.dst_face)):
                if not 0 <= s_idx < nsimp:
                    issues.append(f"pairing {p}: {label} simplex out of range")
                elif not 0 <= f_idx <= tri.dim:
                    issues.append(f"pairing {p}: {label} face out of range")
            try:
                tri.presentation.parse(p.word)
            except TriangulationError as exc:
                issues.append(f"pairing {p}: {exc}")
    return issues


def _canonical_face(slots: list[tuple[str, tuple[Token, ...]]]):
    """Canonical key of a codimension-1 face up to left translation of
    all words, with the parity of the canonical reordering.

    For every anchor slot j the words are left-translated by w_j^{-1};
    the candidate is the sorted slot tuple.  The minimum candidate over
    anchors is translation-invariant, so two faces get the same key
    exactly when one is a left translate of the other (as reduced words).
    """
    best = None
    best_parity = 0
    for j in range(len(slots)):
        inv = word_inverse(slots[j][1])
        translated = [(v, word_multiply(inv, w)) for v, w in slots]
        order = sorted(range(len(translated)), key=lambda i: (translated[i][0],
                                                              translated[i][1]))
        cand = tuple(translated[i] for i in order)
        if best is None or cand < best:
            best = cand
            best_parity = _perm_parity(order)
    return best, best_parity


def _perm_parity(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    parity = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            parity = -parity
    return parity


@dataclass(frozen=True)
class CycleReport:
    is_cycle: bool
    unmatched: tuple


def check_cycle(tri: LabeledTriangulation) -> CycleReport:
    """Whether the signed simplex sum is a cycle: every codimension-1
    face of the formal boundary must cancel.

    Faces are identified when their slot sets agree after a single left
    translation (exact word equality after free reduction).  This can
    certify synthetic fixtures but never a fundamental cycle of a group
    with relators or nontrivial vertex stabilizers: word matching cannot
    see either, so every combinatorially-matching cycle develops to zero
    total volume.  Such fixtures carry face pairings instead, which the
    representation layer verifies on the developed simplices.

    The report depends on the triangulation alone and is computed once
    per LabeledTriangulation.
    """
    return tri._cycle_report


def cone_boundary(boundary: LabeledTriangulation, cusp_id: str,
                  apex_id: Optional[str] = None) -> list[LabeledSimplex]:
    """Cone a closed (n-1)-dimensional labeled complex to the cusp's
    ideal point: every simplex gains a final slot (apex, identity word).

    The boundary must itself be a cycle (closed); the output simplex
    count equals the input count and the coned set satisfies the cycle
    condition relative to the input.
    """
    report = check_cycle(boundary)
    if not report.is_cycle:
        raise TriangulationError(
            f"boundary complex is not closed: {len(report.unmatched)} unmatched faces")
    apex = apex_id if apex_id is not None else f"cusp_{cusp_id}"
    out = []
    for s in boundary.simplices:
        out.append(LabeledSimplex(s.slots + ((apex, ""),), s.sign))
    return out


def peripheral_words(tri: LabeledTriangulation, cusp_id: str) -> list[str]:
    """Stored generating words of the cusp's peripheral subgroup."""
    return list(tri.cusp(cusp_id).peripheral)
