"""Genealogical Kripke models and their on-disk document format.

A model is a finite Kripke structure whose domain is a finite set of
further models (its children), with a per-world partial constant
assignment into the children and a total tracking map giving each
child's current world as seen from each parent world.  Models are
tree-shaped by construction: children are embedded sub-documents, so no
model contains itself and every chain of generations is finite.

Documents are UTF-8 JSON with extension `.gkm.json`:

    {
      "worlds":     ["s0", ...],                     # order significant
      "relation":   [["s0", "s1"], ...],
      "closure":    "none" | "reflexive-transitive", # optional, default "none"
      "valuation":  {"p": ["s0", ...], ...},
      "children":   {"label": <model object>, ...},
      "assignment": {"world": {"const": "label"}},
      "tracking":   {"world": {"label": "child world"}}
    }

Unknown fields are rejected.  When a node's closure flag is
"reflexive-transitive" its relation is replaced by the reflexive
transitive closure before validation; the flag itself is not stored.
Loaded models are immutable and may be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .syntax import Vocabulary, is_valid_name


@dataclass(frozen=True, eq=False)
class GenealogicalModel:
    worlds: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    valuation: dict[str, frozenset[str]]
    children: dict[str, "GenealogicalModel"]
    assignment: dict[str, dict[str, str]]  # world -> constant -> child label
    tracking: dict[str, dict[str, str]]  # world -> child label -> child world


@dataclass(frozen=True, eq=False)
class PointedModel:
    model: GenealogicalModel
    world: str

    def __post_init__(self):
        if self.world not in self.model.worlds:
            raise ValueError(f"unknown world {self.world!r}")


@dataclass(frozen=True)
class ModelViolation:
    tag: str
    path: str
    message: str


@dataclass(frozen=True)
class ModelDiagnostics:
    verdict: bool
    violations: tuple[ModelViolation, ...]


class DocumentFormatError(ValueError):
    pass


class ModelInvalidError(ValueError):
    def __init__(self, diagnostics: ModelDiagnostics):
        lines = "; ".join(f"{v.tag} at {v.path or '<root>'}: {v.message}" for v in diagnostics.violations)
        super().__init__(f"invalid model: {lines}")
        self.diagnostics = diagnostics


def rt_closure(relation, worlds) -> frozenset[tuple[str, str]]:
    """Smallest reflexive and transitive superset of `relation` over `worlds`."""
    succ = {w: set() for w in worlds}
    for a, b in relation:
        succ[a].add(b)
    for w in worlds:
        succ[w].add(w)
    changed = True
    while changed:
        changed = False
        for a in worlds:
            reach = set(succ[a])
            for b in list(succ[a]):
                reach |= succ[b]
            if reach != succ[a]:
                succ[a] = reach
                changed = True
    return frozenset((a, b) for a in worlds for b in succ[a])


CLOSURE_NONE = "none"
CLOSURE_RT = "reflexive-transitive"

_ALLOWED_KEYS = {"worlds", "relation", "closure", "valuation", "children", "assignment", "tracking"}


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise DocumentFormatError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _want(value, types, path, what):
    if not isinstance(value, types):
        raise DocumentFormatError(f"{path or '<root>'}: {what}")
    return value


def _build(obj, path: str) -> GenealogicalModel:
    _want(obj, dict, path, "model must be a JSON object")
    unknown = sorted(set(obj) - _ALLOWED_KEYS)
    if unknown:
        raise DocumentFormatError(f"{path or '<root>'}: unknown field(s): " + ", ".join(unknown))
    if "worlds" not in obj:
        raise DocumentFormatError(f"{path or '<root>'}: missing required field 'worlds'")

    worlds_raw = _want(obj["worlds"], list, _join(path, "worlds"), "must be an array of strings")
    for w in worlds_raw:
        _want(w, str, _join(path, "worlds"), "must be an array of strings")
    worlds = tuple(worlds_raw)

    relation = set()
    for k, pair in enumerate(_want(obj.get("relation", []), list, _join(path, "relation"), "must be an array of pairs")):
        p = _join(path, f"relation[{k}]")
        _want(pair, list, p, "must be a 2-element array of strings")
        if len(pair) != 2 or not all(isinstance(x, str) for x in pair):
            raise DocumentFormatError(f"{p}: must be a 2-element array of strings")
        relation.add((pair[0], pair[1]))

    closure = _want(obj.get("closure", CLOSURE_NONE), str, _join(path, "closure"), "must be a string")
    if closure not in (CLOSURE_NONE, CLOSURE_RT):
        raise DocumentFormatError(f"{_join(path, 'closure')}: must be \"{CLOSURE_NONE}\" or \"{CLOSURE_RT}\"")

    valuation = {}
    for prop, ws in _want(obj.get("valuation", {}), dict, _join(path, "valuation"), "must be an object").items():
        p = _join(path, f"valuation.{prop}")
        _want(ws, list, p, "must be an array of worlds")
        for w in ws:
            _want(w, str, p, "must be an array of worlds")
        valuation[prop] = frozenset(ws)

    children = {}
    for label, sub in _want(obj.get("children", {}), dict, _join(path, "children"), "must be an object").items():
        children[label] = _build(sub, _join(path, f"children.{label}"))

    assignment = {}
    for world, row in _want(obj.get("assignment", {}), dict, _join(path, "assignment"), "must be an object").items():
        p = _join(path, f"assignment.{world}")
        _want(row, dict, p, "must be an object mapping constants to child labels")
        for const, label in row.items():
            _want(label, str, p, "must be an object mapping constants to child labels")
        if row:
            assignment[world] = dict(row)

    tracking = {}
    for world, row in _want(obj.get("tracking", {}), dict, _join(path, "tracking"), "must be an object").items():
        p = _join(path, f"tracking.{world}")
        _want(row, dict, p, "must be an object mapping child labels to child worlds")
        for label, w in row.items():
            _want(w, str, p, "must be an object mapping child labels to child worlds")
        tracking[world] = dict(row)

    if closure == CLOSURE_RT:
        relation = rt_closure(relation, worlds)

    return GenealogicalModel(
        worlds=worlds,
        relation=frozenset(relation),
        valuation=valuation,
        children=children,
        assignment=assignment,
        tracking=tracking,
    )


def _join(path: str, piece: str) -> str:
    return f"{path}.{piece}" if path else piece


def parse_document(text: str) -> GenealogicalModel:
    """Structural parse only; use `validate` (or `load_model`) afterwards."""
    try:
        obj = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from exc
    return _build(obj, "")


def validate(m: GenealogicalModel) -> ModelDiagnostics:
    """Check every structural invariant, recursively at every generation."""
    violations: list[ModelViolation] = []
    _validate_into(m, "", violations)
    return ModelDiagnostics(not violations, tuple(violations))


def _validate_into(m: GenealogicalModel, path: str, out: list[ModelViolation]):
    worlds = set(m.worlds)
    if not m.worlds:
        out.append(ModelViolation("S-nonempty", path, "worlds must be non-empty"))
    if len(worlds) != len(m.worlds):
        out.append(ModelViolation("S-duplicate", path, "world names must be unique"))
    for a, b in sorted(m.relation):
        if a not in worlds or b not in worlds:
            out.append(ModelViolation("R-endpoints", path, f"relation pair ({a!r}, {b!r}) mentions unknown world"))
    for prop in sorted(m.valuation):
        if not is_valid_name(prop):
            out.append(ModelViolation("V-prop-name", path, f"invalid proposition name {prop!r}"))
        for w in sorted(m.valuation[prop]):
            if w not in worlds:
                out.append(ModelViolation("V-subset", path, f"valuation of {prop!r} mentions unknown world {w!r}"))
    for label in m.children:
        if not label:
            out.append(ModelViolation("N-label", path, "child labels must be non-empty"))
    for world in sorted(m.assignment):
        if world not in worlds:
            out.append(ModelViolation("I-world", path, f"assignment row for unknown world {world!r}"))
        for const, label in sorted(m.assignment[world].items()):
            if not is_valid_name(const):
                out.append(ModelViolation("I-const-name", path, f"invalid constant name {const!r}"))
            if label not in m.children:
                out.append(ModelViolation("I-range", path, f"constant {const!r} at world {world!r} points to unknown child {label!r}"))
    for world in sorted(m.tracking):
        if world not in worlds:
            out.append(ModelViolation("T-world", path, f"tracking row for unknown world {world!r}"))
        for label, w in sorted(m.tracking[world].items()):
            if label not in m.children:
                out.append(ModelViolation("T-label", path, f"tracking at world {world!r} mentions unknown child {label!r}"))
            elif w not in m.children[label].worlds:
                out.append(ModelViolation("T-range", path, f"tracking of child {label!r} at world {world!r} is not a world of that child"))
    if m.children:
        for world in m.worlds:
            for label in m.children:
                if m.tracking.get(world, {}).get(label) is None:
                    out.append(ModelViolation("T-total", path, f"tracking not total: no entry for world {world!r}, child {label!r}"))
    for label, child in m.children.items():
        _validate_into(child, _join(path, f"children.{label}"), out)


def load_model(text: str) -> GenealogicalModel:
    """Parse and validate a document; raises on any format or invariant error."""
    m = parse_document(text)
    diagnostics = validate(m)
    if not diagnostics.verdict:
        raise ModelInvalidError(diagnostics)
    return m


def load_model_file(path) -> GenealogicalModel:
    with open(path, encoding="utf-8") as handle:
        return load_model(handle.read())


def to_document(m: GenealogicalModel) -> dict:
    doc: dict = {"worlds": list(m.worlds)}
    if m.relation:
        doc["relation"] = [list(pair) for pair in sorted(m.relation)]
    order = {w: k for k, w in enumerate(m.worlds)}
    if any(m.valuation.values()):
        doc["valuation"] = {
            prop: sorted(ws, key=lambda w: order.get(w, len(order)))
            for prop, ws in sorted(m.valuation.items())
            if ws
        }
    if m.children:
        doc["children"] = {label: to_document(child) for label, child in m.children.items()}
    if m.assignment:
        doc["assignment"] = {
            world: dict(sorted(m.assignment[world].items()))
            for world in m.worlds
            if m.assignment.get(world)
        }
    if m.tracking:
        doc["tracking"] = {
            world: dict(sorted(m.tracking[world].items()))
            for world in m.worlds
            if m.tracking.get(world)
        }
    return doc


def dump_model(m: GenealogicalModel) -> str:
    """Deterministic serialization; loading it back gives a structurally equal model."""
    return json.dumps(to_document(m), indent=2) + "\n"


def same_structure(a: GenealogicalModel, b: GenealogicalModel) -> bool:
    return dump_model(a) == dump_model(b)


def depth(m: GenealogicalModel) -> int:
    """0 for a childless model, else one more than the deepest child."""
    if not m.children:
        return 0
    return 1 + max(depth(child) for child in m.children.values())


def model_vocabulary(*models: GenealogicalModel) -> Vocabulary:
    """Propositions and constants mentioned anywhere in the model trees."""
    props: set[str] = set()
    constants: set[str] = set()
    stack = list(models)
    while stack:
        node = stack.pop()
        props.update(node.valuation)
        for row in node.assignment.values():
            constants.update(row)
        stack.extend(node.children.values())
    return Vocabulary.of(props=props, constants=constants)
