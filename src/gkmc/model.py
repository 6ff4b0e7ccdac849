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
A document nested deeper than the JSON decoder's recursion limit (about
490 generations of children) is a format error, as is invalid JSON.
Loaded models are immutable and may be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

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
    """Smallest reflexive and transitive superset of `relation` over `worlds`
    and the endpoints of `relation` (validation reports unknown ones)."""
    succ = {w: {w} for w in worlds}
    for a, b in relation:
        succ.setdefault(a, {a}).add(b)
        succ.setdefault(b, {b})
    changed = True
    while changed:
        changed = False
        for a, out in succ.items():
            reach = set(out)
            for b in out:
                reach |= succ[b]
            if reach != out:
                succ[a] = reach
                changed = True
    return frozenset((a, b) for a, out in succ.items() for b in out)


CLOSURE_NONE = "none"
CLOSURE_RT = "reflexive-transitive"

_ALLOWED_KEYS = {"worlds", "relation", "closure", "valuation", "children", "assignment", "tracking"}


def _reject_duplicate_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentFormatError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _fail(path: str, piece: str, what: str):
    raise DocumentFormatError(f"{_join(path, piece)}: {what}")


def _strings(items) -> bool:
    for item in items:
        if type(item) is not str:
            return False
    return True


def _table(obj: dict, key: str, path: str) -> dict:
    table = obj.get(key, {})
    if type(table) is not dict:
        _fail(path, key, "must be an object")
    return table


def _build(obj, path: str) -> GenealogicalModel:
    # This runs on every element of every document loaded: each element
    # gets one type test, and paths and messages are built only to raise.
    if type(obj) is not dict:
        raise DocumentFormatError(f"{path or '<root>'}: model must be a JSON object")
    if not obj.keys() <= _ALLOWED_KEYS:
        unknown = ", ".join(sorted(obj.keys() - _ALLOWED_KEYS))
        raise DocumentFormatError(f"{path or '<root>'}: unknown field(s): {unknown}")
    if "worlds" not in obj:
        raise DocumentFormatError(f"{path or '<root>'}: missing required field 'worlds'")
    worlds = obj["worlds"]
    if type(worlds) is not list or not _strings(worlds):
        _fail(path, "worlds", "must be an array of strings")

    relation = obj.get("relation", [])
    if type(relation) is not list:
        _fail(path, "relation", "must be an array of pairs")
    for k, pair in enumerate(relation):
        if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not str or type(pair[1]) is not str:
            _fail(path, f"relation[{k}]", "must be a 2-element array of strings")
    relation = frozenset(map(tuple, relation))

    closure = obj.get("closure", CLOSURE_NONE)
    if closure != CLOSURE_NONE and closure != CLOSURE_RT:
        _fail(path, "closure", f'must be "{CLOSURE_NONE}" or "{CLOSURE_RT}"' if type(closure) is str else "must be a string")

    valuation = _table(obj, "valuation", path)
    for prop, ws in valuation.items():
        if type(ws) is not list or not _strings(ws):
            _fail(path, f"valuation.{prop}", "must be an array of worlds")
        valuation[prop] = frozenset(ws)
    children = _table(obj, "children", path)
    for label, sub in children.items():
        children[label] = _build(sub, _join(path, f"children.{label}"))
    assignment = _table(obj, "assignment", path)
    for world, row in assignment.items():
        if type(row) is not dict or not _strings(row.values()):
            _fail(path, f"assignment.{world}", "must be an object mapping constants to child labels")
    tracking = _table(obj, "tracking", path)
    for world, row in tracking.items():
        if type(row) is not dict or not _strings(row.values()):
            _fail(path, f"tracking.{world}", "must be an object mapping child labels to child worlds")

    return GenealogicalModel(
        worlds=tuple(worlds),
        relation=rt_closure(relation, worlds) if closure == CLOSURE_RT else relation,
        valuation=valuation,
        children=children,
        assignment={world: row for world, row in assignment.items() if row},
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
    except RecursionError as exc:  # the decoder recurses once per nested array or object
        raise DocumentFormatError("document nested too deeply for the JSON decoder") from exc
    return _build(obj, "")


def validate(m: GenealogicalModel) -> ModelDiagnostics:
    """Check every structural invariant, recursively at every generation."""
    violations: list[ModelViolation] = []
    _validate_into(m, "", violations, set())
    return ModelDiagnostics(not violations, tuple(violations))


def _validate_into(m: GenealogicalModel, path: str, out: list[ModelViolation], good: set):
    # Each rule tests its whole table at once and, only when that fails,
    # reports the offending entries or rows in sorted order.  `good` holds
    # the names `is_valid_name` accepted earlier in this `validate` call.
    worlds = set(m.worlds)
    if not m.worlds:
        out.append(ModelViolation("S-nonempty", path, "worlds must be non-empty"))
    if len(worlds) != len(m.worlds):
        out.append(ModelViolation("S-duplicate", path, "world names must be unique"))
    if not worlds.issuperset(chain.from_iterable(m.relation)):
        for a, b in sorted(pair for pair in m.relation if not worlds.issuperset(pair)):
            out.append(ModelViolation("R-endpoints", path, f"relation pair ({a!r}, {b!r}) mentions unknown world"))
    if not (good.issuperset(m.valuation) and worlds.issuperset(chain.from_iterable(m.valuation.values()))):
        good.update(prop for prop in m.valuation if is_valid_name(prop))
        for prop in sorted(m.valuation.keys() - good | {prop for prop, ws in m.valuation.items() if not worlds.issuperset(ws)}):
            if prop not in good:
                out.append(ModelViolation("V-prop-name", path, f"invalid proposition name {prop!r}"))
            for w in sorted(w for w in m.valuation[prop] if w not in worlds):
                out.append(ModelViolation("V-subset", path, f"valuation of {prop!r} mentions unknown world {w!r}"))
    for label in m.children:
        if not label:
            out.append(ModelViolation("N-label", path, "child labels must be non-empty"))
    rows = m.assignment.values()
    if not (
        good.issuperset(chain.from_iterable(rows))
        and worlds.issuperset(m.assignment)
        and all(map(m.children.__contains__, chain.from_iterable(map(dict.values, rows))))
    ):
        good.update(const for const in chain.from_iterable(rows) if is_valid_name(const))
        for world in sorted(
            world for world, row in m.assignment.items()
            if world not in worlds or not good.issuperset(row) or not m.children.keys() >= set(row.values())
        ):
            if world not in worlds:
                out.append(ModelViolation("I-world", path, f"assignment row for unknown world {world!r}"))
            for const, label in sorted(m.assignment[world].items()):
                if const not in good:
                    out.append(ModelViolation("I-const-name", path, f"invalid constant name {const!r}"))
                if label not in m.children:
                    out.append(ModelViolation("I-range", path, f"constant {const!r} at world {world!r} points to unknown child {label!r}"))
    if m.tracking:
        entries = {(label, w) for label, child in m.children.items() for w in child.worlds}
        if not (worlds.issuperset(m.tracking) and entries.issuperset(chain.from_iterable(map(dict.items, m.tracking.values())))):
            for world in sorted(world for world, row in m.tracking.items() if world not in worlds or not entries.issuperset(row.items())):
                if world not in worlds:
                    out.append(ModelViolation("T-world", path, f"tracking row for unknown world {world!r}"))
                for label, w in sorted(m.tracking[world].items()):
                    if label not in m.children:
                        out.append(ModelViolation("T-label", path, f"tracking at world {world!r} mentions unknown child {label!r}"))
                    elif (label, w) not in entries:
                        out.append(ModelViolation("T-range", path, f"tracking of child {label!r} at world {world!r} is not a world of that child"))
    if m.children:
        for world in m.worlds:
            row = m.tracking.get(world, {})
            if not row.keys() >= m.children.keys() or None in row.values():
                for label in m.children:
                    if row.get(label) is None:
                        out.append(ModelViolation("T-total", path, f"tracking not total: no entry for world {world!r}, child {label!r}"))
    for label, child in m.children.items():
        _validate_into(child, _join(path, f"children.{label}"), out, good)


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
            prop: sorted(ws, key=lambda w: (order.get(w, len(order)), w))
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
    generation, count = {m}, -1
    while generation:  # submodels hash by identity: a shared child is walked once per generation
        generation, count = {child for node in generation for child in node.children.values()}, count + 1
    return count


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
