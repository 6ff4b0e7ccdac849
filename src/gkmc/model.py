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
A document whose arrays and objects nest more than `MAX_DOCUMENT_DEPTH`
(970) levels deep (a chain of about 480 generations of children) is a
format error on every Python, as is invalid JSON.
Loaded models are immutable and may be shared freely across threads.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate

from .syntax import Record, Vocabulary, _set, is_valid_name


class GenealogicalModel(Record):
    """One model; it hashes by identity, so shared submodels are one key."""

    __slots__ = __match_args__ = ("worlds", "relation", "valuation", "children", "assignment", "tracking")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        worlds: tuple[str, ...],
        relation: frozenset[tuple[str, str]],
        valuation: dict[str, frozenset[str]],
        children: dict[str, GenealogicalModel],
        assignment: dict[str, dict[str, str]],  # world -> constant -> child label
        tracking: dict[str, dict[str, str]],  # world -> child label -> child world
    ):
        _set(self, "worlds", worlds)
        _set(self, "relation", relation)
        _set(self, "valuation", valuation)
        _set(self, "children", children)
        _set(self, "assignment", assignment)
        _set(self, "tracking", tracking)


def replace_model(m: GenealogicalModel, **changes) -> GenealogicalModel:
    """A new model with `m`'s fields but for those given, unvalidated."""
    fields = {name: getattr(m, name) for name in m.__match_args__}
    return GenealogicalModel(**(fields | changes))


class PointedModel(Record):
    __slots__ = __match_args__ = ("model", "world")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, model: GenealogicalModel, world: str):
        if world not in model.worlds:
            raise ValueError(f"unknown world {world!r}")
        _set(self, "model", model)
        _set(self, "world", world)


class ModelViolation(Record):
    __slots__ = __match_args__ = ("tag", "path", "message")

    def __str__(self):
        return f"{self.tag} at {self.path or '<root>'}: {self.message}"


class ModelDiagnostics(Record):
    __slots__ = __match_args__ = ("verdict", "violations")


class DocumentFormatError(ValueError):
    pass


class ModelInvalidError(ValueError):
    def __init__(self, diagnostics: ModelDiagnostics):
        super().__init__("invalid model: " + "; ".join(map(str, diagnostics.violations)))
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


# Below every supported JSON decoder's limit (988 levels from the CLI on 3.10/3.11).
MAX_DOCUMENT_DEPTH = 970
_TOO_DEEP = "document nested too deeply for the JSON decoder"


def parse_document(text: str) -> GenealogicalModel:
    """Structural parse only; use `validate` (or `load_model`) afterwards."""
    # Each level opens with "[" or "{", so their count bounds the depth;
    # only a document with more of them is measured, its strings taken out.
    if text.count("[") + text.count("{") > MAX_DOCUMENT_DEPTH:
        outside = re.sub(r'"[^"\\]*(?:\\.[^"\\]*)*"', "", text)
        steps = (1 if b in "[{" else -1 for b in re.findall(r"[][{}]", outside))
        if max(accumulate(steps), default=0) > MAX_DOCUMENT_DEPTH:
            raise DocumentFormatError(_TOO_DEEP)
    try:
        obj = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per level; a deep caller stack lowers its limit
        raise DocumentFormatError(_TOO_DEEP) from exc
    return _build(obj, "")


def validate(m: GenealogicalModel) -> ModelDiagnostics:
    """Check every structural invariant, recursively at every generation."""
    violations: list[ModelViolation] = []
    _validate_into(m, "", violations)
    return ModelDiagnostics(not violations, tuple(violations))


def _validate_into(m: GenealogicalModel, path: str, out: list[ModelViolation]):
    # Each rule is one scan of its table, appending (rule, sort key, tag,
    # message) per offender.  A model with offenders sorts them once by
    # rule and key; the sort is stable, so equal keys keep scan order.
    found = []
    worlds = set(m.worlds)
    if not m.worlds:
        found.append((0, (), "S-nonempty", "worlds must be non-empty"))
    if len(worlds) != len(m.worlds):
        found.append((1, (), "S-duplicate", "world names must be unique"))
    for a, b in m.relation:
        if a not in worlds or b not in worlds:
            found.append((2, (a, b), "R-endpoints", f"relation pair ({a!r}, {b!r}) mentions unknown world"))
    for prop, ws in m.valuation.items():
        if not is_valid_name(prop):
            found.append((3, (prop,), "V-prop-name", f"invalid proposition name {prop!r}"))
        for w in ws:
            if w not in worlds:
                found.append((3, (prop, w), "V-subset", f"valuation of {prop!r} mentions unknown world {w!r}"))
    for label in m.children:
        if not label:
            found.append((4, (), "N-label", "child labels must be non-empty"))
    for world, row in m.assignment.items():
        if world not in worlds:
            found.append((5, (world,), "I-world", f"assignment row for unknown world {world!r}"))
        for const, label in row.items():
            if not is_valid_name(const):
                found.append((5, (world, const, 0), "I-const-name", f"invalid constant name {const!r}"))
            if label not in m.children:
                found.append((5, (world, const, 1), "I-range", f"constant {const!r} at world {world!r} points to unknown child {label!r}"))
    for world, row in m.tracking.items():
        if world not in worlds:
            found.append((6, (world,), "T-world", f"tracking row for unknown world {world!r}"))
        for label, w in row.items():
            if label not in m.children:
                found.append((6, (world, label), "T-label", f"tracking at world {world!r} mentions unknown child {label!r}"))
            elif w not in m.children[label].worlds:
                found.append((6, (world, label), "T-range", f"tracking of child {label!r} at world {world!r} is not a world of that child"))
    for world in m.worlds:
        row = m.tracking.get(world, {})
        for label in m.children:
            if row.get(label) is None:
                found.append((7, (), "T-total", f"tracking not total: no entry for world {world!r}, child {label!r}"))
    if found:
        found.sort(key=lambda v: v[:2])
        out.extend(ModelViolation(tag, path, message) for _, _, tag, message in found)
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
            prop: sorted(ws, key=lambda w: (order.get(w, len(order)), w))
            for prop, ws in sorted(m.valuation.items())
            if ws
        }
    if m.children:
        doc["children"] = {label: to_document(child) for label, child in m.children.items()}
    for key, table in (("assignment", m.assignment), ("tracking", m.tracking)):
        if table:
            doc[key] = {world: dict(sorted(table[world].items())) for world in m.worlds if table.get(world)}
    return doc


def dump_model(m: GenealogicalModel) -> str:
    """Deterministic serialization; loading it back gives a structurally equal model."""
    return json.dumps(to_document(m), indent=2) + "\n"


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
    seen = set(models)  # submodels hash by identity: a shared child is walked once
    stack = list(seen)
    while stack:
        node = stack.pop()
        props.update(node.valuation)
        for row in node.assignment.values():
            constants.update(row)
        for child in node.children.values():
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return Vocabulary.of(props=props, constants=constants)
