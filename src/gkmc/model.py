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

Unknown fields and repeated keys are rejected.  When a node's closure
flag is "reflexive-transitive" its relation is replaced by the reflexive
transitive closure before validation; the flag itself is not stored.
A document whose arrays and objects nest more than `MAX_DOCUMENT_DEPTH`
(970) levels deep (a chain of about 480 generations of children) is a
format error on every Python, as is invalid JSON.

Loading (`load_model`, `parse_document`, `gkmc validate`) is one walk
over the decoded document that shape-checks and builds each model, then
checks its invariants with the code `validate` runs.  The walk reads a
well-shaped document's depth off the generations: a model g generations
down opens level 2g+1, its tables open level 2g+2 and what they hold
opens level 2g+3, so the walk refuses a model once 2g+2, or 2g+3 with a
table entry, passes the limit.  Format errors keep the order they had
when decoding and shape checks were separate steps: too deep, then a
repeated key or invalid JSON (whichever the decoder meets first), then
the walk's first shape error.  So a repeated key is reported before any
shape error.  The text is scanned for depth only to order those reports.
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
        _set_worlds(self, worlds)  # the slots' own setters: faster than `_set`
        _set_relation(self, relation)
        _set_valuation(self, valuation)
        _set_children(self, children)
        _set_assignment(self, assignment)
        _set_tracking(self, tracking)


_set_worlds, _set_relation, _set_valuation, _set_children, _set_assignment, _set_tracking = (
    vars(GenealogicalModel)[name].__set__ for name in GenealogicalModel.__slots__
)


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

# Below every supported JSON decoder's limit (988 levels from the CLI on 3.10/3.11).
MAX_DOCUMENT_DEPTH = 970
_TOO_DEEP = "document nested too deeply for the JSON decoder"


def reject_duplicate_keys(pairs):
    """A `json.loads` object hook: the object as a dict, or a format error naming its first repeated key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentFormatError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _too_deep(text: str) -> bool:
    """Whether the arrays and objects of `text` nest more than `MAX_DOCUMENT_DEPTH` levels."""
    # Each level opens with "[" or "{", so their count bounds the depth.
    if text.count("[") + text.count("{") <= MAX_DOCUMENT_DEPTH:
        return False
    outside = re.sub(r'"[^"\\]*(?:\\.[^"\\]*)*"', "", text)  # an unclosed string stays in
    steps = (1 if bracket in "[{" else -1 for bracket in re.findall(r"[][{}]", outside))
    return max(accumulate(steps), default=0) > MAX_DOCUMENT_DEPTH


def _refuse(text: str):
    """Raise the format error `text` has before any shape error, if any:
    too deep, then a duplicate key or invalid JSON."""
    if _too_deep(text):
        raise DocumentFormatError(_TOO_DEEP)
    try:
        json.loads(text, object_pairs_hook=reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per level; a deep caller stack lowers its limit
        raise DocumentFormatError(_TOO_DEEP) from exc


def _path(labels: tuple[str, ...]) -> str:
    """The document path of the model reached through child `labels`."""
    return ".".join([f"children.{label}" for label in labels])


def _fail(labels: tuple[str, ...], piece: str, what: str):
    path = _path(labels)
    raise DocumentFormatError(f"{path}.{piece}: {what}" if path else f"{piece}: {what}")


def _strings(items) -> bool:
    for item in items:
        if type(item) is not str:
            return False
    return True


def _table(obj: dict, key: str, labels: tuple[str, ...]) -> dict:
    table = obj.get(key, {})
    if type(table) is not dict:
        _fail(labels, key, "must be an object")
    return table


class _Walk:
    """The state of one load: the keys of the objects walked, the names
    found valid and the violations (each model's before its children's)."""

    __slots__ = ("keys", "names", "violations")

    def __init__(self):
        self.keys = 0
        self.names: set[str] = set()
        self.violations: list[ModelViolation] = []

    def model(self, obj, labels: tuple[str, ...]) -> GenealogicalModel:
        # This runs on every element of every document loaded: each element
        # gets one type test, and paths and messages are built only to raise.
        if type(obj) is not dict:
            raise DocumentFormatError(f"{_path(labels) or '<root>'}: model must be a JSON object")
        if not obj.keys() <= _ALLOWED_KEYS:
            unknown = ", ".join(sorted(obj.keys() - _ALLOWED_KEYS))
            raise DocumentFormatError(f"{_path(labels) or '<root>'}: unknown field(s): {unknown}")
        if "worlds" not in obj:
            raise DocumentFormatError(f"{_path(labels) or '<root>'}: missing required field 'worlds'")
        worlds = obj["worlds"]
        if type(worlds) is not list or not _strings(worlds):
            _fail(labels, "worlds", "must be an array of strings")
        # This model opens level 2g+1 and `worlds` level 2g+2, g being its generation.
        if 2 * len(labels) + 2 > MAX_DOCUMENT_DEPTH:
            raise DocumentFormatError(_TOO_DEEP)

        relation = obj.get("relation", [])
        if type(relation) is not list:
            _fail(labels, "relation", "must be an array of pairs")
        for pair in relation:
            if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not str or type(pair[1]) is not str:
                # An equal pair is as malformed, so the first equal one is this one.
                _fail(labels, f"relation[{relation.index(pair)}]", "must be a 2-element array of strings")
        relation = frozenset(map(tuple, relation))

        closure = obj.get("closure", CLOSURE_NONE)
        if closure != CLOSURE_NONE and closure != CLOSURE_RT:
            _fail(labels, "closure", f'must be "{CLOSURE_NONE}" or "{CLOSURE_RT}"' if type(closure) is str else "must be a string")

        valuation = _table(obj, "valuation", labels)
        for prop, ws in valuation.items():
            if type(ws) is not list or not _strings(ws):
                _fail(labels, f"valuation.{prop}", "must be an array of worlds")
            valuation[prop] = frozenset(ws)
        children = _table(obj, "children", labels)
        at = len(self.violations)
        for label, sub in children.items():
            children[label] = self.model(sub, (*labels, label))
        keys = len(obj) + len(valuation) + len(children)
        assignment = _table(obj, "assignment", labels)
        sparse = False  # an empty row is dropped
        for world, row in assignment.items():
            if type(row) is not dict or not _strings(row.values()):
                _fail(labels, f"assignment.{world}", "must be an object mapping constants to child labels")
            sparse = sparse or not row
            keys += len(row)
        tracking = _table(obj, "tracking", labels)
        for world, row in tracking.items():
            if type(row) is not dict or not _strings(row.values()):
                _fail(labels, f"tracking.{world}", "must be an object mapping child labels to child worlds")
            keys += len(row)
        self.keys += keys + len(assignment) + len(tracking)
        # An entry of these tables opens level 2g+3 (a child's own check refuses it
        # at generation g+1); the raw assignment table keeps its empty rows.
        if 2 * len(labels) + 3 > MAX_DOCUMENT_DEPTH and (relation or valuation or assignment or tracking):
            raise DocumentFormatError(_TOO_DEEP)

        m = GenealogicalModel(
            tuple(worlds),
            rt_closure(relation, worlds) if closure == CLOSURE_RT else relation,
            valuation,
            children,
            {world: row for world, row in assignment.items() if row} if sparse else assignment,
            tracking,
        )
        found = _violations(m, labels, self.names)
        if found:
            self.violations[at:at] = found
        return m


def _load(text: str) -> tuple[GenealogicalModel, list[ModelViolation]]:
    """The model `text` describes and its violations; a format error raises.

    Plain `json.loads` keeps the last of repeated keys, but outside strings
    each key is followed by one ":", so keys walked == `text.count(":")`
    proves none repeats.  Otherwise, or on any format error, `_refuse`
    decodes again with the hook to report the error that comes first.
    """
    walk = _Walk()
    try:
        m = walk.model(json.loads(text), ())
    except RecursionError:  # the decoder's or the walk's
        _refuse(text)
        raise DocumentFormatError(_TOO_DEEP) from None
    except ValueError:  # invalid JSON, which `_refuse` words, or a shape error
        _refuse(text)
        raise
    if walk.keys != text.count(":"):
        _refuse(text)
    return m, walk.violations


def parse_document(text: str) -> GenealogicalModel:
    """The model `text` describes, valid or not; a format error raises."""
    return _load(text)[0]


def load_model(text: str) -> GenealogicalModel:
    """The model `text` describes; raises on any format or invariant error."""
    m, violations = _load(text)
    if violations:
        raise ModelInvalidError(ModelDiagnostics(False, tuple(violations)))
    return m


def validate(m: GenealogicalModel) -> ModelDiagnostics:
    """Check every structural invariant, recursively at every generation."""
    violations: list[ModelViolation] = []
    _validate_into(m, (), set(), violations)
    return ModelDiagnostics(not violations, tuple(violations))


def _validate_into(m: GenealogicalModel, labels: tuple[str, ...], names: set[str], out: list[ModelViolation]):
    out += _violations(m, labels, names)
    for label, child in m.children.items():
        _validate_into(child, (*labels, label), names, out)


def _violations(m: GenealogicalModel, labels: tuple[str, ...], names: set[str]) -> list[ModelViolation]:
    """The violations of `m` itself, its children aside, in report order.

    `names` holds the names found valid so far.  Each rule scans its table
    once, appending (rule, sort key, tag, message) per offender, but
    valuation worlds and tracking totality are scanned only if a
    whole-table test fails.  The offenders are sorted by rule and key; the
    sort is stable, so equal keys keep scan order.
    """
    found = []
    worlds = set(m.worlds)
    children = m.children
    if not m.worlds:
        found.append((0, (), "S-nonempty", "worlds must be non-empty"))
    if len(worlds) != len(m.worlds):
        found.append((1, (), "S-duplicate", "world names must be unique"))
    for a, b in m.relation:
        if a not in worlds or b not in worlds:
            found.append((2, (a, b), "R-endpoints", f"relation pair ({a!r}, {b!r}) mentions unknown world"))
    for prop, ws in m.valuation.items():
        if prop not in names and not _valid_name(prop, names):
            found.append((3, (prop,), "V-prop-name", f"invalid proposition name {prop!r}"))
        if not worlds.issuperset(ws):
            for w in ws:
                if w not in worlds:
                    found.append((3, (prop, w), "V-subset", f"valuation of {prop!r} mentions unknown world {w!r}"))
    for label in children:
        if not label:
            found.append((4, (), "N-label", "child labels must be non-empty"))
    for world, row in m.assignment.items():
        if world not in worlds:
            found.append((5, (world,), "I-world", f"assignment row for unknown world {world!r}"))
        for const, label in row.items():
            if const not in names and not _valid_name(const, names):
                found.append((5, (world, const, 0), "I-const-name", f"invalid constant name {const!r}"))
            if label not in children:
                found.append((5, (world, const, 1), "I-range", f"constant {const!r} at world {world!r} points to unknown child {label!r}"))
    # Totality needs a scan only if a row is missing, short or holds None.
    width = len(children)
    gaps = width and not m.tracking.keys() >= worlds
    for world, row in m.tracking.items():
        if world not in worlds:
            found.append((6, (world,), "T-world", f"tracking row for unknown world {world!r}"))
        if len(row) != width:
            gaps = True
        for label, w in row.items():
            if label not in children:
                gaps = True
                found.append((6, (world, label), "T-label", f"tracking at world {world!r} mentions unknown child {label!r}"))
            elif w not in children[label].worlds:
                found.append((6, (world, label), "T-range", f"tracking of child {label!r} at world {world!r} is not a world of that child"))
            if w is None:
                gaps = True
    if gaps:
        for world in m.worlds:
            row = m.tracking.get(world, {})
            for label in children:
                if row.get(label) is None:
                    found.append((7, (), "T-total", f"tracking not total: no entry for world {world!r}, child {label!r}"))
    if not found:
        return found
    found.sort(key=lambda v: v[:2])
    path = _path(labels)
    return [ModelViolation(tag, path, message) for _, _, tag, message in found]


def _valid_name(name: str, names: set[str]) -> bool:
    """Whether `name` is a valid name, added to `names` if so."""
    if is_valid_name(name):
        names.add(name)
        return True
    return False


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
