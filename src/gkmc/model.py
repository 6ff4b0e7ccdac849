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
checks its invariants with the code `validate` runs.  Format errors keep
the order they had when decoding and shape checks were separate steps:
too deep, then a repeated key or invalid JSON (whichever the decoder
meets first), then the walk's first shape error.  So a repeated key is
reported before any shape error.
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

# Below every supported JSON decoder's limit (988 levels from the CLI on 3.10/3.11).
MAX_DOCUMENT_DEPTH = 970
_TOO_DEEP = "document nested too deeply for the JSON decoder"
# A model at generation g opens nesting level 2g + 1, and what its
# fields hold reaches 2g + 3 at most: only a document with a model this
# many generations down can nest too deeply once it has the right shape.
_DEEP_GENERATION = (MAX_DOCUMENT_DEPTH - 1) // 2


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


_ONE_KIND = bytes.maketrans(b"{}", b"[]")
_NOT_MARKS = bytes(range(256)).translate(None, b'"[]{}')
_STEP = {ord("["): 1, ord("]"): -1}


def _peak(marks: bytes) -> int:
    return max(accumulate(map(_STEP.__getitem__, marks)), default=0)


def _too_deep(text: str) -> bool:
    """Whether the arrays and objects of `text` nest more than `MAX_DOCUMENT_DEPTH` levels."""
    # Each level opens with "[" or "{", so their count bounds the depth;
    # only a document with more of them is measured, its strings taken out.
    if text.count("[") + text.count("{") <= MAX_DOCUMENT_DEPTH:
        return False
    if "\\" in text:  # an escaped quote: the regex finds the strings, an unclosed one stays in
        text = re.sub(r'"[^"\\]*(?:\\.[^"\\]*)*"', "", text).replace('"', "")
    # Without escapes the quotes pair up in order, so the brackets outside
    # strings are those after an even number of quotes, the unpaired last
    # quote aside; dropping two adjacent quotes keeps every such count even.
    marks = text.encode("utf-8", "surrogatepass").translate(_ONE_KIND, _NOT_MARKS)
    if marks.count(b'"') % 2:
        cut = marks.rindex(b'"')
        marks = marks[:cut] + marks[cut + 1 :]
    marks = marks.replace(b'""', b"")
    if b'"' in marks:
        marks = b"".join(marks.split(b'"')[::2])
    # Dropping the innermost pairs lowers a peak above the limit by one at
    # most, so only a peak of exactly the limit is measured again in full.
    inner = _peak(marks.replace(b"[]", b""))
    return inner > MAX_DOCUMENT_DEPTH or (inner == MAX_DOCUMENT_DEPTH and _peak(marks) > MAX_DOCUMENT_DEPTH)


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
    found valid, the violations (each model's before its children's) and
    the document text until its depth has been measured."""

    __slots__ = ("unmeasured", "keys", "names", "violations")

    def __init__(self, text: str):
        self.unmeasured = text
        self.keys = 0
        self.names: set[str] = set()
        self.violations: list[ModelViolation] = []

    def model(self, obj, labels: tuple[str, ...]) -> GenealogicalModel:
        # This runs on every element of every document loaded: each element
        # gets one type test, and paths and messages are built only to raise.
        if len(labels) == _DEEP_GENERATION and self.unmeasured:
            if _too_deep(self.unmeasured):
                raise DocumentFormatError(_TOO_DEEP)
            self.unmeasured = ""
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
    walk = _Walk(text)
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
