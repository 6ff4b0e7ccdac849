"""A seeded corpus of model documents and sentence texts, most of them
malformed, and one SHA-256 over what the input layer answers on each.

Documents are `gen_model` models written as JSON and then mutated with
`SplitMix64`: values replaced by junk, keys added, dropped, renamed or
duplicated, nesting changed.  Each document hashes its
`DocumentFormatError` message, or its violation triples and `dump_model`
text.  Models built without a document hash through `validate` alone: a
few written by hand, and `gen_model` trees given one to three edits at
any generation (worlds dropped or duplicated, names and entries replaced
by junk, tracking entries removed or emptied, child labels emptied), so
every violation tag is reached at the root and in a child.
Sentences are `gen_sentence` texts with characters and words dropped,
inserted or replaced; each hashes its `ParseError` class, message, line
and column, or its `format_formula` text."""

import copy
import hashlib
import json

from gkmc.generate import GenSpec, SplitMix64, derive, gen_model, gen_sentence
from gkmc.model import DocumentFormatError, GenealogicalModel, dump_model, parse_document, replace_model, to_document, validate
from gkmc.syntax import ParseError, Vocabulary, format_formula, parse


class _Obj(list):
    """A JSON object as a list of [key, value] pairs, so a key may repeat."""


_KEYS = ["worlds", "relation", "closure", "valuation", "children", "assignment", "tracking",
         "bogus", "", "s0", "s1", "n0", "n1", "p", "q", "c", "forall", "P", "1x", "é"]
_JUNK = [None, True, 0, -1, 2.5, "", "s0", "s1", "s2", "zz", "n0", "n1", "p", "c", "forall", "X",
         "reflexive-transitive", "none", [], ["s0"], ["s0", "s1"], [["s0", "s1"]], [1], [None],
         _Obj(), _Obj([["s0", "n0"]]), _Obj([["p", ["s0"]]]), _Obj([["n0", "s0"]]), _Obj([["worlds", ["t0"]]])]
_OPS = ("junk", "add", "drop", "dup", "rename", "wrap", "unwrap")


def _tree(value):
    if isinstance(value, dict):
        return _Obj([key, _tree(item)] for key, item in value.items())
    if isinstance(value, list):
        return [_tree(item) for item in value]
    return value


def _write(value) -> str:
    if isinstance(value, _Obj):
        return "{" + ", ".join(f"{json.dumps(key)}: {_write(item)}" for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_write, value)) + "]"
    return json.dumps(value)


def _containers(value, out):
    if isinstance(value, _Obj):
        out.append(value)
        for _, item in value:
            _containers(item, out)
    elif isinstance(value, list):
        out.append(value)
        for item in value:
            _containers(item, out)
    return out


def _junk(rng):
    return copy.deepcopy(rng.choice(_JUNK))


def _unwrap(value):
    if isinstance(value, _Obj):
        return value[0][1] if value else value
    if isinstance(value, list):
        return value[0] if value else value
    return value


def _mutate(root, rng):
    """Apply one random edit inside `root`; returns the new root."""
    boxes = _containers(root, [])
    if not boxes or rng.below(40) == 0:
        return [root] if rng.chance(0.5) else _junk(rng)
    box = rng.choice(boxes)
    op = rng.choice(_OPS) if box else "add"
    is_obj = isinstance(box, _Obj)
    if op == "add":
        box.append([rng.choice(_KEYS), _junk(rng)] if is_obj else _junk(rng))
        return root
    k = rng.below(len(box))
    if op == "drop":
        del box[k]
    elif op == "dup":
        box.append(copy.deepcopy(box[k]))
    elif op == "rename" and is_obj:
        box[k][0] = rng.choice(_KEYS)
    else:
        get = (lambda: box[k][1]) if is_obj else (lambda: box[k])
        new = _junk(rng) if op in ("junk", "rename") else [get()] if op == "wrap" else _unwrap(get())
        if is_obj:
            box[k][1] = new
        else:
            box[k] = new
    return root


def mutated_documents(count: int, seed: int) -> list[str]:
    """`count` JSON texts, each a generated model after one to three edits."""
    texts = []
    for k in range(count):
        rng = SplitMix64(derive(seed, "doc", k))
        spec = GenSpec(
            seed=derive(seed, "model", k),
            max_worlds=1 + rng.below(4),
            max_children=rng.below(3),
            max_depth=rng.below(3),
            prop_count=rng.below(3),
            constant_count=rng.below(3),
        )
        root = _tree(to_document(gen_model(spec)))
        for _ in range(1 + rng.below(3)):
            root = _mutate(root, rng)
        texts.append(_write(root))
    return texts


def document_outcome(text: str) -> str:
    try:
        m = parse_document(text)
    except DocumentFormatError as exc:
        return f"format {exc}\n"
    return model_outcome(m)


def model_outcome(m: GenealogicalModel) -> str:
    diagnostics = validate(m)
    lines = [f"verdict {diagnostics.verdict}"]
    lines += [f"{v.tag}|{v.path}|{v.message}" for v in diagnostics.violations]
    # dump_model orders a valuation's unknown worlds by set iteration
    # order, which varies with the string hash seed.
    if "V-subset" not in {v.tag for v in diagnostics.violations}:
        lines.append(dump_model(m))
    return "\n".join(lines) + "\n"


def direct_models() -> list[GenealogicalModel]:
    """Models built without a document, each breaking several invariants."""
    leaf = GenealogicalModel(("t0", "t1"), frozenset(), {}, {}, {}, {})
    empty = GenealogicalModel((), frozenset({("u", "u")}), {"forall": frozenset({"u"})}, {}, {}, {})
    return [
        leaf,
        empty,
        GenealogicalModel(("s0",), frozenset(), {}, {"n": leaf}, {}, {"s0": {"n": None}}),
        GenealogicalModel(
            ("s0", "s1", "s0"),
            frozenset({("s0", "zz"), ("yy", "s1"), ("s1", "s0")}),
            {"p": frozenset({"s0", "zz"}), "P": frozenset(), "xi": frozenset({"s1"})},
            {"n": leaf, "": empty},
            {"s0": {"c": "n", "Q": "ghost"}, "qq": {"d": "n"}},
            {"s0": {"n": "t9", "ghost": "t0", "": None}, "s1": {"n": None}, "qq": {}},
        ),
        GenealogicalModel(("s0",), frozenset(), {}, {"n": leaf, "m": empty}, {}, {"s0": {"n": "t1"}}),
    ]


_NAMES = ["", "zz", "s9", "n9", "1x", "forall", "P", "é"]


def _nodes(m: GenealogicalModel, path=()) -> list:
    """(child-label path, submodel) of every node of `m`, root first."""
    out = [(path, m)]
    for label, child in m.children.items():
        out += _nodes(child, (*path, label))
    return out


def _put(m: GenealogicalModel, path, node: GenealogicalModel) -> GenealogicalModel:
    """`m` with the submodel at `path` replaced by `node`."""
    if not path:
        return node
    sub = _put(m.children[path[0]], path[1:], node)
    return replace_model(m, children={label: sub if label == path[0] else child for label, child in m.children.items()})


def _rekey(table: dict, old, new) -> dict:
    return {new if key == old else key: value for key, value in table.items()}


def _edit(m: GenealogicalModel, rng) -> GenealogicalModel:
    """`m` after one random edit among those it has something to act on."""
    pairs = sorted(m.relation)
    rows = [(world, key) for world, row in m.assignment.items() for key in row]
    entries = [(world, label) for world, row in m.tracking.items() for label in row]
    able = [m.worlds, m.worlds, pairs, m.valuation, m.valuation, rows, rows, True, entries, entries, entries, m.children]
    op = rng.choice([op for op, ok in enumerate(able) if ok])
    junk = rng.choice(_NAMES)
    if op == 0:  # a world dropped
        k = rng.below(len(m.worlds))
        return replace_model(m, worlds=m.worlds[:k] + m.worlds[k + 1:])
    if op == 1:  # a world duplicated
        return replace_model(m, worlds=m.worlds + (rng.choice(m.worlds),))
    if op == 2:  # a relation endpoint renamed
        a, b = pair = rng.choice(pairs)
        return replace_model(m, relation=m.relation - {pair} | {(junk, b) if rng.chance(0.5) else (a, junk)})
    if op == 3:  # a proposition renamed
        return replace_model(m, valuation=_rekey(m.valuation, rng.choice(sorted(m.valuation)), junk))
    if op == 4:  # a valuation world replaced
        prop = rng.choice(sorted(m.valuation))
        ws = sorted(m.valuation[prop])
        gone = {rng.choice(ws)} if ws else set()
        return replace_model(m, valuation={**m.valuation, prop: m.valuation[prop] - gone | {junk}})
    if op in (5, 6):  # an assignment constant or label replaced
        world, const = rng.choice(rows)
        row = m.assignment[world]
        row = _rekey(row, const, junk) if op == 5 else {**row, const: junk}
        return replace_model(m, assignment={**m.assignment, world: row})
    if op == 7:  # an assignment row added, most often for an unknown world
        return replace_model(m, assignment={**m.assignment, junk: {rng.choice(_NAMES): rng.choice([*m.children, junk])}})
    if op < 11:  # a tracking entry removed, set to None or pointed elsewhere
        world, label = rng.choice(entries)
        row = dict(m.tracking[world])
        if op == 8:
            del row[label]
        else:
            row[label] = None if op == 9 else junk
        return replace_model(m, tracking={**m.tracking, world: row})
    return replace_model(m, children=_rekey(m.children, rng.choice(list(m.children)), ""))


def mutated_models(count: int, seed: int) -> list[GenealogicalModel]:
    """`count` generated model trees, each after one to three edits at any generation."""
    out = []
    for k in range(count):
        rng = SplitMix64(derive(seed, "tree", k))
        spec = GenSpec(
            seed=derive(seed, "tree-model", k),
            max_worlds=1 + rng.below(4),
            max_children=rng.below(3),
            max_depth=1 + rng.below(2),
            prop_count=rng.below(3),
            constant_count=rng.below(3),
        )
        m = gen_model(spec)
        for _ in range(1 + rng.below(3)):
            path, node = rng.choice(_nodes(m))
            m = _put(m, path, _edit(node, rng))
        out.append(m)
    return out


_SENTENCE_VOCAB = Vocabulary.of(props=["p", "q"], constants=["c"])
_INSERTS = ["(", ")", "~", "[", "]", "[]", "<>", "?[", "#", "#c", ".", "@", "-", "->", "&", "|", "\n", " ",
            "\t", "x", "X", "P", "p", "zz", "forall", "exists x.", "xi", "T", "F", "é", "0"]


def mutated_sentences(count: int, seed: int) -> list[tuple[str, bool]]:
    """`count` (text, use vocabulary) pairs: generated sentences after zero to three edits."""
    out = []
    for k in range(count):
        rng = SplitMix64(derive(seed, "sentence", k))
        text = format_formula(gen_sentence(derive(seed, "formula", k), _SENTENCE_VOCAB, max_connectives=1 + rng.below(8)))
        for _ in range(rng.below(4)):
            at = rng.below(len(text) + 1)
            op = rng.below(3)
            if op == 0:
                text = text[:at] + text[at + 1:]
            elif op == 1:
                text = text[:at] + rng.choice(_INSERTS) + text[at:]
            else:
                text = text[:at] + rng.choice(_INSERTS) + text[at + 1 + rng.below(3):]
        out.append((text, rng.chance(0.5)))
    return out


def sentence_outcome(text: str, use_vocab: bool) -> str:
    try:
        formula = parse(text, _SENTENCE_VOCAB if use_vocab else None)
    except ParseError as exc:
        return f"{type(exc).__name__}|{exc.message}|{exc.line}|{exc.col}\n"
    return format_formula(formula) + "\n"


def digest(count: int = 1500, seed: int = 0) -> str:
    h = hashlib.sha256()
    for text in mutated_documents(count, seed):
        h.update(document_outcome(text).encode())
    for m in direct_models() + mutated_models(500, seed):
        h.update(model_outcome(m).encode())
    for text, use_vocab in mutated_sentences(count, seed):
        h.update(sentence_outcome(text, use_vocab).encode())
    return h.hexdigest()
