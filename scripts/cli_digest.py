#!/usr/bin/env python3
"""Print one SHA-256 over what the `gkmc` command line answers to a fixed
list of invocations, so two versions of the front end can be compared
byte for byte:

    python3 scripts/cli_digest.py

To see which invocation changed a digest, diff the records of two
versions:

    python3 -c 'import cli_digest; print(*cli_digest.records(), sep=chr(10))'

(run from `scripts/`).

Each invocation runs `gkmc.cli.main` in process and adds its argv, exit
code, stdout and the bytes of each file it was asked to write
(`--witness`, `gen -o`) to the hash.  Stderr is left out: tracebacks hold
paths.  The list covers every subcommand with `--json` on and off: the
bundled fixtures and every pair of their worlds, the `run_examples.py`
corpus sentences, malformed documents, sentences and vocabulary files,
unknown worlds, `--oracle`, bisimilarity and enumeration budgets (`0`
and negative), `--witness`, and `gen` seeds with valid and invalid
sizes.  The inputs are copied into a temporary directory under fixed
relative names, and the invocations run there, so the digest does not
depend on where the checkout lives.  The Tier-1 suite checks `PINNED`."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from gkmc.cli import main as cli_main
from gkmc.generate import GenSpec, dup_child, gen_model
from gkmc.model import dump_model
from run_examples import CORPUS

PINNED = "d6746a5f042759db5e964aebb84307a6781378c102eb6198c14686779004142d"

FIXTURES = {
    "de_dicto.gkm.json": ("s0", "s1", "s2"),
    "deadlock.gkm.json": ("s0", "s1", "s2", "s3", "s4"),
    "waitall.gkm.json": ("s0", "s1", "s2", "s3"),
}
# Written next to the fixtures: name -> document text.
DOCUMENTS = {
    "one.gkm.json": '{"worlds": ["w0"], "valuation": {"p": ["w0"]}}',
    "none.gkm.json": '{"worlds": ["w0"], "valuation": {"p": []}}',
    "wide.gkm.json": '{"worlds": ["w0", "w1", "w2", "w3"]}',
    "child.gkm.json": '{"worlds": ["w0"], "valuation": {"p": ["w0"]}, "children": {"n": {"worlds": ["u"]}}, "tracking": {"w0": {"n": "u"}}}',
}
BAD_DOCUMENTS = {
    "truncated.gkm.json": '{"worlds": ["s0"',
    "not-an-object.gkm.json": "[1, 2]",
    "unknown-field.gkm.json": '{"worlds": ["s0"], "colour": "red"}',
    "duplicate-key.gkm.json": '{"worlds": ["s0"], "worlds": ["s1"]}',
    "bad-closure.gkm.json": '{"worlds": ["s0"], "closure": "symmetric"}',
    "tracking-gap.gkm.json": '{"worlds": ["s0"], "children": {"n1": {"worlds": ["t0"]}}, "tracking": {}}',
    "endpoint.gkm.json": '{"worlds": ["a"], "relation": [["a", "b"]], "closure": "reflexive-transitive"}',
    "keyword-prop.gkm.json": '{"worlds": ["s0"], "valuation": {"forall": ["s0"]}}',
    # Past the loader's fixed nesting limit (`gkmc.model.MAX_DOCUMENT_DEPTH`).
    "deep.gkm.json": '{"worlds": ["s"], "valuation": {"p": ' + "[" * 100_000 + "]" * 100_000 + "}}",
}
VOCABS = {
    "vocab.json": '{"props": ["r", "extra"], "constants": ["c"]}',
    "empty-vocab.json": '{"props": [], "constants": []}',
    "wide-vocab.json": '{"props": ["a", "b", "r", "p"], "constants": ["c", "d"]}',
    "number-vocab.json": '{"props": 5}',
    "null-item-vocab.json": '{"props": [null]}',
    "list-vocab.json": '["p"]',
    "keyword-vocab.json": '{"props": ["forall"]}',
    "truncated-vocab.json": '{"props": [',
}
BAD_SENTENCES = [
    "xi X. X", "?[p] x", "forall x. ?[p & ?[T] x] x", "zzz", "#c", "p & & q", "p $ q", "(p", "p)",
    "forall forall. p", "xi T. p", "~" * 150 + "p", "[]" * 150 + "p",
]
GEN_SIZES = [
    [], ["--max-worlds", "1"], ["--max-worlds", "6", "--max-children", "3", "--max-depth", "3"],
    ["--props", "2", "--constants", "0"], ["--closure", "reflexive-transitive"], ["--density", "1.0"],
    ["--max-worlds", "0"], ["--max-children", "-1"], ["--max-depth", "-1"], ["--props", "-1"],
    ["--constants", "-1"], ["--density", "1.5"], ["--density", "nan"], ["--density", "-0.5"],
]


def invocations():
    """(argv, written paths) of every invocation, in order."""
    fixtures = [(path, world) for path, worlds in FIXTURES.items() for world in worlds]
    sentences = sorted({text for _, text in CORPUS}) + ["T"]
    plain = []
    for path in [*FIXTURES, *DOCUMENTS, *BAD_DOCUMENTS, "missing.gkm.json"]:
        plain.append(["validate", path])
    for path, worlds in FIXTURES.items():
        for text in sentences:
            plain.append(["eval", path, text])
            plain.extend(["eval", path, text, "--world", world] for world in (*worlds, "nowhere"))
    for text in BAD_SENTENCES:
        plain.append(["eval", "de_dicto.gkm.json", text])
        plain.append(["fmt", text])
    for vocab in [*VOCABS, "missing.json"]:
        plain.append(["eval", "de_dicto.gkm.json", "extra | T", "--vocab", vocab])
        # `bisim` takes no vocabulary: argparse refuses the option, exit 2.
        plain.append(["bisim", "de_dicto.gkm.json", "s0", "de_dicto.gkm.json", "s1", "--vocab", vocab])
    for path in [*BAD_DOCUMENTS, "missing.gkm.json"]:
        plain.append(["eval", path, "T"])
        plain.append(["bisim", path, "s0", "one.gkm.json", "w0"])
        plain.append(["bisim", "one.gkm.json", "w0", path, "s0"])
        plain.append(["distinguish", "one.gkm.json", "w0", path, "s0"])
    for (p1, w1), (p2, w2) in itertools.product(fixtures, repeat=2):
        if p1 != p2:
            plain.append(["bisim", p1, w1, p2, w2])
        else:
            plain.append(["bisim", p1, w1, p2, w2, "--witness", "witness.json"])
            plain.append(["distinguish", p1, w1, p2, w2, "--max-depth", "2"])
    for p1, p2 in itertools.combinations(FIXTURES, 2):
        plain.append(["distinguish", p1, "s0", p2, "s1", "--max-depth", "3", "--max-modal-depth", "1"])
    plain += [
        ["bisim", "de_dicto.gkm.json", "nowhere", "de_dicto.gkm.json", "s0"],
        ["bisim", "de_dicto.gkm.json", "s0", "deadlock.gkm.json", "nowhere"],
        ["bisim", "de_dicto.gkm.json", "s0", "de_dicto.gkm.json", "nowhere", "--vocab", "empty-vocab.json"],
        ["distinguish", "de_dicto.gkm.json", "nowhere", "de_dicto.gkm.json", "s0"],
        ["distinguish", "de_dicto.gkm.json", "s0", "deadlock.gkm.json", "nowhere"],
        ["bisim", "one.gkm.json", "w0", "one.gkm.json", "w0", "--oracle"],
        ["bisim", "one.gkm.json", "w0", "none.gkm.json", "w0", "--oracle"],
        ["bisim", "wide.gkm.json", "w0", "wide.gkm.json", "w1", "--oracle"],
        ["bisim", "child.gkm.json", "w0", "child.gkm.json", "w0", "--oracle", "--witness", "witness.json"],
        ["bisim", "child.gkm.json", "w0", "one.gkm.json", "w0", "--oracle"],
        ["bisim", "m.gkm.json", "s0", "dup.gkm.json", "s0", "--oracle"],
        ["bisim", "m.gkm.json", "s0", "dup.gkm.json", "s0", "--witness", "witness.json"],
        ["bisim", "m.gkm.json", "s1", "dup.gkm.json", "s1", "--witness", "witness.json", "--budget", "1"],
        *(["bisim", "de_dicto.gkm.json", "s0", "de_dicto.gkm.json", "s0", "--budget", b] for b in ("0", "-1", "1", "50")),
        ["distinguish", "one.gkm.json", "w0", "none.gkm.json", "w0"],
        ["distinguish", "one.gkm.json", "w0", "none.gkm.json", "w0", "--max-depth", "0"],
        ["distinguish", "de_dicto.gkm.json", "s0", "de_dicto.gkm.json", "s2", "--no-xi", "--max-depth", "3"],
        *(["distinguish", "de_dicto.gkm.json", "s0", "de_dicto.gkm.json", "s1", *flags]
          for flags in (["--max-depth", "-1"], ["--max-depth", "2", "--max-modal-depth", "-1"], ["--max-modal-depth", "0"])),
        *(["fmt", text] for text in sentences),
        *(["gen", "--seed", str(seed), *sizes] for seed in range(3) for sizes in GEN_SIZES),
        ["gen", "--seed", "7", "-o", "out.gkm.json"],
        ["gen", "--seed", "7", "--max-worlds", "0", "-o", "out.gkm.json"],
        ["gen", "--seed", "x"],
        ["bisim", "de_dicto.gkm.json", "s0"],
        ["unknown-command"],
    ]
    out = []
    for argv in plain:
        written = [argv[k + 1] for k, flag in enumerate(argv) if flag in ("--witness", "-o")]
        out += [(argv, written), (["--json", *argv], written)]
    return out


def _write_inputs(root: pathlib.Path):
    for name in FIXTURES:
        shutil.copyfile(HERE.parent / "fixtures" / name, root / name)
    for name, text in {**DOCUMENTS, **BAD_DOCUMENTS, **VOCABS}.items():
        (root / name).write_text(text, encoding="utf-8")
    m = gen_model(GenSpec(seed=0, max_worlds=8, max_children=4, max_depth=2, edge_density=0.4))
    (root / "m.gkm.json").write_text(dump_model(m), encoding="utf-8")
    (root / "dup.gkm.json").write_text(dump_model(dup_child(m, sorted(m.children)[0])), encoding="utf-8")


def _run(argv: list, written: list) -> str:
    """One record: the invocation, its exit code, stdout and written files."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    files = []
    for name in written:
        path = pathlib.Path(name)
        files.append(path.read_text(encoding="utf-8") if path.exists() else None)
        path.unlink(missing_ok=True)
    # The leading {} is the record's environment column, empty since the
    # command line reads no environment variable; it keeps records
    # comparable with those of earlier versions.
    return json.dumps([{}, argv, code, out.getvalue(), files], sort_keys=True)


def records() -> list[str]:
    """The record of every invocation, run in a fresh directory holding
    the inputs."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(pathlib.Path(root))
        os.chdir(root)
        try:
            return [_run(*invocation) for invocation in invocations()]
        finally:
            os.chdir(cwd)


def digest() -> str:
    h = hashlib.sha256()
    for record in records():
        h.update(record.encode() + b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
