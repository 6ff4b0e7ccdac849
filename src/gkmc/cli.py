"""Command-line front end.

Subcommands: validate, eval, bisim, distinguish, gen, fmt.  Exit codes:
0 the property holds / models bisimilar / document valid; 1 it fails /
not bisimilar / invalid; 2 input error, an output path that cannot be
written and a formula nested deeper than `syntax.MAX_NESTING`
included; 3 search budget exhausted (an
explicit unknown, never conflated with 0 or 1); 4 internal error (an
unexpected exception, a witness failing its check or an oracle
disagreement; never a verdict).  With `--json` every result is a single
JSON line with sorted keys, bit-stable across runs; otherwise output is
human text.

Each subcommand returns its result as `(exit code, JSON payload, text)`
and prints nothing.  `main` alone prints a result and alone maps an
exception to an exit code: a `ValueError`, which every input error is,
gives 2 and `{"error": "input"}`; anything else gives 4 and a traceback
on stderr.  An error report escapes what stdout cannot encode, so it
always prints.  A stdout closed by its reader leaves the exit code that
of the result being printed, and nothing more is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .bisim import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    OracleSizeError,
    bisimilar,
    brute_force_bisim,
    check_witness,
    witness_to_document,
)
from .distinguish import EnumerationBudget, distinguish
from .generate import GenSpec, gen_model
from .model import (
    DocumentFormatError,
    ModelInvalidError,
    PointedModel,
    dump_model,
    load_model,
    model_vocabulary,
    parse_document,
    to_document,
    validate,
)
from .semantics import evaluate_sentence
from .syntax import Vocabulary, check_sentence, format_formula, parse

OK, FAIL, INPUT_ERROR, UNKNOWN, INTERNAL = 0, 1, 2, 3, 4


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}")


def _load_vocab(path) -> Vocabulary:
    text = _read(path)
    try:
        doc = json.loads(text)
        names = [doc.get(key, []) for key in ("props", "constants")] if isinstance(doc, dict) else None
        if names is None or not all(isinstance(ns, list) and all(isinstance(n, str) for n in ns) for ns in names):
            raise ValueError('want an object whose "props" and "constants" are arrays of strings')
        return Vocabulary.of(*names)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"bad vocabulary file {path}: {exc}")


def _load_valid_model(path):
    try:
        return load_model(_read(path))
    except ModelInvalidError as exc:
        raise ValueError(f"invalid model {path}: " + "; ".join(map(str, exc.diagnostics.violations)))


def _pointed_pair(args, m, n):
    """`m` at `world1` and `n` at `world2`, each world checked against its model."""
    for path, model, world in ((args.model1, m, args.world1), (args.model2, n, args.world2)):
        if world not in model.worlds:
            raise ValueError(f"unknown world {world!r} in {path}")
    return PointedModel(m, args.world1), PointedModel(n, args.world2)


def _cmd_validate(args):
    try:
        m = parse_document(_read(args.model))
    except DocumentFormatError as exc:
        return INPUT_ERROR, {"error": "format", "message": str(exc)}, f"format error: {exc}"
    diagnostics = validate(m)
    if diagnostics.verdict:
        return OK, {"valid": True}, "valid"
    lines = list(map(str, diagnostics.violations))
    return FAIL, {"valid": False, "violations": lines}, "invalid:\n  " + "\n  ".join(lines)


def _cmd_eval(args):
    m = _load_valid_model(args.model)
    vocab = _load_vocab(args.vocab) if args.vocab else model_vocabulary(m)
    sentence = parse(args.sentence, vocab)
    diagnostics = check_sentence(sentence)
    if not diagnostics.verdict:
        lines = [f"{v.tag}: {v.message}" for v in diagnostics.violations]
        return INPUT_ERROR, {"error": "not-a-sentence", "violations": lines}, "not a sentence:\n  " + "\n  ".join(lines)
    if args.world is not None and args.world not in m.worlds:
        raise ValueError(f"unknown world {args.world!r}")
    worlds = evaluate_sentence(m, sentence)
    ordered = [w for w in m.worlds if w in worlds]
    if args.world is None:
        return OK, {"worlds": ordered}, json.dumps(ordered)
    holds = args.world in worlds
    return (
        OK if holds else FAIL,
        {"holds": holds, "world": args.world, "worlds": ordered},
        f"{'holds' if holds else 'fails'} at {args.world}; satisfying worlds: {json.dumps(ordered)}",
    )


def _cmd_bisim(args):
    m = _load_valid_model(args.model1)
    n = _load_valid_model(args.model2)
    vocab = model_vocabulary(m, n)
    pm, pn = _pointed_pair(args, m, n)

    try:
        verdict = bisimilar(pm, pn, vocab=vocab, budget=args.budget)
    except BudgetExceededError as exc:
        return UNKNOWN, {"bisimilar": None, "reason": str(exc)}, f"unknown: {exc}"

    if args.oracle:
        try:
            oracle = brute_force_bisim(pm, pn, vocab=vocab)
        except OracleSizeError as exc:
            raise ValueError(f"oracle infeasible: {exc}")
        if oracle != verdict.bisimilar:
            return (
                INTERNAL,
                {"error": "oracle-disagreement", "search": verdict.bisimilar, "oracle": oracle},
                f"ORACLE DISAGREEMENT: search says {verdict.bisimilar}, brute force says {oracle}",
            )

    if not verdict.bisimilar:
        return FAIL, {"bisimilar": False}, "not bisimilar"
    report = check_witness(pm, pn, verdict.witness, vocab=vocab)
    if not report.ok:
        return (
            INTERNAL,
            {"error": "witness-check-failed", "failures": [list(f) for f in report.failures]},
            "internal error: produced witness fails verification",
        )
    if args.witness:
        _write(args.witness, json.dumps(witness_to_document(verdict.witness), indent=2, sort_keys=True) + "\n")
    return OK, {"bisimilar": True}, "bisimilar"


def _cmd_distinguish(args):
    m = _load_valid_model(args.model1)
    n = _load_valid_model(args.model2)
    vocab = model_vocabulary(m, n)
    pm, pn = _pointed_pair(args, m, n)
    max_modal = args.max_depth if args.max_modal_depth is None else args.max_modal_depth
    separator = distinguish(pm, pn, EnumerationBudget(args.max_depth, max_modal, vocab, allow_xi=not args.no_xi))
    if separator is None:
        return UNKNOWN, {"separator": None, "exhausted": True}, "no separator within budget (not a bisimilarity proof)"
    text = format_formula(separator)
    return OK, {"separator": text}, text


def _cmd_gen(args):
    spec = GenSpec(
        seed=args.seed,
        max_worlds=args.max_worlds,
        max_children=args.max_children,
        max_depth=args.max_depth,
        prop_count=args.props,
        constant_count=args.constants,
        closure=args.closure,
        edge_density=args.density,
    )
    m = gen_model(spec)
    if args.output:
        _write(args.output, dump_model(m))
        return OK, {"written": args.output}, f"wrote {args.output}"
    return OK, to_document(m), dump_model(m).rstrip("\n")


def _cmd_fmt(args):
    text = format_formula(parse(args.sentence, vocab=None))
    return OK, {"formula": text}, text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkmc",
        description="Model checking for first-order modal xi-calculus over genealogical Kripke models.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable line-delimited JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a .gkm.json model document")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("eval", help="evaluate a sentence over a model")
    p.add_argument("model")
    p.add_argument("sentence")
    p.add_argument("--world", help="check satisfaction at this world (exit 0/1)")
    p.add_argument("--vocab", help="JSON file {\"props\": [...], \"constants\": [...]} overriding the inferred vocabulary")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bisim", help="decide bisimilarity of two pointed models")
    p.add_argument("model1")
    p.add_argument("world1")
    p.add_argument("model2")
    p.add_argument("world2")
    p.add_argument("--witness", help="write the witness JSON here when bisimilar")
    p.add_argument("--oracle", action="store_true", help="cross-check with the brute-force oracle (tiny inputs)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node budget")
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("distinguish", help="search for a sentence separating two pointed models")
    p.add_argument("model1")
    p.add_argument("world1")
    p.add_argument("model2")
    p.add_argument("world2")
    p.add_argument("--max-depth", type=int, default=4, help="connective budget for enumeration")
    p.add_argument("--max-modal-depth", type=int, help="modal nesting budget (default: --max-depth)")
    p.add_argument("--no-xi", action="store_true", help="exclude xi binders from the search")
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("gen", help="emit a random .gkm.json model document")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-worlds", type=int, default=4)
    p.add_argument("--max-children", type=int, default=2)
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--props", type=int, default=1)
    p.add_argument("--constants", type=int, default=1)
    p.add_argument("--closure", choices=["none", "reflexive-transitive"], default="none")
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fmt", help="pretty-print a sentence in canonical form")
    p.add_argument("sentence")
    p.set_defaults(func=_cmd_fmt)

    return parser


def _printable(text: str) -> str:
    """`text` with each character stdout cannot encode written as a backslash escape."""
    encoding = getattr(sys.stdout, "encoding", None)
    return text.encode(encoding, "backslashreplace").decode(encoding) if encoding else text


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    def report(code, payload, text) -> int:
        try:
            print(json.dumps(payload, sort_keys=True, separators=(",", ":")) if args.json else text, flush=True)
        except BrokenPipeError:
            # The reader closed stdout: the result stands, and what stdout
            # still buffers goes to the null device, so exit cannot fail.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code

    # Printing a result stays inside the try: a result stdout cannot encode
    # is an input error, as any other ValueError.
    try:
        return report(*args.func(args))
    except ValueError as exc:
        return report(INPUT_ERROR, {"error": "input", "message": str(exc)}, _printable(f"error: {exc}"))
    except Exception as exc:  # a crash must not read as a verdict
        traceback.print_exc(file=sys.stderr)
        message = f"{type(exc).__name__}: {exc}"
        return report(INTERNAL, {"error": "internal", "message": message}, _printable(f"internal error: {message}"))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
