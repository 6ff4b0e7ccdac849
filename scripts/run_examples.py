#!/usr/bin/env python3
"""Evaluate the example-corpus sentences over the bundled fixtures, print
where each one holds, and exit 1 if that differs from EXPECTED."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gkmc.model import load_model_file, model_vocabulary
from gkmc.semantics import evaluate_sentence
from gkmc.syntax import parse

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

CORPUS = [
    (
        "de_dicto.gkm.json",
        "([] exists x. ?[r] x & (~ exists x. [] ?[r] x & [] ?[r] #c))",
    ),
    (
        "deadlock.gkm.json",
        "exists x. exists y. (?[<> (a & ~b)] x & ?[<> (~a & b)] y)"
        " & ~ <> exists x. exists y. (?[(a & ~b)] x & ?[(~a & b)] y)",
    ),
    ("waitall.gkm.json", "[] xi X. (r | exists x. ?[X] x)"),
    ("waitall.gkm.json", "xi X. forall x. ?[X] x"),
]

# The sorted worlds where each CORPUS entry holds.
EXPECTED = dict(zip(CORPUS, (
    ["s0", "s1"],
    ["s0", "s1", "s2", "s3", "s4"],
    ["s0", "s1", "s2", "s3"],
    ["s0", "s1", "s2", "s3"],
)))


def main():
    mismatches = 0
    for name, text in CORPUS:
        model = load_model_file(FIXTURES / name)
        sentence = parse(text, model_vocabulary(model))
        worlds = sorted(evaluate_sentence(model, sentence))
        print(f"{name}:")
        print(f"  {text}")
        print(f"  holds at: {worlds}")
        if worlds != EXPECTED[name, text]:
            mismatches += 1
            print(f"  MISMATCH: expected {EXPECTED[name, text]}")
    if mismatches:
        sys.exit(1)


if __name__ == "__main__":
    main()
