#!/usr/bin/env python3
"""Measure what Tier-1 catches: apply each of a fixed list of hand-written
mutants to a temporary copy of the repository and run Tier-1 there with
`-x`.

A mutant is `(file, old text, new text, why)`; its old text must occur
exactly once in the file.  For each mutant the script prints the first
failing test (the one that killed it) and the seconds Tier-1 took.  The
unmutated copy runs first and must pass.  Exit status: 0 if every mutant
was killed, 1 if one survived, 2 if the list is stale or the unmutated
copy fails.  Standard library and pytest only:

    python scripts/mutants.py
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODEL, BISIM = "src/gkmc/model.py", "src/gkmc/bisim.py"
_HELD = "(relation or valuation or assignment or tracking)"
_TABLES_CHECK = """        if 2 * len(labels) + 2 > MAX_DOCUMENT_DEPTH:
            raise DocumentFormatError(_TOO_DEEP)
"""

MUTANTS = [
    (MODEL, _HELD, _HELD.replace("relation or ", ""), "depth: relation left out of the held-entries test"),
    (MODEL, _HELD, _HELD.replace("valuation or ", ""), "depth: valuation left out of the held-entries test"),
    (MODEL, _HELD, _HELD.replace(" or assignment", ""), "depth: assignment left out of the held-entries test"),
    (MODEL, _HELD, _HELD.replace(" or tracking", ""), "depth: tracking left out of the held-entries test"),
    (MODEL, "2 * len(labels) + 2 > MAX", "2 * len(labels) + 2 >= MAX", "depth: tables refused at the limit"),
    (MODEL, "2 * len(labels) + 3 > MAX", "2 * len(labels) + 3 >= MAX", "depth: entries refused at the limit"),
    (MODEL, _TABLES_CHECK, "", "depth: no check before walking the children"),
    (MODEL, 'outside = re.sub(r\'"[^"\\\\]*(?:\\\\.[^"\\\\]*)*"\', "", text)', "outside = text",
     "depth: the error-path scan counts brackets inside strings"),
    (BISIM, """        for u2 in succ_m[u]:
            if not any((u2, v2) in w.z for v2 in succ_n[v]):
                fail("zig", f"no response in Z for {u} -> {u2} from ({u}, {v})")
""", "", "check_witness: no zig clause"),
    (BISIM, 'fail(tag, f"missing child witness for ({a}, {b}) at ({wa}, {wb})")', "pass",
     "check_witness: a missing child witness not reported"),
    (BISIM, """    if type(row) is not list or len(row) != width or not all(type(name) is str for name in row):
        raise ValueError(f"{row!r} is not an array of {width} strings")
""", "", "witness_from_document: no pair-shape check"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def tier1(copy: pathlib.Path) -> tuple[str | None, float]:
    """The first failing test of Tier-1 in `copy` (None if all pass) and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - started
    if done.returncode == 0:
        return None, seconds
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return (first.group(1) if first else f"exit {done.returncode}"), seconds


def main() -> int:
    for file, old, new, why in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"stale mutant ({why}): its text occurs {count} times in {file}")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")

        def fresh_copy() -> pathlib.Path:
            copy = pathlib.Path(tmp) / "repo"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(ROOT, copy, ignore=ignore)
            return copy

        failed, seconds = tier1(fresh_copy())
        print(f"unmutated: {'passes' if failed is None else 'FAILS at ' + failed} ({seconds:.1f} s)", flush=True)
        if failed is not None:
            return 2
        survivors = 0
        for file, old, new, why in MUTANTS:
            copy = fresh_copy()
            path = copy / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            killer, seconds = tier1(copy)
            survivors += killer is None
            print(f"{'SURVIVED' if killer is None else 'killed':8}  {seconds:5.1f} s  {why}: {killer or '-'}", flush=True)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
