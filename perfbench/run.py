#!/usr/bin/env python3
"""gkmc benchmark: closed-loop workloads over the library's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: eval_oneshot, bisim_witness, separate_stream, or `all`
(each in a fresh process, one after the other).  One client on one
thread sends its next query when the previous one is done.  Inputs come
from `--seed` alone; every answer is checked outside the timed query.

With `--trace 0` the run times queries for `--seconds` and reports the
end-to-end metrics.  Spread evenly through those seconds, between
queries, it times several cold set-ups, each in a fresh interpreter
(`coldsetup.py`), and reports their median as `setup_s`.  Timed metrics
are scaled to a reference machine speed: a fixed loop (`_probe_ms`) runs
between queries, and each time is multiplied by PROBE_REFERENCE_MS over
the loop's local median, because a shared machine's speed can drift by
a quarter over minutes; the wall-clock figures are printed beside them.
With `--trace 1` it
runs the same queries three times, each after a fresh import: untraced,
with every public layer function wrapped, and untraced again, and
reports per-layer calls and self time.  The last
line of standard output is one JSON object; the lines before it are the
same numbers for a reader.  `--smoke` runs a fixed handful of tiny
queries.  The exit code is 0 only if every answer checked out.

The package is imported from `src/` next to this directory, as the
tests do with PYTHONPATH=src; without it the run fails before printing
a result.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import importlib
import json
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import layertrace  # noqa: E402  (this directory is on sys.path when run as a script)
import workloads  # noqa: E402

SETUP_REPEATS = 21
SMOKE_SETUP_REPEATS = 2
PROBE_EVERY_S = 0.25
# Timed end-to-end metrics are scaled to a machine on which `_probe_ms()`
# takes this long, using the probes within SPEED_WINDOW_S of each sample.
PROBE_REFERENCE_MS = 2.0
SPEED_WINDOW_S = 2.5
SMOKE_QUERIES = 12
CHECK_CAP_S = 2.0
# With --trace 1 the first untraced pass gets this share of --seconds;
# the traced replay and a second untraced replay of the same queries take
# most of the rest.
UNTRACED_SHARE = 1 / 4

_clock = time.perf_counter


def _probe_ms() -> float:
    """A fixed pure-Python loop: its time tracks the machine's current speed."""
    t0 = _clock()
    acc = 0
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
    return (_clock() - t0) * 1e3


def _fresh_import():
    """Import gkmc from ./src, dropping any earlier import first."""
    for name in [n for n in sys.modules if n == "gkmc" or n.startswith("gkmc.")]:
        del sys.modules[name]
    package = importlib.import_module("gkmc")
    if pathlib.Path(package.__file__).resolve().parent != SRC / "gkmc":
        raise ImportError(f"gkmc imported from {package.__file__}, not from {SRC}")
    return layertrace.layer_namespace()


def _setup(workload_cls, seed: int, smoke: bool, tracer_factory=None):
    """Import gkmc afresh, then build the workload. Returns (workload, tracer)."""
    gk = _fresh_import()
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
        tracer.phase("setup")
    workload = workload_cls(gk, seed, smoke)
    if tracer is not None:
        tracer.phase(None)
    return workload, tracer


def _cold_setup(workload_cls, seed: int, smoke: bool) -> float:
    """Seconds of one set-up in a fresh interpreter, as `coldsetup.py` times it."""
    cmd = [sys.executable, str(HERE / "coldsetup.py"), workload_cls.name, str(seed)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.split()[-1])


def _measure(workload, *, deadline=None, limit=None, tracer=None, probes=None, setup=None):
    """Closed loop over queries 0, 1, ... until the deadline or the limit.

    `probes`, if given, collects (time, `_probe_ms()`) pairs taken every
    PROBE_EVERY_S between queries.  `setup`, if given, is (times, repeats,
    function): before the first query and then at even steps to the
    deadline, (time, the function's result) is appended to `times`,
    between queries, until it holds `repeats` values.
    Returns per-query latencies (s), start times and outcome tags, in
    query order.
    """
    latencies: list[float] = []
    starts: list[float] = []
    outcomes: list[str] = []
    workload.counters = {}
    setup_times, repeats, take_setup = setup if setup is not None else ([], 0, None)
    start = next_probe = next_setup = _clock()
    setup_step = (deadline - start) / repeats if deadline is not None and repeats else None
    k = 0
    while (limit is None or k < limit) and (deadline is None or _clock() < deadline):
        if probes is not None and _clock() >= next_probe:
            probes.append((_clock(), _probe_ms()))
            next_probe = _clock() + PROBE_EVERY_S
        if setup_step is not None and len(setup_times) < repeats and _clock() >= next_setup:
            setup_times.append((_clock(), take_setup()))
            next_setup = start + len(setup_times) * setup_step
        if tracer is not None:
            tracer.phase("input")
        inp = workload.input(k)
        if tracer is not None:
            tracer.phase("query")
        t0 = _clock()
        try:
            out = workload.query(inp)
        except Exception as exc:  # a crash is a failed query, never a verdict
            out = exc
        latencies.append(_clock() - t0)
        starts.append(t0)
        if tracer is not None:
            tracer.phase(None)
        outcomes.append(_outcome(workload, inp, out))
        k += 1
    while len(setup_times) < repeats:
        setup_times.append((_clock(), take_setup()))
    return latencies, starts, outcomes


def _at_reference_speed(samples, probes):
    """Scale (time, seconds) samples to a machine whose probe takes PROBE_REFERENCE_MS.

    Each sample is multiplied by PROBE_REFERENCE_MS over the median of
    the probes taken within SPEED_WINDOW_S of it (all probes, if none).
    """
    times = [t for t, _ in probes]
    scaled = []
    for t, seconds in samples:
        near = [ms for _, ms in probes[bisect.bisect_left(times, t - SPEED_WINDOW_S):bisect.bisect_right(times, t + SPEED_WINDOW_S)]]
        scaled.append(seconds * PROBE_REFERENCE_MS / statistics.median(near or [ms for _, ms in probes]))
    return scaled


class _CheckTimeout(Exception):
    pass


def _raise_check_timeout(signum, frame):
    raise _CheckTimeout()


def _outcome(workload, inp, out) -> str:
    if isinstance(out, Exception):
        return f"wrong: query raised {type(out).__name__}: {out}"
    # The unmemoized evaluation that checks eval_oneshot is exponential in
    # nested binders; on rare inputs it ran for over 30 s.  Such an answer
    # counts as decided, tagged `timeout`, rather than stalling the run.
    previous = signal.signal(signal.SIGALRM, _raise_check_timeout)
    signal.setitimer(signal.ITIMER_REAL, CHECK_CAP_S)
    try:
        return workload.check(inp, out)
    except _CheckTimeout:
        return "timeout"
    except Exception as exc:  # e.g. a separator whose text does not parse
        return f"wrong: check raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _percentiles(latencies):
    if len(latencies) == 1:
        return {q: latencies[0] for q in (50, 90, 99)}
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {q: cuts[q - 1] for q in (50, 90, 99)}


def _tally(outcomes):
    failed = [o for o in outcomes if o.startswith("wrong")]
    decided = sum(o in ("decided", "unverified", "timeout") for o in outcomes)
    return failed, decided


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timings(latencies, setup_seconds, prefix=""):
    pct = _percentiles(latencies)
    return {
        f"{prefix}setup_s": _metric(statistics.median(setup_seconds), "s"),
        f"{prefix}queries_per_s": _metric(len(latencies) / sum(latencies), "1/s"),
        f"{prefix}query_p50_ms": _metric(pct[50] * 1e3, "ms"),
        f"{prefix}query_p90_ms": _metric(pct[90] * 1e3, "ms"),
    }


def _end_to_end(latencies, starts, outcomes, setup_times, probes):
    scaled = _at_reference_speed(list(zip(starts, latencies)), probes)
    failed, decided = _tally(outcomes)
    n = len(outcomes)
    metrics = {
        **_timings(scaled, _at_reference_speed(setup_times, probes)),
        "decided_share": _metric(decided / n, "ratio"),
    }
    # Shown to the reader but not in the JSON result: the timings as the
    # wall clock read them; failed_share is 0 when all is well (the
    # result's `failed` count carries it); peak RSS follows the one
    # largest witness of a bisim_witness run, so it moves several-fold
    # between seeds; p99 has at least ten samples beyond it only on
    # eval_oneshot.
    extra = {
        **_timings(latencies, [seconds for _, seconds in setup_times], "wall_clock."),
        "failed_share": _metric(len(failed) / n, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if n >= 1000:
        extra["query_p99_ms"] = _metric(_percentiles(scaled)[99] * 1e3, "ms")
    return metrics, extra


def _per_layer(tracer, workload, outcomes, untraced_s, traced_s, probes):
    query = tracer.stats("query")
    gen = tracer.stats("setup", "input")
    zero = layertrace.Stat()

    def q(name):
        return query.get(name, zero)

    checks = q("syntax.check_sentence").calls
    distinct = len(tracer.checked_sentences)
    yielded = q("distinguish.enumerate_sentences").yields
    separators = outcomes.count("decided")  # on separate_stream, the only workload that enumerates
    witnesses = workload.counters.get("witnesses", 0)
    metrics = {
        "semantics.sentence_worlds.calls": _metric(q("semantics.sentence_worlds").calls, "count"),
        "semantics.sentence_worlds.self_s": _metric(q("semantics.sentence_worlds").self_s, "s"),
        "semantics.holds_at.self_s": _metric(q("semantics.holds_at").self_s, "s"),
        "semantics.holds_at.total_s": _metric(q("semantics.holds_at").total_s, "s"),
        "syntax.check_sentence.calls": _metric(checks, "count"),
        "syntax.check_sentence.self_s": _metric(q("syntax.check_sentence").self_s, "s"),
        "syntax.check_sentence.per_sentence": _metric(checks / distinct if distinct else 0.0, "calls/sentence"),
        "distinguish.enumerate_sentences.self_s": _metric(q("distinguish.enumerate_sentences").self_s, "s"),
        "distinguish.sentences_yielded": _metric(yielded, "count"),
        "distinguish.separators_per_1k_sentences": _metric(
            1000 * separators / yielded if yielded else 0.0, "1/1000"
        ),
        "model.parse_document.self_s": _metric(q("model.parse_document").self_s, "s"),
        "model.validate.self_s": _metric(q("model.validate").self_s, "s"),
        "model.load.calls": _metric(q("model.load_model").calls, "count"),
        "syntax.parse.self_s": _metric(q("syntax.parse").self_s, "s"),
        "syntax.format_formula.self_s": _metric(q("syntax.format_formula").self_s, "s"),
        "bisim.bisimilar.calls": _metric(q("bisim.bisimilar").calls, "count"),
        "bisim.bisimilar.self_s": _metric(q("bisim.bisimilar").self_s, "s"),
        "bisim.budget_exhausted": _metric(outcomes.count("budget"), "count"),
        "bisim.unverified_negatives": _metric(outcomes.count("unverified"), "count"),
        "bisim.check_witness.self_s": _metric(q("bisim.check_witness").self_s, "s"),
        "bisim.witness_to_document.self_s": _metric(q("bisim.witness_to_document").self_s, "s"),
        "bisim.witness_bytes": _metric(workload.counters.get("witness_bytes", 0) / witnesses if witnesses else 0.0, "B"),
        "bisim.brute_force_bisim.self_s": _metric(gen.get("bisim.brute_force_bisim", zero).self_s, "s"),
        "generate.self_s": _metric(sum(s.self_s for name, s in gen.items() if name.startswith("generate.")), "s"),
        "trace.queries": _metric(len(outcomes), "count"),
        "trace.overhead_s": _metric(traced_s - untraced_s, "s"),
        "machine.probe_ms": _metric(statistics.median(ms for _, ms in probes), "ms"),
    }
    return metrics, query, gen


def _print_metrics(workload_name, metrics):
    for name, m in metrics.items():
        print(f"{workload_name}  {name:<42} {m['value']:>14.6g} {m['unit']}")


def _print_layer_table(title, stats):
    print(f"{title}: {'function':<40} {'calls':>10} {'self_s':>10}")
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        print(f"  {name:<48} {s.calls:>10} {s.self_s:>10.4f}")


def run_one(args) -> int:
    workload_cls = workloads.WORKLOADS[args.workload]
    probes: list[tuple[float, float]] = []
    limit = SMOKE_QUERIES if args.smoke else None

    if not args.trace:
        # The machine's speed shifts in phases that last seconds, so the
        # cold set-ups are spread over the whole run rather than taken in
        # one burst that a single phase would cover.
        workload, _ = _setup(workload_cls, args.seed, args.smoke)
        setup_times: list[tuple[float, float]] = []
        repeats = SMOKE_SETUP_REPEATS if args.smoke else SETUP_REPEATS
        cold = functools.partial(_cold_setup, workload_cls, args.seed, args.smoke)
        deadline = None if args.smoke else _clock() + args.seconds
        latencies, starts, outcomes = _measure(
            workload, deadline=deadline, limit=limit, probes=probes, setup=(setup_times, repeats, cold)
        )
        metrics, extra = _end_to_end(latencies, starts, outcomes, setup_times, probes)
        _print_metrics(workload_cls.name, {**metrics, **extra})
        print(f"{workload_cls.name}  setup runs (s): {' '.join(f'{t:.4f}' for _, t in setup_times)}")
    else:
        # Untraced, traced, untraced again, each pass after a fresh import so
        # it starts with the program's module-level caches cold; comparing
        # the traced pass with the mean of the two around it cancels warm-up
        # and slow drifts of machine speed.
        workload, _ = _setup(workload_cls, args.seed, args.smoke)
        deadline = None if args.smoke else _clock() + args.seconds * UNTRACED_SHARE
        before, before_starts, before_outcomes = _measure(workload, deadline=deadline, limit=limit, probes=probes)
        n = len(before)
        workload, tracer = _setup(workload_cls, args.seed, args.smoke, layertrace.Tracer)
        traced, traced_starts, traced_outcomes = _measure(workload, limit=n, tracer=tracer, probes=probes)
        tracer.uninstall()
        after, after_starts, after_outcomes = _measure(
            _setup(workload_cls, args.seed, args.smoke)[0], limit=n, probes=probes
        )

        def scaled_s(latencies, starts):
            return sum(_at_reference_speed(list(zip(starts, latencies)), probes))

        untraced_s = (scaled_s(before, before_starts) + scaled_s(after, after_starts)) / 2
        metrics, query, gen = _per_layer(
            tracer, workload, traced_outcomes, untraced_s, scaled_s(traced, traced_starts), probes
        )
        _print_metrics(workload_cls.name, metrics)
        _print_layer_table(f"{workload_cls.name} query phase", query)
        _print_layer_table(f"{workload_cls.name} setup and input phases", gen)
        outcomes = before_outcomes + traced_outcomes + after_outcomes

    failed, _ = _tally(outcomes)
    probe_ms = [ms for _, ms in probes]
    counts = {tag: outcomes.count(tag) for tag in sorted(set(outcomes)) if not tag.startswith("wrong")}
    print(
        f"{workload_cls.name}  queries {len(outcomes)}, outcomes {counts}, failed {len(failed)}, "
        f"machine.probe_ms median {statistics.median(probe_ms):.3f} "
        f"(min {min(probe_ms):.3f}, max {max(probe_ms):.3f}, {len(probe_ms)} probes)"
    )
    for reason in failed[:5]:
        print(f"{workload_cls.name}  FAILED {reason}", file=sys.stderr)
    result = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up and peak RSS are its own."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a fixed handful of tiny queries")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "gkmc" / "__init__.py").is_file():
        print(f"error: no gkmc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
