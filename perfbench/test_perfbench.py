"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest -q perfbench

Each workload runs in its tiny smoke mode, untraced and traced; the
result must name exactly the metrics BENCHMARK.json lists, every answer
must check out, and layers a workload never calls must show no calls.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-1]), lines[:-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_names_every_metric(results, workload, trace):
    result, _ = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_shows_failed_share_zero(results, workload):
    _, lines = results[workload, 0]
    shares = [line.split()[2] for line in lines if line.split()[1:2] == ["failed_share"]]
    assert shares == ["0"]


def test_layers_not_on_a_path_show_no_calls(results):
    calls = {w: results[w, 1][0]["metrics"] for w in WORKLOADS}
    for workload in ("eval_oneshot", "separate_stream"):
        assert calls[workload]["bisim.bisimilar.calls"]["value"] == 0
        assert calls[workload]["model.load.calls"]["value"] > 0
    assert calls["bisim_witness"]["semantics.sentence_worlds.calls"]["value"] == 0
    assert calls["bisim_witness"]["bisim.bisimilar.calls"]["value"] > 0
    assert calls["separate_stream"]["distinguish.sentences_yielded"]["value"] > 0


def test_inputs_are_a_function_of_the_seed():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import layertrace
        import workloads

        gk = layertrace.layer_namespace()
        def texts(cls, seed):
            w = cls(gk, seed, smoke=True)
            return [[v for v in vars(w.input(k)).values() if isinstance(v, str)] for k in range(6)]

        for cls in workloads.WORKLOADS.values():
            assert texts(cls, 5) == texts(cls, 5)
            assert texts(cls, 5) != texts(cls, 6)
    finally:
        del sys.path[:2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("eval_oneshot", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_times_scale_by_the_nearby_probes():
    sys.path.insert(0, str(HERE))
    try:
        import run

        ref = run.PROBE_REFERENCE_MS
        # Probes at 0-1 s read the reference; those at 10-11 s read twice it.
        probes = [(0.0, ref), (1.0, ref), (10.0, 2 * ref), (11.0, 2 * ref)]
        assert run._at_reference_speed([(0.5, 3.0), (10.5, 3.0)], probes) == [3.0, 1.5]
    finally:
        sys.path.remove(str(HERE))
