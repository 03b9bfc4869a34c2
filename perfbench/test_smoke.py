"""Smoke test of the benchmark: result schema and trace accounting.

Runs ablate-small, the cheapest workload, for one second untraced and once
traced.  It never checks absolute timings.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SEED = 3


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ablate-small",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for trace in (0, 1):
        proc = _bench(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((ROOT / ".perfbench_out" /
                             f"ablate-small-seed{SEED}-trace{trace}.json")
                            .read_text())
        out[trace] = result, record
    return out


def test_result_schema(runs):
    spec = _spec()
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result, _ = runs[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"])
    for m in spec["end_to_end"]:
        assert runs[0][0]["metrics"][m["name"]]["value"] > 0


def test_layer_self_times_add_up_to_traced_call_time(runs):
    metrics = {k: v["value"] for k, v in runs[1][0]["metrics"].items()}
    self_sum = sum(metrics[name] for name, (kind, _, _)
                   in tracing.LAYER_METRICS.items() if kind == "self")
    assert self_sum == pytest.approx(metrics["trace.op_s"], rel=0.02)


def test_tracing_leaves_outputs_unchanged(runs):
    assert runs[0][1]["fingerprint"] == runs[1][1]["fingerprint"]


def test_per_layer_metrics_are_declared():
    declared = {m["name"] for m in _spec()["per_layer"]}
    assert set(tracing.LAYER_METRICS) <= declared


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
