"""The benchmark's own test: every workload at its smallest size (a
one-second window), untraced and traced, must finish correct and emit
exactly the metrics BENCHMARK.json declares, with their units."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import PER_LAYER

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    out = _run(BENCH.parent, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_declaration_matches_tracing():
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == PER_LAYER


def test_fails_without_the_package(tmp_path):
    """Run from a tree holding only BENCHMARK.json and the benchmark, the
    run must fail without printing a result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
