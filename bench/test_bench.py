"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest bench/test_bench.py

Not part of the tier-1 suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric_with_unit(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1] if len(line.split()) >= 3}
    for name, unit in {**expected, "failed_ratio": "1"}.items():
        assert printed.get(name) == unit, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_verdict_raises_failed_ratio(workload):
    sys.path.insert(0, str(BENCH))
    import run

    run._import_program()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            lines, attempted, failed, _ = run.timed(workload, 1, 1, "tiny", corrupt=True)
    finally:
        shutil.rmtree(run._workdir(), ignore_errors=True)
        with contextlib.suppress(OSError):
            run._workdir().parent.rmdir()
    assert failed > 0
    assert float(next(l for l in lines if l.startswith("failed_ratio")).split()[1]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_result_counts_repeat(workload):
    names = {m["name"] for m in SPEC["per_layer"]}
    results = []
    for _ in range(2):
        proc = _run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and set(result["metrics"]) == names
        results.append(result["metrics"])
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import RESULT_METRICS

    counts = [name for name in names if name.endswith(".calls")] + list(RESULT_METRICS)
    assert {n: results[0][n] for n in counts} == {n: results[1][n] for n in counts}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("certify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
