"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs a two-op pass of every workload, timed and traced, checks that every
named metric is emitted, and proves the gate fails an op whose frozen
reference has been perturbed.
"""

from __future__ import annotations

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

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import load_library, run_ops  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    done = bench("--workload", workload, "--seed", "2", "--seconds", "1",
                 "--trace", str(trace), "--ops", "2")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(spec.units(bool(trace)))
    for name, metric in result["metrics"].items():
        assert metric["unit"] == spec.units(bool(trace))[name]
        assert math.isfinite(metric["value"]), name
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        shares = sum(v for k, v in values.items() if k.endswith(".self_frac"))
        assert shares + values["trace.unaccounted_frac"] == pytest.approx(1.0)
        assert values["sdp.solve.calls"] > 0 and values["sdp.audit.calls"] > 0


def test_perturbed_reference_fails_the_op(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    lib = load_library()
    capture = workloads.Capture()
    patches = tracing.install_capture(lib, capture)
    try:
        ops = workloads.build_pass("recover", 0, tmp_path, lib)
        (ghz,) = [op for op in ops if op.kind.name == "ghz"]
        reference = workloads.load_reference("recover")
        record = []
        run_ops([ghz], lib, capture, reference, record)
        assert record[-1][-1] == []
        perturbed = {**reference, ghz.key: dict(reference[ghz.key])}
        perturbed[ghz.key]["optimal_fidelity"] += 10 * workloads.TOL
        run_ops([ghz], lib, capture, perturbed, record)
        assert any("optimal_fidelity" in r for r in record[-1][-1])
    finally:
        patches.undo()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "recover", "--seed", "1", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
