"""Smoke test of the benchmark: one tiny pass per workload, untraced and traced.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
no command fails its output gate, that the pure counts repeat across two
traced runs, and that the trace attributes time to the expected layers.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402


def _run(run_py: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int, attempt: int = 0) -> dict:
    proc = _run(BENCH / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_gates_pass(workload):
    out = result(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_and_gates_pass(workload):
    out = result(workload, 1)
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _units("per_layer")


def test_pure_counts_repeat_across_traced_runs():
    first, second = result("verify-ladder", 1), result("verify-ladder", 1, attempt=1)
    for key in spans.PURE_COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_attribution_matches_profile():
    verify = result("verify-ladder", 1)["metrics"]
    exact_self = verify["polynomial.self_s"]["value"] + verify["gaussian.self_s"]["value"]
    assert exact_self > 0.5 * verify["trace.wall_s"]["value"]
    spectrum = result("spectrum-grid", 1)["metrics"]
    assert spectrum["spectral.eigen_s"]["value"] > 0.5 * spectrum["trace.wall_s"]["value"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for source in BENCH.glob("*.py"):
        shutil.copy(source, tmp_path / "bench")
    proc = _run(tmp_path / "bench" / "run.py", WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
