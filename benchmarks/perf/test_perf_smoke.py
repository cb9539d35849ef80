"""Smoke test of the perf benchmark (run explicitly; not part of tier-1):

    PYTHONPATH=src:. python -m pytest benchmarks/perf/test_perf_smoke.py -q

Every workload of ``BENCHMARK.json`` runs once at 1/20 size, untraced
and traced, in its own process, and must emit exactly the metrics the
contract declares, with their units, and no failed operation.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((PERF_DIR.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload: str, trace: int) -> dict:
    finished = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert finished.returncode == 0, finished.stderr
    return json.loads(finished.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_emits_exactly_the_declared_metrics(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {
        entry["name"]: entry["unit"]
        for entry in CONTRACT["per_layer" if trace else "end_to_end"]
    }
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == declared
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, f"{name} is zero on {workload}"


def test_contract_names_are_unique_and_well_formed():
    names = WORKLOADS + [
        entry["name"]
        for section in ("end_to_end", "per_layer") for entry in CONTRACT[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(
        entry["name"] == "setup_s" and entry["unit"] == "s"
        and entry["better"] == "lower" for entry in CONTRACT["end_to_end"]
    )


def test_compare_judges_a_set_against_itself_as_ok(tmp_path):
    recorded = tmp_path / "set.json"
    subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--smoke",
         "--seconds", "0", "--workload", "lib-btree-balanced",
         "--out", str(recorded)],
        check=True, cwd=PERF_DIR.parents[1], capture_output=True, timeout=120,
    )
    finished = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "compare",
         str(recorded), str(recorded)],
        cwd=PERF_DIR.parents[1], capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode == 0, finished.stdout
    assert "worse" not in finished.stdout.split("verdict", 1)[1]
