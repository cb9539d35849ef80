"""The frozen wall-clock benchmark must keep running against ``src/``.

``BENCHMARK.json`` and ``benchmarks/perf/`` are a contract a change may
not edit, and the driver that gates changes runs them from outside the
test suite — so a change under ``src/`` that breaks a name, a signature
or an output the benchmark relies on would otherwise only surface after
the fact.  This guard shells the benchmark's own command for every
declared workload at smoke size (sizes / 20, no timed repetitions): the
end-to-end run for all of them and the traced per-layer run for the
library workloads, and requires the contract's result line to report
correct outputs with no failed operation.

The untraced smoke runs also pin the simulated outputs: each workload's
``sim_ro`` / ``sim_uo`` / ``sim_mo`` / ``sim_time`` must equal, as a
float, the value recorded in ``perf_sim_smoke.json``.  Those numbers are
the reproduction's product, so a change that moves one is wrong unless
it updates the pin on purpose.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    _CONTRACT = json.load(_handle)
WORKLOADS = [workload["name"] for workload in _CONTRACT["workloads"]]
with open(os.path.join(os.path.dirname(__file__), "perf_sim_smoke.json")) as _handle:
    SIM_PIN = json.load(_handle)
RUNS = [(name, 0) for name in WORKLOADS] + [
    (name, 1) for name in WORKLOADS if name.startswith("lib-")
]


@pytest.mark.parametrize("workload,trace", RUNS)
def test_benchmark_command_runs_correct(workload, trace):
    command = [sys.executable] + _CONTRACT["command"][1:] + [
        "--workload", workload, "--seed", "7", "--seconds", "0",
        "--smoke", "--trace", str(trace),
    ]
    finished = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, finished.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    declared = _CONTRACT["per_layer" if trace else "end_to_end"]
    assert {metric["name"] for metric in declared} <= set(result["metrics"])
    if not trace:
        for metric, pinned in sorted(SIM_PIN[workload].items()):
            got = result["metrics"][metric]["value"]
            assert got == pinned, (
                f"{workload} {metric}: pinned {pinned!r}, got {got!r}"
            )
