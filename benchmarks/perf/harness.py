"""Shared pieces of the perf benchmark: contract, statistics, reports.

The repository root's ``BENCHMARK.json`` is the single source of metric
names, units and bounds; every module here reads it through
:func:`load_contract` instead of repeating a name or a unit.
"""

from __future__ import annotations

import json
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
CONTRACT_PATH = ROOT / "BENCHMARK.json"
#: Trace files land here; the directory is git-ignored and created on demand.
OUT_DIR = PERF_DIR / "out"

#: Every workload runs on 4 KiB blocks under the flash cost model.
BLOCK_BYTES = 4096

#: ``--smoke`` divides every size by this.
SMOKE_DIVISOR = 20

#: Prefix of the machine-readable line ``run.py`` prints above its result.
DETAIL_PREFIX = "#detail "

now = time.perf_counter


def load_contract() -> dict:
    with open(CONTRACT_PATH, "r") as handle:
        return json.load(handle)


def declared(contract: dict, section: str) -> Dict[str, dict]:
    """``name -> entry`` for ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry for entry in contract[section]}


def scaled(size: int, smoke: bool) -> int:
    return max(1, size // SMOKE_DIVISOR) if smoke else size


def repeat_for(seconds: float, repetition: Callable[[], None]) -> int:
    """Call ``repetition`` until ``seconds`` have passed; at least once."""
    deadline = now() + seconds
    count = 0
    while count == 0 or now() < deadline:
        repetition()
        count += 1
    return count


def peak_rss_mib(include_children: bool = False) -> float:
    """``ru_maxrss`` of this process (Linux reports KiB), in MiB.

    With ``include_children`` the largest waited-for child counts too —
    the sweep workload's memory lives in its worker processes.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def host_state() -> dict:
    """What the noise guard and the recorded output need about the host."""
    return {"nproc": os.cpu_count() or 1, "load_1min": os.getloadavg()[0]}


@dataclass
class Report:
    """What one workload run produced, before it is shaped for output.

    ``samples`` holds every observation of a metric; the emitted value
    is their median, so a metric observed once (a count, a simulated
    statistic) is emitted as is and a wall-clock metric observed once
    per repetition is emitted as the median over repetitions.
    """

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Human-readable lines (the ledger table) printed above the result.
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def fail_all(self, problem: str) -> None:
        """A wrong output invalidates every operation of the run."""
        self.problems.append(problem)
        self.failed = self.attempted


def mount(backing, level_capacities: Sequence[int], facade=None):
    """``backing`` behind a chained write-back, inclusive hierarchy.

    Level prices follow ``repro serve --hierarchy``: the bottom level
    costs 0.01 per access and each level above it 100x less.  No
    capacities means the raw device.
    """
    if not level_capacities:
        return backing
    from repro.storage.hierarchy import (
        HierarchicalDevice,
        LevelSpec,
        MemoryHierarchy,
    )

    depth = len(level_capacities)
    levels = [
        LevelSpec(
            name=f"L{index}",
            capacity_blocks=capacity,
            access_cost=0.01 * (100 ** index) / (100 ** (depth - 1)),
        )
        for index, capacity in enumerate(level_capacities)
    ]
    return (facade or HierarchicalDevice)(MemoryHierarchy(backing, levels))
