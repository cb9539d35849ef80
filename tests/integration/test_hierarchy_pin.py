"""Pinned traffic of the chained hierarchy over a fixed mixed stream.

Two mounts run one seeded stream of reads, sequential read runs,
writes, modeled fsyncs (``sync_through``), invalidations and flushes
through a :class:`~repro.storage.hierarchy.HierarchicalDevice`:

* ``mount-16-128`` — the benchmark's read mount: an inclusive,
  write-back 16-block level over a 128-block level, data pages forced
  through, ``"wal"`` pages written back;
* ``chain-3`` — an 8-block inclusive write-back level over a 24-block
  exclusive (victim-fill) level over a 64-block write-through level,
  every write written back.

Every level's :class:`~repro.storage.pager.PoolStats` and
:class:`~repro.storage.hierarchy.LevelCounters`, its resident frames,
the backing meter's traffic and clock, the facade's and the backing
device's counters, and a digest of the trace event stream (sources,
ops, block ids and span paths) must equal ``hierarchy_pin.json``.
Regenerate it only for a change meant to move this traffic::

    PYTHONPATH=src python -m tests.integration.test_hierarchy_pin \\
        > tests/integration/hierarchy_pin.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import sys
from typing import Dict, List, Tuple

import pytest

from repro.obs.spans import span_collection
from repro.obs.tracer import RecordingTracer
from repro.storage.device import CostModel, SimulatedDevice
from repro.storage.hierarchy import (
    EXCLUSIVE,
    WRITE_THROUGH,
    HierarchicalDevice,
    LevelSpec,
    MemoryHierarchy,
)

PIN_PATH = os.path.join(os.path.dirname(__file__), "hierarchy_pin.json")

BLOCK_BYTES = 64
BLOCKS = 256
HOT_BLOCKS = 24
STEPS = 4_000
SEED = 11

MOUNTS: Dict[str, Tuple[Tuple[LevelSpec, ...], Tuple[str, ...]]] = {
    "mount-16-128": (
        (
            LevelSpec("L0", 16, access_cost=0.0001),
            LevelSpec("L1", 128, access_cost=0.01),
        ),
        ("wal",),
    ),
    "chain-3": (
        (
            LevelSpec("L0", 8, access_cost=0.001),
            LevelSpec("L1", 24, access_cost=0.01, inclusion=EXCLUSIVE),
            LevelSpec("L2", 64, access_cost=0.1, write_policy=WRITE_THROUGH),
        ),
        ("data", "wal"),
    ),
}


class _ListSink:
    def __init__(self) -> None:
        self.events: List[dict] = []

    def emit(self, event) -> None:
        self.events.append(event.to_dict())


def _drive(mount: str) -> Dict[str, object]:
    specs, write_back_kinds = MOUNTS[mount]
    backing = SimulatedDevice(
        block_bytes=BLOCK_BYTES, cost_model=CostModel.flash(), name="backing"
    )
    blocks = []
    for index in range(BLOCKS):
        block = backing.allocate("wal" if index % 8 == 0 else "data")
        backing.write(block, f"init-{index}", used_bytes=index % BLOCK_BYTES)
        blocks.append(block)
    hierarchy = MemoryHierarchy(backing, specs)
    facade = HierarchicalDevice(hierarchy, write_back_kinds=write_back_kinds)
    sink = _ListSink()
    facade.set_tracer(RecordingTracer(sink))
    rng = random.Random(SEED)

    def pick() -> int:
        if rng.random() < 0.7:
            return blocks[rng.randrange(HOT_BLOCKS)]
        return blocks[rng.randrange(BLOCKS)]

    with span_collection():
        for step in range(STEPS):
            draw = rng.random()
            if draw < 0.50:
                facade.read(pick())
            elif draw < 0.58:
                start = rng.randrange(BLOCKS - 4)
                for block in blocks[start : start + 4]:
                    facade.read(block)
            elif draw < 0.86:
                facade.write(
                    pick(), f"step-{step}", used_bytes=rng.randrange(BLOCK_BYTES + 1)
                )
            elif draw < 0.94:
                facade.sync_through([pick() for _ in range(rng.randint(1, 3))])
            elif draw < 0.99:
                hierarchy.invalidate(pick())
            else:
                facade.flush()
    assert hierarchy.audit() == []

    digest = hashlib.sha256()
    for event in sink.events:
        digest.update(json.dumps(event, sort_keys=True).encode())
        digest.update(b"\n")
    levels = []
    for level in hierarchy.levels:
        levels.append(
            {
                "name": level.name,
                "pool": dataclasses.asdict(level.pool.stats),
                "counters": dataclasses.asdict(level.counters),
                "resident": sorted(
                    [frame.block_id, frame.dirty, frame.used_bytes]
                    for frame in level.pool.iter_frames()
                ),
            }
        )
    return {
        "levels": levels,
        "backing_reads": hierarchy.backing_reads,
        "backing_writes": hierarchy.backing_writes,
        "meter_time": repr(hierarchy.meter.simulated_time),
        "hierarchy_time": repr(hierarchy.simulated_time),
        "facade_counters": repr(facade.counters.as_tuple()),
        "backing_counters": repr(backing.counters.as_tuple()),
        "trace_events": len(sink.events),
        "trace_sha256": digest.hexdigest(),
    }


def capture() -> Dict[str, Dict[str, object]]:
    return {mount: _drive(mount) for mount in MOUNTS}


def _load_pin() -> Dict[str, Dict[str, object]]:
    # Tolerates a missing or truncated file so that regenerating the pin
    # with a shell redirect can import this module.
    try:
        with open(PIN_PATH) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


PIN = _load_pin()


def test_pin_covers_every_mount():
    assert sorted(PIN) == sorted(MOUNTS)


@pytest.mark.parametrize("mount", sorted(MOUNTS))
def test_hierarchy_traffic_matches_pin(mount):
    got = _drive(mount)
    pinned = PIN[mount]
    for field in sorted(pinned):
        assert got[field] == pinned[field], (
            f"{mount} {field}: pinned {pinned[field]!r}, got {got[field]!r}"
        )


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
