"""Operational invariants: flush idempotence and run determinism."""

from __future__ import annotations

import pytest

from repro.core.registry import available_methods, create_method
from repro.storage.device import SimulatedDevice
from repro.workloads.runner import run_workload
from repro.workloads.spec import WorkloadSpec

from tests.conftest import SMALL_BLOCK, sample_records
from tests.unit.test_method_contract import TUNED_KWARGS, build

ALL_METHODS = sorted(available_methods())


@pytest.mark.parametrize("name", ALL_METHODS)
def test_flush_is_idempotent(name):
    """A second flush with nothing new buffered performs no writes."""
    method = build(name)
    method.bulk_load(sample_records(64))
    for i in range(20):
        method.update(2 * (i % 64), i)
    method.flush()
    before = method.device.snapshot()
    method.flush()
    io = method.device.stats_since(before)
    assert io.writes == 0, f"{name}: second flush wrote {io.writes} blocks"


@pytest.mark.parametrize("name", ALL_METHODS)
def test_flush_does_not_change_contents(name):
    method = build(name)
    records = sample_records(64)
    method.bulk_load(records)
    method.update(10, 999)
    state_before = method.range_query(-1, 10**9)
    method.flush()
    assert method.range_query(-1, 10**9) == state_before


SPEC = WorkloadSpec(
    point_queries=0.35,
    range_queries=0.05,
    inserts=0.3,
    updates=0.2,
    deletes=0.1,
    operations=200,
    initial_records=600,
)


@pytest.mark.parametrize("name", ALL_METHODS)
def test_runs_are_deterministic(name):
    """Identical spec + identical construction => identical profile."""
    profiles = []
    for _ in range(2):
        method = create_method(
            name,
            device=SimulatedDevice(block_bytes=SMALL_BLOCK),
            **TUNED_KWARGS.get(name, {}),
        )
        profiles.append(run_workload(method, SPEC).profile)
    assert profiles[0] == profiles[1]


@pytest.mark.parametrize("name", ALL_METHODS)
def test_maintenance_preserves_contents(name):
    """Background reorganization must never change logical contents."""
    method = build(name)
    method.bulk_load(sample_records(64))
    for i in range(40):
        key = 2 * (i % 64)
        if i % 7 == 3:
            try:
                method.delete(key)
            except KeyError:
                pass
        else:
            try:
                method.update(key, i)
            except KeyError:
                pass
    state_before = method.range_query(-1, 10**9)
    count_before = len(method)
    method.maintenance()
    assert method.range_query(-1, 10**9) == state_before
    assert len(method) == count_before
    # Maintenance is quiescent-idempotent: a second pass right after
    # the first performs no further writes.
    before = method.device.snapshot()
    method.maintenance()
    assert method.device.stats_since(before).writes == 0, name


@pytest.mark.parametrize("name", ALL_METHODS)
def test_device_occupancy_accounting_is_sane(name):
    """Declared block occupancy never exceeds capacity; space >= usage."""
    method = build(name)
    method.bulk_load(sample_records(128))
    for i in range(64):
        method.update(2 * (i % 128), i)
    method.flush()
    device = method.device
    assert 0 <= device.used_bytes() <= device.allocated_bytes
