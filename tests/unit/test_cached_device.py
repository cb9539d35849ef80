"""Unit tests for the cached device wrapper."""

from __future__ import annotations

import pytest

from repro.methods.btree import BPlusTree
from repro.obs.sinks import ListSink
from repro.obs.tracer import RecordingTracer
from repro.storage.cached import CachedDevice
from repro.storage.device import CostModel, SimulatedDevice

from tests.conftest import SMALL_BLOCK, sample_records


@pytest.fixture
def backing():
    return SimulatedDevice(block_bytes=SMALL_BLOCK, name="flash")


class TestPassThroughSemantics:
    def test_roundtrip(self, backing):
        cached = CachedDevice(backing, capacity_blocks=4)
        block = cached.allocate()
        cached.write(block, "payload", used_bytes=10)
        assert cached.read(block) == "payload"
        cached.flush()
        assert backing.peek(block) == "payload"

    def test_free_invalidates(self, backing):
        cached = CachedDevice(backing, capacity_blocks=4)
        block = cached.allocate()
        cached.write(block, "x")
        cached.free(block)
        assert not cached.is_allocated(block)
        with pytest.raises(KeyError):
            backing.read(block)

    def test_space_delegates_to_backing(self, backing):
        cached = CachedDevice(backing, capacity_blocks=4)
        cached.allocate()
        cached.allocate(kind="leaf")
        assert cached.allocated_blocks == 2
        assert cached.allocated_bytes == backing.allocated_bytes
        assert cached.blocks_by_kind() == backing.blocks_by_kind()

    def test_peek_sees_dirty_cache(self, backing):
        cached = CachedDevice(backing, capacity_blocks=4)
        block = cached.allocate()
        cached.write(block, "dirty")
        # Not yet on the backing device, but visible through peek.
        assert cached.peek(block) == "dirty"
        assert backing.peek(block) is None


class TestSequentialClassification:
    """Regression: logical scans were always charged as random."""

    def test_sequential_reads_charged_at_sequential_cost(self, backing):
        cached = CachedDevice(backing, capacity_blocks=8)
        cached.cost_model = CostModel.disk()  # make the asymmetry visible
        blocks = [cached.allocate() for _ in range(4)]
        for block in blocks:
            cached.write(block, block)
        before = cached.snapshot()
        for block in blocks:  # ids ascend by 1: a logical scan
            cached.read(block)
        scan_time = cached.stats_since(before).simulated_time
        # First read random (100), the rest sequential (1 each).
        assert scan_time == pytest.approx(100.0 + 3 * 1.0)

    def test_sequential_writes_charged_at_sequential_cost(self, backing):
        cached = CachedDevice(backing, capacity_blocks=8)
        cached.cost_model = CostModel.shingled_disk()
        blocks = [cached.allocate() for _ in range(4)]
        before = cached.snapshot()
        for block in blocks:
            cached.write(block, block)
        write_time = cached.stats_since(before).simulated_time
        assert write_time == pytest.approx(1000.0 + 3 * 10.0)

    def test_trace_events_carry_the_sequential_flag(self, backing):
        sink = ListSink()
        cached = CachedDevice(backing, capacity_blocks=8)
        blocks = [cached.allocate() for _ in range(3)]
        for block in blocks:
            cached.write(block, block)
        cached.set_tracer(RecordingTracer(sink))
        for block in blocks:
            cached.read(block)
        cached.read(blocks[0])
        logical = [
            event for event in sink.events if event.source.startswith("cached")
        ]
        assert [event.sequential for event in logical] == [
            False, True, True, False,
        ]


class TestWriteValidation:
    """Regression: out-of-range used_bytes only exploded at eviction."""

    def test_oversized_used_bytes_rejected_at_write(self, backing):
        cached = CachedDevice(backing, capacity_blocks=4)
        block = cached.allocate()
        with pytest.raises(ValueError):
            cached.write(block, "x", used_bytes=SMALL_BLOCK + 1)

    def test_negative_used_bytes_rejected_at_write(self, backing):
        cached = CachedDevice(backing, capacity_blocks=4)
        block = cached.allocate()
        with pytest.raises(ValueError):
            cached.write(block, "x", used_bytes=-1)

    def test_rejected_write_charges_no_io(self, backing):
        cached = CachedDevice(backing, capacity_blocks=4)
        block = cached.allocate()
        before = cached.snapshot()
        with pytest.raises(ValueError):
            cached.write(block, "x", used_bytes=SMALL_BLOCK + 1)
        assert cached.stats_since(before).writes == 0


class TestSpaceAccountingWithDirtyFrames:
    """Regression: mid-run occupancy ignored unflushed dirty frames."""

    def test_used_bytes_sees_unflushed_writes(self, backing):
        cached = CachedDevice(backing, capacity_blocks=4)
        block = cached.allocate()
        cached.write(block, "x", used_bytes=100)
        assert backing.used_bytes() == 0  # stale until flush
        assert cached.used_bytes() == 100  # but the wrapper is current
        cached.flush()
        assert backing.used_bytes() == 100
        assert cached.used_bytes() == 100

    def test_used_bytes_sees_dirty_overwrite_of_flushed_block(self, backing):
        cached = CachedDevice(backing, capacity_blocks=4)
        block = cached.allocate()
        cached.write(block, "x", used_bytes=100)
        cached.flush()
        cached.write(block, "y", used_bytes=40)  # dirty again, shrunk
        assert backing.used_bytes() == 100
        assert cached.used_bytes() == 40


class TestTrafficSeparation:
    def test_hot_reads_never_reach_backing(self, backing):
        cached = CachedDevice(backing, capacity_blocks=4)
        block = cached.allocate()
        cached.write(block, "hot")
        backing.reset_counters()
        for _ in range(50):
            cached.read(block)
        assert cached.counters.reads == 50  # logical traffic
        assert backing.counters.reads == 0  # physical traffic

    def test_cold_reads_reach_backing_once(self, backing):
        cached = CachedDevice(backing, capacity_blocks=8)
        blocks = []
        for i in range(4):
            block = cached.allocate()
            cached.write(block, i)
            blocks.append(block)
        cached.flush()
        fresh = CachedDevice(backing, capacity_blocks=8)
        backing.reset_counters()
        for block in blocks:
            fresh.read(block)
            fresh.read(block)
        assert backing.counters.reads == 4


class TestMethodOverCache:
    def test_btree_runs_unchanged_over_cache(self, backing):
        cached = CachedDevice(backing, capacity_blocks=64)
        tree = BPlusTree(device=cached, leaf_capacity=8, fanout=5)
        records = sample_records(200)
        tree.bulk_load(records)
        for key, value in records:
            assert tree.get(key) == value
        tree.insert(999, 1)
        tree.delete(0)
        assert tree.get(999) == 1
        assert tree.get(0) is None

    def test_cache_cuts_backing_reads_for_hot_keys(self, backing):
        cached = CachedDevice(backing, capacity_blocks=16)
        tree = BPlusTree(device=cached, leaf_capacity=8, fanout=5)
        tree.bulk_load(sample_records(500))
        cached.flush()
        backing.reset_counters()
        for _ in range(30):
            tree.get(100)  # same root-to-leaf path every time
        reads_for_30_gets = backing.counters.reads
        assert reads_for_30_gets <= tree.height  # first walk misses only

    def test_zero_capacity_is_honest_passthrough(self, backing):
        cached = CachedDevice(backing, capacity_blocks=0)
        tree = BPlusTree(device=cached, leaf_capacity=8, fanout=5)
        tree.bulk_load(sample_records(100))
        backing.reset_counters()
        tree.get(50)
        assert backing.counters.reads == cached.stats_since(
            cached.snapshot()
        ).reads or backing.counters.reads > 0
