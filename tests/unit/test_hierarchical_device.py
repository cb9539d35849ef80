"""Unit tests for the hierarchy facade, mounted as a one-level cache.

``HierarchicalDevice(MemoryHierarchy(backing, [LevelSpec("L0", c)]))``
is a single buffer pool of ``c`` blocks presented as a device: the
mount Figure 2's B+-Tree sweep and the serving tier use.  Data blocks
are forced through to backing on every write; blocks whose kind is in
``write_back_kinds`` (by default ``"wal"``) stay dirty in the pool, so
the write-back cases below allocate ``"wal"`` blocks.
"""

from __future__ import annotations

import pytest

from repro.methods.btree import BPlusTree
from repro.obs.sinks import ListSink
from repro.obs.tracer import RecordingTracer
from repro.storage.device import CostModel, DeviceCounters, SimulatedDevice
from repro.storage.hierarchy import HierarchicalDevice, LevelSpec, MemoryHierarchy

from tests.conftest import SMALL_BLOCK, sample_records


@pytest.fixture
def backing():
    return SimulatedDevice(block_bytes=SMALL_BLOCK, name="flash")


def one_level(backing, capacity, **kwargs):
    """A buffer pool of ``capacity`` blocks mounted in front of ``backing``."""
    hierarchy = MemoryHierarchy(backing, [LevelSpec("L0", capacity)])
    return HierarchicalDevice(hierarchy, **kwargs)


class TestPassThroughSemantics:
    def test_roundtrip(self, backing):
        cached = one_level(backing, 4)
        block = cached.allocate()
        cached.write(block, "payload", used_bytes=10)
        assert cached.read(block) == "payload"
        cached.flush()
        assert backing.peek(block) == "payload"

    def test_free_invalidates(self, backing):
        cached = one_level(backing, 4)
        block = cached.allocate()
        cached.write(block, "x")
        cached.free(block)
        assert not cached.is_allocated(block)
        assert cached.hierarchy.level("L0").pool.cached_blocks == 0
        with pytest.raises(KeyError):
            backing.read(block)

    def test_space_delegates_to_backing(self, backing):
        cached = one_level(backing, 4)
        cached.allocate()
        cached.allocate(kind="leaf")
        assert cached.allocated_blocks == 2
        assert cached.allocated_bytes == backing.allocated_bytes
        assert cached.blocks_by_kind() == backing.blocks_by_kind()

    def test_peek_sees_dirty_cache(self, backing):
        cached = one_level(backing, 4)
        block = cached.allocate(kind="wal")
        cached.write(block, "dirty")
        # Not yet on the backing device, but visible through peek.
        assert cached.peek(block) == "dirty"
        assert backing.peek(block) is None


class TestWriteBackKinds:
    def test_data_writes_are_forced_to_backing(self, backing):
        cached = one_level(backing, 4)
        block = cached.allocate()
        cached.write(block, "forced", used_bytes=12)
        assert backing.peek(block) == "forced"
        assert backing.used_bytes_of(block) == 12
        assert cached.hierarchy.backing_writes == 1
        # Forced, yet still cached: the next read is a hit.
        cached.read(block)
        assert cached.hierarchy.backing_reads == 0

    def test_named_kinds_ride_write_back_until_flush(self, backing):
        cached = one_level(
            backing, 4, write_back_kinds=("btree-leaf", "btree-internal")
        )
        leaf = cached.allocate(kind="btree-leaf")
        data = cached.allocate()
        cached.write(leaf, "absorbed")
        cached.write(data, "forced")
        assert backing.peek(leaf) is None
        assert backing.peek(data) == "forced"
        assert cached.hierarchy.backing_writes == 1
        cached.flush()
        assert backing.peek(leaf) == "absorbed"
        assert cached.hierarchy.backing_writes == 2


class TestBackingMeterPricing:
    """The backing level prices a cold sequential scan sequentially.

    The facade charges every access the level's flat price (AMAT);
    seek classification lives where the seek happens, on the traffic
    reaching the backing device.
    """

    def test_cold_sequential_read_scan(self, backing):
        backing.cost_model = CostModel.disk()  # make the asymmetry visible
        blocks = [backing.allocate() for _ in range(4)]
        for block in blocks:
            backing.write(block, block)
        cold = one_level(backing, 8)
        for block in blocks:  # ids ascend by 1: a logical scan
            cold.read(block)
        # Backing: first read random (100), the rest sequential (1 each).
        assert cold.hierarchy.meter.simulated_time == 100.0 + 3 * 1.0
        # Plus one unit per access arriving at L0.
        assert cold.hierarchy.simulated_time == 4 * 1.0 + 100.0 + 3 * 1.0
        assert cold.counters.simulated_time == cold.hierarchy.simulated_time

    def test_cold_sequential_forced_writes(self, backing):
        backing.cost_model = CostModel.shingled_disk()
        cached = one_level(backing, 8)
        blocks = [cached.allocate() for _ in range(4)]
        for block in blocks:
            cached.write(block, block)
        assert cached.hierarchy.meter.simulated_time == 1000.0 + 3 * 10.0
        assert cached.hierarchy.simulated_time == 4 * 1.0 + 1000.0 + 3 * 10.0

    def test_trace_events_carry_the_sequential_flag(self, backing):
        sink = ListSink()
        cached = one_level(backing, 8)
        blocks = [cached.allocate() for _ in range(3)]
        for block in blocks:
            cached.write(block, block)
        cached.set_tracer(RecordingTracer(sink))
        for block in blocks:
            cached.read(block)
        cached.read(blocks[0])
        logical = [
            event for event in sink.events if event.source.startswith("hier")
        ]
        assert [event.sequential for event in logical] == [
            False, True, True, False,
        ]


class TestWriteValidation:
    """Out-of-range used_bytes fails on the write, not at eviction."""

    def test_oversized_used_bytes_rejected_at_write(self, backing):
        cached = one_level(backing, 4)
        block = cached.allocate()
        with pytest.raises(ValueError):
            cached.write(block, "x", used_bytes=SMALL_BLOCK + 1)

    def test_negative_used_bytes_rejected_at_write(self, backing):
        cached = one_level(backing, 4)
        block = cached.allocate()
        with pytest.raises(ValueError):
            cached.write(block, "x", used_bytes=-1)

    def test_rejected_write_charges_no_io(self, backing):
        cached = one_level(backing, 4)
        block = cached.allocate()
        before = cached.snapshot()
        with pytest.raises(ValueError):
            cached.write(block, "x", used_bytes=SMALL_BLOCK + 1)
        assert cached.stats_since(before).writes == 0
        assert cached.hierarchy.simulated_time == 0.0


class TestSpaceAccountingWithDirtyFrames:
    """Mid-run occupancy counts unflushed dirty frames."""

    def test_used_bytes_sees_unflushed_writes(self, backing):
        cached = one_level(backing, 4)
        block = cached.allocate(kind="wal")
        cached.write(block, "x", used_bytes=100)
        assert backing.used_bytes() == 0  # stale until flush
        assert cached.used_bytes() == 100  # but the facade is current
        cached.flush()
        assert backing.used_bytes() == 100
        assert cached.used_bytes() == 100

    def test_used_bytes_sees_dirty_overwrite_of_flushed_block(self, backing):
        cached = one_level(backing, 4)
        block = cached.allocate(kind="wal")
        cached.write(block, "x", used_bytes=100)
        cached.flush()
        cached.write(block, "y", used_bytes=40)  # dirty again, shrunk
        assert backing.used_bytes() == 100
        assert cached.used_bytes() == 40


class TestTrafficSeparation:
    def test_hot_reads_never_reach_backing(self, backing):
        cached = one_level(backing, 4)
        block = cached.allocate()
        cached.write(block, "hot")
        backing.reset_counters()
        for _ in range(50):
            cached.read(block)
        assert cached.counters.reads == 50  # logical traffic
        assert backing.counters.reads == 0  # physical traffic

    def test_cold_reads_reach_backing_once(self, backing):
        cached = one_level(backing, 8)
        blocks = []
        for i in range(4):
            block = cached.allocate()
            cached.write(block, i)
            blocks.append(block)
        cached.flush()
        fresh = one_level(backing, 8)
        backing.reset_counters()
        for block in blocks:
            fresh.read(block)
            fresh.read(block)
        assert backing.counters.reads == 4


class TestResetCounters:
    """Regression: a reset zeroed the counts but left the clock running."""

    def test_reset_zeroes_every_field_and_rebases_the_clock(self, backing):
        cached = one_level(backing, 2)
        blocks = [cached.allocate() for _ in range(4)]
        for block in blocks:
            cached.write(block, block, used_bytes=8)
        for block in blocks:
            cached.read(block)
        assert cached.counters.simulated_time == 52.0
        cached.reset_counters()
        assert cached.counters == DeviceCounters(0, 0, 0, 0, 0, 0, 0.0)
        hierarchy_before = cached.hierarchy.simulated_time
        cached.read(blocks[0])  # evicted: an L0 access plus a backing read
        price = cached.hierarchy.simulated_time - hierarchy_before
        assert price == 1.0 + backing.cost_model.random_read
        assert cached.counters.simulated_time == price
        assert cached.counters.reads == 1

    def test_facade_cost_model_does_not_move_the_clock(self, backing):
        cached = one_level(backing, 2)
        block = cached.allocate()
        cached.write(block, "x")
        cached.read(block)
        cached.cost_model = CostModel.disk()
        assert cached.counters.simulated_time == cached.hierarchy.simulated_time

    def test_reset_leaves_the_hierarchy_clock_alone(self, backing):
        cached = one_level(backing, 2)
        block = cached.allocate()
        cached.write(block, "x")
        before = cached.hierarchy.simulated_time
        cached.reset_counters()
        assert cached.hierarchy.simulated_time == before > 0.0
        assert cached.hierarchy.backing_writes == 1


class TestMethodOverCache:
    def test_btree_runs_unchanged_over_cache(self, backing):
        cached = one_level(backing, 64)
        tree = BPlusTree(device=cached, leaf_capacity=8, fanout=5)
        records = sample_records(200)
        tree.bulk_load(records)
        for key, value in records:
            assert tree.get(key) == value
        tree.insert(999, 1)
        tree.delete(0)
        assert tree.get(999) == 1
        assert tree.get(0) is None
        assert cached.hierarchy.audit() == []

    def test_cache_cuts_backing_reads_for_hot_keys(self, backing):
        cached = one_level(backing, 16)
        tree = BPlusTree(device=cached, leaf_capacity=8, fanout=5)
        tree.bulk_load(sample_records(500))
        cached.flush()
        backing.reset_counters()
        for _ in range(30):
            tree.get(100)  # same root-to-leaf path every time
        reads_for_30_gets = backing.counters.reads
        assert reads_for_30_gets <= tree.height  # first walk misses only

    def test_zero_capacity_is_honest_passthrough(self, backing):
        cached = one_level(backing, 0)
        tree = BPlusTree(device=cached, leaf_capacity=8, fanout=5)
        tree.bulk_load(sample_records(100))
        backing.reset_counters()
        before = cached.snapshot()
        tree.get(50)
        logical_reads = cached.stats_since(before).reads
        assert logical_reads > 0
        assert backing.counters.reads == logical_reads
        assert cached.cache_bytes() == 0
