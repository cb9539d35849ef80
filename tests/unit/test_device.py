"""Unit tests for the instrumented block device."""

from __future__ import annotations

import pytest

from repro.storage.device import CostModel, DeviceCounters, IOStats, SimulatedDevice


class TestAllocation:
    def test_allocate_returns_unique_ids(self, device):
        ids = [device.allocate() for _ in range(10)]
        assert len(set(ids)) == 10
        assert device.allocated_blocks == 10

    def test_allocation_counted(self, device):
        device.allocate()
        device.allocate()
        assert device.counters.allocations == 2

    def test_free_releases_space(self, device):
        block = device.allocate()
        assert device.allocated_bytes == device.block_bytes
        device.free(block)
        assert device.allocated_bytes == 0
        assert device.counters.frees == 1

    def test_free_unallocated_raises(self, device):
        with pytest.raises(KeyError):
            device.free(99)

    def test_double_free_raises(self, device):
        block = device.allocate()
        device.free(block)
        with pytest.raises(KeyError):
            device.free(block)

    def test_ids_not_reused(self, device):
        first = device.allocate()
        device.free(first)
        second = device.allocate()
        assert second != first

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError):
            SimulatedDevice(block_bytes=0)
        with pytest.raises(ValueError):
            SimulatedDevice(block_bytes=-5)


class TestIO:
    def test_write_then_read_roundtrip(self, device):
        block = device.allocate()
        device.write(block, [1, 2, 3], used_bytes=48)
        assert device.read(block) == [1, 2, 3]

    def test_read_unallocated_raises(self, device):
        with pytest.raises(KeyError):
            device.read(42)

    def test_write_unallocated_raises(self, device):
        with pytest.raises(KeyError):
            device.write(42, "x")

    def test_read_unwritten_returns_none(self, device):
        block = device.allocate()
        assert device.read(block) is None

    def test_counters_track_bytes(self, device):
        block = device.allocate()
        device.write(block, "payload")
        device.read(block)
        device.read(block)
        assert device.counters.writes == 1
        assert device.counters.reads == 2
        assert device.counters.write_bytes == device.block_bytes
        assert device.counters.read_bytes == 2 * device.block_bytes

    def test_used_bytes_validation(self, device):
        block = device.allocate()
        with pytest.raises(ValueError):
            device.write(block, "x", used_bytes=-1)
        with pytest.raises(ValueError):
            device.write(block, "x", used_bytes=device.block_bytes + 1)

    def test_peek_charges_nothing(self, device):
        block = device.allocate()
        device.write(block, "quiet")
        before = device.snapshot()
        assert device.peek(block) == "quiet"
        delta = device.stats_since(before)
        assert delta.reads == 0 and delta.read_bytes == 0

    def test_peek_unallocated_raises(self, device):
        with pytest.raises(KeyError):
            device.peek(7)


class TestCostModel:
    def test_sequential_reads_cheaper_on_disk(self):
        device = SimulatedDevice(block_bytes=64, cost_model=CostModel.disk())
        blocks = [device.allocate() for _ in range(4)]
        for block in blocks:
            device.write(block, "x")
        device.reset_counters()
        for block in blocks:  # sequential ids
            device.read(block)
        sequential_time = device.counters.simulated_time
        device.reset_counters()
        for block in reversed(blocks):  # random-ish order
            device.read(block)
        random_time = device.counters.simulated_time
        assert random_time > sequential_time

    def test_flash_write_asymmetry(self):
        device = SimulatedDevice(block_bytes=64, cost_model=CostModel.flash())
        block = device.allocate()
        device.reset_counters()
        device.write(block, "x")
        write_time = device.counters.simulated_time
        device.reset_counters()
        device.read(block)
        read_time = device.counters.simulated_time
        assert write_time > read_time

    def test_presets_exist(self):
        for preset in (CostModel.dram(), CostModel.flash(), CostModel.disk(),
                       CostModel.shingled_disk()):
            assert preset.sequential_read > 0

    def test_first_access_counts_as_random(self):
        device = SimulatedDevice(block_bytes=64, cost_model=CostModel.disk())
        block = device.allocate()
        device.write(block, "x")
        device.reset_counters()
        device.read(block)
        assert device.counters.simulated_time == CostModel.disk().random_read


class TestSnapshots:
    def test_stats_since_isolates_window(self, device):
        block = device.allocate()
        device.write(block, "x")
        snapshot = device.snapshot()
        device.read(block)
        device.read(block)
        delta = device.stats_since(snapshot)
        assert delta.reads == 2
        assert delta.writes == 0

    def test_snapshot_is_immutable_copy(self, device):
        snapshot = device.snapshot()
        block = device.allocate()
        device.write(block, "x")
        assert snapshot.writes == 0

    def test_iostats_addition(self):
        a = IOStats(reads=1, writes=2, read_bytes=10, write_bytes=20)
        b = IOStats(reads=3, writes=4, read_bytes=30, write_bytes=40)
        total = a + b
        assert total.reads == 4
        assert total.writes == 6
        assert total.read_bytes == 40
        assert total.write_bytes == 60

    def test_reset_counters(self, device):
        block = device.allocate()
        device.write(block, "x")
        device.reset_counters()
        assert device.counters.reads == 0
        assert device.counters.writes == 0
        # Allocation state untouched.
        assert device.allocated_blocks == 1


class TestSpaceStats:
    def test_used_bytes_tracks_declared_occupancy(self, device):
        assert device.used_bytes() == 0
        block = device.allocate()
        device.write(block, "x", used_bytes=device.block_bytes // 2)
        assert device.used_bytes() == device.block_bytes // 2

    def test_blocks_by_kind(self, device):
        device.allocate(kind="leaf")
        device.allocate(kind="leaf")
        device.allocate(kind="meta")
        assert device.blocks_by_kind() == {"leaf": 2, "meta": 1}

    def test_iter_block_ids(self, device):
        ids = {device.allocate() for _ in range(3)}
        assert set(device.iter_block_ids()) == ids
