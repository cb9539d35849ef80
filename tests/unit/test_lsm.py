"""Structure-specific tests for the LSM tree."""

from __future__ import annotations

import pytest

from repro.methods.lsm import LSMTree
from repro.storage.device import SimulatedDevice

from tests.conftest import SMALL_BLOCK, sample_records


def small_lsm(**kwargs):
    defaults = dict(memtable_records=16, size_ratio=3)
    defaults.update(kwargs)
    return LSMTree(SimulatedDevice(block_bytes=SMALL_BLOCK), **defaults)


class TestMemtableAndFlush:
    def test_writes_buffered_in_memtable(self):
        lsm = small_lsm()
        lsm.bulk_load(sample_records(64))
        before = lsm.device.snapshot()
        lsm.insert(10_001, 1)  # well under memtable capacity
        io = lsm.device.stats_since(before)
        assert io.write_bytes == 0

    def test_memtable_spills_at_capacity(self):
        lsm = small_lsm(memtable_records=8)
        lsm.bulk_load(sample_records(64))
        before = lsm.device.snapshot()
        for i in range(8):
            lsm.insert(10_000 + 2 * i, i)
        io = lsm.device.stats_since(before)
        assert io.write_bytes > 0  # the 8th insert triggered the flush

    def test_flush_forces_spill(self):
        lsm = small_lsm()
        lsm.insert(1, 10)
        lsm.flush()
        before = lsm.device.snapshot()
        assert lsm.get(1) == 10
        assert lsm.device.stats_since(before).reads > 0  # served from a run

    def test_reads_see_memtable_first(self):
        lsm = small_lsm()
        lsm.bulk_load(sample_records(64))
        lsm.update(10, 777)
        before = lsm.device.snapshot()
        assert lsm.get(10) == 777
        # Memtable hit: no device reads at all.
        assert lsm.device.stats_since(before).reads == 0


class TestCompaction:
    def test_levels_grow_with_data(self):
        lsm = small_lsm(memtable_records=8, size_ratio=2)
        for i in range(400):
            lsm.insert(i, i)
        assert lsm.levels >= 2

    def test_leveled_keeps_one_run_per_level(self):
        lsm = small_lsm(memtable_records=8, size_ratio=2, compaction="leveled")
        for i in range(300):
            lsm.insert(i, i)
        assert all(count <= 1 for count in lsm.runs_per_level())

    def test_tiered_allows_multiple_runs(self):
        lsm = small_lsm(memtable_records=8, size_ratio=4, compaction="tiered")
        for i in range(200):
            lsm.insert(i, i)
        assert max(lsm.runs_per_level()) >= 2

    def test_tiered_writes_less_than_leveled(self):
        # Blooms off and enough data that run-metadata overhead (one
        # fence block per tiny run) does not mask the compaction effect.
        workload = [(i, i) for i in range(3000)]
        totals = {}
        for compaction in ("leveled", "tiered"):
            lsm = small_lsm(
                memtable_records=32,
                size_ratio=4,
                compaction=compaction,
                bloom_bits_per_key=0,
            )
            for key, value in workload:
                lsm.insert(key, value)
            totals[compaction] = lsm.device.counters.write_bytes
        assert totals["tiered"] < totals["leveled"]

    def test_correct_after_many_compactions(self):
        lsm = small_lsm(memtable_records=8, size_ratio=2)
        oracle = {}
        for i in range(500):
            lsm.insert(i, i * 3)
            oracle[i] = i * 3
        for i in range(0, 500, 7):
            lsm.update(i, i)
            oracle[i] = i
        for i in range(0, 500, 13):
            lsm.delete(i)
            del oracle[i]
        for key in range(500):
            assert lsm.get(key) == oracle.get(key)

    def test_invalid_compaction_mode(self):
        with pytest.raises(ValueError):
            small_lsm(compaction="weird")

    def test_size_ratio_validation(self):
        with pytest.raises(ValueError):
            small_lsm(size_ratio=1)


class TestBloomFilters:
    def test_bloom_reduces_negative_lookup_reads(self):
        reads = {}
        for bits in (0, 10):
            lsm = small_lsm(memtable_records=8, bloom_bits_per_key=bits)
            for i in range(300):
                lsm.insert(2 * i, i)
            lsm.device.reset_counters()
            for probe in range(1, 400, 2):  # guaranteed misses
                lsm.get(probe)
            reads[bits] = lsm.device.counters.reads
        assert reads[10] < reads[0]

    def test_bloom_costs_space(self):
        spaces = {}
        for bits in (0, 10):
            lsm = small_lsm(memtable_records=8, bloom_bits_per_key=bits)
            for i in range(300):
                lsm.insert(2 * i, i)
            lsm.flush()
            spaces[bits] = lsm.space_bytes()
        assert spaces[10] > spaces[0]

    def test_no_false_negatives_through_filters(self):
        lsm = small_lsm(memtable_records=8, bloom_bits_per_key=6)
        records = sample_records(300)
        for key, value in records:
            lsm.insert(key, value)
        for key, value in records:
            assert lsm.get(key) == value


class TestTombstones:
    def test_delete_then_range(self):
        lsm = small_lsm(memtable_records=4)
        lsm.bulk_load(sample_records(40))
        lsm.delete(10)
        lsm.delete(20)
        result = dict(lsm.range_query(0, 100))
        assert 10 not in result and 20 not in result

    def test_tombstones_dropped_at_bottom(self):
        lsm = small_lsm(memtable_records=4, size_ratio=2)
        for i in range(50):
            lsm.insert(i, i)
        for i in range(50):
            lsm.delete(i)
        # Force everything down through compactions.
        for i in range(1000, 1200):
            lsm.insert(i, i)
        assert lsm.get(5) is None
        assert len(lsm) == 200

    def test_update_shadows_older_versions(self):
        lsm = small_lsm(memtable_records=4)
        lsm.bulk_load(sample_records(40))
        for _ in range(5):
            lsm.update(10, 1)
        lsm.update(10, 999)
        assert lsm.get(10) == 999
