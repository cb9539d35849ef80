"""Structure-specific tests for the LSM tree."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.rum import measure_workload
from repro.methods.lsm import LSMTree
from repro.storage.device import SimulatedDevice
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import MIXES

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


class TestPinnedFilterBitmaps:
    def test_write_heavy_run_bitmaps_are_pinned(self):
        # The write-heavy mix at a twentieth of the benchmark's size
        # (5 k records, 1.25 k ops, seed 7, 4 KiB blocks).  The digest
        # covers every live run's filter bitmap; any change to how keys
        # hash into a filter changes it.
        spec = dataclasses.replace(
            MIXES["write-heavy"], initial_records=5000, operations=1250, seed=7
        )
        lsm = LSMTree(SimulatedDevice(block_bytes=4096))
        generator = WorkloadGenerator(spec)
        lsm.bulk_load(generator.initial_data())
        measure_workload(lsm, generator.operations())
        digest = hashlib.sha256()
        for level_runs in lsm._levels:
            for run in level_runs:
                digest.update(bytes(run.bloom._array))
        assert lsm.runs_per_level() == [1, 0, 1]
        assert digest.hexdigest() == (
            "265747a8e94294dcadd8004970db59731c775d785fd21370da7e3d3a625f74bc"
        )


class TestRunPointReads:
    """``get`` served from runs alone: the in-block search."""

    @pytest.mark.parametrize("bits", [0, 10])
    def test_run_only_gets(self, bits):
        lsm = small_lsm(bloom_bits_per_key=bits)
        # Even keys 0..126: 16 records per block, so blocks start at
        # 0, 32, 64, 96 and end at 30, 62, 94, 126.
        lsm.bulk_load([(key, key * 10) for key in range(0, 128, 2)])
        lsm.update(40, 1)
        lsm.delete(42)
        lsm.update(44, 2)
        lsm.flush()  # level 0 now holds 40, the 42 tombstone, 44
        expected = {
            40: 1,  # hit in the newer run
            42: None,  # tombstoned in the newer run, live in the older
            44: 2,
            31: None,  # absent, between the first two blocks
            0: 0,  # first key of the first block
            30: 300,  # last key of the first block
            32: 320,  # first key of the second block
            62: 620,  # last key of the second block
            126: 1260,  # last key of the run
            46: 460,  # hit in the older run only
            -1: None,  # below every run
            127: None,  # above every run
        }
        for key, value in expected.items():
            assert lsm.get(key) == value, key
        before = lsm.device.snapshot()
        lsm.get(62)
        assert lsm.device.stats_since(before).reads > 0  # not the memtable


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
