"""E6: Figure 2 — RUM overheads in memory hierarchies.

The paper's Figure 2: "the RO_n read and the UO_n update overheads at
memory level n can be reduced by storing more data, updates, or
meta-data, at the previous level n-1, which results, at least, in a
higher MO_{n-1}".

We drive block workloads through chained hierarchies and sweep cache
capacity.  The measured series must show RO_n (traffic reaching the
backing level) falling monotonically as MO_{n-1} (bytes replicated at
the cache level) rises — the exact interaction of the figure.  Because
the hierarchy is genuinely chained (each level's pool targets the level
below it), the sweep also asserts **exact conservation** at every
capacity point: reads/writes passed down at level n equal the
reads/writes reaching level n+1, with the two sides counted by
independent code paths.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.tables import format_table
from repro.storage.device import CostModel, SimulatedDevice
from repro.storage.hierarchy import HierarchicalDevice, LevelSpec, MemoryHierarchy

from benchmarks.harness import BENCH_BLOCK, attach_tracer, emit_report, mark

N_BLOCKS = 256
ACCESSES = 3000
CAPACITIES = [0, 16, 32, 64, 128, 256]
CACHE_SWEEP = [0, 4, 8, 16, 32, 64]
DRAM_BLOCKS = 96


def _measure() -> list:
    """Sweep cache capacity; return (capacity, RO_n, UO_n, MO_{n-1}) rows.

    The workload is a skewed block-access pattern (hot head), the shape
    under which caching actually pays — all levels see the same stream.
    """
    rows = []
    rng = random.Random(71)
    pattern = []
    for _ in range(ACCESSES):
        block = min(int(rng.expovariate(1.0 / 24)), N_BLOCKS - 1)
        write = rng.random() < 0.25
        pattern.append((block, write))
    for capacity in CAPACITIES:
        backing = attach_tracer(SimulatedDevice(block_bytes=BENCH_BLOCK, name="flash"))
        blocks = []
        for i in range(N_BLOCKS):
            block = backing.allocate()
            backing.write(block, f"payload-{i}")
            blocks.append(block)
        backing.reset_counters()
        hierarchy = MemoryHierarchy(backing, [LevelSpec("dram", capacity)])
        for index, write in pattern:
            if write:
                hierarchy.write(blocks[index], f"updated-{index}")
            else:
                hierarchy.read(blocks[index])
        hierarchy.flush()
        reads_reaching_backing = backing.counters.reads
        writes_reaching_backing = backing.counters.writes
        cache_bytes = hierarchy.levels[0].space_bytes
        rows.append(
            (
                capacity,
                reads_reaching_backing,
                writes_reaching_backing,
                cache_bytes,
                hierarchy.levels[0].hit_rate(),
            )
        )
    return rows


@pytest.fixture(scope="module")
def sweep():
    return _measure()


@pytest.mark.benchmark(group="fig2")
def test_fig2_report(benchmark, sweep):
    mark(benchmark)
    report = format_table(
        ["cache capacity (blocks)", "RO_n: reads at level n",
         "UO_n: writes at level n", "MO_(n-1): bytes at level n-1",
         "hit rate"],
        [list(row) for row in sweep],
        title="Figure 2 (measured): growing level n-1 lowers level-n traffic",
    )
    emit_report("fig2", report)


def _measure_three_levels() -> list:
    """Sweep the top (cache) level of a cache/DRAM/disk chain.

    Returns one dict per capacity point carrying every per-level
    counter the conservation assertions need, plus the audit outcome.
    """
    rows = []
    rng = random.Random(73)
    pattern = []
    for _ in range(ACCESSES):
        block = min(int(rng.expovariate(1.0 / 24)), N_BLOCKS - 1)
        pattern.append((block, rng.random() < 0.25))
    for capacity in CACHE_SWEEP:
        backing = attach_tracer(
            SimulatedDevice(
                block_bytes=BENCH_BLOCK,
                cost_model=CostModel.disk(),
                name="disk",
            )
        )
        blocks = []
        for i in range(N_BLOCKS):
            block = backing.allocate()
            backing.write(block, f"payload-{i}", used_bytes=BENCH_BLOCK // 2)
            blocks.append(block)
        backing.reset_counters()
        hierarchy = MemoryHierarchy(
            backing,
            [
                LevelSpec("cache", capacity, cost_model=CostModel.dram()),
                LevelSpec("dram", DRAM_BLOCKS, access_cost=0.1),
            ],
        )
        for index, write in pattern:
            if write:
                hierarchy.write(
                    blocks[index],
                    f"updated-{index}",
                    used_bytes=BENCH_BLOCK // 2,
                )
            else:
                hierarchy.read(blocks[index])
        hierarchy.flush()
        cache = hierarchy.level("cache").counters
        dram = hierarchy.level("dram").counters
        rows.append({
            "capacity": capacity,
            "cache": cache,
            "dram": dram,
            "backing_reads": hierarchy.backing_reads,
            "backing_writes": hierarchy.backing_writes,
            "device_reads": backing.counters.reads,
            "device_writes": backing.counters.writes,
            "cache_bytes": hierarchy.level("cache").space_bytes,
            "dram_bytes": hierarchy.level("dram").space_bytes,
            "simulated_time": hierarchy.simulated_time,
            "violations": hierarchy.audit(),
        })
    return rows


@pytest.fixture(scope="module")
def deep_sweep():
    return _measure_three_levels()


@pytest.mark.benchmark(group="fig2")
def test_fig2_three_level_report(benchmark, deep_sweep):
    mark(benchmark)
    report = format_table(
        ["cache blocks", "reads at dram", "reads at disk",
         "writes at disk", "cache bytes", "simulated time"],
        [
            [
                row["capacity"],
                row["dram"].reads_reaching,
                row["backing_reads"],
                row["backing_writes"],
                row["cache_bytes"],
                round(row["simulated_time"], 1),
            ]
            for row in deep_sweep
        ],
        title="Figure 2, chained: cache/DRAM/disk, growing the top level",
    )
    emit_report("fig2_three_level", report)


class TestThreeLevelConservation:
    """Exact conservation at every point of the whole capacity sweep."""

    def test_reads_conserved_level_by_level(self, benchmark, deep_sweep):
        mark(benchmark)
        for row in deep_sweep:
            assert row["cache"].reads_passed_down == row["dram"].reads_reaching
            assert row["dram"].reads_passed_down == row["backing_reads"]
            assert row["backing_reads"] == row["device_reads"]

    def test_writes_conserved_level_by_level(self, benchmark, deep_sweep):
        mark(benchmark)
        for row in deep_sweep:
            assert row["cache"].writes_passed_down == row["dram"].writes_reaching
            assert row["dram"].writes_passed_down == row["backing_writes"]
            assert row["backing_writes"] == row["device_writes"]

    def test_audit_clean_at_every_capacity(self, benchmark, deep_sweep):
        mark(benchmark)
        for row in deep_sweep:
            assert row["violations"] == []

    def test_growing_the_top_relieves_the_middle_and_bottom(
        self, benchmark, deep_sweep
    ):
        mark(benchmark)
        dram_reads = [row["dram"].reads_reaching for row in deep_sweep]
        assert all(b <= a for a, b in zip(dram_reads, dram_reads[1:]))
        space = [row["cache_bytes"] for row in deep_sweep]
        assert all(b >= a for a, b in zip(space, space[1:]))
        assert space[0] == 0 and space[-1] > 0
        times = [row["simulated_time"] for row in deep_sweep]
        assert times[-1] < times[0]


def _btree_over_cache() -> list:
    """The same sweep with a *real access method* over the cache.

    A B+-Tree runs unchanged on a one-level hierarchy mounted as a
    device; its hot root/internal blocks stick in the fast level, so the
    traffic reaching the backing device falls as the cache grows —
    Figure 2 with an actual structure rather than raw block traffic.
    """
    from repro.methods.btree import BPlusTree

    rows = []
    rng = random.Random(79)
    keys = [2 * min(int(rng.expovariate(1.0 / 300)), 3999) for _ in range(2000)]
    for capacity in (0, 8, 32, 128):
        backing = attach_tracer(SimulatedDevice(block_bytes=BENCH_BLOCK, name="flash"))
        cached = HierarchicalDevice(
            MemoryHierarchy(backing, [LevelSpec("L0", capacity)])
        )
        tree = BPlusTree(device=cached)
        tree.bulk_load([(2 * i, i) for i in range(4000)])
        cached.flush()
        backing.reset_counters()
        for key in keys:
            tree.get(key)
        rows.append((capacity, backing.counters.reads, cached.cache_bytes()))
    return rows


@pytest.fixture(scope="module")
def btree_sweep():
    return _btree_over_cache()


@pytest.mark.benchmark(group="fig2")
def test_fig2_btree_report(benchmark, btree_sweep):
    mark(benchmark)
    report = format_table(
        ["cache capacity (blocks)", "backing reads (RO_n)",
         "cache bytes (MO_n-1)"],
        [list(row) for row in btree_sweep],
        title="Figure 2 with a real structure: B+-Tree over a cached device",
    )
    emit_report("fig2_btree", report)


class TestStructureOverHierarchy:
    def test_backing_reads_fall_with_cache(self, benchmark, btree_sweep):
        mark(benchmark)
        reads = [row[1] for row in btree_sweep]
        assert all(b <= a for a, b in zip(reads, reads[1:]))
        assert reads[-1] < reads[0] / 2

    def test_cache_space_is_the_price(self, benchmark, btree_sweep):
        mark(benchmark)
        space = [row[2] for row in btree_sweep]
        assert space[0] == 0
        assert all(b >= a for a, b in zip(space, space[1:]))


class TestVerticalTradeoff:
    def test_reads_reaching_backing_fall_monotonically(self, benchmark, sweep):
        mark(benchmark)
        reads = [row[1] for row in sweep]
        assert all(b <= a for a, b in zip(reads, reads[1:]))
        assert reads[-1] < reads[0] / 5  # big caches help a lot

    def test_writes_reaching_backing_fall(self, benchmark, sweep):
        mark(benchmark)
        writes = [row[2] for row in sweep]
        assert writes[-1] < writes[0]

    def test_cache_space_rises_monotonically(self, benchmark, sweep):
        mark(benchmark)
        space = [row[3] for row in sweep]
        assert all(b >= a for a, b in zip(space, space[1:]))
        assert space[0] == 0 and space[-1] > 0

    def test_tradeoff_is_real(self, benchmark, sweep):
        mark(benchmark)
        # Every step that lowered backing reads raised cache space:
        # there is no free lunch between adjacent sweep points.
        for (c0, r0, _, s0, _), (c1, r1, _, s1, _) in zip(sweep, sweep[1:]):
            if r1 < r0:
                assert s1 > s0, (c0, c1)

    def test_hit_rate_grows_with_capacity(self, benchmark, sweep):
        mark(benchmark)
        rates = [row[4] for row in sweep]
        assert rates[-1] > rates[1] > rates[0]
