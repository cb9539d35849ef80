"""Unit tests for the buffer pool and its LRU eviction."""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import pytest

from repro.storage.device import SimulatedDevice
from repro.storage.pager import BufferPool


@pytest.fixture
def backing():
    return SimulatedDevice(block_bytes=64, name="backing")


def _seed(device, n):
    blocks = []
    for i in range(n):
        block = device.allocate()
        device.write(block, f"payload-{i}")
        blocks.append(block)
    return blocks


class TestReadCaching:
    def test_second_read_is_a_hit(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=4)
        backing.reset_counters()
        pool.read(block)
        pool.read(block)
        assert backing.counters.reads == 1
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_capacity_zero_is_passthrough(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=0)
        backing.reset_counters()
        pool.read(block)
        pool.read(block)
        assert backing.counters.reads == 2
        assert pool.cached_blocks == 0

    def test_eviction_at_capacity(self, backing):
        blocks = _seed(backing, 3)
        pool = BufferPool(backing, capacity_blocks=2)
        for block in blocks:
            pool.read(block)
        assert pool.cached_blocks == 2
        assert pool.stats.evictions == 1

    def test_lru_evicts_least_recent(self, backing):
        b0, b1, b2 = _seed(backing, 3)
        pool = BufferPool(backing, capacity_blocks=2)
        pool.read(b0)
        pool.read(b1)
        pool.read(b0)  # refresh b0; b1 is now LRU
        pool.read(b2)  # evicts b1
        backing.reset_counters()
        pool.read(b0)
        assert backing.counters.reads == 0  # b0 still cached
        pool.read(b1)
        assert backing.counters.reads == 1  # b1 was evicted

    def test_negative_capacity_rejected(self, backing):
        with pytest.raises(ValueError):
            BufferPool(backing, capacity_blocks=-1)


#: Access traces over eight blocks: ("r" | "w", block index).
_TRACES = {
    "sequential-scan": [("r", i) for i in range(8)],
    "loop": [("r", i) for i in range(4)] * 3,
    "hot-and-cold": [op for i in range(1, 7) for op in (("r", 0), ("r", i))],
    "refresh-by-write": [
        ("w", 0), ("r", 1), ("r", 2), ("w", 0), ("r", 3),
        ("w", 1), ("r", 4), ("r", 0), ("w", 5), ("r", 2),
    ],
    "repeat-then-scan": [
        ("r", 0), ("r", 0), ("r", 1), ("w", 1), ("r", 2),
        ("r", 2), ("r", 3), ("r", 4), ("r", 5), ("r", 0),
    ],
    "reverse-reuse": [("r", i) for i in range(6)] + [("w", i) for i in reversed(range(6))],
}


#: Traces that also push clean frames in ("f", fill_clean) and drop
#: frames ("x", invalidate).
_MIXED_TRACES = {
    "fill-then-read": [
        ("f", 0), ("f", 1), ("r", 0), ("f", 2), ("r", 3),
        ("f", 0), ("w", 1), ("r", 2), ("f", 4), ("r", 4),
    ],
    "invalidate-dirty-and-clean": [
        ("w", 0), ("r", 1), ("x", 0), ("r", 0), ("w", 2),
        ("x", 1), ("x", 5), ("r", 3), ("w", 0), ("r", 2),
    ],
    "churn": [
        (("r", "w", "f", "x", "r", "w")[step % 6], (step * 5) % 8)
        for step in range(40)
    ],
}

_POLICIES = {
    "write-back": dict(write_through=False, admit_on_read=True),
    "write-through": dict(write_through=True, admit_on_read=True),
    "exclusive": dict(write_through=False, admit_on_read=False),
    "exclusive-write-through": dict(write_through=True, admit_on_read=False),
}


class _ReferencePool:
    """A from-scratch LRU model of the pool's documented behaviour."""

    def __init__(self, capacity, write_through=False, admit_on_read=True):
        self.capacity = capacity
        self.write_through = write_through
        self.admit_on_read = admit_on_read
        self.frames: "OrderedDict[int, bool]" = OrderedDict()  # block -> dirty
        self.stats = dict(
            hits=0, misses=0, evictions=0, write_backs=0,
            demand_reads=0, downstream_writes=0,
        )
        self.offered = []

    def read(self, block):
        if block in self.frames:
            self.stats["hits"] += 1
            self.frames.move_to_end(block)
            return
        self.stats["misses"] += 1
        self.stats["demand_reads"] += 1
        if self.admit_on_read:
            self._admit(block, False)

    def write(self, block):
        dirty = not self.write_through
        if block in self.frames:
            self.stats["hits"] += 1
            self.frames[block] = dirty
            self.frames.move_to_end(block)
        else:
            self.stats["misses"] += 1
            if self.capacity == 0:
                self.stats["downstream_writes"] += 1
                return
            self._admit(block, dirty)
        if self.write_through:
            self.stats["downstream_writes"] += 1

    def fill_clean(self, block):
        if block not in self.frames:
            self._admit(block, False)

    def invalidate(self, block):
        self.frames.pop(block, None)

    def _admit(self, block, dirty):
        if self.capacity == 0:
            return
        while len(self.frames) >= self.capacity:
            victim, victim_dirty = self.frames.popitem(last=False)
            self.stats["evictions"] += 1
            if victim_dirty:
                self.stats["write_backs"] += 1
                self.stats["downstream_writes"] += 1
            else:
                self.offered.append(victim)
        self.frames[block] = dirty


class _VictimSink:
    def __init__(self):
        self.offered = []

    def accept_victim(self, block_id, payload, used_bytes):
        self.offered.append(block_id)


def _replay(backing, trace, capacity, **policy):
    """Run ``trace`` through a real pool and the reference model side by
    side, checking the LRU-ordered residency after every step."""
    blocks = _seed(backing, 8)
    backing.reset_counters()
    pool = BufferPool(backing, capacity_blocks=capacity, **policy)
    pool.victim_store = sink = _VictimSink()
    model = _ReferencePool(capacity, **policy)
    for step, (op, index) in enumerate(trace):
        block = blocks[index]
        if op == "r":
            pool.read(block)
            model.read(block)
        elif op == "w":
            pool.write(block, f"step-{step}", used_bytes=8)
            model.write(block)
        elif op == "f":
            pool.fill_clean(block, f"fill-{step}", 4)
            model.fill_clean(block)
        else:
            pool.invalidate(block)
            model.invalidate(block)
        resident = [(frame.block_id, frame.dirty) for frame in pool.iter_frames()]
        assert resident == list(model.frames.items()), f"diverged at step {step}"
    return blocks, pool, model, sink


class TestLRUVictimOrder:
    """The pool evicts in exactly the order a reference LRU model does."""

    @pytest.mark.parametrize("capacity", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("trace", sorted(_TRACES))
    def test_matches_reference_model(self, backing, trace, capacity):
        _, pool, model, _ = _replay(backing, _TRACES[trace], capacity)
        stats = model.stats
        assert (
            pool.stats.hits,
            pool.stats.misses,
            pool.stats.evictions,
            pool.stats.write_backs,
        ) == (stats["hits"], stats["misses"], stats["evictions"], stats["write_backs"])

    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    @pytest.mark.parametrize("capacity", [0, 1, 3, 6])
    @pytest.mark.parametrize("trace", sorted({**_TRACES, **_MIXED_TRACES}))
    def test_every_policy_matches_reference_model(
        self, backing, trace, capacity, policy
    ):
        """Write-through, exclusive victim-fill (no admit on read),
        ``fill_clean`` and ``invalidate``: same LRU order, same stats,
        same clean victims offered below, and the store below sees
        exactly the pool's outgoing traffic."""
        trace_ops = {**_TRACES, **_MIXED_TRACES}[trace]
        _, pool, model, sink = _replay(
            backing, trace_ops, capacity, **_POLICIES[policy]
        )
        assert dataclasses.asdict(pool.stats) == model.stats
        assert sink.offered == model.offered
        assert backing.counters.reads == pool.stats.demand_reads
        assert backing.counters.writes == pool.stats.downstream_writes


class TestWriteBack:
    def test_write_deferred_until_flush(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=2)
        backing.reset_counters()
        pool.write(block, "new-payload")
        assert backing.counters.writes == 0
        pool.flush()
        assert backing.counters.writes == 1
        assert backing.read(block) == "new-payload"

    def test_dirty_eviction_writes_back(self, backing):
        b0, b1, b2 = _seed(backing, 3)
        pool = BufferPool(backing, capacity_blocks=1)
        pool.write(b0, "dirty-0")
        backing.reset_counters()
        pool.read(b1)  # evicts dirty b0
        assert backing.counters.writes == 1
        assert backing.peek(b0) == "dirty-0"

    def test_flush_keeps_frames_clean(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=2)
        pool.write(block, "x")
        pool.flush()
        backing.reset_counters()
        pool.flush()  # nothing dirty anymore
        assert backing.counters.writes == 0

    def test_capacity_zero_write_passthrough(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=0)
        backing.reset_counters()
        pool.write(block, "direct")
        assert backing.counters.writes == 1

    def test_read_after_cached_write(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=2)
        pool.write(block, "cached")
        assert pool.read(block) == "cached"

    def test_invalidate_drops_without_writeback(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=2)
        pool.write(block, "doomed")
        pool.invalidate(block)
        backing.reset_counters()
        pool.flush()
        assert backing.counters.writes == 0


class TestHitRate:
    def test_hit_rate(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=1)
        pool.read(block)
        pool.read(block)
        pool.read(block)
        assert pool.stats.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_empty(self, backing):
        pool = BufferPool(backing, capacity_blocks=1)
        assert pool.stats.hit_rate == 0.0


class TestCachedBytes:
    def test_cached_bytes_tracks_frames(self, backing):
        blocks = _seed(backing, 3)
        pool = BufferPool(backing, capacity_blocks=8)
        for block in blocks:
            pool.read(block)
        assert pool.cached_bytes == 3 * backing.block_bytes


class TestPeekAndDirtyIteration:
    def test_peek_serves_dirty_frame_without_io(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=4)
        pool.write(block, "newer", used_bytes=8)
        backing.reset_counters()
        assert pool.peek(block) == "newer"
        assert backing.counters.reads == 0
        assert pool.stats.hits + pool.stats.misses == 1  # only the write

    def test_peek_falls_through_to_device(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=4)
        assert pool.peek(block) == "payload-0"

    def test_iter_dirty_lists_unflushed_frames_only(self, backing):
        first, second = _seed(backing, 2)
        pool = BufferPool(backing, capacity_blocks=4)
        pool.read(first)  # clean frame
        pool.write(second, "dirty", used_bytes=16)
        assert list(pool.iter_dirty()) == [(second, 16)]
        pool.flush()
        assert list(pool.iter_dirty()) == []


class TestBlockStoreSurface:
    """The pool is itself a BlockStore: pools stack on pools."""

    def test_pool_satisfies_the_protocol(self, backing):
        from repro.storage.store import BlockStore

        pool = BufferPool(backing, capacity_blocks=4)
        assert isinstance(pool, BlockStore)
        assert isinstance(backing, BlockStore)
        assert pool.block_bytes == backing.block_bytes

    def test_pool_over_pool_chains_misses(self, backing):
        (block,) = _seed(backing, 1)
        lower = BufferPool(backing, capacity_blocks=8)
        upper = BufferPool(lower, capacity_blocks=2)
        backing.reset_counters()
        assert upper.read(block) == "payload-0"
        assert backing.counters.reads == 1
        assert lower.stats.misses == 1 and upper.stats.misses == 1
        upper.invalidate(block)
        # Still cached in the lower pool: no backing I/O on the re-read.
        assert upper.read(block) == "payload-0"
        assert backing.counters.reads == 1
        assert lower.stats.hits == 1

    def test_dirty_eviction_lands_in_the_lower_pool(self, backing):
        b0, b1 = _seed(backing, 2)
        lower = BufferPool(backing, capacity_blocks=8)
        upper = BufferPool(lower, capacity_blocks=1)
        backing.reset_counters()
        upper.write(b0, "newer", used_bytes=8)
        upper.read(b1)  # evicts dirty b0 into the lower pool
        assert backing.counters.writes == 0
        assert lower.peek(b0) == "newer"
        assert upper.stats.write_backs == 1

    def test_used_bytes_of_prefers_the_cached_frame(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=2)
        pool.write(block, "x", used_bytes=48)
        assert pool.used_bytes_of(block) == 48
        assert backing.used_bytes_of(block) == 0  # not yet flushed


class TestReadAdmissionOccupancy:
    def test_read_miss_admits_with_true_used_bytes(self, backing):
        (block,) = _seed(backing, 1)
        backing.write(block, "payload-0", used_bytes=40)
        pool = BufferPool(backing, capacity_blocks=2)
        pool.read(block)
        (frame,) = pool.iter_frames()
        assert frame.used_bytes == 40
        assert not frame.dirty

    def test_outgoing_traffic_counters(self, backing):
        b0, b1 = _seed(backing, 2)
        pool = BufferPool(backing, capacity_blocks=1)
        backing.reset_counters()
        pool.read(b0)
        pool.write(b0, "v", used_bytes=8)
        pool.read(b1)   # evicts dirty b0 -> one downstream write
        pool.flush()    # no dirty frames left dirty? b1 clean, so no-op
        assert pool.stats.demand_reads == 2
        assert pool.stats.downstream_writes == 1
        assert backing.counters.reads == 2
        assert backing.counters.writes == 1


class TestWriteThrough:
    def test_write_through_propagates_and_stays_clean(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=2, write_through=True)
        backing.reset_counters()
        pool.write(block, "v1", used_bytes=16)
        assert backing.counters.writes == 1
        assert backing.peek(block) == "v1"
        assert pool.dirty_blocks == 0
        assert pool.contains(block)  # still cached for fast reads
        assert pool.stats.downstream_writes == 1

    def test_write_through_hit_also_propagates(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=2, write_through=True)
        pool.write(block, "v1")
        backing.reset_counters()
        pool.write(block, "v2")
        assert backing.counters.writes == 1
        assert backing.peek(block) == "v2"

    def test_flush_after_write_through_is_a_noop(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=2, write_through=True)
        pool.write(block, "v1")
        backing.reset_counters()
        pool.flush()
        assert backing.counters.writes == 0


class TestExclusiveAdmission:
    def test_no_admit_on_read(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=4, admit_on_read=False)
        pool.read(block)
        assert not pool.contains(block)
        assert pool.stats.demand_reads == 1

    def test_fill_clean_installs_without_stats(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=4, admit_on_read=False)
        pool.fill_clean(block, "payload-0", 12)
        assert pool.contains(block)
        assert pool.stats.accesses == 0
        backing.reset_counters()
        assert pool.read(block) == "payload-0"
        assert backing.counters.reads == 0  # served by the filled frame

    def test_fill_clean_never_clobbers_a_resident_frame(self, backing):
        (block,) = _seed(backing, 1)
        pool = BufferPool(backing, capacity_blocks=4)
        pool.write(block, "dirty-newer", used_bytes=8)
        pool.fill_clean(block, "stale", 0)
        assert pool.peek(block) == "dirty-newer"
        assert pool.dirty_blocks == 1

    def test_clean_victims_are_offered_to_the_victim_store(self, backing):
        b0, b1 = _seed(backing, 2)
        lower = BufferPool(backing, capacity_blocks=8, admit_on_read=False)

        class _Sink:
            def __init__(self):
                self.offered = []

            def accept_victim(self, block_id, payload, used_bytes):
                self.offered.append((block_id, payload, used_bytes))
                lower.fill_clean(block_id, payload, used_bytes)

        sink = _Sink()
        upper = BufferPool(backing, capacity_blocks=1)
        upper.victim_store = sink
        upper.read(b0)
        upper.read(b1)  # evicts clean b0 -> offered, not written back
        assert sink.offered and sink.offered[0][0] == b0
        assert lower.contains(b0)
        assert upper.stats.write_backs == 0
