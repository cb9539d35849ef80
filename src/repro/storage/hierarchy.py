"""Memory-hierarchy simulator (substrate of the paper's Figure 2).

The paper argues the RUM tradeoffs hold *per level* of the memory
hierarchy and also *vertically*: the read overhead RO_n and update
overhead UO_n at level ``n`` can be reduced by caching more data at the
faster level ``n-1``, which raises the memory overhead MO_{n-1} there.

That claim is about traffic that flows *level by level*, so the
simulator is built as a genuinely chained stack:
:class:`HierarchyLevel` satisfies the
:class:`~repro.storage.store.BlockStore` protocol and each level's
:class:`~repro.storage.pager.BufferPool` targets the level **below**
it — the bottom level's pool targets the backing device (through a thin
traffic meter).  A read miss at level 0 therefore cascades 0 → 1 → … →
backing one level at a time, and a dirty eviction from level ``n``
lands in level ``n+1``'s pool, never teleporting past it.  (The
previous design pointed every pool at the backing device, so a dirty
eviction from level 0 bypassed level 1, which could then serve a stale
clean copy — the exact layering bug :meth:`MemoryHierarchy.audit` now
rejects.)

Every level counts the traffic reaching it and the traffic it passes
down, so RO_n / UO_n / MO_{n-1} can be read off directly and the audit
can check *conservation*: traffic passed down at level ``n`` equals
traffic reaching level ``n+1``, exactly, with the two sides counted by
independent code paths.

Per level the :class:`LevelSpec` also selects a write policy
(write-back / write-through), an inclusion mode (inclusive /
exclusive victim-fill) and a :class:`~repro.storage.device.CostModel`
whose read/write prices aggregate into one hierarchy-wide
``simulated_time``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracer import Tracer
from repro.storage.block import BlockId
from repro.storage.device import CostModel, DeviceCounters, SimulatedDevice
from repro.storage.pager import BufferPool
from repro.storage.store import BlockStore

#: Write policies a level can adopt (see :class:`LevelSpec`).
WRITE_BACK = "write-back"
WRITE_THROUGH = "write-through"

#: Inclusion modes a level can adopt (see :class:`LevelSpec`).
INCLUSIVE = "inclusive"
EXCLUSIVE = "exclusive"


@dataclass(frozen=True)
class LevelSpec:
    """Configuration of one hierarchy level.

    ``capacity_blocks`` is the level's cache capacity; 0 degenerates to
    a pass-through level.  ``access_cost`` is the abstract cost of one
    block access arriving at this level; ``cost_model`` overrides it
    with distinct read/write prices (reads are charged the model's
    ``random_read``, writes its ``random_write`` — per-level seek
    classification is deliberately not modelled).

    ``write_policy`` is :data:`WRITE_BACK` (writes dirty a frame, the
    level below sees them on eviction/flush) or :data:`WRITE_THROUGH`
    (writes propagate down immediately, frames stay clean).

    ``inclusion`` is :data:`INCLUSIVE` (read misses install the fetched
    block at this level, so upper-level content is typically replicated
    here) or :data:`EXCLUSIVE` (victim-fill: demand reads pass through
    uncached and this level holds only what the level above pushes
    down — dirty write-backs and clean evicted victims).
    """

    name: str
    capacity_blocks: int
    access_cost: float = 1.0
    cost_model: Optional[CostModel] = None
    write_policy: str = WRITE_BACK
    inclusion: str = INCLUSIVE

    def __post_init__(self) -> None:
        if self.write_policy not in (WRITE_BACK, WRITE_THROUGH):
            raise ValueError(f"unknown write policy {self.write_policy!r}")
        if self.inclusion not in (INCLUSIVE, EXCLUSIVE):
            raise ValueError(f"unknown inclusion mode {self.inclusion!r}")

    @property
    def effective_cost_model(self) -> CostModel:
        """The cost model priced into ``simulated_time`` for this level."""
        if self.cost_model is not None:
            return self.cost_model
        cost = self.access_cost
        return CostModel(cost, cost, cost, cost)


@dataclass(frozen=True)
class LevelCounters:
    """Traffic observed at one level of the hierarchy.

    ``reads_in`` / ``writes_in`` count requests arriving at the level
    (from the application at the top level, from the level above
    otherwise).  ``reads_down`` counts demand reads the level issued to
    the level below (one per read miss); ``writes_down`` counts writes
    it issued below from any cause — dirty-eviction write-backs, flush
    write-backs, write-through propagation, capacity-0 pass-through.
    ``victims_accepted`` counts clean victim-fills received from the
    level above (data movement, not backed writes — excluded from write
    conservation).
    """

    reads_in: int = 0
    writes_in: int = 0
    reads_down: int = 0
    writes_down: int = 0
    writes_absorbed: int = 0
    victims_accepted: int = 0

    # Compatibility views, matching how Figure 2 reads the counters.
    @property
    def reads_served(self) -> int:
        """Read requests this level answered from its own frames."""
        return self.reads_in - self.reads_down

    @property
    def reads_passed_down(self) -> int:
        return self.reads_down

    @property
    def writes_passed_down(self) -> int:
        return self.writes_down

    @property
    def reads_reaching(self) -> int:
        """Read requests that reached this level at all."""
        return self.reads_in

    @property
    def writes_reaching(self) -> int:
        return self.writes_in


class _BackingMeter:
    """Thin :class:`BlockStore` counting the traffic that reaches backing.

    Sits between the bottom level's pool and the backing device so the
    hierarchy owns an incoming-traffic count that is independent of the
    device's own counters (which callers may ``reset_counters`` at
    will).  Also prices that traffic with the backing device's cost
    model — tracking sequential runs the way the device does — so
    :attr:`MemoryHierarchy.simulated_time` composes per-level costs with
    the backing level's without touching device state.
    """

    def __init__(self, backing: SimulatedDevice) -> None:
        self.backing = backing
        self.reads_in = 0
        self.writes_in = 0
        self.simulated_time = 0.0
        self._seq_read_id: BlockId = -1
        self._seq_write_id: BlockId = -1

    @property
    def name(self) -> str:
        return self.backing.name

    @property
    def block_bytes(self) -> int:
        return self.backing.block_bytes

    def read(self, block_id: BlockId) -> object:
        self.reads_in += 1
        model = self.backing.cost_model
        self.simulated_time += (
            model.sequential_read
            if block_id == self._seq_read_id
            else model.random_read
        )
        self._seq_read_id = block_id + 1
        return self.backing.read(block_id)

    def write(self, block_id: BlockId, payload: object, used_bytes: int = 0) -> None:
        self.writes_in += 1
        model = self.backing.cost_model
        self.simulated_time += (
            model.sequential_write
            if block_id == self._seq_write_id
            else model.random_write
        )
        self._seq_write_id = block_id + 1
        self.backing.write(block_id, payload, used_bytes)

    def peek(self, block_id: BlockId) -> object:
        return self.backing.peek(block_id)

    def used_bytes_of(self, block_id: BlockId) -> int:
        return self.backing.used_bytes_of(block_id)

    def sync_through(self, block_ids: Iterable[BlockId]) -> int:
        """End of the chain: the backing device's writes are durable."""
        return self.backing.sync_through(block_ids)


class HierarchyLevel:
    """One cache level: a buffer pool over the level below, plus counters.

    Satisfies :class:`~repro.storage.store.BlockStore`, so the level
    above can stack its pool directly on this one — that chaining is
    what makes misses, write-backs and flushes cascade level by level.
    """

    def __init__(self, spec: LevelSpec, below: BlockStore) -> None:
        self.spec = spec
        self.below = below
        self.pool = BufferPool(
            below,
            spec.capacity_blocks,
            write_through=spec.write_policy == WRITE_THROUGH,
            admit_on_read=spec.inclusion == INCLUSIVE,
        )
        # Trace events from this level's pool carry the level's name.
        self.pool.name = f"pool({spec.name})"
        self._reads_in = 0
        self._writes_in = 0
        self._writes_absorbed = 0
        self._victims_accepted = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def block_bytes(self) -> int:
        return self.pool.block_bytes

    # ------------------------------------------------------------------
    # BlockStore surface: the level above (or the hierarchy) calls these.
    # ------------------------------------------------------------------
    def read(self, block_id: BlockId) -> object:
        """Read arriving at this level; misses cascade to the level below."""
        self._reads_in += 1
        return self.pool.read(block_id)

    def write(self, block_id: BlockId, payload: object, used_bytes: int = 0) -> None:
        """Write arriving at this level, handled per the level's policy."""
        self._writes_in += 1
        if self.spec.capacity_blocks > 0:
            self._writes_absorbed += 1
        self.pool.write(block_id, payload, used_bytes)

    def peek(self, block_id: BlockId) -> object:
        """Newest copy at or below this level, without charging I/O."""
        return self.pool.peek(block_id)

    def used_bytes_of(self, block_id: BlockId) -> int:
        """Declared occupancy at or below this level, without charging I/O."""
        return self.pool.used_bytes_of(block_id)

    def sync_through(self, block_ids: Iterable[BlockId]) -> int:
        """Push the named blocks' dirty frames down through this level.

        The pool writes back its own dirty frames for those blocks (its
        write-backs arrive at the level below as ordinary writes, so
        conservation holds) and then cascades, so the push reaches the
        backing device no matter which level held the newest copy.
        """
        return self.pool.sync_through(block_ids)

    def accept_victim(
        self, block_id: BlockId, payload: object, used_bytes: int
    ) -> None:
        """Receive a clean victim evicted by the level above (exclusive
        victim-fill).  Data movement, not a backed write — conservation
        counts it separately."""
        self._victims_accepted += 1
        self.pool.fill_clean(block_id, payload, used_bytes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def counters(self) -> LevelCounters:
        """Snapshot of this level's traffic counters."""
        stats = self.pool.stats
        return LevelCounters(
            reads_in=self._reads_in,
            writes_in=self._writes_in,
            reads_down=stats.demand_reads,
            writes_down=stats.downstream_writes,
            writes_absorbed=self._writes_absorbed,
            victims_accepted=self._victims_accepted,
        )

    @property
    def space_bytes(self) -> int:
        """Bytes of data replicated at this level (drives MO here)."""
        return self.pool.cached_bytes

    @property
    def simulated_time(self) -> float:
        """Latency accrued at this level: every arriving access pays the
        level's price (AMAT-style), reads and writes separately."""
        model = self.spec.effective_cost_model
        return (
            self._reads_in * model.random_read
            + self._writes_in * model.random_write
        )

    def hit_rate(self) -> float:
        """Fraction of accesses this level served itself."""
        return self.pool.stats.hit_rate


class MemoryHierarchy:
    """A chained stack of cache levels over one backing device.

    ``levels`` are ordered fast-to-slow (e.g. ``[cache, dram]`` over a
    flash backing device).  Reads and writes enter at the top; each
    level serves hits and passes misses to the level *below it* — the
    chain is structural (each pool targets the next level), so dirty
    evictions and flushes land in the next level down and nothing can
    bypass an intermediate level.

    :meth:`audit` checks the two invariants the chain promises:
    per-level counter conservation, and that no level holds a clean
    frame differing from the authoritative copy below it.
    """

    def __init__(
        self,
        backing: SimulatedDevice,
        levels: Sequence[LevelSpec],
    ) -> None:
        self.backing = backing
        self.meter = _BackingMeter(backing)
        below: BlockStore = self.meter
        built: List[HierarchyLevel] = []
        for spec in reversed(list(levels)):
            level = HierarchyLevel(spec, below)
            built.append(level)
            below = level
        self.levels = list(reversed(built))
        # Exclusive levels receive the clean victims of the level above.
        for upper, lower in zip(self.levels, self.levels[1:]):
            if lower.spec.inclusion == EXCLUSIVE:
                upper.pool.victim_store = lower
        #: Where reads and writes enter: the top level, or the backing
        #: meter when there are no levels.
        self.top: BlockStore = self.levels[0] if self.levels else self.meter

    # ------------------------------------------------------------------
    def read(self, block_id: BlockId) -> object:
        """Read a block through the hierarchy, top level first."""
        return self.top.read(block_id)

    def write(self, block_id: BlockId, payload: object, used_bytes: int = 0) -> None:
        """Write a block at the top level.

        Under write-back the write is absorbed by the top level with
        capacity; lower levels see it only on eviction or flush.  A
        hierarchy with no levels writes straight to the backing device.
        """
        self.top.write(block_id, payload, used_bytes)

    def peek(self, block_id: BlockId) -> object:
        """The hierarchy's newest copy of a block, without charging I/O."""
        return self.top.peek(block_id)

    def flush(self) -> None:
        """Flush dirty frames down the stack, top level first.

        The ordering matters: flushing level 0 pushes its dirty frames
        into level 1's pool, whose own flush then carries everything to
        level 2, and so on until the backing device is authoritative.
        """
        for level in self.levels:
            level.pool.flush()

    def used_bytes_of(self, block_id: BlockId) -> int:
        """Declared occupancy of a block's newest copy, without I/O."""
        return self.top.used_bytes_of(block_id)

    def sync_through(self, block_ids: Iterable[BlockId]) -> int:
        """Force the named blocks through every level to the backing
        device — the modeled fsync (see :class:`BlockStore`).  Starts at
        the top so each level's newest copy lands below before that
        level below is in turn forced."""
        return self.top.sync_through(block_ids)

    def invalidate(self, block_id: BlockId) -> None:
        """Drop every level's cached frame for a block (it was freed).

        Without this, a freed block could leave a stale frame whose
        coherence check would ``peek`` an unallocated backing block.
        """
        for level in self.levels:
            level.pool.invalidate(block_id)

    # ------------------------------------------------------------------
    def level(self, name: str) -> HierarchyLevel:
        """Look a level up by its configured name."""
        for level in self.levels:
            if level.name == name:
                return level
        raise KeyError(f"no hierarchy level named {name!r}")

    def space_by_level(self) -> List[tuple]:
        """(name, bytes cached) per level, top to bottom, plus backing."""
        rows = [(level.name, level.space_bytes) for level in self.levels]
        rows.append((self.backing.name, self.backing.allocated_bytes))
        return rows

    @property
    def backing_reads(self) -> int:
        """Reads that reached the backing device through the chain."""
        return self.meter.reads_in

    @property
    def backing_writes(self) -> int:
        """Writes that reached the backing device through the chain."""
        return self.meter.writes_in

    @property
    def simulated_time(self) -> float:
        """Hierarchy-wide latency: per-level cost models aggregated with
        the backing device's pricing of the traffic that reached it."""
        return sum(level.simulated_time for level in self.levels) + (
            self.meter.simulated_time
        )

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach one tracer to every level's pool and the backing device.

        A single ordered stream then shows the whole vertical slice:
        per-level evictions and write-backs (source ``pool(<level>)``)
        interleaved with the physical traffic reaching backing.
        """
        for level in self.levels:
            level.pool.set_tracer(tracer)
        self.backing.set_tracer(tracer)

    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """Structural invariants of the chain; one string per violation.

        * **Conservation** — the traffic level ``n`` counted as passed
          down equals the traffic level ``n+1`` (or the backing meter)
          counted as arriving; the two sides increment on independent
          code paths, so any bypass or double-count shows up here.
        * **Clean-frame coherence** — no level may hold a clean frame
          whose payload (or declared occupancy) differs from the
          authoritative copy below it; a violation means a read could
          serve stale data, the layering bug the chained design exists
          to prevent.
        """
        violations: List[str] = []
        for index, level in enumerate(self.levels):
            below_counts: Tuple[int, int]
            if index + 1 < len(self.levels):
                lower = self.levels[index + 1].counters
                below_name = self.levels[index + 1].name
                below_counts = (lower.reads_in, lower.writes_in)
            else:
                below_name = self.meter.name
                below_counts = (self.meter.reads_in, self.meter.writes_in)
            counters = level.counters
            if counters.reads_down != below_counts[0]:
                violations.append(
                    f"conservation: {level.name} passed down "
                    f"{counters.reads_down} reads but {below_name} "
                    f"received {below_counts[0]}"
                )
            if counters.writes_down != below_counts[1]:
                violations.append(
                    f"conservation: {level.name} passed down "
                    f"{counters.writes_down} writes but {below_name} "
                    f"received {below_counts[1]}"
                )
        for level in self.levels:
            name, below = level.name, level.below
            for frame in level.pool.iter_frames():
                if frame.dirty:
                    continue
                authoritative = below.peek(frame.block_id)
                if frame.payload != authoritative:
                    violations.append(
                        f"coherence: {name} holds clean block "
                        f"{frame.block_id} = {frame.payload!r} but the "
                        f"level below says {authoritative!r}"
                    )
                below_used = below.used_bytes_of(frame.block_id)
                if frame.used_bytes != below_used:
                    violations.append(
                        f"coherence: {name} clean block {frame.block_id} "
                        f"declares used_bytes={frame.used_bytes} but the "
                        f"level below says {below_used}"
                    )
        return violations


class HierarchicalDevice(SimulatedDevice):
    """The whole chained hierarchy masquerading as one device.

    The one caching facade: an access method (and its
    :class:`~repro.serve.wal.WriteAheadLog`) is built over it unchanged,
    and every read and write flows through the chain — level hits,
    cascaded misses, write-back absorption — while allocation and the
    block catalog stay on the backing device.  One buffer pool in front
    of a device is the one-level case, ``[LevelSpec("L0", capacity)]``.

    ``write_back_kinds`` chooses, per block kind, between write-back
    and force.  Writes to blocks whose kind is in it (by default the
    WAL's ``"wal"`` blocks — the one stream whose protocol already
    separates *written* from *synced*) are absorbed by the top level's
    pool and reach the backing device on eviction, on :meth:`flush`, or
    when :meth:`sync_through` (the modeled fsync) forces them down.
    Every other write is forced through immediately after landing in
    the caches: the serving tier's redo log is *logical*, so recovery
    needs the structure's durable image to be consistent — this is a
    force-policy buffer manager for data pages, while the log rides
    write-back and pays one ``sync_through`` per group commit.  Reads
    of both kinds are cached normally.

    ``counters`` on this facade tally the logical traffic the method
    issued, but price it with the hierarchy's own clock (per-level AMAT
    plus the backing meter) rather than a flat facade cost model — the
    latency a serve bench measures through this device is the chain's.
    """

    __slots__ = ("hierarchy", "backing", "write_back_kinds", "_clock_base", "_top")

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        write_back_kinds: Tuple[str, ...] = ("wal",),
    ) -> None:
        backing = hierarchy.backing
        super().__init__(
            block_bytes=backing.block_bytes,
            cost_model=CostModel.dram(),
            name=f"hier({backing.name})",
        )
        self.hierarchy = hierarchy
        self.backing = backing
        self.write_back_kinds = frozenset(write_back_kinds)
        self._top = hierarchy.top
        # Not the base class's ``_time_base``: the ``cost_model`` setter
        # re-bases that one for a flat model this facade does not price.
        self._clock_base = 0.0

    def set_tracer(self, tracer: Tracer) -> None:
        """One tracer for the facade, every level's pool, and backing."""
        super().set_tracer(tracer)
        self.hierarchy.set_tracer(tracer)

    # ------------------------------------------------------------------
    # Allocation delegates to the backing device.
    # ------------------------------------------------------------------
    def allocate(self, kind: str = "data") -> BlockId:
        self._allocations += 1
        return self.backing.allocate(kind)

    def free(self, block_id: BlockId) -> None:
        self._frees += 1
        self.hierarchy.invalidate(block_id)
        self.backing.free(block_id)

    def is_allocated(self, block_id: BlockId) -> bool:
        """Whether ``block_id`` is live on the backing device."""
        return self.backing.is_allocated(block_id)

    # ------------------------------------------------------------------
    # I/O goes through the chain.
    # ------------------------------------------------------------------
    def read(self, block_id: BlockId) -> object:
        sequential = block_id == self._seq_read_id
        if sequential:
            self._seq_reads += 1
        else:
            self._rand_reads += 1
        self._seq_read_id = block_id + 1
        payload = self._top.read(block_id)
        if self._trace_enabled:
            self.tracer.emit(
                source=self.name,
                op="read",
                block_id=block_id,
                kind=self.backing.kind_of(block_id),
                sequential=sequential,
                nbytes=self.block_bytes,
            )
        return payload

    def write(self, block_id: BlockId, payload: object, used_bytes: int = 0) -> None:
        if not 0 <= used_bytes <= self.block_bytes:
            raise ValueError(
                f"used_bytes {used_bytes} outside block capacity {self.block_bytes}"
            )
        sequential = block_id == self._seq_write_id
        if sequential:
            self._seq_writes += 1
        else:
            self._rand_writes += 1
        self._seq_write_id = block_id + 1
        kind = self.backing.kind_of(block_id)
        self._top.write(block_id, payload, used_bytes)
        if kind not in self.write_back_kinds:
            # Force policy for data pages: the write stays cached at
            # every level but is pushed through to backing immediately,
            # so the durable structure is never a torn-in-time mix the
            # logical redo log could not replay over.
            self.hierarchy.sync_through((block_id,))
        if self._trace_enabled:
            self.tracer.emit(
                source=self.name,
                op="write",
                block_id=block_id,
                kind=kind,
                sequential=sequential,
                nbytes=self.block_bytes,
            )

    def sync_through(self, block_ids: Iterable[BlockId]) -> int:
        """The modeled fsync: force the named blocks through the chain."""
        return self.hierarchy.sync_through(block_ids)

    def flush(self) -> None:
        """Flush every level's dirty frames down to the backing device."""
        self.hierarchy.flush()

    def peek(self, block_id: BlockId) -> object:
        """Newest copy anywhere in the chain, without charging I/O."""
        return self.hierarchy.peek(block_id)

    def kind_of(self, block_id: BlockId) -> str:
        return self.backing.kind_of(block_id)

    def used_bytes_of(self, block_id: BlockId) -> int:
        """Declared occupancy, preferring the newest unflushed frame's."""
        return self.hierarchy.used_bytes_of(block_id)

    # ------------------------------------------------------------------
    # Space accounting delegates to the backing store (dirty-aware).
    # ------------------------------------------------------------------
    @property
    def allocated_blocks(self) -> int:
        return self.backing.allocated_blocks

    @property
    def allocated_bytes(self) -> int:
        return self.backing.allocated_bytes

    def used_bytes(self) -> int:
        """Logical occupancy including unflushed dirty frames.

        Each block's correction uses its *topmost* dirty frame — the
        newest copy; a block dirty at two levels must not be corrected
        twice.
        """
        total = self.backing.used_bytes()
        corrected = set()
        for level in self.hierarchy.levels:
            for block_id, frame_used in level.pool.iter_dirty():
                if block_id in corrected:
                    continue
                corrected.add(block_id)
                total += frame_used - self.backing.used_bytes_of(block_id)
        return total

    def blocks_by_kind(self):
        return self.backing.blocks_by_kind()

    def iter_block_ids(self):
        return self.backing.iter_block_ids()

    def cache_bytes(self) -> int:
        """Total footprint of every level's pool (the chain's MO)."""
        return sum(level.space_bytes for level in self.hierarchy.levels)

    def reset_counters(self) -> None:
        """Zero the logical tallies and re-base the facade's clock on the
        hierarchy's, which keeps running: ``simulated_time`` reads 0.0."""
        super().reset_counters()
        self._clock_base = -self.hierarchy.simulated_time

    @property
    def counters(self) -> DeviceCounters:
        """Logical traffic tallies, priced with the hierarchy's clock.

        ``simulated_time`` is :attr:`MemoryHierarchy.simulated_time` —
        per-level AMAT plus the backing meter's priced traffic — so
        latency measured through this facade reflects where accesses
        were actually served, not a flat per-access cost (less the
        reading at the last :meth:`reset_counters`, if any).
        """
        seq_reads = self._seq_reads
        rand_reads = self._rand_reads
        seq_writes = self._seq_writes
        rand_writes = self._rand_writes
        reads = seq_reads + rand_reads
        writes = seq_writes + rand_writes
        block_bytes = self.block_bytes
        return DeviceCounters(
            reads,
            writes,
            reads * block_bytes,
            writes * block_bytes,
            self._allocations,
            self._frees,
            self._clock_base + self.hierarchy.simulated_time,
        )
