"""Buffer pool over any block store.

The buffer pool is the mechanism through which the *vertical* view of the
RUM tradeoffs (paper, Figure 2) materializes: caching blocks at a faster
level reduces the read/update traffic that reaches the level below, at the
price of memory overhead at the caching level.

The pool targets any :class:`~repro.storage.store.BlockStore` — a
:class:`~repro.storage.device.SimulatedDevice`, a fault-injecting proxy,
or *another pool* — which is what lets
:class:`~repro.storage.hierarchy.MemoryHierarchy` build a genuinely
chained stack: each level's pool sits on the level below it, so misses
read through one level at a time and dirty evictions land in the next
level down rather than teleporting to the backing device.  The pool
itself satisfies :class:`~repro.storage.store.BlockStore`.

Two write policies are supported:

* *write-back* (default): writes dirty a frame; the store below sees
  them only on eviction or flush.
* *write-through*: writes update the frame (kept clean) **and** pass
  down immediately.

and two admission modes:

* *admit on read* (default, inclusive caching): read misses install the
  fetched block.
* *no admit on read* (exclusive victim-fill caching): read misses pass
  through uncached; the pool holds only blocks pushed into it —
  write-backs from above and clean victims offered via
  :meth:`fill_clean`.

Besides hit/miss statistics the pool counts its *outgoing* traffic
(``stats.demand_reads``, ``stats.downstream_writes``), which is what the
hierarchy's conservation audit compares against the next level's
incoming counts.

Eviction is least-recently-used, and deterministic so experiments are
reproducible.  The frame table is one ``OrderedDict`` kept in LRU order:
a hit moves its frame to the end, a new frame enters at the end, and the
victim is the first frame.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

from repro.obs.spans import span, spanned
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.storage.block import BlockId
from repro.storage.store import BlockStore


@dataclass
class PoolStats:
    """Hit/miss and outgoing-traffic statistics of a buffer pool.

    ``demand_reads`` counts reads the pool issued to the store below
    (one per read miss); ``downstream_writes`` counts writes issued
    below from any cause — dirty-eviction write-backs, flush
    write-backs, write-through propagation and capacity-0 pass-through.
    The hierarchy's conservation audit checks these against the next
    level's incoming traffic.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    write_backs: int = 0
    demand_reads: int = 0
    downstream_writes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class _Frame:
    __slots__ = ("payload", "used_bytes", "dirty")

    def __init__(self, payload: object, used_bytes: int, dirty: bool) -> None:
        self.payload = payload
        self.used_bytes = used_bytes
        self.dirty = dirty


@dataclass(frozen=True)
class FrameView:
    """Read-only view of one cached frame, for audits and space reports."""

    block_id: BlockId
    payload: object
    used_bytes: int
    dirty: bool


class BufferPool:
    """Block cache of fixed capacity over any :class:`BlockStore`.

    Reads and writes of cached blocks are served from the pool without
    touching the underlying store; misses read through, and evictions of
    dirty frames write back.  ``capacity_blocks == 0`` degenerates to a
    pass-through (every access reaches the store below), which is the
    "no memory overhead at level n-1" end of Figure 2.

    Parameters
    ----------
    device:
        The store below — a device, a proxy, or another pool.
    capacity_blocks:
        Frame budget; 0 degenerates to pass-through.
    write_through:
        When true, writes keep their frame clean and propagate down
        immediately instead of waiting for eviction/flush.
    admit_on_read:
        When false (exclusive victim-fill caching), read misses pass
        through without installing a frame; only writes and
        :meth:`fill_clean` populate the pool.
    """

    def __init__(
        self,
        device: BlockStore,
        capacity_blocks: int,
        *,
        write_through: bool = False,
        admit_on_read: bool = True,
    ) -> None:
        if capacity_blocks < 0:
            raise ValueError("capacity_blocks must be non-negative")
        self.device = device
        self.capacity_blocks = capacity_blocks
        self.write_through = write_through
        self.admit_on_read = admit_on_read
        self.stats = PoolStats()
        self.name = f"pool({device.name})"
        self.tracer: Tracer = NULL_TRACER
        #: Optional sink for *clean* victims (exclusive victim-fill
        #: caching): when set, a clean evicted frame is offered to it via
        #: ``accept_victim(block_id, payload, used_bytes)`` instead of
        #: being dropped.  Dirty victims always write back normally.
        self.victim_store = None
        #: Frames in LRU order, least recently used first.
        self._frames: "OrderedDict[BlockId, _Frame]" = OrderedDict()

    @property
    def block_bytes(self) -> int:
        """Block granularity, inherited from the store below."""
        return self.device.block_bytes

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer; evictions and write-backs emit events."""
        self.tracer = tracer

    # ------------------------------------------------------------------
    def read(self, block_id: BlockId) -> object:
        """Read through the cache."""
        frame = self._frames.get(block_id)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(block_id)
            return frame.payload
        self.stats.misses += 1
        self.stats.demand_reads += 1
        return self._miss_read(block_id)

    @spanned("pool.miss")
    def _miss_read(self, block_id: BlockId) -> object:
        """Serve a read miss: fetch from below and (maybe) admit."""
        payload = self.device.read(block_id)
        if self.admit_on_read:
            # Carry the block's true occupancy so a write-back of a
            # read-admitted-then-evicted frame (and mid-run space
            # statistics) report the real used_bytes, not zero.
            self._admit(
                block_id,
                payload,
                used_bytes=self.device.used_bytes_of(block_id),
                dirty=False,
            )
        return payload

    def write(self, block_id: BlockId, payload: object, used_bytes: int = 0) -> None:
        """Write into the cache.

        Under write-back the store below only sees the write when the
        frame is evicted or the pool is flushed; under write-through the
        write also propagates down immediately and the frame stays clean.
        """
        dirty = not self.write_through
        frame = self._frames.get(block_id)
        if frame is not None:
            self.stats.hits += 1
            frame.payload = payload
            frame.used_bytes = used_bytes
            frame.dirty = dirty
            self._frames.move_to_end(block_id)
        else:
            self.stats.misses += 1
            if self.capacity_blocks == 0:
                self.stats.downstream_writes += 1
                self.device.write(block_id, payload, used_bytes)
                return
            self._admit(block_id, payload, used_bytes=used_bytes, dirty=dirty)
        if self.write_through:
            self.stats.downstream_writes += 1
            self.device.write(block_id, payload, used_bytes)

    def flush(self) -> None:
        """Write back every dirty frame (frames stay cached, now clean)."""
        with span("pool.write_back"):
            for block_id in sorted(self._frames):
                frame = self._frames[block_id]
                if frame.dirty:
                    self.stats.downstream_writes += 1
                    self.device.write(block_id, frame.payload, frame.used_bytes)
                    self.stats.write_backs += 1
                    frame.dirty = False
                    if self.tracer.enabled:
                        self.tracer.emit(
                            source=self.name,
                            op="write_back",
                            block_id=block_id,
                            nbytes=self.device.block_bytes,
                        )

    def sync_through(self, block_ids: Iterable[BlockId]) -> int:
        """Force the named blocks down through every level (modeled fsync).

        Writes back this pool's dirty frames for ``block_ids`` (frames
        stay cached, now clean — flush-by-id) and then recurses into the
        store below, so a block dirty at *any* depth reaches the backing
        device.  Unlike :meth:`flush` this targets only the named
        blocks: the WAL's fsync must not pay for (or force) unrelated
        dirty data pages.  Returns the number of frames written back
        across all levels.
        """
        ids = list(block_ids)
        written = 0
        with span("pool.write_back"):
            for block_id in ids:
                frame = self._frames.get(block_id)
                if frame is None or not frame.dirty:
                    continue
                self.stats.downstream_writes += 1
                self.device.write(block_id, frame.payload, frame.used_bytes)
                self.stats.write_backs += 1
                frame.dirty = False
                written += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        source=self.name,
                        op="write_back",
                        block_id=block_id,
                        nbytes=self.device.block_bytes,
                    )
        # Cascade unconditionally: a block may be clean (or absent)
        # here yet dirty in a pool further down.
        return written + self.device.sync_through(ids)

    def peek(self, block_id: BlockId) -> object:
        """A block's current payload without I/O, stats or LRU updates.

        Serves the cached frame when present (it may be dirty and newer
        than the copy below), otherwise falls through to the store's own
        ``peek``.  Debugging/assertion aid, like
        :meth:`~repro.storage.device.SimulatedDevice.peek`.
        """
        frame = self._frames.get(block_id)
        if frame is not None:
            return frame.payload
        return self.device.peek(block_id)

    def used_bytes_of(self, block_id: BlockId) -> int:
        """Declared occupancy, preferring the cached frame's, no I/O."""
        frame = self._frames.get(block_id)
        if frame is not None:
            return frame.used_bytes
        return self.device.used_bytes_of(block_id)

    def contains(self, block_id: BlockId) -> bool:
        """Whether a frame for ``block_id`` is cached (no side effects)."""
        return block_id in self._frames

    def fill_clean(self, block_id: BlockId, payload: object, used_bytes: int) -> None:
        """Install a *clean* frame without counting a hit or a miss.

        The entry point for exclusive victim-fill caching: the level
        above offers its clean victims here.  Admitting into a full pool
        still evicts (and write-backs charge) normally.  A no-op when the
        block is already cached — the resident copy may be dirty and
        newer than the offered one.
        """
        if self.capacity_blocks == 0 or block_id in self._frames:
            return
        self._admit(block_id, payload, used_bytes=used_bytes, dirty=False)

    def iter_frames(self) -> Iterator[FrameView]:
        """Read-only views of every cached frame, for audits.

        Frames come in LRU order, least recently used first.  The public
        replacement for reaching into the frame table;
        ``tools/lint_counters.py`` rejects ``._frames`` access outside
        this module.
        """
        for block_id, frame in self._frames.items():
            yield FrameView(
                block_id=block_id,
                payload=frame.payload,
                used_bytes=frame.used_bytes,
                dirty=frame.dirty,
            )

    def iter_dirty(self) -> Iterator[Tuple[BlockId, int]]:
        """Yield ``(block_id, used_bytes)`` for each dirty frame.

        Lets callers account unflushed occupancy (space statistics mid-run)
        without reaching into the frame table.
        """
        for block_id, frame in self._frames.items():
            if frame.dirty:
                yield block_id, frame.used_bytes

    def invalidate(self, block_id: BlockId) -> None:
        """Drop a block from the cache without writing it back.

        Used when the owner frees the block on the device.
        """
        self._frames.pop(block_id, None)

    @property
    def cached_blocks(self) -> int:
        return len(self._frames)

    @property
    def dirty_blocks(self) -> int:
        """Number of frames holding unflushed writes."""
        return sum(1 for frame in self._frames.values() if frame.dirty)

    @property
    def cached_bytes(self) -> int:
        """Space consumed by the cache, for MO accounting at this level."""
        return len(self._frames) * self.device.block_bytes

    # ------------------------------------------------------------------
    def _admit(
        self, block_id: BlockId, payload: object, used_bytes: int, dirty: bool
    ) -> None:
        if self.capacity_blocks == 0:
            return
        while len(self._frames) >= self.capacity_blocks:
            self._evict_victim()
        self._frames[block_id] = _Frame(payload, used_bytes, dirty)

    @spanned("pool.evict")
    def _evict_victim(self) -> None:
        victim, victim_frame = self._frames.popitem(last=False)
        self.stats.evictions += 1
        if self.tracer.enabled:
            self.tracer.emit(source=self.name, op="evict", block_id=victim)
        if victim_frame.dirty:
            with span("pool.write_back"):
                self.stats.downstream_writes += 1
                self.device.write(victim, victim_frame.payload, victim_frame.used_bytes)
                self.stats.write_backs += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        source=self.name,
                        op="write_back",
                        block_id=victim,
                        nbytes=self.device.block_bytes,
                    )
        elif self.victim_store is not None:
            self.victim_store.accept_victim(
                victim, victim_frame.payload, victim_frame.used_bytes
            )
