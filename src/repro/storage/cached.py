"""A device wrapper that interposes a buffer pool.

:class:`CachedDevice` presents the :class:`SimulatedDevice` interface
while serving reads and writes through a
:class:`~repro.storage.pager.BufferPool` over a backing device.  Any
access method can be constructed on top of it unchanged, which is how
the Figure-2 benchmark runs a *real structure* (not raw block traffic)
against a memory hierarchy: the method sees cheap cached accesses, the
backing device's counters show the traffic that actually reached the
slow level, and the pool's footprint is the memory overhead paid for
the difference.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.tracer import Tracer
from repro.storage.block import BlockId
from repro.storage.device import CostModel, DeviceCounters, IOStats, SimulatedDevice
from repro.storage.pager import BufferPool


class CachedDevice(SimulatedDevice):
    """A buffer pool masquerading as a device.

    Parameters
    ----------
    backing:
        The slow device that owns the blocks.
    capacity_blocks:
        Pool capacity at the fast level; 0 degenerates to pass-through.

    Notes
    -----
    * ``counters`` on *this* object record the traffic the access method
      issued (the logical I/O); ``backing.counters`` record what reached
      the slow level (the physical I/O).
    * Space accounting (``allocated_bytes`` etc.) delegates to the
      backing device; :meth:`cache_bytes` reports the fast level's
      footprint.
    """

    __slots__ = ("backing", "pool")

    def __init__(self, backing: SimulatedDevice, capacity_blocks: int) -> None:
        super().__init__(
            block_bytes=backing.block_bytes,
            cost_model=CostModel.dram(),
            name=f"cached({backing.name})",
        )
        self.backing = backing
        self.pool = BufferPool(backing, capacity_blocks)

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to this device, its pool and the backing device.

        One tracer sees the whole vertical slice: logical traffic from
        this device, evictions/write-backs from the pool, and physical
        traffic from the backing device, all in one ordered stream.
        """
        super().set_tracer(tracer)
        self.pool.set_tracer(tracer)
        self.backing.set_tracer(tracer)

    # ------------------------------------------------------------------
    # Allocation delegates to the backing device.
    # ------------------------------------------------------------------
    def allocate(self, kind: str = "data") -> BlockId:
        self._allocations += 1
        return self.backing.allocate(kind)

    def free(self, block_id: BlockId) -> None:
        self._frees += 1
        self.pool.invalidate(block_id)
        self.backing.free(block_id)

    def is_allocated(self, block_id: BlockId) -> bool:
        """Whether ``block_id`` is live on the backing device."""
        return self.backing.is_allocated(block_id)

    # ------------------------------------------------------------------
    # I/O goes through the pool.
    # ------------------------------------------------------------------
    def read(self, block_id: BlockId) -> object:
        """Read through the pool, with the base class's seek classification.

        A logically sequential scan is sequential *at this level* no
        matter which frames hit: the classification follows the request
        stream, as on the base device.
        """
        sequential = block_id == self._seq_read_id
        if sequential:
            self._seq_reads += 1
        else:
            self._rand_reads += 1
        self._seq_read_id = block_id + 1
        payload = self.pool.read(block_id)
        if self._trace_enabled:
            self.tracer.emit(
                source=self.name,
                op="read",
                block_id=block_id,
                kind=self.backing.kind_of(block_id),
                sequential=sequential,
                cost=self._cost_seq_read if sequential else self._cost_rand_read,
                nbytes=self.block_bytes,
            )
        return payload

    def write(self, block_id: BlockId, payload: object, used_bytes: int = 0) -> None:
        """Write through the pool, validating occupancy at the call site.

        ``used_bytes`` is checked against the block capacity here, like
        the base class does — an out-of-range value must fail on the
        write that produced it, not later when the pool evicts or
        flushes the frame.
        """
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
        self.pool.write(block_id, payload, used_bytes)
        if self._trace_enabled:
            self.tracer.emit(
                source=self.name,
                op="write",
                block_id=block_id,
                kind=self.backing.kind_of(block_id),
                sequential=sequential,
                cost=self._cost_seq_write if sequential else self._cost_rand_write,
                nbytes=self.block_bytes,
            )

    def peek(self, block_id: BlockId) -> object:
        """Current payload (cached frame first), without charging I/O."""
        return self.pool.peek(block_id)

    def kind_of(self, block_id: BlockId) -> str:
        """The backing block's ``kind`` tag, without charging I/O."""
        return self.backing.kind_of(block_id)

    def used_bytes_of(self, block_id: BlockId) -> int:
        """Declared occupancy, preferring an unflushed frame's.

        Mirrors :meth:`used_bytes`: while a dirty frame sits in the
        pool the backing block's occupancy is stale, and audits compare
        per-block occupancies against the dirty-aware total.
        """
        return self.pool.used_bytes_of(block_id)

    def flush(self) -> None:
        """Write every dirty cached frame down to the backing device."""
        self.pool.flush()

    def sync_through(self, block_ids: Iterable[BlockId]) -> int:
        """Force the named blocks through the pool to the backing device."""
        return self.pool.sync_through(block_ids)

    # ------------------------------------------------------------------
    # Space accounting delegates to the backing store.
    # ------------------------------------------------------------------
    @property
    def allocated_blocks(self) -> int:
        return self.backing.allocated_blocks

    @property
    def allocated_bytes(self) -> int:
        return self.backing.allocated_bytes

    def used_bytes(self) -> int:
        """Logical occupancy including unflushed dirty frames.

        The backing device's per-block occupancy is stale while a dirty
        frame sits in the pool, so mid-run MO reads would be too: each
        dirty frame's declared occupancy replaces the backing block's.
        """
        total = self.backing.used_bytes()
        for block_id, frame_used in self.pool.iter_dirty():
            total += frame_used - self.backing.used_bytes_of(block_id)
        return total

    def blocks_by_kind(self):
        return self.backing.blocks_by_kind()

    def iter_block_ids(self):
        return self.backing.iter_block_ids()

    def cache_bytes(self) -> int:
        """Fast-level footprint: the MO_{n-1} of Figure 2."""
        return self.pool.cached_bytes

    def hit_rate(self) -> float:
        """Fraction of pool accesses served without backing I/O."""
        return self.pool.stats.hit_rate
