"""The ``BlockStore`` protocol: anything a buffer pool can sit on.

The memory-hierarchy simulator (Figure 2) composes storage components
vertically: a :class:`~repro.storage.pager.BufferPool` over a
:class:`~repro.storage.device.SimulatedDevice`, a pool over another
pool, a pool over a fault-injecting proxy.  For that composition to be
*genuinely chained* — misses, write-backs and flushes cascading level by
level instead of teleporting to the backing device — every layer must
speak the same small interface.  This module names it.

A :class:`BlockStore` is the read/write surface of one storage layer:

``read(block_id)``
    Return a block's payload, charging whatever that layer charges.
``write(block_id, payload, used_bytes=0)``
    Replace a block's payload, declaring its logical occupancy.
``peek(block_id)``
    The current payload without I/O, stats or policy effects —
    the layer's *newest* copy (a dirty cached frame beats the copy
    below it).  Debugging/audit surface only.
``used_bytes_of(block_id)``
    The block's declared logical occupancy, without charging I/O,
    preferring an unflushed dirty frame's value where one exists.
``sync_through(block_ids)``
    Force the named blocks' dirty frames down *through every level* to
    the ultimate backing device — the modeled ``fsync``.  Each layer
    writes back its own dirty frames for those blocks (charging the
    level below normally) and then recurses into the store it sits on,
    so the push can never skip an intermediate level.  On a device,
    writes are already durable and this is a no-op.
``block_bytes`` / ``name``
    The block granularity and a label for traces and reports.

:class:`~repro.storage.device.SimulatedDevice` satisfies it natively,
:class:`~repro.storage.pager.BufferPool` satisfies it so pools stack,
and the device wrappers (:class:`~repro.storage.hierarchy.HierarchicalDevice`,
:class:`~repro.check.faults.FaultyDevice`) satisfy it by inheritance —
so a hierarchy level can sit on any of them interchangeably.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from repro.storage.block import BlockId


@runtime_checkable
class BlockStore(Protocol):
    """Structural interface of one storage layer (see module docstring)."""

    @property
    def block_bytes(self) -> int:
        """Block granularity of this store, in bytes."""
        ...  # pragma: no cover - protocol

    @property
    def name(self) -> str:
        """Label used in traces and reports."""
        ...  # pragma: no cover - protocol

    def read(self, block_id: BlockId) -> object:
        """Read a block's payload through this layer."""
        ...  # pragma: no cover - protocol

    def write(self, block_id: BlockId, payload: object, used_bytes: int = 0) -> None:
        """Write a block's payload through this layer."""
        ...  # pragma: no cover - protocol

    def peek(self, block_id: BlockId) -> object:
        """The layer's newest copy of a block, without charging I/O."""
        ...  # pragma: no cover - protocol

    def used_bytes_of(self, block_id: BlockId) -> int:
        """Declared logical occupancy of a block, without charging I/O."""
        ...  # pragma: no cover - protocol

    def sync_through(self, block_ids: Iterable[BlockId]) -> int:
        """Force the named blocks through every level to durable storage.

        Returns the number of dirty frames written back along the way
        (0 on a bare device, where every write is already durable).
        """
        ...  # pragma: no cover - protocol


@runtime_checkable
class LogStore(BlockStore, Protocol):
    """A :class:`BlockStore` that also owns block allocation.

    The surface :class:`~repro.serve.wal.WriteAheadLog` needs: the data
    path of ``BlockStore`` plus the allocator/catalog calls a log uses
    to create, retire and rediscover its blocks.  Satisfied by
    :class:`~repro.storage.device.SimulatedDevice` and its wrappers
    (:class:`~repro.storage.hierarchy.HierarchicalDevice`,
    :class:`~repro.check.faults.FaultyDevice`).
    """

    def allocate(self, kind: str = "data") -> BlockId:
        """Allocate a fresh block tagged ``kind``."""
        ...  # pragma: no cover - protocol

    def free(self, block_id: BlockId) -> None:
        """Release a block (and drop any cached frames for it)."""
        ...  # pragma: no cover - protocol

    def kind_of(self, block_id: BlockId) -> str:
        """A block's allocation ``kind`` tag, without charging I/O."""
        ...  # pragma: no cover - protocol

    def iter_block_ids(self) -> Iterable[BlockId]:
        """Iterate over currently allocated block ids (no I/O)."""
        ...  # pragma: no cover - protocol
