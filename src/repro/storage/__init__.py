"""Simulated storage substrate.

Every access method in :mod:`repro.methods` is built on top of a
:class:`~repro.storage.device.SimulatedDevice`: an in-memory block store
that counts every block read, write and allocation.  The RUM overheads of
the paper (read/write/space amplification) are *measured* as ratios of
these counters, exactly following the definitions in Section 2 of the
paper.

Modules
-------
``block``
    Block objects and block-size arithmetic.
``device``
    The instrumented block device and its I/O counters / cost model.
``layout``
    Record sizing shared by every access method (fixed-size integer
    key/value records, as in the paper's base-data model).
``store``
    The :class:`BlockStore` protocol every storage layer satisfies, so
    pools stack on devices, proxies, or other pools interchangeably.
``pager``
    A buffer pool layered over any block store; its frame table is
    one ``OrderedDict`` kept in LRU order (the eviction order).
``hierarchy``
    A chained multi-level memory-hierarchy simulator (Figure 2
    substrate): each level's pool targets the level below it, and
    ``HierarchicalDevice`` mounts it as a device any method runs on.
"""

from repro.storage.block import Block, BlockId
from repro.storage.device import CostModel, DeviceCounters, IOStats, SimulatedDevice
from repro.storage.hierarchy import (
    EXCLUSIVE,
    INCLUSIVE,
    WRITE_BACK,
    WRITE_THROUGH,
    HierarchyLevel,
    LevelCounters,
    LevelSpec,
    MemoryHierarchy,
)
from repro.storage.store import BlockStore
from repro.storage.layout import (
    KEY_BYTES,
    POINTER_BYTES,
    RECORD_BYTES,
    VALUE_BYTES,
    records_per_block,
)
from repro.storage.pager import BufferPool

__all__ = [
    "Block",
    "BlockId",
    "BlockStore",
    "BufferPool",
    "CostModel",
    "DeviceCounters",
    "EXCLUSIVE",
    "HierarchyLevel",
    "INCLUSIVE",
    "IOStats",
    "KEY_BYTES",
    "LevelCounters",
    "LevelSpec",
    "MemoryHierarchy",
    "POINTER_BYTES",
    "RECORD_BYTES",
    "SimulatedDevice",
    "VALUE_BYTES",
    "WRITE_BACK",
    "WRITE_THROUGH",
    "records_per_block",
]
