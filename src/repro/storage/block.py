"""Block objects for the simulated device.

A block is the unit of I/O and of space allocation.  Its ``payload`` is an
arbitrary Python object chosen by the owning access method (a list of
records, a node struct, a bitmap chunk, ...); what matters for RUM
accounting is that *reading or writing a block always costs one block of
I/O* and that *an allocated block always occupies one block of space*,
exactly as on a real device with a minimum access granularity (the paper's
"fundamental assumption that data has a minimum access granularity").
"""

from __future__ import annotations

from typing import Any

#: Block identifiers are plain integers handed out by the device.
BlockId = int


class Block:
    """One allocated block on a :class:`~repro.storage.device.SimulatedDevice`.

    A ``__slots__`` class rather than a dataclass: devices hold one
    instance per allocated block and touch its attributes on every
    simulated I/O, so the slot layout (no per-instance ``__dict__``)
    measurably shrinks and speeds the simulator hot path (priced by
    the ``storage.device.*`` metrics of ``benchmarks/perf``).

    Attributes
    ----------
    block_id:
        Device-assigned identifier.
    payload:
        The structure-specific contents.  ``None`` until first written.
    used_bytes:
        Logical bytes in use inside the block, declared by the owner on
        each write.  Summed into the device's ``used_bytes()``; space
        accounting always charges the full block.
    kind:
        Free-form tag ("leaf", "run", "bucket", ...) used by statistics
        and debugging output.
    """

    __slots__ = ("block_id", "payload", "used_bytes", "kind")

    def __init__(
        self,
        block_id: BlockId,
        payload: Any = None,
        used_bytes: int = 0,
        kind: str = "data",
    ) -> None:
        self.block_id = block_id
        self.payload = payload
        self.used_bytes = used_bytes
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block(block_id={self.block_id!r}, payload={self.payload!r}, "
            f"used_bytes={self.used_bytes!r}, kind={self.kind!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return (
            self.block_id == other.block_id
            and self.payload == other.payload
            and self.used_bytes == other.used_bytes
            and self.kind == other.kind
        )
