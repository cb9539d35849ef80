"""The instrumented block device.

:class:`SimulatedDevice` is the substrate under every access method in
this library.  It stores blocks in memory and counts every operation:

* ``reads`` / ``read_bytes`` — block reads and the bytes they move,
* ``writes`` / ``write_bytes`` — block writes and the bytes they move,
* ``allocations`` / ``frees`` — space churn,
* simulated time, charged through a :class:`CostModel` that distinguishes
  sequential from random access (the classic disk/flash asymmetry the
  paper discusses in Section 4).

The paper defines the three RUM overheads as ratios of data accessed,
written and stored (Section 2).  Counting simulated block traffic measures
exactly those quantities, free of the noise a real device would add —
this is the substitution recorded in DESIGN.md for the paper's hardware.

``read``/``write`` are the innermost loop of every experiment (~20 access
methods funnel every probe through them), so the device is written for
speed: ``__slots__`` layouts, counters kept as plain integer attributes
on the device (``counters`` materializes the same :class:`DeviceCounters`
view on demand), per-cost-model floats cached at assignment, a
sentinel-based sequential check and an O(1) running occupancy total.
The ``storage.device.*`` metrics of ``benchmarks/perf`` price this path.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.storage.block import Block, BlockId
from repro.storage.layout import DEFAULT_BLOCK_BYTES

try:  # optional accelerator for large write batches; pure-python otherwise
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI images
    _np = None

#: Below this batch size the per-item python loop beats the vectorized
#: write path (two array conversions dominate); above it numpy wins.
_VECTOR_MIN_BATCH = 512

#: Sentinel for the "block id that would count as sequential" trackers:
#: no allocated block ever has a negative id, so -1 never matches and a
#: fresh (or reset) device classifies its first access as random without
#: a separate ``is None`` test on the hot path.
_NO_SEQUENTIAL: BlockId = -1


@dataclass(frozen=True)
class CostModel:
    """Simulated access costs, in abstract time units per block.

    The defaults model a flash-like device: random reads cost the same as
    sequential reads, but writes are ~10x more expensive than reads.
    Presets for other points in the hierarchy are provided as
    classmethods; the hierarchy simulator (Figure 2) composes them.
    """

    sequential_read: float = 1.0
    random_read: float = 1.0
    sequential_write: float = 10.0
    random_write: float = 10.0

    @classmethod
    def dram(cls) -> "CostModel":
        """Symmetric, cheap accesses: main memory."""
        return cls(0.01, 0.01, 0.01, 0.01)

    @classmethod
    def flash(cls) -> "CostModel":
        """Read/write asymmetry, no seek penalty: an SSD."""
        return cls(1.0, 1.0, 10.0, 10.0)

    @classmethod
    def disk(cls) -> "CostModel":
        """Heavy penalty for random access: a rotational disk."""
        return cls(1.0, 100.0, 1.0, 100.0)

    @classmethod
    def shingled_disk(cls) -> "CostModel":
        """Rotational seek costs plus a write penalty: an SMR disk."""
        return cls(1.0, 100.0, 10.0, 1000.0)


class DeviceCounters:
    """Monotonic operation counters observed on a device.

    A plain ``__slots__`` class, not a dataclass — it is constructed for
    every :meth:`SimulatedDevice.snapshot`, which measured workloads take
    around each operation.  The interface (field names, :meth:`copy`,
    :meth:`delta`, equality) matches the previous dataclass; the *live*
    counts now live as integer attributes directly on the device, and
    ``device.counters`` materializes this view of them.
    """

    __slots__ = (
        "reads",
        "writes",
        "read_bytes",
        "write_bytes",
        "allocations",
        "frees",
        "simulated_time",
    )

    #: Field names, in :meth:`as_tuple` order.
    FIELDS = __slots__

    def __init__(
        self,
        reads: int = 0,
        writes: int = 0,
        read_bytes: int = 0,
        write_bytes: int = 0,
        allocations: int = 0,
        frees: int = 0,
        simulated_time: float = 0.0,
    ) -> None:
        self.reads = reads
        self.writes = writes
        self.read_bytes = read_bytes
        self.write_bytes = write_bytes
        self.allocations = allocations
        self.frees = frees
        self.simulated_time = simulated_time

    def as_tuple(self) -> Tuple[float, ...]:
        """Field values in :data:`FIELDS` order (monotonicity checks)."""
        return (
            self.reads,
            self.writes,
            self.read_bytes,
            self.write_bytes,
            self.allocations,
            self.frees,
            self.simulated_time,
        )

    def copy(self) -> "DeviceCounters":
        """An independent snapshot of the current counter values."""
        return type(self)(*self.as_tuple())

    def delta(self, earlier: "DeviceCounters") -> "IOStats":
        """Difference between this snapshot and an ``earlier`` one."""
        return IOStats(
            self.reads - earlier.reads,
            self.writes - earlier.writes,
            self.read_bytes - earlier.read_bytes,
            self.write_bytes - earlier.write_bytes,
            self.allocations - earlier.allocations,
            self.frees - earlier.frees,
            self.simulated_time - earlier.simulated_time,
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.FIELDS, self.as_tuple())
        )
        return f"{type(self).__name__}({fields})"


class IOStats(DeviceCounters):
    """Delta of device counters over some window of operations.

    A value (equal and hashable by content; do not mutate one) in
    :class:`DeviceCounters`' slotted layout: one is built for every
    measured window, where a frozen dataclass's keyword ``__init__``
    cost as much as the rest of a snapshot pair.
    """

    __slots__ = ()

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(*map(operator.add, self.as_tuple(), other.as_tuple()))

    def __hash__(self) -> int:
        return hash(self.as_tuple())


class SimulatedDevice:
    """An in-memory block store with full I/O instrumentation.

    Parameters
    ----------
    block_bytes:
        Size of every block, in bytes.  The unit of both I/O accounting
        and space accounting.
    cost_model:
        Latency model used to accrue ``simulated_time``.
    name:
        Label used in reports ("flash", "disk", "L2", ...).

    Notes
    -----
    Sequential vs random classification: an access is *sequential* when it
    targets the block id immediately following the previously accessed
    block id, mirroring how a real device amortizes seeks.

    The hot path maintains four plain integer attributes — sequential
    and random access counts for reads and for writes — and everything
    else (totals, byte counts, simulated time) is derived from them on
    demand; :attr:`counters` materializes the :class:`DeviceCounters`
    view, so the public accounting interface is unchanged.
    """

    __slots__ = (
        "block_bytes",
        "name",
        "tracer",
        "_trace_enabled",
        "_blocks",
        "_next_id",
        "_used_total",
        "_seq_read_id",
        "_seq_write_id",
        "_cost_model",
        "_cost_seq_read",
        "_cost_rand_read",
        "_cost_seq_write",
        "_cost_rand_write",
        "_seq_reads",
        "_rand_reads",
        "_seq_writes",
        "_rand_writes",
        "_allocations",
        "_frees",
        "_time_base",
    )

    def __init__(
        self,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        cost_model: Optional[CostModel] = None,
        name: str = "device",
    ) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.block_bytes = block_bytes
        self.cost_model = cost_model or CostModel.flash()
        self.name = name
        self.tracer = NULL_TRACER
        self._trace_enabled = False
        self._blocks: Dict[BlockId, Block] = {}
        self._next_id: BlockId = 0
        self._used_total = 0
        self._seq_read_id = _NO_SEQUENTIAL
        self._seq_write_id = _NO_SEQUENTIAL
        self._seq_reads = 0
        self._rand_reads = 0
        self._seq_writes = 0
        self._rand_writes = 0
        self._allocations = 0
        self._frees = 0
        self._time_base = 0.0

    @property
    def cost_model(self) -> CostModel:
        """The latency model.  Assigning a new one refreshes the cached
        per-operation costs the hot path reads."""
        return self._cost_model

    @cost_model.setter
    def cost_model(self, model: CostModel) -> None:
        old = getattr(self, "_cost_model", None)
        if old is not None:
            # Simulated time is derived as base + per-category counts x
            # current costs; re-base so time already accrued keeps its
            # old-cost valuation and only future accesses pay new costs.
            self._time_base += (
                self._seq_reads * (old.sequential_read - model.sequential_read)
                + self._rand_reads * (old.random_read - model.random_read)
                + self._seq_writes * (old.sequential_write - model.sequential_write)
                + self._rand_writes * (old.random_write - model.random_write)
            )
        self._cost_model = model
        self._cost_seq_read = model.sequential_read
        self._cost_rand_read = model.random_read
        self._cost_seq_write = model.sequential_write
        self._cost_rand_write = model.random_write

    @property
    def counters(self) -> DeviceCounters:
        """Current counter values as a :class:`DeviceCounters` snapshot.

        The hot path maintains only four per-category access counts
        (sequential/random x read/write); everything else is derived
        here.  ``read_bytes == reads * block_bytes`` because every access
        moves exactly one block, and ``simulated_time`` is the counts
        priced at the current cost model (plus the re-basing term kept by
        the ``cost_model`` setter).
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
            self._time_base
            + seq_reads * self._cost_seq_read
            + rand_reads * self._cost_rand_read
            + seq_writes * self._cost_seq_write
            + rand_writes * self._cost_rand_write,
        )

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer; every subsequent operation emits an event.

        Pass :data:`~repro.obs.tracer.NULL_TRACER` to disable again.
        """
        self.tracer = tracer
        self._trace_enabled = tracer.enabled

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, kind: str = "data") -> BlockId:
        """Allocate a fresh, empty block and return its id."""
        block_id = self._next_id
        self._next_id = block_id + 1
        self._blocks[block_id] = Block(block_id=block_id, kind=kind)
        self._allocations += 1
        if self._trace_enabled:
            self.tracer.emit(source=self.name, op="alloc", block_id=block_id, kind=kind)
        return block_id

    def free(self, block_id: BlockId) -> None:
        """Release a block.  Freed space no longer counts toward MO."""
        block = self._blocks.get(block_id)
        if block is None:
            raise KeyError(f"free of unallocated block {block_id}")
        del self._blocks[block_id]
        self._used_total -= block.used_bytes
        self._frees += 1
        if self._trace_enabled:
            self.tracer.emit(
                source=self.name, op="free", block_id=block_id, kind=block.kind
            )

    def is_allocated(self, block_id: BlockId) -> bool:
        """Whether ``block_id`` is currently allocated."""
        return block_id in self._blocks

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(self, block_id: BlockId) -> object:
        """Read a block's payload, charging one block of read I/O."""
        try:
            block = self._blocks[block_id]
        except KeyError:
            raise KeyError(f"read of unallocated block {block_id}") from None
        sequential = block_id == self._seq_read_id
        if sequential:
            self._seq_reads += 1
        else:
            self._rand_reads += 1
        self._seq_read_id = block_id + 1
        if self._trace_enabled:
            self.tracer.emit(
                source=self.name,
                op="read",
                block_id=block_id,
                kind=block.kind,
                sequential=sequential,
                cost=self._cost_seq_read if sequential else self._cost_rand_read,
                nbytes=self.block_bytes,
            )
        return block.payload

    def write(self, block_id: BlockId, payload: object, used_bytes: int = 0) -> None:
        """Write a block's payload, charging one block of write I/O.

        ``used_bytes`` declares the logical occupancy summed by
        :meth:`used_bytes`; the full block is charged regardless (minimum
        access granularity).
        """
        try:
            block = self._blocks[block_id]
        except KeyError:
            raise KeyError(f"write of unallocated block {block_id}") from None
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
        old_used = block.used_bytes
        if used_bytes != old_used:
            self._used_total += used_bytes - old_used
            block.used_bytes = used_bytes
        block.payload = payload
        if self._trace_enabled:
            self.tracer.emit(
                source=self.name,
                op="write",
                block_id=block_id,
                kind=block.kind,
                sequential=sequential,
                cost=self._cost_seq_write if sequential else self._cost_rand_write,
                nbytes=self.block_bytes,
            )

    def read_many(self, block_ids: Iterable[BlockId]) -> List[object]:
        """Read a sequence of blocks, committing bookkeeping once.

        Byte-identical to calling :meth:`read` per id — same sequential /
        random classification (each access is compared against the id
        following its predecessor), same counter totals, same trace
        events, and on a read of an unallocated block the same
        ``KeyError`` with every *preceding* read already counted.  The
        batched path exists purely to amortize python dispatch: counters
        are locals inside the loop and committed once at the end.
        """
        if self._trace_enabled:
            # The tracer observes individual accesses; delegate so the
            # event stream is identical to the per-op path.
            read = self.read
            return [read(block_id) for block_id in block_ids]
        blocks = self._blocks
        expected = self._seq_read_id
        seq = 0
        out: List[object] = []
        append = out.append
        block_id = _NO_SEQUENTIAL
        try:
            for block_id in block_ids:
                block = blocks[block_id]
                if block_id == expected:
                    seq += 1
                expected = block_id + 1
                append(block.payload)
        except KeyError:
            raise KeyError(f"read of unallocated block {block_id}") from None
        finally:
            # Runs on both exits: the failed access raised before
            # touching the locals, so this commits exactly the
            # successfully-read prefix.
            self._seq_reads += seq
            self._rand_reads += len(out) - seq
            self._seq_read_id = expected
        return out

    def write_many(
        self,
        block_ids: Sequence[BlockId],
        payloads: Sequence[object],
        used_bytes: Sequence[int],
    ) -> None:
        """Write a sequence of blocks, committing bookkeeping once.

        Byte-identical to calling :meth:`write` per position — same
        sequential / random classification, same occupancy total, same
        trace events, and on an invalid position (unallocated block,
        out-of-range ``used_bytes``) the same exception with every
        preceding write already applied and counted.

        Large batches take a vectorized path (when numpy is available)
        that classifies sequentiality in C and applies only each block's
        *final* state — legitimate because no read can interleave within
        a batch, so intermediate payloads are unobservable and the
        occupancy deltas telescope.  The path only engages after
        validating the whole batch; anything suspect falls back to the
        loop below, which is the semantics reference.
        """
        n = len(block_ids)
        if len(payloads) != n or len(used_bytes) != n:
            raise ValueError(
                "write_many requires equal-length id/payload/used sequences"
            )
        if n == 0:
            return
        if self._trace_enabled:
            write = self.write
            for block_id, payload, used in zip(block_ids, payloads, used_bytes):
                write(block_id, payload, used)
            return
        if (
            _np is not None
            and n >= _VECTOR_MIN_BATCH
            and self._write_many_vectorized(block_ids, payloads, used_bytes, n)
        ):
            return
        blocks = self._blocks
        capacity = self.block_bytes
        expected = self._seq_write_id
        seq = 0
        done = 0
        delta = 0
        try:
            for block_id, payload, used in zip(block_ids, payloads, used_bytes):
                try:
                    block = blocks[block_id]
                except KeyError:
                    raise KeyError(
                        f"write of unallocated block {block_id}"
                    ) from None
                if not 0 <= used <= capacity:
                    raise ValueError(
                        f"used_bytes {used} outside block capacity {capacity}"
                    )
                if block_id == expected:
                    seq += 1
                expected = block_id + 1
                delta += used - block.used_bytes
                block.used_bytes = used
                block.payload = payload
                done += 1
        finally:
            # Commits the successfully-written prefix on error, the whole
            # batch on success.
            self._seq_writes += seq
            self._rand_writes += done - seq
            self._seq_write_id = expected
            self._used_total += delta

    def _write_many_vectorized(
        self,
        block_ids: Sequence[BlockId],
        payloads: Sequence[object],
        used_bytes: Sequence[int],
        n: int,
    ) -> bool:
        """Validate-then-commit fast path for large write batches.

        Returns ``False`` without touching any state when the batch is
        not provably valid (so the caller's reference loop replays it and
        raises at the exact failing position); returns ``True`` after
        committing the whole batch.  ``BlockId`` is ``int`` by contract —
        the int64 conversion here is exact for every in-contract id.
        """
        try:
            ids = _np.fromiter(block_ids, _np.int64, n)
            used = _np.fromiter(used_bytes, _np.float64, n)
        except (TypeError, ValueError, OverflowError):
            return False
        if float(used.min()) < 0 or float(used.max()) > self.block_bytes:
            return False
        if int(ids.min()) < 0:
            return False
        blocks = self._blocks
        high = int(ids.max())
        if high < max(4 * n, 1 << 16):
            # Dense ids: last-occurrence per block via fancy assignment
            # (later positions overwrite earlier ones).
            lastpos = _np.full(high + 1, -1, _np.int64)
            lastpos[ids] = _np.arange(n)
            touched = _np.flatnonzero(lastpos >= 0)
            distinct = touched.tolist()
            final = list(zip(distinct, lastpos[touched].tolist()))
        else:
            # Sparse ids: a dict pass keyed by the original ids.
            lastidx = dict(zip(block_ids, range(n)))
            distinct = list(lastidx)
            final = list(lastidx.items())
        if not all(map(blocks.__contains__, distinct)):
            return False
        delta = 0
        for block_id, position in final:
            block = blocks[block_id]
            value = used_bytes[position]
            delta += value - block.used_bytes
            block.used_bytes = value
            block.payload = payloads[position]
        seq = int((ids[1:] == ids[:-1] + 1).sum())
        if block_ids[0] == self._seq_write_id:
            seq += 1
        self._seq_writes += seq
        self._rand_writes += n - seq
        self._seq_write_id = block_ids[-1] + 1
        self._used_total += delta
        return True

    def peek(self, block_id: BlockId) -> object:
        """Read a payload *without* charging I/O.

        Only for assertions and debugging; access methods must never use
        this on their hot paths.
        """
        block = self._blocks.get(block_id)
        if block is None:
            raise KeyError(f"peek of unallocated block {block_id}")
        return block.payload

    def kind_of(self, block_id: BlockId) -> str:
        """A block's allocation ``kind`` tag, without charging I/O."""
        block = self._blocks.get(block_id)
        if block is None:
            raise KeyError(f"kind_of unallocated block {block_id}")
        return block.kind

    def used_bytes_of(self, block_id: BlockId) -> int:
        """A block's declared logical occupancy, without charging I/O."""
        block = self._blocks.get(block_id)
        if block is None:
            raise KeyError(f"used_bytes_of unallocated block {block_id}")
        return block.used_bytes

    def sync_through(self, block_ids: Iterable[BlockId]) -> int:
        """No-op on a bare device: every completed write is durable."""
        return 0

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    @property
    def allocated_blocks(self) -> int:
        """Number of currently allocated blocks."""
        return len(self._blocks)

    @property
    def allocated_bytes(self) -> int:
        """Total space currently occupied, in bytes (blocks x block size)."""
        return len(self._blocks) * self.block_bytes

    def used_bytes(self) -> int:
        """Sum of declared logical occupancy across all blocks.

        O(1): a running total maintained on every write and free, rather
        than a sum over the block table — space sampling happens inside
        measured workloads (``RUMAccumulator.sample_space``), so it must
        not scale with the dataset.
        """
        return self._used_total

    def blocks_by_kind(self) -> Dict[str, int]:
        """Histogram of allocated block counts keyed by their ``kind`` tag."""
        return dict(Counter(block.kind for block in self._blocks.values()))

    def iter_block_ids(self) -> Iterator[BlockId]:
        """Iterate over currently allocated block ids (no I/O charged)."""
        return iter(list(self._blocks.keys()))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> DeviceCounters:
        """Capture the current counter values (for later ``delta``)."""
        return self.counters

    def stats_since(self, snapshot: DeviceCounters) -> IOStats:
        """I/O performed since ``snapshot`` was taken."""
        return self.counters.delta(snapshot)

    def reset_counters(self) -> None:
        """Zero the operation counters (allocation state is untouched)."""
        self._seq_reads = 0
        self._rand_reads = 0
        self._seq_writes = 0
        self._rand_writes = 0
        self._allocations = 0
        self._frees = 0
        self._time_base = 0.0
        self._seq_read_id = _NO_SEQUENTIAL
        self._seq_write_id = _NO_SEQUENTIAL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedDevice(name={self.name!r}, block_bytes={self.block_bytes}, "
            f"blocks={self.allocated_blocks}, "
            f"reads={self._seq_reads + self._rand_reads}, "
            f"writes={self._seq_writes + self._rand_writes})"
        )
