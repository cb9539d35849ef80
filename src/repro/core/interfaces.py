"""The access-method interface.

The paper defines an access method as "algorithms and data structures for
organizing and accessing data" and analyzes them over a workload of point
queries, range queries, inserts, updates and deletes on fixed-size records
(Section 2).  :class:`AccessMethod` is that contract: every structure in
:mod:`repro.methods` implements it on top of an instrumented
:class:`~repro.storage.device.SimulatedDevice`, so the three RUM
overheads can be measured uniformly for all of them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Tuple

from repro.storage.block import BlockId
from repro.storage.device import SimulatedDevice
from repro.storage.layout import DEFAULT_BLOCK_BYTES, RECORD_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.workloads.spec import Operation

Record = Tuple[int, int]

#: Block kinds that are bulk-load scratch space: they must never survive
#: past the operation that allocated them.  The device-level audit
#: reports any that do as a leak.
TEMP_BLOCK_KINDS = frozenset({"sort-run"})


@dataclass(frozen=True)
class Capabilities:
    """What a structure supports; the wizard and test harness consult this.

    ``ordered``           — supports efficient range queries.
    ``updatable``         — supports inserts/updates/deletes after load.
    ``duplicates``        — tolerates duplicate keys (we require unique).
    ``adaptive``          — reorganizes itself in response to queries.
    ``checks_duplicates`` — ``insert`` detects an existing key and raises
        :class:`ValueError`.  Structures whose layout makes the check
        free (trees, logs with membership state) do it; heap-like
        structures do not — detecting would cost a full scan per insert,
        which is precisely why real heap files leave uniqueness to an
        index.  Inserting a duplicate into a non-checking structure is
        undefined behaviour, as in those real systems.
    """

    ordered: bool = True
    updatable: bool = True
    duplicates: bool = False
    adaptive: bool = False
    checks_duplicates: bool = True


@dataclass
class MethodStats:
    """Summary snapshot of a method's size and space usage."""

    name: str
    records: int
    base_bytes: int
    space_bytes: int
    allocated_blocks: int

    @property
    def space_amplification(self) -> float:
        """MO: total space over base-data space (paper Section 2)."""
        if self.base_bytes == 0:
            return float("inf") if self.space_bytes else 1.0
        return self.space_bytes / self.base_bytes


class AccessMethod(ABC):
    """Abstract base class of every access method in the library.

    Subclasses must implement the five workload operations plus
    :meth:`space_bytes`.  Keys are unique integers; values are integers.
    All persistent state must live in blocks of ``self.device`` so that
    I/O and space accounting are accurate.

    Parameters
    ----------
    device:
        The block device this structure lives on.  If omitted, a private
        flash-like device with the default block size is created; using a
        private device per method keeps RUM measurements independent.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Static capability flags; subclasses override as needed.
    capabilities: Capabilities = Capabilities()

    #: Whether the device-level audit may assume every live record
    #: occupies at least :data:`RECORD_BYTES` of declared block space.
    #: Structures that compress (bitmaps) or keep records in memory
    #: buffers they account separately set this to False.
    audit_space_covers_records: bool = True

    def __init__(self, device: Optional[SimulatedDevice] = None) -> None:
        self.device = device if device is not None else SimulatedDevice(
            block_bytes=DEFAULT_BLOCK_BYTES
        )
        self._record_count = 0

    # ------------------------------------------------------------------
    # Workload operations
    # ------------------------------------------------------------------
    @abstractmethod
    def bulk_load(self, items: Iterable[Record]) -> None:
        """Load a fresh structure from ``items``.

        ``items`` may arrive in any order; implementations that need
        sorted input must sort internally (and are charged for it via
        their device writes).  Must only be called on an empty structure.
        """

    @abstractmethod
    def get(self, key: int) -> Optional[int]:
        """Return the value stored under ``key``, or ``None`` if absent."""

    @abstractmethod
    def range_query(self, lo: int, hi: int) -> List[Record]:
        """Return all records with ``lo <= key <= hi``, sorted by key."""

    @abstractmethod
    def insert(self, key: int, value: int) -> None:
        """Insert a new record.  ``key`` must not already be present."""

    @abstractmethod
    def update(self, key: int, value: int) -> None:
        """Change the value of an existing record.

        Raises :class:`KeyError` if ``key`` is absent.
        """

    @abstractmethod
    def delete(self, key: int) -> None:
        """Remove a record.  Raises :class:`KeyError` if ``key`` is absent."""

    def apply_batch(self, operations: List["Operation"]) -> List[int]:
        """Execute a list of workload operations in order.

        The one ``OpKind`` dispatch of the measurement loop.  Returns one
        outcome per operation: for point queries ``1`` on a hit and ``0``
        on a miss, for range queries the number of records returned, and
        ``1`` for every write — the units the RUM accumulator's
        denominators are built from.

        An update or delete of an absent key raises ``KeyError``; the
        operations before it have been applied.
        """
        outcomes = []
        for operation in operations:
            kind = operation.kind
            outcome = 1
            if kind is _POINT_QUERY:
                if self.get(operation.key) is None:
                    outcome = 0
            elif kind is _RANGE_QUERY:
                outcome = len(self.range_query(operation.key, operation.high_key))
            elif kind is _INSERT:
                self.insert(operation.key, operation.value)
            elif kind is _UPDATE:
                self.update(operation.key, operation.value)
            elif kind is _DELETE:
                self.delete(operation.key)
            else:  # pragma: no cover - the enum is closed
                raise ValueError(f"unknown operation kind {kind}")
            outcomes.append(outcome)
        return outcomes

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    def space_bytes(self) -> int:
        """Total space the structure occupies (base + auxiliary data).

        Defaults to everything allocated on the method's device, which is
        correct when the method owns its device exclusively.
        """
        return self.device.allocated_bytes

    def base_bytes(self) -> int:
        """Logical size of the base data: records x record size."""
        return self._record_count * RECORD_BYTES

    def __len__(self) -> int:
        """Number of live records."""
        return self._record_count

    def stats(self) -> MethodStats:
        """Snapshot of size and space usage."""
        return MethodStats(
            name=self.name,
            records=self._record_count,
            base_bytes=self.base_bytes(),
            space_bytes=self.space_bytes(),
            allocated_blocks=self.device.allocated_blocks,
        )

    # ------------------------------------------------------------------
    # Maintenance hooks (optional)
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Force any buffered state down to the device (no-op by default)."""

    #: Key span :meth:`reopen` scans when recounting records; wide enough
    #: for any workload key while staying within exact-int range.
    REOPEN_KEY_SPAN: Tuple[int, int] = (-(2 ** 62), 2 ** 62)

    def reopen(self) -> None:
        """Rebuild memory-resident bookkeeping from durable block state.

        Models re-opening the structure after a process crash: a fault
        that interrupts a mutation can leave the durable blocks holding
        the op's effect while derived in-memory bookkeeping (the record
        count) missed its update.  The default implementation recounts
        records with a full range scan — charged I/O, because a real
        restart pays to rediscover its metadata.  Structures with more
        derived state override and extend this.

        Used by :meth:`repro.serve.server.Server.recover` before WAL
        replay; only meaningful for ordered methods (the serving tier
        requires them).
        """
        lo, hi = self.REOPEN_KEY_SPAN
        self._record_count = len(self.range_query(lo, hi))

    def maintenance(self) -> None:
        """Run background reorganization (compaction, merging; no-op)."""

    # ------------------------------------------------------------------
    # Structural invariant audits
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """Check structural invariants; return violations ([] = healthy).

        Two layers: :meth:`_audit_device` checks accounting invariants
        every structure must satisfy (declared per-block occupancy within
        block capacity and summing to the device's running total, no
        leaked scratch blocks, live records covered by declared space),
        and :meth:`_audit_structure` — overridden per method — checks
        structure-specific invariants (key order, fanout, zone bounds,
        Bloom no-false-negatives, ...).

        Audits observe state through the device's no-I/O interface
        (``peek``/``kind_of``/``used_bytes_of``/``iter_block_ids``) only:
        running one charges nothing, so ``measure_workload(...,
        audit_every=N)`` can self-check without perturbing the profile.
        Each violation additionally emits an ``op="audit"`` trace event
        when a tracer is attached.
        """
        violations = self._audit_device()
        violations.extend(self._audit_structure())
        if violations:
            from repro.obs.tracer import emit_audit_events  # lazy: cycle

            emit_audit_events(self.device.tracer, self.name, violations)
        return violations

    def _audit_device(self) -> List[str]:
        """Device-level accounting invariants common to all structures."""
        device = self.device
        violations: List[str] = []
        declared_total = 0
        for block_id in device.iter_block_ids():
            used = device.used_bytes_of(block_id)
            if not 0 <= used <= device.block_bytes:
                violations.append(
                    f"block {block_id}: declared occupancy {used} outside "
                    f"[0, {device.block_bytes}]"
                )
            declared_total += used
            kind = device.kind_of(block_id)
            if kind in TEMP_BLOCK_KINDS:
                violations.append(f"leaked scratch block {block_id} (kind {kind!r})")
        if declared_total != device.used_bytes():
            violations.append(
                f"device used-bytes total {device.used_bytes()} != "
                f"recomputed per-block sum {declared_total}"
            )
        if (
            self.audit_space_covers_records
            and self._record_count * RECORD_BYTES > self.space_bytes()
        ):
            violations.append(
                f"{self._record_count} records x {RECORD_BYTES}B exceed "
                f"declared space {self.space_bytes()}B"
            )
        return violations

    def _audit_structure(self) -> List[str]:
        """Structure-specific invariants; subclasses override."""
        return []

    @contextmanager
    def _fresh_block(self, kind: str) -> Iterator[BlockId]:
        """Allocate a block, freeing it again if the body raises.

        For allocate-then-first-write sites: if the initial write faults
        (:mod:`repro.check` fault injection), the bare allocation would
        leak an empty block the structure never references — visible to
        :meth:`audit` as an accounting discrepancy.  Rolling the
        allocation back keeps a faulted operation side-effect-free.
        """
        block_id = self.device.allocate(kind)
        try:
            yield block_id
        except BaseException:
            if self.device.is_allocated(block_id):
                self.device.free(block_id)
            raise

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r}: {self._record_count} records, "
            f"{self.device.allocated_blocks} blocks>"
        )

    # ------------------------------------------------------------------
    # Helpers shared by subclasses
    # ------------------------------------------------------------------
    def _require_empty(self) -> None:
        if self._record_count:
            raise RuntimeError(f"{self.name}: bulk_load on a non-empty structure")

    @staticmethod
    def _sorted_unique(items: Iterable[Record]) -> List[Record]:
        """Sort records by key and reject duplicates.

        Most structures bulk-load from sorted input; duplicate keys are a
        caller error under the unique-key contract.
        """
        records = sorted(items, key=lambda record: record[0])
        for i in range(1, len(records)):
            if records[i][0] == records[i - 1][0]:
                raise ValueError(f"duplicate key in bulk load: {records[i][0]}")
        return records


# At the bottom because repro.workloads imports AccessMethod back.  Bound
# to module names once: an ``OpKind.X`` lookup costs more than the
# identity test it feeds, and apply_batch runs per measured window.
from repro.workloads.spec import OpKind  # noqa: E402

_POINT_QUERY = OpKind.POINT_QUERY
_RANGE_QUERY = OpKind.RANGE_QUERY
_INSERT = OpKind.INSERT
_UPDATE = OpKind.UPDATE
_DELETE = OpKind.DELETE
