"""RUM overhead accounting — the paper's Section 2, executable.

The paper defines the three overheads as amplification ratios:

* **Read Overhead (RO)** — read amplification: total data read (auxiliary
  plus base) divided by the data the operation set out to retrieve.
* **Update Overhead (UO)** — write amplification: size of the physical
  updates performed for one logical update, divided by the size of the
  logical update.
* **Memory Overhead (MO)** — space amplification: space used for
  auxiliary plus base data, divided by the space of the base data alone.

The theoretical minimum of each ratio is 1.0.  This module measures the
ratios by snapshotting device counters around operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.obs.spans import span, spans_active
from repro.storage.device import IOStats
from repro.storage.layout import RECORD_BYTES
from repro.workloads.spec import OpKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.interfaces import AccessMethod
    from repro.obs.live import WindowedRUM
    from repro.obs.metrics import WorkloadMetrics
    from repro.workloads.spec import Operation

# Bound once: an ``OpKind.X`` lookup costs more than the identity test.
_POINT_QUERY = OpKind.POINT_QUERY
_RANGE_QUERY = OpKind.RANGE_QUERY


@dataclass(frozen=True)
class RUMProfile:
    """A measured (RO, UO, MO) point for one access method + workload."""

    read_overhead: float
    update_overhead: float
    memory_overhead: float
    simulated_time: float = 0.0
    name: str = ""

    def __str__(self) -> str:
        return (
            f"RUM({self.name or 'method'}: RO={self.read_overhead:.2f}, "
            f"UO={self.update_overhead:.2f}, MO={self.memory_overhead:.2f})"
        )

    def dominates(self, other: "RUMProfile") -> bool:
        """True if this profile is at least as good on all three overheads
        and strictly better on at least one (Pareto dominance)."""
        at_least = (
            self.read_overhead <= other.read_overhead
            and self.update_overhead <= other.update_overhead
            and self.memory_overhead <= other.memory_overhead
        )
        strictly = (
            self.read_overhead < other.read_overhead
            or self.update_overhead < other.update_overhead
            or self.memory_overhead < other.memory_overhead
        )
        return at_least and strictly


@dataclass
class RUMAccumulator:
    """Accumulates per-operation byte counts into a final profile.

    Read operations contribute ``bytes_read / logical_bytes_retrieved``;
    update operations contribute ``bytes_written / logical_bytes_updated``.
    A miss (point query with no result) still "intended to read" one
    record, so its denominator is one record — otherwise misses would
    make RO undefined.

    ``flush_read_bytes`` holds reads performed by deferred maintenance
    (the terminal flush): a compaction that re-reads runs to merge them
    is doing work *on behalf of buffered updates*, not retrieving data
    for a query, so those bytes amplify UO, never RO.
    """

    read_bytes: int = 0
    retrieved_bytes: int = 0
    write_bytes: int = 0
    flush_read_bytes: int = 0
    updated_bytes: int = 0
    read_ops: int = 0
    update_ops: int = 0
    simulated_time: float = 0.0
    peak_memory_overhead: float = 1.0

    def sample_space(self, method: "AccessMethod") -> None:
        """Record the current space amplification if it is a new peak.

        Differential structures hold pending updates in buffers and
        deltas; measuring MO only after a final flush would hide that
        space.  The paper's MO is the space the structure *occupies*,
        so the profile reports the peak observed during the workload.
        """
        stats = method.stats()
        if stats.base_bytes > 0:
            self.peak_memory_overhead = max(
                self.peak_memory_overhead, stats.space_amplification
            )

    def record_read(
        self, io: IOStats, records_retrieved: int, operations: int = 1
    ) -> None:
        """Account one counter window of read operations (point or range
        queries; one operation unless ``operations`` says otherwise).

        For a longer window ``records_retrieved`` is the sum over its
        operations of ``max(records retrieved, 1)``: per-op deltas
        telescope into the window delta (the counters are integers), so
        a window accumulates exactly what its operations would one by
        one.
        """
        self.read_ops += operations
        self.read_bytes += io.read_bytes
        self.retrieved_bytes += max(records_retrieved, 1) * RECORD_BYTES
        self.simulated_time += io.simulated_time

    def record_update(
        self, io: IOStats, records_updated: int = 1, operations: int = 1
    ) -> None:
        """Account one counter window of write operations (inserts,
        updates, deletes), ``records_updated`` logical records in all."""
        self.update_ops += operations
        self.write_bytes += io.write_bytes
        self.updated_bytes += max(records_updated, 1) * RECORD_BYTES
        self.simulated_time += io.simulated_time

    @property
    def read_overhead(self) -> float:
        """Aggregate read amplification over all read operations."""
        if self.retrieved_bytes == 0:
            return 1.0
        return self.read_bytes / self.retrieved_bytes

    @property
    def update_overhead(self) -> float:
        """Aggregate write amplification over all update operations.

        The numerator includes reads done by deferred maintenance
        (``flush_read_bytes``) — physical work the structure performs to
        apply logical updates, per the Section 2 definition.
        """
        if self.updated_bytes == 0:
            return 1.0
        return (self.write_bytes + self.flush_read_bytes) / self.updated_bytes

    def finish(self, method: "AccessMethod") -> RUMProfile:
        """Combine accumulated read/write ratios with the method's MO.

        MO is the larger of the final space amplification and the peak
        sampled during the workload (see :meth:`sample_space`).
        """
        stats = method.stats()
        return RUMProfile(
            read_overhead=self.read_overhead,
            update_overhead=self.update_overhead,
            memory_overhead=max(
                stats.space_amplification, self.peak_memory_overhead
            ),
            simulated_time=self.simulated_time,
            name=method.name,
        )


#: Space-sampling cadence: MO is sampled before every 16th operation,
#: and no counter window spans a sampling point.
_SPACE_SAMPLE_EVERY = 16


def _measure(
    method: "AccessMethod",
    batches: Iterable[List["Operation"]],
    per_op: bool,
    metrics: Optional["WorkloadMetrics"],
    audit_every: int,
    accumulator: Optional[RUMAccumulator],
    live: Optional["WindowedRUM"],
) -> RUMProfile:
    """The measurement loop behind both entry points.

    Operations execute in counter *windows*: one device snapshot pair
    and one :meth:`AccessMethod.apply_batch` call per run of
    same-category (read vs write) operations within a batch, cut at the
    space-sampling points.  Per-op byte deltas telescope into the window
    delta exactly, so the profile does not depend on window length.

    ``per_op`` caps windows at one operation; so does any observer
    (``metrics``, ``audit_every``, ``live``, active span collection),
    because what an observer sees of an operation cannot be recovered
    from a longer window.  Capped windows are tolerant — an update or
    delete of an absent key is skipped and charges nothing (generators
    only emit valid operations, but adaptive workloads can race with
    deletions).  An uncapped window propagates the ``KeyError``: its I/O
    delta cannot be re-attributed once an operation inside it failed.

    One device snapshot per window: a window's closing snapshot opens
    the next window (and the terminal flush).  Precondition: between two
    windows nothing moves the device counters — neither drawing the next
    batch nor ``method.stats()`` at a space-sampling point (every
    registered method reads its footprint without charged I/O).  A
    skipped operation, whose partial I/O is charged to nothing, and an
    audit are each followed by a fresh snapshot.
    """

    def run_audit() -> None:
        violations = method.audit()
        if violations:
            from repro.check.audit import AuditError  # lazy: avoid a cycle

            raise AuditError(method.name, violations)

    if accumulator is None:
        accumulator = RUMAccumulator()
    snapshot = method.device.snapshot
    apply_batch = method.apply_batch
    use_spans = spans_active()
    if metrics is not None or audit_every or live is not None or use_spans:
        per_op = True
    every = _SPACE_SAMPLE_EVERY
    executed = 0
    before = snapshot()
    for batch in batches:
        n = len(batch)
        start = 0
        while start < n:
            phase = (executed + 1) % every
            if phase == 0:
                accumulator.sample_space(method)
                if live is not None:
                    live.observe_space(method)
            kind = batch[start].kind
            is_read = kind is _POINT_QUERY or kind is _RANGE_QUERY
            end = start + 1
            if not per_op:
                limit = start + (every - phase if phase else every)
                if limit > n:
                    limit = n
                while end < limit:
                    other = batch[end].kind
                    if (other is _POINT_QUERY or other is _RANGE_QUERY) != is_read:
                        break
                    end += 1
            segment = batch[start:end]
            count = end - start
            start = end
            executed += count
            try:
                if use_spans:
                    with span("op." + kind.value):
                        outcomes = apply_batch(segment)
                else:
                    outcomes = apply_batch(segment)
            except KeyError:
                if per_op and kind in (OpKind.UPDATE, OpKind.DELETE):
                    before = snapshot()
                    continue
                raise
            after = snapshot()
            io = after.delta(before)
            if is_read:
                units = 0
                for outcome in outcomes:
                    units += outcome if outcome > 1 else 1
                accumulator.record_read(io, units, count)
            else:
                units = count
                accumulator.record_update(io, count, count)
            if per_op:
                if live is not None:
                    live.observe_op(
                        kind.value, is_read, io, units,
                        before.simulated_time + io.simulated_time,
                    )
                if metrics is not None:
                    metrics.record(
                        kind.value, io.reads + io.writes, io.simulated_time
                    )
                if audit_every and executed % audit_every == 0:
                    run_audit()
                    after = snapshot()
            before = after
    # Differential structures buffer writes; flush so the deferred I/O is
    # charged (amortized) to the updates that caused it.  Without this,
    # a workload shorter than the buffer would report UO = 0.  Flush
    # reads (compactions re-reading runs to merge them) are charged to
    # the UO numerator via flush_read_bytes, not to RO — see
    # RUMAccumulator's docstring for the policy.
    if accumulator.update_ops:
        if use_spans:
            with span("op.flush"):
                method.flush()
        else:
            method.flush()
        flush_io = snapshot().delta(before)
        accumulator.write_bytes += flush_io.write_bytes
        accumulator.flush_read_bytes += flush_io.read_bytes
        accumulator.simulated_time += flush_io.simulated_time
        if live is not None:
            live.observe_flush(
                flush_io, before.simulated_time + flush_io.simulated_time
            )
        if metrics is not None:
            metrics.record(
                "flush", flush_io.reads + flush_io.writes, flush_io.simulated_time
            )
    if audit_every:
        run_audit()
    return accumulator.finish(method)


def measure_workload(
    method: "AccessMethod",
    operations: Iterable["Operation"],
    metrics: Optional["WorkloadMetrics"] = None,
    audit_every: int = 0,
    accumulator: Optional[RUMAccumulator] = None,
    live: Optional["WindowedRUM"] = None,
) -> RUMProfile:
    """Run ``operations`` against ``method`` and measure its RUM profile.

    Each operation is bracketed by device-counter snapshots (a flat
    stream always runs :func:`_measure`'s windows capped at one
    operation); reads feed the RO ratio, writes feed the UO ratio, and
    MO is the larger of the final space footprint and the peak sampled
    on the way.  Updates and deletes of unknown keys are skipped.

    When a :class:`~repro.obs.metrics.WorkloadMetrics` is supplied, each
    operation's blocks-touched count and simulated time are also recorded
    into a per-op-type histogram (the terminal flush under the label
    ``flush``) — the distribution behind the aggregate ratios.

    ``audit_every=N`` (opt-in, default off) calls :meth:`AccessMethod.audit`
    every N operations and once after the terminal flush, raising
    :class:`~repro.check.audit.AuditError` on the first violation — so a
    measurement run can double as an invariant sweep.  Audits use
    counter-free device inspection and do not perturb the profile.

    A caller-owned (fresh) ``accumulator`` can be supplied to read the
    integer numerators/denominators behind the final ratios afterwards —
    ``repro explain`` audits span attribution against them.

    A :class:`~repro.obs.live.WindowedRUM` passed as ``live`` receives
    every operation's integer deltas (at the operation's simulated
    completion time), the terminal flush and the space samples — the
    streaming per-window view whose sums conserve the accumulator's
    totals exactly.

    When span collection is active (:func:`repro.obs.spans.span_collection`),
    every operation runs inside an ``op.<kind>`` root span and the
    terminal flush inside ``op.flush``, so trace events carry the
    operation category that the RO/UO attribution policy keys on.  The
    check happens once per call.
    """
    return _measure(
        method,
        ([operation] for operation in operations),
        True, metrics, audit_every, accumulator, live,
    )


def measure_workload_batched(
    method: "AccessMethod",
    batches: Iterable[List["Operation"]],
    metrics: Optional["WorkloadMetrics"] = None,
    audit_every: int = 0,
    accumulator: Optional[RUMAccumulator] = None,
    live: Optional["WindowedRUM"] = None,
) -> RUMProfile:
    """:func:`measure_workload` over lists of operations (a
    :meth:`~repro.workloads.generator.WorkloadGenerator.operation_batches`
    stream): same profile, fewer counter snapshots.

    With nothing observing, each run of same-category operations inside
    a batch is one counter window (see :func:`_measure`), and a batch
    must be valid: an update or delete of an absent key raises
    ``KeyError`` instead of being skipped.  With ``metrics``,
    ``audit_every``, ``live`` or span collection attached this *is*
    :func:`measure_workload`, whatever the batch size.  (Device
    *tracing* needs neither: trace events are emitted by the device
    itself, in access order.)
    """
    return _measure(
        method, batches, False, metrics, audit_every, accumulator, live
    )
