"""Structured trace events and the tracer that routes them.

Every instrumented component (:class:`~repro.storage.device.SimulatedDevice`,
:class:`~repro.storage.pager.BufferPool`,
:class:`~repro.storage.hierarchy.HierarchicalDevice`) holds a :class:`Tracer` and
guards each emission site with ``tracer.enabled``.  The base tracer is
the shared no-op :data:`NULL_TRACER` (``enabled`` is ``False``), so with
tracing off the hot path pays exactly one attribute check — no event
object is ever constructed.  :class:`RecordingTracer` numbers events and
forwards them to a :class:`~repro.obs.sinks.TraceSink`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable

from repro.obs.spans import current_span

# Block ids are plain ints (repro.storage.block.BlockId); importing the
# storage package here would close an import cycle, since the device
# module imports this one.
BlockId = int


@dataclass(frozen=True)
class TraceEvent:
    """One storage-layer operation, fully described.

    ``seq`` is the tracer-assigned event number (total order over every
    component sharing the tracer).  ``source`` names the emitting
    component (a device name or ``pool(<device>)``).  ``op`` is one of
    ``read``, ``write``, ``alloc``, ``free``, ``evict``, ``write_back``,
    ``fault`` (an injected :class:`~repro.check.faults.DeviceFault`) or
    ``audit`` (an invariant violation found by
    :meth:`~repro.core.interfaces.AccessMethod.audit`; the message rides
    in ``kind`` and ``block_id`` is -1).
    ``kind`` is otherwise the block's allocation tag, ``sequential`` the
    device's seek classification, ``cost`` the simulated time charged and
    ``nbytes`` the bytes moved (zero for space-only events).

    ``span`` is the hierarchical phase path active when the event was
    emitted ("op.insert/lsm.put"; see :mod:`repro.obs.spans`), or ""
    when span tracking was off.  It is the last field so event dicts
    serialized before spans existed still decode (the default fills in).
    """

    seq: int
    source: str
    op: str
    block_id: BlockId
    kind: str = ""
    sequential: bool = False
    cost: float = 0.0
    nbytes: int = 0
    span: str = ""

    def to_dict(self) -> dict:
        """Plain-dict form, ready for JSON serialization."""
        return asdict(self)


class Tracer:
    """The no-op tracer: discards every event.

    ``enabled`` is class-level ``False``; emission sites check it before
    building an event, which makes disabled tracing zero-cost (verified
    by ``benchmarks/test_bench_tracing.py``).  Subclasses that actually
    record set ``enabled = True`` and override :meth:`emit`.
    """

    #: Gate checked by every emission site before any work is done.
    enabled: bool = False

    def emit(
        self,
        source: str,
        op: str,
        block_id: BlockId,
        kind: str = "",
        sequential: bool = False,
        cost: float = 0.0,
        nbytes: int = 0,
    ) -> None:
        """Discard the event (no-op)."""


#: Shared no-op tracer installed on every device by default.
NULL_TRACER = Tracer()


class RecordingTracer(Tracer):
    """A tracer that numbers events and forwards them to a sink."""

    enabled = True

    def __init__(self, sink) -> None:
        self.sink = sink
        self._seq = 0

    def emit(
        self,
        source: str,
        op: str,
        block_id: BlockId,
        kind: str = "",
        sequential: bool = False,
        cost: float = 0.0,
        nbytes: int = 0,
    ) -> None:
        """Build a :class:`TraceEvent` and hand it to the sink.

        The active span path (:func:`repro.obs.spans.current_span`) is
        stamped onto the event here — one place, for every emitting
        component — so attribution never depends on the emitter.
        """
        event = TraceEvent(
            seq=self._seq,
            source=source,
            op=op,
            block_id=block_id,
            kind=kind,
            sequential=sequential,
            cost=cost,
            nbytes=nbytes,
            span=current_span(),
        )
        self._seq += 1
        self.sink.emit(event)


def emit_audit_events(tracer: Tracer, source: str, messages: Iterable[str]) -> None:
    """Emit one ``op="audit"`` event per violation message.

    A sanctioned emission path outside the storage layer:
    ``tools/lint_counters.py`` rejects direct ``tracer.emit`` calls
    outside ``repro/obs`` and ``repro/storage``, so
    :meth:`repro.core.interfaces.AccessMethod.audit` reports through
    this helper.
    """
    if not tracer.enabled:
        return
    for message in messages:
        tracer.emit(source=source, op="audit", block_id=-1, kind=message)


def emit_fault_event(
    tracer: Tracer, source: str, block_id: BlockId, kind: str
) -> None:
    """Emit one ``op="fault"`` event (an injected device failure).

    Like :func:`emit_audit_events`, this is a sanctioned emission path
    for code outside ``repro/obs`` and ``repro/storage`` — here
    :class:`repro.check.faults.FaultyDevice`, which must mark the exact
    stream position where it raised.
    """
    if not tracer.enabled:
        return
    tracer.emit(source=source, op="fault", block_id=block_id, kind=kind)


def emit_txn_event(
    tracer: Tracer, source: str, op: str, txn_id: int, detail: str = ""
) -> None:
    """Emit one transaction lifecycle event from the serving tier.

    ``op`` is the lifecycle step (``txn-begin``, ``txn-validate``,
    ``txn-commit``, ``txn-abort``, ``wal-append``, ``wal-sync``,
    ``recover``, ``checkpoint``); ``txn_id`` rides in the ``block_id``
    slot (events are keyed by an integer id either way) and ``detail``
    in ``kind``.  A sanctioned emission path, like
    :func:`emit_audit_events`: :mod:`repro.serve` reports through this
    helper instead of calling ``tracer.emit`` directly.
    """
    if not tracer.enabled:
        return
    tracer.emit(source=source, op=op, block_id=txn_id, kind=detail)
