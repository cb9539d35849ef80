"""Hierarchical spans: attribute device I/O to internal phases.

The trace layer records *that* a block was read, never *why*.  Spans add
the why: a context-local stack of phase names ("op.insert/lsm.put/
lsm.flush/lsm.compaction.L0") that :class:`~repro.obs.tracer.RecordingTracer`
stamps onto every event it emits.  :class:`SpanProfile` then rolls a
stream of stamped events back into a tree with per-span byte counts, and
:func:`rum_attribution` splits the aggregate RO/UO/MO ratios measured by
:func:`~repro.core.rum.measure_workload` across that tree — exactly, in
integer bytes, with the residual buckets defined by subtraction so the
per-span fractions always sum to the aggregates.

Zero-cost-when-disabled contract
--------------------------------
Span tracking is gated on a module-global flag that is only raised
inside :func:`span_collection`.  Instrumentation sites on method hot
paths use the :func:`spanned` decorator, whose disabled path is a single
global check and a plain tail-call; ``benchmarks/perf`` prices it in
every unobserved ``lib-*`` workload's ``ops_per_s`` and reports the
enabled cost as ``obs.spans_slowdown``.  The :class:`span` context manager
is for cold paths (compaction, rehash) and ad-hoc callers.  The span
*stack* itself lives in a :class:`~contextvars.ContextVar`, so spans are
safe under threads; worker processes activate their own collection scope
(see :mod:`repro.exec.engine`), so profiles built
from merged parallel-sweep events are byte-identical to serial ones.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Separator between span names in a path ("op.insert/lsm.put").
SEPARATOR = "/"

#: Root span names measure_workload opens around read operations.
READ_ROOTS = ("op.point_query", "op.range_query")

#: Root span names measure_workload opens around update operations.
UPDATE_ROOTS = ("op.insert", "op.update", "op.delete")

#: Root span name around the terminal flush.
FLUSH_ROOT = "op.flush"

#: Synthetic root for events emitted outside any span.
UNSPANNED = "(unspanned)"

# Module-global fast gate: the disabled path of every instrumentation
# site reads this one global and nothing else.
_active = False

#: The current span path, per execution context.
_path: ContextVar[str] = ContextVar("repro_span_path", default="")

# Number of span entries while active; benchmarks/perf divides this by
# the operation count to get instrumentation sites per op.
_entries = 0


def spans_active() -> bool:
    """Whether a :func:`span_collection` scope is currently open."""
    return _active


def current_span() -> str:
    """The active span path ("" when span tracking is disabled)."""
    return _path.get() if _active else ""


def span_entries() -> int:
    """Total span entries since import (only counted while active)."""
    return _entries


class span:
    """Context manager opening one span level.

    Single-use.  When a ``device`` is supplied, the device-counter delta
    the span encloses is captured as an :class:`~repro.storage.device.IOStats`
    on :attr:`io` at exit (independent of whether span tracking is
    active), so callers can cross-check event-derived attribution
    against raw counters.

    Use :func:`spanned` instead on hot paths — the ``with`` protocol
    costs several hundred nanoseconds even when disabled.
    """

    __slots__ = ("name", "device", "io", "_token", "_before")

    def __init__(self, name: str, device: Optional[object] = None) -> None:
        self.name = name
        self.device = device
        self.io = None
        self._token = None
        self._before = None

    def __enter__(self) -> "span":
        if _active:
            global _entries
            _entries += 1
            parent = _path.get()
            self._token = _path.set(
                parent + SEPARATOR + self.name if parent else self.name
            )
        if self.device is not None:
            self._before = self.device.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _path.reset(self._token)
            self._token = None
        if self._before is not None:
            self.io = self.device.stats_since(self._before)
            self._before = None
        return False


def spanned(name: str) -> Callable:
    """Decorator form of :class:`span`, built for hot paths.

    The disabled path is one module-global check and a tail-call to the
    wrapped function; no context-variable access, no object creation.
    """

    def decorate(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not _active:
                return func(*args, **kwargs)
            global _entries
            _entries += 1
            parent = _path.get()
            token = _path.set(parent + SEPARATOR + name if parent else name)
            try:
                return func(*args, **kwargs)
            finally:
                _path.reset(token)

        wrapper.__span_name__ = name
        return wrapper

    return decorate


@contextmanager
def span_collection() -> Iterator[None]:
    """Activate span tracking for the enclosed block.

    Resets the span path on entry (so a collection scope never inherits
    a stale path) and restores the previous activation state on exit.
    Nests safely; used by the CLI, the sweep engine's workers and tests.
    """
    global _active
    previous = _active
    _active = True
    token = _path.set("")
    try:
        yield
    finally:
        _path.reset(token)
        _active = previous


# ----------------------------------------------------------------------
# Aggregation: events -> span tree
# ----------------------------------------------------------------------

#: Stat fields carried per node, in serialization order.
STAT_FIELDS = (
    "events",
    "reads",
    "writes",
    "read_bytes",
    "write_bytes",
    "seq_read_bytes",
    "rand_read_bytes",
    "seq_write_bytes",
    "rand_write_bytes",
    "allocs",
    "frees",
    "simulated_time",
)


class SpanStats:
    """Integer byte/count tallies for the events directly in one span."""

    __slots__ = STAT_FIELDS

    def __init__(self) -> None:
        self.events = 0
        self.reads = 0
        self.writes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.seq_read_bytes = 0
        self.rand_read_bytes = 0
        self.seq_write_bytes = 0
        self.rand_write_bytes = 0
        self.allocs = 0
        self.frees = 0
        self.simulated_time = 0.0

    def add(self, op: str, sequential: bool, cost: float, nbytes: int) -> None:
        """Tally one trace event."""
        self.events += 1
        self.simulated_time += cost
        if op == "read":
            self.reads += 1
            self.read_bytes += nbytes
            if sequential:
                self.seq_read_bytes += nbytes
            else:
                self.rand_read_bytes += nbytes
        elif op == "write" or op == "write_back":
            self.writes += 1
            self.write_bytes += nbytes
            if sequential:
                self.seq_write_bytes += nbytes
            else:
                self.rand_write_bytes += nbytes
        elif op == "alloc":
            self.allocs += 1
        elif op == "free":
            self.frees += 1

    def merge(self, other: "SpanStats") -> None:
        """Add another tally into this one (for subtree totals)."""
        for field in STAT_FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def to_dict(self) -> dict:
        """Plain-dict form in :data:`STAT_FIELDS` order."""
        return {field: getattr(self, field) for field in STAT_FIELDS}


class SpanNode:
    """One node of the span tree: a full path plus its direct tallies."""

    __slots__ = ("path", "name", "stats", "children", "live_blocks")

    def __init__(self, path: str) -> None:
        self.path = path
        self.name = path.rpartition(SEPARATOR)[2]
        self.stats = SpanStats()
        self.children: Dict[str, "SpanNode"] = {}
        #: Blocks allocated in this span and still live, keyed by the
        #: emitting device source.
        self.live_blocks: Dict[str, int] = {}

    def total(self) -> SpanStats:
        """Inclusive tallies: this span plus all descendants."""
        combined = SpanStats()
        combined.merge(self.stats)
        for child in self.children.values():
            combined.merge(child.total())
        return combined

    def total_live_blocks(self) -> Dict[str, int]:
        """Inclusive live-block counts per source."""
        combined = dict(self.live_blocks)
        for child in self.children.values():
            for source, count in child.total_live_blocks().items():
                combined[source] = combined.get(source, 0) + count
        return combined

    def walk(self, depth: int = 0) -> Iterator[Tuple["SpanNode", int]]:
        """Depth-first traversal in sorted child order."""
        yield self, depth
        for name in sorted(self.children):
            yield from self.children[name].walk(depth + 1)

    def to_dict(self) -> dict:
        """Canonical plain-dict form (deterministic, JSON-ready)."""
        return {
            "stats": self.stats.to_dict(),
            "live_blocks": {
                source: count
                for source, count in sorted(self.live_blocks.items())
                if count
            },
            "children": {
                name: self.children[name].to_dict()
                for name in sorted(self.children)
            },
        }


def _event_fields(event) -> Tuple[str, str, str, int, bool, float, int]:
    """(span, source, op, block_id, sequential, cost, nbytes) from either
    a :class:`~repro.obs.tracer.TraceEvent` or its dict form."""
    if isinstance(event, dict):
        return (
            event.get("span", ""),
            event["source"],
            event["op"],
            event["block_id"],
            event["sequential"],
            event["cost"],
            event["nbytes"],
        )
    return (
        getattr(event, "span", ""),
        event.source,
        event.op,
        event.block_id,
        event.sequential,
        event.cost,
        event.nbytes,
    )


class SpanProfile:
    """A span tree aggregated from span-stamped trace events.

    Built canonically from the event stream — never from live collector
    state — so profiles from a serial run, a parallel sweep's merged
    events and a warm cache replay are byte-identical
    (``tests/property/test_span_profiles.py``).

    Space attribution tracks every ``alloc`` event's span as the block's
    owner; a later ``free`` decrements the owner, wherever it occurs.
    Frees of blocks allocated before tracing started are tallied in
    :attr:`untracked_frees` (they have no owner to decrement).
    """

    def __init__(self) -> None:
        self.roots: Dict[str, SpanNode] = {}
        self._nodes: Dict[str, SpanNode] = {}
        #: Bytes-per-block per source, learned from read/write events.
        self.block_bytes: Dict[str, int] = {}
        self.untracked_frees: Dict[str, int] = {}
        self._owner: Dict[Tuple[str, int], SpanNode] = {}

    @classmethod
    def from_events(cls, events: Iterable) -> "SpanProfile":
        """Aggregate an event stream (TraceEvents or their dicts)."""
        profile = cls()
        for event in events:
            profile.add_event(event)
        return profile

    def add_event(self, event) -> None:
        """Fold one event into the tree."""
        path, source, op, block_id, sequential, cost, nbytes = _event_fields(
            event
        )
        node = self._node_for(path or UNSPANNED)
        node.stats.add(op, sequential, cost, nbytes)
        if nbytes and source not in self.block_bytes:
            self.block_bytes[source] = nbytes
        if op == "alloc":
            node.live_blocks[source] = node.live_blocks.get(source, 0) + 1
            self._owner[(source, block_id)] = node
        elif op == "free":
            owner = self._owner.pop((source, block_id), None)
            if owner is not None:
                owner.live_blocks[source] -= 1
            else:
                self.untracked_frees[source] = (
                    self.untracked_frees.get(source, 0) + 1
                )

    def _node_for(self, path: str) -> SpanNode:
        node = self._nodes.get(path)
        if node is not None:
            return node
        head, _, _tail = path.rpartition(SEPARATOR)
        node = SpanNode(path)
        if head:
            self._node_for(head).children[node.name] = node
        else:
            self.roots[path] = node
        self._nodes[path] = node
        return node

    def node(self, path: str) -> Optional[SpanNode]:
        """The node at ``path``, or ``None``."""
        return self._nodes.get(path)

    def live_bytes_of(self, node: SpanNode) -> int:
        """Inclusive live device bytes owned by a node's subtree."""
        return sum(
            count * self.block_bytes.get(source, 0)
            for source, count in node.total_live_blocks().items()
        )

    def total_live_bytes(self) -> int:
        """Live device bytes owned by all spans (tracked allocs only)."""
        return sum(self.live_bytes_of(root) for root in self.roots.values())

    def by_name(self) -> Dict[str, SpanStats]:
        """Exclusive tallies aggregated over every node sharing a name.

        "Exclusive" means each node contributes its *direct* stats only,
        so nested occurrences (a cascaded ``lsm.compaction.L1`` inside
        ``lsm.compaction.L0``) are not double-counted.
        """
        merged: Dict[str, SpanStats] = {}
        for root in self.roots.values():
            for node, _depth in root.walk():
                bucket = merged.setdefault(node.name, SpanStats())
                bucket.merge(node.stats)
        return merged

    def walk(self) -> Iterator[Tuple[SpanNode, int]]:
        """Depth-first traversal of the whole forest, roots sorted."""
        for name in sorted(self.roots):
            yield from self.roots[name].walk()

    def to_dict(self) -> dict:
        """Canonical plain-dict form — the byte-identity surface."""
        return {
            "spans": {
                name: self.roots[name].to_dict() for name in sorted(self.roots)
            },
            "block_bytes": dict(sorted(self.block_bytes.items())),
            "untracked_frees": dict(sorted(self.untracked_frees.items())),
        }

    def folded_lines(self, weight: str = "bytes") -> List[str]:
        """Folded-stack lines for flamegraph.pl.

        One line per span with a non-zero *exclusive* weight:
        ``op.insert;lsm.put;lsm.flush 16384``.  ``weight`` selects bytes
        moved (default), event count, or simulated time (scaled x1000 and
        rounded, since folded stacks carry integer weights).
        """
        lines: List[str] = []
        for node, _depth in self.walk():
            stats = node.stats
            if weight == "bytes":
                value = stats.read_bytes + stats.write_bytes
            elif weight == "events":
                value = stats.events
            elif weight == "time":
                value = int(round(stats.simulated_time * 1000))
            else:
                raise ValueError(f"unknown folded-stack weight {weight!r}")
            if value > 0:
                lines.append(
                    f"{node.path.replace(SEPARATOR, ';')} {value}"
                )
        return lines


# ----------------------------------------------------------------------
# RUM attribution: split the aggregate ratios across the tree
# ----------------------------------------------------------------------


def _root_category(path: str) -> str:
    root = path.split(SEPARATOR, 1)[0]
    if root in READ_ROOTS:
        return "read"
    if root in UPDATE_ROOTS:
        return "update"
    if root == FLUSH_ROOT:
        return "flush"
    return "other"


class AttributionRow:
    """One line of the ``repro explain`` table."""

    __slots__ = (
        "path",
        "depth",
        "read_bytes",
        "write_bytes",
        "ro_bytes",
        "uo_bytes",
        "live_bytes",
        "simulated_time",
        "ro",
        "uo",
        "mo",
    )

    def __init__(self, path: str, depth: int) -> None:
        self.path = path
        self.depth = depth
        self.read_bytes = 0
        self.write_bytes = 0
        self.ro_bytes = 0
        self.uo_bytes = 0
        self.live_bytes = 0
        self.simulated_time = 0.0
        self.ro = 0.0
        self.uo = 0.0
        self.mo = 0.0

    def to_dict(self) -> dict:
        """Plain-dict form in slot order (the ``--json`` row shape)."""
        return {field: getattr(self, field) for field in self.__slots__}


class Attribution:
    """The fractional RO/UO/MO split of one measured workload.

    ``rows`` hold *inclusive* per-span numbers in depth-first order,
    followed by the synthetic space buckets (non-device structure state
    such as an LSM memtable, and the peak-sampling headroom when the
    aggregate MO exceeds the final space amplification).  ``audit``
    lists every exactness violation found; an empty list certifies that
    root-level fractions sum exactly to the aggregate ratios and that
    children sum exactly to their parents.
    """

    #: Path label for space held by the structure outside its device.
    NON_DEVICE = "(non-device space)"
    #: Path label for MO headroom from peak sampling.
    PEAK_HEADROOM = "(peak headroom)"

    def __init__(
        self,
        rows: List[AttributionRow],
        read_overhead: float,
        update_overhead: float,
        memory_overhead: float,
        audit: List[str],
    ) -> None:
        self.rows = rows
        self.read_overhead = read_overhead
        self.update_overhead = update_overhead
        self.memory_overhead = memory_overhead
        self.audit = audit

    def to_dict(self) -> dict:
        """Plain-dict form: rows plus totals plus the audit findings."""
        return {
            "rows": [row.to_dict() for row in self.rows],
            "read_overhead": self.read_overhead,
            "update_overhead": self.update_overhead,
            "memory_overhead": self.memory_overhead,
            "audit": list(self.audit),
        }


def rum_attribution(
    profile: SpanProfile,
    accumulator,
    *,
    base_bytes: int,
    space_bytes: int,
    allocated_bytes: int,
    memory_overhead: float,
) -> Attribution:
    """Split measured RO/UO/MO across ``profile``'s span tree.

    ``accumulator`` is the :class:`~repro.core.rum.RUMAccumulator` the
    workload was measured with — its integer numerators are the ground
    truth the span-derived numerators are audited against.  ``base_bytes``
    / ``space_bytes`` / ``allocated_bytes`` come from the method's final
    :meth:`~repro.core.interfaces.AccessMethod.stats` and device;
    ``memory_overhead`` from the finished profile (max of final and peak
    sampled amplification).

    Attribution policy mirrors :class:`~repro.core.rum.RUMAccumulator`:
    only bytes read under read-op roots enter RO numerators; bytes
    written under update roots plus all flush traffic enter UO; reads
    during update ops (structure descent) are charged to neither, and
    appear in the table with zero RO/UO fractions.
    """
    audit: List[str] = []
    rows: List[AttributionRow] = []
    retrieved = accumulator.retrieved_bytes
    updated = accumulator.updated_bytes

    root_ro = 0
    root_uo = 0
    for node, depth in profile.walk():
        category = _root_category(node.path)
        total = node.total()
        row = AttributionRow(node.path, depth)
        row.read_bytes = total.read_bytes
        row.write_bytes = total.write_bytes
        row.simulated_time = total.simulated_time
        row.live_bytes = profile.live_bytes_of(node)
        if category == "read":
            row.ro_bytes = total.read_bytes
        elif category == "update":
            row.uo_bytes = total.write_bytes
        elif category == "flush":
            row.uo_bytes = total.write_bytes + total.read_bytes
        if retrieved:
            row.ro = row.ro_bytes / retrieved
        if updated:
            row.uo = row.uo_bytes / updated
        if base_bytes:
            row.mo = row.live_bytes / base_bytes
        if depth == 0:
            root_ro += row.ro_bytes
            root_uo += row.uo_bytes
        else:
            # Children must sum exactly to their parents.
            parent = profile.node(node.path.rpartition(SEPARATOR)[0])
            parent_total = parent.total()
            child_sum = SpanStats()
            child_sum.merge(parent.stats)
            for child in parent.children.values():
                child_sum.merge(child.total())
            if (
                child_sum.read_bytes != parent_total.read_bytes
                or child_sum.write_bytes != parent_total.write_bytes
            ):  # pragma: no cover - true by construction
                audit.append(
                    f"{parent.path}: children + self do not sum to total"
                )
        rows.append(row)

    if root_ro != accumulator.read_bytes:
        audit.append(
            f"RO bytes under read roots {root_ro} != "
            f"accumulator read_bytes {accumulator.read_bytes}"
        )
    expected_uo = accumulator.write_bytes + accumulator.flush_read_bytes
    if root_uo != expected_uo:
        audit.append(
            f"UO bytes under update/flush roots {root_uo} != "
            f"accumulator write+flush_read bytes {expected_uo}"
        )
    tracked = profile.total_live_bytes()
    untracked = sum(profile.untracked_frees.values())
    if untracked == 0 and tracked != allocated_bytes:
        audit.append(
            f"span-owned live bytes {tracked} != "
            f"device allocated bytes {allocated_bytes}"
        )

    # Space buckets: whatever the spans do not own is defined by
    # subtraction, so MO fractions sum exactly by construction.
    span_mo = 0.0
    for row in rows:
        if row.depth == 0:
            span_mo += row.mo
    non_device = AttributionRow(Attribution.NON_DEVICE, 0)
    non_device.live_bytes = space_bytes - tracked
    if base_bytes:
        non_device.mo = non_device.live_bytes / base_bytes
    headroom = AttributionRow(Attribution.PEAK_HEADROOM, 0)
    headroom.mo = memory_overhead - span_mo - non_device.mo
    rows.append(non_device)
    rows.append(headroom)

    ro_total = root_ro / retrieved if retrieved else 1.0
    uo_total = root_uo / updated if updated else 1.0
    if ro_total != accumulator.read_overhead:
        audit.append(
            f"attributed RO {ro_total} != aggregate {accumulator.read_overhead}"
        )
    if uo_total != accumulator.update_overhead:
        audit.append(
            f"attributed UO {uo_total} != aggregate "
            f"{accumulator.update_overhead}"
        )
    mo_total = span_mo + non_device.mo + headroom.mo
    if mo_total != memory_overhead:  # pragma: no cover - true by construction
        audit.append(
            f"attributed MO {mo_total} != aggregate {memory_overhead}"
        )
    return Attribution(rows, ro_total, uo_total, memory_overhead, audit)
