"""Benchmark-owned timing proxies: spans around every call into a layer.

The traced run never edits ``repro``; it wraps the objects a workload is
built from — a :class:`~repro.storage.device.SimulatedDevice` subclass
in the style of :class:`repro.check.faults.FaultyDevice`, a delegating
access-method proxy, a :class:`~repro.serve.server.Server` subclass
whose ``wal`` / ``commit_log`` / ``versions`` attributes are wrapped —
and records one span per call: layer-qualified name, start, end, the
span that caused it and the operation it belongs to.  Spans stay in
memory until :meth:`SpanRecorder.write`.

A per-call timer costs about as much as a device call, so traced times
give the *shape* of a run (who calls whom, how often, in what
proportion); prices come from the untraced isolated loops.
"""

from __future__ import annotations

import json
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.registry import create_method
from repro.serve.server import Server
from repro.storage.device import CostModel, SimulatedDevice
from repro.storage.hierarchy import HierarchicalDevice

from benchmarks.perf.harness import BLOCK_BYTES, OUT_DIR, mount

#: At most this many spans are written to a trace file (aggregates use all).
MAX_SPANS_WRITTEN = 100_000

_clock = time.perf_counter_ns


class SpanRecorder:
    """In-memory span log of one traced run (single-threaded, nested)."""

    def __init__(self) -> None:
        #: ``(name, start_ns, end_ns, parent_index, operation_index)``;
        #: a span's slot is reserved at entry so children can name it.
        self.spans: List[Optional[Tuple[str, int, int, int, int]]] = []
        self.current = -1
        #: Index of the workload operation (lib) or transaction attempt
        #: (serve) in flight — the identifier spans of one request share.
        self.operation = 0

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Run ``function`` inside a span named ``name``."""
        spans = self.spans
        index = len(spans)
        spans.append(None)
        parent = self.current
        self.current = index
        start = _clock()
        try:
            return function(*args, **kwargs)
        finally:
            end = _clock()
            self.current = parent
            spans[index] = (name, start, end, parent, self.operation)

    def timed(self, name: str, function: Callable) -> Callable:
        """``function`` wrapped so every call is a span named ``name``."""
        return partial(self.call, name, function)

    def stream(self, name: str, iterable):
        """Yield from ``iterable``, timing each ``next`` as a span."""
        iterator = iter(iterable)
        done = object()
        while True:
            item = self.call(name, next, iterator, done)
            if item is done:
                return
            yield item

    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total µs and self µs (total − children)."""
        spans = self.spans
        children = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        table: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(spans):
            duration = span[2] - span[1]
            row = table.setdefault(
                span[0], {"calls": 0, "total_us": 0.0, "self_us": 0.0}
            )
            row["calls"] += 1
            row["total_us"] += duration / 1e3
            row["self_us"] += (duration - children[index]) / 1e3
        return table

    def total_under(self, names: Tuple[str, ...], parents: Tuple[str, ...]) -> float:
        """Total µs of spans named in ``names`` whose direct parent is
        named in ``parents``."""
        spans = self.spans
        return sum(
            (span[2] - span[1]) / 1e3
            for span in spans
            if span[0] in names
            and span[3] >= 0
            and spans[span[3]][0] in parents
        )

    def write(self, workload: str, seed: int) -> str:
        """Write the spans to ``out/trace-<workload>.json``; returns the path."""
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}.json"
        origin = self.spans[0][1] if self.spans else 0
        rows = [
            [name, start - origin, end - origin, parent, operation]
            for name, start, end, parent, operation
            in self.spans[:MAX_SPANS_WRITTEN]
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": workload,
                    "seed": seed,
                    "columns": ["name", "start_ns", "end_ns", "parent", "operation"],
                    "spans_total": len(self.spans),
                    "spans": rows,
                },
                handle,
            )
        return str(path)


class TimedDevice(SimulatedDevice):
    """A raw device whose block operations are spans of ``storage.device``."""

    def __init__(self, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(**kwargs)
        self._recorder = recorder

    def read(self, block_id):
        return self._recorder.call(
            "storage.device.read", SimulatedDevice.read, self, block_id
        )

    def write(self, block_id, payload, used_bytes=0):
        self._recorder.call(
            "storage.device.write",
            SimulatedDevice.write, self, block_id, payload, used_bytes,
        )

    def allocate(self, kind="data"):
        return self._recorder.call(
            "storage.device.allocate", SimulatedDevice.allocate, self, kind
        )


class TimedHierarchy(HierarchicalDevice):
    """The hierarchy facade whose block operations are ``storage.hierarchy``
    spans; the backing :class:`TimedDevice`'s spans nest inside them, so
    the facade's self time is the pool/level hop."""

    def __init__(self, recorder: SpanRecorder, hierarchy) -> None:
        super().__init__(hierarchy)
        self._recorder = recorder

    def read(self, block_id):
        return self._recorder.call(
            "storage.hierarchy.read", HierarchicalDevice.read, self, block_id
        )

    def write(self, block_id, payload, used_bytes=0):
        self._recorder.call(
            "storage.hierarchy.write",
            HierarchicalDevice.write, self, block_id, payload, used_bytes,
        )

    def sync_through(self, block_ids):
        return self._recorder.call(
            "storage.hierarchy.sync_through",
            HierarchicalDevice.sync_through, self, block_ids,
        )


class Delegate:
    """An object that forwards everything to ``inner`` except the calls
    named in ``timed``, which become spans."""

    def __init__(
        self, inner, recorder: SpanRecorder, timed: Dict[str, str]
    ) -> None:
        self._inner = inner
        for attribute, span_name in timed.items():
            setattr(
                self, attribute,
                recorder.timed(span_name, getattr(inner, attribute)),
            )

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)


class TimedMethod(Delegate):
    """Delegating access-method proxy: one ``methods.*`` span per call.

    A workload operation (or an ``apply_batch`` segment of them) also
    advances the recorder's operation index, and the segments handed to
    ``apply_batch`` are kept so the bare replay loop can repeat them.
    """

    _OPERATIONS = ("get", "range_query", "insert", "update", "delete")

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        names = self._OPERATIONS + ("flush", "bulk_load", "audit")
        super().__init__(
            inner, recorder, {name: f"methods.{name}" for name in names}
        )
        self._recorder = recorder
        self.segments: List[list] = []
        for name in self._OPERATIONS:
            setattr(self, name, self._counted(getattr(self, name)))

    def _counted(self, call: Callable) -> Callable:
        recorder = self._recorder

        def counted(*args):
            recorder.operation += 1
            return call(*args)

        return counted

    def apply_batch(self, operations):
        self.segments.append(operations)
        self._recorder.operation += len(operations)
        return self._recorder.call(
            "methods.apply_batch", self._inner.apply_batch, operations
        )


class TimedServer(Server):
    """A server whose session-facing calls, WAL, OCC validation and
    version-overlay reads are spans; pass it to ``run_bench(server=)``."""

    def __init__(self, method, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(method, **kwargs)
        self._recorder = recorder
        self.wal = Delegate(self.wal, recorder, {
            "append": "serve.wal.append",
            "sync": "serve.wal.sync",
            "checkpoint": "serve.wal.checkpoint",
        })
        self.commit_log = Delegate(
            self.commit_log, recorder, {"conflict": "serve.versions.conflict"}
        )
        self.versions = Delegate(
            self.versions, recorder, {"read_at": "serve.versions.read_at"}
        )

    def begin(self):
        self._recorder.operation += 1
        return self._recorder.call("serve.server.begin", Server.begin, self)

    def read(self, txn, key):
        return self._recorder.call(
            "serve.server.read", Server.read, self, txn, key
        )

    def range_read(self, txn, lo, hi):
        return self._recorder.call(
            "serve.server.range_read", Server.range_read, self, txn, lo, hi
        )

    def commit(self, txn):
        return self._recorder.call(
            "serve.server.commit", Server.commit, self, txn
        )

    def poll_group(self, force=False):
        return self._recorder.call(
            "serve.server.poll_group", Server.poll_group, self, force
        )


def build_method(
    name: str, levels: Sequence[int], recorder: Optional[SpanRecorder] = None
):
    """A fresh, empty ``name`` method on a fresh flash device behind
    ``levels`` — with a timing proxy at every boundary when ``recorder``."""
    settings = dict(block_bytes=BLOCK_BYTES, cost_model=CostModel.flash())
    if recorder is None:
        device = mount(SimulatedDevice(**settings), levels)
        return create_method(name, device=device)
    device = mount(
        TimedDevice(recorder, **settings), levels,
        facade=lambda hierarchy: TimedHierarchy(recorder, hierarchy),
    )
    return TimedMethod(create_method(name, device=device), recorder)
