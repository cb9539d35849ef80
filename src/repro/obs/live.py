"""Live observability: sliding windows over *simulated* time.

Everything else in :mod:`repro.obs` is post-hoc — :class:`SpanProfile`
and :class:`~repro.obs.metrics.WorkloadMetrics` are rebuilt from a
complete event stream after the run ends.  This module keeps the same
numbers *while the workload runs*, bucketed into fixed-width windows of
simulated time (the deterministic clock priced by the device's
:class:`~repro.storage.device.CostModel` — no wall clock anywhere), so
an online controller can watch a workload drift instead of reading an
autopsy.

Three layers, from generic to specific:

:class:`LiveRegistry`
    Named counters, gauges and windowed histograms over a ring of
    closed windows plus one open window.  Exact integer sums; nearest-
    rank percentiles via the same :class:`~repro.obs.metrics.Histogram`
    the post-hoc tables use, so "p95 latency" means the same thing live
    and after the fact.  The serving tier feeds one of these.
:class:`WindowedRUM`
    A streaming consumer of the measurement loop's per-operation device
    deltas (and, optionally, span-tagged trace events for per-phase
    byte attribution) that emits per-window RO/UO/MO.  Its conservation
    contract: the per-window **integer** numerators and denominators sum
    *exactly* to the whole-run totals the
    :class:`~repro.core.rum.RUMAccumulator` reports — each operation's
    deltas land in exactly one window, so the window sums telescope into
    the run totals by construction (the property suite asserts this
    across workloads, window widths and batch sizes).
:class:`DriftDetector`
    Classifies each window's operation mix (read-heavy / update-heavy /
    scan-heavy / mixed) with hysteresis and emits ``drift`` trace
    events on state transitions — the sensing half of the ROADMAP's
    closed-loop tuner.

The disabled path is near-zero-cost by the same discipline as spans:
the measurement loop guards every tap with one ``live is not None``
check (priced by the unobserved ``lib-*`` workloads of
``benchmarks/perf``), and windows only exist while a consumer holds
them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs.metrics import Histogram
from repro.obs.sinks import TraceSink
from repro.obs.spans import UNSPANNED
from repro.obs.tracer import TraceEvent, Tracer
from repro.storage.layout import RECORD_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.interfaces import AccessMethod
    from repro.exec.cells import SweepCell
    from repro.storage.device import IOStats

#: Closed windows a :class:`LiveRegistry` retains before folding the
#: oldest into its eviction totals (counters stay conserved; detail is
#: what ages out).
DEFAULT_RING_SIZE = 64

#: :class:`WindowedRUM` keeps a deeper ring by default: ``repro top``
#: renders whole short runs from it.
DEFAULT_RUM_RING_SIZE = 256

#: Drift states a :class:`DriftDetector` can report.
DRIFT_STATES = ("read-heavy", "update-heavy", "scan-heavy", "mixed")

#: Operation-kind labels the drift classifier buckets as reads/updates.
READ_KINDS = ("point_query", "range_query")
UPDATE_KINDS = ("insert", "update", "delete")


class _WindowRing:
    """Shared windowing core: one open window + a ring of closed ones.

    Windows are fixed-width buckets of simulated time: an observation at
    time ``t`` lands in window ``floor(t / width)``.  Observations must
    arrive in non-decreasing time order (simulated time is monotone);
    the rare equal-boundary case stays in the open window.  When the
    ring overflows, the oldest closed window is handed to
    :meth:`_fold_evicted` so subclasses can keep their conservation
    totals exact while shedding per-window detail.
    """

    def __init__(self, width: float, ring_size: int = DEFAULT_RING_SIZE) -> None:
        if width <= 0:
            raise ValueError(f"window width must be positive, got {width}")
        if ring_size < 1:
            raise ValueError(f"ring size must be at least 1, got {ring_size}")
        self.width = float(width)
        self.ring_size = int(ring_size)
        self._closed: deque = deque()
        self._open: Optional[Any] = None
        #: Closed windows folded out of the ring so far.
        self.evicted_windows = 0

    def _new_window(self, index: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def _fold_evicted(self, window) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _window(self, now: float):
        """The window containing ``now``, rolling the ring forward."""
        index = int(now // self.width)
        open_window = self._open
        if open_window is not None:
            if index <= open_window.index:
                return open_window
            self._closed.append(open_window)
            if len(self._closed) > self.ring_size:
                self._fold_evicted(self._closed.popleft())
                self.evicted_windows += 1
        window = self._new_window(index)
        self._open = window
        return window

    def windows(self) -> List[Any]:
        """Retained windows, oldest first (closed ring + the open one)."""
        out = list(self._closed)
        if self._open is not None:
            out.append(self._open)
        return out


class _RegistryWindow:
    """One :class:`LiveRegistry` window: counters, gauges, histograms."""

    __slots__ = ("index", "counters", "gauges", "histograms")

    def __init__(self, index: int) -> None:
        self.index = index
        self.counters: Dict[str, int] = {}
        #: name -> [last value, max value] within the window.
        self.gauges: Dict[str, List[float]] = {}
        self.histograms: Dict[str, Histogram] = {}


class LiveRegistry(_WindowRing):
    """Named counters, gauges and histograms over simulated-time windows.

    Counters are exact integers and stay conserved across ring eviction
    (folded into :attr:`evicted_counters`); gauges keep last and max per
    window; histograms are exact :class:`~repro.obs.metrics.Histogram`
    instances, so live percentiles use the identical nearest-rank
    definition as the post-hoc tables.  All mutation goes through
    :meth:`count` / :meth:`gauge` / :meth:`observe` —
    ``tools/lint_counters.py`` confines those calls to the sanctioned
    emit sites (``repro/obs`` plus the runner/serve taps).
    """

    def __init__(self, width: float, ring_size: int = DEFAULT_RING_SIZE) -> None:
        super().__init__(width, ring_size=ring_size)
        #: Counter totals folded out of the ring, name -> sum.
        self.evicted_counters: Dict[str, int] = {}

    def _new_window(self, index: int) -> _RegistryWindow:
        return _RegistryWindow(index)

    def _fold_evicted(self, window: _RegistryWindow) -> None:
        for name, value in window.counters.items():
            self.evicted_counters[name] = (
                self.evicted_counters.get(name, 0) + value
            )

    def count(self, name: str, delta: int = 1, *, now: float) -> None:
        """Add ``delta`` to counter ``name`` in the window of ``now``."""
        window = self._window(now)
        window.counters[name] = window.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float, *, now: float) -> None:
        """Set gauge ``name`` (last-write-wins; per-window max kept too)."""
        window = self._window(now)
        entry = window.gauges.get(name)
        if entry is None:
            window.gauges[name] = [value, value]
        else:
            entry[0] = value
            if value > entry[1]:
                entry[1] = value

    def observe(self, name: str, value: float, *, now: float) -> None:
        """Record one histogram sample for ``name`` in ``now``'s window."""
        window = self._window(now)
        histogram = window.histograms.get(name)
        if histogram is None:
            histogram = Histogram()
            window.histograms[name] = histogram
        histogram.record(value)

    def advance(self, now: float) -> None:
        """Roll the open window forward to ``now`` without recording."""
        self._window(now)

    def counter_total(self, name: str) -> int:
        """Exact all-time total for ``name`` (evicted + retained)."""
        total = self.evicted_counters.get(name, 0)
        for window in self.windows():
            total += window.counters.get(name, 0)
        return total

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-pure per-window frames, oldest first."""
        frames: List[Dict[str, Any]] = []
        for window in self.windows():
            frames.append({
                "window": window.index,
                "start": window.index * self.width,
                "counters": dict(sorted(window.counters.items())),
                "gauges": {
                    name: {"last": last, "max": peak}
                    for name, (last, peak) in sorted(window.gauges.items())
                },
                "histograms": {
                    name: {
                        "count": hist.count,
                        "mean": hist.mean,
                        "p50": hist.percentile(0.5),
                        "p95": hist.percentile(0.95),
                        "p99": hist.percentile(0.99),
                        "max": hist.max,
                    }
                    for name, hist in sorted(window.histograms.items())
                },
            })
        return frames


class _RUMWindow:
    """One :class:`WindowedRUM` window: the accumulator fields, bucketed."""

    __slots__ = (
        "index", "read_bytes", "retrieved_bytes", "write_bytes",
        "flush_read_bytes", "updated_bytes", "read_ops", "update_ops",
        "simulated_time", "ops", "space_amplification", "phases",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.read_bytes = 0
        self.retrieved_bytes = 0
        self.write_bytes = 0
        self.flush_read_bytes = 0
        self.updated_bytes = 0
        self.read_ops = 0
        self.update_ops = 0
        self.simulated_time = 0.0
        self.ops: Dict[str, int] = {}
        #: Peak space amplification sampled inside the window (0.0 =
        #: never sampled here).
        self.space_amplification = 0.0
        #: Span path -> bytes moved, from consumed trace events.
        self.phases: Dict[str, int] = {}


class WindowedRUM(_WindowRing):
    """Streaming per-window RO/UO/MO from the measurement loop's deltas.

    The loop calls :meth:`observe_op` with each operation's
    :class:`~repro.storage.device.IOStats` delta and its completion time
    (``before.simulated_time + io.simulated_time``), :meth:`observe_flush`
    for the terminal flush, and :meth:`observe_space` at the space-
    sampling cadence.  Each call charges exactly the integers the
    :class:`~repro.core.rum.RUMAccumulator` charges, into exactly one
    window — so :meth:`totals` equals the accumulator's fields exactly,
    whatever the window width (the conservation contract).

    Optionally, span-tagged trace events can be streamed through
    :meth:`consume_event` (e.g. via :class:`LiveSink`): event bytes are
    attributed to the active span path in the window where the I/O
    happened, giving per-window per-phase byte breakdowns without ever
    building the full span tree.  Phase bytes are attributed where the
    I/O *happened*, op counters where the op *completed* — an operation
    straddling a window boundary splits its phase bytes but not its
    counters, so only the counter fields carry the conservation
    contract.
    """

    #: The integer accumulator fields under the conservation contract.
    INT_FIELDS = (
        "read_bytes", "retrieved_bytes", "write_bytes",
        "flush_read_bytes", "updated_bytes", "read_ops", "update_ops",
    )

    def __init__(
        self, width: float, ring_size: int = DEFAULT_RUM_RING_SIZE
    ) -> None:
        super().__init__(width, ring_size=ring_size)
        self._clock = 0.0
        self._event_clock = 0.0
        self.evicted_totals: Dict[str, int] = {f: 0 for f in self.INT_FIELDS}
        self._evicted_ops: Dict[str, int] = {}
        self._evicted_phases: Dict[str, int] = {}

    def _new_window(self, index: int) -> _RUMWindow:
        return _RUMWindow(index)

    def _fold_evicted(self, window: _RUMWindow) -> None:
        for name in self.INT_FIELDS:
            self.evicted_totals[name] += getattr(window, name)
        for kind, count in window.ops.items():
            self._evicted_ops[kind] = self._evicted_ops.get(kind, 0) + count
        for phase, nbytes in window.phases.items():
            self._evicted_phases[phase] = (
                self._evicted_phases.get(phase, 0) + nbytes
            )

    def observe_op(
        self,
        kind: str,
        is_read: bool,
        io: "IOStats",
        units: int,
        now: float,
    ) -> None:
        """Account one measured operation completing at ``now``.

        ``units`` is ``max(records_retrieved, 1)`` for reads and the
        records updated (1) for writes — the same denominator unit the
        accumulator charges, converted to bytes here.
        """
        self._clock = now
        window = self._window(now)
        if is_read:
            window.read_ops += 1
            window.read_bytes += io.read_bytes
            window.retrieved_bytes += units * RECORD_BYTES
        else:
            window.update_ops += 1
            window.write_bytes += io.write_bytes
            window.updated_bytes += units * RECORD_BYTES
        window.simulated_time += io.simulated_time
        window.ops[kind] = window.ops.get(kind, 0) + 1

    def observe_flush(self, io: "IOStats", now: float) -> None:
        """Account the terminal flush (writes + flush reads charge UO)."""
        self._clock = now
        window = self._window(now)
        window.write_bytes += io.write_bytes
        window.flush_read_bytes += io.read_bytes
        window.simulated_time += io.simulated_time
        window.ops["flush"] = window.ops.get("flush", 0) + 1

    def observe_space(self, method: "AccessMethod") -> None:
        """Sample the method's space amplification into the open window.

        Called at the measurement loop's space-sampling cadence, right
        after :meth:`~repro.core.rum.RUMAccumulator.sample_space` — the
        max over all window gauges equals the accumulator's sampled
        peak.
        """
        stats = method.stats()
        if stats.base_bytes > 0:
            window = self._window(self._clock)
            amplification = stats.space_amplification
            if amplification > window.space_amplification:
                window.space_amplification = amplification

    def consume_event(self, event: TraceEvent) -> None:
        """Attribute one span-tagged trace event's bytes to its window.

        Maintains its own running clock (the sum of event costs equals
        the device's simulated time, because every priced device
        operation emits exactly one event while traced), so events can
        be consumed as they stream without asking the device for the
        time.
        """
        if event.cost:
            self._event_clock += event.cost
        nbytes = event.nbytes
        if not nbytes:
            return
        window = self._window(self._event_clock)
        phase = event.span or UNSPANNED
        window.phases[phase] = window.phases.get(phase, 0) + nbytes

    def totals(self) -> Dict[str, int]:
        """Exact all-time integer sums (evicted + retained windows).

        Equal, field for field, to the whole-run
        :class:`~repro.core.rum.RUMAccumulator` the measurement loop
        filled alongside this consumer.
        """
        out = dict(self.evicted_totals)
        for window in self.windows():
            for name in self.INT_FIELDS:
                out[name] += getattr(window, name)
        return out

    def frames(self) -> List[Dict[str, Any]]:
        """JSON-pure per-window frames, oldest first.

        Deterministic by construction (simulated time, sorted keys) —
        ``repro top --json`` output built from these frames is
        byte-identical across serial and parallel replays.
        """
        out: List[Dict[str, Any]] = []
        for window in self.windows():
            retrieved = window.retrieved_bytes
            updated = window.updated_bytes
            out.append({
                "window": window.index,
                "start": window.index * self.width,
                "read_bytes": window.read_bytes,
                "retrieved_bytes": retrieved,
                "write_bytes": window.write_bytes,
                "flush_read_bytes": window.flush_read_bytes,
                "updated_bytes": updated,
                "read_ops": window.read_ops,
                "update_ops": window.update_ops,
                "simulated_time": window.simulated_time,
                "ops": dict(sorted(window.ops.items())),
                "ro": (window.read_bytes / retrieved) if retrieved else 1.0,
                "uo": (
                    (window.write_bytes + window.flush_read_bytes) / updated
                ) if updated else 1.0,
                "mo": window.space_amplification,
                "phases": dict(sorted(window.phases.items())),
            })
        return out


class LiveSink(TraceSink):
    """A trace sink that streams every event into a :class:`WindowedRUM`.

    Attach via ``RecordingTracer(LiveSink(windowed))`` (optionally
    chaining to another sink) and the windowed consumer sees span-tagged
    events as they happen — per-phase attribution with no stored event
    list and no post-hoc tree rebuild.
    """

    def __init__(
        self, windowed: WindowedRUM, chain: Optional[TraceSink] = None
    ) -> None:
        self.windowed = windowed
        self.chain = chain

    def emit(self, event: TraceEvent) -> None:
        """Forward one event to the windowed consumer (and the chain)."""
        self.windowed.consume_event(event)
        if self.chain is not None:
            self.chain.emit(event)


def emit_drift_event(
    tracer: Tracer, window_index: int, old_state: str, new_state: str
) -> None:
    """Emit one ``op="drift"`` trace event for a detector transition.

    The window index rides in the ``block_id`` slot (events are keyed by
    an integer either way, like ``emit_txn_event``) and the transition
    in ``kind``.
    """
    if not tracer.enabled:
        return
    tracer.emit(
        source="drift",
        op="drift",
        block_id=window_index,
        kind=f"{old_state}->{new_state}",
    )


class DriftDetector:
    """Classify window op mixes with hysteresis; the tuner's sensor.

    Feed each closed window's ``ops`` mapping (kind -> count) through
    :meth:`observe`.  The classifier checks, in order: scan-heavy
    (range-query share of measured ops at least ``scan_fraction`` —
    scans are rare enough in mixed workloads that a modest share already
    dominates cost), update-heavy (insert+update+delete share at least
    ``update_fraction``), read-heavy (read share at least
    ``read_fraction``), else mixed.  A state change is only committed
    after ``hysteresis`` *consecutive* windows classify to the same new
    state — one anomalous window cannot flap the controller — and each
    committed transition is appended to :attr:`transitions` and emitted
    as a ``drift`` trace event through the attached tracer.
    """

    def __init__(
        self,
        hysteresis: int = 2,
        read_fraction: float = 0.6,
        update_fraction: float = 0.5,
        scan_fraction: float = 0.25,
        tracer: Optional[Tracer] = None,
        initial_state: str = "mixed",
    ) -> None:
        if hysteresis < 1:
            raise ValueError(f"hysteresis must be at least 1, got {hysteresis}")
        if initial_state not in DRIFT_STATES:
            raise ValueError(f"unknown drift state {initial_state!r}")
        self.hysteresis = hysteresis
        self.read_fraction = read_fraction
        self.update_fraction = update_fraction
        self.scan_fraction = scan_fraction
        self.tracer = tracer
        self.state = initial_state
        self._pending: Optional[str] = None
        self._streak = 0
        #: Committed transitions: (window_index, old_state, new_state).
        self.transitions: List[tuple] = []

    def classify(self, ops: Dict[str, int]) -> str:
        """The instantaneous label for one window's op mix."""
        reads = sum(ops.get(kind, 0) for kind in READ_KINDS)
        updates = sum(ops.get(kind, 0) for kind in UPDATE_KINDS)
        total = reads + updates
        if total == 0:
            return self.state
        if ops.get("range_query", 0) / total >= self.scan_fraction:
            return "scan-heavy"
        if updates / total >= self.update_fraction:
            return "update-heavy"
        if reads / total >= self.read_fraction:
            return "read-heavy"
        return "mixed"

    def observe(self, ops: Dict[str, int], window_index: int) -> Optional[str]:
        """Fold one window in; returns the new state on a transition."""
        label = self.classify(ops)
        if label == self.state:
            self._pending = None
            self._streak = 0
            return None
        if label == self._pending:
            self._streak += 1
        else:
            self._pending = label
            self._streak = 1
        if self._streak < self.hysteresis:
            return None
        old_state = self.state
        self.state = label
        self._pending = None
        self._streak = 0
        self.transitions.append((window_index, old_state, label))
        if self.tracer is not None:
            emit_drift_event(self.tracer, window_index, old_state, label)
        return label


def run_live_workload(
    method: "AccessMethod",
    spec,
    width: float,
    ring_size: int = DEFAULT_RUM_RING_SIZE,
    hysteresis: int = 2,
) -> Dict[str, Any]:
    """Run ``spec`` against ``method`` with live windows; return frames.

    The in-process core behind :func:`run_live_cell` and ``repro top``:
    attaches a :class:`LiveSink`-fed tracer, runs the workload inside
    span collection (so phase attribution has span paths to key on),
    replays a :class:`DriftDetector` over the closed windows, and
    returns a JSON-pure dict — frames, drift states, the conservation
    check against the run's accumulator, and the final profile.
    """
    from repro.core.rum import RUMAccumulator
    from repro.obs.spans import span_collection
    from repro.obs.tracer import RecordingTracer
    from repro.workloads.runner import run_workload

    live = WindowedRUM(width, ring_size=ring_size)
    method.device.set_tracer(RecordingTracer(LiveSink(live)))
    accumulator = RUMAccumulator()
    with span_collection():
        result = run_workload(
            method, spec, accumulator=accumulator, live=live
        )
    detector = DriftDetector(hysteresis=hysteresis)
    frames = live.frames()
    for frame in frames:
        detector.observe(frame["ops"], frame["window"])
        frame["drift"] = detector.state
    totals = live.totals()
    run_totals = {
        name: getattr(accumulator, name) for name in WindowedRUM.INT_FIELDS
    }
    profile = result.profile
    return {
        "method": result.method_name,
        "window": float(width),
        "frames": frames,
        "totals": totals,
        "run_totals": run_totals,
        "conserved": totals == run_totals,
        "evicted_windows": live.evicted_windows,
        "operations_executed": result.operations_executed,
        "drift_transitions": [
            {"window": index, "from": old, "to": new}
            for index, old, new in detector.transitions
        ],
        "profile": {
            "ro": profile.read_overhead,
            "uo": profile.update_overhead,
            "mo": profile.memory_overhead,
            "simulated_time": profile.simulated_time,
        },
    }


def run_live_cell(
    cell: "SweepCell", tracer: Optional[Tracer] = None
) -> Dict[str, Any]:
    """Sweep runner for live windows: ``repro top``'s replay core.

    A :class:`~repro.exec.cells.SweepCell` custom runner
    (``"repro.obs.live:run_live_cell"``): builds the cell's device and
    method, runs :func:`run_live_workload` with the cell's ``window`` /
    ``ring`` / ``hysteresis`` params, and returns the JSON-pure frame
    dict — so the engine's serial and parallel paths (and its result
    cache) produce byte-identical ``repro top --json`` output.

    The runner installs its own recording tracer (the live sink needs
    the event stream), so it refuses engine-level event collection.
    """
    if tracer is not None:
        raise ValueError(
            "run_live_cell records its own trace; run the sweep without "
            "collect_events"
        )
    from repro.core.registry import create_method
    from repro.storage.device import SimulatedDevice

    params = cell.param_kwargs()
    device = SimulatedDevice(
        block_bytes=cell.block_bytes,
        cost_model=cell.cost_model,
        name=cell.display_label,
    )
    method = create_method(cell.method, device=device, **cell.override_kwargs())
    return run_live_workload(
        method,
        cell.spec,
        width=float(params.get("window", 50.0)),
        ring_size=int(params.get("ring", DEFAULT_RUM_RING_SIZE)),
        hysteresis=int(params.get("hysteresis", 2)),
    )
