"""Tracing overhead: disabled tracing is zero-cost, enabled is faithful.

The observability layer's contract (ISSUE 1) is that the trace hooks in
:class:`~repro.storage.device.SimulatedDevice`,
:class:`~repro.storage.pager.BufferPool` and
:class:`~repro.storage.hierarchy.HierarchicalDevice` may not perturb the numbers
the paper reproduction rests on:

* with tracing disabled the hot path performs *no tracer work at all* —
  proven with a tracer whose ``emit`` raises but whose ``enabled`` flag
  is off: a single emission-site call would fail the run;
* enabling tracing changes no measured quantity — the RUM profile of a
  traced run equals the untraced run bit for bit;
* the wall-clock cost of the disabled guard is below measurement noise —
  the disabled read loop must not be slower than the enabled one.
"""

from __future__ import annotations

import time

from repro.analysis.tables import format_table
from repro.obs.sinks import ListSink
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer
from repro.storage.device import SimulatedDevice
from repro.storage.hierarchy import HierarchicalDevice, LevelSpec, MemoryHierarchy
from repro.workloads.spec import WorkloadSpec

from benchmarks.harness import BENCH_BLOCK, build_method, emit_report, mark
from repro.workloads.runner import run_workload

SPEC = WorkloadSpec(
    point_queries=0.4,
    range_queries=0.1,
    inserts=0.3,
    updates=0.15,
    deletes=0.05,
    operations=400,
    initial_records=1200,
)

READS = 100_000


class _ExplodingTracer(Tracer):
    """Disabled tracer that fails the test if any site calls emit."""

    enabled = False

    def emit(self, *args, **kwargs) -> None:
        raise AssertionError("emit() called with tracing disabled")


def _one_level(backing: SimulatedDevice, capacity: int) -> HierarchicalDevice:
    """A buffer pool of ``capacity`` blocks mounted in front of ``backing``."""
    return HierarchicalDevice(MemoryHierarchy(backing, [LevelSpec("L0", capacity)]))


def _timed_reads(device: SimulatedDevice, block, n: int) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(n):
            device.read(block)
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_tracing_never_touches_the_tracer(benchmark):
    device = SimulatedDevice(block_bytes=BENCH_BLOCK)
    device.set_tracer(_ExplodingTracer())
    cached = _one_level(SimulatedDevice(block_bytes=BENCH_BLOCK), 2)
    cached.set_tracer(_ExplodingTracer())
    for target in (device, cached):
        blocks = [target.allocate() for _ in range(4)]
        for i, block in enumerate(blocks):
            target.write(block, i, used_bytes=8)
        for block in blocks:
            target.read(block)
        target.free(blocks[0])
    cached.flush()
    mark(benchmark)


def test_tracing_does_not_perturb_measurements(benchmark):
    baseline = run_workload(build_method("btree"), SPEC).profile
    traced_method = build_method("btree")
    traced_method.device.set_tracer(RecordingTracer(ListSink()))
    traced = run_workload(traced_method, SPEC).profile
    assert traced == baseline
    mark(benchmark)


def test_disabled_guard_costs_nothing(benchmark):
    disabled = SimulatedDevice(block_bytes=BENCH_BLOCK)
    block = disabled.allocate()
    disabled.write(block, "x", used_bytes=8)

    enabled = SimulatedDevice(block_bytes=BENCH_BLOCK)
    enabled.set_tracer(RecordingTracer(ListSink()))
    traced_block = enabled.allocate()
    enabled.write(traced_block, "x", used_bytes=8)

    disabled_s = _timed_reads(disabled, block, READS)
    enabled_s = _timed_reads(enabled, traced_block, READS)

    emit_report(
        "tracing_overhead",
        format_table(
            ["tracer", f"seconds / {READS} reads", "ns / read"],
            [
                ["null (default)", disabled_s, disabled_s / READS * 1e9],
                ["recording", enabled_s, enabled_s / READS * 1e9],
            ],
            title="hot-path read cost with tracing off vs on",
        ),
    )
    # The disabled guard is one attribute check; it cannot cost more
    # than event construction + sink append.  Generous margin for noise.
    assert disabled_s <= enabled_s * 1.5, (
        f"disabled tracing ({disabled_s:.4f}s) slower than enabled "
        f"({enabled_s:.4f}s) — the null-tracer hot path has gained work"
    )
    mark(benchmark)


def test_trace_stream_includes_pool_events(benchmark):
    sink = ListSink()
    backing = SimulatedDevice(block_bytes=BENCH_BLOCK, name="flash")
    cached = _one_level(backing, 2)
    cached.set_tracer(RecordingTracer(sink))
    # Log blocks ride write-back, so the overflow evicts dirty frames.
    blocks = [cached.allocate(kind="wal") for _ in range(4)]
    for i, block in enumerate(blocks):
        cached.write(block, i, used_bytes=8)  # overflows the 2-frame pool
    cached.flush()
    ops = {event.op for event in sink.events}
    assert {"alloc", "write", "evict", "write_back"} <= ops
    sources = {event.source for event in sink.events}
    assert {"hier(flash)", "pool(L0)", "flash"} <= sources
    seqs = [event.seq for event in sink.events]
    assert seqs == sorted(seqs) == list(range(len(seqs)))
    mark(benchmark)
