"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.metrics import Histogram, WorkloadMetrics
from repro.obs.sinks import JsonlSink, ListSink
from repro.obs.tracer import NULL_TRACER, RecordingTracer, TraceEvent, Tracer
from repro.storage.device import SimulatedDevice
from repro.storage.hierarchy import HierarchicalDevice, LevelSpec, MemoryHierarchy

from tests.conftest import SMALL_BLOCK


class ExplodingTracer(Tracer):
    """Disabled tracer that fails the test if emit is ever reached."""

    enabled = False

    def emit(self, *args, **kwargs):
        raise AssertionError("emit() called while tracing was disabled")


class TestTracer:
    def test_null_tracer_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(source="d", op="read", block_id=0)  # no-op

    def test_recording_tracer_numbers_events(self):
        sink = ListSink()
        tracer = RecordingTracer(sink)
        tracer.emit(source="d", op="read", block_id=3, cost=1.0, nbytes=256)
        tracer.emit(source="d", op="write", block_id=4)
        assert [event.seq for event in sink.events] == [0, 1]
        assert sink.events[0].op == "read"
        assert sink.events[0].block_id == 3

    def test_disabled_hot_path_never_calls_emit(self):
        device = SimulatedDevice(block_bytes=SMALL_BLOCK)
        device.set_tracer(ExplodingTracer())
        block = device.allocate()
        device.write(block, "x", used_bytes=8)
        device.read(block)
        device.free(block)  # nothing raised: zero-cost when disabled

    def test_device_emits_full_event_stream(self):
        sink = ListSink()
        device = SimulatedDevice(block_bytes=SMALL_BLOCK, name="flash")
        device.set_tracer(RecordingTracer(sink))
        block = device.allocate(kind="leaf")
        device.write(block, "x", used_bytes=8)
        device.read(block)
        device.free(block)
        assert [event.op for event in sink.events] == [
            "alloc", "write", "read", "free",
        ]
        read = sink.events[2]
        assert read.source == "flash"
        assert read.kind == "leaf"
        assert read.nbytes == SMALL_BLOCK
        assert read.cost == device.cost_model.random_read

    def test_sequential_flag_follows_block_ids(self):
        sink = ListSink()
        device = SimulatedDevice(block_bytes=SMALL_BLOCK)
        blocks = [device.allocate() for _ in range(3)]
        for block in blocks:
            device.write(block, block)
        device.set_tracer(RecordingTracer(sink))
        for block in blocks:
            device.read(block)
        device.read(blocks[0])
        flags = [event.sequential for event in sink.events]
        assert flags == [False, True, True, False]

    def test_tracing_does_not_change_counters(self):
        plain = SimulatedDevice(block_bytes=SMALL_BLOCK)
        traced = SimulatedDevice(block_bytes=SMALL_BLOCK)
        traced.set_tracer(RecordingTracer(ListSink()))
        for device in (plain, traced):
            block = device.allocate()
            device.write(block, "x", used_bytes=16)
            device.read(block)
        assert plain.counters == traced.counters


class TestHierarchicalDeviceTracing:
    def test_set_tracer_covers_facade_pool_and_backing(self):
        sink = ListSink()
        backing = SimulatedDevice(block_bytes=SMALL_BLOCK, name="flash")
        cached = HierarchicalDevice(MemoryHierarchy(backing, [LevelSpec("L0", 1)]))
        cached.set_tracer(RecordingTracer(sink))
        # Log blocks ride write-back, so the second write evicts a dirty a.
        a, b = cached.allocate(kind="wal"), cached.allocate(kind="wal")
        cached.write(a, "a", used_bytes=4)
        cached.write(b, "b", used_bytes=4)  # evicts + writes back a
        sources = {event.source for event in sink.events}
        assert {"hier(flash)", "pool(L0)", "flash"} <= sources
        ops = {event.op for event in sink.events}
        assert {"alloc", "write", "evict", "write_back"} <= ops


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with JsonlSink(path) as sink:
            tracer = RecordingTracer(sink)
            tracer.emit(source="d", op="read", block_id=1, kind="leaf",
                        sequential=True, cost=1.5, nbytes=256)
            tracer.emit(source="d", op="free", block_id=1)
            assert sink.events_written == 2
        with open(path) as handle:
            rows = [json.loads(line) for line in handle]
        assert rows[0] == {
            "seq": 0, "source": "d", "op": "read", "block_id": 1,
            "kind": "leaf", "sequential": True, "cost": 1.5, "nbytes": 256,
            "span": "",
        }
        assert rows[1]["op"] == "free"

    def test_jsonl_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "e.jsonl"))
        sink.close()
        sink.close()

    def test_jsonl_survives_mid_workload_fault(self, tmp_path):
        """A DeviceFault mid-workload leaves a complete, parseable trace.

        The sink's context manager closes (flushes) on the exception
        path, so every event emitted before the fault — including the
        ``fault`` event itself — is a whole JSON line on disk.
        """
        import pytest

        from repro.check.faults import DeviceFault, FaultPlan, FaultyDevice
        from repro.core.registry import create_method
        from repro.storage.device import SimulatedDevice
        from repro.workloads.runner import run_workload
        from repro.workloads.spec import WorkloadSpec

        path = str(tmp_path / "faulted.jsonl")
        device = FaultyDevice(
            SimulatedDevice(block_bytes=SMALL_BLOCK),
            FaultPlan(fail_read_at=40),
        )
        spec = WorkloadSpec(
            point_queries=0.5, inserts=0.3, updates=0.2,
            operations=400, initial_records=600,
        )
        with pytest.raises(DeviceFault):
            with JsonlSink(path) as sink:
                device.set_tracer(RecordingTracer(sink))
                run_workload(create_method("btree", device=device), spec)
        with open(path) as handle:
            rows = [json.loads(line) for line in handle]  # every line parses
        assert rows, "no events reached the sink before the fault"
        assert [row["seq"] for row in rows] == list(range(len(rows)))
        assert rows[-1]["op"] == "fault"
        assert rows[-1]["source"] == "faulty(device)"

    def test_event_to_dict_matches_fields(self):
        event = TraceEvent(seq=7, source="s", op="evict", block_id=9)
        assert event.to_dict()["seq"] == 7
        assert event.to_dict()["op"] == "evict"


class TestHistogram:
    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.min == 0.0 and histogram.max == 0.0
        assert histogram.percentile(0.5) == 0.0

    def test_summary_statistics_are_exact(self):
        histogram = Histogram()
        for value in [1, 2, 2, 3, 10]:
            histogram.record(value)
        assert histogram.count == 5
        assert histogram.total == 18
        assert histogram.mean == pytest.approx(3.6)
        assert histogram.min == 1 and histogram.max == 10
        assert histogram.percentile(0.5) == 2
        assert histogram.percentile(1.0) == 10
        assert histogram.to_dict() == {1: 1, 2: 2, 3: 1, 10: 1}

    def test_rejects_bad_input(self):
        histogram = Histogram()
        with pytest.raises(ValueError):
            histogram.record(-1)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_percentile_uses_ceil_rank_not_bankers_rounding(self):
        # Nearest-rank: p50 of five samples is the ceil(0.5*5)=3rd
        # smallest.  The old round() banker's-rounded 2.5 down to rank
        # 2 and reported the 2nd smallest.
        histogram = Histogram.from_samples([1, 2, 3, 4, 5])
        assert histogram.percentile(0.5) == 3
        assert histogram.percentile(0.25) == 2  # ceil(1.25) = rank 2
        assert histogram.percentile(0.95) == 5
        assert histogram.percentile(0.0) == 1   # rank clamps up to 1

    def test_percentile_exact_ranks_across_sizes(self):
        for count in range(1, 12):
            histogram = Histogram.from_samples(range(1, count + 1))
            for numerator in range(0, 101):
                fraction = numerator / 100
                expected = max(1, math.ceil(fraction * count))
                assert histogram.percentile(fraction) == expected

    def test_from_samples_matches_record(self):
        recorded = Histogram()
        for value in (3, 1, 2, 2):
            recorded.record(value)
        built = Histogram.from_samples([3, 1, 2, 2])
        assert built.to_dict() == recorded.to_dict()
        assert built.count == recorded.count
        assert built.total == recorded.total

    def test_merge_folds_counts(self):
        left, right = Histogram(), Histogram()
        left.record(1)
        right.record(1)
        right.record(4)
        left.merge(right)
        assert left.count == 3
        assert left.to_dict() == {1: 2, 4: 1}


class TestWorkloadMetrics:
    def test_records_per_label(self):
        metrics = WorkloadMetrics()
        metrics.record("point_query", 2, 2.0)
        metrics.record("point_query", 4, 4.0)
        metrics.record("insert", 1, 10.0)
        # Canonical presentation order: queries before mutations,
        # regardless of recording or alphabetical order.
        assert metrics.labels() == ["point_query", "insert"]
        assert metrics.blocks["point_query"].mean == 3.0
        assert metrics.time["insert"].total == 10.0

    def test_labels_pin_canonical_order_with_unknowns_last(self):
        metrics = WorkloadMetrics()
        for label in ("zz_custom", "flush", "insert", "range_query",
                      "aa_custom", "point_query", "delete", "update"):
            metrics.record(label, 1, 1.0)
        assert metrics.labels() == [
            "point_query", "range_query", "insert", "update", "delete",
            "flush", "aa_custom", "zz_custom",
        ]

    def test_serve_labels_render_in_lifecycle_order(self):
        # The serving tier's txn-*/wal-* kinds are canonical now:
        # protocol order (begin -> validate -> park -> commit/abort,
        # append -> sync, checkpoint, recover), not alphabetical
        # unknowns after the storage ops.
        metrics = WorkloadMetrics()
        for label in ("wal-sync", "txn-commit", "recover", "txn-begin",
                      "point_query", "wal-append", "txn-abort",
                      "checkpoint", "txn-validate", "txn-park", "flush"):
            metrics.record(label, 1, 1.0)
        assert metrics.labels() == [
            "point_query", "flush", "txn-begin", "txn-validate",
            "txn-park", "txn-commit", "txn-abort", "wal-append",
            "wal-sync", "checkpoint", "recover",
        ]

    def test_rows_match_headers(self):
        metrics = WorkloadMetrics()
        metrics.record("insert", 3, 30.0)
        rows = metrics.rows()
        assert len(rows) == 1
        assert len(rows[0]) == len(WorkloadMetrics.HEADERS)
        assert rows[0][0] == "insert"
        assert rows[0][1] == 1  # count


class TestRunnerIntegration:
    def test_run_workload_fills_metrics(self):
        from repro.core.registry import create_method
        from repro.workloads.runner import run_workload
        from repro.workloads.spec import WorkloadSpec

        spec = WorkloadSpec(
            point_queries=0.5, inserts=0.3, updates=0.2,
            operations=200, initial_records=600,
        )
        metrics = WorkloadMetrics()
        result = run_workload(
            create_method("btree", device=SimulatedDevice(block_bytes=SMALL_BLOCK)),
            spec,
            metrics=metrics,
        )
        assert "point_query" in metrics.blocks
        assert "insert" in metrics.blocks
        ops_recorded = sum(
            metrics.blocks[label].count
            for label in metrics.labels()
            if label != "flush"
        )
        assert ops_recorded == spec.operations
        # Histogram totals are the same I/O the profile aggregated.
        assert result.profile.read_overhead > 0

    def test_metrics_are_deterministic(self):
        from repro.core.registry import create_method
        from repro.workloads.runner import run_workload
        from repro.workloads.spec import WorkloadSpec

        spec = WorkloadSpec(
            point_queries=0.6, inserts=0.4, operations=150, initial_records=400,
        )
        snapshots = []
        for _ in range(2):
            metrics = WorkloadMetrics()
            run_workload(
                create_method("lsm", device=SimulatedDevice(block_bytes=SMALL_BLOCK)),
                spec,
                metrics=metrics,
            )
            snapshots.append(
                {label: metrics.blocks[label].to_dict() for label in metrics.labels()}
            )
        assert snapshots[0] == snapshots[1]
