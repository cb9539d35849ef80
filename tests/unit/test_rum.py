"""Unit tests for RUM overhead accounting (the paper's Section 2)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.registry import available_methods, create_method
from repro.core.rum import (
    RUMAccumulator,
    RUMProfile,
    measure_workload,
    measure_workload_batched,
)
from repro.methods.btree import BPlusTree
from repro.methods.unsorted_column import UnsortedColumn
from repro.obs.live import WindowedRUM
from repro.storage.device import IOStats, SimulatedDevice
from repro.storage.hierarchy import HierarchicalDevice, LevelSpec, MemoryHierarchy
from repro.storage.layout import RECORD_BYTES
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import MIXES, Operation, OpKind

from tests.conftest import SMALL_BLOCK, sample_records
from tests.unit.test_method_contract import TUNED_KWARGS


class TestAccumulator:
    def test_read_overhead_ratio(self):
        acc = RUMAccumulator()
        io = IOStats(reads=2, read_bytes=2 * 4096)
        acc.record_read(io, records_retrieved=1)
        assert acc.read_overhead == pytest.approx(2 * 4096 / RECORD_BYTES)

    def test_update_overhead_ratio(self):
        acc = RUMAccumulator()
        io = IOStats(writes=1, write_bytes=4096)
        acc.record_update(io)
        assert acc.update_overhead == pytest.approx(4096 / RECORD_BYTES)

    def test_miss_counts_one_intended_record(self):
        acc = RUMAccumulator()
        acc.record_read(IOStats(read_bytes=100), records_retrieved=0)
        assert acc.retrieved_bytes == RECORD_BYTES

    def test_range_retrieval_scales_denominator(self):
        acc = RUMAccumulator()
        acc.record_read(IOStats(read_bytes=4096), records_retrieved=100)
        assert acc.retrieved_bytes == 100 * RECORD_BYTES

    def test_no_reads_defaults_to_one(self):
        acc = RUMAccumulator()
        assert acc.read_overhead == 1.0
        assert acc.update_overhead == 1.0

    def test_aggregation_over_operations(self):
        acc = RUMAccumulator()
        acc.record_read(IOStats(read_bytes=64), records_retrieved=1)
        acc.record_read(IOStats(read_bytes=192), records_retrieved=1)
        # (64 + 192) / (2 * 16)
        assert acc.read_overhead == pytest.approx(256 / (2 * RECORD_BYTES))

    def test_flush_reads_amplify_uo_not_ro(self):
        """Deferred-maintenance reads (compaction re-reading runs) are
        physical update work: they belong in the UO numerator and must
        never leak into RO."""
        acc = RUMAccumulator()
        acc.record_update(IOStats(write_bytes=100), records_updated=1)
        acc.updated_bytes = 50
        acc.write_bytes = 100
        acc.flush_read_bytes = 50
        assert acc.update_overhead == pytest.approx((100 + 50) / 50)
        assert acc.read_overhead == 1.0  # no read op recorded


class TestProfile:
    def test_str_is_informative(self):
        profile = RUMProfile(2.0, 3.0, 1.5, name="x")
        assert "RO=2.00" in str(profile)
        assert "UO=3.00" in str(profile)
        assert "MO=1.50" in str(profile)

    def test_dominance(self):
        better = RUMProfile(1.0, 1.0, 1.0)
        worse = RUMProfile(2.0, 1.0, 1.0)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_equal_profiles_do_not_dominate(self):
        a = RUMProfile(1.0, 1.0, 1.0)
        b = RUMProfile(1.0, 1.0, 1.0)
        assert not a.dominates(b)

    def test_incomparable_profiles(self):
        a = RUMProfile(1.0, 3.0, 1.0)
        b = RUMProfile(3.0, 1.0, 1.0)
        assert not a.dominates(b)
        assert not b.dominates(a)


class TestMeasureWorkload:
    def _method(self):
        method = UnsortedColumn(SimulatedDevice(block_bytes=SMALL_BLOCK))
        method.bulk_load(sample_records(64))
        return method

    def test_point_queries_measured(self):
        method = self._method()
        ops = [Operation(OpKind.POINT_QUERY, 10)]
        profile = measure_workload(method, ops)
        assert profile.read_overhead >= 1.0
        assert profile.memory_overhead >= 1.0

    def test_inserts_measured(self):
        method = self._method()
        ops = [Operation(OpKind.INSERT, 1001, 5)]
        profile = measure_workload(method, ops)
        assert profile.update_overhead >= 1.0
        assert method.get(1001) == 5

    def test_updates_and_deletes(self):
        method = self._method()
        ops = [
            Operation(OpKind.UPDATE, 10, 999),
            Operation(OpKind.DELETE, 12),
        ]
        profile = measure_workload(method, ops)
        assert method.get(10) == 999
        assert method.get(12) is None
        assert profile.update_overhead > 0

    def test_missing_update_keys_skipped(self):
        method = self._method()
        ops = [Operation(OpKind.UPDATE, 777777, 1), Operation(OpKind.DELETE, 888888)]
        profile = measure_workload(method, ops)  # must not raise
        assert profile.update_overhead == 1.0  # nothing was written

    def test_range_query_measured(self):
        method = self._method()
        ops = [Operation(OpKind.RANGE_QUERY, 0, high_key=30)]
        profile = measure_workload(method, ops)
        assert profile.read_overhead >= 1.0

    def test_profile_names_method(self):
        method = self._method()
        profile = measure_workload(method, [])
        assert profile.name == "unsorted-column"

    def test_terminal_flush_reads_charged_to_uo(self):
        """Regression: the terminal flush used to drop its read bytes on
        the floor — a buffering method's compaction reads went uncharged.
        They must now appear in the UO numerator."""
        from repro.methods.lsm import LSMTree

        def build():
            method = LSMTree(
                SimulatedDevice(block_bytes=SMALL_BLOCK),
                memtable_records=32,
                size_ratio=3,
            )
            method.bulk_load(sample_records(200))
            method.flush()
            return method

        # 52 inserts: the 32nd flushes the memtable into a level-0 run,
        # so the *terminal* flush must merge with it — reading that run.
        ops = [Operation(OpKind.INSERT, 1001 + 2 * i, i) for i in range(52)]

        # Replay the identical run by hand to capture the flush I/O split.
        replica = build()
        write_bytes = 0
        for op in ops:
            before = replica.device.snapshot()
            replica.insert(op.key, op.value)
            write_bytes += replica.device.stats_since(before).write_bytes
        before = replica.device.snapshot()
        replica.flush()
        flush_io = replica.device.stats_since(before)
        assert flush_io.read_bytes > 0, "scenario must exercise merge reads"

        profile = measure_workload(build(), ops)
        updated = len(ops) * RECORD_BYTES
        assert profile.update_overhead == pytest.approx(
            (write_bytes + flush_io.write_bytes + flush_io.read_bytes) / updated
        )

    def test_audit_every_passes_on_healthy_method(self):
        method = self._method()
        ops = [Operation(OpKind.INSERT, 1001 + 2 * i, i) for i in range(10)]
        profile = measure_workload(method, ops, audit_every=2)
        assert profile.update_overhead >= 1.0

    def test_audit_every_raises_on_corruption(self):
        from repro.check import AuditError

        method = self._method()
        method._record_count += 3  # plant a counter drift
        ops = [Operation(OpKind.POINT_QUERY, 10)]
        with pytest.raises(AuditError) as excinfo:
            measure_workload(method, ops, audit_every=1)
        assert excinfo.value.method_name == "unsorted-column"
        assert excinfo.value.violations

    def test_audit_every_zero_skips_audits(self):
        method = self._method()
        method._record_count += 3  # corruption goes unnoticed when off
        ops = [Operation(OpKind.POINT_QUERY, 10)]
        measure_workload(method, ops)  # must not raise


class TestMeasureWorkloadBatched:
    def _method(self):
        method = UnsortedColumn(SimulatedDevice(block_bytes=SMALL_BLOCK))
        method.bulk_load(sample_records(64))
        return method

    def _ops(self):
        return (
            [Operation(OpKind.POINT_QUERY, 2 * i) for i in range(20)]
            + [Operation(OpKind.INSERT, 1001 + 2 * i, i) for i in range(20)]
            + [Operation(OpKind.UPDATE, 10, 999)]
            + [Operation(OpKind.RANGE_QUERY, 0, high_key=30)]
        )

    @staticmethod
    def _batched(ops, size):
        return [ops[i : i + size] for i in range(0, len(ops), size)]

    @pytest.mark.parametrize("size", [2, 5, 16, 17, 64])
    def test_profile_matches_per_op_loop(self, size):
        ops = self._ops()
        per_op = measure_workload(self._method(), ops)
        batched = measure_workload_batched(
            self._method(), self._batched(ops, size)
        )
        assert batched == per_op

    @staticmethod
    def _with_absent_keys(ops):
        """``ops`` with an update and a delete of absent keys spliced in
        as operations 16 and 32 — both space-sampling points."""
        return (
            ops[:15]
            + [Operation(OpKind.UPDATE, 777777, 1)]
            + ops[15:30]
            + [Operation(OpKind.DELETE, 888888)]
            + ops[30:]
        )

    def test_accumulator_integers_match_per_op_loop(self):
        # Not just the final ratios: the integer numerators and
        # denominators behind them must telescope exactly.  The second
        # per-op stream also carries operations the tolerant loop skips:
        # they charge nothing — not even the blocks the failed scan
        # read — so every integer still matches the clean stream's.
        ops = self._ops()
        batched_acc = RUMAccumulator()
        measure_workload_batched(
            self._method(), self._batched(ops, 7), accumulator=batched_acc
        )
        for per_op_stream in (ops, self._with_absent_keys(ops)):
            per_op_acc = RUMAccumulator()
            measure_workload(self._method(), per_op_stream, accumulator=per_op_acc)
            for field in (
                "read_bytes",
                "retrieved_bytes",
                "write_bytes",
                "updated_bytes",
                "flush_read_bytes",
                "read_ops",
                "update_ops",
            ):
                assert getattr(batched_acc, field) == getattr(
                    per_op_acc, field
                ), field

    def test_skipped_operation_keeps_sampling_and_audit_cadence(self):
        """A skipped operation still counts towards the 16-op sampling
        cadence and the ``audit_every`` cadence; only its own audit is
        not run (it was never executed)."""

        class CountingAccumulator(RUMAccumulator):
            samples = 0

            def sample_space(self, method):
                self.samples += 1
                super().sample_space(method)

        ops = self._with_absent_keys(self._ops())  # 44 operations
        method = self._method()
        audits = []
        healthy_audit = method.audit
        method.audit = lambda: audits.append(1) or healthy_audit()
        accumulator = CountingAccumulator()
        measure_workload(method, ops, audit_every=4, accumulator=accumulator)
        assert accumulator.read_ops + accumulator.update_ops == 42
        # Sampled before operations 16 and 32, skipped though both are.
        assert accumulator.samples == 2
        # After operations 4, 8, ..., 44 except the skipped 16th and
        # 32nd, plus the audit after the terminal flush.
        assert len(audits) == 11 - 2 + 1

    def test_space_sampling_cadence_matches_per_op_loop(self):
        """Peak MO must come from the same sampling points: windows are
        split at every 16th operation, exactly where the per-op loop
        samples.  An insert-heavy stream makes the footprint grow, so a
        cadence mismatch would move the sampled peak."""
        ops = [Operation(OpKind.INSERT, 1001 + 2 * i, i) for i in range(100)]
        per_op = measure_workload(self._method(), ops)
        for size in (3, 16, 50, 100):
            batched = measure_workload_batched(
                self._method(), self._batched(ops, size)
            )
            assert batched.memory_overhead == per_op.memory_overhead

    def test_invalid_operation_raises_instead_of_skipping(self):
        # The tolerant per-op loop skips updates of absent keys; a batch
        # window's I/O cannot be re-attributed after a failure, so the
        # batched loop propagates the KeyError.
        ops = [Operation(OpKind.UPDATE, 777777, 1)]
        with pytest.raises(KeyError):
            measure_workload_batched(self._method(), [ops])

    @pytest.mark.parametrize("observer", ["metrics", "live", "spans"])
    @pytest.mark.parametrize("size", [1, 7, 256])
    def test_observed_batches_run_one_operation_per_window(self, observer, size):
        # What an observer sees of an operation cannot be recovered from
        # a longer window, so with a metrics sink, a live consumer or
        # span collection attached the batched entry point *is* the
        # per-op loop, whatever the batch size: tolerant of absent keys,
        # and producing identical histograms / frames / span-stamped
        # trace events.
        from repro.obs.live import WindowedRUM
        from repro.obs.metrics import WorkloadMetrics
        from repro.obs.sinks import ListSink
        from repro.obs.spans import span_collection
        from repro.obs.tracer import RecordingTracer

        ops = self._with_absent_keys(self._ops())

        def observe(entry, stream):
            method = self._method()
            sink = ListSink()
            method.device.set_tracer(RecordingTracer(sink))
            metrics = WorkloadMetrics() if observer == "metrics" else None
            live = WindowedRUM(50.0) if observer == "live" else None
            accumulator = RUMAccumulator()
            if observer == "spans":
                with span_collection():
                    profile = entry(method, stream, accumulator=accumulator)
            else:
                profile = entry(
                    method, stream, metrics=metrics, live=live,
                    accumulator=accumulator,
                )
            histograms = metrics and {
                label: (
                    metrics.blocks[label].to_dict(),
                    metrics.time[label].to_dict(),
                )
                for label in metrics.labels()
            }
            return (
                profile,
                accumulator,
                histograms,
                live and live.frames(),
                [event.to_dict() for event in sink.events],
            )

        per_op = observe(measure_workload, ops)
        batched = observe(measure_workload_batched, self._batched(ops, size))
        assert batched == per_op
        assert per_op[1].read_ops + per_op[1].update_ops == len(ops) - 2
        if observer == "spans":
            assert any(
                event["span"].startswith("op.update") for event in per_op[4]
            )

    def test_audit_every_delegates_and_raises(self):
        from repro.check import AuditError

        method = self._method()
        method._record_count += 3  # plant a counter drift
        ops = [[Operation(OpKind.POINT_QUERY, 10)]]
        with pytest.raises(AuditError):
            measure_workload_batched(method, ops, audit_every=1)

    def test_empty_stream_yields_floor_profile(self):
        profile = measure_workload_batched(self._method(), [])
        assert profile.read_overhead == 1.0
        assert profile.update_overhead == 1.0


class TestOneSnapshotPerWindow:
    """The measurement loop reuses a window's closing counter snapshot as
    the next window's opening one.  That is exact only while nothing
    between two windows moves the device counters, and while a skipped
    operation's I/O is dropped rather than carried into the next window."""

    @staticmethod
    def _build(name, mounted):
        device = SimulatedDevice(block_bytes=SMALL_BLOCK)
        if mounted:
            device = HierarchicalDevice(
                MemoryHierarchy(device, [LevelSpec("L0", 8)])
            )
        return create_method(name, device=device, **TUNED_KWARGS.get(name, {}))

    @pytest.mark.parametrize("mounted", [False, True], ids=["raw", "one-level"])
    @pytest.mark.parametrize("name", sorted(available_methods()))
    def test_space_sampling_leaves_device_counters_unchanged(self, name, mounted):
        method = self._build(name, mounted)
        spec = replace(
            MIXES["balanced"], initial_records=300, operations=400, seed=5
        )
        generator = WorkloadGenerator(spec)
        method.bulk_load(generator.initial_data())
        device = method.device
        accumulator = RUMAccumulator()
        live = WindowedRUM(50.0)
        for batch in generator.operation_batches(100):
            method.apply_batch(batch)
            before = device.counters
            method.stats()
            accumulator.sample_space(method)
            live.observe_space(method)
            assert device.counters == before, name

    def test_skipped_operation_charges_nothing_to_the_next(self):
        # The update of an absent key walks the tree before it raises;
        # the per-op loop skips it, and the point query after it must
        # pay for its own descent only.
        def query_read_bytes(stream):
            method = BPlusTree(
                SimulatedDevice(block_bytes=SMALL_BLOCK),
                leaf_capacity=8,
                fanout=5,
            )
            method.bulk_load(sample_records(200))
            method.flush()
            accumulator = RUMAccumulator()
            measure_workload(method, stream, accumulator=accumulator)
            assert accumulator.read_ops == 1
            assert accumulator.update_ops == 0
            return accumulator.read_bytes

        query = Operation(OpKind.POINT_QUERY, 100)
        alone = query_read_bytes([query])
        assert alone > 0
        assert query_read_bytes(
            [Operation(OpKind.UPDATE, 777, 1), query]
        ) == alone
