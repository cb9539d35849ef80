"""Unit tests for workload specs, distributions and generation."""

from __future__ import annotations

import random

import pytest

from repro.workloads.distributions import (
    ClusteredKeys,
    LatestKeys,
    SequentialKeys,
    UniformKeys,
    ZipfianKeys,
    distribution_names,
    make_distribution,
)
from repro.workloads.generator import WorkloadGenerator, generate_operations
from repro.workloads.spec import MIXES, Operation, OpKind, WorkloadSpec


class TestSpecValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec(point_queries=0.5, inserts=0.6)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(point_queries=1.5, inserts=-0.5)

    def test_negative_operations_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(operations=-1)

    def test_range_fraction_bounds(self):
        with pytest.raises(ValueError):
            WorkloadSpec(range_fraction=1.5)

    def test_named_mixes_are_valid(self):
        for name, spec in MIXES.items():
            assert sum(spec.mix.values()) == pytest.approx(1.0), name

    def test_scaled_preserves_mix(self):
        spec = MIXES["balanced"].scaled(initial_records=500, operations=50)
        assert spec.initial_records == 500
        assert spec.operations == 50
        assert spec.point_queries == MIXES["balanced"].point_queries

    def test_operation_kind_flags(self):
        assert OpKind.POINT_QUERY.is_read
        assert OpKind.RANGE_QUERY.is_read
        assert not OpKind.INSERT.is_read
        assert not OpKind.UPDATE.is_read
        assert not OpKind.DELETE.is_read

    def test_invalid_range_operation(self):
        with pytest.raises(ValueError):
            Operation(OpKind.RANGE_QUERY, key=10, high_key=5)


class TestDistributions:
    def test_names(self):
        assert set(distribution_names()) == {
            "uniform",
            "sequential",
            "zipfian",
            "latest",
            "clustered",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_distribution("nope", random.Random(0))

    @pytest.mark.parametrize("name", ["uniform", "sequential", "zipfian", "latest", "clustered"])
    def test_picks_stay_in_bounds(self, name):
        dist = make_distribution(name, random.Random(7))
        for size in (1, 2, 10, 1000):
            for _ in range(50):
                index = dist.pick_index(size)
                assert 0 <= index < size

    def test_uniform_covers_population(self):
        dist = UniformKeys(random.Random(1))
        seen = {dist.pick_index(10) for _ in range(500)}
        assert seen == set(range(10))

    def test_sequential_cycles(self):
        dist = SequentialKeys(random.Random(1))
        picks = [dist.pick_index(3) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_zipfian_is_skewed(self):
        dist = ZipfianKeys(random.Random(1), theta=0.99)
        counts = [0] * 100
        for _ in range(5000):
            counts[dist.pick_index(100)] += 1
        assert counts[0] > counts[50] * 3

    def test_zipfian_theta_validation(self):
        with pytest.raises(ValueError):
            ZipfianKeys(random.Random(0), theta=1.5)

    def test_latest_prefers_tail(self):
        dist = LatestKeys(random.Random(1))
        counts = [0] * 100
        for _ in range(5000):
            counts[dist.pick_index(100)] += 1
        assert counts[99] > counts[10] * 3

    def test_clustered_is_local(self):
        dist = ClusteredKeys(random.Random(1), spread=0.01)
        picks = [dist.pick_index(10_000) for _ in range(20)]
        spread = max(picks) - min(picks)
        assert spread < 5000  # concentrated relative to the whole space

    def test_pick_from_empty_population_raises(self):
        dist = UniformKeys(random.Random(1))
        with pytest.raises(ValueError):
            dist.pick([])


class TestGenerator:
    def test_initial_data_size_and_keys(self):
        generator = WorkloadGenerator(WorkloadSpec(initial_records=100))
        data = generator.initial_data()
        assert len(data) == 100
        assert [key for key, _ in data] == [2 * i for i in range(100)]

    def test_initial_data_only_once(self):
        generator = WorkloadGenerator(WorkloadSpec(initial_records=10))
        generator.initial_data()
        with pytest.raises(RuntimeError):
            generator.initial_data()

    def test_determinism(self):
        spec = MIXES["balanced"].scaled(initial_records=200, operations=100)
        data_a, ops_a = generate_operations(spec)
        data_b, ops_b = generate_operations(spec)
        assert data_a == data_b
        assert ops_a == ops_b

    def test_operation_counts(self):
        spec = WorkloadSpec(
            point_queries=0.5, inserts=0.5, operations=200, initial_records=50
        )
        _, ops = generate_operations(spec)
        assert len(ops) == 200

    def test_updates_target_live_keys(self):
        spec = WorkloadSpec(
            point_queries=0.0,
            updates=0.5,
            deletes=0.5,
            operations=80,
            initial_records=100,
        )
        generator = WorkloadGenerator(spec)
        data = generator.initial_data()
        live = {key for key, _ in data}
        for op in generator.operations():
            assert op.key in live
            if op.kind is OpKind.DELETE:
                live.remove(op.key)

    def test_inserts_use_fresh_keys(self):
        spec = WorkloadSpec(
            point_queries=0.5, inserts=0.5, operations=100, initial_records=50
        )
        generator = WorkloadGenerator(spec)
        data = generator.initial_data()
        existing = {key for key, _ in data}
        for op in generator.operations():
            if op.kind is OpKind.INSERT:
                assert op.key not in existing
                existing.add(op.key)

    def test_range_queries_well_formed(self):
        spec = WorkloadSpec(
            point_queries=0.0,
            range_queries=1.0,
            operations=50,
            initial_records=200,
            range_fraction=0.05,
        )
        generator = WorkloadGenerator(spec)
        generator.initial_data()
        for op in generator.operations():
            assert op.kind is OpKind.RANGE_QUERY
            assert op.high_key >= op.key

    def test_pure_insert_workload_from_empty(self):
        spec = WorkloadSpec(
            point_queries=0.0, inserts=1.0, operations=30, initial_records=0
        )
        generator = WorkloadGenerator(spec)
        generator.initial_data()
        ops = list(generator.operations())
        assert len(ops) == 30
        assert all(op.kind is OpKind.INSERT for op in ops)

    def test_requires_initial_data_call(self):
        generator = WorkloadGenerator(WorkloadSpec(initial_records=10))
        with pytest.raises(RuntimeError):
            list(generator.operations())

    def test_delete_heavy_degenerate_spec_emits_every_slot(self):
        """Regression: a drained key set must not shorten the stream.

        With more deletes than live keys and no insert weight, the
        generator once returned ``None`` for the unfillable slots,
        silently shortening the stream below ``spec.operations`` and
        skewing every per-op denominator.  Drained slots must instead be
        emitted as guaranteed-miss point queries (odd keys — live keys
        are always even).
        """
        spec = WorkloadSpec(
            point_queries=0.0,
            deletes=1.0,
            operations=120,
            initial_records=40,
        )
        generator = WorkloadGenerator(spec)
        generator.initial_data()
        ops = list(generator.operations())
        assert len(ops) == spec.operations
        assert all(op is not None for op in ops)
        deletes = [op for op in ops if op.kind is OpKind.DELETE]
        misses = [op for op in ops if op.kind is OpKind.POINT_QUERY]
        assert len(deletes) == 40  # every live key deleted exactly once
        assert len(misses) == 80  # the drained tail, one per slot
        assert all(op.key % 2 == 1 for op in misses)  # guaranteed miss

    def test_delete_heavy_spec_falls_back_to_inserts_when_mixed(self):
        # With insert weight in the mix, drained slots become inserts,
        # not misses — the key set can refill.
        spec = WorkloadSpec(
            point_queries=0.0,
            deletes=0.6,
            inserts=0.4,
            operations=200,
            initial_records=10,
        )
        generator = WorkloadGenerator(spec)
        generator.initial_data()
        ops = list(generator.operations())
        assert len(ops) == spec.operations
        assert all(
            op.kind in (OpKind.DELETE, OpKind.INSERT) for op in ops
        )


class TestOperationBatches:
    def _spec(self, operations=100):
        return MIXES["balanced"].scaled(
            initial_records=200, operations=operations
        )

    @pytest.mark.parametrize("size", [1, 3, 16, 100, 1000])
    def test_batches_total_exactly_spec_operations(self, size):
        generator = WorkloadGenerator(self._spec())
        generator.initial_data()
        batches = list(generator.operation_batches(size))
        assert sum(len(batch) for batch in batches) == 100
        # Every batch is full except possibly the last.
        for batch in batches[:-1]:
            assert len(batch) == size
        assert 0 < len(batches[-1]) <= size

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_stream_identical_to_operations(self, size):
        spec = self._spec()
        flat = WorkloadGenerator(spec)
        flat.initial_data()
        batched = WorkloadGenerator(spec)
        batched.initial_data()
        from_batches = [
            op for batch in batched.operation_batches(size) for op in batch
        ]
        assert from_batches == list(flat.operations())

    def test_non_positive_size_rejected(self):
        generator = WorkloadGenerator(self._spec())
        generator.initial_data()
        with pytest.raises(ValueError):
            generator.operation_batches(0)
        with pytest.raises(ValueError):
            generator.operation_batches(-5)

    def test_marks_generator_consumed(self):
        generator = WorkloadGenerator(self._spec())
        generator.initial_data()
        assert not generator.consumed
        generator.operation_batches(16)
        assert generator.consumed

    def test_requires_initial_data_call(self):
        generator = WorkloadGenerator(self._spec())
        with pytest.raises(RuntimeError):
            generator.operation_batches(16)


class TestGeneratorSingleUse:
    """Both stream producers are single use and fail fast on reuse with
    the same message ``run_workload`` raises — a reused generator would
    replay over mutated key state and produce a stream no seed ever
    specified."""

    def _generator(self):
        spec = MIXES["balanced"].scaled(initial_records=100, operations=50)
        generator = WorkloadGenerator(spec)
        generator.initial_data()
        return generator

    @pytest.mark.parametrize("first,second", [
        ("operations", "operations"),
        ("operations", "operation_batches"),
        ("operation_batches", "operations"),
        ("operation_batches", "operation_batches"),
    ])
    def test_second_stream_request_rejected(self, first, second):
        generator = self._generator()
        if first == "operations":
            list(generator.operations())
        else:
            list(generator.operation_batches(16))
        with pytest.raises(ValueError, match="already produced"):
            if second == "operations":
                generator.operations()
            else:
                generator.operation_batches(16)

    def test_reuse_rejected_even_when_not_fully_iterated(self):
        generator = self._generator()
        batches = generator.operation_batches(8)
        next(batches)  # partially consumed
        with pytest.raises(ValueError, match="fresh WorkloadGenerator"):
            generator.operation_batches(8)
