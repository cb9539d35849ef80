"""Unit tests for the device's batched I/O surface.

``read_many`` / ``write_many`` promise byte-identity with the per-op
``read`` / ``write`` loop: same counter totals, same sequential/random
classification, same occupancy accounting, same trace events, and on a
failing position the same exception with the successful prefix already
committed.  These tests pin every clause of that contract, including the
vectorized write path (batches >= 512) and its validate-then-fall-back
behaviour.
"""

from __future__ import annotations

import pytest

from repro.obs.sinks import ListSink
from repro.obs.tracer import RecordingTracer
from repro.storage.device import SimulatedDevice

BLOCK = 256


def _fresh(n_blocks: int) -> SimulatedDevice:
    device = SimulatedDevice(block_bytes=BLOCK)
    for _ in range(n_blocks):
        device.allocate()
    device.reset_counters()
    return device


def _counter_dict(device: SimulatedDevice) -> dict:
    counters = device.counters
    return {
        "reads": counters.reads,
        "writes": counters.writes,
        "read_bytes": counters.read_bytes,
        "write_bytes": counters.write_bytes,
        "simulated_time": counters.simulated_time,
    }


class TestReadMany:
    def test_matches_per_op_counters_and_payloads(self):
        ids = [(7 * i) % 16 for i in range(40)] + list(range(16))
        per_op = _fresh(16)
        batched = _fresh(16)
        for device in (per_op, batched):
            for block in range(16):
                device.write(block, f"payload-{block}")
            device.reset_counters()
        expected = [per_op.read(block) for block in ids]
        got = batched.read_many(ids)
        assert got == expected
        assert _counter_dict(batched) == _counter_dict(per_op)

    def test_sequential_classification_spans_batch_boundary(self):
        # The id following the previous batch's last access counts as
        # sequential, exactly as it would in a per-op loop.
        device = _fresh(8)
        device.read_many([0, 1, 2])
        device.read_many([3, 4])
        per_op = _fresh(8)
        for block in (0, 1, 2, 3, 4):
            per_op.read(block)
        assert _counter_dict(device) == _counter_dict(per_op)

    def test_empty_batch_is_free(self):
        device = _fresh(4)
        assert device.read_many([]) == []
        assert device.counters.reads == 0

    def test_unallocated_block_commits_prefix(self):
        device = _fresh(4)
        with pytest.raises(KeyError, match="read of unallocated block 99"):
            device.read_many([0, 1, 99, 2])
        # The two successful reads are counted; the failed one is not.
        assert device.counters.reads == 2
        per_op = _fresh(4)
        per_op.read(0)
        per_op.read(1)
        with pytest.raises(KeyError, match="read of unallocated block 99"):
            per_op.read(99)
        assert _counter_dict(device) == _counter_dict(per_op)

    def test_traced_reads_emit_identical_events(self):
        ids = [0, 1, 5, 2, 3]

        def run(batched: bool) -> list:
            sink = ListSink()
            device = _fresh(8)
            device.set_tracer(RecordingTracer(sink))
            if batched:
                device.read_many(ids)
            else:
                for block in ids:
                    device.read(block)
            return [event.to_dict() for event in sink.events]

        assert run(batched=True) == run(batched=False)


class TestWriteMany:
    def test_matches_per_op_counters_and_state(self):
        ids = [(3 * i) % 8 for i in range(30)]
        payloads = [f"p{i}" for i in range(30)]
        used = [(i * 13) % (BLOCK + 1) for i in range(30)]
        per_op = _fresh(8)
        batched = _fresh(8)
        for block, payload, occupancy in zip(ids, payloads, used):
            per_op.write(block, payload, occupancy)
        batched.write_many(ids, payloads, used)
        assert _counter_dict(batched) == _counter_dict(per_op)
        for block in range(8):
            assert batched.peek(block) == per_op.peek(block)
            assert batched.used_bytes_of(block) == per_op.used_bytes_of(block)

    def test_duplicate_ids_last_write_wins(self):
        device = _fresh(4)
        device.write_many([2, 2, 2], ["a", "b", "c"], [10, 20, 30])
        assert device.peek(2) == "c"
        assert device.used_bytes_of(2) == 30
        assert device.counters.writes == 3

    def test_length_mismatch_rejected(self):
        device = _fresh(2)
        with pytest.raises(ValueError, match="equal-length"):
            device.write_many([0, 1], ["a"], [0, 0])
        with pytest.raises(ValueError, match="equal-length"):
            device.write_many([0], ["a"], [0, 0])
        assert device.counters.writes == 0

    def test_empty_batch_is_free(self):
        device = _fresh(2)
        device.write_many([], [], [])
        assert device.counters.writes == 0

    def test_unallocated_block_commits_prefix(self):
        device = _fresh(4)
        with pytest.raises(KeyError, match="write of unallocated block 77"):
            device.write_many([0, 1, 77], ["a", "b", "c"], [5, 6, 7])
        assert device.counters.writes == 2
        assert device.peek(1) == "b"
        assert device.used_bytes_of(1) == 6

    def test_invalid_used_bytes_matches_per_op_error(self):
        batched = _fresh(4)
        with pytest.raises(ValueError) as batched_error:
            batched.write_many([0, 1], ["a", "b"], [0, BLOCK + 1])
        per_op = _fresh(4)
        per_op.write(0, "a", 0)
        with pytest.raises(ValueError) as per_op_error:
            per_op.write(1, "b", BLOCK + 1)
        assert str(batched_error.value) == str(per_op_error.value)
        assert _counter_dict(batched) == _counter_dict(per_op)

    def test_traced_writes_emit_identical_events(self):
        ids = [0, 1, 3, 1]
        payloads = ["a", "b", "c", "d"]
        used = [4, 8, 12, 16]

        def run(batched: bool) -> list:
            sink = ListSink()
            device = _fresh(4)
            device.set_tracer(RecordingTracer(sink))
            if batched:
                device.write_many(ids, payloads, used)
            else:
                for block, payload, occupancy in zip(ids, payloads, used):
                    device.write(block, payload, occupancy)
            return [event.to_dict() for event in sink.events]

        assert run(batched=True) == run(batched=False)


class TestWriteManyVectorized:
    """Batches >= 512 take the numpy path; same contract, checked again."""

    N = 600  # above _VECTOR_MIN_BATCH

    def _batch(self):
        ids = [(7 * i) % 64 for i in range(self.N)]
        payloads = [i for i in range(self.N)]
        used = [(i * 13) % (BLOCK + 1) for i in range(self.N)]
        return ids, payloads, used

    def test_matches_per_op_counters_and_state(self):
        ids, payloads, used = self._batch()
        per_op = _fresh(64)
        batched = _fresh(64)
        for block, payload, occupancy in zip(ids, payloads, used):
            per_op.write(block, payload, occupancy)
        batched.write_many(ids, payloads, used)
        assert _counter_dict(batched) == _counter_dict(per_op)
        for block in range(64):
            assert batched.peek(block) == per_op.peek(block)
            assert batched.used_bytes_of(block) == per_op.used_bytes_of(block)

    def test_invalid_position_replays_per_op(self):
        # A bad used_bytes deep in a large batch: validation fails, the
        # reference loop replays, and the error + committed prefix are
        # exactly the per-op ones.
        ids, payloads, used = self._batch()
        used[555] = BLOCK + 1
        batched = _fresh(64)
        with pytest.raises(ValueError) as batched_error:
            batched.write_many(ids, payloads, used)
        per_op = _fresh(64)
        with pytest.raises(ValueError) as per_op_error:
            for block, payload, occupancy in zip(ids, payloads, used):
                per_op.write(block, payload, occupancy)
        assert str(batched_error.value) == str(per_op_error.value)
        assert batched.counters.writes == 555
        assert _counter_dict(batched) == _counter_dict(per_op)

    def test_unallocated_block_replays_per_op(self):
        ids, payloads, used = self._batch()
        ids[520] = 10_000  # never allocated
        batched = _fresh(64)
        with pytest.raises(KeyError, match="write of unallocated block 10000"):
            batched.write_many(ids, payloads, used)
        assert batched.counters.writes == 520

    def test_sequential_run_classified_in_bulk(self):
        # A fully sequential large batch must count like a per-op
        # sequential sweep (first access random, the rest sequential):
        # same simulated time on a cost model that distinguishes them.
        from repro.storage.device import CostModel

        n = 600
        per_op = SimulatedDevice(block_bytes=BLOCK, cost_model=CostModel.disk())
        batched = SimulatedDevice(block_bytes=BLOCK, cost_model=CostModel.disk())
        for device in (per_op, batched):
            for _ in range(n):
                device.allocate()
            device.reset_counters()
        for block in range(n):
            per_op.write(block, block, 0)
        batched.write_many(list(range(n)), list(range(n)), [0] * n)
        assert _counter_dict(batched) == _counter_dict(per_op)
