"""Unit tests for ``repro.exec`` — the parallel sweep engine.

The contract under test:

* a parallel run is *byte-identical* to a serial run of the same grid
  (compare the canonical envelopes, not just rough equality);
* the result cache hits on unchanged cells, misses on any configuration
  change, and invalidates structurally on a salt (version) change;
* a warm rerun of an unchanged grid executes zero workloads;
* tracing runs refuse untraced cache entries, and traced envelopes
  merge back with contiguous sequence numbers.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.exec import ResultCache, SweepCell, SweepEngine, run_workload_cell
from repro.exec.engine import estimate_cell_units, resolve_runner
from repro.exec.serialize import (
    cell_seed,
    decode_cell,
    decode_envelope,
    encode_cell,
    encode_envelope,
    envelope_is_traced,
)
from repro.storage.device import CostModel
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.runner import WorkloadResult, run_workload
from repro.workloads.spec import WorkloadSpec

SPEC = WorkloadSpec(
    point_queries=0.4,
    inserts=0.3,
    updates=0.2,
    deletes=0.1,
    operations=120,
    initial_records=400,
)

METHODS = ["btree", "lsm", "hash-index", "sorted-column"]


def _cells(spec=SPEC, methods=METHODS):
    return [SweepCell.make(name, spec, block_bytes=256) for name in methods]


class TestCellSerialization:
    def test_cell_round_trips(self):
        cell = SweepCell.make(
            "lsm",
            SPEC,
            label="lsm@tuned",
            block_bytes=512,
            cost_model=CostModel.disk(),
            overrides=dict(memtable_records=64, size_ratio=3),
            params=dict(n=1024),
        )
        assert decode_cell(encode_cell(cell)) == cell

    def test_encoding_is_canonical(self):
        a = SweepCell.make("btree", SPEC, overrides=dict(b=2, a=1))
        b = SweepCell.make("btree", SPEC, overrides=dict(a=1, b=2))
        assert encode_cell(a) == encode_cell(b)

    def test_different_cells_encode_differently(self):
        base = SweepCell.make("btree", SPEC)
        assert encode_cell(base) != encode_cell(SweepCell.make("lsm", SPEC))
        assert encode_cell(base) != encode_cell(
            SweepCell.make("btree", SPEC, block_bytes=512)
        )

    def test_seed_depends_only_on_the_cell(self):
        payload = encode_cell(SweepCell.make("btree", SPEC))
        assert cell_seed(payload, "s") == cell_seed(payload, "s")
        assert cell_seed(payload, "s") != cell_seed(payload, "t")

    def test_workload_result_round_trips(self):
        result = run_workload_cell(SweepCell.make("btree", SPEC, block_bytes=256))
        envelope = encode_envelope(result, None)
        decoded = decode_envelope(envelope)["result"]
        assert isinstance(decoded, WorkloadResult)
        assert decoded == result
        # And re-encoding the decoded result is byte-stable.
        assert encode_envelope(decoded, None) == envelope


class TestRunnerResolution:
    def test_resolves_the_default_runner(self):
        assert resolve_runner("repro.exec.engine:run_workload_cell") is run_workload_cell

    def test_malformed_reference_rejected(self):
        with pytest.raises(ValueError):
            resolve_runner("no_colon_here")

    def test_missing_function_rejected(self):
        with pytest.raises(AttributeError):
            resolve_runner("repro.exec.engine:not_a_runner")


class TestSerialParallelEquivalence:
    def test_parallel_results_byte_identical_to_serial(self):
        cells = _cells()
        serial = SweepEngine(jobs=1).run(cells)
        parallel = SweepEngine(jobs=4).run(cells)
        serial_bytes = [encode_envelope(r, None) for r in serial.results]
        parallel_bytes = [encode_envelope(r, None) for r in parallel.results]
        assert serial_bytes == parallel_bytes

    def test_results_come_back_in_cell_order(self):
        outcome = SweepEngine(jobs=4).run(_cells())
        assert [r.method_name for r in outcome.results] == METHODS

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)


class TestResultCache:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        cells = _cells()
        cold = SweepEngine(jobs=1, cache=cache).run(cells)
        assert cold.executed_cells == len(cells)
        assert cold.cached_cells == 0
        warm = SweepEngine(jobs=1, cache=cache).run(cells)
        assert warm.executed_cells == 0
        assert warm.cached_cells == len(cells)
        assert [encode_envelope(r, None) for r in warm.results] == [
            encode_envelope(r, None) for r in cold.results
        ]

    def test_parallel_warm_rerun_also_hits(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        SweepEngine(jobs=1, cache=cache).run(_cells())
        warm = SweepEngine(jobs=4, cache=cache).run(_cells())
        assert warm.executed_cells == 0

    def test_changed_cell_misses(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        SweepEngine(jobs=1, cache=cache).run(_cells())
        changed = _cells(
            spec=SPEC.scaled(initial_records=SPEC.initial_records, operations=121)
        )
        outcome = SweepEngine(jobs=1, cache=cache).run(changed)
        assert outcome.executed_cells == len(changed)

    def test_stale_salt_invalidates(self, tmp_path):
        root = str(tmp_path / "cache")
        SweepEngine(jobs=1, cache=ResultCache(root=root, salt="v1")).run(_cells())
        outcome = SweepEngine(
            jobs=1, cache=ResultCache(root=root, salt="v2")
        ).run(_cells())
        assert outcome.executed_cells == len(METHODS)

    def test_salt_defaults_to_library_version(self, tmp_path):
        import repro

        cache = ResultCache(root=str(tmp_path / "cache"))
        assert cache.salt == repro.__version__

    def test_entry_count_and_clear(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        SweepEngine(jobs=1, cache=cache).run(_cells())
        assert cache.entry_count() == len(METHODS)
        assert cache.clear() == len(METHODS)
        assert cache.entry_count() == 0

    def test_hit_and_miss_accounting(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        cells = _cells()
        SweepEngine(jobs=1, cache=cache).run(cells)
        assert cache.misses == len(cells)
        SweepEngine(jobs=1, cache=cache).run(cells)
        assert cache.hits == len(cells)

    def test_no_cache_always_executes(self, tmp_path):
        engine = SweepEngine(jobs=1)
        first = engine.run(_cells())
        second = engine.run(_cells())
        assert first.executed_cells == second.executed_cells == len(METHODS)


class TestTracing:
    def test_traced_run_merges_events_contiguously(self):
        outcome = SweepEngine(jobs=2, collect_events=True).run(_cells())
        events = outcome.events
        assert events, "traced sweep produced no events"
        assert [event.seq for event in events] == list(range(len(events)))
        assert {event.source for event in events} == set(METHODS)

    def test_traced_run_matches_serial_traced_run(self):
        serial = SweepEngine(jobs=1, collect_events=True).run(_cells())
        parallel = SweepEngine(jobs=4, collect_events=True).run(_cells())
        assert serial.events == parallel.events

    def test_traced_events_carry_span_stamps(self):
        """Workers run inside span_collection, so every device event in
        the merged stream is stamped with its op-root span path."""
        outcome = SweepEngine(jobs=2, collect_events=True).run(_cells())
        spans = {event.span for event in outcome.events}
        assert any(span.startswith("op.") for span in spans), spans
        # bulk_load happens inside a span too — nothing before the first
        # operation leaks out unstamped.
        assert "op.bulk_load" in {s.split("/")[0] for s in spans if s}

    def test_cached_replay_preserves_span_stamps(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        cold = SweepEngine(jobs=1, cache=cache, collect_events=True).run(_cells())
        warm = SweepEngine(jobs=1, cache=cache, collect_events=True).run(_cells())
        assert warm.executed_cells == 0
        assert [e.span for e in warm.events] == [e.span for e in cold.events]

    def test_untraced_cache_entry_does_not_satisfy_traced_run(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        SweepEngine(jobs=1, cache=cache).run(_cells())
        traced = SweepEngine(jobs=1, cache=cache, collect_events=True).run(_cells())
        assert traced.executed_cells == len(METHODS)
        # The traced envelopes replaced the entries: a traced rerun hits.
        warm = SweepEngine(jobs=1, cache=cache, collect_events=True).run(_cells())
        assert warm.executed_cells == 0
        assert warm.events == traced.events

    def test_untraced_run_accepts_traced_entry(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        SweepEngine(jobs=1, cache=cache, collect_events=True).run(_cells())
        outcome = SweepEngine(jobs=1, cache=cache).run(_cells())
        assert outcome.executed_cells == 0
        assert outcome.events is None


class TestCustomRunners:
    def test_json_runner_round_trips(self, tmp_path):
        cell = SweepCell.make(
            "btree",
            SPEC,
            params=dict(answer=42),
            runner="tests.unit.test_exec:json_cell_runner",
        )
        outcome = SweepEngine(jobs=1).run([cell])
        assert outcome.results[0] == {"method": "btree", "answer": 42}


def json_cell_runner(cell, tracer=None):
    """Runner used by TestCustomRunners (must be module-level)."""
    return {"method": cell.method, "answer": cell.param_kwargs()["answer"]}


class TestConsumedGenerator:
    def test_run_workload_rejects_consumed_generator(self):
        from repro.core.registry import create_method

        spec = WorkloadSpec(point_queries=1.0, operations=20, initial_records=50)
        generator = WorkloadGenerator(spec)
        run_workload(create_method("btree"), spec, generator=generator)
        with pytest.raises(ValueError, match="already produced"):
            run_workload(create_method("btree"), spec, generator=generator)

    def test_fresh_generator_accepted(self):
        from repro.core.registry import create_method

        spec = WorkloadSpec(point_queries=1.0, operations=20, initial_records=50)
        result = run_workload(
            create_method("btree"), spec, generator=WorkloadGenerator(spec)
        )
        assert result.final_records > 0

    def test_consumed_flag_set_when_stream_is_handed_out(self):
        spec = WorkloadSpec(point_queries=1.0, operations=5, initial_records=10)
        generator = WorkloadGenerator(spec)
        assert not generator.consumed
        generator.initial_data()
        assert not generator.consumed
        generator.operations()
        assert generator.consumed


class TestGlobalRandomState:
    def test_serial_run_preserves_callers_random_state(self):
        """The in-process path seeds the global RNG per cell; the
        caller's stream must come back exactly where it left off."""
        import random

        random.seed(12345)
        expected = [random.random() for _ in range(5)]
        random.seed(12345)
        SweepEngine(jobs=1).run(_cells())
        assert [random.random() for _ in range(5)] == expected

    def test_state_restored_even_when_a_cell_raises(self):
        import random

        cell = SweepCell.make(
            "btree", SPEC, runner="tests.unit.test_exec:raising_runner"
        )
        random.seed(999)
        expected = [random.random() for _ in range(3)]
        random.seed(999)
        with pytest.raises(RuntimeError, match="boom"):
            SweepEngine(jobs=1).run([cell])
        assert [random.random() for _ in range(3)] == expected


def raising_runner(cell, tracer=None):
    """Runner used by TestGlobalRandomState (must be module-level)."""
    raise RuntimeError("boom")


class TestEnvelopeTracedFastPath:
    def test_fast_path_agrees_with_full_decode_untraced(self):
        result = run_workload_cell(SweepCell.make("btree", SPEC, block_bytes=256))
        envelope = encode_envelope(result, None)
        assert envelope_is_traced(envelope) is False
        assert (json.loads(envelope)["events"] is not None) is False

    def test_fast_path_agrees_with_full_decode_traced(self):
        outcome = SweepEngine(jobs=1, collect_events=True).run(_cells()[:1])
        envelope = encode_envelope(outcome.results[0], outcome.events)
        assert envelope_is_traced(envelope) is True
        assert (json.loads(envelope)["events"] is not None) is True

    def test_non_canonical_payload_falls_back_to_decoding(self):
        # Old or hand-edited entries may not start with the canonical
        # prefix; the check must still answer correctly via json.loads.
        assert envelope_is_traced('{"result": 1, "events": null}') is False
        assert envelope_is_traced('{"result": 1, "events": [1]}') is True


class TestSchedulerLifecycle:
    def test_pool_reuse_stays_byte_identical(self):
        """Two run() calls on one persistent engine match two fresh
        serial runs byte for byte — worker reuse leaks no state."""
        cells = _cells()
        serial = [
            encode_envelope(r, None)
            for r in SweepEngine(jobs=1).run(cells).results
        ] * 2
        with SweepEngine(jobs=2) as engine:
            engine.warm()
            reused = [
                encode_envelope(r, None)
                for _ in range(2)
                for r in engine.run(cells).results
            ]
        assert reused == serial

    def test_close_is_idempotent_and_engine_survives_it(self):
        engine = SweepEngine(jobs=2)
        first = engine.run(_cells())
        engine.close()
        engine.close()
        second = engine.run(_cells())  # lazily respawns the pool
        engine.close()
        assert [str(r) for r in first.results] == [str(r) for r in second.results]

    def test_context_manager_returns_engine(self):
        with SweepEngine(jobs=1) as engine:
            assert isinstance(engine, SweepEngine)


class TestCostScheduling:
    def test_estimate_grows_with_work(self):
        small = SweepCell.make("btree", SPEC)
        big_records = SweepCell.make(
            "btree", replace(SPEC, initial_records=SPEC.initial_records * 8)
        )
        big_ops = SweepCell.make(
            "btree", replace(SPEC, operations=SPEC.operations * 8)
        )
        assert estimate_cell_units(big_records) > estimate_cell_units(small)
        assert estimate_cell_units(big_ops) > estimate_cell_units(small)

    def test_dispatch_is_longest_predicted_first(self):
        specs = [
            replace(SPEC, initial_records=records)
            for records in (200, 3200, 400, 1600)
        ]
        cells = [SweepCell.make("btree", spec) for spec in specs]
        outcome = SweepEngine(jobs=1).run(cells)
        predicted = outcome.predicted_seconds
        dispatched = [predicted[i] for i in outcome.dispatch_order]
        assert dispatched == sorted(dispatched, reverse=True)
        assert outcome.dispatch_order[0] == 1  # the 3200-record cell

    def test_results_stay_in_cell_order_despite_reordering(self):
        specs = [
            replace(SPEC, initial_records=records)
            for records in (200, 3200, 400, 1600)
        ]
        cells = [
            SweepCell.make("btree", spec, label=f"r{spec.initial_records}")
            for spec in specs
        ]
        outcome = SweepEngine(jobs=2).run(cells)
        assert [r.spec.initial_records for r in outcome.results] == [
            200, 3200, 400, 1600,
        ]

    def test_observed_walls_refine_predictions(self):
        engine = SweepEngine(jobs=1)
        cells = _cells()
        first = engine.run(cells)
        second = engine.run(cells)
        # After observing real walls the engine predicts from measured
        # rates, not the cold default — predictions move.
        assert second.predicted_seconds != first.predicted_seconds
        assert all(p > 0 for p in second.predicted_seconds)

    def test_cache_meta_gives_exact_predictions(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        engine = SweepEngine(jobs=1, cache=cache)
        cold = engine.run(_cells())
        walls = [w for w in cold.cell_seconds if w is not None]
        assert len(walls) == len(METHODS)
        # Untraced entries cannot satisfy a traced run, so every cell
        # re-executes — but the wall recorded under the same key gives
        # a fresh engine (no observed rates) exact predictions.
        traced = SweepEngine(
            jobs=1, cache=cache, collect_events=True
        ).run(_cells())
        assert traced.executed_cells == len(METHODS)
        assert traced.predicted_seconds == pytest.approx(walls)


class TestWorkerSideCache:
    def test_workers_write_the_cache_and_parent_reads_back(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        cells = _cells()
        outcome = SweepEngine(jobs=2, cache=cache).run(cells)
        assert outcome.executed_cells == len(cells)
        assert cache.entry_count() == len(cells)
        serial = SweepEngine(jobs=1).run(cells)
        assert [encode_envelope(r, None) for r in outcome.results] == [
            encode_envelope(r, None) for r in serial.results
        ]

    def test_concurrent_same_key_writes_stay_consistent(self, tmp_path):
        """Duplicate cells race on one cache key across workers; the
        atomic write keeps the store consistent and byte-identical."""
        cache = ResultCache(root=str(tmp_path / "cache"))
        cells = [SweepCell.make("btree", SPEC) for _ in range(6)]
        outcome = SweepEngine(jobs=3, cache=cache).run(cells)
        assert cache.entry_count() == 1
        envelopes = {encode_envelope(r, None) for r in outcome.results}
        assert len(envelopes) == 1
        key = cache.key_for(encode_cell(cells[0]))
        assert cache.get(key) == envelopes.pop()

    def test_meta_sidecar_records_tracedness_and_wall(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        cell = _cells()[0]
        SweepEngine(jobs=2, cache=cache).run([cell])
        key = cache.key_for(encode_cell(cell))
        assert cache.traced(key) is False
        assert cache.wall_seconds(key) > 0
        SweepEngine(jobs=2, cache=cache, collect_events=True).run([cell])
        assert cache.traced(key) is True

    def test_metaless_entries_still_serve(self, tmp_path):
        """Entries written without a sidecar (the pre-scheduler layout)
        keep hitting: meta is an accelerator, not a requirement."""
        cache = ResultCache(root=str(tmp_path / "cache"))
        cell = _cells()[0]
        payload = encode_cell(cell)
        key = cache.key_for(payload)
        cache.put(key, encode_envelope(run_workload_cell(cell), None))
        assert cache.get_meta(key) is None
        assert cache.traced(key) is None
        assert cache.wall_seconds(key) is None
        outcome = SweepEngine(jobs=1, cache=cache).run([cell])
        assert outcome.cached_cells == 1
        assert outcome.executed_cells == 0


def _entry_path(cache, cell, suffix=".json"):
    """Where ``ResultCache`` keeps a cell's file: ``<root>/<key[:2]>/<key>``."""
    key = cache.key_for(encode_cell(cell))
    return os.path.join(cache.root, key[:2], key + suffix)


#: Ways an entry's bytes can be damaged on disk.
_DAMAGE = {
    "truncate": lambda data: data[: len(data) // 2],
    "garbage-bytes": lambda data: b"\xff\xfe\x00" + data[3:],
    "garbage-text": lambda data: b"not an envelope",
    "empty": lambda data: b"",
    "zeroed": lambda data: b"\x00" * len(data),
    "json-list": lambda data: b"[]",
    "json-null": lambda data: b"null",
    "no-result": lambda data: b'{"events":null}',
    "result-missing-fields": lambda data: b'{"events":null,"result":{"kind":"workload"}}',
}


class TestDamagedCacheEntries:
    """A damaged entry on disk is a miss, never a crash: the cell runs
    again, its entry is rewritten, and the results equal a cold run."""

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_damaged_envelope_is_a_miss(self, tmp_path, damage, jobs, traced):
        cache = ResultCache(root=str(tmp_path / "cache"))
        cells = _cells(methods=["btree", "lsm"])
        with SweepEngine(jobs=jobs, cache=cache, collect_events=traced) as engine:
            cold = engine.run(cells)
            for cell in cells:
                path = _entry_path(cache, cell)
                with open(path, "rb") as handle:
                    data = handle.read()
                with open(path, "wb") as handle:
                    handle.write(_DAMAGE[damage](data))
            rerun = engine.run(cells)
            warm = engine.run(cells)
        assert rerun.executed_cells == len(cells)
        assert (cache.hits, cache.misses) == (len(cells), 2 * len(cells))
        assert warm.executed_cells == 0  # the entries were rewritten
        for outcome in (rerun, warm):
            assert [encode_envelope(r, None) for r in outcome.results] == [
                encode_envelope(r, None) for r in cold.results
            ]
            assert outcome.events == cold.events

    @pytest.mark.parametrize(
        "sidecar, traced, wall",
        [
            (b"\xff not json", None, None),
            (b"[true, 0.5]", None, None),
            (b'{"traced": "yes", "wall_seconds": 0.5}', None, 0.5),
            (b'{"traced": true, "wall_seconds": "x"}', True, None),
            (b"", None, None),
            (b"null", None, None),
            (b"{}", None, None),
            (b'{"traced": 1, "wall_seconds": true}', None, None),
        ],
    )
    def test_damaged_sidecar_falls_back_to_the_envelope(
        self, tmp_path, sidecar, traced, wall
    ):
        cache = ResultCache(root=str(tmp_path / "cache"))
        cell = _cells()[0]
        cold = SweepEngine(jobs=1, cache=cache, collect_events=True).run([cell])
        with open(_entry_path(cache, cell, ".meta.json"), "wb") as handle:
            handle.write(sidecar)
        key = cache.key_for(encode_cell(cell))
        assert cache.traced(key) is traced
        assert cache.wall_seconds(key) == wall
        # Tracedness is sniffed from the envelope itself.
        assert cache.lookup(key, require_traced=True) == cache.get(key)
        warm = SweepEngine(jobs=1, cache=cache, collect_events=True).run([cell])
        assert warm.executed_cells == 0
        assert warm.results == cold.results
        assert warm.events == cold.events


class TestOrphanTmpSweep:
    """A writer crashing between mkstemp and os.replace leaks a ``.tmp``
    file; opening (or clearing) the cache must sweep stale ones."""

    @staticmethod
    def _plant_orphan(root, age_seconds=3600.0, prefix="ab"):
        import os
        import time

        subdir = os.path.join(root, prefix)
        os.makedirs(subdir, exist_ok=True)
        path = os.path.join(subdir, "tmpdeadbeef.tmp")
        with open(path, "w") as handle:
            handle.write("half-written envelope")
        stale = time.time() - age_seconds
        os.utime(path, (stale, stale))
        return path

    def test_open_sweeps_stale_orphans(self, tmp_path):
        import os

        root = str(tmp_path / "cache")
        orphan = self._plant_orphan(root)
        cache = ResultCache(root=root)
        assert cache.orphans_swept == 1
        assert not os.path.exists(orphan)

    def test_open_spares_fresh_tmp_files(self, tmp_path):
        import os

        root = str(tmp_path / "cache")
        fresh = self._plant_orphan(root, age_seconds=0.0)
        cache = ResultCache(root=root)
        # A sibling worker's in-flight write must not be deleted.
        assert cache.orphans_swept == 0
        assert os.path.exists(fresh)

    def test_clear_sweeps_orphans_regardless_of_age(self, tmp_path):
        import os

        root = str(tmp_path / "cache")
        fresh = self._plant_orphan(root, age_seconds=0.0)
        cache = ResultCache(root=root)
        cache.clear()
        assert not os.path.exists(fresh)
        # The prefix directory itself is gone too: clear leaves the
        # cache directory actually empty.
        assert not os.path.exists(os.path.dirname(fresh))

    def test_orphans_do_not_count_as_entries(self, tmp_path):
        root = str(tmp_path / "cache")
        self._plant_orphan(root, age_seconds=0.0)
        cache = ResultCache(root=root)
        assert cache.entry_count() == 0

    def test_sweep_tolerates_missing_root(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "never-created"))
        assert cache.orphans_swept == 0
        assert cache.sweep_orphans() == 0
