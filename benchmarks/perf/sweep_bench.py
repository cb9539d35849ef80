"""The ``sweep-grid`` workload: 32 cells through ``repro.exec.SweepEngine``.

The only workload where ``exec`` does the work.  A repetition builds an
engine with ``min(nproc, 4)`` worker processes, warms its pool (set-up)
and runs the grid with no cache (timed).  Outside the timed region the
grid also runs once through ``jobs=1`` and once cold-then-warm through
a temporary ``ResultCache``; every cell's canonical result JSON must be
the same on all three paths.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import tempfile
from typing import List

from repro.exec.cache import ResultCache
from repro.exec.cells import SweepCell
from repro.exec.engine import SweepEngine
from repro.exec.serialize import decode_envelope, encode_envelope
from repro.workloads.spec import MIXES

from benchmarks.perf.harness import (
    BLOCK_BYTES,
    Report,
    now,
    peak_rss_mib,
    repeat_for,
    scaled,
)

METHODS = (
    "btree", "lsm", "sorted-column", "hash-index",
    "zonemap", "sparse-index", "skiplist", "trie",
)
MIX_NAMES = ("balanced", "read-mostly", "write-heavy", "read-only")
RECORDS = 8_000
#: Scaled from the issue's 6 000 so one parallel grid takes about a second.
OPERATIONS = 2_000

WORKLOADS = {"sweep-grid": None}


def worker_count() -> int:
    return min(os.cpu_count() or 1, 4)


def grid(seed: int, smoke: bool) -> List[SweepCell]:
    cells = []
    for method in METHODS:
        for mix in MIX_NAMES:
            spec = dataclasses.replace(
                MIXES[mix],
                operations=scaled(OPERATIONS, smoke),
                initial_records=scaled(RECORDS, smoke),
                seed=seed,
            )
            cells.append(SweepCell.make(
                method, spec, label=f"{method}/{mix}", block_bytes=BLOCK_BYTES
            ))
    return cells


def canonical(results) -> List[str]:
    return [encode_envelope(result, None) for result in results]


def parallel_run(cells):
    """Warm a fresh pool, run the grid; ``(warm_s, run_s, SweepOutcome)``."""
    with SweepEngine(jobs=worker_count()) as engine:
        start = now()
        engine.warm()
        warmed = now()
        outcome = engine.run(cells)
        return warmed - start, now() - warmed, outcome


def differing_cells(reference: List[str], *others: List[str]) -> int:
    return sum(
        1 for index, expected in enumerate(reference)
        if any(other[index] != expected for other in others)
    )


def checked_reference(cells, report: Report, serial_engine: SweepEngine):
    """The identity check's other two paths: the grid through ``jobs=1``
    and cold-then-warm through a temporary cache.

    Returns ``(serial outcome, its wall seconds, its canonical results)``;
    cells whose cached results differ from the serial ones count as failed.
    """
    start = now()
    serial = serial_engine.run(cells)
    serial_wall = now() - start
    reference = canonical(serial.results)
    with tempfile.TemporaryDirectory(prefix="perf-sweep-cache-") as root:
        with SweepEngine(
            jobs=worker_count(), cache=ResultCache(root=root)
        ) as engine:
            cold = engine.run(cells)
            warm = engine.run(cells)
    if warm.cached_cells != len(cells):
        report.fail_all(
            f"warm cache run re-executed {len(cells) - warm.cached_cells} cells"
        )
    note_differences(report, differing_cells(
        reference, canonical(cold.results), canonical(warm.results)
    ))
    return serial, serial_wall, reference


def note_differences(report: Report, cells: int) -> None:
    if cells > report.failed:
        report.failed = cells
        report.problems.append(
            f"{cells} cells differ between jobs=1, jobs=N and the cache"
        )


def run_end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> Report:
    cells = grid(seed, smoke)
    report = Report(attempted=len(cells))
    serial, _, reference = checked_reference(cells, report, SweepEngine(jobs=1))
    operations = sum(cell.spec.operations for cell in cells)

    def repetition() -> None:
        warm, wall, outcome = parallel_run(cells)
        note_differences(
            report, differing_cells(reference, canonical(outcome.results))
        )
        report.add("setup_s", warm)
        report.add("ops_per_s", operations / wall)

    repeat_for(seconds, repetition)
    profiles = [result.profile for result in serial.results]
    report.add("sim_ro", sum(p.read_overhead for p in profiles) / len(profiles))
    report.add("sim_uo", sum(p.update_overhead for p in profiles) / len(profiles))
    report.add("sim_mo", sum(p.memory_overhead for p in profiles) / len(profiles))
    report.add("sim_time", sum(p.simulated_time for p in profiles))
    report.add("peak_rss_mib", peak_rss_mib(include_children=True))
    return report


def cache_loops(report: Report, results) -> None:
    """Isolated prices of a cache write, a cache hit and the canonical
    round trip, per cell, over the grid's own results."""
    count = len(results)
    start = now()
    envelopes = [encode_envelope(result, None) for result in results]
    for envelope in envelopes:
        decode_envelope(envelope)
    report.add(
        "exec.serialize.roundtrip_us_per_cell", (now() - start) / count * 1e6
    )
    with tempfile.TemporaryDirectory(prefix="perf-sweep-cache-") as root:
        cache = ResultCache(root=root)
        keys = [cache.key_for(envelope) for envelope in envelopes]
        for key in keys:
            cache.lookup(key)
        start = now()
        for key, envelope in zip(keys, envelopes):
            cache.put(key, envelope, meta={"traced": False, "wall_seconds": 0.0})
        report.add("exec.cache.put_us_per_cell", (now() - start) / count * 1e6)
        start = now()
        for key in keys:
            cache.lookup(key)
        report.add("exec.cache.hit_us_per_cell", (now() - start) / count * 1e6)
    report.add("exec.cache.hits", cache.hits)
    report.add("exec.cache.misses", cache.misses)


def run_traced(name: str, seed: int, seconds: float, smoke: bool) -> Report:
    """``exec`` has no inner boundary to proxy from outside a worker
    process, so its per-layer figures are phase timings, isolated loops
    and the engine's own per-cell accounting (``cell_seconds``,
    ``predicted_seconds``)."""
    cells = grid(seed, smoke)
    count = len(cells)
    report = Report(attempted=count)
    serial_engine = SweepEngine(jobs=1)
    serial, serial_wall, reference = checked_reference(
        cells, report, serial_engine
    )
    report.add("exec.engine.serial_s", serial_wall)
    # The second grid of one session: every (method, runner) rate is learned.
    second = serial_engine.run(cells)
    report.add("exec.engine.prediction_error", statistics.median([
        abs(predicted - actual) / actual
        for predicted, actual in zip(second.predicted_seconds, second.cell_seconds)
    ]))
    cache_loops(report, serial.results)

    jobs = worker_count()

    def repetition() -> None:
        warm, wall, outcome = parallel_run(cells)
        note_differences(
            report, differing_cells(reference, canonical(outcome.results))
        )
        report.add("exec.engine.pool_warm_s", warm)
        report.add("exec.engine.parallel_s", wall)
        report.add(
            "exec.engine.worker_busy_share",
            sum(outcome.cell_seconds) / (jobs * wall),
        )

    repeat_for(seconds / 2, repetition)
    parallel = statistics.median(report.samples["exec.engine.parallel_s"])
    report.add("exec.engine.parallel_speedup", serial_wall / parallel)
    report.add("ledger.end_to_end_us", parallel / count * 1e6)
    report.notes.append(
        f"sweep-grid: {count} cells, jobs={jobs}, serial {serial_wall:.3f} s, "
        f"parallel {parallel:.3f} s"
    )
    return report
