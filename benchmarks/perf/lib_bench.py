"""The four ``lib-*`` workloads: one access method under ``core.rum``.

A repetition does exactly what :func:`repro.workloads.runner.run_workload`
does — ``initial_data``, construct, ``bulk_load``, ``flush``, then
``measure_workload_batched`` over ``operation_batches`` — but calls the
steps itself so set-up and the measured phase are timed apart.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.rum import (
    RUMAccumulator,
    measure_workload,
    measure_workload_batched,
)
from repro.obs.live import WindowedRUM
from repro.obs.metrics import Histogram, WorkloadMetrics
from repro.obs.spans import span_collection, span_entries
from repro.storage.device import CostModel, SimulatedDevice
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.runner import DEFAULT_BATCH_SIZE
from repro.workloads.spec import MIXES, OpKind, WorkloadSpec

from benchmarks.perf.harness import (
    BLOCK_BYTES,
    Report,
    now,
    peak_rss_mib,
    repeat_for,
    scaled,
)
from benchmarks.perf.tracing import SpanRecorder, build_method

#: Width (simulated time) of the observed workload's live windows.
LIVE_WINDOW = 1000.0

#: Every observer the observed workload attaches, by the name its
#: slowdown metric carries.
OBSERVERS = ("metrics", "live", "spans")

#: ``ledger.residual_share`` above this fails a traced ``lib-*`` run.
MAX_RESIDUAL = 0.15


@dataclass(frozen=True)
class LibWorkload:
    method: str
    mix: str
    distribution: str
    records: int
    operations: int
    range_fraction: Optional[float] = None
    #: Hierarchy level capacities in blocks; empty mounts the raw device.
    levels: Tuple[int, ...] = ()
    #: Observers attached to the measurement loop (see :data:`OBSERVERS`).
    observers: Tuple[str, ...] = ()


#: Shapes are the issue's; ``operations`` is scaled so one repetition
#: measures 0.7-1.0 s here and a ten-second run holds about ten.
WORKLOADS: Dict[str, LibWorkload] = {
    "lib-btree-balanced": LibWorkload(
        "btree", "balanced", "uniform", records=100_000, operations=60_000
    ),
    "lib-lsm-write-heavy": LibWorkload(
        "lsm", "write-heavy", "uniform", records=100_000, operations=25_000
    ),
    "lib-sorted-hier-read": LibWorkload(
        "sorted-column", "read-only", "zipfian", records=50_000,
        operations=30_000, range_fraction=0.01, levels=(16, 128),
    ),
    "lib-btree-balanced-observed": LibWorkload(
        "btree", "balanced", "uniform", records=100_000, operations=40_000,
        observers=OBSERVERS,
    ),
}


def spec_for(workload: LibWorkload, seed: int, smoke: bool) -> WorkloadSpec:
    changes = dict(
        operations=scaled(workload.operations, smoke),
        initial_records=scaled(workload.records, smoke),
        distribution=workload.distribution,
        seed=seed,
    )
    if workload.range_fraction is not None:
        changes["range_fraction"] = workload.range_fraction
    return dataclasses.replace(MIXES[workload.mix], **changes)


@dataclass
class Loaded:
    """A bulk-loaded method, its generator, and what loading cost."""

    generator: WorkloadGenerator
    data: List[Tuple[int, int]]
    method: object
    initial_data_s: float
    bulk_load_s: float
    setup_s: float


def load(
    workload: LibWorkload,
    spec: WorkloadSpec,
    levels: Optional[Tuple[int, ...]] = None,
    recorder: Optional[SpanRecorder] = None,
) -> Loaded:
    """Set-up: everything before the measured phase, timed."""
    start = now()
    generator = WorkloadGenerator(spec)
    data = generator.initial_data()
    generated = now()
    method = build_method(
        workload.method,
        workload.levels if levels is None else levels,
        recorder,
    )
    built = now()
    method.bulk_load(data)
    method.flush()
    end = now()
    return Loaded(
        generator, data, method,
        initial_data_s=generated - start,
        bulk_load_s=end - built,
        setup_s=end - start,
    )


def measure(
    method,
    batches: Iterable[list],
    observers: Tuple[str, ...] = (),
    per_op: bool = False,
):
    """The measured phase; returns ``(wall_s, profile, accumulator, live)``.

    ``run_workload``'s loop is ``measure_workload_batched``, which itself
    falls back to the per-op loop when anything is attached; ``per_op``
    calls that loop directly, the only way to run it with nothing attached.
    """
    accumulator = RUMAccumulator()
    metrics = WorkloadMetrics() if "metrics" in observers else None
    live = WindowedRUM(LIVE_WINDOW) if "live" in observers else None
    loop = measure_workload if per_op else measure_workload_batched
    stream = chain.from_iterable(batches) if per_op else batches

    def run():
        start = now()
        profile = loop(
            method, stream, metrics=metrics, accumulator=accumulator, live=live
        )
        return now() - start, profile, accumulator, live

    if "spans" in observers:
        with span_collection():
            return run()
    return run()


def verify(spec, loaded: Loaded, operations: list, accumulator) -> List[str]:
    """Dict oracle + ``audit()`` + the executed count; [] when all hold."""
    problems = []
    executed = accumulator.read_ops + accumulator.update_ops
    if executed != spec.operations:
        problems.append(f"executed {executed} of {spec.operations} operations")
    oracle = dict(loaded.data)
    for operation in operations:
        if operation.kind in (OpKind.INSERT, OpKind.UPDATE):
            oracle[operation.key] = operation.value
        elif operation.kind is OpKind.DELETE:
            del oracle[operation.key]
    actual = loaded.method.range_query(0, max(oracle, default=0) + 1)
    if actual != sorted(oracle.items()):
        problems.append("final range_query differs from the dict oracle")
    problems.extend(f"audit: {v}" for v in loaded.method.audit())
    return problems


def simulated(report: Report, profile, simulated_time: float) -> None:
    report.add("sim_ro", profile.read_overhead)
    report.add("sim_uo", profile.update_overhead)
    report.add("sim_mo", profile.memory_overhead)
    report.add("sim_time", simulated_time)


def checked_warm_up(workload, spec, report: Report):
    """The discarded warm-up repetition, which is also the output check:
    its stream is materialised so the oracle can replay it afterwards."""
    loaded = load(workload, spec)
    batches = list(loaded.generator.operation_batches(DEFAULT_BATCH_SIZE))
    _, profile, accumulator, _ = measure(
        loaded.method, batches, workload.observers
    )
    operations = [operation for batch in batches for operation in batch]
    for problem in verify(spec, loaded, operations, accumulator):
        report.fail_all(problem)
    return profile, operations


def run_end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> Report:
    workload = WORKLOADS[name]
    spec = spec_for(workload, seed, smoke)
    report = Report(attempted=spec.operations)
    reference, _ = checked_warm_up(workload, spec, report)
    simulated(report, reference, reference.simulated_time)

    def repetition() -> None:
        loaded = load(workload, spec)
        wall, profile, accumulator, _ = measure(
            loaded.method,
            loaded.generator.operation_batches(DEFAULT_BATCH_SIZE),
            workload.observers,
        )
        if profile != reference:
            report.fail_all(f"profile {profile} differs from {reference}")
        report.add("setup_s", loaded.setup_s)
        report.add("ops_per_s", spec.operations / wall)

    repeat_for(seconds, repetition)
    report.add("peak_rss_mib", peak_rss_mib())
    return report


# ----------------------------------------------------------------------
# The traced run: per-layer prices (untraced loops) and shape (proxies).
# ----------------------------------------------------------------------
#: One method call per operation kind — what both per-op loops strip away.
CALLS = {
    OpKind.POINT_QUERY: lambda method, op: method.get(op.key),
    OpKind.RANGE_QUERY: lambda method, op: method.range_query(op.key, op.high_key),
    OpKind.INSERT: lambda method, op: method.insert(op.key, op.value),
    OpKind.UPDATE: lambda method, op: method.update(op.key, op.value),
    OpKind.DELETE: lambda method, op: method.delete(op.key),
}


def bare_loop(method, operations: list) -> float:
    """Wall seconds of the method calls alone, one per operation."""
    calls = CALLS
    start = now()
    for operation in operations:
        calls[operation.kind](method, operation)
    method.flush()
    return now() - start


def bare_segments(method, segments: List[list]) -> float:
    """Wall seconds of ``apply_batch`` over the batched loop's own windows."""
    apply_batch = method.apply_batch
    start = now()
    for segment in segments:
        apply_batch(segment)
    method.flush()
    return now() - start


def kind_latencies(method, operations: list) -> Dict[str, List[float]]:
    """Host µs of every method call, by operation kind (:func:`bare_loop`
    with a timer around each call), and of the terminal flush."""
    samples: Dict[str, List[float]] = {kind.value: [] for kind in CALLS}
    for operation in operations:
        call = CALLS[operation.kind]
        start = now()
        call(method, operation)
        samples[operation.kind.value].append((now() - start) * 1e6)
    start = now()
    method.flush()
    samples["flush"] = [(now() - start) * 1e6]
    return samples


def device_loops(report: Report, blocks: int = 2048, rounds: int = 40) -> None:
    """Isolated prices of the raw device's five entry points."""
    device = SimulatedDevice(block_bytes=BLOCK_BYTES, cost_model=CostModel.flash())
    start = now()
    ids = [device.allocate("data") for _ in range(blocks)]
    report.add("storage.device.alloc_ns", (now() - start) / blocks * 1e9)
    order = ids[:]
    random.Random(0).shuffle(order)
    payload = [(0, 0)]
    used = [16] * blocks
    payloads = [payload] * blocks
    calls = blocks * rounds
    read, write = device.read, device.write
    start = now()
    for _ in range(rounds):
        for block_id in order:
            write(block_id, payload, 16)
    report.add("storage.device.write_ns", (now() - start) / calls * 1e9)
    start = now()
    for _ in range(rounds):
        for block_id in order:
            read(block_id)
    report.add("storage.device.read_ns", (now() - start) / calls * 1e9)
    start = now()
    for _ in range(rounds):
        device.write_many(order, payloads, used)
    report.add(
        "storage.device.write_many_ns_per_block", (now() - start) / calls * 1e9
    )
    start = now()
    for _ in range(rounds):
        device.read_many(order)
    report.add(
        "storage.device.read_many_ns_per_block", (now() - start) / calls * 1e9
    )


def device_replay(reads: int, writes: int, blocks: int) -> float:
    """Wall seconds of ``reads`` + ``writes`` block operations on a bare
    device holding ``blocks`` blocks — the workload's device bill."""
    device = SimulatedDevice(block_bytes=BLOCK_BYTES, cost_model=CostModel.flash())
    ids = [device.allocate("data") for _ in range(max(1, blocks))]
    rng = random.Random(0)
    read_ids = rng.choices(ids, k=reads)
    write_ids = rng.choices(ids, k=writes)
    payload = [(0, 0)]
    read, write = device.read, device.write
    start = now()
    for block_id in read_ids:
        read(block_id)
    for block_id in write_ids:
        write(block_id, payload, 16)
    return now() - start


def accounting_loops(report: Report, method) -> None:
    """Isolated prices of the accumulator's two per-window primitives."""
    accumulator = RUMAccumulator()
    rounds = 200
    start = now()
    for _ in range(rounds):
        accumulator.sample_space(method)
    report.add("core.rum.sample_space_us", (now() - start) / rounds * 1e6)
    device = method.device
    rounds = 20_000
    start = now()
    for _ in range(rounds):
        device.stats_since(device.snapshot())
    report.add("core.rum.snapshot_pair_ns", (now() - start) / rounds * 1e9)


def hierarchy_counts(report: Report, device) -> None:
    hierarchy = getattr(device, "hierarchy", None)
    if hierarchy is None:
        return
    top, second = hierarchy.levels[0], hierarchy.levels[1]
    report.add("storage.hierarchy.l0_hit_rate", top.hit_rate())
    report.add("storage.hierarchy.l1_hit_rate", second.hit_rate())
    pools = [level.pool.stats for level in hierarchy.levels]
    report.add("storage.hierarchy.evictions", sum(p.evictions for p in pools))
    report.add("storage.hierarchy.writebacks", sum(p.write_backs for p in pools))
    report.add("storage.hierarchy.backing_reads", hierarchy.backing_reads)
    report.add("storage.hierarchy.backing_writes", hierarchy.backing_writes)


def run_traced(name: str, seed: int, seconds: float, smoke: bool) -> Report:
    workload = WORKLOADS[name]
    spec = spec_for(workload, seed, smoke)
    operations_count = spec.operations
    report = Report(attempted=operations_count)
    per_op = 1e6 / operations_count
    observed = bool(workload.observers)

    reference, operations = checked_warm_up(workload, spec, report)
    batches = [
        operations[i:i + DEFAULT_BATCH_SIZE]
        for i in range(0, len(operations), DEFAULT_BATCH_SIZE)
    ]

    # Shape: the workload's own path with a timing proxy at every boundary.
    recorder = SpanRecorder()
    entries = span_entries()
    loaded = recorder.call("setup", load, workload, spec, None, recorder)
    traced_wall, profile, _, live = recorder.call(
        "core.rum.measure", measure, loaded.method,
        recorder.stream(
            "workloads.generate",
            loaded.generator.operation_batches(DEFAULT_BATCH_SIZE),
        ),
        workload.observers,
    )
    if profile != reference:
        report.fail_all("the traced run's profile differs from the untraced one")
    start = now()
    recorder.call("check.audit", loaded.method.audit)
    report.add("check.audit_ms", (now() - start) * 1e3)
    counters = loaded.method.device.counters
    block_ops = counters.reads + counters.writes
    segments = loaded.method.segments
    blocks = loaded.method.device.allocated_blocks
    hierarchy_counts(report, loaded.method.device)
    report.add("methods.block_ops_per_op", block_ops / operations_count)
    report.add("storage.device.block_reads", counters.reads)
    report.add("storage.device.block_writes", counters.writes)
    # The per-op loop brackets every operation on its own.
    report.add(
        "core.rum.windows_per_op",
        len(segments) / operations_count if segments else 1.0,
    )
    if live is not None:
        report.add("obs.live_windows", len(live.frames()))
    report.add(
        "obs.span_entries_per_op", (span_entries() - entries) / operations_count
    )

    # Prices: untraced passes over the same stream, medians over rounds.
    passes: Dict[str, List[float]] = {}

    def price(label: str, wall: float) -> None:
        passes.setdefault(label, []).append(wall * per_op)

    def fresh_method(levels=None):
        return load(workload, spec, levels=levels).method

    def one_round() -> None:
        fresh = load(workload, spec)
        report.add("workloads.initial_data_s", fresh.initial_data_s)
        report.add("methods.bulk_load_s", fresh.bulk_load_s)
        price("streamed", measure(
            fresh.method,
            fresh.generator.operation_batches(DEFAULT_BATCH_SIZE),
            workload.observers,
        )[0])
        generator = WorkloadGenerator(spec)
        generator.initial_data()
        start = now()
        for _ in generator.operation_batches(DEFAULT_BATCH_SIZE):
            pass
        price("generate", now() - start)
        price("materialised", measure(
            fresh_method(), batches, workload.observers
        )[0])
        if observed:
            price("methods", bare_loop(fresh_method(), operations))
            price("plain", measure(fresh_method(), batches, per_op=True)[0])
            for observer in OBSERVERS:
                price(observer, measure(
                    fresh_method(), batches, (observer,), per_op=True
                )[0])
        else:
            price("methods", bare_segments(fresh_method(levels=()), segments))
        if workload.levels:
            price("raw_mount", measure(fresh_method(levels=()), batches)[0])
        price("device", device_replay(counters.reads, counters.writes, blocks))

    repeat_for(seconds / 2, one_round)
    cost = {label: statistics.median(walls) for label, walls in passes.items()}

    layers: Dict[str, float] = {"workloads": cost["generate"]}
    hop = 0.0
    if observed:
        # Base of every obs ratio: the per-op loop with nothing attached.
        plain = cost["plain"]
        for observer in OBSERVERS:
            report.add(f"obs.{observer}_slowdown", cost[observer] / plain)
        report.add("obs.all_slowdown", cost["materialised"] / plain)
        loop = plain - cost["methods"]
        report.add("core.rum.perop_loop_us_per_op", loop)
        layers["obs"] = cost["materialised"] - plain
    elif workload.levels:
        # The method and the loop are priced on the raw mount; what the
        # hierarchy mount adds to the same stream is the hop.
        loop = cost["raw_mount"] - cost["methods"]
        hop = cost["materialised"] - cost["raw_mount"]
        report.add("core.rum.loop_us_per_op", loop)
    else:
        loop = cost["materialised"] - cost["methods"]
        report.add("core.rum.loop_us_per_op", loop)
    layers.update({
        "core.rum": loop,
        "methods": cost["methods"] - cost["device"],
        "storage.hierarchy": hop,
        "storage.device": cost["device"],
    })
    report.add("workloads.gen_us_per_op", cost["generate"])
    report.add("methods.self_us_per_op", layers["methods"])
    report.add("storage.device.us_per_op", cost["device"])
    report.add(
        "storage.hierarchy.hop_us_per_block_op",
        hop * operations_count / block_ops,
    )

    latencies = kind_latencies(load(workload, spec).method, operations)
    for kind in OpKind:
        histogram = Histogram.from_samples(latencies[kind.value])
        for label, fraction in (("p50", 0.50), ("p99", 0.99)):
            report.add(
                f"methods.{kind.value}_us_{label}", histogram.percentile(fraction)
            )
    report.add("methods.flush_ms_max", max(latencies["flush"]) / 1e3)
    device_loops(report)
    accounting_loops(report, load(workload, spec).method)

    end_to_end = cost["streamed"]
    residual = abs(end_to_end - sum(layers.values())) / end_to_end
    report.add("ledger.end_to_end_us", end_to_end)
    report.add("ledger.residual_share", residual)
    report.add("trace.overhead_ratio", traced_wall * per_op / end_to_end)
    if residual > MAX_RESIDUAL and not smoke:
        report.fail_all(
            f"ledger.residual_share {residual:.3f} exceeds {MAX_RESIDUAL}"
        )
    report.notes.extend(
        ledger_table(layers, end_to_end, recorder, operations_count)
    )
    report.notes.append("trace: " + recorder.write(name, seed))
    return report


def ledger_table(layers, end_to_end, recorder, operations) -> List[str]:
    """The "where the µs go" table: prices beside the traced shape."""
    shape = recorder.aggregate()
    traced: Dict[str, Dict[str, float]] = {}
    for span_name, row in shape.items():
        layer = span_name.rsplit(".", 1)[0] if "." in span_name else span_name
        merged = traced.setdefault(layer, {"calls": 0, "self_us": 0.0})
        merged["calls"] += row["calls"]
        merged["self_us"] += row["self_us"]
    lines = [
        f"where the µs go (end to end {end_to_end:.2f} µs/op)",
        f"  {'layer':<20}{'self µs/op':>12}{'share':>8}"
        f"{'calls/op':>10}{'traced self µs/op':>20}",
    ]
    for layer, self_us in layers.items():
        seen = traced.get(layer, {"calls": 0, "self_us": 0.0})
        lines.append(
            f"  {layer:<20}{self_us:>12.3f}{self_us / end_to_end:>8.1%}"
            f"{seen['calls'] / operations:>10.3f}"
            f"{seen['self_us'] / operations:>20.3f}"
        )
    return lines
