"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every registered access method.
``profile``
    Measure one method's RUM profile under a named workload mix.
``triangle``
    Measure every method and render the RUM triangle (live Figure 1).
``wizard``
    Rank access methods for a workload and hardware target.
``reproduce``
    Run the compact paper reproduction and print the report.
``record`` / ``replay``
    Save a workload trace to a file / replay it against any method.
``trace``
    Run a workload with structured I/O tracing on: dump every device /
    buffer-pool event (read, write, alloc, free, evict, write-back) as
    JSONL and print the per-op-type cost breakdown table.
``stats``
    Run a workload collecting per-op-type histograms only (no event
    stream): blocks touched and simulated time per point query, insert,
    range scan, ...
``explain``
    Run a workload with hierarchical spans on and attribute the measured
    RO/UO/MO to each internal phase (descent, split, flush, per-level
    compaction, bloom probe, ...).  The per-span fractions sum *exactly*
    to the aggregate profile — an audit certifies it, and any violation
    is printed and exits non-zero.  ``--json`` emits the machine-readable
    profile.
``flame``
    Same spanned run, emitted as folded stacks (``a;b;c weight`` lines)
    for Brendan Gregg's ``flamegraph.pl``.  ``--weight`` selects bytes
    moved (default), event count, or simulated time.
``sweep``
    Measure a grid of methods under one workload through the parallel
    sweep engine: ``--jobs N`` fans cells over a persistent worker
    pool, and a content-addressed cache under ``.repro-cache/`` makes
    re-running an unchanged grid near-instant (``--no-cache`` to
    bypass, ``--clear-cache`` to drop stale entries).  ``--profile``
    prints the scheduler's view — per-cell wall time, predicted cost,
    longest-first dispatch order, executed/cached status — so sweep
    regressions are diagnosable from the CLI.
``audit``
    Run structural invariant audits (``AccessMethod.audit``) against a
    workload with a dict oracle in lockstep — optionally under a seeded
    fault-injection plan (``--fail-write-at``, ``--fault-rate``,
    ``--torn``, ...).  Clean runs gate correctness (non-zero exit on any
    violation); fault-injected runs are informational.
``hierarchy``
    Drive a skewed block workload through a chained memory hierarchy
    (Figure 2's substrate) and print the per-level RO/UO/MO table —
    traffic reaching each level, traffic passed down, hit rate, and
    bytes replicated — plus the backing-device row.  Runs the
    hierarchy's conservation/coherence audit; non-zero exit on any
    violation.
``top``
    Stream one workload through the live observability substrate and
    render each simulated-time window as a frame: op mix, per-window
    RO/UO/MO, top I/O phases, and the drift detector's state.  Windowed
    integers sum *exactly* to the whole-run totals (the conservation
    contract; non-zero exit on violation), and ``--json`` output is
    byte-identical at any ``--jobs`` because the frames come out of the
    sweep engine's deterministic cell runner.
``serve``
    Run the transactional serving tier (sessions, snapshot-isolation
    OCC transactions, write-ahead log) over one method with a scripted
    multi-client session, verified against an oracle and the method's
    structural audit.  ``--crash-write-at N`` injects a crash at the
    Nth device write (``--torn`` tears the WAL write it lands on), then
    restarts and recovers from the WAL — the printed recovery report
    shows what was replayed.
``bench-serve``
    Benchmark N concurrent zipfian clients over the serving tier with a
    deterministic interleaving: per-client p50/p99 commit latency plus
    the method's RUM triple, all reproducible under a fixed seed.

``serve`` and ``bench-serve`` accept ``--live-window T`` to stream the
tier's own per-window metrics (commit latency p50/p99, abort counts,
group-commit occupancy, WAL bytes) over simulated-time windows of
width ``T``.

Exit codes (all subcommands): 0 = clean, 1 = a check failed (audit
violation, oracle divergence, span-attribution mismatch), 2 = usage
error (unknown command, method, or malformed arguments).

Examples::

    python -m repro list
    python -m repro profile btree --workload balanced --records 8000
    python -m repro triangle --workload write-heavy
    python -m repro wizard --workload read-mostly --hardware flash --analytic
    python -m repro reproduce --output report.txt --jobs 4
    python -m repro record --workload write-heavy --output w.trace
    python -m repro replay w.trace --method lsm
    python -m repro trace --method lsm --workload balanced --output events.jsonl
    python -m repro stats --method btree --workload write-heavy
    python -m repro explain lsm --workload write-heavy
    python -m repro explain btree --json --output profile.json
    python -m repro flame --method lsm --weight time --output lsm.folded
    python -m repro sweep --workload balanced --jobs 4
    python -m repro sweep --methods btree,lsm,hash-index --no-cache
    python -m repro sweep --workload balanced --jobs 4 --profile
    python -m repro audit --workload balanced --ops 600
    python -m repro audit --methods lsm --fail-write-at 7 --torn
    python -m repro hierarchy --capacities 8,64 --device disk
    python -m repro hierarchy --capacities 4,16,64 --write-policy write-through
    python -m repro top --method lsm --workload write-heavy --window 100
    python -m repro top --method btree --json --jobs 4 --output frames.json
    python -m repro serve --method btree --clients 4 --txns 25
    python -m repro serve --live-window 50
    python -m repro serve --crash-write-at 12 --torn
    python -m repro bench-serve --clients 8 --txns 40 --seed 1234
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.analysis.triangle import render_triangle
from repro.core.registry import available_methods, create_method
from repro.core.space import project_field
from repro.core.wizard import HardwarePriorities, recommend, recommend_analytic
from repro.exec.cache import DEFAULT_CACHE_DIR
from repro.obs.live import DEFAULT_RUM_RING_SIZE
from repro.storage.device import CostModel
from repro.workloads.runner import run_workload
from repro.workloads.spec import MIXES

_HARDWARE = {
    "neutral": HardwarePriorities,
    "flash": HardwarePriorities.flash,
    "disk": HardwarePriorities.disk,
    "memory": HardwarePriorities.memory_constrained,
}

_COST_MODELS = {
    "dram": CostModel.dram,
    "flash": CostModel.flash,
    "disk": CostModel.disk,
    "shingled-disk": CostModel.shingled_disk,
}


class UsageError(RuntimeError):
    """Bad usage detected after argparse (unknown method, bad value).

    :func:`main` maps it to exit code 2 — the same code argparse uses —
    so the CLI's contract is uniform: 0 clean, 1 check failure, 2 usage.
    """


def _checked_method(name: str, **kwargs):
    """``create_method`` with unknown names mapped to :class:`UsageError`."""
    try:
        return create_method(name, **kwargs)
    except KeyError as error:
        raise UsageError(error.args[0]) from None


def _checked_method_names(raw: str) -> List[str]:
    """Parse a ``--methods`` list, rejecting unknown names as usage errors."""
    names = [name.strip() for name in raw.split(",") if name.strip()]
    known = set(available_methods())
    unknown = sorted(set(names) - known)
    if unknown:
        raise UsageError(f"unknown access method(s): {', '.join(unknown)}")
    return names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RUM Conjecture access-method toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered access methods")

    profile = sub.add_parser("profile", help="measure one method's RUM profile")
    profile.add_argument("method", help="registered method name")
    _workload_arguments(profile)

    triangle = sub.add_parser("triangle", help="render the RUM triangle")
    _workload_arguments(triangle)

    wizard = sub.add_parser("wizard", help="rank methods for a workload")
    _workload_arguments(wizard)
    wizard.add_argument(
        "--hardware",
        choices=sorted(_HARDWARE),
        default="neutral",
        help="hardware priority preset",
    )
    wizard.add_argument(
        "--analytic",
        action="store_true",
        help="use the classification study instead of measuring",
    )
    wizard.add_argument("--top", type=int, default=5, help="entries to show")

    reproduce = sub.add_parser(
        "reproduce",
        help="run the compact paper reproduction and print the report",
    )
    reproduce.add_argument(
        "--output", default=None, help="also write the report to this file"
    )
    reproduce.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the profile sweep (same report at any count)",
    )

    record = sub.add_parser("record", help="save a workload trace to a file")
    _workload_arguments(record)
    record.add_argument("--output", required=True, help="trace file to write")

    replay = sub.add_parser(
        "replay", help="replay a recorded trace against an access method"
    )
    replay.add_argument("trace", help="trace file written by `record`")
    replay.add_argument("--method", default="btree", help="method to replay against")

    trace = sub.add_parser(
        "trace",
        help="run a workload with I/O tracing on; dump JSONL events",
    )
    trace.add_argument("--method", default="btree", help="method to trace")
    _workload_arguments(trace)
    trace.add_argument("--output", required=True, help="JSONL event file to write")

    stats = sub.add_parser(
        "stats", help="per-op-type cost breakdown of a workload run"
    )
    stats.add_argument("--method", default="btree", help="method to measure")
    _workload_arguments(stats)

    explain = sub.add_parser(
        "explain",
        help="attribute measured RO/UO/MO to internal phases via spans",
    )
    explain.add_argument("method", help="registered method name")
    _workload_arguments(explain)
    explain.add_argument(
        "--block-bytes", type=int, default=4096, help="device block size"
    )
    explain.add_argument(
        "--device",
        choices=sorted(_COST_MODELS),
        default="flash",
        help="device cost-model preset",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable profile",
    )
    explain.add_argument(
        "--output", default=None, help="also write the output to this file"
    )

    flame = sub.add_parser(
        "flame",
        help="emit a spanned run as folded stacks for flamegraph.pl",
    )
    flame.add_argument("--method", default="btree", help="method to profile")
    _workload_arguments(flame)
    flame.add_argument(
        "--block-bytes", type=int, default=4096, help="device block size"
    )
    flame.add_argument(
        "--device",
        choices=sorted(_COST_MODELS),
        default="flash",
        help="device cost-model preset",
    )
    flame.add_argument(
        "--weight",
        choices=["bytes", "events", "time"],
        default="bytes",
        help="folded-stack weight: bytes moved, event count, or sim time",
    )
    flame.add_argument(
        "--output", default=None, help="write folded stacks to this file"
    )

    audit = sub.add_parser(
        "audit",
        help="run structural invariant audits, optionally under faults",
    )
    _workload_arguments(audit)
    audit.add_argument(
        "--methods",
        default=None,
        help=(
            "comma-separated method names "
            "(default: every method except bitmap)"
        ),
    )
    audit.add_argument(
        "--block-bytes", type=int, default=4096, help="device block size"
    )
    audit.add_argument(
        "--audit-every",
        type=int,
        default=16,
        help="audit after every N operations (0 = only at the end)",
    )
    audit.add_argument(
        "--fail-read-at",
        type=int,
        default=None,
        help="inject a fault on the Nth eligible read",
    )
    audit.add_argument(
        "--fail-write-at",
        type=int,
        default=None,
        help="inject a fault on the Nth eligible write",
    )
    audit.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-access fault probability, applied to reads and writes",
    )
    audit.add_argument(
        "--fault-kinds",
        default=None,
        help="only fault blocks of these comma-separated kinds",
    )
    audit.add_argument(
        "--torn",
        action="store_true",
        help="faulted writes apply half their payload before raising",
    )
    audit.add_argument(
        "--fault-seed", type=int, default=1234, help="fault-plan RNG seed"
    )
    audit.add_argument(
        "--max-faults",
        type=int,
        default=None,
        help="stop injecting after this many faults",
    )

    hierarchy = sub.add_parser(
        "hierarchy",
        help="run a chained memory hierarchy; print the per-level table",
    )
    hierarchy.add_argument(
        "--capacities",
        default="8,64",
        help="comma-separated level capacities in blocks, top (fastest) first",
    )
    hierarchy.add_argument(
        "--blocks", type=int, default=256, help="dataset size in blocks"
    )
    hierarchy.add_argument(
        "--accesses", type=int, default=4000, help="block accesses to run"
    )
    hierarchy.add_argument(
        "--write-ratio",
        type=float,
        default=0.25,
        help="fraction of accesses that are writes",
    )
    hierarchy.add_argument(
        "--write-policy",
        choices=["write-back", "write-through"],
        default="write-back",
        help="write policy applied at every level",
    )
    hierarchy.add_argument(
        "--inclusion",
        choices=["inclusive", "exclusive"],
        default="inclusive",
        help="inclusion mode applied below the top level",
    )
    hierarchy.add_argument(
        "--device",
        choices=sorted(_COST_MODELS),
        default="flash",
        help="backing-device cost-model preset",
    )
    hierarchy.add_argument(
        "--block-bytes", type=int, default=4096, help="device block size"
    )
    hierarchy.add_argument(
        "--seed", type=int, default=71, help="access-pattern RNG seed"
    )

    sweep = sub.add_parser(
        "sweep",
        help="measure a method grid through the parallel sweep engine",
    )
    _workload_arguments(sweep)
    sweep.add_argument(
        "--methods",
        default=None,
        help=(
            "comma-separated method names "
            "(default: every method except bitmap)"
        ),
    )
    sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the grid"
    )
    sweep.add_argument(
        "--block-bytes", type=int, default=4096, help="device block size"
    )
    sweep.add_argument(
        "--device",
        choices=sorted(_COST_MODELS),
        default="flash",
        help="device cost-model preset",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="execute every cell even if a cached result exists",
    )
    sweep.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="result cache directory",
    )
    sweep.add_argument(
        "--clear-cache",
        action="store_true",
        help="drop every cached result before running",
    )
    sweep.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the scheduler's view: per-cell wall time, predicted "
            "cost, dispatch order, executed/cached status"
        ),
    )

    top = sub.add_parser(
        "top",
        help="stream per-window RO/UO/MO frames: op mix, phases, drift",
    )
    top.add_argument("--method", default="btree", help="method to watch")
    _workload_arguments(top)
    top.add_argument(
        "--window",
        type=float,
        default=50.0,
        help="window width in simulated-time units",
    )
    top.add_argument(
        "--ring",
        type=int,
        default=DEFAULT_RUM_RING_SIZE,
        help=(
            "closed windows retained before the oldest folds into the "
            "evicted totals (conservation still holds exactly)"
        ),
    )
    top.add_argument(
        "--hysteresis",
        type=int,
        default=2,
        help="consecutive windows before the drift detector switches state",
    )
    top.add_argument(
        "--block-bytes", type=int, default=4096, help="device block size"
    )
    top.add_argument(
        "--device",
        choices=sorted(_COST_MODELS),
        default="flash",
        help="device cost-model preset",
    )
    top.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="sweep-engine worker processes (same frames at any count)",
    )
    top.add_argument(
        "--phases", type=int, default=2, help="top I/O phases shown per window"
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable frame stream (canonical, sorted keys)",
    )
    top.add_argument(
        "--output", default=None, help="also write the output to this file"
    )

    serve = sub.add_parser(
        "serve",
        help="run the transactional serving tier; optional crash + recovery",
    )
    _serve_arguments(serve, default_clients=4, default_txns=25)
    serve.add_argument(
        "--crash-write-at",
        type=int,
        default=None,
        help=(
            "inject a crash at the Nth device write after load, then "
            "restart and recover from the WAL"
        ),
    )
    serve.add_argument(
        "--torn",
        action="store_true",
        help="the injected crash tears the WAL write it lands on",
    )

    bench_serve = sub.add_parser(
        "bench-serve",
        help="benchmark N concurrent zipfian clients: p50/p99 + RUM",
    )
    _serve_arguments(bench_serve, default_clients=8, default_txns=40)
    bench_serve.add_argument(
        "--device",
        choices=sorted(_COST_MODELS),
        default="flash",
        help="device cost-model preset",
    )
    bench_serve.add_argument(
        "--distribution",
        default="zipfian",
        help="client key distribution (zipfian, uniform, latest, ...)",
    )
    return parser


def _serve_arguments(
    parser: argparse.ArgumentParser, default_clients: int, default_txns: int
) -> None:
    parser.add_argument(
        "--method", default="btree", help="registered method name"
    )
    parser.add_argument(
        "--clients", type=int, default=default_clients,
        help="concurrent client sessions",
    )
    parser.add_argument(
        "--txns", type=int, default=default_txns,
        help="transactions per client",
    )
    parser.add_argument(
        "--ops-per-txn", type=int, default=4,
        help="operations per transaction",
    )
    parser.add_argument(
        "--records", type=int, default=256, help="initial dataset size"
    )
    parser.add_argument(
        "--seed", type=int, default=1234, help="scheduler/client RNG seed"
    )
    parser.add_argument(
        "--block-bytes", type=int, default=4096, help="device block size"
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=32,
        help="commits between WAL checkpoints (0 disables)",
    )
    parser.add_argument(
        "--group-commit", type=int, default=1, metavar="N",
        help=(
            "group commit: park validated commits and sync the WAL once "
            "per N of them (1 = per-commit sync)"
        ),
    )
    parser.add_argument(
        "--sync-deadline", type=float, default=None, metavar="T",
        help=(
            "also sync when the oldest parked commit has waited T "
            "simulated-time units (group-commit timer)"
        ),
    )
    parser.add_argument(
        "--live-window", type=float, default=None, metavar="T",
        help=(
            "stream the tier's per-window metrics (commit latency, "
            "aborts, group occupancy, WAL bytes) over simulated-time "
            "windows of width T"
        ),
    )
    parser.add_argument(
        "--hierarchy", default=None, metavar="CAPS",
        help=(
            "mount the method and its WAL behind a chained write-back "
            "hierarchy with these comma-separated level capacities in "
            "blocks, top first (e.g. 8,64); the WAL's sync forces its "
            "blocks through every level"
        ),
    )


def _workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        choices=sorted(MIXES),
        default="balanced",
        help="named operation mix",
    )
    parser.add_argument(
        "--records", type=int, default=4000, help="initial dataset size"
    )
    parser.add_argument(
        "--ops", type=int, default=1200, help="operations to run"
    )


def _spec(args):
    return MIXES[args.workload].scaled(
        initial_records=args.records, operations=args.ops
    )


def _command_list() -> int:
    for name in available_methods():
        print(name)
    return 0


def _command_profile(args) -> int:
    result = run_workload(_checked_method(args.method), _spec(args))
    profile = result.profile
    print(format_table(
        ["method", "workload", "RO", "UO", "MO", "simulated time"],
        [[
            args.method,
            args.workload,
            profile.read_overhead,
            profile.update_overhead,
            profile.memory_overhead,
            profile.simulated_time,
        ]],
    ))
    return 0


def _command_triangle(args) -> int:
    profiles = {}
    for name in available_methods():
        if name == "bitmap":
            continue  # value-predicate query model
        profiles[name] = run_workload(create_method(name), _spec(args)).profile
    rows = [
        [name, p.read_overhead, p.update_overhead, p.memory_overhead]
        for name, p in sorted(profiles.items())
    ]
    print(format_table(["method", "RO", "UO", "MO"], rows,
                       title=f"RUM profiles under {args.workload!r}"))
    print()
    points = project_field(profiles)
    print(render_triangle([points[name] for name in sorted(points)]))
    return 0


def _command_wizard(args) -> int:
    priorities = _HARDWARE[args.hardware]()
    spec = _spec(args)
    if args.analytic:
        recommendations = recommend_analytic(spec, priorities)
    else:
        recommendations = recommend(spec, priorities)
    rows = [
        [index + 1, rec.method, rec.score, rec.rationale]
        for index, rec in enumerate(recommendations[: args.top])
    ]
    print(format_table(
        ["rank", "method", "score", "rationale"],
        rows,
        title=(
            f"{'analytic' if args.analytic else 'measured'} recommendations "
            f"for {args.workload!r} on {args.hardware}"
        ),
    ))
    return 0


def _command_record(args) -> int:
    from repro.workloads.generator import generate_operations
    from repro.workloads.trace import save_trace

    data, operations = generate_operations(_spec(args))
    save_trace(args.output, data, operations)
    print(
        f"recorded {len(data)} records and {len(operations)} operations "
        f"({args.workload!r}) to {args.output}"
    )
    return 0


def _command_replay(args) -> int:
    from repro.core.rum import measure_workload
    from repro.workloads.trace import load_trace

    data, operations = load_trace(args.trace)
    method = _checked_method(args.method)
    method.bulk_load(data)
    profile = measure_workload(method, operations)
    print(format_table(
        ["method", "trace", "operations", "RO", "UO", "MO"],
        [[
            args.method,
            args.trace,
            len(operations),
            profile.read_overhead,
            profile.update_overhead,
            profile.memory_overhead,
        ]],
    ))
    return 0


def _breakdown_table(args, metrics, profile) -> str:
    """Render the per-op-type histogram table plus the profile footer."""
    from repro.obs.metrics import WorkloadMetrics

    table = format_table(
        WorkloadMetrics.HEADERS,
        metrics.rows(),
        title=f"{args.method} under {args.workload!r}: per-op-type cost breakdown",
    )
    footer = (
        f"RO={profile.read_overhead:.2f} UO={profile.update_overhead:.2f} "
        f"MO={profile.memory_overhead:.2f} simulated_time={profile.simulated_time:.2f}"
    )
    return f"{table}\n{footer}"


def _command_trace(args) -> int:
    from repro.check.audit import AuditError
    from repro.check.faults import DeviceFault
    from repro.obs.metrics import WorkloadMetrics
    from repro.obs.sinks import JsonlSink
    from repro.obs.tracer import RecordingTracer

    method = _checked_method(args.method)
    metrics = WorkloadMetrics()
    failure: Optional[BaseException] = None
    # The sink's lifetime brackets the workload: even when the run dies
    # mid-workload (an injected DeviceFault, an AuditError from a
    # structure check), the context manager closes and flushes the file,
    # so the JSONL trace on disk is complete and parseable up to the
    # failing operation — usually exactly the evidence needed.
    with JsonlSink(args.output) as sink:
        method.device.set_tracer(RecordingTracer(sink))
        try:
            result = run_workload(method, _spec(args), metrics=metrics)
        except (AuditError, DeviceFault) as error:
            failure = error
        events = sink.events_written
    if failure is not None:
        print(f"workload aborted: {failure}", file=sys.stderr)
        print(
            f"wrote {events} events to {args.output} "
            f"(complete up to the failure)"
        )
        return 1
    print(_breakdown_table(args, metrics, result.profile))
    print(f"wrote {events} events to {args.output}")
    return 0


def _command_stats(args) -> int:
    from repro.obs.metrics import WorkloadMetrics

    method = _checked_method(args.method)
    metrics = WorkloadMetrics()
    result = run_workload(method, _spec(args), metrics=metrics)
    print(_breakdown_table(args, metrics, result.profile))
    return 0


def _span_profile_run(args):
    """Run ``args``'s workload with spans on; return the span profile.

    Shared by ``explain`` and ``flame``: builds a traced device, runs the
    workload inside :func:`~repro.obs.spans.span_collection`, and folds
    the span-stamped event stream into a
    :class:`~repro.obs.spans.SpanProfile`.
    """
    import time

    from repro.core.rum import RUMAccumulator
    from repro.obs.sinks import ListSink
    from repro.obs.spans import SpanProfile, span_collection
    from repro.obs.tracer import RecordingTracer
    from repro.storage.device import SimulatedDevice

    sink = ListSink()
    device = SimulatedDevice(
        block_bytes=args.block_bytes,
        cost_model=_COST_MODELS[args.device](),
        name=args.device,
    )
    device.set_tracer(RecordingTracer(sink))
    method = _checked_method(args.method, device=device)
    accumulator = RUMAccumulator()
    started = time.perf_counter()
    with span_collection():
        result = run_workload(method, _spec(args), accumulator=accumulator)
    elapsed = time.perf_counter() - started
    profile = SpanProfile.from_events(sink.events)
    return method, device, result, accumulator, profile, elapsed


def _command_explain(args) -> int:
    import json

    from repro.obs.spans import rum_attribution

    method, device, result, accumulator, profile, elapsed = _span_profile_run(
        args
    )
    attribution = rum_attribution(
        profile,
        accumulator,
        base_bytes=method.base_bytes(),
        space_bytes=method.space_bytes(),
        allocated_bytes=device.allocated_bytes,
        memory_overhead=result.profile.memory_overhead,
    )
    # Throughput over operations the measurement loop actually accounted
    # — not the requested count: a degenerate spec (or a tolerant per-op
    # loop skipping invalid operations) can execute fewer, and dividing
    # by the request would overstate the rate.
    executed = result.operations_executed
    ops_per_sec = executed / elapsed if elapsed > 0 else 0.0
    if args.json:
        payload = {
            "method": args.method,
            "workload": args.workload,
            "operations": args.ops,
            "operations_executed": executed,
            "records": args.records,
            "block_bytes": args.block_bytes,
            "device": args.device,
            "elapsed_seconds": elapsed,
            "ops_per_sec": ops_per_sec,
            "totals": {
                "read_overhead": attribution.read_overhead,
                "update_overhead": attribution.update_overhead,
                "memory_overhead": attribution.memory_overhead,
                "simulated_time": result.profile.simulated_time,
            },
            "spans": [row.to_dict() for row in attribution.rows],
            "audit": list(attribution.audit),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        labels = [
            "  " * row.depth + row.path.rsplit("/", 1)[-1]
            for row in attribution.rows
        ]
        # Pad to a common width so the table's right-alignment cannot
        # swallow the tree indentation.
        label_width = max((len(label) for label in labels), default=0)
        rows = []
        for label, row in zip(labels, attribution.rows):
            rows.append([
                label.ljust(label_width),
                row.read_bytes,
                row.write_bytes,
                f"{row.ro:.3f}",
                f"{row.uo:.3f}",
                f"{row.mo:.3f}",
                f"{row.simulated_time:.1f}",
            ])
        table = format_table(
            ["span", "read B", "write B", "RO", "UO", "MO", "sim time"],
            rows,
            title=(
                f"{args.method} under {args.workload!r}: "
                f"RO/UO/MO by internal phase"
            ),
        )
        footer = (
            f"totals: RO={attribution.read_overhead:.3f} "
            f"UO={attribution.update_overhead:.3f} "
            f"MO={attribution.memory_overhead:.3f} "
            f"ops/sec={ops_per_sec:,.0f} (over {executed} executed)"
        )
        if attribution.audit:
            status = "\n".join(
                f"AUDIT: {line}" for line in attribution.audit
            )
        else:
            status = (
                "audit: span attribution sums exactly to the "
                "aggregate profile"
            )
        text = f"{table}\n{footer}\n{status}"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 1 if attribution.audit else 0


def _command_flame(args) -> int:
    _method, _device, _result, _acc, profile, _elapsed = _span_profile_run(
        args
    )
    lines = profile.folded_lines(weight=args.weight)
    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(lines)} folded stacks to {args.output}")
    else:
        print(text)
    return 0


def _command_reproduce(args) -> int:
    from repro.analysis.reproduce import reproduce

    report = reproduce(jobs=args.jobs)
    # Persist before printing, so a closed stdout pipe cannot lose it.
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
    print(report)
    return 0


def _command_audit(args) -> int:
    from repro.check import FaultPlan, build_audited_method, run_audit_session

    if args.methods:
        names = _checked_method_names(args.methods)
    else:
        # bitmap speaks the value-predicate query model, not key lookups.
        names = [name for name in available_methods() if name != "bitmap"]
    plan = None
    kinds = tuple(
        kind.strip() for kind in (args.fault_kinds or "").split(",") if kind.strip()
    )
    if (
        args.fail_read_at is not None
        or args.fail_write_at is not None
        or args.fault_rate > 0.0
    ):
        plan = FaultPlan(
            fail_read_at=args.fail_read_at,
            fail_write_at=args.fail_write_at,
            kinds=kinds,
            read_failure_rate=args.fault_rate,
            write_failure_rate=args.fault_rate,
            torn_writes=args.torn,
            seed=args.fault_seed,
            max_faults=args.max_faults,
        )
    spec = _spec(args)
    rows = []
    clean_failures = 0
    for name in names:
        method = build_audited_method(name, args.block_bytes, plan=plan)
        report = run_audit_session(
            method, spec, plan=plan, audit_every=args.audit_every
        )
        if not report.ok and plan is None:
            clean_failures += 1
        rows.append([
            name,
            "ok" if report.ok else "FAIL",
            report.completed,
            report.faults,
            report.rejected,
            len(report.violations),
            report.oracle_divergences,
        ])
        for violation in report.violations[:3]:
            rows.append(["", "", "", "", "", "", violation])
    mode = "clean" if plan is None else "fault-injected"
    print(format_table(
        ["method", "status", "completed", "faults", "rejected",
         "violations", "divergences"],
        rows,
        title=(
            f"{mode} audit of {len(names)} method(s) under "
            f"{args.workload!r} ({args.ops} ops)"
        ),
    ))
    if plan is not None:
        print(
            "fault-injected runs are informational: violations show what "
            "the audits caught, not regressions"
        )
        return 0
    return 1 if clean_failures else 0


def _command_hierarchy(args) -> int:
    import random

    from repro.storage.device import SimulatedDevice
    from repro.storage.hierarchy import LevelSpec, MemoryHierarchy

    try:
        capacities = [
            int(item) for item in args.capacities.split(",") if item.strip()
        ]
    except ValueError:
        raise UsageError(
            f"--capacities must be comma-separated integers, "
            f"got {args.capacities!r}"
        )
    if not capacities:
        raise UsageError("--capacities must name at least one level")
    backing = SimulatedDevice(
        block_bytes=args.block_bytes,
        cost_model=_COST_MODELS[args.device](),
        name=args.device,
    )
    blocks = []
    for index in range(args.blocks):
        block = backing.allocate()
        backing.write(block, f"page-{index}", used_bytes=args.block_bytes // 2)
        blocks.append(block)
    # Fast levels are cheap, slow levels pricier: 100x per step down,
    # ending well under the backing device's own cost model.
    specs = [
        LevelSpec(
            name=f"L{index}",
            capacity_blocks=capacity,
            access_cost=0.01 * (100 ** index) / (100 ** (len(capacities) - 1)),
            write_policy=args.write_policy,
            inclusion="inclusive" if index == 0 else args.inclusion,
        )
        for index, capacity in enumerate(capacities)
    ]
    hierarchy = MemoryHierarchy(backing, specs)
    rng = random.Random(args.seed)
    hot = max(args.blocks // 8, 1)
    for _ in range(args.accesses):
        index = min(int(rng.expovariate(1.0 / hot)), args.blocks - 1)
        if rng.random() < args.write_ratio:
            hierarchy.write(
                blocks[index],
                f"updated-{index}",
                used_bytes=args.block_bytes // 2,
            )
        else:
            hierarchy.read(blocks[index])
    hierarchy.flush()
    rows = []
    for level in hierarchy.levels:
        counters = level.counters
        rows.append([
            level.name,
            level.spec.capacity_blocks,
            counters.reads_reaching,
            counters.reads_served,
            counters.reads_passed_down,
            counters.writes_reaching,
            counters.writes_passed_down,
            f"{level.hit_rate():.1%}",
            level.space_bytes,
        ])
    rows.append([
        backing.name,
        backing.allocated_blocks,
        hierarchy.backing_reads,
        hierarchy.backing_reads,
        0,
        hierarchy.backing_writes,
        0,
        "",
        backing.allocated_bytes,
    ])
    print(format_table(
        ["level", "capacity", "RO_n: reads in", "reads served",
         "reads down", "UO_n: writes in", "writes down", "hit rate",
         "MO_n: bytes"],
        rows,
        title=(
            f"chained hierarchy {args.capacities} over {args.device} "
            f"({args.write_policy}, {args.inclusion}): per-level traffic"
        ),
    ))
    print(f"hierarchy simulated_time: {hierarchy.simulated_time:,.2f}")
    violations = hierarchy.audit()
    for violation in violations:
        print(f"AUDIT: {violation}")
    if violations:
        return 1
    print("audit: conservation and clean-frame coherence hold")
    return 0


def _command_sweep(args) -> int:
    from repro.exec import ResultCache, SweepCell, SweepEngine

    if args.methods:
        names = _checked_method_names(args.methods)
    else:
        # bitmap speaks the value-predicate query model, not key lookups.
        names = [name for name in available_methods() if name != "bitmap"]
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    if args.clear_cache and cache is not None:
        removed = cache.clear()
        print(f"cleared {removed} cached result(s) from {cache.root}")
    spec = _spec(args)
    cost_model = _COST_MODELS[args.device]()
    cells = [
        SweepCell.make(
            name, spec, block_bytes=args.block_bytes, cost_model=cost_model
        )
        for name in names
    ]
    with SweepEngine(jobs=args.jobs, cache=cache) as engine:
        outcome = engine.run(cells)
    rows = [
        [
            cell.display_label,
            result.profile.read_overhead,
            result.profile.update_overhead,
            result.profile.memory_overhead,
            result.profile.simulated_time,
        ]
        for cell, result in zip(outcome.cells, outcome.results)
    ]
    print(format_table(
        ["method", "RO", "UO", "MO", "simulated time"],
        rows,
        title=(
            f"sweep of {len(cells)} cells under {args.workload!r} "
            f"on {args.device} (jobs={args.jobs})"
        ),
    ))
    if args.profile:
        print()
        print(_sweep_profile_table(outcome))
    print(
        f"executed {outcome.executed_cells} cell(s), "
        f"{outcome.cached_cells} from cache"
        + ("" if cache is None else f" ({cache.root})")
    )
    return 0


def _sweep_profile_table(outcome) -> str:
    """The scheduler's view of one sweep, for ``sweep --profile``.

    One row per cell in cell order: executed/cached status, the cost
    model's prediction, the measured wall time, and where in the
    longest-first dispatch sequence the cell was handed out — enough to
    diagnose a sweep regression (a mispredicted slow cell, a cache that
    stopped hitting) straight from the CLI.
    """
    ranks = {
        index: rank for rank, index in enumerate(outcome.dispatch_order)
    }
    rows = []
    for index, cell in enumerate(outcome.cells):
        wall = outcome.cell_seconds[index]
        predicted = outcome.predicted_seconds[index]
        rows.append([
            cell.display_label,
            "executed" if wall is not None else "cached",
            "-" if index not in ranks else ranks[index] + 1,
            f"{predicted * 1e3:.1f}" if predicted else "-",
            f"{wall * 1e3:.1f}" if wall is not None else "-",
        ])
    return format_table(
        ["cell", "status", "dispatch#", "predicted ms", "wall ms"],
        rows,
        title=(
            f"scheduler profile: {outcome.executed_cells} executed, "
            f"{outcome.cached_cells} cached (dispatch is longest-first)"
        ),
    )


def _command_top(args) -> int:
    """Render the live frame stream of one workload run.

    The run goes through the sweep engine with the
    ``repro.obs.live:run_live_cell`` runner: the engine seeds the cell
    deterministically and ships the runner's JSON-pure dict back
    unmodified, so ``--jobs 1`` and ``--jobs N`` produce byte-identical
    ``--json`` output.  Exit is non-zero when the conservation contract
    is violated (window sums diverging from the whole-run totals).
    """
    import json

    from repro.exec import SweepCell, SweepEngine

    if args.window <= 0:
        raise UsageError("--window must be > 0")
    if args.ring < 1:
        raise UsageError("--ring must be >= 1")
    if args.hysteresis < 1:
        raise UsageError("--hysteresis must be >= 1")
    if args.method not in available_methods():
        raise UsageError(f"unknown access method: {args.method!r}")
    cell = SweepCell.make(
        args.method,
        _spec(args),
        block_bytes=args.block_bytes,
        cost_model=_COST_MODELS[args.device](),
        params={
            "window": args.window,
            "ring": args.ring,
            "hysteresis": args.hysteresis,
        },
        runner="repro.obs.live:run_live_cell",
    )
    # No result cache: the frame stream is the product of this run, not
    # an intermediate worth persisting under .repro-cache/.
    with SweepEngine(jobs=args.jobs) as engine:
        outcome = engine.run([cell])
    result = outcome.results[0]
    if args.json:
        text = json.dumps(result, indent=2, sort_keys=True)
    else:
        text = _top_frames_table(args, result)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 0 if result["conserved"] else 1


def _top_frames_table(args, result) -> str:
    """One row per window: op mix, RO/UO/MO, drift state, top phases."""
    rows = []
    for frame in result["frames"]:
        phases = sorted(
            frame["phases"].items(), key=lambda item: (-item[1], item[0])
        )[: max(args.phases, 0)]
        rows.append([
            frame["window"],
            f"{frame['start']:.0f}",
            frame["read_ops"],
            frame["update_ops"],
            f"{frame['ro']:.2f}",
            f"{frame['uo']:.2f}",
            f"{frame['mo']:.2f}",
            frame["drift"],
            " ".join(f"{path}:{nbytes}" for path, nbytes in phases),
        ])
    table = format_table(
        ["win", "start", "reads", "updates", "RO", "UO", "MO", "drift",
         "top phases (bytes)"],
        rows,
        title=(
            f"{args.method} under {args.workload!r}: "
            f"{len(result['frames'])} window(s) of width {args.window:g}"
        ),
    )
    profile = result["profile"]
    footer = (
        f"whole-run RO={profile['ro']:.2f} UO={profile['uo']:.2f} "
        f"MO={profile['mo']:.2f} simulated_time={profile['simulated_time']:.2f}"
    )
    transitions = "; ".join(
        f"window {item['window']}: {item['from']} -> {item['to']}"
        for item in result["drift_transitions"]
    ) or "none"
    status = (
        "conservation: window sums match the whole-run totals exactly"
        if result["conserved"]
        else (
            f"CONSERVATION VIOLATION: window sums {result['totals']} != "
            f"whole-run totals {result['run_totals']}"
        )
    )
    return (
        f"{table}\n{footer}\n"
        f"drift transitions: {transitions}\n"
        f"evicted windows: {result['evicted_windows']}\n{status}"
    )


def _serve_sync_policy(args):
    """Validate the group-commit flags into a :class:`SyncPolicy`."""
    from repro.serve import SyncPolicy

    if args.group_commit < 1:
        raise UsageError("--group-commit must be >= 1")
    if args.sync_deadline is not None and args.sync_deadline < 0:
        raise UsageError("--sync-deadline must be >= 0")
    return SyncPolicy(
        group_size=args.group_commit, deadline=args.sync_deadline
    )


def _serve_live_window(args) -> Optional[float]:
    """Validate ``--live-window`` (None = live metrics off)."""
    if args.live_window is not None and args.live_window <= 0:
        raise UsageError("--live-window must be > 0")
    return args.live_window


def _serve_capacities(text: str) -> List[int]:
    try:
        capacities = [int(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise UsageError(
            f"--hierarchy must be comma-separated level capacities "
            f"in blocks, got {text!r}"
        )
    if not capacities or any(capacity < 1 for capacity in capacities):
        raise UsageError(
            "--hierarchy needs at least one positive level capacity"
        )
    return capacities


def _serve_device(args, backing):
    """Mount ``backing`` behind the chained write-back stack when asked.

    The facade's kind-aware durability keeps the serving tier's crash
    contract intact: data pages are forced through on write, and only
    the WAL's blocks ride write-back until its sync forces them down.
    """
    if not args.hierarchy:
        return backing
    from repro.storage.hierarchy import (
        HierarchicalDevice,
        LevelSpec,
        MemoryHierarchy,
    )

    capacities = _serve_capacities(args.hierarchy)
    specs = [
        LevelSpec(
            name=f"L{index}",
            capacity_blocks=capacity,
            access_cost=0.01 * (100 ** index) / (100 ** (len(capacities) - 1)),
            write_policy="write-back",
            inclusion="inclusive",
        )
        for index, capacity in enumerate(capacities)
    ]
    return HierarchicalDevice(MemoryHierarchy(backing, specs))


def _command_serve(args) -> int:
    """Run the serving tier; optionally crash it and recover from the WAL.

    Without ``--crash-write-at`` this is a correctness walkthrough: the
    bench harness drives ``--clients`` concurrent sessions through OCC
    transactions and the run is checked against the oracle and the
    structure audit.  With it, the run crashes at the Nth device write
    (``--torn`` tears the WAL write it lands on), a fresh server
    recovers over the same device, and the recovered state is verified.
    """
    import random

    from repro.check import FaultPlan
    from repro.check.faults import DeviceFault, FaultyDevice
    from repro.serve import Server, ServerCrashed, run_bench
    from repro.storage.device import SimulatedDevice

    policy = _serve_sync_policy(args)
    if args.crash_write_at is None:
        device = _serve_device(
            args, SimulatedDevice(block_bytes=args.block_bytes)
        )
        method = _checked_method(args.method, device=device)
        report = run_bench(
            method,
            clients=args.clients,
            txns_per_client=args.txns,
            ops_per_txn=args.ops_per_txn,
            records=args.records,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
            sync_policy=policy,
            live_window=_serve_live_window(args),
        )
        _print_serve_report(args, report)
        return 0 if report.clean else 1

    # Crash + recovery demo.  Bulk-load cleanly, arm the fault plan,
    # serve until the injected crash, then recover and verify.  The
    # fault lives on the *backing* device: under --hierarchy it fires
    # only when traffic actually reaches durable storage through the
    # chain, which is exactly the pool-write/write-back gap the WAL's
    # sync_through contract must survive.
    kinds = ("wal",) if args.torn else ()
    plan = FaultPlan(
        fail_write_at=args.crash_write_at,
        torn_writes=args.torn,
        kinds=kinds,
        max_faults=1,
    )
    faulty = FaultyDevice(SimulatedDevice(block_bytes=args.block_bytes))
    method = _checked_method(
        args.method, device=_serve_device(args, faulty)
    )
    method.bulk_load([(key, key * 1000 + 1) for key in range(args.records)])
    if args.hierarchy:
        # Push the load's dirty frames down so the armed run starts
        # with the backing device authoritative.
        method.device.flush()
    faulty.arm(plan)
    server = Server(
        method, checkpoint_every=args.checkpoint_every, sync_policy=policy
    )
    session = server.connect()
    rng = random.Random(args.seed)
    acked = {}
    #: Parked (version, writes) not yet acked, in version order.
    parked: List = []
    inflight = {}
    crashed_at = None

    def fold_acked() -> None:
        while parked and parked[0][0].acked:
            acked.update(parked.pop(0)[1])

    for txn_index in range(args.txns * max(1, args.clients)):
        try:
            server.poll_group()  # the group-commit timer tick
            fold_acked()
            txn = session.begin()
            writes = {}
            for _ in range(args.ops_per_txn):
                key = rng.randrange(args.records)
                value = txn_index * 1_000 + key
                session.put(key, value)
                writes[key] = value
            inflight = writes
            session.commit()
            inflight = {}
            # Append first, fold after: when this commit triggered the
            # group sync its whole group acked at once, and the fold
            # must apply those write sets in version order (this
            # commit's version is the group's highest).
            parked.append((session.last_ticket, writes))
            fold_acked()
        except (DeviceFault, ServerCrashed) as error:
            crashed_at = (txn_index, error)
            break
    if crashed_at is None:
        # Drain any still-parked group; the forced sync can be the
        # very write the plan was waiting for.
        try:
            server.poll_group(force=True)
            fold_acked()
        except (DeviceFault, ServerCrashed) as error:
            crashed_at = (txn_index, error)
    if crashed_at is None:
        print(
            f"no crash: the write trigger (#{args.crash_write_at}) never "
            f"fired in {args.txns * max(1, args.clients)} transactions"
        )
        return 1
    txn_index, error = crashed_at
    # Commits the group sync acked before the crash landed are durable
    # promises even if the crash interrupted the apply that followed.
    fold_acked()
    print(f"crashed during transaction {txn_index}: {error}")
    faulty.disarm()
    if args.hierarchy:
        # The process (and every cache level with it) died; restart
        # mounts a fresh, cold hierarchy over the surviving backing.
        method.device = _serve_device(args, faulty)
    restarted = Server(
        method, checkpoint_every=args.checkpoint_every, sync_policy=policy
    )
    report = restarted.recover()
    print(
        f"recovered: scanned {report.records_scanned} WAL record(s)"
        f"{' (torn tail truncated)' if report.truncated else ''}, "
        f"replayed {report.transactions_replayed} committed txn(s) "
        f"after checkpoint v{report.checkpoint_version}, "
        f"resumed at version {report.resumed_version}, "
        f"freed {report.blocks_freed} log block(s)"
    )
    failures = method.audit()
    if failures:
        for failure in failures:
            print(f"audit violation: {failure}", file=sys.stderr)
        return 1
    # Atomicity + durability: every acked commit must survive, each
    # pending (parked or in-flight) transaction is all-or-nothing, and
    # the survivors form a version-order prefix — the WAL appends in
    # version order, so a torn sync can only keep a prefix durable.
    pending_writes = [writes for _, writes in parked]
    if inflight:
        pending_writes.append(inflight)
    keys = sorted(
        set(acked) | {key for writes in pending_writes for key in writes}
    )
    session = restarted.connect()
    session.begin()
    state = {key: session.get(key) for key in keys}
    session.abort()
    # Keys the crash left untouched keep their bulk-load values.
    base = {
        key: acked.get(key, key * 1000 + 1 if key < args.records else None)
        for key in keys
    }
    candidates = [dict(base)]
    for writes in pending_writes:
        nxt = dict(candidates[-1])
        nxt.update(writes)
        candidates.append(nxt)
    matched = next(
        (i for i, cand in enumerate(candidates) if state == cand), None
    )
    if matched is None:
        diff = {
            key: (state[key], [cand[key] for cand in candidates])
            for key in keys
            if all(state[key] != cand[key] for cand in candidates)
        }
        print(
            f"durability violation: recovered state matches neither the "
            f"acked history nor any version-order prefix of the "
            f"{len(pending_writes)} pending txn(s); diff "
            f"(actual, candidates): {diff}",
            file=sys.stderr,
        )
        return 1
    print(
        f"all {len(acked)} acknowledged key(s) survived "
        f"(plus {matched} of {len(pending_writes)} pending txn(s)); "
        f"audit clean"
    )
    return 0


def _print_serve_report(args, report) -> None:
    rows = [
        [
            stats.client_id,
            stats.committed,
            stats.conflicts,
            stats.abandoned,
            f"{stats.p50:.2f}",
            f"{stats.p99:.2f}",
        ]
        for stats in report.clients
    ]
    print(format_table(
        ["client", "commits", "conflicts", "abandoned", "p50", "p99"],
        rows,
        title=(
            f"{args.method}: {len(report.clients)} client(s) x "
            f"{args.txns} txn(s), seed {args.seed}"
        ),
    ))
    profile = report.profile
    print(
        f"RO={profile.read_overhead:.2f} UO={profile.update_overhead:.2f} "
        f"MO={profile.memory_overhead:.2f} "
        f"simulated_time={report.simulated_time:.2f}"
    )
    print(
        f"overall p50={report.overall_p50:.2f} p99={report.overall_p99:.2f}  "
        f"commits={report.total_commits} conflicts={report.total_conflicts}  "
        f"wal_syncs={report.wal_syncs} checkpoints={report.checkpoints}"
    )
    print(
        f"sync_policy={report.sync_policy}  "
        f"group_syncs={report.group_syncs}  "
        f"wal_blocks_written={report.wal_blocks_written}"
    )
    if report.live_frames is not None:
        print()
        print(_serve_live_table(args, report.live_frames))
    if not report.clean:
        if report.oracle_divergences:
            print(
                f"oracle divergences: {report.oracle_divergences} "
                f"record(s) differ from the commit-order oracle",
                file=sys.stderr,
            )
        for violation in report.audit_violations[:5]:
            print(f"audit violation: {violation}", file=sys.stderr)


def _serve_live_table(args, frames) -> str:
    """Per-window serving-tier metrics, one row per simulated-time window."""
    rows = []
    for frame in frames:
        counters = frame["counters"]
        latency = frame["histograms"].get("txn-latency", {})
        occupancy = frame["histograms"].get("group-occupancy", {})
        rows.append([
            frame["window"],
            counters.get("txn-begin", 0),
            counters.get("txn-commit", 0),
            counters.get("txn-abort", 0),
            counters.get("wal-sync", 0),
            counters.get("wal-bytes", 0),
            f"{latency.get('p50', 0.0):.2f}",
            f"{latency.get('p99', 0.0):.2f}",
            occupancy.get("max", 0),
        ])
    return format_table(
        ["win", "begins", "commits", "aborts", "syncs", "WAL B",
         "lat p50", "lat p99", "grp max"],
        rows,
        title=(
            f"live serving-tier windows (width {args.live_window:g} "
            f"simulated-time units)"
        ),
    )


def _command_bench_serve(args) -> int:
    from repro.serve import run_bench
    from repro.storage.device import SimulatedDevice
    from repro.workloads.distributions import distribution_names

    if args.distribution not in distribution_names():
        raise UsageError(
            f"unknown distribution {args.distribution!r}; "
            f"known: {', '.join(distribution_names())}"
        )
    policy = _serve_sync_policy(args)
    device = _serve_device(args, SimulatedDevice(
        block_bytes=args.block_bytes,
        cost_model=_COST_MODELS[args.device](),
        name=args.device,
    ))
    method = _checked_method(args.method, device=device)
    report = run_bench(
        method,
        clients=args.clients,
        txns_per_client=args.txns,
        ops_per_txn=args.ops_per_txn,
        records=args.records,
        seed=args.seed,
        distribution=args.distribution,
        checkpoint_every=args.checkpoint_every,
        sync_policy=policy,
        live_window=_serve_live_window(args),
    )
    _print_serve_report(args, report)
    return 0 if report.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand.

    Exit codes: 0 = clean, 1 = a check failed (audit violation, oracle
    divergence, lost durability), 2 = usage error (argparse rejections
    and post-parse validation alike).
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse exits; keep the contract: 2
        code = exit_.code
        if code in (None, 0):
            return 0
        return code if isinstance(code, int) else 2
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "profile":
            return _command_profile(args)
        if args.command == "triangle":
            return _command_triangle(args)
        if args.command == "wizard":
            return _command_wizard(args)
        if args.command == "reproduce":
            return _command_reproduce(args)
        if args.command == "record":
            return _command_record(args)
        if args.command == "replay":
            return _command_replay(args)
        if args.command == "trace":
            return _command_trace(args)
        if args.command == "stats":
            return _command_stats(args)
        if args.command == "explain":
            return _command_explain(args)
        if args.command == "flame":
            return _command_flame(args)
        if args.command == "audit":
            return _command_audit(args)
        if args.command == "hierarchy":
            return _command_hierarchy(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "top":
            return _command_top(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "bench-serve":
            return _command_bench_serve(args)
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # output piped into head & friends
        import os

        # Detach stdout so the interpreter's exit flush cannot raise again.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
