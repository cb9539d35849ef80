"""The two ``serve-*`` workloads: ``repro.serve.bench.run_bench`` end to end.

Eight logical clients on the bench's deterministic scheduler (a closed
loop: a client issues its next step when the previous one returned)
drive OCC transactions through one ``Server``.  The two workloads load
opposite halves of the tier: one has rows far above clients and group
commit, so validation never fires and the log is synced once per four
commits; the other puts a 128-row hot table behind a two-level
hierarchy with a sync per commit, so validation, retries and the
hierarchy hop do the work.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.check.faults import DeviceFault, FaultPlan, FaultyDevice
from repro.core.registry import create_method
from repro.serve import ABSENT, Server, ServerCrashed, SyncPolicy, run_bench
from repro.storage.device import CostModel, SimulatedDevice

from benchmarks.perf.harness import (
    BLOCK_BYTES,
    Report,
    mount,
    now,
    peak_rss_mib,
    repeat_for,
    scaled,
)
from benchmarks.perf.lib_bench import device_loops, hierarchy_counts, simulated
from benchmarks.perf.tracing import SpanRecorder, TimedServer, build_method

METHOD = "btree"
CLIENTS = 8
OPS_PER_TXN = 4

#: Transactions the end-of-run crash check scripts, and how many writes each.
CRASH_TXNS = 96
CRASH_WRITES_PER_TXN = 3


@dataclass(frozen=True)
class ServeWorkload:
    records: int
    distribution: str
    #: Commits per modelled fsync; 1 is the default per-commit policy.
    group_size: int
    txns_per_client: int
    levels: Tuple[int, ...] = ()

    @property
    def sync_policy(self) -> Optional[SyncPolicy]:
        return SyncPolicy.every_n(self.group_size) if self.group_size > 1 else None


#: ``txns_per_client`` is scaled so one ``run_bench`` call takes 0.5-0.7 s
#: here; both leave p99 well over ten samples beyond it.  The hot table is
#: uniform, not zipfian: a zipfian head starves the few transactions that
#: read it past ``MAX_RETRIES`` (2 of 3 200 on some seeds), and a
#: benchmark workload must be one on which no operation fails; 128 uniform
#: rows gave 0.17 conflicts per commit and no abandon in 100 seeds.
WORKLOADS: Dict[str, ServeWorkload] = {
    "serve-raw-group4": ServeWorkload(
        records=65_536, distribution="uniform", group_size=4,
        txns_per_client=500,
    ),
    "serve-hier-percommit-hot": ServeWorkload(
        records=128, distribution="uniform", group_size=1,
        txns_per_client=400, levels=(64, 512),
    ),
}


def bench(workload: ServeWorkload, seed: int, smoke: bool, method, server=None):
    """One timed ``run_bench`` call; returns ``(wall_s, BenchReport)``."""
    start = now()
    outcome = run_bench(
        method,
        clients=CLIENTS,
        txns_per_client=scaled(workload.txns_per_client, smoke),
        ops_per_txn=OPS_PER_TXN,
        records=workload.records,
        seed=seed,
        distribution=workload.distribution,
        server=server,
        sync_policy=workload.sync_policy,
    )
    return now() - start, outcome


def repetition(workload: ServeWorkload, seed: int, smoke: bool):
    """Set-up then the bench; returns ``(setup_s, wall_s, BenchReport)``.

    ``run_bench`` bulk-loads internally, so set-up is construction plus
    the same load into a scratch instance that is then dropped.
    """
    start = now()
    method = build_method(METHOD, workload.levels)
    build_method(METHOD, workload.levels).bulk_load(
        [(key, key * 1_000 + 1) for key in range(workload.records)]
    )
    setup = now() - start
    wall, outcome = bench(workload, seed, smoke, method)
    return setup, wall, outcome


def fingerprint(outcome) -> tuple:
    """What must repeat bit-for-bit between runs of one seed."""
    return (
        outcome.profile, outcome.simulated_time, outcome.total_commits,
        outcome.total_conflicts, outcome.wal_syncs, outcome.wal_blocks_written,
    )


def abandoned(outcome) -> int:
    return sum(client.abandoned for client in outcome.clients)


def run_end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> Report:
    workload = WORKLOADS[name]
    report = Report(
        attempted=CLIENTS * scaled(workload.txns_per_client, smoke)
    )
    _, _, reference = repetition(workload, seed, smoke)  # warm-up, discarded
    report.failed = abandoned(reference)
    if not reference.clean:
        report.fail_all(
            f"{reference.oracle_divergences} oracle divergences, "
            f"audit {reference.audit_violations}"
        )
    for problem in crash_check(workload, seed):
        report.fail_all(problem)
    simulated(report, reference.profile, reference.simulated_time)

    def timed() -> None:
        setup, wall, outcome = repetition(workload, seed, smoke)
        if fingerprint(outcome) != fingerprint(reference):
            report.fail_all("a repetition's simulated statistics differ")
        report.add("setup_s", setup)
        report.add("ops_per_s", outcome.total_commits * OPS_PER_TXN / wall)

    repeat_for(seconds, timed)
    report.add("peak_rss_mib", peak_rss_mib())
    return report


# ----------------------------------------------------------------------
# End-of-run crash: acked transactions survive, none is partly applied.
# ----------------------------------------------------------------------
def crash_check(workload: ServeWorkload, seed: int) -> List[str]:
    """Crash the workload's mount and policy at one seeded backing write,
    recover on a fresh server, and return what went wrong ([] = nothing).

    A scripted single-session run of write transactions first runs clean
    to count the backing device's writes; the crash index is drawn from
    the seed within that count.  After recovery the state must equal the
    acked history plus some version-order prefix of the transactions that
    were logged but never acknowledged — anything else means an acked
    transaction was lost or one was partly applied.
    """
    rng = random.Random(seed)
    keys = 256
    preload = [(key, key * 10) for key in range(0, keys, 2)]
    script = []
    for index in range(CRASH_TXNS):
        writes = {}
        for _ in range(CRASH_WRITES_PER_TXN):
            key = rng.randrange(keys)
            writes[key] = ABSENT if rng.random() < 0.2 else index * 1_000 + key
        script.append(writes)

    def run(fail_write_at: Optional[int]):
        faulty = FaultyDevice(
            SimulatedDevice(block_bytes=BLOCK_BYTES, cost_model=CostModel.flash())
        )
        device = mount(faulty, workload.levels)
        method = create_method(METHOD, device=device)
        method.bulk_load(list(preload))
        if workload.levels:
            device.flush()
        loaded_writes = faulty.counters.writes
        if fail_write_at is not None:
            faulty.arm(FaultPlan(fail_write_at=fail_write_at, max_faults=1))
        server = Server(method, sync_policy=workload.sync_policy)
        session = server.connect()
        submitted, in_flight = [], None
        try:
            for writes in script:
                in_flight = writes
                session.begin()
                for key, value in writes.items():
                    if value is ABSENT:
                        session.delete(key)
                    else:
                        session.put(key, value)
                session.commit()
                submitted.append((session.last_ticket, writes))
                in_flight = None
            server.poll_group(force=True)
        except (DeviceFault, ServerCrashed):
            pass
        acked = [writes for ticket, writes in submitted if ticket.acked]
        pending = [writes for ticket, writes in submitted if not ticket.acked]
        if in_flight is not None:
            pending.append(in_flight)
        return method, faulty, acked, pending, loaded_writes

    _, faulty, acked, pending, loaded_writes = run(None)
    if len(acked) != len(script) or pending:
        return ["crash check: the fault-free scripted run did not ack everything"]
    clean_writes = faulty.counters.writes - loaded_writes
    method, faulty, acked, pending, _ = run(rng.randint(1, clean_writes))
    if faulty.faults_injected != 1:
        return ["crash check: the seeded fault never fired"]
    faulty.disarm()
    Server(method, sync_policy=workload.sync_policy).recover()

    problems = [f"crash check audit: {v}" for v in method.audit()]
    state = dict(preload)
    for writes in acked:
        apply_writes(state, writes)
    recovered = dict(method.range_query(0, keys + 1))
    admissible = [dict(state)]
    for writes in pending:
        apply_writes(state, writes)
        admissible.append(dict(state))
    if recovered not in admissible:
        problems.append(
            "crash check: the recovered state loses an acked transaction "
            "or holds a partly applied one"
        )
    return problems


def apply_writes(state: Dict[int, int], writes: Dict[int, object]) -> None:
    for key, value in writes.items():
        if value is ABSENT:
            state.pop(key, None)
        else:
            state[key] = value


# ----------------------------------------------------------------------
# The traced run.
# ----------------------------------------------------------------------
#: Spans a session-facing step of the scheduler lands in.
STEP_SPANS = ("begin", "read", "range_read", "commit", "poll_group")

#: Spans under which a method call is the write phase, not the read phase.
APPLY_PARENTS = ("serve.server.commit", "serve.server.poll_group")
APPLY_CALLS = ("methods.get", "methods.insert", "methods.update", "methods.delete")


def run_traced(name: str, seed: int, seconds: float, smoke: bool) -> Report:
    workload = WORKLOADS[name]
    transactions = CLIENTS * scaled(workload.txns_per_client, smoke)
    report = Report(attempted=transactions)

    _, untraced_wall, reference = repetition(workload, seed, smoke)
    recorder = SpanRecorder()
    method = build_method(METHOD, workload.levels, recorder)
    server = TimedServer(method, recorder, sync_policy=workload.sync_policy)
    traced_wall, outcome = recorder.call(
        "serve.bench.run_bench", bench, workload, seed, smoke, method, server
    )
    if fingerprint(outcome) != fingerprint(reference) or not outcome.clean:
        report.fail_all("the traced run differs from the untraced one")
    report.failed = max(report.failed, abandoned(outcome))

    shape = recorder.aggregate()

    def row(span_name: str) -> Dict[str, float]:
        return shape.get(span_name, {"calls": 0, "total_us": 0.0, "self_us": 0.0})

    def mean_us(span_name: str) -> float:
        calls = row(span_name)["calls"]
        return row(span_name)["total_us"] / calls if calls else 0.0

    for step in STEP_SPANS:
        report.add(f"serve.server.{step}_us", mean_us(f"serve.server.{step}"))
    commit = row("serve.server.commit")
    report.add(
        "serve.server.commit_self_us",
        commit["self_us"] / commit["calls"] if commit["calls"] else 0.0,
    )
    for span_name in (
        "serve.versions.conflict", "serve.versions.read_at",
        "serve.wal.append", "serve.wal.sync", "serve.wal.checkpoint",
    ):
        report.add(f"{span_name}_us", mean_us(span_name))
    commits = outcome.total_commits
    apply_us = recorder.total_under(APPLY_CALLS, APPLY_PARENTS)
    report.add("serve.apply_us_per_commit", apply_us / commits)
    begins = row("serve.server.begin")["calls"]
    steps = begins * (2 + OPS_PER_TXN) + row("serve.server.poll_group")["calls"]
    report.add(
        "serve.bench.scheduler_us_per_step",
        row("serve.bench.run_bench")["self_us"] / steps,
    )

    attempts = commit["calls"]
    report.add("serve.commits", commits)
    report.add("serve.conflicts", outcome.total_conflicts)
    report.add("serve.abandoned", abandoned(outcome))
    report.add("serve.commit_success_ratio", commits / attempts)
    report.add("serve.wal.blocks_written", outcome.wal_blocks_written)
    report.add("serve.wal.syncs", outcome.wal_syncs)
    # Write commits per modelled fsync (read-only commits never sync).
    report.add("serve.group_occupancy_mean", server.commits / outcome.group_syncs)
    report.add("serve.checkpoints", outcome.checkpoints)
    report.add("serve.sim_commit_p50", outcome.overall_p50)
    report.add("serve.sim_commit_p99", outcome.overall_p99)

    counters = method.device.counters
    block_ops = counters.reads + counters.writes
    report.add("storage.device.block_reads", counters.reads)
    report.add("storage.device.block_writes", counters.writes)
    report.add("methods.block_ops_per_op", block_ops / (commits * OPS_PER_TXN))
    hierarchy_counts(report, method.device)
    report.add(
        "storage.hierarchy.sync_through_calls",
        row("storage.hierarchy.sync_through")["calls"],
    )
    start = now()
    method.audit()
    report.add("check.audit_ms", (now() - start) * 1e3)
    device_loops(report)

    # The hop's price: the same bench on the raw mount, per block operation.
    walls = {"mounted": [untraced_wall], "raw": []}

    def one_round() -> None:
        if workload.levels:
            walls["raw"].append(
                bench(workload, seed, smoke, build_method(METHOD, ()))[0]
            )
        walls["mounted"].append(repetition(workload, seed, smoke)[1])

    repeat_for(seconds / 2, one_round)
    mounted = statistics.median(walls["mounted"])
    hop = mounted - statistics.median(walls["raw"]) if workload.levels else 0.0
    report.add("storage.hierarchy.hop_us_per_block_op", hop * 1e6 / block_ops)
    report.add("ledger.end_to_end_us", mounted * 1e6 / transactions)
    report.add("trace.overhead_ratio", traced_wall / mounted)

    lines = [
        f"where the µs go (traced, {traced_wall * 1e6 / transactions:.1f} µs "
        f"per transaction; untraced {mounted * 1e6 / transactions:.1f})",
        f"  {'span':<34}{'self µs/txn':>12}{'share':>8}{'calls/txn':>11}",
    ]
    total_self = sum(entry["self_us"] for entry in shape.values())
    for span_name, entry in sorted(
        shape.items(), key=lambda item: -item[1]["self_us"]
    ):
        lines.append(
            f"  {span_name:<34}{entry['self_us'] / transactions:>12.2f}"
            f"{entry['self_us'] / total_self:>8.1%}"
            f"{entry['calls'] / transactions:>11.2f}"
        )
    report.notes.extend(lines)
    report.notes.append("trace: " + recorder.write(name, seed))
    return report
