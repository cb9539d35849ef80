"""Drive a workload against an access method and collect results.

This is the measurement harness used by the Figure-1 / Figure-3 /
conjecture benchmarks: bulk-load the initial dataset, stream the
operations, and report the measured RUM profile together with bulk-load
cost and raw I/O totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.interfaces import AccessMethod
from repro.core.rum import (
    RUMAccumulator,
    RUMProfile,
    measure_workload,
    measure_workload_batched,
)
from repro.obs.metrics import WorkloadMetrics
from repro.obs.spans import span, spans_active
from repro.storage.device import IOStats
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.obs.live import WindowedRUM

#: Operations handed to the measurement loop per batch when the caller
#: does not choose.  A multiple of the space-sampling cadence (16), big
#: enough to amortize per-batch bookkeeping, small enough that batches
#: of materialized operations stay cache-friendly.
DEFAULT_BATCH_SIZE = 256


@dataclass(frozen=True)
class WorkloadResult:
    """Everything measured from one (method, spec) pairing."""

    method_name: str
    spec: WorkloadSpec
    profile: RUMProfile
    bulk_load_io: IOStats
    final_records: int
    final_space_bytes: int
    #: Operations the measurement loop actually accounted.  Equal to
    #: ``spec.operations`` for generator-produced streams; fewer only
    #: when the tolerant per-op loop skipped invalid operations.
    operations_executed: int = 0

    def __str__(self) -> str:
        return (
            f"{self.method_name}: {self.profile} over {self.spec.operations} ops "
            f"({self.final_records} records, {self.final_space_bytes} bytes)"
        )


def run_workload(
    method: AccessMethod,
    spec: WorkloadSpec,
    generator: Optional[WorkloadGenerator] = None,
    metrics: Optional[WorkloadMetrics] = None,
    accumulator: Optional[RUMAccumulator] = None,
    batch_size: Optional[int] = None,
    live: Optional["WindowedRUM"] = None,
) -> WorkloadResult:
    """Bulk-load ``method`` and run the spec's operation stream against it.

    A pre-built ``generator`` can be supplied to replay an identical
    stream against several methods (as the Figure-1 bench does); it must
    not have been consumed yet.  A caller-owned ``metrics`` object, when
    supplied, accumulates per-op-type histograms (blocks touched and
    simulated time per point query / insert / range scan / ...) over the
    measured phase — the bulk load is excluded, as in the profile.  A
    caller-owned (fresh) ``accumulator`` exposes the integer byte counts
    behind the final ratios (see :func:`~repro.core.rum.measure_workload`).

    ``batch_size`` only chooses the entry point into the one measurement
    loop: above 1 (default :data:`DEFAULT_BATCH_SIZE`) operations stream
    through :func:`~repro.core.rum.measure_workload_batched`, which
    brackets runs of same-category operations with one counter snapshot
    pair; ``1`` (or ``0``) streams them through
    :func:`~repro.core.rum.measure_workload`, one operation per window.
    The profile is byte-identical either way.  Instrumented runs
    (metrics, live, spans) run one operation per window, whatever the
    batch size.

    When span collection is active the bulk load runs inside an
    ``op.bulk_load`` span, so load-phase I/O and allocations are
    attributed separately from the measured operations.

    A :class:`~repro.obs.live.WindowedRUM` passed as ``live`` streams
    per-window RO/UO/MO while the workload runs (see
    :mod:`repro.obs.live`); like metrics, it caps counter windows at one
    operation so every operation's completion time is observable.
    """
    if generator is not None and generator.consumed:
        raise ValueError(
            "the supplied WorkloadGenerator has already produced its "
            "operation stream; streams mutate generator state, so build "
            "a fresh WorkloadGenerator(spec) for each run"
        )
    generator = generator or WorkloadGenerator(spec)
    data = generator.initial_data()

    before_load = method.device.snapshot()
    if spans_active():
        with span("op.bulk_load"):
            method.bulk_load(data)
            method.flush()
    else:
        method.bulk_load(data)
        method.flush()
    bulk_load_io = method.device.stats_since(before_load)

    if accumulator is None:
        accumulator = RUMAccumulator()
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    if batch_size > 1:
        profile = measure_workload_batched(
            method,
            generator.operation_batches(batch_size),
            metrics=metrics,
            accumulator=accumulator,
            live=live,
        )
    else:
        profile = measure_workload(
            method,
            generator.operations(),
            metrics=metrics,
            accumulator=accumulator,
            live=live,
        )
    stats = method.stats()
    return WorkloadResult(
        method_name=method.name,
        spec=spec,
        profile=profile,
        bulk_load_io=bulk_load_io,
        final_records=stats.records,
        final_space_bytes=stats.space_bytes,
        operations_executed=accumulator.read_ops + accumulator.update_ops,
    )
