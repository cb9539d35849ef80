"""The sweep engine: run a grid of cells, serially or in parallel.

:class:`SweepEngine` executes :class:`~repro.exec.cells.SweepCell` grids
with three guarantees:

**Determinism.**  Results are collected in cell order, and both
execution paths run the *same* per-cell core
(:func:`_execute_one`), so ``jobs=4`` output is byte-identical to
``jobs=1`` output.  Before a cell runs, the worker seeds the *global*
``random`` module from a hash of the cell itself — any stray global-RNG
use inside a method costs determinism neither across processes (fresh
interpreter state) nor across grid orders (the seed depends only on the
cell) — and the caller's RNG state is saved and restored around the
cell, so an in-process run cannot clobber it.

**Caching.**  With a :class:`~repro.exec.cache.ResultCache` attached,
each cell's envelope is stored under its content hash; a warm rerun of
an unchanged grid executes zero workloads.  Executed cells write their
own envelope into the store *from the worker process* (the store's
atomic-write path makes concurrent same-key writes safe) and ship back
only the key, so large traced envelopes never cross the IPC queue.  A
cached envelope without trace events does not satisfy a tracing run —
the cell re-executes and the traced envelope replaces the entry.

**Tracing.**  With ``collect_events=True``, each worker records its
cell's device events into an in-memory sink and ships them back inside
the envelope; the parent merges them in cell order with a continuous
sequence numbering, equivalent to a serial traced run.

Scheduling
----------
The engine owns a **persistent worker pool**: it spawns lazily on the
first parallel ``run()`` and is reused across calls, so pool startup
and per-process imports are paid once per sweep *session*, not once per
grid (``with SweepEngine(jobs=4) as engine: ...`` scopes the pool;
:meth:`SweepEngine.close` releases it explicitly).

Pending cells are dispatched **longest-first** under a cost model:
an ``ops x records`` static heuristic
(:func:`estimate_cell_units`), refined by wall times observed earlier
in the session (per ``(method, runner)`` rates) and by exact per-cell
wall times persisted alongside cache entries.  Cells are grouped into
cost-balanced chunks (expensive cells travel alone, cheap cells share a
chunk) so a handful of slow cells cannot serialize behind each other at
the tail of the grid.  Results still come back in cell order — the
dispatch order is observable only through
:attr:`SweepOutcome.dispatch_order` (and ``repro sweep --profile``).

When neither a cache nor tracing needs the canonical JSON form, results
skip it entirely: the worker ships the decoded result object itself and
the parent's encode/decode round trip disappears (custom runners must
return JSON-pure dicts for this to be indistinguishable, which the
runner contract already requires).
"""

from __future__ import annotations

import importlib
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.registry import create_method
from repro.exec.cache import ResultCache
from repro.exec.cells import SweepCell
from repro.exec.serialize import (
    cell_seed,
    decode_cell,
    decode_envelope,
    encode_cell,
    encode_envelope,
)
from repro.obs.sinks import ListSink
from repro.obs.spans import span_collection
from repro.obs.tracer import RecordingTracer, TraceEvent, Tracer
from repro.storage.device import SimulatedDevice
from repro.workloads.runner import WorkloadResult, run_workload

#: Salt for per-cell seeds.  Fixed, so seeds (and therefore results)
#: are stable across library versions unless a cell itself changes.
_SEED_SALT = "repro.exec"

CellResult = Union[WorkloadResult, Dict[str, Any]]

#: Per-process memo of resolved runner references: worker processes
#: resolve each ``"module:function"`` once, not once per cell.
_RUNNER_CACHE: Dict[str, Callable[..., CellResult]] = {}

#: Per-process memo of worker-side cache handles, keyed by
#: ``(root, salt)``.  Workers of one engine share one store; the
#: handles themselves are tiny (a path and two counters).
_WORKER_CACHE_HANDLES: Dict[Tuple[str, str], ResultCache] = {}


def resolve_runner(reference: str) -> Callable[..., CellResult]:
    """Resolve a ``"module:function"`` runner reference (memoized).

    Resolution happens inside the executing process, so custom runners
    (e.g. ``benchmarks.harness:run_table1_cell``) only need to be
    importable, not picklable.  Each process resolves a reference once
    and reuses the callable for every subsequent cell.
    """
    runner = _RUNNER_CACHE.get(reference)
    if runner is not None:
        return runner
    module_name, sep, function_name = reference.partition(":")
    if not sep or not module_name or not function_name:
        raise ValueError(
            f"runner reference {reference!r} is not of the form 'module:function'"
        )
    module = importlib.import_module(module_name)
    try:
        runner = getattr(module, function_name)
    except AttributeError:
        raise AttributeError(
            f"module {module_name!r} has no runner {function_name!r}"
        ) from None
    _RUNNER_CACHE[reference] = runner
    return runner


def worker_cache(spec: Optional[Tuple[str, str]]) -> Optional[ResultCache]:
    """The executing process's handle on the cache named by ``spec``.

    ``spec`` is :meth:`ResultCache.spec` — ``(root, salt)`` — or
    ``None`` for no cache.  Handles are memoized per process.
    """
    if spec is None:
        return None
    handle = _WORKER_CACHE_HANDLES.get(spec)
    if handle is None:
        root, salt = spec
        handle = ResultCache(root=root, salt=salt)
        _WORKER_CACHE_HANDLES[spec] = handle
    return handle


def run_workload_cell(
    cell: SweepCell, tracer: Optional[Tracer] = None
) -> WorkloadResult:
    """The standard runner: build the method, run the cell's workload.

    Builds a fresh device from the cell's configuration (attaching
    ``tracer`` when given), constructs the method through the registry
    with the cell's overrides, and measures the spec end to end.
    """
    device = SimulatedDevice(
        block_bytes=cell.block_bytes,
        cost_model=cell.cost_model,
        name=cell.display_label,
    )
    if tracer is not None:
        device.set_tracer(tracer)
    method = create_method(cell.method, device=device, **cell.override_kwargs())
    return run_workload(method, cell.spec)


def _run_cell(
    cell_payload: str, collect_events: bool
) -> Tuple[CellResult, Optional[list]]:
    """Execute one encoded cell; returns ``(result, events-or-None)``.

    The single execution core both paths share.  The caller's global
    RNG state is saved and restored around the cell, so in-process
    execution cannot clobber it — and inside the bracket the RNG is
    seeded from the cell alone, so results depend on neither grid order
    nor process placement.
    """
    cell = decode_cell(cell_payload)
    runner = resolve_runner(cell.runner)
    rng_state = random.getstate()
    try:
        random.seed(cell_seed(cell_payload, _SEED_SALT))
        if collect_events:
            # Traced runs also collect spans: every event is stamped
            # with the phase path active when it was emitted, so a
            # SpanProfile built from the merged event stream is
            # identical for serial, parallel and cache-replayed
            # executions.
            sink = ListSink()
            tracer: Optional[Tracer] = RecordingTracer(sink)
            with span_collection():
                result = runner(cell, tracer)
            return result, sink.events
        return runner(cell, None), None
    finally:
        random.setstate(rng_state)


def _decode_hit(cache: ResultCache, envelope: str) -> Optional[Dict[str, Any]]:
    """Decode a cache hit, or recount it as a miss if it does not decode.

    Truncated or garbled bytes on disk are no usable entry: the cell
    re-executes and its ``put`` rewrites the entry atomically.
    """
    try:
        return decode_envelope(envelope)
    except (ValueError, KeyError, TypeError):
        cache.hits -= 1
        cache.misses += 1
        return None


#: A unit of dispatch: the encoded cell, the tracing flag, and the
#: cache identity (``None`` for no cache).
Task = Tuple[str, bool, Optional[Tuple[str, str]]]

#: Outcome tags: what crossed the IPC queue back to the parent.
_SHIPPED_KEY = "key"  # envelope written to the cache; value is the key
_SHIPPED_ENVELOPE = "envelope"  # canonical envelope string
_SHIPPED_RESULT = "result"  # the decoded result object itself


def _execute_one(
    task: Task, cache: Optional[ResultCache] = None
) -> Tuple[str, Any, float]:
    """Execute one task; returns ``(tag, value, wall_seconds)``.

    With a cache attached the worker writes the envelope (and its
    metadata sidecar) into the content-addressed store itself — the
    store's atomic temp-file+rename writes make concurrent same-key
    writers safe, and deterministic cells produce identical bytes
    anyway — and ships back only the key.  Tracing without a cache
    ships the envelope (the events must reach the parent).  Otherwise
    the result object travels as-is: no canonical form is needed, so
    none is built.
    """
    payload, collect_events, cache_spec = task
    if cache is None:
        cache = worker_cache(cache_spec)
    started = time.perf_counter()
    result, events = _run_cell(payload, collect_events)
    wall = time.perf_counter() - started
    if cache is not None:
        envelope = encode_envelope(result, events)
        key = cache.key_for(payload)
        cache.put(
            key,
            envelope,
            meta={"traced": events is not None, "wall_seconds": wall},
        )
        return (_SHIPPED_KEY, key, wall)
    if collect_events:
        return (_SHIPPED_ENVELOPE, encode_envelope(result, events), wall)
    return (_SHIPPED_RESULT, result, wall)


def _execute_chunk(tasks: List[Task]) -> List[Tuple[str, Any, float]]:
    """Worker entry point: execute a chunk of tasks back to back."""
    return [_execute_one(task) for task in tasks]


def _worker_init() -> None:
    """Pool initializer: pre-import the execution stack.

    Under the ``fork`` start method children inherit the parent's
    modules and this is nearly free; under ``spawn`` it front-loads the
    import cost into pool startup — paid once per worker per session —
    instead of into the first cell each worker touches.
    """
    import repro.core.registry  # noqa: F401
    import repro.exec.engine  # noqa: F401
    import repro.workloads.runner  # noqa: F401


def estimate_cell_units(cell: SweepCell) -> float:
    """Static cost heuristic for one cell, in abstract *units*.

    A cell's wall time is roughly a bulk load of ``initial_records``
    plus ``operations`` probes, each touching ``O(log N)`` blocks —
    ``records + ops x log2(records)`` orders grids well without having
    run anything.  Observed wall times refine the scale per
    ``(method, runner)``; the heuristic only has to rank.
    """
    spec = cell.spec
    records = max(1, int(spec.initial_records))
    operations = max(1, int(spec.operations))
    return records + operations * math.log2(records + 2)


def _build_chunks(
    order: List[int], predicted: Dict[int, float], workers: int
) -> List[List[int]]:
    """Group cost-ordered cell indices into cost-balanced chunks.

    Aims for several chunks per worker so the pool can rebalance; a
    chunk closes when it holds its share of the predicted total (an
    expensive cell fills a chunk alone) or its share of the count
    (cheap cells amortize IPC without monopolizing a worker).  Replaces
    the old hardcoded ``min(4, ...)`` chunksize.
    """
    if not order:
        return []
    target_chunks = max(1, workers * 4)
    cost_budget = sum(predicted[index] for index in order) / target_chunks
    max_len = max(1, math.ceil(len(order) / target_chunks))
    chunks: List[List[int]] = []
    current: List[int] = []
    current_cost = 0.0
    for index in order:
        current.append(index)
        current_cost += predicted[index]
        if current_cost >= cost_budget or len(current) >= max_len:
            chunks.append(current)
            current = []
            current_cost = 0.0
    if current:
        chunks.append(current)
    return chunks


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in cell order."""

    cells: List[SweepCell]
    results: List[CellResult]
    executed_cells: int
    cached_cells: int
    events: Optional[List[TraceEvent]] = None
    #: Per-cell wall seconds for executed cells (``None`` where cached).
    cell_seconds: List[Optional[float]] = field(default_factory=list)
    #: Scheduler's per-cell cost predictions (seconds), cell order.
    predicted_seconds: List[float] = field(default_factory=list)
    #: Executed cell indices in the order they were handed out
    #: (longest-predicted first).
    dispatch_order: List[int] = field(default_factory=list)


#: Fallback seconds-per-unit before any cell has been observed.  Only
#: the *ordering* matters until a real rate is learned; the magnitude
#: just keeps predictions in a plausible range for display.
_DEFAULT_RATE = 2e-6

#: EMA weight of the newest observation when refining a rate.
_RATE_ALPHA = 0.4


class SweepEngine:
    """Executes cell grids with optional parallelism and caching.

    The engine owns its worker pool: the pool spawns lazily on the
    first parallel :meth:`run` and persists across calls until
    :meth:`close` (or the end of a ``with`` block), so a session of
    many grids pays pool startup once.  Observed cell wall times also
    persist across calls and sharpen the scheduler's cost model.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` runs in-process (no pool); the
        results are identical either way.
    cache:
        A :class:`~repro.exec.cache.ResultCache`, or ``None`` to always
        execute.  Workers write envelopes into the store themselves and
        ship back keys.
    collect_events:
        Record each cell's trace events and merge them (renumbered, in
        cell order) into :attr:`SweepOutcome.events`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        collect_events: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = cache
        self.collect_events = collect_events
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Observed seconds-per-unit, per (method, runner) and overall.
        self._rates: Dict[Tuple[str, str], float] = {}
        self._global_rate: Optional[float] = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        The engine remains usable — the next parallel :meth:`run`
        simply spawns a fresh pool.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init
            )
        return self._pool

    def warm(self) -> None:
        """Spawn every worker now instead of on first use.

        Useful before timing a grid: pool startup then happens outside
        the measured window, matching the persistent-pool usage pattern
        where spawn cost amortizes over a session.
        """
        if self.jobs <= 1:
            return
        pool = self._ensure_pool()
        # Each task lingers briefly so no worker reports idle while the
        # submits are still landing — the executor then spawns its full
        # complement instead of reusing the first worker for everything.
        for future in [
            pool.submit(time.sleep, 0.05) for _ in range(self.jobs)
        ]:
            future.result()

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def _predict_seconds(self, cell: SweepCell, key: Optional[str]) -> float:
        """Predicted wall seconds for a pending cell.

        Exact wall time persisted alongside a cache entry wins (the
        traced-rerun case: the entry cannot satisfy this run, but the
        cell was executed before under this very key).  Otherwise the
        static unit estimate is scaled by the best observed rate —
        per ``(method, runner)`` first, the session-wide rate second, a
        fixed default last.
        """
        if self.cache is not None and key is not None:
            observed = self.cache.wall_seconds(key)
            if observed is not None and observed > 0:
                return observed
        units = estimate_cell_units(cell)
        rate = self._rates.get((cell.method, cell.runner))
        if rate is None:
            rate = self._global_rate
        if rate is None:
            rate = _DEFAULT_RATE
        return units * rate

    def _observe(self, cell: SweepCell, wall: float) -> None:
        """Fold an executed cell's wall time into the observed rates."""
        units = estimate_cell_units(cell)
        if units <= 0 or wall <= 0:
            return
        rate = wall / units
        signature = (cell.method, cell.runner)
        previous = self._rates.get(signature)
        self._rates[signature] = (
            rate
            if previous is None
            else previous + _RATE_ALPHA * (rate - previous)
        )
        self._global_rate = (
            rate
            if self._global_rate is None
            else self._global_rate + _RATE_ALPHA * (rate - self._global_rate)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, cells: Sequence[SweepCell]) -> SweepOutcome:
        """Execute every cell; results come back in cell order."""
        cells = list(cells)
        count = len(cells)
        payloads = [encode_cell(cell) for cell in cells]
        decoded: List[Optional[Dict[str, Any]]] = [None] * count
        cell_seconds: List[Optional[float]] = [None] * count

        keys: List[Optional[str]] = [None] * count
        if self.cache is not None:
            for index, payload in enumerate(payloads):
                key = self.cache.key_for(payload)
                keys[index] = key
                envelope = self.cache.lookup(
                    key, require_traced=self.collect_events
                )
                if envelope is not None:
                    decoded[index] = _decode_hit(self.cache, envelope)

        pending = [
            index
            for index in range(count)
            if decoded[index] is None
        ]
        predicted = {
            index: self._predict_seconds(cells[index], keys[index])
            for index in pending
        }
        # Longest-first dispatch: the most expensive cells start first,
        # so the tail of the grid drains cheap cells, not slow ones.
        dispatch_order = sorted(
            pending, key=lambda index: (-predicted[index], index)
        )
        cache_spec = None if self.cache is None else self.cache.spec()
        tasks: Dict[int, Task] = {
            index: (payloads[index], self.collect_events, cache_spec)
            for index in pending
        }
        shipped: Dict[int, Tuple[str, Any, float]] = {}
        if self.jobs > 1 and len(pending) > 1:
            workers = min(self.jobs, len(pending))
            pool = self._ensure_pool()
            chunks = _build_chunks(dispatch_order, predicted, workers)
            futures = {
                pool.submit(
                    _execute_chunk, [tasks[index] for index in chunk]
                ): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                for index, outcome in zip(futures[future], future.result()):
                    shipped[index] = outcome
        else:
            for index in dispatch_order:
                shipped[index] = _execute_one(tasks[index], cache=self.cache)

        for index in pending:
            tag, value, wall = shipped[index]
            cell_seconds[index] = wall
            self._observe(cells[index], wall)
            if tag == _SHIPPED_KEY:
                stored = (
                    None if self.cache is None else self.cache._read(value)
                )
                if stored is None:
                    raise RuntimeError(
                        f"worker reported envelope {value!r} written to "
                        f"{getattr(self.cache, 'root', None)!r}, but it "
                        f"cannot be read back"
                    )
                decoded[index] = decode_envelope(stored)
            elif tag == _SHIPPED_ENVELOPE:
                decoded[index] = decode_envelope(value)
            else:
                decoded[index] = {"result": value, "events": None}

        results: List[CellResult] = []
        merged_events: Optional[List[TraceEvent]] = (
            [] if self.collect_events else None
        )
        for envelope in decoded:
            results.append(envelope["result"])
            if merged_events is not None and envelope["events"]:
                for event_dict in envelope["events"]:
                    fields = dict(event_dict)
                    fields["seq"] = len(merged_events)
                    merged_events.append(TraceEvent(**fields))
        return SweepOutcome(
            cells=cells,
            results=results,
            executed_cells=len(pending),
            cached_cells=count - len(pending),
            events=merged_events,
            cell_seconds=cell_seconds,
            predicted_seconds=[
                predicted.get(index, 0.0) for index in range(count)
            ],
            dispatch_order=dispatch_order,
        )
