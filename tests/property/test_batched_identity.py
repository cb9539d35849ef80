"""Property: the measurement does not depend on counter-window length.

The measurement loop brackets *windows* of operations with device
counter snapshots — one operation per window from ``measure_workload``,
runs of same-category operations within a batch from
``measure_workload_batched`` — and promises the *same observable
measurement* whatever the window length: the RUM profile, the span
profile, and the serialized device trace stream may not differ by a
byte.  These properties drive both entry points from identical specs,
across batch sizes, and compare the artifacts exactly — no tolerances,
since the counters are integers and every derived float is computed
from identical integer sums.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import available_methods, create_method
from repro.core.rum import measure_workload, measure_workload_batched
from repro.obs.sinks import ListSink
from repro.obs.spans import SpanProfile, span_collection
from repro.obs.tracer import RecordingTracer
from repro.storage.device import SimulatedDevice
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import MIXES

from tests.conftest import SMALL_BLOCK

#: The benchmark's and the paper tables' methods, plus a cross-section of
#: the rest of the registry.
_METHODS = [
    "btree",
    "lsm",
    "hash-index",
    "sorted-column",
    "unsorted-column",
    "skiplist",
    "zonemap",
]

_MIX_NAMES = ["balanced", "read-mostly", "write-heavy", "scan-heavy"]


def _make_spec(mix: str, seed: int, operations: int = 150):
    from dataclasses import replace

    return replace(
        MIXES[mix], initial_records=120, operations=operations, seed=seed
    )


def _run(name: str, spec, batch_size: int, traced: bool = False):
    """One measured run; returns (profile, serialized trace events)."""
    sink = ListSink()
    device = SimulatedDevice(block_bytes=SMALL_BLOCK)
    if traced:
        device.set_tracer(RecordingTracer(sink))
    method = create_method(name, device=device)
    generator = WorkloadGenerator(spec)
    method.bulk_load(generator.initial_data())
    method.flush()
    if batch_size == 1:
        profile = measure_workload(method, generator.operations())
    else:
        profile = measure_workload_batched(
            method, generator.operation_batches(batch_size)
        )
    return profile, [event.to_dict() for event in sink.events]


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(_METHODS),
    mix=st.sampled_from(_MIX_NAMES),
    batch_size=st.sampled_from([2, 3, 7, 16, 64, 256]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_batched_profile_identical_to_per_op(name, mix, batch_size, seed):
    spec = _make_spec(mix, seed)
    per_op, _ = _run(name, spec, batch_size=1)
    batched, _ = _run(name, spec, batch_size=batch_size)
    assert batched == per_op


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(["btree", "lsm", "hash-index", "unsorted-column"]),
    mix=st.sampled_from(_MIX_NAMES),
    batch_size=st.sampled_from([2, 16, 256]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_batched_trace_stream_identical_to_per_op(name, mix, batch_size, seed):
    """The device emits its own trace events in access order, so a
    window of operations must touch blocks in exactly the per-op order."""
    spec = _make_spec(mix, seed, operations=100)
    per_op_profile, per_op_events = _run(name, spec, batch_size=1, traced=True)
    batched_profile, batched_events = _run(
        name, spec, batch_size=batch_size, traced=True
    )
    assert batched_profile == per_op_profile
    assert batched_events == per_op_events


@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from(["btree", "lsm", "sorted-column"]),
    batch_size=st.sampled_from([2, 64]),
    seed=st.integers(min_value=0, max_value=20),
)
def test_batched_span_profile_identical_to_per_op(name, batch_size, seed):
    """With span collection active every window is one operation, so
    the span profile (phase attribution) is identity by construction —
    pinned here so the observer rule cannot silently disappear."""
    spec = _make_spec("balanced", seed, operations=100)

    def run(batch_size: int):
        sink = ListSink()
        device = SimulatedDevice(block_bytes=SMALL_BLOCK)
        device.set_tracer(RecordingTracer(sink))
        method = create_method(name, device=device)
        generator = WorkloadGenerator(spec)
        with span_collection():
            method.bulk_load(generator.initial_data())
            method.flush()
            if batch_size == 1:
                profile = measure_workload(method, generator.operations())
            else:
                profile = measure_workload_batched(
                    method, generator.operation_batches(batch_size)
                )
        # SpanProfile is built canonically from the event stream, so
        # identical span-stamped events imply an identical span profile;
        # building it anyway guards the aggregation path too.
        SpanProfile.from_events(sink.events)
        return profile, [event.to_dict() for event in sink.events]

    assert run(batch_size) == run(1)


@pytest.mark.parametrize("name", available_methods())
def test_every_registered_method_is_batch_identical(name):
    """One fixed spec across the whole registry: every method must
    preserve the measurement under windowed execution."""
    spec = _make_spec("balanced", seed=13, operations=80)
    per_op, _ = _run(name, spec, batch_size=1)
    batched, _ = _run(name, spec, batch_size=16)
    assert batched == per_op
