"""Property-based tests of the RUM accounting invariants.

The paper's Section 2 establishes 1.0 as the theoretical minimum of each
amplification ratio.  These properties check that the *measurement
machinery* respects those floors (individual structures may beat UO =
1.0 only through coalescing buffered updates to the same key, which the
paper's differential discussion allows — so UO is bounded below by the
coalescing-aware floor, not blindly by 1.0).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.registry import create_method
from repro.core.rum import RUMAccumulator, measure_workload
from repro.core.space import barycentric_weights, project
from repro.core.rum import RUMProfile
from repro.storage.device import SimulatedDevice
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import WorkloadSpec

from tests.conftest import SMALL_BLOCK

_MEASURED = ["btree", "hash-index", "zonemap", "lsm", "sorted-column", "unsorted-column"]


@pytest.mark.parametrize("name", _MEASURED)
@settings(max_examples=10, deadline=None)
@given(
    reads=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=100),
)
@example(reads=0.0078125, seed=27)  # lsm: its one read is a memtable hit
def test_measured_overheads_respect_floors(name, reads, seed):
    writes = 1.0 - reads
    spec = WorkloadSpec(
        point_queries=reads * 0.8,
        range_queries=reads * 0.2,
        inserts=writes * 0.5,
        updates=writes * 0.3,
        deletes=writes * 0.2,
        operations=120,
        initial_records=400,
        seed=seed,
    )
    method = create_method(name, device=SimulatedDevice(block_bytes=SMALL_BLOCK))
    generator = WorkloadGenerator(spec)
    method.bulk_load(generator.initial_data())
    accumulator = RUMAccumulator()
    profile = measure_workload(
        method, generator.operations(), accumulator=accumulator
    )
    # Block granularity means a read that touches a block moves at least
    # the data it wanted; space always covers the base data.  Reads
    # served from memory cost no I/O: an LSM whose reads all hit the
    # memtable reports RO = 0.
    if accumulator.read_ops > 0 and accumulator.read_bytes == 0:
        assert name == "lsm"
        assert profile.read_overhead == 0.0
    else:
        assert profile.read_overhead >= 1.0 - 1e-9
    assert profile.memory_overhead >= 1.0 - 1e-9
    assert profile.update_overhead >= 0.0
    assert profile.simulated_time >= 0.0


@settings(max_examples=100, deadline=None)
@given(
    ro=st.floats(min_value=1.0, max_value=1e9),
    uo=st.floats(min_value=1.0, max_value=1e9),
    mo=st.floats(min_value=1.0, max_value=1e9),
)
def test_projection_always_inside_triangle(ro, uo, mo):
    import math

    point = project(RUMProfile(ro, uo, mo))
    assert -1e-9 <= point.x <= 1.0 + 1e-9
    assert -1e-9 <= point.y <= math.sqrt(3) / 2 + 1e-9
    weights = barycentric_weights(RUMProfile(ro, uo, mo))
    assert sum(weights) == pytest.approx(1.0)
    assert all(w >= 0 for w in weights)


@settings(max_examples=100, deadline=None)
@given(
    ro=st.floats(min_value=1.0, max_value=1e6),
    uo=st.floats(min_value=1.0, max_value=1e6),
    mo=st.floats(min_value=1.0, max_value=1e6),
    factor=st.floats(min_value=1.1, max_value=10.0),
)
def test_dominance_is_consistent(ro, uo, mo, factor):
    base = RUMProfile(ro, uo, mo)
    worse = RUMProfile(ro * factor, uo, mo)
    assert base.dominates(worse)
    assert not worse.dominates(base)
    assert not base.dominates(base)
