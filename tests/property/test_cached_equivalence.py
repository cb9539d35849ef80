"""Property tests: the cached device is an honest device.

Two contracts from ISSUE 1's accounting fixes, under random operation
sequences:

* a :class:`CachedDevice` with ``capacity_blocks=0`` is I/O-equivalent
  to a bare :class:`SimulatedDevice` with the same cost model — same
  payloads, same logical counters (including the sequential/random
  simulated-time classification), same backing traffic, same occupancy;
* every :class:`DeviceCounters` field is monotonic non-decreasing over
  any operation sequence, at any pool capacity.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.cached import CachedDevice
from repro.storage.device import CostModel, SimulatedDevice

from tests.conftest import SMALL_BLOCK

# An op is ("alloc",) or (verb, target) with target resolved modulo the
# number of live blocks, so every generated sequence is valid by
# construction once at least one block exists.
_OPS = st.one_of(
    st.tuples(st.just("alloc")),
    st.tuples(
        st.sampled_from(["read", "write", "free"]),
        st.integers(min_value=0, max_value=63),
    ),
)


def _apply(op, device, live, payload_tag):
    """Apply one op; returns the read payload (or None)."""
    if op[0] == "alloc":
        live.append(device.allocate())
        return None
    if not live:
        return None
    block = live[op[1] % len(live)]
    if op[0] == "read":
        return device.read(block)
    if op[0] == "write":
        used = (op[1] * 37) % (SMALL_BLOCK + 1)
        device.write(block, f"{payload_tag}-{op[1]}", used_bytes=used)
        return None
    live.remove(block)
    device.free(block)
    return None


def _assert_monotonic(previous, current, label):
    for before, after in zip(previous.as_tuple(), current.as_tuple()):
        assert after >= before, f"{label}: counter regressed {before} -> {after}"


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, max_size=60))
def test_zero_capacity_cache_is_io_equivalent_to_bare_device(ops):
    bare = SimulatedDevice(block_bytes=SMALL_BLOCK, cost_model=CostModel.dram())
    backing = SimulatedDevice(block_bytes=SMALL_BLOCK)
    cached = CachedDevice(backing, capacity_blocks=0)
    bare_live, cached_live = [], []

    previous = {"bare": bare.snapshot(), "cached": cached.snapshot()}
    for op in ops:
        bare_payload = _apply(op, bare, bare_live, "p")
        cached_payload = _apply(op, cached, cached_live, "p")
        assert bare_payload == cached_payload
        for label, device in (("bare", bare), ("cached", cached)):
            _assert_monotonic(previous[label], device.counters, label)
            previous[label] = device.snapshot()

    assert bare_live == cached_live
    # Logical counters agree field for field (same cost model: DRAM).
    assert cached.counters == bare.counters
    # Pass-through: the backing device saw every logical I/O too.
    assert backing.counters.reads == bare.counters.reads
    assert backing.counters.writes == bare.counters.writes
    assert backing.counters.allocations == bare.counters.allocations
    assert backing.counters.frees == bare.counters.frees
    # Same state: payloads and occupancy.
    for block in bare_live:
        assert cached.peek(block) == bare.peek(block)
    assert cached.used_bytes() == bare.used_bytes()
    assert cached.allocated_blocks == bare.allocated_blocks


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(_OPS, max_size=60),
    capacity=st.integers(min_value=1, max_value=8),
)
def test_counters_stay_monotonic_at_any_capacity(ops, capacity):
    backing = SimulatedDevice(block_bytes=SMALL_BLOCK)
    cached = CachedDevice(backing, capacity_blocks=capacity)
    live = []
    previous = {"logical": cached.snapshot(), "backing": backing.snapshot()}
    for op in ops:
        _apply(op, cached, live, "q")
        _assert_monotonic(previous["logical"], cached.counters, "logical")
        _assert_monotonic(previous["backing"], backing.counters, "backing")
        previous = {"logical": cached.snapshot(), "backing": backing.snapshot()}
    cached.flush()
    _assert_monotonic(previous["logical"], cached.counters, "logical")
    _assert_monotonic(previous["backing"], backing.counters, "backing")
    # After a flush the wrapper's occupancy equals the backing's.
    assert cached.used_bytes() == backing.used_bytes()
