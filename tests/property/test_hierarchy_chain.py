"""Property: a chained hierarchy is indistinguishable from a bare device.

Whatever the op sequence, the level capacities, the write policies and
the inclusion modes, the stack must behave like transparent caching:

(a) every read returns exactly what a bare device running the same
    sequence returns (no stale copies — the layering bug the chained
    design exists to prevent),
(b) per-level counter conservation holds after **every** operation
    (traffic passed down at level n equals traffic reaching level n+1),
(c) ``flush()`` leaves every level clean and the backing device
    authoritative for every block.

Mounted as a device (:class:`HierarchicalDevice`) over random
alloc/read/write/free sequences, a zero-capacity one-level stack is a
bare device — the backing device sees the bare device's exact counters,
simulated time included — and at any capacity the facade's counters
never decrease.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.device import SimulatedDevice
from repro.storage.hierarchy import HierarchicalDevice, LevelSpec, MemoryHierarchy

N_BLOCKS = 12
BLOCK_BYTES = 64

#: One operation: (is_write, block index, payload token, used_bytes).
_ops = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=N_BLOCKS - 1),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=BLOCK_BYTES),
    ),
    max_size=40,
)

_levels = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from(["write-back", "write-through"]),
        st.sampled_from(["inclusive", "exclusive"]),
    ),
    min_size=1,
    max_size=3,
)


def _build(level_params):
    backing = SimulatedDevice(block_bytes=BLOCK_BYTES, name="backing")
    blocks = []
    for index in range(N_BLOCKS):
        block = backing.allocate()
        backing.write(block, f"seed-{index}", used_bytes=index)
        blocks.append(block)
    specs = [
        LevelSpec(
            name=f"L{i}",
            capacity_blocks=capacity,
            write_policy=write_policy,
            inclusion=inclusion,
        )
        for i, (capacity, write_policy, inclusion) in enumerate(level_params)
    ]
    return backing, blocks, MemoryHierarchy(backing, specs)


@settings(max_examples=60, deadline=None)
@given(ops=_ops, level_params=_levels)
def test_chain_is_read_equivalent_and_conserving(ops, level_params):
    backing, blocks, hierarchy = _build(level_params)
    # The bare-device twin: same seeded content, no caching at all.
    twin = SimulatedDevice(block_bytes=BLOCK_BYTES, name="twin")
    twin_blocks = []
    for index in range(N_BLOCKS):
        block = twin.allocate()
        twin.write(block, f"seed-{index}", used_bytes=index)
        twin_blocks.append(block)

    for is_write, index, token, used_bytes in ops:
        if is_write:
            hierarchy.write(blocks[index], f"v-{token}", used_bytes=used_bytes)
            twin.write(twin_blocks[index], f"v-{token}", used_bytes=used_bytes)
        else:
            got = hierarchy.read(blocks[index])
            want = twin.read(twin_blocks[index])
            assert got == want, f"stale read of block {index}"
        assert hierarchy.audit() == []

    hierarchy.flush()
    assert hierarchy.audit() == []
    for level in hierarchy.levels:
        assert level.pool.dirty_blocks == 0
    for block, twin_block in zip(blocks, twin_blocks):
        assert backing.peek(block) == twin.peek(twin_block)
        assert backing.used_bytes_of(block) == twin.used_bytes_of(twin_block)


# A device op is ("alloc", kind) or (verb, target) with target resolved
# modulo the number of live blocks, so every generated sequence is valid
# by construction once at least one block exists.  "wal" blocks ride
# write-back in the facade; "data" blocks are forced through.
_device_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.sampled_from(["data", "wal"])),
        st.tuples(
            st.sampled_from(["read", "write", "free"]),
            st.integers(min_value=0, max_value=63),
        ),
    ),
    max_size=60,
)


def _apply(op, device, live):
    """Apply one device op; returns the read payload (or None)."""
    if op[0] == "alloc":
        live.append(device.allocate(op[1]))
        return None
    if not live:
        return None
    block = live[op[1] % len(live)]
    if op[0] == "read":
        return device.read(block)
    if op[0] == "write":
        used = (op[1] * 37) % (BLOCK_BYTES + 1)
        device.write(block, f"p-{op[1]}", used_bytes=used)
        return None
    live.remove(block)
    device.free(block)
    return None


def _one_level(capacity):
    backing = SimulatedDevice(block_bytes=BLOCK_BYTES, name="backing")
    hierarchy = MemoryHierarchy(backing, [LevelSpec("L0", capacity)])
    return backing, HierarchicalDevice(hierarchy)


def _assert_monotonic(previous, current, label):
    for before, after in zip(previous.as_tuple(), current.as_tuple()):
        assert after >= before, f"{label}: counter regressed {before} -> {after}"


@settings(max_examples=100, deadline=None)
@given(ops=_device_ops)
def test_zero_capacity_facade_is_a_bare_device(ops):
    bare = SimulatedDevice(block_bytes=BLOCK_BYTES, name="bare")
    backing, facade = _one_level(0)
    bare_live, facade_live = [], []
    for op in ops:
        assert _apply(op, facade, facade_live) == _apply(op, bare, bare_live)
    assert facade_live == bare_live
    # Every access reached backing, in order: same counts, same
    # sequential/random split, so the same simulated time.
    assert backing.counters == bare.counters
    logical, reference = facade.counters, bare.counters
    assert (logical.reads, logical.writes) == (reference.reads, reference.writes)
    assert (logical.allocations, logical.frees) == (
        reference.allocations, reference.frees,
    )
    for block in bare_live:
        assert facade.peek(block) == bare.peek(block)
    assert facade.used_bytes() == bare.used_bytes()
    assert facade.allocated_blocks == bare.allocated_blocks
    assert facade.cache_bytes() == 0


@settings(max_examples=40, deadline=None)
@given(ops=_device_ops, capacity=st.integers(min_value=1, max_value=8))
def test_facade_counters_stay_monotonic_at_any_capacity(ops, capacity):
    backing, facade = _one_level(capacity)
    live = []
    previous = {"logical": facade.snapshot(), "backing": backing.snapshot()}
    for op in ops:
        _apply(op, facade, live)
        _assert_monotonic(previous["logical"], facade.counters, "logical")
        _assert_monotonic(previous["backing"], backing.counters, "backing")
        previous = {"logical": facade.snapshot(), "backing": backing.snapshot()}
    facade.flush()
    _assert_monotonic(previous["logical"], facade.counters, "logical")
    _assert_monotonic(previous["backing"], backing.counters, "backing")
    # After a flush the facade's occupancy equals the backing's.
    assert facade.used_bytes() == backing.used_bytes()
    assert facade.hierarchy.audit() == []
