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
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.device import SimulatedDevice
from repro.storage.hierarchy import LevelSpec, MemoryHierarchy

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
