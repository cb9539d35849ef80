"""Property: the B+-Tree range scan equals a per-record leaf walk.

``BPlusTree.range_query`` bounds each leaf with two bisections and
slices the records out; the reference below walks the same leaves one
record at a time, the way the scan was first written.  For random trees
(bulk loads followed by inserts and deletes that split and merge
leaves) and random bounds, both must return the same records and issue
the same device reads in the same order: the scan reads the next leaf
exactly when no key of the current leaf lies past ``hi``.  Bounds are
drawn from live keys, leaf boundary keys, absent keys and ``lo > hi``;
the empty tree is drawn too.
"""

from __future__ import annotations

import bisect
import random

from hypothesis import given, settings, strategies as st

from repro.methods.btree import BPlusTree, _Internal
from repro.obs.sinks import ListSink
from repro.obs.tracer import RecordingTracer
from repro.storage.device import SimulatedDevice

from tests.conftest import SMALL_BLOCK


def reference_range_query(tree: BPlusTree, lo: int, hi: int):
    """Root-to-leaf descent, then one record at a time along the chain."""
    if tree._root is None:
        return []
    node = tree.device.read(tree._root)
    while isinstance(node, _Internal):
        _, child = node.child_for(lo)
        node = tree.device.read(child)
    matches = []
    while True:
        start = bisect.bisect_left(node.keys, lo)
        for index in range(start, len(node.keys)):
            if node.keys[index] > hi:
                return matches
            matches.append((node.keys[index], node.values[index]))
        if node.next_leaf is None:
            return matches
        node = tree.device.read(node.next_leaf)


def build_tree(seed: int, records: int, churn: int, leaf_capacity: int):
    """A traced tree after a bulk load and ``churn`` random mutations."""
    rng = random.Random(seed)
    device = SimulatedDevice(block_bytes=SMALL_BLOCK)
    tree = BPlusTree(device, leaf_capacity=leaf_capacity, fanout=4)
    keys = sorted(rng.sample(range(0, 4 * records + 4, 2), records))
    tree.bulk_load([(key, key * 10) for key in keys])
    live = set(keys)
    for _ in range(churn):
        if live and rng.random() < 0.5:
            key = rng.choice(sorted(live))
            tree.delete(key)
            live.discard(key)
        else:
            key = rng.randrange(0, 8 * records + 8)
            if key not in live:
                tree.insert(key, key * 10)
                live.add(key)
    sink = ListSink()
    device.set_tracer(RecordingTracer(sink))
    return tree, sink


def leaf_boundary_keys(tree: BPlusTree):
    """First and last key of every leaf, read without charging I/O."""
    if tree._root is None:
        return []
    node = tree.device.peek(tree._root)
    while isinstance(node, _Internal):
        node = tree.device.peek(node.children[0])
    boundaries = []
    while True:
        if node.keys:
            boundaries += [node.keys[0], node.keys[-1]]
        if node.next_leaf is None:
            return boundaries
        node = tree.device.peek(node.next_leaf)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    records=st.integers(0, 120),
    churn=st.integers(0, 120),
    leaf_capacity=st.sampled_from([2, 3, 8]),
    data=st.data(),
)
def test_range_query_matches_per_record_scan(
    seed, records, churn, leaf_capacity, data
):
    tree, sink = build_tree(seed, records, churn, leaf_capacity)
    twin, twin_sink = build_tree(seed, records, churn, leaf_capacity)
    candidates = leaf_boundary_keys(tree) + [-1, 0, 1, 10**9]
    bound = st.one_of(
        st.sampled_from(candidates), st.integers(-5, 8 * records + 10)
    )
    for _ in range(4):
        lo, hi = data.draw(bound), data.draw(bound)
        expected = reference_range_query(twin, lo, hi)
        assert tree.range_query(lo, hi) == expected
    assert [event.to_dict() for event in sink.events] == [
        event.to_dict() for event in twin_sink.events
    ]
    assert tree.device.counters == twin.device.counters
