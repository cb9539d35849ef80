"""Property: the sorted-block kernel equals a per-record reference.

:func:`repro.core.runs.find_in_block` and :func:`~repro.core.runs.block_slice`
bisect a sorted block's ``(key, value)`` tuples instead of building a key
list or filtering record by record.  For random sorted blocks — the
empty block included, with values of mixed types so that a comparison
reaching a value would raise — and bounds drawn from the block's keys,
its first and last key, keys just outside it, far-away keys and
``lo > hi``, both must agree with a one-record-at-a-time reference.

``SortedColumn.get`` and ``range_query`` run on the kernel; after random
inserts and deletes they must return what a per-record scan of the same
blocks returns and issue the same device reads in the same order.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.runs import block_slice, find_in_block
from repro.methods.sorted_column import SortedColumn
from repro.obs.sinks import ListSink
from repro.obs.tracer import RecordingTracer
from repro.storage.device import SimulatedDevice

from tests.conftest import SMALL_BLOCK

_VALUES = st.one_of(st.integers(), st.none(), st.text(max_size=3))

sorted_blocks = st.dictionaries(st.integers(-50, 50), _VALUES, max_size=24).map(
    lambda mapping: sorted(mapping.items(), key=lambda record: record[0])
)


def reference_find(records, key):
    for index, (record_key, _) in enumerate(records):
        if record_key == key:
            return index
    return None


def reference_slice(records, lo, hi):
    return [(key, value) for key, value in records if lo <= key <= hi]


def _bounds(records):
    keys = [key for key, _ in records]
    edges = [keys[0] - 1, keys[0], keys[-1], keys[-1] + 1] if keys else []
    return st.one_of(
        st.sampled_from(keys + edges + [-1_000, 1_000]), st.integers(-60, 60)
    )


@settings(max_examples=150, deadline=None)
@given(records=sorted_blocks, data=st.data())
def test_find_in_block_matches_per_record_search(records, data):
    for _ in range(6):
        key = data.draw(_bounds(records))
        assert find_in_block(records, key) == reference_find(records, key)


@settings(max_examples=150, deadline=None)
@given(records=sorted_blocks, data=st.data())
def test_block_slice_matches_per_record_filter(records, data):
    bound = _bounds(records)
    for _ in range(6):
        lo, hi = data.draw(bound), data.draw(bound)
        assert list(block_slice(records, lo, hi)) == reference_slice(records, lo, hi)


def test_kernel_edge_cases():
    assert find_in_block([], 3) is None
    assert list(block_slice([], 0, 10)) == []
    records = [(1, "a"), (4, None), (9, 7)]
    assert list(block_slice(records, 9, 1)) == []
    assert list(block_slice(records, 4, 4)) == [(4, None)]
    assert list(block_slice(records, 1, 9)) == records
    assert list(block_slice(records, -5, 0)) == []
    assert list(block_slice(records, 10, 20)) == []
    assert find_in_block(records, 9) == 2
    assert find_in_block(records, 5) is None


# ----------------------------------------------------------------------
# SortedColumn against a per-record scan of the same blocks
# ----------------------------------------------------------------------


def reference_get(column: SortedColumn, key: int):
    """The column's block search, then one record at a time."""
    block_index = column._search_block(key)
    if block_index is None:
        return None
    for record_key, value in column.device.read(column._extent[block_index]):
        if record_key == key:
            return value
    return None


def reference_range_query(column: SortedColumn, lo: int, hi: int):
    """The column's block search, then a per-record filter per block."""
    if not column._extent:
        return []
    start = column._search_block(lo)
    matches = []
    for block_index in range(start, len(column._extent)):
        records = column.device.read(column._extent[block_index])
        if records and records[0][0] > hi:
            break
        matches.extend((key, value) for key, value in records if lo <= key <= hi)
        if records and records[-1][0] > hi:
            break
    return matches


def build_column(seed: int, records: int, churn: int):
    """A traced column after a bulk load and ``churn`` random mutations."""
    rng = random.Random(seed)
    device = SimulatedDevice(block_bytes=SMALL_BLOCK)
    column = SortedColumn(device, sort_memory_blocks=2)
    keys = sorted(rng.sample(range(0, 4 * records + 4, 2), records))
    column.bulk_load([(key, key * 10) for key in keys])
    live = set(keys)
    for _ in range(churn):
        if live and rng.random() < 0.5:
            key = rng.choice(sorted(live))
            column.delete(key)
            live.discard(key)
        else:
            key = rng.randrange(0, 8 * records + 8)
            if key not in live:
                column.insert(key, key * 10)
                live.add(key)
    sink = ListSink()
    device.set_tracer(RecordingTracer(sink))
    return column, sink, sorted(live)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    records=st.integers(0, 100),
    churn=st.integers(0, 60),
    data=st.data(),
)
def test_sorted_column_matches_per_record_scan(seed, records, churn, data):
    column, sink, live = build_column(seed, records, churn)
    twin, twin_sink, _ = build_column(seed, records, churn)
    candidates = live + [-1, 0, 1, 10**9]
    bound = st.one_of(st.sampled_from(candidates), st.integers(-5, 8 * records + 10))
    for _ in range(4):
        key = data.draw(bound)
        assert column.get(key) == reference_get(twin, key)
        lo, hi = data.draw(bound), data.draw(bound)
        assert column.range_query(lo, hi) == reference_range_query(twin, lo, hi)
    assert [event.to_dict() for event in sink.events] == [
        event.to_dict() for event in twin_sink.events
    ]
    assert column.device.counters == twin.device.counters
