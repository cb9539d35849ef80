"""Property-based tests of the probabilistic filters and WAH coding."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.filters.bloom import BloomFilter, _mix
from repro.filters.quotient import QuotientFilter
from repro.methods.bitmap import WAHBitVector

_keys = st.lists(st.integers(min_value=0, max_value=2**60), max_size=200)


@settings(max_examples=50, deadline=None)
@given(keys=_keys)
def test_bloom_never_false_negative(keys):
    bloom = BloomFilter(max(1, len(keys)), 0.01)
    for key in keys:
        bloom.add(key)
    assert all(bloom.may_contain(key) for key in keys)


def _reference_positions(key, bloom):
    """The textbook Kirsch-Mitzenmacher positions, one big-int product each."""
    h1 = _mix(key, 0x51ED)
    h2 = _mix(key, 0xC0FFEE) | 1
    return [(h1 + i * h2) % bloom.bits for i in range(bloom.hash_count)]


#: Negative keys and keys past 64 bits both reach the hash's masking.
_any_int = st.integers(min_value=-(2**70), max_value=2**70) | st.integers(
    min_value=2**64, max_value=2**80
)


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(_any_int, max_size=150),
    probes=st.lists(_any_int, max_size=150),
    expected_items=st.integers(min_value=1, max_value=300),
    false_positive_rate=st.floats(
        min_value=1e-6, max_value=0.9, exclude_min=True, exclude_max=True
    ),
)
@example(  # hash_count == 1: no step is taken
    keys=[-1, 2**64 + 3], probes=[0, 2**64], expected_items=100,
    false_positive_rate=0.8,
)
def test_bloom_kernel_matches_reference(
    keys, probes, expected_items, false_positive_rate
):
    """The incremental kernel sets and tests exactly the reference bits."""
    bloom = BloomFilter(expected_items, false_positive_rate)
    bloom.add_all(keys)
    reference = bytearray(len(bloom._array))
    for key in keys:
        for position in _reference_positions(key, bloom):
            reference[position >> 3] |= 1 << (position & 7)
    assert bloom._array == reference
    assert bloom.items == len(keys)
    for key in keys + probes:
        expected = all(
            reference[position >> 3] & (1 << (position & 7))
            for position in _reference_positions(key, bloom)
        )
        assert bloom.may_contain(key) == expected


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=2**60), max_size=300, unique=True))
def test_quotient_filter_no_false_negatives(keys):
    qf = QuotientFilter(quotient_bits=10, remainder_bits=10)
    usable = keys[: qf.capacity - 1]
    for key in usable:
        qf.add(key)
    assert all(qf.may_contain(key) for key in usable)


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=2**60), max_size=200, unique=True)
)
def test_quotient_filter_remove_keeps_others(keys):
    qf = QuotientFilter(quotient_bits=10, remainder_bits=12)
    usable = keys[: qf.capacity - 1]
    for key in usable:
        qf.add(key)
    removed = usable[: len(usable) // 2]
    kept = usable[len(usable) // 2 :]
    for key in removed:
        qf.remove(key)
    assert all(qf.may_contain(key) for key in kept)


@settings(max_examples=80, deadline=None)
@given(
    positions=st.lists(
        st.integers(min_value=0, max_value=20_000), max_size=300, unique=True
    )
)
def test_wah_roundtrip(positions):
    vector = WAHBitVector()
    for position in positions:
        vector.set(position)
    decoded = WAHBitVector.decode(vector.encode(), vector.length)
    assert decoded.positions() == sorted(positions)


@settings(max_examples=50, deadline=None)
@given(
    set_positions=st.lists(
        st.integers(min_value=0, max_value=5000), max_size=100, unique=True
    ),
    clear_positions=st.lists(
        st.integers(min_value=0, max_value=5000), max_size=100, unique=True
    ),
)
def test_wah_set_clear_consistency(set_positions, clear_positions):
    vector = WAHBitVector()
    for position in set_positions:
        vector.set(position)
    for position in clear_positions:
        vector.set(position, False)
    expected = sorted(set(set_positions) - set(clear_positions))
    assert vector.positions() == expected


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
        max_size=60,
        unique_by=lambda record: record[0],
    ),
    keys=st.lists(st.integers(0, 10**6), max_size=40),
)
def test_trace_roundtrip_property(records, keys):
    """Any dataset + operation stream survives a trace round-trip."""
    import os
    import tempfile

    from repro.workloads.spec import Operation, OpKind
    from repro.workloads.trace import load_trace, save_trace

    operations = []
    for index, key in enumerate(keys):
        kind = [OpKind.POINT_QUERY, OpKind.INSERT, OpKind.UPDATE,
                OpKind.DELETE, OpKind.RANGE_QUERY][index % 5]
        if kind is OpKind.RANGE_QUERY:
            operations.append(Operation(kind, key, high_key=key + 10))
        elif kind in (OpKind.INSERT, OpKind.UPDATE):
            operations.append(Operation(kind, key, value=index))
        else:
            operations.append(Operation(kind, key))
    path = os.path.join(tempfile.mkdtemp(), "prop.trace")
    save_trace(path, records, operations)
    loaded_records, loaded_operations = load_trace(path)
    assert loaded_records == records
    assert loaded_operations == operations
