"""Unit tests for bitvectors, WAH compression and the bitmap index."""

from __future__ import annotations

import random

import pytest

from repro.methods.bitmap import BitmapIndex, BitVector, WAHBitVector
from repro.storage.device import SimulatedDevice

from tests.conftest import SMALL_BLOCK


def low_cardinality_records(n, cardinality=4):
    """Records whose value attribute has few distinct values."""
    return [(i, i % cardinality) for i in range(n)]


class TestBitVector:
    def test_set_and_get(self):
        bits = BitVector()
        bits.set(5)
        bits.set(100)
        assert bits.get(5) and bits.get(100)
        assert not bits.get(6)

    def test_clear(self):
        bits = BitVector()
        bits.set(5)
        bits.set(5, False)
        assert not bits.get(5)

    def test_positions_sorted(self):
        bits = BitVector()
        for position in (9, 1, 40):
            bits.set(position)
        assert bits.positions() == [1, 9, 40]

    def test_count(self):
        bits = BitVector()
        for position in range(0, 64, 3):
            bits.set(position)
        assert bits.count() == len(range(0, 64, 3))

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            BitVector().set(-1)

    def test_get_beyond_length(self):
        assert not BitVector().get(1000)


class TestWAHCompression:
    def test_roundtrip_random(self):
        rng = random.Random(11)
        vector = WAHBitVector()
        positions = sorted(rng.sample(range(5000), 200))
        for position in positions:
            vector.set(position)
        words = vector.encode()
        decoded = WAHBitVector.decode(words, vector.length)
        assert decoded.positions() == positions

    def test_roundtrip_dense_run(self):
        vector = WAHBitVector()
        for position in range(100, 500):
            vector.set(position)
        decoded = WAHBitVector.decode(vector.encode(), vector.length)
        assert decoded.positions() == list(range(100, 500))

    def test_sparse_compresses_well(self):
        sparse_wah = WAHBitVector()
        sparse_plain = BitVector()
        for position in (10, 50_000, 100_000):
            sparse_wah.set(position)
            sparse_plain.set(position)
        assert sparse_wah.size_bytes < sparse_plain.size_bytes / 100

    def test_all_zero_vector(self):
        vector = WAHBitVector()
        assert vector.encode() == []
        assert WAHBitVector.decode([], 0).positions() == []

    def test_clear_bit(self):
        vector = WAHBitVector()
        vector.set(7)
        vector.set(7, False)
        assert not vector.get(7)
        assert vector.count() == 0

    def test_fill_word_boundaries(self):
        # Exactly one 31-bit group of ones.
        vector = WAHBitVector()
        for position in range(31):
            vector.set(position)
        words = vector.encode()
        assert len(words) == 1
        assert words[0] >> 31 == 1  # a fill word
        decoded = WAHBitVector.decode(words, 31)
        assert decoded.count() == 31


class TestBitmapIndex:
    def _index(self, **kwargs):
        return BitmapIndex(SimulatedDevice(block_bytes=SMALL_BLOCK), **kwargs)

    def test_lookup_value(self):
        index = self._index()
        index.bulk_load(low_cardinality_records(64))
        matches = index.lookup_value(2)
        assert [key for key, _ in matches] == [k for k in range(64) if k % 4 == 2]

    def test_lookup_missing_value(self):
        index = self._index()
        index.bulk_load(low_cardinality_records(32))
        assert index.lookup_value(99) == []

    def test_distinct_values(self):
        index = self._index()
        index.bulk_load(low_cardinality_records(32, cardinality=3))
        assert index.distinct_values() == [0, 1, 2]

    def test_update_moves_between_bitmaps(self):
        index = self._index()
        index.bulk_load(low_cardinality_records(32))
        index.update(0, 3)  # was value 0
        assert 0 not in [k for k, _ in index.lookup_value(0)]
        assert 0 in [k for k, _ in index.lookup_value(3)]

    def test_delete_removes_from_lookup(self):
        index = self._index()
        index.bulk_load(low_cardinality_records(32))
        index.delete(4)
        assert 4 not in [k for k, _ in index.lookup_value(0)]
        assert index.get(4) is None

    def test_compressed_smaller_than_plain_for_clustered(self):
        # Clustered values => long runs => WAH wins.
        records = [(i, 0 if i < 500 else 1) for i in range(1000)]
        compressed = self._index(compressed=True)
        plain = self._index(compressed=False)
        compressed.bulk_load(records)
        plain.bulk_load(records)
        assert compressed.bitmap_bytes() < plain.bitmap_bytes()

    def test_update_friendly_defers_bitmap_rewrites(self):
        index = self._index(update_friendly=True, delta_merge_bits=1000)
        index.bulk_load(low_cardinality_records(64))
        index.update(0, 3)
        index.update(1, 3)
        # Deltas pending, lookups still correct.
        assert 0 in [k for k, _ in index.lookup_value(3)]

    def test_update_friendly_merges_at_threshold(self):
        index = self._index(update_friendly=True, delta_merge_bits=4)
        index.bulk_load(low_cardinality_records(64))
        for key in range(8):
            index.update(key, 3)
        assert set(k for k, _ in index.lookup_value(3)) >= set(range(8))

    def test_lookup_reads_bitmap_blocks(self):
        index = self._index()
        index.bulk_load(low_cardinality_records(64))
        before = index.device.snapshot()
        index.lookup_value(1)
        io = index.device.stats_since(before)
        assert io.reads > 0
