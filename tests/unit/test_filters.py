"""Unit tests for Bloom filters, the quotient filter and zone synopses —
the space-optimized building blocks."""

from __future__ import annotations

import pytest

from repro.filters.bloom import BloomFilter, optimal_bits, optimal_hashes
from repro.filters.quotient import QuotientFilter
from repro.filters.zonefilter import ZoneEntry, ZoneSynopsis


class TestBloomSizing:
    def test_optimal_bits_grow_with_items(self):
        assert optimal_bits(1000, 0.01) > optimal_bits(100, 0.01)

    def test_optimal_bits_grow_with_precision(self):
        assert optimal_bits(1000, 0.001) > optimal_bits(1000, 0.01)

    def test_invalid_fpr_rejected(self):
        with pytest.raises(ValueError):
            optimal_bits(10, 0.0)
        with pytest.raises(ValueError):
            optimal_bits(10, 1.0)

    def test_zero_items_gets_minimum(self):
        assert optimal_bits(0, 0.01) == 8

    def test_optimal_hashes_at_least_one(self):
        assert optimal_hashes(8, 1000) >= 1


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(500, 0.01)
        keys = list(range(0, 1000, 2))
        bloom.add_all(keys)
        assert all(bloom.may_contain(key) for key in keys)

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter(1000, 0.02)
        bloom.add_all(range(1000))
        false_positives = sum(
            1 for probe in range(100_000, 110_000) if bloom.may_contain(probe)
        )
        assert false_positives / 10_000 < 0.06  # 3x slack over target

    @pytest.mark.parametrize("target", [0.1, 0.05, 0.01, 0.002])
    def test_measured_rate_tracks_each_target(self, target):
        bloom = BloomFilter(1000, target)
        bloom.add_all(range(1000))
        probes = range(10**6, 10**6 + 20_000)
        false_positives = sum(1 for probe in probes if bloom.may_contain(probe))
        assert false_positives / len(probes) < 2 * target

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(100, 0.01)
        assert not any(bloom.may_contain(key) for key in range(50))

    def test_size_bytes_positive(self):
        assert BloomFilter(100, 0.01).size_bytes > 0

    def test_items_counted(self):
        bloom = BloomFilter(10, 0.1)
        bloom.add(1)
        bloom.add(2)
        assert bloom.items == 2


class TestQuotientFilter:
    def test_no_false_negatives(self):
        qf = QuotientFilter(quotient_bits=12, remainder_bits=8)
        keys = list(range(0, 2000, 2))
        for key in keys:
            qf.add(key)
        assert all(qf.may_contain(key) for key in keys)

    def test_false_positive_rate_bounded(self):
        qf = QuotientFilter(quotient_bits=12, remainder_bits=8)
        for key in range(2000):
            qf.add(key)
        false_positives = sum(
            1 for probe in range(100_000, 105_000) if qf.may_contain(probe)
        )
        # Load 2000/4096 ~ 0.49; expected FPR ~ 0.49/256 ~ 0.2%.
        assert false_positives / 5000 < 0.02

    def test_remove_supports_deletion(self):
        qf = QuotientFilter(quotient_bits=10, remainder_bits=8)
        qf.add(7)
        assert qf.may_contain(7)
        assert qf.remove(7)
        assert not qf.may_contain(7)

    def test_remove_absent_returns_false(self):
        qf = QuotientFilter(quotient_bits=10, remainder_bits=8)
        qf.add(1)
        assert not qf.remove(123456)

    def test_overflow_raises(self):
        qf = QuotientFilter(quotient_bits=2, remainder_bits=4)
        for key in range(qf.capacity):
            qf.add(key)
        with pytest.raises(OverflowError):
            qf.add(9999)

    def test_size_formula(self):
        qf = QuotientFilter(quotient_bits=10, remainder_bits=8)
        assert qf.size_bytes == (1024 * 11 + 7) // 8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QuotientFilter(quotient_bits=0)
        with pytest.raises(ValueError):
            QuotientFilter(remainder_bits=0)

    def test_load_factor(self):
        qf = QuotientFilter(quotient_bits=4, remainder_bits=4)
        for key in range(8):
            qf.add(key)
        assert qf.load_factor == pytest.approx(0.5)


class TestZoneSynopsis:
    def test_entry_for_records(self):
        entry = ZoneSynopsis.entry_for([(5, 1), (2, 1), (9, 1)])
        assert entry.min_key == 2
        assert entry.max_key == 9
        assert entry.count == 3

    def test_entry_for_empty(self):
        assert ZoneSynopsis.entry_for([]) is None

    def test_may_contain_bounds(self):
        entry = ZoneEntry(10, 20, 5)
        assert entry.may_contain(10)
        assert entry.may_contain(20)
        assert not entry.may_contain(9)
        assert not entry.may_contain(21)

    def test_overlaps(self):
        entry = ZoneEntry(10, 20, 5)
        assert entry.overlaps(0, 10)
        assert entry.overlaps(20, 30)
        assert entry.overlaps(12, 15)
        assert not entry.overlaps(21, 30)
        assert not entry.overlaps(0, 9)

    def test_widen(self):
        entry = ZoneEntry(10, 20, 5)
        entry.widen(5)
        entry.widen(25)
        assert (entry.min_key, entry.max_key) == (5, 25)

    def test_cleared_zone_skipped(self):
        synopsis = ZoneSynopsis()
        synopsis.set_zone(0, ZoneEntry(0, 9, 10))
        synopsis.set_zone(0, None)
        assert synopsis.zone(0) is None
        assert len(synopsis) == 0
