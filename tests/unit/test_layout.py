"""Unit tests for record-layout arithmetic."""

from __future__ import annotations

import pytest

from repro.storage.layout import (
    KEY_BYTES,
    POINTER_BYTES,
    RECORD_BYTES,
    VALUE_BYTES,
    fanout_for_block,
    records_per_block,
)


class TestConstants:
    def test_record_is_key_plus_value(self):
        assert RECORD_BYTES == KEY_BYTES + VALUE_BYTES


class TestRecordsPerBlock:
    def test_standard_block(self):
        assert records_per_block(4096) == 256

    def test_small_block(self):
        assert records_per_block(256) == 16

    def test_exact_fit(self):
        assert records_per_block(RECORD_BYTES) == 1

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            records_per_block(RECORD_BYTES - 1)

    @pytest.mark.parametrize("block_bytes", [16, 17, 31, 32, 100, 4096, 65536])
    def test_block_holds_as_many_records_as_fit(self, block_bytes):
        count = records_per_block(block_bytes)
        assert count * RECORD_BYTES <= block_bytes < (count + 1) * RECORD_BYTES


def _node_bytes(fanout):
    """Bytes of an internal node: ``fanout - 1`` keys, ``fanout`` pointers."""
    return (fanout - 1) * KEY_BYTES + fanout * POINTER_BYTES


class TestOtherCapacities:
    def test_fanout_fits_block(self):
        for block in (256, 512, 4096):
            fanout = fanout_for_block(block)
            assert _node_bytes(fanout) <= block

    def test_fanout_minimum_two(self):
        assert fanout_for_block(16) >= 2

    @pytest.mark.parametrize("block_bytes", [24, 40, 64, 100, 256, 1000, 4096])
    def test_fanout_is_the_largest_that_fits(self, block_bytes):
        fanout = fanout_for_block(block_bytes)
        assert _node_bytes(fanout) <= block_bytes < _node_bytes(fanout + 1)
