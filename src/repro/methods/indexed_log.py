"""Indexed log — Section 5's "iterative logs enhanced by probabilistic
data structures".

The paper's roadmap proposes "access methods with iterative logs
enhanced by probabilistic data structures that allows for more
efficient reads and updates by avoiding accessing unnecessary data at
the expense of additional space".

This structure is exactly that: an append-only log of fixed-size
*segments*, each carrying (a) a zone synopsis (min/max key) and (b) a
Bloom filter of its keys.  Writes remain pure appends (UO near the
Prop-2 floor); point reads walk segments newest-first but skip — at
filter cost only — every segment that cannot contain the key; range
reads skip segments by zone.  The filters and synopses are the "expense
of additional space".

Compaction ("iterative") folds cold segments together, dropping
superseded versions and tombstones, and rebuilds their filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.core.runs import find_in_block
from repro.filters.bloom import BloomFilter
from repro.obs.spans import span, spanned
from repro.storage.device import SimulatedDevice
from repro.storage.layout import RECORD_BYTES, records_per_block

#: Deletion marker inside segments.
from repro.core.sentinels import TOMBSTONE as _TOMBSTONE


@dataclass
class _Segment:
    """One immutable log segment with its filter and zone synopsis."""

    block_ids: List[int]
    bloom: Optional[BloomFilter]
    bloom_block: Optional[int]
    min_key: int
    max_key: int
    records: int


class IndexedLog(AccessMethod):
    """Append-only segmented log with per-segment filters.

    Parameters
    ----------
    segment_records:
        Appends buffered in memory before a segment is sealed.
    bloom_bits_per_key:
        Per-segment filter budget; 0 disables filters (degrading point
        reads toward the plain Prop-2 log).
    compact_segments:
        Extra segments tolerated beyond the minimal footprint
        (``ceil(records / segment_records)``) before the iterative
        compaction folds the log; ``None`` disables it (the log then
        grows forever, as in Prop 2).
    """

    name = "indexed-log"
    capabilities = Capabilities(ordered=True, updatable=True)

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        segment_records: int = 256,
        bloom_bits_per_key: int = 10,
        compact_segments: Optional[int] = 16,
    ) -> None:
        super().__init__(device)
        if segment_records < 1:
            raise ValueError("segment_records must be positive")
        if bloom_bits_per_key < 0:
            raise ValueError("bloom_bits_per_key must be non-negative")
        if compact_segments is not None and compact_segments < 2:
            raise ValueError("compact_segments must be at least 2 or None")
        self.segment_records = segment_records
        self.bloom_bits_per_key = bloom_bits_per_key
        self.compact_segments = compact_segments
        self._per_block = records_per_block(self.device.block_bytes)
        self._buffer: Dict[int, object] = {}
        self._segments: List[_Segment] = []  # oldest first
        self._live_keys: set = set()

    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        records = list(items)
        for start in range(0, len(records), self.segment_records):
            chunk = sorted(records[start : start + self.segment_records])
            if chunk:
                self._segments.append(self._seal(chunk))
        self._live_keys = {key for key, _ in records}
        self._record_count = len(records)

    def get(self, key: int) -> Optional[int]:
        if key in self._buffer:
            value = self._buffer[key]
            return None if value is _TOMBSTONE else value
        for segment in reversed(self._segments):
            if key < segment.min_key or key > segment.max_key:
                continue  # zone skip: free
            if segment.bloom is not None and not self._consult_bloom(segment, key):
                continue
            found, value = self._probe_segment(segment, key)
            if found:
                return None if value is _TOMBSTONE else value
        return None

    def range_query(self, lo: int, hi: int) -> List[Record]:
        newest: Dict[int, object] = {}
        for key, value in self._buffer.items():
            if lo <= key <= hi:
                newest[key] = value
        for segment in reversed(self._segments):
            if hi < segment.min_key or lo > segment.max_key:
                continue
            for block_id in segment.block_ids:
                for key, value in self.device.read(block_id):
                    if lo <= key <= hi and key not in newest:
                        newest[key] = value
        return sorted(
            (key, value) for key, value in newest.items() if value is not _TOMBSTONE
        )

    def insert(self, key: int, value: int) -> None:
        if key in self._live_keys:
            raise ValueError(f"duplicate key {key}")
        self._append(key, value)
        self._live_keys.add(key)
        self._record_count += 1

    def update(self, key: int, value: int) -> None:
        if key not in self._live_keys:
            raise KeyError(key)
        self._append(key, value)

    def delete(self, key: int) -> None:
        if key not in self._live_keys:
            raise KeyError(key)
        self._append(key, _TOMBSTONE)
        self._live_keys.discard(key)
        self._record_count -= 1

    def flush(self) -> None:
        if self._buffer:
            self._seal_buffer()

    # ------------------------------------------------------------------
    def space_bytes(self) -> int:
        return self.device.allocated_bytes + len(self._buffer) * RECORD_BYTES

    @property
    def segments(self) -> int:
        return len(self._segments)

    def filter_bytes(self) -> int:
        """Space occupied by all segment Bloom filters."""
        return sum(
            segment.bloom.size_bytes
            for segment in self._segments
            if segment.bloom is not None
        )

    # ------------------------------------------------------------------
    def maintenance(self) -> None:
        """Seal the buffer and fold the log if it is above minimal size."""
        self.flush()
        minimal = max(1, -(-max(self._record_count, 1) // self.segment_records))
        if len(self._segments) > minimal:
            self.compact()

    def compact(self) -> None:
        """Iterative compaction: fold the whole log into minimal segments.

        Newest-version-wins across every segment; superseded versions
        and tombstones drop (a full fold leaves nothing older for a
        tombstone to suppress), filters are rebuilt.  This is the
        "iterative" maintenance that keeps the log from exhibiting
        Prop 2's unbounded RO/MO growth — folding only stale *suffixes*
        would be wasted work, since a log's redundancy concentrates in
        the overlap between old versions and recent churn.
        """
        if len(self._segments) < 2:
            return
        with span("ilog.compaction"):
            newest: Dict[int, object] = {}
            for segment in reversed(self._segments):
                for block_id in segment.block_ids:
                    for key, value in self.device.read(block_id):
                        if key not in newest:
                            newest[key] = value
            for segment in self._segments:
                self._free_segment(segment)
            survivors = sorted(
                (key, value) for key, value in newest.items() if value is not _TOMBSTONE
            )
            rebuilt: List[_Segment] = []
            for start in range(0, len(survivors), self.segment_records):
                chunk = survivors[start : start + self.segment_records]
                if chunk:
                    rebuilt.append(self._seal(chunk))
            self._segments = rebuilt

    # ------------------------------------------------------------------
    def _append(self, key: int, value: object) -> None:
        self._buffer[key] = value
        if len(self._buffer) >= self.segment_records:
            self._seal_buffer()

    def _seal_buffer(self) -> None:
        records = sorted(self._buffer.items())
        self._buffer = {}
        self._segments.append(self._seal(records))
        if self.compact_segments is not None:
            minimal = max(1, -(-max(self._record_count, 1) // self.segment_records))
            if len(self._segments) >= minimal + self.compact_segments:
                self.compact()

    @spanned("ilog.seal")
    def _seal(self, records: List[Tuple[int, object]]) -> _Segment:
        block_ids: List[int] = []
        for start in range(0, len(records), self._per_block):
            chunk = records[start : start + self._per_block]
            block_id = self.device.allocate(kind="log-segment")
            self.device.write(block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES)
            block_ids.append(block_id)
        bloom = None
        bloom_block = None
        if self.bloom_bits_per_key > 0:
            fpr = max(1e-6, 0.6185 ** self.bloom_bits_per_key)
            bloom = BloomFilter(max(1, len(records)), fpr)
            bloom.add_all(key for key, _ in records)
            bloom_block = self.device.allocate(kind="log-bloom")
            self.device.write(
                bloom_block,
                ("bloom", len(records)),
                used_bytes=min(bloom.size_bytes, self.device.block_bytes),
            )
        return _Segment(
            block_ids=block_ids,
            bloom=bloom,
            bloom_block=bloom_block,
            min_key=records[0][0],
            max_key=records[-1][0],
            records=len(records),
        )

    def _free_segment(self, segment: _Segment) -> None:
        for block_id in segment.block_ids:
            self.device.free(block_id)
        if segment.bloom_block is not None:
            self.device.free(segment.bloom_block)

    @spanned("ilog.bloom_probe")
    def _consult_bloom(self, segment: _Segment, key: int) -> bool:
        self.device.read(segment.bloom_block)  # filter probe: 1 read
        return segment.bloom.may_contain(key)

    @spanned("ilog.probe")
    def _probe_segment(self, segment: _Segment, key: int) -> Tuple[bool, object]:
        # Segments are sorted: binary-search block by first key.
        lo_block, hi_block = 0, len(segment.block_ids) - 1
        while lo_block < hi_block:
            mid = (lo_block + hi_block + 1) // 2
            records = self.device.read(segment.block_ids[mid])
            if records and records[0][0] <= key:
                lo_block = mid
            else:
                hi_block = mid - 1
        records = self.device.read(segment.block_ids[lo_block])
        index = find_in_block(records, key)
        if index is None:
            return False, None
        return True, records[index][1]
