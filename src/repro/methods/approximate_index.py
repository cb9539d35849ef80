"""Approximate tree index (BF-Tree-style) with updatable filters.

Section 5's second RUM-aware design: "approximate (tree) indexing that
supports updates with low read performance overhead, by absorbing them
in updatable probabilistic data structures (like quotient filters)".

The structure partitions the sorted base data into fixed-size ranges and
keeps, per partition, only (a) the key bounds and (b) a quotient filter
of the partition's keys — a fraction of a dense index's size.  A point
lookup consults bounds (memory) and the filter (one block read), then
scans only partitions whose filter fires.  Because quotient filters
support deletion, inserts and deletes maintain the filters in place —
no rebuild, unlike Bloom-based designs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.core.runs import block_slice, find_in_block
from repro.filters.quotient import QuotientFilter
from repro.storage.device import SimulatedDevice
from repro.storage.layout import RECORD_BYTES, records_per_block


@dataclass
class _Partition:
    block_ids: List[int]
    min_key: int
    max_key: int
    records: int
    filter: QuotientFilter
    filter_block: int


class ApproximateTreeIndex(AccessMethod):
    """Range partitions + per-partition quotient filters."""

    name = "approximate-index"
    capabilities = Capabilities(ordered=True, updatable=True)

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        partition_records: int = 1024,
        remainder_bits: int = 8,
    ) -> None:
        super().__init__(device)
        if partition_records < 1:
            raise ValueError("partition_records must be positive")
        self.partition_records = partition_records
        self.remainder_bits = remainder_bits
        self._per_block = records_per_block(self.device.block_bytes)
        self._partitions: List[_Partition] = []

    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        records = self._sorted_unique(items)
        for start in range(0, len(records), self.partition_records):
            self._partitions.append(
                self._build_partition(records[start : start + self.partition_records])
            )
        self._record_count = len(records)

    def get(self, key: int) -> Optional[int]:
        for partition in self._candidates(key):
            # Consult the filter: one block read; negative => skip the scan.
            self.device.read(partition.filter_block)
            if not partition.filter.may_contain(key):
                continue
            for block_id in partition.block_ids:
                for record_key, value in self.device.read(block_id):
                    if record_key == key:
                        return value
        return None

    def range_query(self, lo: int, hi: int) -> List[Record]:
        matches: List[Record] = []
        for partition in self._partitions:
            if partition.records == 0 or hi < partition.min_key or lo > partition.max_key:
                continue
            for block_id in partition.block_ids:
                matches.extend(block_slice(self.device.read(block_id), lo, hi))
        matches.sort(key=lambda record: record[0])
        return matches

    def insert(self, key: int, value: int) -> None:
        partition = self._partition_for(key)
        if partition is None:
            partition = self._build_partition([(key, value)])
            self._insert_partition_sorted(partition)
        else:
            records = self._read_partition(partition)
            slot = bisect.bisect_left(records, (key,))
            if slot < len(records) and records[slot][0] == key:
                raise ValueError(f"duplicate key {key}")
            records.insert(slot, (key, value))
            self._rewrite_partition(partition, records)
            self._filter_add(partition, key)
        self._record_count += 1

    def update(self, key: int, value: int) -> None:
        for partition in self._candidates(key):
            records = self._read_partition(partition)
            slot = find_in_block(records, key)
            if slot is not None:
                records[slot] = (key, value)
                self._rewrite_partition(partition, records, refresh_filter=False)
                return
        raise KeyError(key)

    def delete(self, key: int) -> None:
        for partition in self._candidates(key):
            records = self._read_partition(partition)
            slot = find_in_block(records, key)
            if slot is not None:
                records.pop(slot)
                self._rewrite_partition(partition, records)
                partition.filter.remove(key)
                self._write_filter_block(partition)
                self._record_count -= 1
                return
        raise KeyError(key)

    # ------------------------------------------------------------------
    def filter_bytes(self) -> int:
        """Space occupied by all quotient filters."""
        return sum(p.filter.size_bytes for p in self._partitions)

    @property
    def partitions(self) -> int:
        return len(self._partitions)

    # ------------------------------------------------------------------
    def _build_partition(self, records: List[Record]) -> _Partition:
        quotient_bits = 1
        while (1 << quotient_bits) < 2 * max(1, self.partition_records):
            quotient_bits += 1
        qfilter = QuotientFilter(
            quotient_bits=quotient_bits, remainder_bits=self.remainder_bits
        )
        block_ids: List[int] = []
        for start in range(0, len(records), self._per_block):
            chunk = records[start : start + self._per_block]
            block_id = self.device.allocate(kind="approx-data")
            self.device.write(block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES)
            block_ids.append(block_id)
        for key, _ in records:
            qfilter.add(key)
        partition = _Partition(
            block_ids=block_ids,
            min_key=records[0][0] if records else 0,
            max_key=records[-1][0] if records else -1,
            records=len(records),
            filter=qfilter,
            filter_block=self.device.allocate(kind="approx-filter"),
        )
        self._write_filter_block(partition)
        return partition

    def _write_filter_block(self, partition: _Partition) -> None:
        self.device.write(
            partition.filter_block,
            ("quotient-filter", partition.filter.items),
            used_bytes=min(partition.filter.size_bytes, self.device.block_bytes),
        )

    def _read_partition(self, partition: _Partition) -> List[Record]:
        records: List[Record] = []
        for block_id in partition.block_ids:
            records.extend(self.device.read(block_id))
        return records

    def _rewrite_partition(
        self,
        partition: _Partition,
        records: List[Record],
        refresh_filter: bool = False,
    ) -> None:
        needed = max(1, -(-len(records) // self._per_block)) if records else 0
        while len(partition.block_ids) < needed:
            partition.block_ids.append(self.device.allocate(kind="approx-data"))
        while len(partition.block_ids) > needed:
            self.device.free(partition.block_ids.pop())
        for index, block_id in enumerate(partition.block_ids):
            chunk = records[index * self._per_block : (index + 1) * self._per_block]
            self.device.write(block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES)
        partition.records = len(records)
        if records:
            partition.min_key = records[0][0]
            partition.max_key = records[-1][0]
        else:
            partition.min_key, partition.max_key = 0, -1

    def _filter_add(self, partition: _Partition, key: int) -> None:
        try:
            partition.filter.add(key)
        except OverflowError:
            # Rebuild the filter one size up from the partition's keys.
            records = self._read_partition(partition)
            rebuilt = QuotientFilter(
                quotient_bits=min(30, partition.filter.quotient_bits + 1),
                remainder_bits=self.remainder_bits,
            )
            for record_key, _ in records:
                rebuilt.add(record_key)
            partition.filter = rebuilt
        self._write_filter_block(partition)

    def _partition_for(self, key: int) -> Optional[_Partition]:
        """The partition whose range should hold ``key`` (bounds-based)."""
        if not self._partitions:
            return None
        mins = [p.min_key for p in self._partitions]
        index = bisect.bisect_right(mins, key) - 1
        if index < 0:
            index = 0
        return self._partitions[index]

    def _insert_partition_sorted(self, partition: _Partition) -> None:
        mins = [p.min_key for p in self._partitions]
        index = bisect.bisect_right(mins, partition.min_key)
        self._partitions.insert(index, partition)

    def _candidates(self, key: int) -> List[_Partition]:
        return [
            partition
            for partition in self._partitions
            if partition.records and partition.min_key <= key <= partition.max_key
        ]