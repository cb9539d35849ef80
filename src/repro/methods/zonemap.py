"""ZoneMaps — the paper's Table 1 sparse index.

Netezza-style zone maps: the base data lives in fixed-size partitions of
``P`` records; an auxiliary synopsis stores (min, max, count) per
partition.  The synopsis is tiny — O(N/P/B) blocks — which is why
Table 1 lists zone maps as the smallest index, with *every* operation
costing O(N/P/B): a query or update must consult the synopsis blocks and
then touch qualifying partitions.

Zone maps shine when data is clustered on the indexed key (each key range
maps to few partitions) and degrade toward full scans when partitions'
key ranges all overlap.  Both regimes are exercised by the benchmarks.

The base data here is kept partition-sorted after bulk load (globally
sorted input => disjoint zone ranges, the paper's "best case ... only a
single partition needs to be read or updated").  Inserts go to the last
partition and widen its zone, gradually degrading clustering — the
realistic behaviour the Figure-1 placement relies on.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.core.runs import block_slice, find_in_block
from repro.filters.zonefilter import ZoneEntry, ZoneSynopsis
from repro.obs.spans import spanned
from repro.storage.device import SimulatedDevice
from repro.storage.layout import RECORD_BYTES, records_per_block

#: Bytes of one serialized zone entry (min, max, count).
ZONE_ENTRY_BYTES = 24


class ZoneMapColumn(AccessMethod):
    """Partitioned column with a block-resident zone synopsis.

    Parameters
    ----------
    partition_records:
        Records per partition — the paper's parameter P.  Larger P means
        a smaller synopsis (lower MO) but coarser pruning (higher RO):
        the knob that moves zone maps along the M-R edge of the triangle.
    """

    name = "zonemap"
    capabilities = Capabilities(ordered=True, updatable=True, checks_duplicates=False)

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        partition_records: int = 1024,
    ) -> None:
        super().__init__(device)
        if partition_records < 1:
            raise ValueError("partition_records must be positive")
        self.partition_records = partition_records
        self._per_block = records_per_block(self.device.block_bytes)
        self._entries_per_meta_block = max(
            1, self.device.block_bytes // ZONE_ENTRY_BYTES
        )
        self._partitions: List[List[int]] = []  # block ids per partition
        self._partition_counts: List[int] = []
        self._synopsis = ZoneSynopsis()
        self._meta_blocks: List[int] = []

    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        records = self._sorted_unique(items)
        for start in range(0, len(records), self.partition_records):
            chunk = records[start : start + self.partition_records]
            self._append_partition(chunk)
        self._record_count = len(records)
        self._rewrite_synopsis()

    def get(self, key: int) -> Optional[int]:
        candidates = self._consult_synopsis_for_key(key)
        for partition_index in candidates:
            records = self._read_partition(partition_index)
            index = find_in_block(records, key)
            if index is not None:
                return records[index][1]
        return None

    def range_query(self, lo: int, hi: int) -> List[Record]:
        candidates = self._consult_synopsis_for_range(lo, hi)
        matches: List[Record] = []
        for partition_index in candidates:
            records = self._read_partition(partition_index)
            matches.extend(block_slice(records, lo, hi))
        matches.sort(key=lambda record: record[0])
        return matches

    def insert(self, key: int, value: int) -> None:
        if not self._partitions or self._partition_counts[-1] >= self.partition_records:
            self._append_partition([(key, value)])
        else:
            partition_index = len(self._partitions) - 1
            records = self._read_partition(partition_index)
            bisect.insort(records, (key, value))
            self._write_partition(partition_index, records)
            entry = self._synopsis.zone(partition_index)
            if entry is not None:
                entry.widen(key)
                entry.count += 1
            else:
                # The partition had been emptied by deletes and its zone
                # cleared; a fresh insert must re-establish the synopsis
                # or the record becomes invisible to pruning.
                self._synopsis.set_zone(
                    partition_index, ZoneSynopsis.entry_for(records)
                )
            self._rewrite_synopsis_block(partition_index)
        self._record_count += 1

    def update(self, key: int, value: int) -> None:
        candidates = self._consult_synopsis_for_key(key)
        for partition_index in candidates:
            records = self._read_partition(partition_index)
            index = find_in_block(records, key)
            if index is not None:
                records[index] = (key, value)
                self._write_partition(partition_index, records)
                return
        raise KeyError(key)

    def delete(self, key: int) -> None:
        candidates = self._consult_synopsis_for_key(key)
        for partition_index in candidates:
            records = self._read_partition(partition_index)
            index = find_in_block(records, key)
            if index is not None:
                records.pop(index)
                self._write_partition(partition_index, records)
                self._refresh_zone(partition_index, records)
                self._record_count -= 1
                return
        raise KeyError(key)

    # ------------------------------------------------------------------
    # Partition storage
    # ------------------------------------------------------------------
    def _append_partition(self, records: List[Record]) -> None:
        block_ids: List[int] = []
        for start in range(0, max(len(records), 1), self._per_block):
            block_ids.append(self.device.allocate(kind="partition"))
        self._partitions.append(block_ids)
        self._partition_counts.append(0)
        self._write_partition(len(self._partitions) - 1, records)
        self._synopsis.set_zone(
            len(self._partitions) - 1, ZoneSynopsis.entry_for(records)
        )
        self._rewrite_synopsis_block(len(self._partitions) - 1)

    @spanned("zonemap.scan")
    def _read_partition(self, partition_index: int) -> List[Record]:
        records: List[Record] = []
        for block_id in self._partitions[partition_index]:
            payload = self.device.read(block_id)
            if payload:
                records.extend(payload)
        return records

    def _write_partition(self, partition_index: int, records: List[Record]) -> None:
        block_ids = self._partitions[partition_index]
        needed = max(1, -(-len(records) // self._per_block))
        while len(block_ids) < needed:
            block_ids.append(self.device.allocate(kind="partition"))
        while len(block_ids) > needed:
            self.device.free(block_ids.pop())
        for index, block_id in enumerate(block_ids):
            chunk = records[index * self._per_block : (index + 1) * self._per_block]
            self.device.write(block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES)
        self._partition_counts[partition_index] = len(records)

    # ------------------------------------------------------------------
    # Synopsis storage: zone entries packed into meta blocks.  Consulting
    # the synopsis reads every meta block — the O(N/P/B) term of Table 1.
    # ------------------------------------------------------------------
    def _rewrite_synopsis(self) -> None:
        needed = max(
            1,
            -(-len(self._partitions) // self._entries_per_meta_block),
        ) if self._partitions else 0
        while len(self._meta_blocks) < needed:
            self._meta_blocks.append(self.device.allocate(kind="zone-meta"))
        while len(self._meta_blocks) > needed:
            self.device.free(self._meta_blocks.pop())
        for meta_index, block_id in enumerate(self._meta_blocks):
            self._write_meta_block(meta_index)

    def _rewrite_synopsis_block(self, partition_index: int) -> None:
        meta_index = partition_index // self._entries_per_meta_block
        if meta_index >= len(self._meta_blocks):
            self._meta_blocks.append(self.device.allocate(kind="zone-meta"))
        self._write_meta_block(meta_index)

    def _write_meta_block(self, meta_index: int) -> None:
        start = meta_index * self._entries_per_meta_block
        end = min(start + self._entries_per_meta_block, len(self._partitions))
        entries = [self._synopsis.zone(i) for i in range(start, end)]
        self.device.write(
            self._meta_blocks[meta_index],
            entries,
            used_bytes=len(entries) * ZONE_ENTRY_BYTES,
        )

    @spanned("zonemap.prune")
    def _consult_synopsis_for_key(self, key: int) -> List[int]:
        candidates: List[int] = []
        for meta_index, block_id in enumerate(self._meta_blocks):
            entries = self.device.read(block_id) or []
            base = meta_index * self._entries_per_meta_block
            for offset, entry in enumerate(entries):
                if entry is not None and entry.may_contain(key):
                    candidates.append(base + offset)
        return candidates

    @spanned("zonemap.prune")
    def _consult_synopsis_for_range(self, lo: int, hi: int) -> List[int]:
        candidates: List[int] = []
        for meta_index, block_id in enumerate(self._meta_blocks):
            entries = self.device.read(block_id) or []
            base = meta_index * self._entries_per_meta_block
            for offset, entry in enumerate(entries):
                if entry is not None and entry.overlaps(lo, hi):
                    candidates.append(base + offset)
        return candidates

    def _refresh_zone(self, partition_index: int, records: List[Record]) -> None:
        self._synopsis.set_zone(partition_index, ZoneSynopsis.entry_for(records))
        self._rewrite_synopsis_block(partition_index)

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------
    def _audit_structure(self) -> List[str]:
        """Zone bounds cover partition contents with exact counts, the
        block-resident synopsis mirrors the in-memory one, and partition
        block lists match the device."""
        violations: List[str] = []
        device = self.device
        referenced = [
            block_id for blocks in self._partitions for block_id in blocks
        ]
        if len(set(referenced)) != len(referenced):
            violations.append("partition block id referenced twice")
        on_device = {
            block_id
            for block_id in device.iter_block_ids()
            if device.kind_of(block_id) == "partition"
        }
        if on_device != set(referenced):
            violations.append(
                f"partition/device mismatch: partitions-only "
                f"{sorted(set(referenced) - on_device)}, device-only "
                f"{sorted(on_device - set(referenced))}"
            )
        meta_on_device = {
            block_id
            for block_id in device.iter_block_ids()
            if device.kind_of(block_id) == "zone-meta"
        }
        if meta_on_device != set(self._meta_blocks):
            violations.append(
                f"meta/device mismatch: meta-only "
                f"{sorted(set(self._meta_blocks) - meta_on_device)}, "
                f"device-only {sorted(meta_on_device - set(self._meta_blocks))}"
            )
        if len(self._partition_counts) != len(self._partitions):
            violations.append(
                f"{len(self._partition_counts)} partition counts for "
                f"{len(self._partitions)} partitions"
            )
        expected_meta = (
            max(1, -(-len(self._partitions) // self._entries_per_meta_block))
            if self._partitions
            else 0
        )
        if len(self._meta_blocks) != expected_meta:
            violations.append(
                f"{len(self._meta_blocks)} meta blocks, expected {expected_meta}"
            )
        total = 0
        for index, block_ids in enumerate(self._partitions):
            records: List[Record] = []
            intact = True
            for block_id in block_ids:
                if block_id not in on_device:
                    intact = False
                    continue
                payload = device.peek(block_id)
                if payload is None:
                    payload = []
                if not isinstance(payload, list):
                    violations.append(
                        f"partition {index}: block {block_id} payload is "
                        f"not a record list"
                    )
                    intact = False
                    continue
                if len(payload) > self._per_block:
                    violations.append(
                        f"partition {index}: block {block_id} holds "
                        f"{len(payload)} records, capacity {self._per_block}"
                    )
                declared = device.used_bytes_of(block_id)
                if declared != len(payload) * RECORD_BYTES:
                    violations.append(
                        f"partition {index}: block {block_id} declares "
                        f"{declared}B != {len(payload)} records x {RECORD_BYTES}B"
                    )
                records.extend(payload)
            count = (
                self._partition_counts[index]
                if index < len(self._partition_counts)
                else None
            )
            if count != len(records):
                violations.append(
                    f"partition {index}: holds {len(records)} records, "
                    f"count says {count}"
                )
            expected_blocks = max(1, -(-len(records) // self._per_block))
            if intact and len(block_ids) != expected_blocks:
                violations.append(
                    f"partition {index}: {len(block_ids)} blocks for "
                    f"{len(records)} records, expected {expected_blocks}"
                )
            try:
                keys = [key for key, _ in records]
            except (TypeError, ValueError):
                violations.append(f"partition {index}: malformed records")
                keys = []
            if keys != sorted(keys):
                violations.append(f"partition {index}: records not key-sorted")
            zone = self._synopsis.zone(index)
            if records:
                if zone is None:
                    violations.append(
                        f"partition {index}: no zone for a non-empty partition"
                    )
                elif keys:
                    if zone.min_key > min(keys) or zone.max_key < max(keys):
                        violations.append(
                            f"partition {index}: zone [{zone.min_key}, "
                            f"{zone.max_key}] does not cover contents "
                            f"[{min(keys)}, {max(keys)}]"
                        )
                    if zone.count != len(records):
                        violations.append(
                            f"partition {index}: zone count {zone.count} != "
                            f"{len(records)} records"
                        )
            elif zone is not None:
                violations.append(f"partition {index}: zone set for empty partition")
            total += len(records)
        if total != self._record_count:
            violations.append(
                f"partitions hold {total} records, record count says "
                f"{self._record_count}"
            )
        for meta_index, block_id in enumerate(self._meta_blocks):
            if block_id not in meta_on_device:
                continue
            start = meta_index * self._entries_per_meta_block
            end = min(start + self._entries_per_meta_block, len(self._partitions))
            expected = [self._synopsis.zone(i) for i in range(start, end)]
            if device.peek(block_id) != expected:
                violations.append(
                    f"meta block {block_id} disagrees with in-memory synopsis"
                )
            declared = device.used_bytes_of(block_id)
            if declared != len(expected) * ZONE_ENTRY_BYTES:
                violations.append(
                    f"meta block {block_id}: declared {declared}B != "
                    f"{len(expected)} entries x {ZONE_ENTRY_BYTES}B"
                )
        return violations

    # ------------------------------------------------------------------
    @property
    def partitions(self) -> int:
        return len(self._partitions)

    def synopsis_bytes(self) -> int:
        """Auxiliary-data footprint (for ablation reporting)."""
        return len(self._meta_blocks) * self.device.block_bytes
