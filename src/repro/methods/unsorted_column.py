"""Unsorted column (heap file) — the last row of the paper's Table 1.

The base data in insertion order, densely packed into blocks, with no
auxiliary structure at all.  Costs per Table 1:

* bulk creation O(1) extra work (data is written once, as-is),
* index size O(1) (there is no index),
* point query O(N/B/2) expected (scan until found),
* range query O(N/B) (full scan; output is unordered on disk),
* insert O(1) (append), update/delete O(N/B/2) search + O(1) write.

Deletes fill the hole with the globally last record so blocks stay dense.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.obs.spans import spanned
from repro.storage.device import SimulatedDevice
from repro.storage.layout import RECORD_BYTES, records_per_block


class UnsortedColumn(AccessMethod):
    """Heap file over the simulated device."""

    name = "unsorted-column"
    capabilities = Capabilities(ordered=False, updatable=True, checks_duplicates=False)

    def __init__(self, device: Optional[SimulatedDevice] = None) -> None:
        super().__init__(device)
        self._extent: List[int] = []  # block ids, in file order
        self._per_block = records_per_block(self.device.block_bytes)
        self._tail_count = 0  # records in the last block

    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        batch: List[Record] = []
        seen = 0
        for record in items:
            batch.append(record)
            seen += 1
            if len(batch) == self._per_block:
                self._append_block(batch)
                batch = []
        if batch:
            self._append_block(batch)
        self._record_count = seen
        self._tail_count = len(batch) if batch else (self._per_block if seen else 0)

    @spanned("unsorted.search")
    def get(self, key: int) -> Optional[int]:
        # The scan of _locate without its block copies and index
        # bookkeeping, which only update and delete need.
        for block_id in self._extent:
            for record_key, value in self.device.read(block_id):
                if record_key == key:
                    return value
        return None

    def range_query(self, lo: int, hi: int) -> List[Record]:
        matches: List[Record] = []
        for block_id in self._extent:
            records = self.device.read(block_id)
            matches.extend(
                (key, value) for key, value in records if lo <= key <= hi
            )
        matches.sort(key=lambda record: record[0])
        return matches

    def insert(self, key: int, value: int) -> None:
        self._append_record(key, value)
        self._record_count += 1

    @spanned("unsorted.rewrite")
    def _append_record(self, key: int, value: int) -> None:
        """Tail append: rewrite the last block or open a fresh one."""
        if not self._extent or self._tail_count == self._per_block:
            self._append_block([(key, value)])
            self._tail_count = 1
        else:
            tail_id = self._extent[-1]
            records = list(self.device.read(tail_id))
            records.append((key, value))
            self._write_block(tail_id, records)
            self._tail_count += 1

    def update(self, key: int, value: int) -> None:
        location = self._locate(key)
        if location is None:
            raise KeyError(key)
        block_id, index, records = location
        records[index] = (key, value)
        self._write_block(block_id, records)

    def delete(self, key: int) -> None:
        location = self._locate(key)
        if location is None:
            raise KeyError(key)
        block_id, index, records = location
        self._fill_hole(block_id, index, records)
        self._record_count -= 1

    @spanned("unsorted.delete_compact")
    def _fill_hole(self, block_id: int, index: int, records: List[Record]) -> None:
        """Keep the heap dense after a delete at (block_id, index)."""
        tail_id = self._extent[-1]
        if block_id == tail_id:
            records.pop(index)
            if records:
                self._write_block(block_id, records)
        else:
            # Move the globally-last record into the hole to stay dense.
            tail_records = list(self.device.read(tail_id))
            records[index] = tail_records.pop()
            self._write_block(block_id, records)
            if tail_records:
                self._write_block(tail_id, tail_records)
        self._tail_count -= 1
        if self._tail_count == 0 and self._extent:
            # The tail just emptied: free it without writing the empty
            # payload first — free() retires the stale occupancy, and the
            # extra write would charge a spurious UO block write.
            self.device.free(self._extent.pop())
            self._tail_count = self._per_block if self._extent else 0

    # ------------------------------------------------------------------
    @spanned("unsorted.search")
    def _locate(self, key: int) -> Optional[Tuple[int, int, List[Record]]]:
        """Find ``key``: (block id, index in block, block's records)."""
        for block_id in self._extent:
            records = list(self.device.read(block_id))
            for index, (record_key, _) in enumerate(records):
                if record_key == key:
                    return block_id, index, records
        return None

    def _append_block(self, records: List[Record]) -> None:
        with self._fresh_block("heap") as block_id:
            self._write_block(block_id, records)
        self._extent.append(block_id)

    def _write_block(self, block_id: int, records: List[Record]) -> None:
        self.device.write(block_id, records, used_bytes=len(records) * RECORD_BYTES)

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------
    def _audit_structure(self) -> List[str]:
        """Heap density: every block full except the tail, which holds
        exactly ``_tail_count`` records; counts and occupancy agree."""
        violations: List[str] = []
        device = self.device
        extent = set(self._extent)
        if len(extent) != len(self._extent):
            violations.append("extent lists a block id more than once")
        on_device = {
            block_id
            for block_id in device.iter_block_ids()
            if device.kind_of(block_id) == "heap"
        }
        if on_device != extent:
            violations.append(
                f"extent/device mismatch: extent-only "
                f"{sorted(extent - on_device)}, device-only "
                f"{sorted(on_device - extent)}"
            )
        if not self._extent and self._tail_count:
            violations.append(f"empty extent but tail count {self._tail_count}")
        total = 0
        last = len(self._extent) - 1
        for position, block_id in enumerate(self._extent):
            if block_id not in on_device:
                continue
            payload = device.peek(block_id)
            if not isinstance(payload, list):
                violations.append(
                    f"block {block_id}: payload {type(payload).__name__} "
                    f"is not a record list"
                )
                continue
            expected = self._tail_count if position == last else self._per_block
            if len(payload) != expected:
                violations.append(
                    f"block {block_id}: holds {len(payload)} records, "
                    f"heap density requires {expected}"
                )
            declared = device.used_bytes_of(block_id)
            if declared != len(payload) * RECORD_BYTES:
                violations.append(
                    f"block {block_id}: declared {declared}B != "
                    f"{len(payload)} records x {RECORD_BYTES}B"
                )
            total += len(payload)
        if total != self._record_count:
            violations.append(
                f"extent holds {total} records, record count says "
                f"{self._record_count}"
            )
        return violations
