"""Sorted column — the paper's Table 1 "Sorted column" row.

The base data kept fully sorted in a contiguous extent of blocks, with no
auxiliary structure.  Costs per Table 1:

* bulk creation O(N/B log_{MEM/B}(N/B)) (external sort; we charge the
  sort's I/O by writing sorted runs and merging them),
* index size O(1) (no auxiliary data),
* point query O(log2 N) (binary search over the extent),
* range query O(log2 N + m) (search + sequential scan),
* insert/delete O(N/B/2) expected (shift half the records),
* update-in-place O(log2 N) search + one block write.

The structure "adds structure to the data" rather than auxiliary data —
the paper's example that ordering itself trades update cost for read
cost.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.core.runs import block_slice, find_in_block
from repro.obs.spans import spanned
from repro.storage.device import SimulatedDevice
from repro.storage.layout import RECORD_BYTES, records_per_block


class SortedColumn(AccessMethod):
    """Fully sorted dense array of records over the device.

    Parameters
    ----------
    sort_memory_blocks:
        Size of the (simulated) sort buffer used during bulk load; the
        external merge sort's fan-in, the paper's MEM parameter.
    """

    name = "sorted-column"
    capabilities = Capabilities(ordered=True, updatable=True)

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        sort_memory_blocks: int = 64,
    ) -> None:
        super().__init__(device)
        if sort_memory_blocks < 2:
            raise ValueError("sort_memory_blocks must be at least 2")
        self._extent: List[int] = []
        self._per_block = records_per_block(self.device.block_bytes)
        self.sort_memory_blocks = sort_memory_blocks

    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        records = self._external_sort(list(items))
        self._write_extent(records)
        self._record_count = len(records)

    def get(self, key: int) -> Optional[int]:
        block_index = self._search_block(key)
        if block_index is None:
            return None
        records = self.device.read(self._extent[block_index])
        index = find_in_block(records, key)
        if index is None:
            return None
        return records[index][1]

    def range_query(self, lo: int, hi: int) -> List[Record]:
        if not self._extent:
            return []
        start = self._search_block(lo)
        matches: List[Record] = []
        for block_index in range(start, len(self._extent)):
            records = self.device.read(self._extent[block_index])
            if records and records[0][0] > hi:
                break
            matches.extend(block_slice(records, lo, hi))
            if records and records[-1][0] > hi:
                break
        return matches

    def insert(self, key: int, value: int) -> None:
        # Shift every record after the insertion point one slot right —
        # the linear update cost the paper attributes to sorted data.
        self._shift_insert(key, value)
        self._record_count += 1

    def update(self, key: int, value: int) -> None:
        block_index = self._search_block(key)
        if block_index is None:
            raise KeyError(key)
        block_id = self._extent[block_index]
        records = list(self.device.read(block_id))
        index = find_in_block(records, key)
        if index is None:
            raise KeyError(key)
        records[index] = (key, value)
        self._write_block(block_id, records)

    def delete(self, key: int) -> None:
        block_index = self._search_block(key)
        if block_index is None:
            raise KeyError(key)
        records = list(self.device.read(self._extent[block_index]))
        index = find_in_block(records, key)
        if index is None:
            raise KeyError(key)
        records.pop(index)
        self._compact_after_delete(block_index, records)
        self._record_count -= 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _external_sort(self, records: List[Record]) -> List[Record]:
        """Sort via simulated external merge sort, charging its I/O.

        Run generation writes sorted runs of ``sort_memory_blocks``
        blocks; merge passes with fan-in MEM/B - 1 read and rewrite all
        data, reproducing the O(N/B log_{MEM/B} N/B) bulk-load cost.
        """
        if not records:
            return []
        run_records = self.sort_memory_blocks * self._per_block
        runs: List[List[int]] = []
        for start in range(0, len(records), run_records):
            chunk = sorted(records[start : start + run_records], key=lambda r: r[0])
            runs.append(self._write_temp_run(chunk))
        fan_in = max(2, self.sort_memory_blocks - 1)
        while len(runs) > 1:
            merged_runs: List[List[int]] = []
            for start in range(0, len(runs), fan_in):
                group = runs[start : start + fan_in]
                merged_runs.append(self._merge_runs(group))
            runs = merged_runs
        final = self._read_and_free_run(runs[0])
        return self._sorted_unique(final)

    def _write_temp_run(self, records: List[Record]) -> List[int]:
        block_ids: List[int] = []
        for start in range(0, len(records), self._per_block):
            block_id = self.device.allocate(kind="sort-run")
            chunk = records[start : start + self._per_block]
            self._write_block(block_id, chunk)
            block_ids.append(block_id)
        return block_ids

    def _merge_runs(self, runs: List[List[int]]) -> List[int]:
        import heapq

        streams = [self._read_and_free_run(run) for run in runs]
        merged = list(heapq.merge(*streams, key=lambda r: r[0]))
        return self._write_temp_run(merged)

    def _read_and_free_run(self, run: List[int]) -> List[Record]:
        records: List[Record] = []
        for block_id in run:
            records.extend(self.device.read(block_id))
            self.device.free(block_id)
        return records

    def _write_extent(self, records: List[Record]) -> None:
        for start in range(0, len(records), self._per_block):
            block_id = self.device.allocate(kind="sorted")
            self._write_block(block_id, records[start : start + self._per_block])
            self._extent.append(block_id)

    @spanned("sorted.delete_compact")
    def _compact_after_delete(
        self, block_index: int, records: List[Record]
    ) -> None:
        """Shift everything after the hole one slot left, block by block."""
        for later in range(block_index + 1, len(self._extent)):
            later_records = list(self.device.read(self._extent[later]))
            if later_records:
                records.append(later_records.pop(0))
            self._write_block(self._extent[later - 1], records)
            records = later_records
        if records:
            self._write_block(self._extent[-1], records)
        else:
            # The trailing block just emptied: free it directly.  Writing
            # the empty payload first would charge a block write that
            # serves no purpose — free() already retires the block's
            # declared occupancy.
            self.device.free(self._extent.pop())

    @spanned("sorted.search")
    def _search_block(self, key: int) -> Optional[int]:
        """Binary search over blocks by reading midpoints.

        Returns the index of the first block whose max key is >= ``key``
        — the only block that can hold ``key``, and where a range scan
        starting at ``key`` must begin.  When ``key`` is above every
        stored key the *last* block's index is returned, so point
        callers must still verify membership inside the block (range
        callers scan an empty tail and stop).  ``None`` only when the
        extent is empty.  Charges one block read per probe: O(log2 N/B).
        """
        if not self._extent:
            return None
        lo, hi = 0, len(self._extent) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            records = self.device.read(self._extent[mid])
            if not records:
                hi = mid
                continue
            if records[-1][0] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @spanned("sorted.rewrite")
    def _shift_insert(self, key: int, value: int) -> None:
        if not self._extent:
            with self._fresh_block("sorted") as block_id:
                self._write_block(block_id, [(key, value)])
            self._extent.append(block_id)
            return
        block_index = self._search_block(key)
        carry: Optional[Record] = (key, value)
        for index in range(block_index, len(self._extent)):
            block_id = self._extent[index]
            records = list(self.device.read(block_id))
            position = bisect.bisect_left(records, (carry[0],))
            if position < len(records) and records[position][0] == carry[0]:
                raise ValueError(f"duplicate key {carry[0]}")
            records.insert(position, carry)
            if len(records) > self._per_block:
                carry = records.pop()
            else:
                carry = None
            self._write_block(block_id, records)
            if carry is None:
                return
        with self._fresh_block("sorted") as block_id:
            self._write_block(block_id, [carry])
        self._extent.append(block_id)

    def _write_block(self, block_id: int, records: List[Record]) -> None:
        self.device.write(block_id, records, used_bytes=len(records) * RECORD_BYTES)

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------
    def _audit_structure(self) -> List[str]:
        """Extent density: every block full except the trailing one,
        keys globally sorted, declared occupancy matching contents."""
        violations: List[str] = []
        device = self.device
        extent = set(self._extent)
        if len(extent) != len(self._extent):
            violations.append("extent lists a block id more than once")
        on_device = {
            block_id
            for block_id in device.iter_block_ids()
            if device.kind_of(block_id) == "sorted"
        }
        if on_device != extent:
            violations.append(
                f"extent/device mismatch: extent-only "
                f"{sorted(extent - on_device)}, device-only "
                f"{sorted(on_device - extent)}"
            )
        total = 0
        previous_key: Optional[int] = None
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
            try:
                keys = [record[0] for record in payload]
            except (TypeError, IndexError):
                violations.append(f"block {block_id}: malformed records")
                continue
            if len(payload) > self._per_block:
                violations.append(
                    f"block {block_id}: {len(payload)} records exceed "
                    f"capacity {self._per_block}"
                )
            if position < last and len(payload) != self._per_block:
                violations.append(
                    f"block {block_id}: non-trailing block holds "
                    f"{len(payload)} records; density requires {self._per_block}"
                )
            if position == last and not payload:
                violations.append(f"block {block_id}: empty trailing block not freed")
            declared = device.used_bytes_of(block_id)
            if declared != len(payload) * RECORD_BYTES:
                violations.append(
                    f"block {block_id}: declared {declared}B != "
                    f"{len(payload)} records x {RECORD_BYTES}B"
                )
            for key in keys:
                if previous_key is not None and key <= previous_key:
                    violations.append(
                        f"block {block_id}: key {key} out of order "
                        f"(follows {previous_key})"
                    )
                previous_key = key
            total += len(payload)
        if total != self._record_count:
            violations.append(
                f"extent holds {total} records, record count says "
                f"{self._record_count}"
            )
        return violations
