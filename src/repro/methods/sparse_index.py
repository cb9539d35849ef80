"""Sparse index — the "Sparse Index" point of Figure 1.

A sorted column plus a light-weight secondary index holding one (key,
block) entry per data block (the classic ISAM / clustered-sparse-index
design the paper groups with ZoneMaps and Small Materialized Aggregates).
Compared with a dense B+-Tree it stores a factor-B fewer entries (low
MO); compared with ZoneMaps it keeps the entries sorted, so consultation
is a binary search over index blocks rather than a full synopsis scan.

Inserts spill into per-block overflow chains (ISAM-style), which keeps
update cost low but gradually degrades read cost until ``rebuild()``
reorganizes — a miniature of the adaptive tension Section 5 discusses.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Tuple

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.core.runs import block_slice, find_in_block
from repro.storage.device import SimulatedDevice
from repro.storage.layout import (
    KEY_BYTES,
    POINTER_BYTES,
    RECORD_BYTES,
    records_per_block,
)

#: Bytes per sparse-index entry: separator key + block pointer.
ENTRY_BYTES = KEY_BYTES + POINTER_BYTES


class SparseIndexColumn(AccessMethod):
    """Sorted data blocks + sparse index + ISAM-style overflow chains."""

    name = "sparse-index"
    capabilities = Capabilities(ordered=True, updatable=True, checks_duplicates=False)

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        rebuild_overflow_ratio: float = 0.5,
    ) -> None:
        super().__init__(device)
        if rebuild_overflow_ratio <= 0:
            raise ValueError("rebuild_overflow_ratio must be positive")
        self._per_block = records_per_block(self.device.block_bytes)
        self._entries_per_block = max(1, self.device.block_bytes // ENTRY_BYTES)
        self.rebuild_overflow_ratio = rebuild_overflow_ratio
        self._data_blocks: List[int] = []
        self._overflow: List[List[int]] = []  # overflow chain per data block
        self._index_keys: List[int] = []  # first key per data block (memory)
        self._index_blocks: List[int] = []  # the same entries, on device
        self._overflow_records = 0

    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        records = self._sorted_unique(items)
        self._install(records)
        self._record_count = len(records)

    def get(self, key: int) -> Optional[int]:
        position = self._locate_block(key)
        if position is None:
            return None
        records = self.device.read(self._data_blocks[position])
        index = find_in_block(records, key)
        if index is not None:
            return records[index][1]
        for overflow_id in self._overflow[position]:
            for record_key, value in self.device.read(overflow_id):
                if record_key == key:
                    return value
        return None

    def range_query(self, lo: int, hi: int) -> List[Record]:
        if not self._data_blocks:
            return []
        start = self._locate_block(lo)
        if start is None:
            start = 0
        matches: List[Record] = []
        for position in range(start, len(self._data_blocks)):
            records = self.device.read(self._data_blocks[position])
            if records and records[0][0] > hi and position > start:
                break
            matches.extend(block_slice(records, lo, hi))
            for overflow_id in self._overflow[position]:
                matches.extend(
                    (key, value)
                    for key, value in self.device.read(overflow_id)
                    if lo <= key <= hi
                )
        matches.sort(key=lambda record: record[0])
        return matches

    def insert(self, key: int, value: int) -> None:
        if not self._data_blocks:
            self._install([(key, value)])
            self._record_count = 1
            return
        position = self._locate_block(key)
        if position is None:
            position = 0
        records = list(self.device.read(self._data_blocks[position]))
        if len(records) < self._per_block:
            slot = bisect.bisect_left(records, (key,))
            if slot < len(records) and records[slot][0] == key:
                raise ValueError(f"duplicate key {key}")
            records.insert(slot, (key, value))
            self._write_data(position, records)
            if slot == 0:
                self._index_keys[position] = key
                self._rewrite_index()
        else:
            self._append_overflow(position, (key, value))
        self._record_count += 1
        if self._overflow_records > self.rebuild_overflow_ratio * max(
            1, self._record_count
        ):
            self.rebuild()

    def update(self, key: int, value: int) -> None:
        position = self._locate_block(key)
        if position is None:
            raise KeyError(key)
        records = list(self.device.read(self._data_blocks[position]))
        index = find_in_block(records, key)
        if index is not None:
            records[index] = (key, value)
            self._write_data(position, records)
            return
        for overflow_id in self._overflow[position]:
            chain_records = list(self.device.read(overflow_id))
            for chain_index, (record_key, _) in enumerate(chain_records):
                if record_key == key:
                    chain_records[chain_index] = (key, value)
                    self.device.write(
                        overflow_id,
                        chain_records,
                        used_bytes=len(chain_records) * RECORD_BYTES,
                    )
                    return
        raise KeyError(key)

    def delete(self, key: int) -> None:
        position = self._locate_block(key)
        if position is None:
            raise KeyError(key)
        records = list(self.device.read(self._data_blocks[position]))
        index = find_in_block(records, key)
        if index is not None:
            records.pop(index)
            self._write_data(position, records)
            self._record_count -= 1
            return
        for overflow_id in self._overflow[position]:
            chain_records = list(self.device.read(overflow_id))
            for chain_index, (record_key, _) in enumerate(chain_records):
                if record_key == key:
                    chain_records.pop(chain_index)
                    self.device.write(
                        overflow_id,
                        chain_records,
                        used_bytes=len(chain_records) * RECORD_BYTES,
                    )
                    self._overflow_records -= 1
                    self._record_count -= 1
                    return
        raise KeyError(key)

    def maintenance(self) -> None:
        """Fold overflow chains back into the primary layout."""
        if self._overflow_records:
            self.rebuild()

    def rebuild(self) -> None:
        """Merge overflow chains back into a clean sorted layout."""
        records: List[Record] = []
        for position, block_id in enumerate(self._data_blocks):
            records.extend(self.device.read(block_id))
            for overflow_id in self._overflow[position]:
                records.extend(self.device.read(overflow_id))
        records.sort(key=lambda record: record[0])
        self._teardown()
        self._install(records)

    # ------------------------------------------------------------------
    @property
    def overflow_records(self) -> int:
        return self._overflow_records

    def index_bytes(self) -> int:
        """Device space occupied by the sparse index blocks."""
        return len(self._index_blocks) * self.device.block_bytes

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------
    def _audit_structure(self) -> List[str]:
        """Stride coverage: separators strictly increase, every record in
        stride ``i`` (data block plus its overflow chain) falls inside
        ``[index_keys[i], index_keys[i+1])`` — stride 0 is unbounded
        below — and the on-device index blocks mirror the in-memory
        entries exactly."""
        violations: List[str] = []
        device = self.device
        if not (
            len(self._data_blocks) == len(self._overflow) == len(self._index_keys)
        ):
            violations.append(
                f"parallel arrays disagree: {len(self._data_blocks)} data "
                f"blocks, {len(self._overflow)} overflow chains, "
                f"{len(self._index_keys)} separators"
            )
            return violations
        if any(
            left >= right
            for left, right in zip(self._index_keys, self._index_keys[1:])
        ):
            violations.append("index separators are not strictly increasing")
        for kind, expected in (
            ("sparse-data", list(self._data_blocks)),
            ("sparse-overflow", [b for chain in self._overflow for b in chain]),
            ("sparse-index", list(self._index_blocks)),
        ):
            if len(set(expected)) != len(expected):
                violations.append(f"{kind} block id referenced twice")
            on_device = {
                block_id
                for block_id in device.iter_block_ids()
                if device.kind_of(block_id) == kind
            }
            if on_device != set(expected):
                violations.append(
                    f"{kind} mismatch: tracked-only "
                    f"{sorted(set(expected) - on_device)}, device-only "
                    f"{sorted(on_device - set(expected))}"
                )
        total = 0
        overflow_total = 0
        last = len(self._data_blocks) - 1
        for position, data_id in enumerate(self._data_blocks):
            lo = None if position == 0 else self._index_keys[position]
            hi = None if position == last else self._index_keys[position + 1]
            stride_blocks = [("data", data_id)] + [
                ("overflow", block_id) for block_id in self._overflow[position]
            ]
            for role, block_id in stride_blocks:
                if not device.is_allocated(block_id):
                    continue
                payload = device.peek(block_id)
                if payload is None:
                    payload = []
                if not isinstance(payload, list):
                    violations.append(
                        f"stride {position}: {role} block {block_id} payload "
                        f"is not a record list"
                    )
                    continue
                if len(payload) > self._per_block:
                    violations.append(
                        f"stride {position}: {role} block {block_id} holds "
                        f"{len(payload)} records, capacity {self._per_block}"
                    )
                declared = device.used_bytes_of(block_id)
                if declared != len(payload) * RECORD_BYTES:
                    violations.append(
                        f"stride {position}: {role} block {block_id} declares "
                        f"{declared}B != {len(payload)} records x {RECORD_BYTES}B"
                    )
                try:
                    keys = [record_key for record_key, _ in payload]
                except (TypeError, ValueError):
                    violations.append(
                        f"stride {position}: {role} block {block_id} malformed"
                    )
                    continue
                if role == "data" and keys != sorted(set(keys)):
                    violations.append(
                        f"stride {position}: data block {block_id} keys "
                        f"are not strictly sorted"
                    )
                for key in keys:
                    if (lo is not None and key < lo) or (
                        hi is not None and key >= hi
                    ):
                        violations.append(
                            f"stride {position}: key {key} outside "
                            f"[{lo}, {hi})"
                        )
                total += len(keys)
                if role == "overflow":
                    overflow_total += len(keys)
        if overflow_total != self._overflow_records:
            violations.append(
                f"overflow chains hold {overflow_total} records, counter "
                f"says {self._overflow_records}"
            )
        if total != self._record_count:
            violations.append(
                f"strides hold {total} records, record count says "
                f"{self._record_count}"
            )
        entries = list(zip(self._index_keys, self._data_blocks))
        for block_index, block_id in enumerate(self._index_blocks):
            if not device.is_allocated(block_id):
                continue
            chunk = entries[
                block_index
                * self._entries_per_block : (block_index + 1)
                * self._entries_per_block
            ]
            payload = device.peek(block_id)
            stored = [tuple(entry) for entry in payload] if payload else []
            if stored != chunk:
                violations.append(
                    f"index block {block_id} is stale: stores {len(stored)} "
                    f"entries, memory says {len(chunk)}"
                )
            declared = device.used_bytes_of(block_id)
            if payload is not None and declared != len(payload) * ENTRY_BYTES:
                violations.append(
                    f"index block {block_id} declares {declared}B != "
                    f"{len(payload)} entries x {ENTRY_BYTES}B"
                )
        return violations

    # ------------------------------------------------------------------
    def _install(self, records: List[Record]) -> None:
        self._data_blocks = []
        self._overflow = []
        self._index_keys = []
        self._overflow_records = 0
        for start in range(0, len(records), self._per_block):
            chunk = records[start : start + self._per_block]
            with self._fresh_block("sparse-data") as block_id:
                self.device.write(
                    block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES
                )
            self._data_blocks.append(block_id)
            self._overflow.append([])
            self._index_keys.append(chunk[0][0])
        self._rewrite_index()

    def _teardown(self) -> None:
        for block_id in self._data_blocks:
            self.device.free(block_id)
        for chain in self._overflow:
            for block_id in chain:
                self.device.free(block_id)
        for block_id in self._index_blocks:
            self.device.free(block_id)
        self._index_blocks = []

    def _rewrite_index(self) -> None:
        """Materialize the sparse entries into device blocks."""
        entries = list(zip(self._index_keys, self._data_blocks))
        needed = max(1, -(-len(entries) // self._entries_per_block)) if entries else 0
        while len(self._index_blocks) < needed:
            self._index_blocks.append(self.device.allocate(kind="sparse-index"))
        while len(self._index_blocks) > needed:
            self.device.free(self._index_blocks.pop())
        for block_index, block_id in enumerate(self._index_blocks):
            chunk = entries[
                block_index
                * self._entries_per_block : (block_index + 1)
                * self._entries_per_block
            ]
            self.device.write(block_id, chunk, used_bytes=len(chunk) * ENTRY_BYTES)

    def _locate_block(self, key: int) -> Optional[int]:
        """Binary search the on-device index for the covering data block."""
        if not self._index_blocks:
            return None
        # Read index blocks along a binary search over their span.
        lo_block, hi_block = 0, len(self._index_blocks) - 1
        while lo_block < hi_block:
            mid = (lo_block + hi_block + 1) // 2
            entries = self.device.read(self._index_blocks[mid])
            if entries and entries[0][0] <= key:
                lo_block = mid
            else:
                hi_block = mid - 1
        entries = self.device.read(self._index_blocks[lo_block])
        keys = [entry_key for entry_key, _ in entries]
        offset = bisect.bisect_right(keys, key) - 1
        position = lo_block * self._entries_per_block + max(0, offset)
        return min(position, len(self._data_blocks) - 1)

    def _write_data(self, position: int, records: List[Record]) -> None:
        self.device.write(
            self._data_blocks[position],
            records,
            used_bytes=len(records) * RECORD_BYTES,
        )

    def _append_overflow(self, position: int, record: Record) -> None:
        chain = self._overflow[position]
        if chain:
            last = chain[-1]
            records = list(self.device.read(last))
            if len(records) < self._per_block:
                records.append(record)
                self.device.write(
                    last, records, used_bytes=len(records) * RECORD_BYTES
                )
                self._overflow_records += 1
                return
        with self._fresh_block("sparse-overflow") as block_id:
            self.device.write(block_id, [record], used_bytes=RECORD_BYTES)
        chain.append(block_id)
        self._overflow_records += 1
