"""Secondary indexing over a heap file — the paper's introduction example.

"When data is stored in a heap file without an index, we have to
perform costly scans to locate any data we are interested in.
Conversely, a tree index on top of the heap file, uses additional space
in order to substitute the scan with a more lightweight index probe."

:class:`IndexedHeap` is that composition, literally: base data lives in
an append-ordered heap of blocks; an *auxiliary* index maps each key to
its heap position (block, slot).  Point and range queries probe the
index and then read exactly the qualifying heap blocks; updates touch
the heap in place plus the index when positions change.  The RUM
overheads of the composition decompose exactly as Section 2 defines
them: the index's accesses are the read overhead's auxiliary part, its
maintenance the update overhead's, its blocks the memory overhead's.

Two index flavours:

* ``index_kind="tree"`` — a B+-Tree of (key, position) entries: range
  queries become index scans + targeted heap reads;
* ``index_kind="hash"`` — a hash directory of positions: O(1) point
  probes, ranges fall back to heap scans.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.methods.btree import BPlusTree
from repro.methods.hashindex import HashIndex
from repro.storage.device import SimulatedDevice
from repro.storage.layout import RECORD_BYTES, records_per_block


class IndexedHeap(AccessMethod):
    """Heap-file base data plus a secondary position index.

    Parameters
    ----------
    index_kind:
        ``"tree"`` (B+-Tree secondary index) or ``"hash"``.
    """

    name = "indexed-heap"
    capabilities = Capabilities(ordered=True, updatable=True)

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        index_kind: str = "tree",
    ) -> None:
        super().__init__(device)
        if index_kind not in ("tree", "hash"):
            raise ValueError("index_kind must be 'tree' or 'hash'")
        self.index_kind = index_kind
        self._per_block = records_per_block(self.device.block_bytes)
        self._heap_blocks: List[int] = []
        self._tail_count = 0
        self._free_slots: List[int] = []  # heap positions vacated by deletes
        # The auxiliary index: key -> heap position, stored as records
        # in a structure of its own on the *same* device, so its blocks
        # are part of this structure's space footprint.
        if index_kind == "tree":
            self._index: AccessMethod = BPlusTree(device=self.device)
        else:
            self._index = HashIndex(device=self.device)

    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        records = list(items)
        positions: List[Tuple[int, int]] = []
        for start in range(0, len(records), self._per_block):
            chunk = records[start : start + self._per_block]
            block_id = self.device.allocate(kind="heap")
            self.device.write(block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES)
            self._heap_blocks.append(block_id)
            base = start
            positions.extend(
                (key, base + offset) for offset, (key, _) in enumerate(chunk)
            )
        self._tail_count = (
            len(records) - (len(self._heap_blocks) - 1) * self._per_block
            if records
            else 0
        )
        self._index.bulk_load(positions)
        self._record_count = len(records)

    def get(self, key: int) -> Optional[int]:
        position = self._index.get(key)
        if position is None:
            return None
        row = self._read_position(position)
        return row[1] if row is not None else None

    def range_query(self, lo: int, hi: int) -> List[Record]:
        if self.index_kind == "tree":
            # Unclustered-index fetch done right: collect the qualifying
            # heap positions first, then visit each heap block once in
            # position order (the bitmap-heap-scan trick) instead of one
            # random heap read per row.
            entries = self._index.range_query(lo, hi)
            by_block: Dict[int, List[Tuple[int, int]]] = {}
            for key, position in entries:
                by_block.setdefault(position // self._per_block, []).append(
                    (position % self._per_block, key)
                )
            matches: List[Record] = []
            for block_index in sorted(by_block):
                rows = self.device.read(self._heap_blocks[block_index])
                for slot, _ in by_block[block_index]:
                    if slot < len(rows) and rows[slot] is not None:
                        matches.append(rows[slot])
            matches.sort()
            return matches
        # Hash index cannot enumerate a range: scan the heap.
        matches = []
        for block_id in self._heap_blocks:
            rows = self.device.read(block_id)
            matches.extend(
                row for row in rows if row is not None and lo <= row[0] <= hi
            )
        matches.sort()
        return matches

    def insert(self, key: int, value: int) -> None:
        if self._index.get(key) is not None:
            raise ValueError(f"duplicate key {key}")
        position = self._append_row(key, value)
        self._index.insert(key, position)
        self._record_count += 1

    def update(self, key: int, value: int) -> None:
        position = self._index.get(key)
        if position is None:
            raise KeyError(key)
        # In-place heap write; the index is untouched (positions stable).
        self._write_position(position, (key, value))

    def delete(self, key: int) -> None:
        position = self._index.get(key)
        if position is None:
            raise KeyError(key)
        self._write_position(position, None)
        self._free_slots.append(position)
        self._index.delete(key)
        self._record_count -= 1

    # ------------------------------------------------------------------
    def _append_row(self, key: int, value: int) -> int:
        if self._free_slots:
            position = self._free_slots.pop()
            self._write_position(position, (key, value))
            return position
        if not self._heap_blocks or self._tail_count >= self._per_block:
            block_id = self.device.allocate(kind="heap")
            self.device.write(block_id, [(key, value)], used_bytes=RECORD_BYTES)
            self._heap_blocks.append(block_id)
            self._tail_count = 1
        else:
            block_id = self._heap_blocks[-1]
            rows = list(self.device.read(block_id))
            rows.append((key, value))
            self.device.write(
                block_id,
                rows,
                used_bytes=sum(1 for row in rows if row is not None)
                * RECORD_BYTES,
            )
            self._tail_count += 1
        return (len(self._heap_blocks) - 1) * self._per_block + self._tail_count - 1

    def _read_position(self, position: int) -> Optional[Record]:
        rows = self.device.read(self._heap_blocks[position // self._per_block])
        if position % self._per_block >= len(rows):
            return None
        return rows[position % self._per_block]

    def _write_position(self, position: int, row: Optional[Record]) -> None:
        block_id = self._heap_blocks[position // self._per_block]
        rows = list(self.device.read(block_id))
        rows[position % self._per_block] = row
        live = sum(1 for entry in rows if entry is not None)
        self.device.write(block_id, rows, used_bytes=live * RECORD_BYTES)
