"""Bitmap index with WAH compression and an update-friendly variant.

The paper invokes bitmap indexes twice: compressed bitmaps are its prime
example of trading *computation* for space ("the use of compression in
bitmap indexes", Section 1), and "update-friendly bitmap indexes, where
updates are absorbed using additional, highly compressible, bitvectors
which are gradually merged" is one of its Section-5 RUM-aware designs.
Both are implemented here:

* :class:`BitVector` — plain uncompressed bitset.
* :class:`WAHBitVector` — Word-Aligned Hybrid compression (the FastBit
  scheme): 31-bit literal words and run-length fill words.
* :class:`BitmapIndex` — a low-cardinality secondary index over a base
  row store: one bitmap per distinct value, an existence bitmap for
  deletes, and (in update-friendly mode) per-value *delta* bitvectors
  that absorb updates and merge when they grow.

The benchmark E10 compares compressed vs uncompressed space and the cost
of value lookups; the update-friendly mode is the E10 companion ablation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.storage.device import SimulatedDevice
from repro.storage.layout import RECORD_BYTES, records_per_block

_WORD_BITS = 31  # payload bits per WAH word (1 flag bit + 31 data bits)


class BitVector:
    """A growable uncompressed bitset."""

    def __init__(self) -> None:
        self._bits = bytearray()
        self.length = 0

    def set(self, position: int, value: bool = True) -> None:
        """Set (or with value=False, clear) one bit."""
        if position < 0:
            raise ValueError("bit positions are non-negative")
        byte = position >> 3
        while byte >= len(self._bits):
            self._bits.append(0)
        if value:
            self._bits[byte] |= 1 << (position & 7)
        else:
            self._bits[byte] &= ~(1 << (position & 7))
        self.length = max(self.length, position + 1)

    def get(self, position: int) -> bool:
        """Whether the bit at ``position`` is set."""
        byte = position >> 3
        if byte >= len(self._bits):
            return False
        return bool(self._bits[byte] & (1 << (position & 7)))

    def positions(self) -> List[int]:
        """Sorted list of set-bit positions."""
        result = []
        for byte_index, byte in enumerate(self._bits):
            if not byte:
                continue
            base = byte_index << 3
            for bit in range(8):
                if byte & (1 << bit):
                    result.append(base + bit)
        return result

    def count(self) -> int:
        """Number of set bits."""
        return sum(bin(byte).count("1") for byte in self._bits)

    @property
    def size_bytes(self) -> int:
        return len(self._bits)


class WAHBitVector:
    """Word-Aligned Hybrid compressed bitvector (Wu et al., FastBit).

    Encoding: a list of 32-bit words.  A *literal* word stores 31 raw
    bits; a *fill* word stores a run of identical 31-bit groups (bit
    value + run length).  Long runs of zeros — the common case for
    low-cardinality bitmaps — compress to a single word.
    """

    def __init__(self) -> None:
        # Decoded model: sorted set of positions, plus the encoded form
        # regenerated lazily.  Encoding is what space accounting uses;
        # operations decode/re-encode, charging the CPU the paper notes.
        self._positions: Set[int] = set()
        self.length = 0

    def set(self, position: int, value: bool = True) -> None:
        """Set (or with value=False, clear) one bit."""
        if position < 0:
            raise ValueError("bit positions are non-negative")
        if value:
            self._positions.add(position)
        else:
            self._positions.discard(position)
        self.length = max(self.length, position + 1)

    def get(self, position: int) -> bool:
        """Whether the bit at ``position`` is set."""
        return position in self._positions

    def positions(self) -> List[int]:
        """Sorted list of set-bit positions."""
        return sorted(self._positions)

    def count(self) -> int:
        """Number of set bits."""
        return len(self._positions)

    def encode(self) -> List[int]:
        """Produce the WAH word stream for the current contents."""
        words: List[int] = []
        total_groups = (self.length + _WORD_BITS - 1) // _WORD_BITS or 0
        positions = self.positions()
        cursor = 0
        pending_fill_bit: Optional[int] = None
        pending_fill_len = 0

        def flush_fill() -> None:
            nonlocal pending_fill_bit, pending_fill_len
            if pending_fill_len:
                # Fill word: top bit 1, next bit the fill value, rest length.
                words.append(
                    (1 << 31) | (pending_fill_bit << 30) | pending_fill_len
                )
                pending_fill_bit = None
                pending_fill_len = 0

        for group in range(total_groups):
            group_lo = group * _WORD_BITS
            group_hi = group_lo + _WORD_BITS
            literal = 0
            while cursor < len(positions) and positions[cursor] < group_hi:
                literal |= 1 << (positions[cursor] - group_lo)
                cursor += 1
            if literal == 0:
                if pending_fill_bit == 0:
                    pending_fill_len += 1
                else:
                    flush_fill()
                    pending_fill_bit, pending_fill_len = 0, 1
            elif literal == (1 << _WORD_BITS) - 1:
                if pending_fill_bit == 1:
                    pending_fill_len += 1
                else:
                    flush_fill()
                    pending_fill_bit, pending_fill_len = 1, 1
            else:
                flush_fill()
                words.append(literal)
        flush_fill()
        return words

    @classmethod
    def decode(cls, words: List[int], length: int) -> "WAHBitVector":
        """Rebuild a bitvector from its WAH word stream."""
        vector = cls()
        group = 0
        for word in words:
            if word >> 31:
                fill_bit = (word >> 30) & 1
                run = word & ((1 << 30) - 1)
                if fill_bit:
                    for g in range(group, group + run):
                        base = g * _WORD_BITS
                        for bit in range(_WORD_BITS):
                            vector._positions.add(base + bit)
                group += run
            else:
                base = group * _WORD_BITS
                for bit in range(_WORD_BITS):
                    if word & (1 << bit):
                        vector._positions.add(base + bit)
                group += 1
        vector.length = length
        # Trim phantom bits beyond the logical length.
        vector._positions = {p for p in vector._positions if p < length}
        return vector

    @property
    def size_bytes(self) -> int:
        return 4 * len(self.encode())


class BitmapIndex(AccessMethod):
    """Secondary bitmap index over an append-ordered base row store.

    The *key* is the record id; the *value* is the indexed low-cardinality
    attribute.  Besides the standard :class:`AccessMethod` operations, the
    class offers :meth:`lookup_value` — the query bitmaps exist for.

    Parameters
    ----------
    compressed:
        Use WAH-compressed bitmaps (True) or plain bitsets (False) —
        the E10 ablation switch.
    update_friendly:
        Absorb bit changes into small per-value delta vectors, merging
        them into the main bitmap only when they exceed
        ``delta_merge_bits`` set bits (the paper's Section-5 design).
    """

    name = "bitmap"
    capabilities = Capabilities(ordered=False, updatable=True, checks_duplicates=False)
    # WAH compression can legitimately pack records below RECORD_BYTES
    # apiece, so the generic space-covers-records audit does not apply.
    audit_space_covers_records = False

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        compressed: bool = True,
        update_friendly: bool = False,
        delta_merge_bits: int = 64,
    ) -> None:
        super().__init__(device)
        self.compressed = compressed
        self.update_friendly = update_friendly
        self.delta_merge_bits = delta_merge_bits
        self._per_block = records_per_block(self.device.block_bytes)
        self._base_blocks: List[int] = []
        self._rows = 0  # total row slots, including dead rows
        self._vectors: Dict[int, object] = {}  # value -> bitmap
        self._deltas: Dict[int, Tuple[BitVector, BitVector]] = {}  # (sets, clears)
        self._live = self._new_vector()  # existence bitmap
        self._bitmap_blocks: Dict[int, List[int]] = {}  # value -> device blocks
        self._free_positions: List[int] = []  # row slots vacated by deletes

    # ------------------------------------------------------------------
    # AccessMethod operations (key = record id)
    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        rows = list(items)
        for start in range(0, len(rows), self._per_block):
            chunk = rows[start : start + self._per_block]
            block_id = self.device.allocate(kind="bitmap-base")
            self.device.write(block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES)
            self._base_blocks.append(block_id)
        for position, (key, value) in enumerate(rows):
            # Bulk bits go straight into the main bitmaps (no deltas).
            if value not in self._vectors:
                self._vectors[value] = self._new_vector()
            self._vectors[value].set(position, True)
            self._live.set(position, True)
        self._rows = len(rows)
        self._record_count = self._rows
        self._materialize_all()

    def get(self, key: int) -> Optional[int]:
        position = self._position_of(key)
        if position is None:
            return None
        row = self._read_row(position)
        return row[1] if row is not None else None

    def range_query(self, lo: int, hi: int) -> List[Record]:
        matches: List[Record] = []
        for block_index, block_id in enumerate(self._base_blocks):
            rows = self.device.read(block_id)
            base = block_index * self._per_block
            for offset, row in enumerate(rows):
                if row is None:
                    continue
                key, value = row
                if lo <= key <= hi and self._is_live(base + offset):
                    matches.append((key, value))
        matches.sort(key=lambda record: record[0])
        return matches

    def insert(self, key: int, value: int) -> None:
        # Reuse a slot vacated by a delete before growing the row store,
        # keeping the footprint bounded under churn.
        if self._free_positions:
            position = self._free_positions.pop()
            self._write_row(position, (key, value))
        else:
            position = self._append_row(key, value)
        self._record_count += 1
        self._set_bit(value, position, True)
        self._live.set(position, True)
        self._materialize(value)

    def update(self, key: int, value: int) -> None:
        position = self._position_of(key)
        if position is None:
            raise KeyError(key)
        row = self._read_row(position)
        old_value = row[1]
        self._write_row(position, (key, value))
        if old_value != value:
            self._set_bit(old_value, position, False)
            self._set_bit(value, position, True)
            self._materialize(old_value)
            self._materialize(value)

    def delete(self, key: int) -> None:
        position = self._position_of(key)
        if position is None:
            raise KeyError(key)
        row = self._read_row(position)
        self._set_bit(row[1], position, False)
        self._live.set(position, False)
        self._write_row(position, None)
        self._free_positions.append(position)
        self._record_count -= 1
        self._materialize(row[1])

    # ------------------------------------------------------------------
    # The bitmap query
    # ------------------------------------------------------------------
    def lookup_value(self, value: int) -> List[Record]:
        """All live records whose attribute equals ``value``.

        Reads the value's bitmap blocks, then exactly the base blocks
        holding matching rows — the bitmap read pattern.
        """
        for block_id in self._bitmap_blocks.get(value, []):
            self.device.read(block_id)
        positions = self._effective_positions(value)
        matches: List[Record] = []
        touched_blocks: Dict[int, List] = {}
        for position in positions:
            block_index = position // self._per_block
            if block_index not in touched_blocks:
                touched_blocks[block_index] = self.device.read(
                    self._base_blocks[block_index]
                )
            row = touched_blocks[block_index][position % self._per_block]
            if row is not None:
                matches.append(row)
        matches.sort(key=lambda record: record[0])
        return matches

    def distinct_values(self) -> List[int]:
        """Attribute values that currently have a bitmap."""
        return sorted(self._vectors)

    def bitmap_bytes(self) -> int:
        """Space of all bitmaps (compressed size when compression is on)."""
        total = sum(vector.size_bytes for vector in self._vectors.values())
        total += self._live.size_bytes
        for sets, clears in self._deltas.values():
            total += sets.size_bytes + clears.size_bytes
        return total

    def space_bytes(self) -> int:
        return self.device.allocated_bytes

    # ------------------------------------------------------------------
    # Bit maintenance
    # ------------------------------------------------------------------
    def _new_vector(self):
        return WAHBitVector() if self.compressed else BitVector()

    def _set_bit(self, value: int, position: int, bit: bool) -> None:
        if value not in self._vectors:
            self._vectors[value] = self._new_vector()
        if self.update_friendly:
            sets, clears = self._deltas.setdefault(
                value, (BitVector(), BitVector())
            )
            if bit:
                sets.set(position, True)
                clears.set(position, False)
            else:
                clears.set(position, True)
                sets.set(position, False)
            if sets.count() + clears.count() >= self.delta_merge_bits:
                self._merge_delta(value)
        else:
            self._vectors[value].set(position, bit)

    def _merge_delta(self, value: int) -> None:
        sets, clears = self._deltas.pop(value, (BitVector(), BitVector()))
        vector = self._vectors[value]
        for position in sets.positions():
            vector.set(position, True)
        for position in clears.positions():
            vector.set(position, False)

    def _effective_positions(self, value: int) -> List[int]:
        vector = self._vectors.get(value)
        base = set(vector.positions()) if vector is not None else set()
        delta = self._deltas.get(value)
        if delta is not None:
            sets, clears = delta
            base |= set(sets.positions())
            base -= set(clears.positions())
        return sorted(position for position in base if self._is_live(position))

    def _is_live(self, position: int) -> bool:
        return self._live.get(position)

    # ------------------------------------------------------------------
    # Device materialization of bitmaps
    # ------------------------------------------------------------------
    def _materialize(self, value: int) -> None:
        """Write a bitmap's bytes to device blocks (space + write I/O).

        A bitmap left with no set bits and no pending deltas is dropped
        entirely — its blocks are freed, so churn over many distinct
        values cannot leak space.
        """
        vector = self._vectors.get(value)
        if vector is None:
            return
        delta = self._deltas.get(value)
        if vector.count() == 0 and delta is None:
            for block_id in self._bitmap_blocks.pop(value, []):
                self.device.free(block_id)
            del self._vectors[value]
            return
        payload_bytes = vector.size_bytes
        if delta is not None:
            payload_bytes += delta[0].size_bytes + delta[1].size_bytes
        needed = max(1, -(-payload_bytes // self.device.block_bytes))
        blocks = self._bitmap_blocks.setdefault(value, [])
        while len(blocks) < needed:
            blocks.append(self.device.allocate(kind="bitmap"))
        while len(blocks) > needed:
            self.device.free(blocks.pop())
        remaining = payload_bytes
        for block_id in blocks:
            chunk = min(remaining, self.device.block_bytes)
            self.device.write(block_id, ("bitmap", value), used_bytes=chunk)
            remaining -= chunk

    def _materialize_all(self) -> None:
        for value in self._vectors:
            self._materialize(value)

    # ------------------------------------------------------------------
    # Base row store
    # ------------------------------------------------------------------
    def _append_row(self, key: int, value: int) -> int:
        position = self._rows
        block_index = position // self._per_block
        if block_index >= len(self._base_blocks):
            block_id = self.device.allocate(kind="bitmap-base")
            self.device.write(block_id, [], used_bytes=0)
            self._base_blocks.append(block_id)
        rows = list(self.device.read(self._base_blocks[block_index]))
        rows.append((key, value))
        self.device.write(
            self._base_blocks[block_index],
            rows,
            used_bytes=len(rows) * RECORD_BYTES,
        )
        self._rows += 1
        return position

    def _position_of(self, key: int) -> Optional[int]:
        for block_index, block_id in enumerate(self._base_blocks):
            rows = self.device.read(block_id)
            for offset, row in enumerate(rows):
                if row is not None and row[0] == key:
                    position = block_index * self._per_block + offset
                    if self._is_live(position):
                        return position
        return None

    def _read_row(self, position: int):
        block_index = position // self._per_block
        rows = self.device.read(self._base_blocks[block_index])
        return rows[position % self._per_block]

    def _write_row(self, position: int, row) -> None:
        block_index = position // self._per_block
        block_id = self._base_blocks[block_index]
        rows = list(self.device.read(block_id))
        rows[position % self._per_block] = row
        live_rows = sum(1 for r in rows if r is not None)
        self.device.write(block_id, rows, used_bytes=live_rows * RECORD_BYTES)
