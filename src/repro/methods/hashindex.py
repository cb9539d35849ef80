"""Hash index — the paper's Table 1 "Perfect Hash Index" row.

Records hashed into bucket blocks; the bucket directory lives in memory
(its bytes are charged to the structure's space footprint), so a point
query costs O(1) block reads — the best point-query complexity in
Table 1 — while a range query must read every bucket, O(N/B), the worst.

Two sizing modes:

* ``static`` ("perfect"): bulk load sizes the directory so every bucket
  fits one block and never chains; inserts that overflow a bucket chain
  into overflow blocks (amortized O(1)).
* ``resizable``: the directory doubles when the average load exceeds the
  threshold, rehashing all buckets (linear, but amortized O(1) per
  insert).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.filters.bloom import _mix
from repro.obs.spans import spanned
from repro.storage.device import SimulatedDevice
from repro.storage.layout import POINTER_BYTES, RECORD_BYTES, records_per_block


class HashIndex(AccessMethod):
    """Bucket-chained hash index over the device.

    Parameters
    ----------
    initial_buckets:
        Directory size before any data is loaded (resizable mode) or the
        fallback when bulk loading an empty dataset.
    load_factor_limit:
        Average records per bucket slot (relative to one block's
        capacity) that triggers a directory doubling; ``None`` freezes
        the directory ("perfect"/static mode after bulk load).
    """

    name = "hash-index"
    capabilities = Capabilities(ordered=False, updatable=True, checks_duplicates=False)

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        initial_buckets: int = 16,
        load_factor_limit: Optional[float] = 0.75,
    ) -> None:
        super().__init__(device)
        if initial_buckets < 1:
            raise ValueError("initial_buckets must be positive")
        self._per_block = records_per_block(self.device.block_bytes)
        self.load_factor_limit = load_factor_limit
        # directory[i] is the chain of block ids for bucket i.
        self._directory: List[List[int]] = []
        self._init_directory(initial_buckets)

    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        records = list(items)
        # "Perfect" sizing: one block per bucket at ~2/3 occupancy.
        target = max(1, -(-len(records) * 3 // (2 * self._per_block)))
        buckets = 1
        while buckets < target:
            buckets *= 2
        self._reset_directory(buckets)
        groups: List[List[Record]] = [[] for _ in range(buckets)]
        for key, value in records:
            groups[self._bucket_of(key, buckets)].append((key, value))
        for bucket_index, group in enumerate(groups):
            self._write_chain(bucket_index, group)
        self._record_count = len(records)

    @spanned("hash.probe")
    def get(self, key: int) -> Optional[int]:
        # The chain walk of _probe_location without its block copies and
        # position bookkeeping, which only update and delete need.
        for block_id in self._directory[self._bucket_of(key)]:
            for record_key, value in self.device.read(block_id):
                if record_key == key:
                    return value
        return None

    def range_query(self, lo: int, hi: int) -> List[Record]:
        # Hashing destroys order: a range query reads every bucket.
        matches: List[Record] = []
        for chain in self._directory:
            for block_id in chain:
                matches.extend(
                    (key, value)
                    for key, value in self.device.read(block_id)
                    if lo <= key <= hi
                )
        matches.sort(key=lambda record: record[0])
        return matches

    def insert(self, key: int, value: int) -> None:
        bucket_index = self._bucket_of(key)
        chain = self._directory[bucket_index]
        if chain:
            last_id = chain[-1]
            records = list(self.device.read(last_id))
            if len(records) < self._per_block:
                records.append((key, value))
                self._write_block(last_id, records)
            else:
                self._append_to_chain(bucket_index, [(key, value)])
        else:
            self._append_to_chain(bucket_index, [(key, value)])
        self._record_count += 1
        self._maybe_grow()

    def update(self, key: int, value: int) -> None:
        location = self._probe_location(key)
        if location is None:
            raise KeyError(key)
        _position, block_id, index, records = location
        records[index] = (key, value)
        self._write_block(block_id, records)

    def delete(self, key: int) -> None:
        location = self._probe_location(key)
        if location is None:
            raise KeyError(key)
        position, block_id, index, records = location
        chain = self._directory[self._bucket_of(key)]
        records.pop(index)
        if not records and len(chain) > 1:
            self.device.free(block_id)
            chain.pop(position)
        else:
            self._write_block(block_id, records)
        self._record_count -= 1

    # ------------------------------------------------------------------
    def space_bytes(self) -> int:
        """Blocks plus the in-memory directory (one pointer per bucket)."""
        return self.device.allocated_bytes + len(self._directory) * POINTER_BYTES

    @property
    def buckets(self) -> int:
        return len(self._directory)

    def chain_lengths(self) -> List[int]:
        """Blocks per bucket — 1 everywhere means truly 'perfect'."""
        return [len(chain) for chain in self._directory]

    # ------------------------------------------------------------------
    def _init_directory(self, buckets: int) -> None:
        self._directory = [[] for _ in range(buckets)]

    def _reset_directory(self, buckets: int) -> None:
        for chain in self._directory:
            for block_id in chain:
                self.device.free(block_id)
        self._init_directory(buckets)

    def _bucket_of(self, key: int, buckets: Optional[int] = None) -> int:
        return _mix(key, 0xB0CE) % (buckets or len(self._directory))

    @spanned("hash.probe")
    def _probe_location(
        self, key: int
    ) -> Optional[Tuple[int, int, int, List[Record]]]:
        """Walk the key's bucket chain; return (chain position, block id,
        index in block, block's records) for the first match."""
        for position, block_id in enumerate(self._directory[self._bucket_of(key)]):
            records = list(self.device.read(block_id))
            for index, (record_key, _) in enumerate(records):
                if record_key == key:
                    return position, block_id, index, records
        return None

    def _append_to_chain(self, bucket_index: int, records: List[Record]) -> None:
        with self._fresh_block("bucket") as block_id:
            self._write_block(block_id, records)
        self._directory[bucket_index].append(block_id)

    def _write_chain(self, bucket_index: int, records: List[Record]) -> None:
        for start in range(0, len(records), self._per_block):
            self._append_to_chain(bucket_index, records[start : start + self._per_block])
        if not records:
            # Pre-allocate one block per bucket so probes cost exactly one
            # read even for empty buckets, as a real static hash table does.
            self._append_to_chain(bucket_index, [])

    def _write_block(self, block_id: int, records: List[Record]) -> None:
        self.device.write(block_id, records, used_bytes=len(records) * RECORD_BYTES)

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------
    def _audit_structure(self) -> List[str]:
        """Bucket-chain integrity: every record hashes to the chain it
        sits in, no empty blocks linger in multi-block chains, and the
        directory's blocks are exactly the device's bucket blocks."""
        violations: List[str] = []
        device = self.device
        referenced = [block_id for chain in self._directory for block_id in chain]
        if len(set(referenced)) != len(referenced):
            violations.append("bucket block id referenced twice")
        on_device = {
            block_id
            for block_id in device.iter_block_ids()
            if device.kind_of(block_id) == "bucket"
        }
        if on_device != set(referenced):
            violations.append(
                f"chain/device mismatch: chains-only "
                f"{sorted(set(referenced) - on_device)}, device-only "
                f"{sorted(on_device - set(referenced))}"
            )
        total = 0
        for bucket_index, chain in enumerate(self._directory):
            for block_id in chain:
                if block_id not in on_device:
                    continue
                payload = device.peek(block_id)
                if payload is None:
                    payload = []
                if not isinstance(payload, list):
                    violations.append(
                        f"bucket {bucket_index}: block {block_id} payload "
                        f"is not a record list"
                    )
                    continue
                if len(payload) > self._per_block:
                    violations.append(
                        f"bucket {bucket_index}: block {block_id} holds "
                        f"{len(payload)} records, capacity {self._per_block}"
                    )
                if not payload and len(chain) > 1:
                    violations.append(
                        f"bucket {bucket_index}: empty block {block_id} "
                        f"in a multi-block chain"
                    )
                declared = device.used_bytes_of(block_id)
                if declared != len(payload) * RECORD_BYTES:
                    violations.append(
                        f"bucket {bucket_index}: block {block_id} declares "
                        f"{declared}B != {len(payload)} records x {RECORD_BYTES}B"
                    )
                try:
                    for key, _ in payload:
                        home = self._bucket_of(key)
                        if home != bucket_index:
                            violations.append(
                                f"bucket {bucket_index}: key {key} hashes "
                                f"to bucket {home}"
                            )
                except (TypeError, ValueError):
                    violations.append(
                        f"bucket {bucket_index}: block {block_id} malformed"
                    )
                total += len(payload)
        if total != self._record_count:
            violations.append(
                f"chains hold {total} records, record count says "
                f"{self._record_count}"
            )
        if self.load_factor_limit is not None:
            capacity = len(self._directory) * self._per_block
            if capacity and self._record_count / capacity > self.load_factor_limit:
                violations.append(
                    f"load factor {self._record_count / capacity:.3f} "
                    f"exceeds limit {self.load_factor_limit}"
                )
        return violations

    def _maybe_grow(self) -> None:
        if self.load_factor_limit is None:
            return
        capacity = len(self._directory) * self._per_block
        if capacity and self._record_count / capacity <= self.load_factor_limit:
            return
        self._grow()

    @spanned("hash.rehash")
    def _grow(self) -> None:
        # Double the directory and rehash everything (linear, amortized
        # O(1) per insert — the textbook resizable hashing cost).
        records: List[Record] = []
        for chain in self._directory:
            for block_id in chain:
                records.extend(self.device.read(block_id))
        new_buckets = len(self._directory) * 2
        self._reset_directory(new_buckets)
        groups: List[List[Record]] = [[] for _ in range(new_buckets)]
        for key, value in records:
            groups[self._bucket_of(key, new_buckets)].append((key, value))
        for bucket_index, group in enumerate(groups):
            self._write_chain(bucket_index, group)
