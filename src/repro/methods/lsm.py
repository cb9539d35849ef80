"""Log-Structured Merge tree (O'Neil et al., 1996) — write-optimized corner.

The canonical differential structure of the paper's Section 4: updates
are absorbed in a memory buffer and migrated down a hierarchy of
exponentially larger sorted runs, so one logical update costs far less
than an in-place structure — at the price of read amplification (every
run may need probing) and space amplification (obsolete versions linger
until compaction).

Implemented knobs:

* ``size_ratio`` — the paper's T: capacity ratio between adjacent levels.
  Larger T means fewer levels (better reads) but more rewriting per merge
  (worse writes): the knob that slides the LSM along the R-U edge.
* ``compaction`` — ``"leveled"`` (one run per level, RocksDB-style,
  read-leaning) or ``"tiered"`` (up to T runs per level, write-leaning).
* ``bloom_bits_per_key`` — per-run Bloom filters; 0 disables them.  The
  E9 ablation: filters add memory overhead and cut read overhead.

Every run stores its records in contiguous data blocks with block-fence
keys and an optional Bloom filter, both *materialized in device blocks*
so that consulting them costs I/O and occupies space, as on a real
system.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.core.runs import block_slice, find_in_block
from repro.filters.bloom import BloomFilter
from repro.obs.spans import span, spanned
from repro.storage.device import SimulatedDevice
from repro.storage.layout import KEY_BYTES, RECORD_BYTES, records_per_block

#: Tombstone marker: a deleted key's "value" inside runs and memtable.
from repro.core.sentinels import TOMBSTONE


@dataclass
class _Run:
    """One immutable sorted run: data blocks + fences + optional filter."""

    data_blocks: List[int]
    fence_blocks: List[int]
    fence_directory: List[int]  # first fence key per fence block (in memory)
    bloom_blocks: List[int]
    bloom: Optional[BloomFilter]
    records: int
    min_key: int
    max_key: int


class LSMTree(AccessMethod):
    """A leveled or tiered LSM tree over the simulated device."""

    name = "lsm"
    capabilities = Capabilities(ordered=True, updatable=True)

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        memtable_records: int = 512,
        size_ratio: int = 4,
        compaction: str = "leveled",
        bloom_bits_per_key: int = 10,
    ) -> None:
        super().__init__(device)
        if memtable_records < 1:
            raise ValueError("memtable_records must be positive")
        if size_ratio < 2:
            raise ValueError("size_ratio (T) must be at least 2")
        if compaction not in ("leveled", "tiered"):
            raise ValueError("compaction must be 'leveled' or 'tiered'")
        if bloom_bits_per_key < 0:
            raise ValueError("bloom_bits_per_key must be non-negative")
        self.memtable_records = memtable_records
        self.size_ratio = size_ratio
        self.compaction = compaction
        self.bloom_bits_per_key = bloom_bits_per_key
        self._per_block = records_per_block(self.device.block_bytes)
        self._fences_per_block = max(1, self.device.block_bytes // KEY_BYTES)
        self._memtable: Dict[int, object] = {}
        self._levels: List[List[_Run]] = []  # levels[i] = runs, oldest first
        self._live_keys: Set[int] = set()

    # ------------------------------------------------------------------
    # Workload operations
    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        records = self._sorted_unique(items)
        if not records:
            return
        # Load straight into the bottommost level as one big run — the
        # standard bulk path, costing one sequential write of the data.
        level = 0
        capacity = self.memtable_records
        while capacity < len(records):
            capacity *= self.size_ratio
            level += 1
        while len(self._levels) <= level:
            self._levels.append([])
        self._levels[level].append(self._build_run(records))
        self._live_keys = {key for key, _ in records}
        self._record_count = len(records)

    def get(self, key: int) -> Optional[int]:
        if key in self._memtable:
            value = self._memtable[key]
            return None if value is TOMBSTONE else value
        for level_runs in self._levels:
            for run in reversed(level_runs):  # newest run first
                found, value = self._probe_run(run, key)
                if found:
                    return None if value is TOMBSTONE else value
        return None

    def range_query(self, lo: int, hi: int) -> List[Record]:
        # Newest-version-wins merge across memtable and every run.
        newest: Dict[int, object] = {}
        for key, value in self._memtable.items():
            if lo <= key <= hi:
                newest[key] = value
        for level_runs in self._levels:
            for run in reversed(level_runs):
                for key, value in self._scan_run(run, lo, hi):
                    if key not in newest:
                        newest[key] = value
        return sorted(
            (key, value)
            for key, value in newest.items()
            if value is not TOMBSTONE
        )

    def insert(self, key: int, value: int) -> None:
        if key in self._live_keys:
            raise ValueError(f"duplicate key {key}")
        self._put(key, value)
        self._live_keys.add(key)
        self._record_count += 1

    def update(self, key: int, value: int) -> None:
        if key not in self._live_keys:
            raise KeyError(key)
        self._put(key, value)

    def delete(self, key: int) -> None:
        if key not in self._live_keys:
            raise KeyError(key)
        self._put(key, TOMBSTONE)
        self._live_keys.discard(key)
        self._record_count -= 1

    # ------------------------------------------------------------------
    # Space accounting: device blocks plus the in-memory memtable.
    # ------------------------------------------------------------------
    def space_bytes(self) -> int:
        return self.device.allocated_bytes + len(self._memtable) * RECORD_BYTES

    # ------------------------------------------------------------------
    # Introspection for benchmarks
    # ------------------------------------------------------------------
    @property
    def levels(self) -> int:
        return len(self._levels)

    def runs_per_level(self) -> List[int]:
        """Run count at each level, top to bottom."""
        return [len(level_runs) for level_runs in self._levels]

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    @spanned("lsm.put")
    def _put(self, key: int, value: object) -> None:
        absent = key not in self._memtable
        previous = self._memtable.get(key)
        self._memtable[key] = value
        if len(self._memtable) >= self.memtable_records:
            try:
                self._flush_memtable()
            except BaseException:
                # A device fault aborted the flush before it cleared the
                # memtable; roll this operation's entry back so the
                # structure is exactly as it was before the call.
                if key in self._memtable:
                    if absent:
                        del self._memtable[key]
                    else:
                        self._memtable[key] = previous
                raise

    def flush(self) -> None:
        """Force the memtable down to level 0 (used before measuring MO)."""
        if self._memtable:
            self._flush_memtable()

    @spanned("lsm.flush")
    def _flush_memtable(self) -> None:
        records = sorted(self._memtable.items())
        if not self._levels:
            self._levels.append([])
        self._push_run(0, records)
        # Cleared only after the push succeeds: a fault mid-flush must
        # not lose the buffered updates.
        self._memtable = {}

    def _push_run(self, level: int, records: List[Tuple[int, object]]) -> None:
        """Install ``records`` as a run at ``level``, compacting as needed."""
        while len(self._levels) <= level:
            self._levels.append([])
        if self.compaction == "leveled":
            existing = self._levels[level]
            if existing:
                # Merging with resident runs is compaction work: the
                # span covers the drain, the rewrite and any cascade it
                # triggers, so per-level compaction bytes separate from
                # the flush's own run write (E7 attribution).
                with span(f"lsm.compaction.L{level}"):
                    merged = self._merge_record_lists(
                        [records]
                        + [self._drain_run(run) for run in reversed(existing)],
                        drop_tombstones=self._is_bottom(level),
                    )
                    self._levels[level] = []
                    self._install_merged(level, merged)
            else:
                merged = records
                if self._is_bottom(level):
                    merged = [
                        (key, value)
                        for key, value in merged
                        if value is not TOMBSTONE
                    ]
                self._install_merged(level, merged)
        else:  # tiered
            if records:
                self._levels[level].append(self._build_run(records))
            if len(self._levels[level]) >= self.size_ratio:
                with span(f"lsm.compaction.L{level}"):
                    runs = self._levels[level]
                    self._levels[level] = []
                    merged = self._merge_record_lists(
                        [self._drain_run(run) for run in reversed(runs)],
                        drop_tombstones=self._is_bottom(level + 1),
                    )
                    self._push_run(level + 1, merged)

    def _install_merged(
        self, level: int, merged: List[Tuple[int, object]]
    ) -> None:
        """Install a merged record list at ``level`` or cascade it down."""
        if len(merged) > self._level_capacity(level):
            # Over capacity: the run cascades down, deepening the
            # tree if needed (capacities grow by T per level, so the
            # recursion terminates).
            self._push_run(level + 1, merged)
        elif merged:
            self._levels[level].append(self._build_run(merged))

    def _is_bottom(self, level: int) -> bool:
        """True when no lower level holds data (tombstones can be dropped)."""
        for lower in range(level + 1, len(self._levels)):
            if self._levels[lower]:
                return False
        return True

    def _level_capacity(self, level: int) -> int:
        return self.memtable_records * (self.size_ratio ** (level + 1))

    @staticmethod
    def _merge_record_lists(
        lists_newest_first: List[List[Tuple[int, object]]], drop_tombstones: bool
    ) -> List[Tuple[int, object]]:
        """Merge sorted runs; the earliest list wins on key collisions."""
        merged: Dict[int, object] = {}
        for records in lists_newest_first:
            for key, value in records:
                if key not in merged:
                    merged[key] = value
        result = sorted(merged.items())
        if drop_tombstones:
            result = [(k, v) for k, v in result if v is not TOMBSTONE]
        return result

    # ------------------------------------------------------------------
    # Run storage
    # ------------------------------------------------------------------
    def _build_run(self, records: List[Tuple[int, object]]) -> _Run:
        data_blocks: List[int] = []
        fences: List[int] = []
        for start in range(0, len(records), self._per_block):
            chunk = records[start : start + self._per_block]
            with self._fresh_block("lsm-data") as block_id:
                self.device.write(
                    block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES
                )
            data_blocks.append(block_id)
            fences.append(chunk[0][0])
        fence_blocks: List[int] = []
        fence_directory: List[int] = []
        for start in range(0, len(fences), self._fences_per_block):
            chunk = fences[start : start + self._fences_per_block]
            with self._fresh_block("lsm-fence") as block_id:
                self.device.write(block_id, chunk, used_bytes=len(chunk) * KEY_BYTES)
            fence_blocks.append(block_id)
            fence_directory.append(chunk[0])
        bloom: Optional[BloomFilter] = None
        bloom_blocks: List[int] = []
        if self.bloom_bits_per_key > 0:
            fpr = max(1e-6, 0.6185 ** self.bloom_bits_per_key)  # (1/2^ln2)^bits
            bloom = BloomFilter(max(1, len(records)), fpr)
            bloom.add_all(key for key, _ in records)
            n_bloom_blocks = max(
                1, -(-bloom.size_bytes // self.device.block_bytes)
            )
            for index in range(n_bloom_blocks):
                with self._fresh_block("lsm-bloom") as block_id:
                    self.device.write(
                        block_id,
                        ("bloom-chunk", index),
                        used_bytes=min(
                            self.device.block_bytes,
                            bloom.size_bytes - index * self.device.block_bytes,
                        ),
                    )
                bloom_blocks.append(block_id)
        return _Run(
            data_blocks=data_blocks,
            fence_blocks=fence_blocks,
            fence_directory=fence_directory,
            bloom_blocks=bloom_blocks,
            bloom=bloom,
            records=len(records),
            min_key=records[0][0],
            max_key=records[-1][0],
        )

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------
    def _audit_structure(self) -> List[str]:
        """Run sortedness and fence/filter consistency, per-level run
        counts and capacities, Bloom no-false-negatives, and agreement
        between the reconstructed newest-wins view and the live-key set."""
        violations: List[str] = []
        device = self.device
        referenced: Set[int] = set()
        run_records: List[Tuple[int, int, List[Tuple[int, object]]]] = []
        for level, level_runs in enumerate(self._levels):
            if self.compaction == "leveled" and len(level_runs) > 1:
                violations.append(
                    f"level {level}: {len(level_runs)} runs at rest; "
                    f"leveled compaction allows 1"
                )
            if self.compaction == "tiered" and len(level_runs) >= self.size_ratio:
                violations.append(
                    f"level {level}: {len(level_runs)} runs at rest; "
                    f"tiered compaction allows < {self.size_ratio}"
                )
            for run_index, run in enumerate(level_runs):
                label = f"level {level} run {run_index}"
                if run.records > self._level_capacity(level):
                    violations.append(
                        f"{label}: {run.records} records exceed level "
                        f"capacity {self._level_capacity(level)}"
                    )
                records = self._audit_run(label, run, referenced, violations)
                run_records.append((level, run_index, records))
        on_device = {
            block_id
            for block_id in device.iter_block_ids()
            if device.kind_of(block_id).startswith("lsm-")
        }
        if on_device != referenced:
            violations.append(
                f"run/device block mismatch: runs-only "
                f"{sorted(referenced - on_device)}, device-only "
                f"{sorted(on_device - referenced)}"
            )
        # Newest-wins reconstruction: memtable, then levels top-down,
        # newest run first within a level — the read path's precedence.
        by_position = {
            (level, index): records for level, index, records in run_records
        }
        merged: Dict[int, object] = dict(self._memtable)
        for level, level_runs in enumerate(self._levels):
            for run_index in range(len(level_runs) - 1, -1, -1):
                for key, value in by_position.get((level, run_index), []):
                    if key not in merged:
                        merged[key] = value
        live = {key for key, value in merged.items() if value is not TOMBSTONE}
        if live != self._live_keys:
            only_recon = sorted(live - self._live_keys)[:5]
            only_tracked = sorted(self._live_keys - live)[:5]
            violations.append(
                f"live-key mismatch: reconstructed {len(live)} vs tracked "
                f"{len(self._live_keys)} (reconstructed-only {only_recon}, "
                f"tracked-only {only_tracked})"
            )
        if len(self._live_keys) != self._record_count:
            violations.append(
                f"{len(self._live_keys)} live keys vs record count "
                f"{self._record_count}"
            )
        return violations

    def _audit_run(
        self,
        label: str,
        run: _Run,
        referenced: Set[int],
        violations: List[str],
    ) -> List[Tuple[int, object]]:
        """Audit one run; returns its records (newest-wins merge input)."""
        device = self.device
        records: List[Tuple[int, object]] = []
        block_firsts: List[int] = []
        for block_id in run.data_blocks + run.fence_blocks + run.bloom_blocks:
            if block_id in referenced:
                violations.append(f"{label}: block {block_id} shared between runs")
            referenced.add(block_id)
        for block_id in run.data_blocks:
            if not device.is_allocated(block_id):
                violations.append(f"{label}: data block {block_id} not allocated")
                continue
            if device.kind_of(block_id) != "lsm-data":
                violations.append(
                    f"{label}: data block {block_id} has kind "
                    f"{device.kind_of(block_id)!r}"
                )
            payload = device.peek(block_id)
            if not isinstance(payload, list) or not payload:
                violations.append(
                    f"{label}: data block {block_id} payload is not a "
                    f"non-empty record list"
                )
                continue
            if len(payload) > self._per_block:
                violations.append(
                    f"{label}: data block {block_id} holds {len(payload)} "
                    f"records, capacity {self._per_block}"
                )
            declared = device.used_bytes_of(block_id)
            if declared != len(payload) * RECORD_BYTES:
                violations.append(
                    f"{label}: data block {block_id} declares {declared}B "
                    f"!= {len(payload)} records x {RECORD_BYTES}B"
                )
            try:
                block_firsts.append(payload[0][0])
                records.extend(payload)
            except (TypeError, IndexError):
                violations.append(f"{label}: data block {block_id} malformed")
        keys = []
        try:
            keys = [key for key, _ in records]
        except (TypeError, ValueError):
            violations.append(f"{label}: malformed records")
        if keys:
            if keys != sorted(set(keys)):
                violations.append(f"{label}: keys not strictly sorted")
            if keys[0] != run.min_key or keys[-1] != run.max_key:
                violations.append(
                    f"{label}: key span [{keys[0]}, {keys[-1]}] != declared "
                    f"[{run.min_key}, {run.max_key}]"
                )
        if len(records) != run.records:
            violations.append(
                f"{label}: holds {len(records)} records, declares {run.records}"
            )
        if not records:
            violations.append(f"{label}: empty run should have been dropped")
        # Fences: every data block's first key, chunked into fence blocks.
        expected_chunks = [
            block_firsts[start : start + self._fences_per_block]
            for start in range(0, len(block_firsts), self._fences_per_block)
        ]
        if len(run.fence_blocks) != len(expected_chunks):
            violations.append(
                f"{label}: {len(run.fence_blocks)} fence blocks, expected "
                f"{len(expected_chunks)}"
            )
        else:
            for block_id, chunk in zip(run.fence_blocks, expected_chunks):
                if not device.is_allocated(block_id):
                    violations.append(f"{label}: fence block {block_id} not allocated")
                    continue
                if device.peek(block_id) != chunk:
                    violations.append(
                        f"{label}: fence block {block_id} disagrees with "
                        f"data block first keys"
                    )
            if run.fence_directory != [chunk[0] for chunk in expected_chunks]:
                violations.append(f"{label}: fence directory stale")
        # Bloom filter: presence matches the knob; no false negatives.
        if self.bloom_bits_per_key > 0:
            if run.bloom is None or not run.bloom_blocks:
                violations.append(f"{label}: Bloom filter missing despite knob")
            else:
                misses = [key for key in keys if not run.bloom.may_contain(key)]
                if misses:
                    violations.append(
                        f"{label}: Bloom false negatives for keys {misses[:5]}"
                    )
        elif run.bloom is not None or run.bloom_blocks:
            violations.append(f"{label}: Bloom filter present despite knob 0")
        return records

    def _drain_run(self, run: _Run) -> List[Tuple[int, object]]:
        """Read a run's records (charged) and free all its blocks."""
        records: List[Tuple[int, object]] = []
        for block_id in run.data_blocks:
            records.extend(self.device.read(block_id))
            self.device.free(block_id)
        for block_id in run.fence_blocks + run.bloom_blocks:
            self.device.free(block_id)
        return records

    @spanned("lsm.probe")
    def _probe_run(self, run: _Run, key: int) -> Tuple[bool, object]:
        """(found, value) for ``key`` in one run, charging filter I/O."""
        if key < run.min_key or key > run.max_key:
            return False, None
        if run.bloom is not None:
            if not self._consult_bloom(run, key):
                return False, None
        # Fence search: directory (memory) -> one fence block read.
        fence_index = bisect.bisect_right(run.fence_directory, key) - 1
        fence_index = max(0, fence_index)
        fences = self.device.read(run.fence_blocks[fence_index])
        position = bisect.bisect_right(fences, key) - 1
        position = max(0, position)
        data_index = fence_index * self._fences_per_block + position
        records = self.device.read(run.data_blocks[data_index])
        index = find_in_block(records, key)
        if index is None:
            return False, None
        return True, records[index][1]

    def _scan_run(self, run: _Run, lo: int, hi: int) -> List[Tuple[int, object]]:
        if hi < run.min_key or lo > run.max_key:
            return []
        fence_index = max(0, bisect.bisect_right(run.fence_directory, lo) - 1)
        fences = self.device.read(run.fence_blocks[fence_index])
        position = max(0, bisect.bisect_right(fences, lo) - 1)
        data_index = fence_index * self._fences_per_block + position
        matches: List[Tuple[int, object]] = []
        for block_index in range(data_index, len(run.data_blocks)):
            records = self.device.read(run.data_blocks[block_index])
            if records and records[0][0] > hi:
                break
            matches.extend(block_slice(records, lo, hi))
            if records and records[-1][0] > hi:
                break
        return matches

    @spanned("lsm.bloom_probe")
    def _consult_bloom(self, run: _Run, key: int) -> bool:
        """Consult the filter: one block read (pick the chunk the key's
        first bit position falls into, as a partitioned filter would)."""
        chunk = self._bloom_chunk_for(run, key)
        self.device.read(run.bloom_blocks[chunk])
        return run.bloom.may_contain(key)

    def _bloom_chunk_for(self, run: _Run, key: int) -> int:
        if len(run.bloom_blocks) == 1:
            return 0
        return hash(key) % len(run.bloom_blocks)
