"""The tunable RUM access method and its dynamic auto-tuner (Section 5).

Figure 3 of the paper envisions an access method that "seamlessly
transitions" inside the RUM triangle.  :class:`TunableAccessMethod`
realizes that with two continuous knobs:

``read_optimization`` (r in [0, 1])
    Controls auxiliary read acceleration over the sorted main data:
    fence density rises with r (from none — pure positional binary
    search — to one fence per block) and a Bloom filter over the main is
    enabled at high r.  Raising r lowers RO and raises MO.

``write_optimization`` (w in [0, 1])
    Controls update absorption: the size of the in-memory write buffer
    and the number of differential runs tolerated before a full merge
    both grow with w.  Raising w lowers UO and raises RO (runs must be
    probed) and MO (obsolete versions linger).

With (r=1, w=0) the structure behaves like a fenced, filtered sorted
column (read corner); (r=0, w=1) is an LSM-ish differential stack (write
corner); (r=0, w=0) is a bare sorted column (space corner).  The
Figure-3 benchmark sweeps the knobs and plots the measured trajectory.

:class:`DynamicTuner` closes the loop (the paper's "Dynamic RUM
Balance"): it watches the recent operation mix and moves the knobs
toward the observed workload.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.core.runs import block_slice, find_in_block, probe_run, scan_run
from repro.filters.bloom import BloomFilter
from repro.storage.device import SimulatedDevice
from repro.storage.layout import KEY_BYTES, POINTER_BYTES, RECORD_BYTES, records_per_block

from repro.core.sentinels import TOMBSTONE as _TOMBSTONE


@dataclass
class _Run:
    """A differential run of buffered updates."""

    block_ids: List[int]
    fence_keys: List[int]
    records: int


class TunableAccessMethod(AccessMethod):
    """A morphing structure spanning the RUM triangle (Figure 3)."""

    name = "tunable"
    capabilities = Capabilities(ordered=True, updatable=True, adaptive=True)

    #: Buffer sizing at w = 0 and w = 1.  The buffer is kept small so the
    #: write knob differentiates through *merge frequency* (how many
    #: differential runs are tolerated before the long merge), not by
    #: simply swallowing whole workloads in memory.
    _MIN_BUFFER = 16
    _MAX_BUFFER = 128
    #: Differential runs tolerated at w = 1 before the long merge.
    _MAX_RUNS = 16

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        read_optimization: float = 0.5,
        write_optimization: float = 0.5,
    ) -> None:
        super().__init__(device)
        self._per_block = records_per_block(self.device.block_bytes)
        self._main_blocks: List[int] = []
        self._fences: List[Tuple[int, int]] = []  # (key, main block index)
        self._bloom: Optional[BloomFilter] = None
        self._buffer: Dict[int, object] = {}
        self._runs: List[_Run] = []
        self._live_keys: set = set()
        self.read_optimization = 0.5
        self.write_optimization = 0.5
        self.set_knobs(read_optimization, write_optimization)

    # ------------------------------------------------------------------
    # Knobs
    # ------------------------------------------------------------------
    def set_knobs(self, read_optimization: float, write_optimization: float) -> None:
        """Move the structure in the RUM space; reorganizes lazily.

        Lowering ``read_optimization`` drops auxiliary structures
        immediately; raising it rebuilds them on the next
        :meth:`reorganize` (or instantly if the main is small).
        """
        if not 0.0 <= read_optimization <= 1.0:
            raise ValueError("read_optimization must be in [0, 1]")
        if not 0.0 <= write_optimization <= 1.0:
            raise ValueError("write_optimization must be in [0, 1]")
        self.read_optimization = read_optimization
        self.write_optimization = write_optimization
        self._rebuild_aux()

    @property
    def buffer_capacity(self) -> int:
        span = self._MAX_BUFFER - self._MIN_BUFFER
        return self._MIN_BUFFER + int(self.write_optimization * span)

    @property
    def max_runs(self) -> int:
        return 1 + int(self.write_optimization * (self._MAX_RUNS - 1))

    @property
    def fence_stride(self) -> Optional[int]:
        """Main blocks per fence entry; None disables fences entirely."""
        if self.read_optimization <= 0.05:
            return None
        # r = 1 -> every block fenced; r = 0.05 -> every ~20th block.
        return max(1, int(round(1.0 / self.read_optimization)))

    @property
    def bloom_enabled(self) -> bool:
        return self.read_optimization > 0.7

    # ------------------------------------------------------------------
    # Workload operations
    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        records = self._sorted_unique(items)
        self._write_main([(key, value) for key, value in records])
        self._live_keys = {key for key, _ in records}
        self._record_count = len(records)

    def get(self, key: int) -> Optional[int]:
        if key in self._buffer:
            value = self._buffer[key]
            return None if value is _TOMBSTONE else value
        for run in reversed(self._runs):
            found, value = self._probe_run(run, key)
            if found:
                return None if value is _TOMBSTONE else value
        return self._probe_main(key)

    def range_query(self, lo: int, hi: int) -> List[Record]:
        newest: Dict[int, object] = {}
        for key, value in self._buffer.items():
            if lo <= key <= hi:
                newest[key] = value
        for run in reversed(self._runs):
            for key, value in self._scan_run(run, lo, hi):
                if key not in newest:
                    newest[key] = value
        for key, value in self._scan_main(lo, hi):
            if key not in newest:
                newest[key] = value
        return sorted(
            (key, value) for key, value in newest.items() if value is not _TOMBSTONE
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
        self._put(key, _TOMBSTONE)
        self._live_keys.discard(key)
        self._record_count -= 1

    def flush(self) -> None:
        if self._buffer:
            self._spill_buffer()

    def maintenance(self) -> None:
        """Fold buffered runs back into the main copy (space reclaim)."""
        if self._runs or self._buffer:
            self.reorganize()

    # ------------------------------------------------------------------
    def space_bytes(self) -> int:
        aux = len(self._fences) * (KEY_BYTES + POINTER_BYTES)
        if self._bloom is not None:
            aux += self._bloom.size_bytes
        aux += len(self._buffer) * RECORD_BYTES
        return self.device.allocated_bytes + aux

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _put(self, key: int, value: object) -> None:
        if self.write_optimization <= 0.02 and not self._runs:
            # Pure in-place mode: write straight into the main copy.
            if self._update_main_in_place(key, value):
                return
        self._buffer[key] = value
        if len(self._buffer) >= self.buffer_capacity:
            self._spill_buffer()

    def _spill_buffer(self) -> None:
        records = sorted(self._buffer.items())
        self._buffer = {}
        block_ids: List[int] = []
        fences: List[int] = []
        for start in range(0, len(records), self._per_block):
            chunk = records[start : start + self._per_block]
            block_id = self.device.allocate(kind="tunable-run")
            self.device.write(block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES)
            block_ids.append(block_id)
            fences.append(chunk[0][0])
        self._runs.append(_Run(block_ids, fences, len(records)))
        if len(self._runs) > self.max_runs:
            self.reorganize()

    def _update_main_in_place(self, key: int, value: object) -> bool:
        """In-place write for the write_optimization ~ 0 regime.

        Returns False when the key is not in the main copy (new insert or
        delete of a buffered key) so the caller falls back to buffering.
        """
        position = self._main_block_for(key)
        if position is None:
            return False
        records = list(self.device.read(self._main_blocks[position]))
        slot = find_in_block(records, key)
        if slot is None:
            return False
        if value is _TOMBSTONE:
            records.pop(slot)
        else:
            records[slot] = (key, value)
        self.device.write(
            self._main_blocks[position],
            records,
            used_bytes=len(records) * RECORD_BYTES,
        )
        return True

    # ------------------------------------------------------------------
    # Reorganization
    # ------------------------------------------------------------------
    def reorganize(self) -> None:
        """The long merge: fold buffer and runs into a fresh main copy."""
        newest: Dict[int, object] = dict(self._buffer)
        self._buffer = {}
        for run in reversed(self._runs):
            for block_id in run.block_ids:
                for key, value in self.device.read(block_id):
                    if key not in newest:
                        newest[key] = value
        for run in self._runs:
            for block_id in run.block_ids:
                self.device.free(block_id)
        self._runs = []
        merged: Dict[int, object] = {}
        for block_id in self._main_blocks:
            for key, value in self.device.read(block_id):
                if key not in merged:
                    merged[key] = value
            self.device.free(block_id)
        self._main_blocks = []
        merged.update({})
        for key, value in newest.items():
            merged[key] = value
        records = sorted(
            (key, value) for key, value in merged.items() if value is not _TOMBSTONE
        )
        self._write_main(records)

    def _rebuild_aux(self) -> None:
        """Recompute fences/bloom for the current knob settings."""
        stride = self.fence_stride
        self._fences = []
        if stride is not None:
            for index in range(0, len(self._main_blocks), stride):
                payload = self.device.peek(self._main_blocks[index])
                if payload:
                    self._fences.append((payload[0][0], index))
        if self.bloom_enabled and self._main_blocks:
            keys = []
            for block_id in self._main_blocks:
                payload = self.device.peek(block_id)
                keys.extend(record_key for record_key, _ in payload)
            self._bloom = BloomFilter(max(1, len(keys)), 0.01)
            self._bloom.add_all(keys)
        else:
            self._bloom = None

    def _write_main(self, records: List[Tuple[int, object]]) -> None:
        for start in range(0, len(records), self._per_block):
            chunk = records[start : start + self._per_block]
            block_id = self.device.allocate(kind="tunable-main")
            self.device.write(block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES)
            self._main_blocks.append(block_id)
        self._rebuild_aux()

    # ------------------------------------------------------------------
    # Read path over the main copy
    # ------------------------------------------------------------------
    def _main_block_for(self, key: int) -> Optional[int]:
        """Locate the main block that may hold ``key``, charging I/O
        according to the current read-optimization level."""
        if not self._main_blocks:
            return None
        if self._bloom is not None and not self._bloom.may_contain(key):
            return None
        if self._fences:
            fence_keys = [fence_key for fence_key, _ in self._fences]
            index = bisect.bisect_right(fence_keys, key) - 1
            if index < 0:
                index = 0
            start = self._fences[index][1]
            stride = self.fence_stride or 1
            # Within the fenced group, scan forward (stride is small).
            position = start
            for candidate in range(start, min(start + stride, len(self._main_blocks))):
                payload = self.device.read(self._main_blocks[candidate])
                if payload and payload[0][0] <= key:
                    position = candidate
                    if payload[-1][0] >= key:
                        return candidate
                else:
                    break
            return position
        # No fences: positional binary search over the sorted main.
        lo, hi = 0, len(self._main_blocks) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            payload = self.device.read(self._main_blocks[mid])
            if payload and payload[-1][0] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _probe_main(self, key: int) -> Optional[int]:
        position = self._main_block_for(key)
        if position is None:
            return None
        records = self.device.read(self._main_blocks[position])
        slot = find_in_block(records, key)
        if slot is None:
            return None
        value = records[slot][1]
        return None if value is _TOMBSTONE else value

    def _scan_main(self, lo: int, hi: int) -> List[Tuple[int, object]]:
        if not self._main_blocks:
            return []
        start = 0
        if self._fences:
            fence_keys = [fence_key for fence_key, _ in self._fences]
            index = max(0, bisect.bisect_right(fence_keys, lo) - 1)
            start = self._fences[index][1]
        matches: List[Tuple[int, object]] = []
        for position in range(start, len(self._main_blocks)):
            records = self.device.read(self._main_blocks[position])
            if records and records[0][0] > hi:
                break
            matches.extend(block_slice(records, lo, hi))
            if records and records[-1][0] > hi:
                break
        return matches

    # ------------------------------------------------------------------
    # Run probing (same fence scheme as MaSM)
    # ------------------------------------------------------------------
    def _probe_run(self, run: _Run, key: int) -> Tuple[bool, object]:
        return probe_run(self.device, run.block_ids, run.fence_keys, key)

    def _scan_run(self, run: _Run, lo: int, hi: int) -> List[Tuple[int, object]]:
        return scan_run(self.device, run.block_ids, run.fence_keys, lo, hi)


@dataclass
class TunerPolicy:
    """How aggressively the dynamic tuner chases the workload."""

    window: int = 200
    step: float = 0.15
    memory_budget: Optional[float] = None  # max MO tolerated, None = unbounded


class DynamicTuner:
    """Online knob controller — the paper's "Dynamic RUM Balance".

    Feed it the operations the application executes; every ``window``
    operations it nudges the knobs toward the observed read/write mix,
    and backs off read acceleration when the memory budget is exceeded.
    """

    def __init__(
        self, method: TunableAccessMethod, policy: Optional[TunerPolicy] = None
    ) -> None:
        self.method = method
        self.policy = policy or TunerPolicy()
        self._reads = 0
        self._writes = 0
        self._since_adjust = 0
        self.adjustments: List[Tuple[float, float]] = []

    def observe_read(self) -> None:
        """Record one read operation executed by the application."""
        self._reads += 1
        self._tick()

    def observe_write(self) -> None:
        """Record one write operation executed by the application."""
        self._writes += 1
        self._tick()

    def _tick(self) -> None:
        self._since_adjust += 1
        if self._since_adjust >= self.policy.window:
            self._adjust()
            self._since_adjust = 0
            self._reads = 0
            self._writes = 0

    def _adjust(self) -> None:
        total = self._reads + self._writes
        if total == 0:
            return
        read_fraction = self._reads / total
        step = self.policy.step
        r = self.method.read_optimization
        w = self.method.write_optimization
        # Chase the mix: more reads -> invest in read acceleration and
        # shrink write absorption; more writes -> the reverse.
        r += step * (read_fraction - 0.5) * 2
        w += step * ((1 - read_fraction) - 0.5) * 2
        r = min(1.0, max(0.0, r))
        w = min(1.0, max(0.0, w))
        if self.policy.memory_budget is not None:
            stats = self.method.stats()
            if stats.space_amplification > self.policy.memory_budget:
                r = max(0.0, r - step)
        self.method.set_knobs(r, w)
        self.adjustments.append((r, w))
