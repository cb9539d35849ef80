"""Shared machinery for fence-keyed sorted runs.

Several structures (MaSM, PDT, SILT, the tunable method, the indexed
log) store immutable sorted runs as a list of data blocks with an
in-memory *fence array* (the first key of each block).  Probing and
scanning such a run is identical everywhere; these helpers are that
single implementation.

:func:`find_in_block` and :func:`block_slice` are the in-block half of
that machinery: a sorted search over one block's ``(key, value)``
records, shared by every structure whose blocks are kept sorted.  They
bisect the record tuples themselves — ``(key,)`` sorts before every
record with that key — so no per-call key list is built.  Keys are
ints.

The run functions charge their block reads to the given device; the
block functions do no I/O.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.storage.device import SimulatedDevice


def find_in_block(records: Sequence[Tuple[int, object]], key: int) -> Optional[int]:
    """Index of the record with ``key`` in a sorted block, or ``None``."""
    index = bisect.bisect_left(records, (key,))
    if index < len(records) and records[index][0] == key:
        return index
    return None


def block_slice(
    records: Sequence[Tuple[int, object]], lo: int, hi: int
) -> Sequence[Tuple[int, object]]:
    """The sorted block's records with ``lo <= key <= hi``, in key order.

    Empty when ``lo > hi``.
    """
    start = bisect.bisect_left(records, (lo,))
    return records[start : bisect.bisect_left(records, (hi + 1,), start)]


def probe_run(
    device: SimulatedDevice,
    block_ids: Sequence[int],
    fence_keys: Sequence[int],
    key: int,
) -> Tuple[bool, object]:
    """Look ``key`` up in one sorted run: at most one block read.

    Returns ``(found, value)``; ``found`` is False for empty runs, keys
    below the run's minimum, or genuine misses.
    """
    if not block_ids or key < fence_keys[0]:
        return False, None
    position = max(0, bisect.bisect_right(fence_keys, key) - 1)
    records = device.read(block_ids[position])
    index = find_in_block(records, key)
    if index is None:
        return False, None
    return True, records[index][1]


def scan_run(
    device: SimulatedDevice,
    block_ids: Sequence[int],
    fence_keys: Sequence[int],
    lo: int,
    hi: int,
) -> List[Tuple[int, object]]:
    """Collect the run's records with ``lo <= key <= hi``, in key order.

    Reads only the blocks the fences admit: the start block is located
    by fence search and the scan stops at the first block past ``hi``.
    """
    if not block_ids:
        return []
    start = max(0, bisect.bisect_right(fence_keys, lo) - 1)
    matches: List[Tuple[int, object]] = []
    for position in range(start, len(block_ids)):
        records = device.read(block_ids[position])
        if records and records[0][0] > hi:
            break
        matches.extend(block_slice(records, lo, hi))
        if records and records[-1][0] > hi:
            break
    return matches
