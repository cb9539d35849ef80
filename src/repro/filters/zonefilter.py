"""Zone synopsis: min/max summaries over partitions of records.

This is the shared machinery behind ZoneMaps (Netezza-style sparse
indexing, a space-optimized point in Figure 1) and the fence pointers of
LSM runs: one tiny (min, max, count) entry per partition lets a reader
skip partitions that cannot contain a key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class ZoneEntry:
    """Synopsis of one partition: key bounds and live-record count."""

    min_key: int
    max_key: int
    count: int

    def may_contain(self, key: int) -> bool:
        """Whether ``key`` falls inside this zone's bounds."""
        return self.min_key <= key <= self.max_key

    def overlaps(self, lo: int, hi: int) -> bool:
        """Whether this zone intersects the closed range [lo, hi]."""
        return not (hi < self.min_key or lo > self.max_key)

    def widen(self, key: int) -> None:
        """Grow the bounds to cover ``key`` (used on in-place inserts)."""
        self.min_key = min(self.min_key, key)
        self.max_key = max(self.max_key, key)


class ZoneSynopsis:
    """An ordered collection of zone entries, one per partition."""

    def __init__(self) -> None:
        self._entries: List[Optional[ZoneEntry]] = []

    def set_zone(self, index: int, entry: Optional[ZoneEntry]) -> None:
        """Install (or clear, with None) the synopsis of partition ``index``."""
        while len(self._entries) <= index:
            self._entries.append(None)
        self._entries[index] = entry

    def zone(self, index: int) -> Optional[ZoneEntry]:
        """The synopsis of partition ``index`` (None when cleared/unknown)."""
        if 0 <= index < len(self._entries):
            return self._entries[index]
        return None

    def __len__(self) -> int:
        return sum(1 for entry in self._entries if entry is not None)

    @property
    def partitions(self) -> int:
        """Total partition slots, including cleared ones."""
        return len(self._entries)

    @staticmethod
    def entry_for(records: List[Tuple[int, int]]) -> Optional[ZoneEntry]:
        """Build a zone entry summarizing ``records`` (None if empty)."""
        if not records:
            return None
        keys = [key for key, _ in records]
        return ZoneEntry(min_key=min(keys), max_key=max(keys), count=len(records))
