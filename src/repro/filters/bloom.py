"""Bloom filters (Bloom, CACM 1970).

The paper cites Bloom filters as the canonical space-optimized structure:
membership with no false negatives and a tunable false-positive rate, in
a bitmap a fraction of the size of the keys it summarizes.  The LSM tree
attaches one per run; the approximate index attaches one per partition.

Hashing uses Python's SipHash via :func:`hash` salted per hash function,
with an explicit seed mix so filters are deterministic across runs.
"""

from __future__ import annotations

import math
from typing import Iterable, List


def optimal_bits(n_items: int, false_positive_rate: float) -> int:
    """Bits needed for ``n_items`` at the target false-positive rate.

    m = -n ln p / (ln 2)^2, the textbook optimum.
    """
    if n_items <= 0:
        return 8
    if not 0.0 < false_positive_rate < 1.0:
        raise ValueError("false_positive_rate must be in (0, 1)")
    bits = -n_items * math.log(false_positive_rate) / (math.log(2.0) ** 2)
    return max(8, int(math.ceil(bits)))


def optimal_hashes(bits: int, n_items: int) -> int:
    """Number of hash functions minimizing the false-positive rate.

    k = (m / n) ln 2.
    """
    if n_items <= 0:
        return 1
    k = (bits / n_items) * math.log(2.0)
    return max(1, int(round(k)))


def _mix(key: int, salt: int) -> int:
    """64-bit deterministic hash of ``key`` salted with ``salt``.

    A splitmix64 round — deterministic across processes (unlike
    ``hash()``, which is randomized for strings but is fine for ints;
    we avoid the builtin anyway for full control).
    """
    z = (key + 0x9E3779B97F4A7C15 * (salt + 1)) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class BloomFilter:
    """A standard Bloom filter over integer keys.

    Parameters
    ----------
    expected_items:
        Sizing hint; combined with ``false_positive_rate`` to choose the
        bit-array length and hash count.
    false_positive_rate:
        Target probability that ``may_contain`` returns True for an
        absent key once ``expected_items`` keys are inserted.
    """

    def __init__(
        self, expected_items: int, false_positive_rate: float = 0.01
    ) -> None:
        self.bits = optimal_bits(expected_items, false_positive_rate)
        self.hash_count = optimal_hashes(self.bits, expected_items)
        self.false_positive_rate = false_positive_rate
        self._array = bytearray((self.bits + 7) // 8)
        self._items = 0

    # ------------------------------------------------------------------
    def add(self, key: int) -> None:
        """Insert a key's bit positions."""
        for position in self._positions(key):
            self._array[position >> 3] |= 1 << (position & 7)
        self._items += 1

    def may_contain(self, key: int) -> bool:
        """False means definitely absent; True means probably present."""
        return all(
            self._array[position >> 3] & (1 << (position & 7))
            for position in self._positions(key)
        )

    def add_all(self, keys: Iterable[int]) -> None:
        """Insert every key in ``keys``."""
        for key in keys:
            self.add(key)

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Space the filter occupies — feeds MO accounting."""
        return len(self._array)

    @property
    def items(self) -> int:
        return self._items

    def _positions(self, key: int) -> List[int]:
        # Kirsch-Mitzenmacher double hashing: h1 + i*h2 mod m.
        h1 = _mix(key, 0x51ED)
        h2 = _mix(key, 0xC0FFEE) | 1
        return [(h1 + i * h2) % self.bits for i in range(self.hash_count)]
