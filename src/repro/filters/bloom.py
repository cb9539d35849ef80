"""Bloom filters (Bloom, CACM 1970).

The paper cites Bloom filters as the canonical space-optimized structure:
membership with no false negatives and a tunable false-positive rate, in
a bitmap a fraction of the size of the keys it summarizes.  The LSM tree
attaches one per run; the approximate index attaches one per partition.

Hashing is splitmix64 (:func:`_mix`) under two fixed salts, combined by
Kirsch-Mitzenmacher double hashing: position ``i`` of a key is
``(h1 + i*h2) mod m``.  The filter computes it incrementally — ``h1 mod
m``, then ``i`` steps of ``h2 mod m`` with one conditional subtraction
each — in one kernel that inserts and probes alike, so bitmaps are
deterministic across processes and identical to the textbook formula.
"""

from __future__ import annotations

import math
from typing import Iterable


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
    we avoid the builtin anyway for full control).  The filter kernel
    inlines it; this function is the reference it is tested against.
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
        self._hash_keys((key,), True)

    def may_contain(self, key: int) -> bool:
        """False means definitely absent; True means probably present."""
        return self._hash_keys((key,), False)

    def add_all(self, keys: Iterable[int]) -> None:
        """Insert every key in ``keys``."""
        self._hash_keys(keys, True)

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Space the filter occupies — feeds MO accounting."""
        return len(self._array)

    @property
    def items(self) -> int:
        return self._items

    def _hash_keys(self, keys: Iterable[int], insert: bool) -> bool:
        """The one hash-and-probe body behind ``add``, ``add_all`` and
        ``may_contain``.

        Inlines :func:`_mix` for both salts: ``h1 = _mix(key, 0x51ED)``,
        ``h2 = _mix(key, 0xC0FFEE) | 1``.  Position ``i`` is ``(h1 +
        i*h2) mod m``, stepped as ``p += h2 mod m`` with one conditional
        subtraction.  Inserting sets every position of every key.
        Probing returns False at the first clear bit, hashing ``h2`` only
        once the first position is set.
        """
        array = self._array
        bits = self.bits
        steps = range(self.hash_count - 1)
        mask = 0xFFFFFFFFFFFFFFFF
        seed1 = 0x9E3779B97F4A7C15 * (0x51ED + 1)
        seed2 = 0x9E3779B97F4A7C15 * (0xC0FFEE + 1)
        mul1 = 0xBF58476D1CE4E5B9
        mul2 = 0x94D049BB133111EB
        inserted = 0
        for key in keys:
            z = (key + seed1) & mask
            z = ((z ^ (z >> 30)) * mul1) & mask
            z = ((z ^ (z >> 27)) * mul2) & mask
            position = (z ^ (z >> 31)) % bits
            if not insert and not array[position >> 3] & (1 << (position & 7)):
                return False
            z = (key + seed2) & mask
            z = ((z ^ (z >> 30)) * mul1) & mask
            z = ((z ^ (z >> 27)) * mul2) & mask
            step = ((z ^ (z >> 31)) | 1) % bits
            if insert:
                array[position >> 3] |= 1 << (position & 7)
                for _ in steps:
                    position += step
                    if position >= bits:
                        position -= bits
                    array[position >> 3] |= 1 << (position & 7)
                inserted += 1
            else:
                for _ in steps:
                    position += step
                    if position >= bits:
                        position -= bits
                    if not array[position >> 3] & (1 << (position & 7)):
                        return False
        self._items += inserted
        return True
