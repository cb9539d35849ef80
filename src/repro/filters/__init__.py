"""Probabilistic and synopsis filters.

These are the paper's space-optimized building blocks (Section 4,
right corner of Figure 1): structures that trade a small, bounded error
probability (or lossy summarization) for dramatic space savings, and
computation for auxiliary-data size.

``bloom``
    Bloom filters and their optimal sizing.
``quotient``
    An updatable quotient filter (Section 5's "updatable probabilistic
    data structures" for approximate indexing).
``zonefilter``
    Min/max zone synopsis shared by ZoneMaps and LSM run fences.
"""

from repro.filters.bloom import BloomFilter, optimal_bits, optimal_hashes
from repro.filters.quotient import QuotientFilter
from repro.filters.zonefilter import ZoneSynopsis

__all__ = [
    "BloomFilter",
    "QuotientFilter",
    "ZoneSynopsis",
    "optimal_bits",
    "optimal_hashes",
]
