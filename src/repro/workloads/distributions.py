"""Key distributions for workload generation.

Each distribution draws keys from a *live key population* maintained by
the generator, so queries and updates always target keys that exist (or
deliberately miss, for negative-lookup experiments).  All randomness is
seeded; runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from array import array
from typing import List, Sequence


class KeyDistribution(ABC):
    """Picks keys out of an ordered population."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    @abstractmethod
    def pick_index(self, population_size: int) -> int:
        """Return an index into the population, ``0 <= i < size``."""

    def pick(self, population: Sequence[int]) -> int:
        """Return a key from ``population`` (which must be non-empty)."""
        if not population:
            raise ValueError("cannot pick from an empty key population")
        return population[self.pick_index(len(population))]


class UniformKeys(KeyDistribution):
    """Every live key equally likely."""

    def pick_index(self, population_size: int) -> int:
        return self.rng.randrange(population_size)


class SequentialKeys(KeyDistribution):
    """Cycle through the population in order (pure sequential access)."""

    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self._cursor = 0

    def pick_index(self, population_size: int) -> int:
        index = self._cursor % population_size
        self._cursor += 1
        return index


class ZipfianKeys(KeyDistribution):
    """Zipf-distributed popularity over the population.

    The YCSB sampler, one uniform draw per pick; skew ``theta`` defaults
    to the YCSB-standard 0.99.

    ``zeta(n)`` is defined as ``1 / i**theta`` added left to right from
    ``i = 1`` in double precision (``sum()`` did exactly that up to
    CPython 3.11; from 3.12 it compensates and would round differently).
    Every prefix sum needed so far stays in an ``array('d')`` and ``eta``
    is cached per population size, so a write mix, which moves the size
    on most picks, pays O(1) per pick rather than O(n).
    """

    def __init__(self, rng: random.Random, theta: float = 0.99) -> None:
        super().__init__(rng)
        if not 0 < theta < 1:
            raise ValueError("zipfian skew theta must be in (0, 1)")
        self.theta = theta
        self._alpha = 1.0 / (1.0 - theta)
        self._rank1_bound = 1.0 + 0.5 ** theta
        #: ``_zetas[k]`` is ``zeta(k)``; ``_zetas[0]`` is the empty sum.
        self._zetas = array("d", [0.0])
        self._size = 0
        self._zetan = 0.0
        self._eta = 0.0

    def _zeta(self, n: int) -> float:
        zetas = self._zetas
        if n >= len(zetas):
            theta = self.theta
            total = zetas[-1]
            for i in range(len(zetas), n + 1):
                total += 1.0 / (i ** theta)
                zetas.append(total)
        return zetas[n]

    def pick_index(self, population_size: int) -> int:
        # Tiny populations degenerate (the eta denominator vanishes);
        # uniform choice is exact enough for n <= 2.
        if population_size <= 2:
            return self.rng.randrange(population_size)
        if population_size != self._size:
            self._zetan = self._zeta(population_size)
            self._eta = (
                1.0 - (2.0 / population_size) ** (1.0 - self.theta)
            ) / (1.0 - self._zeta(2) / self._zetan)
            self._size = population_size
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._rank1_bound:
            return 1
        eta = self._eta
        index = int(population_size * ((eta * u) - eta + 1.0) ** self._alpha)
        return min(index, population_size - 1)


class LatestKeys(KeyDistribution):
    """Skewed toward the most recently inserted keys (YCSB "latest")."""

    def __init__(self, rng: random.Random, theta: float = 0.99) -> None:
        super().__init__(rng)
        self._zipf = ZipfianKeys(rng, theta)

    def pick_index(self, population_size: int) -> int:
        offset = self._zipf.pick_index(population_size)
        return population_size - 1 - offset


class ClusteredKeys(KeyDistribution):
    """Accesses cluster around a slowly drifting hot spot.

    Models scan-like locality: a Gaussian around a center that random
    walks across the key space, re-creating the "clustered" access
    pattern sparse indexes exploit.
    """

    def __init__(self, rng: random.Random, spread: float = 0.02) -> None:
        super().__init__(rng)
        if spread <= 0:
            raise ValueError("spread must be positive")
        self.spread = spread
        self._center = rng.random()

    def pick_index(self, population_size: int) -> int:
        self._center += self.rng.gauss(0.0, 0.005)
        self._center %= 1.0
        position = self.rng.gauss(self._center, self.spread) % 1.0
        return min(int(position * population_size), population_size - 1)


_DISTRIBUTIONS = {
    "uniform": UniformKeys,
    "sequential": SequentialKeys,
    "zipfian": ZipfianKeys,
    "latest": LatestKeys,
    "clustered": ClusteredKeys,
}


def make_distribution(name: str, rng: random.Random) -> KeyDistribution:
    """Construct a distribution by name."""
    try:
        cls = _DISTRIBUTIONS[name]
    except KeyError:
        known = ", ".join(sorted(_DISTRIBUTIONS))
        raise ValueError(f"unknown distribution {name!r}; known: {known}") from None
    return cls(rng)


def distribution_names() -> List[str]:
    """Names of every available key distribution."""
    return sorted(_DISTRIBUTIONS)
