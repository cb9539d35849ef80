"""Reference copy of the workload generator, kept as a test oracle.

This is :class:`repro.workloads.generator.WorkloadGenerator` and the
key distributions as they stood before the generator's hot path was
rewritten (flat sorted key list, one ``_emit`` call per operation, a
zipfian sampler that recomputes ``zeta(n)`` whenever the population
size changes).  It is slow and simple on purpose: the property in
``tests/property/test_stream_reference.py`` requires the library's
stream to equal this one, operation for operation, for any spec,
distribution and batch size.

The only edit to the copied code is in :meth:`_ReferenceZipfian._zeta`,
which spells out the left-to-right addition that ``sum()`` performed on
the interpreter the streams were pinned on (CPython 3.11; from 3.12
``sum()`` of floats is compensated and would round differently).
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Iterator, List, Tuple

from repro.workloads.spec import Operation, OpKind, WorkloadSpec


class _ReferenceUniform:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def pick_index(self, population_size: int) -> int:
        return self.rng.randrange(population_size)


class _ReferenceSequential:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._cursor = 0

    def pick_index(self, population_size: int) -> int:
        index = self._cursor % population_size
        self._cursor += 1
        return index


class _ReferenceZipfian:
    def __init__(self, rng: random.Random, theta: float = 0.99) -> None:
        self.rng = rng
        self.theta = theta
        self._size = 0
        self._zetan = 0.0

    def _zeta(self, n: int) -> float:
        total = 0.0
        for i in range(1, n + 1):
            total += 1.0 / (i ** self.theta)
        return total

    def pick_index(self, population_size: int) -> int:
        if population_size <= 2:
            return self.rng.randrange(population_size)
        if population_size != self._size:
            self._zetan = self._zeta(population_size)
            self._size = population_size
        theta = self.theta
        alpha = 1.0 / (1.0 - theta)
        zeta2 = self._zeta(min(2, population_size))
        eta = (1.0 - (2.0 / population_size) ** (1.0 - theta)) / (
            1.0 - zeta2 / self._zetan
        ) if population_size > 1 else 1.0
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** theta:
            return 1 % population_size
        index = int(population_size * ((eta * u) - eta + 1.0) ** alpha)
        return min(index, population_size - 1)


class _ReferenceLatest:
    def __init__(self, rng: random.Random, theta: float = 0.99) -> None:
        self._zipf = _ReferenceZipfian(rng, theta)

    def pick_index(self, population_size: int) -> int:
        offset = self._zipf.pick_index(population_size)
        return population_size - 1 - offset


class _ReferenceClustered:
    def __init__(self, rng: random.Random, spread: float = 0.02) -> None:
        self.rng = rng
        self.spread = spread
        self._center = rng.random()

    def pick_index(self, population_size: int) -> int:
        self._center += self.rng.gauss(0.0, 0.005)
        self._center %= 1.0
        position = self.rng.gauss(self._center, self.spread) % 1.0
        return min(int(position * population_size), population_size - 1)


_DISTRIBUTIONS = {
    "uniform": _ReferenceUniform,
    "sequential": _ReferenceSequential,
    "zipfian": _ReferenceZipfian,
    "latest": _ReferenceLatest,
    "clustered": _ReferenceClustered,
}


class ReferenceGenerator:
    """The pre-rewrite generator: same seed, same stream, by construction."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.distribution = _DISTRIBUTIONS[spec.distribution](self.rng)
        self._keys: List[int] = []
        self._next_key = 0

    def initial_data(self) -> List[Tuple[int, int]]:
        count = self.spec.initial_records
        self._keys = [2 * i for i in range(count)]
        self._next_key = 2 * count
        return [(key, self._value_for(key)) for key in self._keys]

    def operations(self) -> Iterator[Operation]:
        kinds, weights = zip(*self.spec.mix.items())
        cum_weights = list(accumulate(weights))
        total = cum_weights[-1] + 0.0
        hi = len(kinds) - 1
        draw = self.rng.random
        insert_fallback = OpKind.INSERT if self.spec.inserts > 0 else None
        for _ in range(self.spec.operations):
            kind = kinds[bisect(cum_weights, draw() * total, 0, hi)]
            if not self._keys and kind is not OpKind.INSERT:
                if insert_fallback is not None:
                    kind = insert_fallback
            yield self._emit(kind)

    def _pick(self) -> int:
        return self._keys[self.distribution.pick_index(len(self._keys))]

    def _emit(self, kind: OpKind) -> Operation:
        if kind is OpKind.INSERT:
            key = self._next_key
            self._next_key += 2
            self._keys.append(key)
            return Operation(OpKind.INSERT, key, self._value_for(key))
        if not self._keys:
            return Operation(OpKind.POINT_QUERY, self._next_key + 1)
        if kind is OpKind.POINT_QUERY:
            return Operation(OpKind.POINT_QUERY, self._pick())
        if kind is OpKind.RANGE_QUERY:
            span = max(1, int(len(self._keys) * self.spec.range_fraction))
            start = self.distribution.pick_index(len(self._keys))
            start = min(start, len(self._keys) - 1)
            end = min(start + span - 1, len(self._keys) - 1)
            return Operation(
                OpKind.RANGE_QUERY, self._keys[start], high_key=self._keys[end]
            )
        if kind is OpKind.UPDATE:
            key = self._pick()
            return Operation(OpKind.UPDATE, key, self._value_for(key) + 1)
        index = self.distribution.pick_index(len(self._keys))
        return Operation(OpKind.DELETE, self._keys.pop(index))

    @staticmethod
    def _value_for(key: int) -> int:
        return key * 1000 + 1
