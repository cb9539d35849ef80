"""Deterministic workload generation.

:class:`WorkloadGenerator` maintains the set of live keys as the stream it
generates mutates the (virtual) dataset, so updates and deletes always
target existing keys and inserts always use fresh keys — the streams are
valid against any access method that starts from the same bulk load.

The live keys are a sorted list cut into chunks (:class:`_LiveKeys`), so
a delete moves at most one chunk's tail instead of half the key set.
"""

from __future__ import annotations

import random
from bisect import bisect, bisect_right
from itertools import accumulate, chain
from typing import Iterator, List, Optional, Tuple

from repro.workloads.distributions import KeyDistribution, make_distribution
from repro.workloads.spec import Operation, OpKind, WorkloadSpec

#: Draw granularity used when :meth:`WorkloadGenerator.operations` flattens
#: the batch producer.  Invisible to consumers (the stream is identical,
#: only materialized this many operations at a time).
_FLATTEN_BATCH = 1024

#: Keys per live-key chunk: a 100k-key set is about fifty chunks.
_CHUNK = 2048


class _LiveKeys:
    """Sorted live keys, addressable by rank, in chunks of at most
    :data:`_CHUNK` keys; a lookup bisects the chunks' start ranks.

    ``_starts[c]`` is the rank of chunk ``c``'s first key.  A pop only
    invalidates the offsets; the next lookup rebuilds them in one pass
    over the chunk lengths.  No chunk is empty unless it is the only one.
    """

    __slots__ = ("_chunks", "_starts")

    def __init__(self, keys: List[int]) -> None:
        self._chunks = [
            keys[start : start + _CHUNK] for start in range(0, len(keys), _CHUNK)
        ] or [[]]
        self._starts: Optional[List[int]] = None

    def _offsets(self) -> List[int]:
        starts = self._starts = list(
            accumulate(map(len, self._chunks[:-1]), initial=0)
        )
        return starts

    def at(self, rank: int) -> int:
        """The key of rank ``rank`` (0 is the smallest live key)."""
        starts = self._starts or self._offsets()
        chunk = bisect_right(starts, rank) - 1
        return self._chunks[chunk][rank - starts[chunk]]

    def pop(self, rank: int) -> int:
        """Remove and return the key of rank ``rank``."""
        starts = self._starts or self._offsets()
        index = bisect_right(starts, rank) - 1
        chunk = self._chunks[index]
        key = chunk.pop(rank - starts[index])
        if not chunk and len(self._chunks) > 1:
            del self._chunks[index]
        self._starts = None
        return key

    def append(self, key: int) -> None:
        """Add ``key``, which must exceed every live key."""
        last = self._chunks[-1]
        if len(last) < _CHUNK:
            last.append(key)
        else:
            self._chunks.append([key])
            self._starts = None


class WorkloadGenerator:
    """Generates the initial dataset and the operation stream of a spec."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.distribution: KeyDistribution = make_distribution(
            spec.distribution, self.rng
        )
        # Live keys, kept sorted so range queries can be anchored at a
        # chosen selectivity; set by initial_data().
        self._live = _LiveKeys([])
        self._live_count = 0
        self._next_key = 0
        #: True once :meth:`operations` has handed out its stream.  The
        #: stream mutates generator state as it goes, so it is single
        #: use; consumers check this to fail fast instead of replaying
        #: a stale key set.
        self.consumed = False

    # ------------------------------------------------------------------
    def initial_data(self) -> List[Tuple[int, int]]:
        """The bulk-load dataset: ``initial_records`` sequential keys.

        Keys are dense integers ``0, 2, 4, ...`` (stride 2) so that the
        generator can also produce guaranteed-miss point queries on odd
        keys when a benchmark asks for negative lookups.
        """
        if self._live_count:
            raise RuntimeError("initial_data may only be generated once")
        count = self.spec.initial_records
        keys = list(range(0, 2 * count, 2))
        self._live = _LiveKeys(keys)
        self._live_count = count
        self._next_key = 2 * count
        return [(key, self._value_for(key)) for key in keys]

    def operations(self) -> Iterator[Operation]:
        """The operation stream described by the spec (single use).

        Yields exactly ``spec.operations`` operations: degenerate draws
        (a read/update/delete when the live key set has drained and the
        mix has no insert weight) are emitted as guaranteed-miss point
        queries rather than silently dropped.
        """
        return chain.from_iterable(self.operation_batches(_FLATTEN_BATCH))

    def operation_batches(self, size: int) -> Iterator[List[Operation]]:
        """The same stream as :meth:`operations`, in lists of ``size``.

        The producer :func:`~repro.core.rum.measure_workload_batched`
        consumes: each yielded list holds ``size`` operations (the final
        one possibly fewer), totalling exactly ``spec.operations``.  The
        stream is byte-identical to :meth:`operations` — both are drawn
        by the same code, and the kind draw replicates
        ``random.choices``'s per-call arithmetic so seeds keep producing
        the streams they always have.  Single use, like
        :meth:`operations`.
        """
        if size <= 0:
            raise ValueError(f"batch size must be positive, got {size}")
        if self.consumed:
            # Reuse would replay over mutated key state and produce a
            # stream no seed ever specified; same error whether the
            # prior stream came from operations() or operation_batches(),
            # and whether or not it was iterated to the end.
            raise ValueError(
                "the supplied WorkloadGenerator has already produced its "
                "operation stream; streams mutate generator state, so build "
                "a fresh WorkloadGenerator(spec) for each run"
            )
        if not self._live_count and self.spec.initial_records:
            raise RuntimeError("call initial_data() before operations()")
        self.consumed = True
        return self._batch_stream(size)

    def _batch_stream(self, size: int) -> Iterator[List[Operation]]:
        kinds, weights = zip(*self.spec.mix.items())
        # One kind draw consumes exactly one rng.random(), with the same
        # float arithmetic as rng.choices(kinds, weights=weights)[0]
        # (cumulative weights + bisect) — hoisted out of the loop so a
        # draw is one C-level call instead of a list rebuild per op.
        cum_weights = list(accumulate(weights))
        total = cum_weights[-1] + 0.0
        hi = len(kinds) - 1
        draw = self.rng.random
        pick_index = self.distribution.pick_index
        value_for = self._value_for
        range_fraction = self.spec.range_fraction
        live = self._live
        key_at = live.at
        has_inserts = self.spec.inserts > 0
        insert, point, ranged, update = (
            OpKind.INSERT, OpKind.POINT_QUERY, OpKind.RANGE_QUERY, OpKind.UPDATE
        )
        # Both counters live in locals for the whole stream; the
        # generator is single use, so nothing reads them back.
        live_count = self._live_count
        next_key = self._next_key
        remaining = self.spec.operations
        while remaining > 0:
            count = size if size < remaining else remaining
            batch: List[Operation] = []
            append = batch.append
            for _ in range(count):
                kind = kinds[bisect(cum_weights, draw() * total, 0, hi)]
                # Reads/updates/deletes need live keys; a drained key
                # set redirects them to inserts while the mix has any.
                if kind is insert or (not live_count and has_inserts):
                    key = next_key
                    next_key += 2
                    live.append(key)
                    live_count += 1
                    append(Operation(insert, key, value_for(key)))
                elif not live_count:
                    # Drained key set, insert-free mix: the slot still
                    # counts, as a guaranteed miss (live keys are even);
                    # dropping it would skew every per-op denominator.
                    append(Operation(point, next_key + 1))
                elif kind is point:
                    append(Operation(point, key_at(pick_index(live_count))))
                elif kind is update:
                    key = key_at(pick_index(live_count))
                    append(Operation(update, key, value_for(key) + 1))
                elif kind is ranged:
                    last = live_count - 1
                    span = max(1, int(live_count * range_fraction))
                    start = min(pick_index(live_count), last)
                    end = min(start + span - 1, last)
                    append(Operation(ranged, key_at(start), 0, key_at(end)))
                else:
                    append(Operation(kind, live.pop(pick_index(live_count))))
                    live_count -= 1
            remaining -= count
            yield batch

    @staticmethod
    def _value_for(key: int) -> int:
        """Deterministic value derivation, so oracles can recompute it."""
        return key * 1000 + 1


def generate_operations(spec: WorkloadSpec) -> Tuple[List[Tuple[int, int]], List[Operation]]:
    """Convenience: materialize both the dataset and the full stream."""
    generator = WorkloadGenerator(spec)
    data = generator.initial_data()
    return data, list(generator.operations())
