"""Deterministic workload generation.

:class:`WorkloadGenerator` maintains the set of live keys as the stream it
generates mutates the (virtual) dataset, so updates and deletes always
target existing keys and inserts always use fresh keys — the streams are
valid against any access method that starts from the same bulk load.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate, chain
from typing import Iterator, List, Tuple

from repro.workloads.distributions import KeyDistribution, make_distribution
from repro.workloads.spec import Operation, OpKind, WorkloadSpec

#: Draw granularity used when :meth:`WorkloadGenerator.operations` flattens
#: the batch producer.  Invisible to consumers (the stream is identical,
#: only materialized this many operations at a time).
_FLATTEN_BATCH = 1024


class WorkloadGenerator:
    """Generates the initial dataset and the operation stream of a spec."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.distribution: KeyDistribution = make_distribution(
            spec.distribution, self.rng
        )
        # Live keys, kept sorted so range queries can be anchored at a
        # chosen selectivity and deletes can maintain order in O(log n).
        self._keys: List[int] = []
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
        if self._keys:
            raise RuntimeError("initial_data may only be generated once")
        count = self.spec.initial_records
        self._keys = [2 * i for i in range(count)]
        self._next_key = 2 * count
        return [(key, self._value_for(key)) for key in self._keys]

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
        if not self._keys and self.spec.initial_records:
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
        emit = self._emit
        keys = self._keys
        insert_fallback = OpKind.INSERT if self.spec.inserts > 0 else None
        remaining = self.spec.operations
        while remaining > 0:
            count = size if size < remaining else remaining
            batch: List[Operation] = []
            append = batch.append
            for _ in range(count):
                kind = kinds[bisect(cum_weights, draw() * total, 0, hi)]
                # Degenerate fallback: reads/updates/deletes need live
                # keys; redirect to inserts while the mix has them.
                if not keys and kind is not OpKind.INSERT:
                    if insert_fallback is not None:
                        kind = insert_fallback
                append(emit(kind))
            remaining -= count
            yield batch

    # ------------------------------------------------------------------
    def _emit(self, kind: OpKind) -> Operation:
        if kind is OpKind.INSERT:
            key = self._next_key
            self._next_key += 2
            self._insert_sorted(key)
            return Operation(OpKind.INSERT, key, self._value_for(key))
        if not self._keys:
            # Drained key set and an insert-free mix: the slot must still
            # count, so emit a guaranteed miss (live keys are even, so an
            # odd key can never hit) instead of dropping it — dropped
            # slots once made streams shorter than ``spec.operations``,
            # skewing every per-op denominator.
            return Operation(OpKind.POINT_QUERY, self._next_key + 1)
        if kind is OpKind.POINT_QUERY:
            return Operation(OpKind.POINT_QUERY, self.distribution.pick(self._keys))
        if kind is OpKind.RANGE_QUERY:
            return self._range_operation()
        if kind is OpKind.UPDATE:
            key = self.distribution.pick(self._keys)
            return Operation(OpKind.UPDATE, key, self._value_for(key) + 1)
        if kind is OpKind.DELETE:
            index = self.distribution.pick_index(len(self._keys))
            key = self._keys.pop(index)
            return Operation(OpKind.DELETE, key)
        raise ValueError(f"unhandled operation kind {kind}")  # pragma: no cover

    def _range_operation(self) -> Operation:
        span = max(1, int(len(self._keys) * self.spec.range_fraction))
        start = self.distribution.pick_index(len(self._keys))
        start = min(start, len(self._keys) - 1)
        end = min(start + span - 1, len(self._keys) - 1)
        return Operation(
            OpKind.RANGE_QUERY, self._keys[start], high_key=self._keys[end]
        )

    def _insert_sorted(self, key: int) -> None:
        # Keys are handed out monotonically, so appending keeps order.
        self._keys.append(key)

    @staticmethod
    def _value_for(key: int) -> int:
        """Deterministic value derivation, so oracles can recompute it."""
        return key * 1000 + 1


def generate_operations(spec: WorkloadSpec) -> Tuple[List[Tuple[int, int]], List[Operation]]:
    """Convenience: materialize both the dataset and the full stream."""
    generator = WorkloadGenerator(spec)
    data = generator.initial_data()
    return data, list(generator.operations())
