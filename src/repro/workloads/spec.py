"""Workload specification types.

A :class:`WorkloadSpec` describes an operation mix (fractions of point
queries, range queries, inserts, updates, deletes), a key distribution
and range-query sizing.  Specs are declarative and hashable so benchmark
parameter sweeps can be tabulated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class OpKind(enum.Enum):
    """The five operation types of the paper's workload model."""

    POINT_QUERY = "point_query"
    RANGE_QUERY = "range_query"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"

    @property
    def is_read(self) -> bool:
        return self in (OpKind.POINT_QUERY, OpKind.RANGE_QUERY)


_RANGE_QUERY = OpKind.RANGE_QUERY


class Operation:
    """One operation in a workload stream.

    ``high_key`` is only meaningful for range queries; ``value`` only for
    inserts and updates.  A value, equal and hashable by content (do not
    mutate one), in a slotted class because the generator builds one per
    operation; construction rejects a range query with ``high_key < key``.
    """

    __slots__ = ("kind", "key", "value", "high_key")

    def __init__(
        self, kind: OpKind, key: int, value: int = 0, high_key: int = 0
    ) -> None:
        if kind is _RANGE_QUERY and high_key < key:
            raise ValueError(f"range query with high_key {high_key} < key {key}")
        self.kind = kind
        self.key = key
        self.value = value
        self.high_key = high_key

    def _values(self) -> Tuple[OpKind, int, int, int]:
        return (self.kind, self.key, self.value, self.high_key)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Operation:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return (
            f"Operation(kind={self.kind!r}, key={self.key!r}, "
            f"value={self.value!r}, high_key={self.high_key!r})"
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a workload.

    Parameters
    ----------
    point_queries, range_queries, inserts, updates, deletes:
        Operation-mix fractions; they must sum to 1 (within tolerance).
    operations:
        Number of operations to generate.
    initial_records:
        Size of the bulk-loaded dataset the stream runs against.
    range_fraction:
        Range query selectivity: result size as a fraction of the live
        dataset (the paper's ``m`` relative to ``N``).
    distribution:
        Key-distribution name resolved by the generator
        ("uniform", "zipfian", "sequential", "latest", "clustered").
    seed:
        Seed for full determinism.
    """

    point_queries: float = 1.0
    range_queries: float = 0.0
    inserts: float = 0.0
    updates: float = 0.0
    deletes: float = 0.0
    operations: int = 1000
    initial_records: int = 10_000
    range_fraction: float = 0.001
    distribution: str = "uniform"
    seed: int = 7

    def __post_init__(self) -> None:
        total = (
            self.point_queries
            + self.range_queries
            + self.inserts
            + self.updates
            + self.deletes
        )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation mix must sum to 1.0, got {total}")
        for label, fraction in self.mix.items():
            if fraction < 0:
                raise ValueError(f"negative fraction for {label}: {fraction}")
        if self.operations < 0:
            raise ValueError("operations must be non-negative")
        if self.initial_records < 0:
            raise ValueError("initial_records must be non-negative")
        if not 0 <= self.range_fraction <= 1:
            raise ValueError("range_fraction must be in [0, 1]")

    @property
    def mix(self) -> Dict[OpKind, float]:
        return {
            OpKind.POINT_QUERY: self.point_queries,
            OpKind.RANGE_QUERY: self.range_queries,
            OpKind.INSERT: self.inserts,
            OpKind.UPDATE: self.updates,
            OpKind.DELETE: self.deletes,
        }

    def scaled(self, initial_records: int, operations: Optional[int] = None) -> "WorkloadSpec":
        """A copy of this spec at a different dataset size."""
        return WorkloadSpec(
            point_queries=self.point_queries,
            range_queries=self.range_queries,
            inserts=self.inserts,
            updates=self.updates,
            deletes=self.deletes,
            operations=operations if operations is not None else self.operations,
            initial_records=initial_records,
            range_fraction=self.range_fraction,
            distribution=self.distribution,
            seed=self.seed,
        )


#: Named mixes used throughout the benchmarks.  ``balanced`` is the
#: common workload of the Figure-1 reproduction: every structure is
#: measured under the same mixture of reads and writes.
MIXES: Dict[str, WorkloadSpec] = {
    "read-only": WorkloadSpec(point_queries=0.8, range_queries=0.2),
    "read-mostly": WorkloadSpec(
        point_queries=0.7, range_queries=0.1, inserts=0.1, updates=0.1
    ),
    "balanced": WorkloadSpec(
        point_queries=0.35,
        range_queries=0.05,
        inserts=0.3,
        updates=0.2,
        deletes=0.1,
    ),
    "write-heavy": WorkloadSpec(
        point_queries=0.1, inserts=0.6, updates=0.25, deletes=0.05
    ),
    "insert-only": WorkloadSpec(point_queries=0.0, inserts=1.0),
    "scan-heavy": WorkloadSpec(point_queries=0.2, range_queries=0.8),
}
