"""Closed-form I/O cost models — the paper's Table 1, executable.

Table 1 gives, for six data organizations, the asymptotic I/O cost of
bulk creation, index size, point query, range query and insert/update/
delete in terms of:

======  =====================================
``N``   dataset size (tuples)
``m``   range-query result size (tuples)
``B``   block size (tuples per block)
``P``   partition size (tuples) — ZoneMaps
``T``   LSM level-size ratio
``MEM`` sort memory (blocks)
======  =====================================

Each :class:`Table1Model` evaluates those formulas (as block counts, up
to constant factors), so the Table-1 benchmark can compare the *shape*
of measured curves against the paper's claimed asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict


@dataclass(frozen=True)
class Table1Params:
    """The parameter point a model is evaluated at."""

    N: int
    m: int = 1
    B: int = 256
    P: int = 1024
    T: int = 4
    MEM: int = 64

    def __post_init__(self) -> None:
        if min(self.N, self.m, self.B, self.P, self.T, self.MEM) < 1:
            raise ValueError("all Table 1 parameters must be >= 1")


def _log(base: float, value: float) -> float:
    """log_base(value), clamped to >= 1 so costs never vanish."""
    if value <= 1 or base <= 1:
        return 1.0
    return max(1.0, math.log(value, base))


@dataclass(frozen=True)
class Table1Model:
    """One row of Table 1: the five cost formulas of an organization."""

    name: str
    bulk_creation: Callable[[Table1Params], float]
    index_size: Callable[[Table1Params], float]
    point_query: Callable[[Table1Params], float]
    range_query: Callable[[Table1Params], float]
    update: Callable[[Table1Params], float]

    def row(self, params: Table1Params) -> Dict[str, float]:
        """All five costs of this organization at one parameter point."""
        return {
            "bulk_creation": self.bulk_creation(params),
            "index_size": self.index_size(params),
            "point_query": self.point_query(params),
            "range_query": self.range_query(params),
            "update": self.update(params),
        }


#: The six rows of Table 1, as given in the paper.
TABLE1_MODELS: Dict[str, Table1Model] = {
    "btree": Table1Model(
        name="B+-Tree",
        bulk_creation=lambda p: (p.N / p.B) * _log(p.MEM / p.B if p.MEM > p.B else 2, p.N / p.B),
        index_size=lambda p: p.N / p.B,
        point_query=lambda p: _log(p.B, p.N),
        range_query=lambda p: _log(p.B, p.N) + p.m / p.B,
        update=lambda p: _log(p.B, p.N),
    ),
    "hash-index": Table1Model(
        name="Perfect Hash Index",
        bulk_creation=lambda p: p.N / p.B,
        index_size=lambda p: p.N / p.B,
        point_query=lambda p: 1.0,
        range_query=lambda p: p.N / p.B,
        update=lambda p: 1.0,
    ),
    "zonemap": Table1Model(
        name="ZoneMaps",
        bulk_creation=lambda p: p.N / p.B,
        index_size=lambda p: max(1.0, p.N / p.P / p.B),
        point_query=lambda p: max(1.0, p.N / p.P / p.B),
        range_query=lambda p: max(1.0, p.N / p.P / p.B),
        update=lambda p: max(1.0, p.N / p.P / p.B),
    ),
    "lsm": Table1Model(
        name="Levelled LSM",
        bulk_creation=lambda p: p.N / p.B,  # N/A in the paper; bulk = one write
        index_size=lambda p: (p.N / p.B) * (p.T / (p.T - 1)),
        point_query=lambda p: _log(p.T, p.N / p.B) * _log(p.B, p.N),
        range_query=lambda p: _log(p.T, p.N / p.B) * _log(p.B, p.N) + p.m * p.T / (p.T - 1) / p.B,
        update=lambda p: (p.T / p.B) * _log(p.T, p.N / p.B),
    ),
    "sorted-column": Table1Model(
        name="Sorted column",
        bulk_creation=lambda p: (p.N / p.B) * _log(p.MEM / p.B if p.MEM > p.B else 2, p.N / p.B),
        index_size=lambda p: 1.0,
        point_query=lambda p: _log(2, p.N),
        range_query=lambda p: _log(2, p.N) + p.m / p.B,
        update=lambda p: p.N / p.B / 2,
    ),
    "unsorted-column": Table1Model(
        name="Unsorted column",
        bulk_creation=lambda p: 1.0,
        index_size=lambda p: 1.0,
        point_query=lambda p: p.N / p.B / 2,
        range_query=lambda p: p.N / p.B,
        update=lambda p: 1.0,
    ),
}
