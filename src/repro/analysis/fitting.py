"""Growth indicators for measured cost curves.

The Table-1 reproduction does not (and should not) try to match the
paper's constants — our substrate is a simulator.  What must match is
the *growth shape*: a hash probe stays flat as N grows, a tree probe
grows logarithmically, a scan grows linearly.  This module reduces a
measured (n, cost) series to how much it grew end to end, which the
Table-1 bench compares against each shape's expected growth.
"""

from __future__ import annotations

from typing import Sequence


def growth_ratio(ns: Sequence[float], costs: Sequence[float]) -> float:
    """cost(max n) / cost(min n) — a crude but robust growth indicator.

    ~1 means flat, ~max(n)/min(n) means linear; the Table-1 bench uses
    it for coarse assertions that are stable under noise.
    """
    pairs = sorted(zip(ns, costs))
    first, last = pairs[0][1], pairs[-1][1]
    if first <= 0:
        return float("inf") if last > 0 else 1.0
    return last / first


def is_flat(ns: Sequence[float], costs: Sequence[float], tolerance: float = 2.0) -> bool:
    """True when the curve grows by less than ``tolerance`` x overall."""
    return growth_ratio(ns, costs) <= tolerance
