"""Pareto-frontier analysis over RUM profiles.

Section 3's conjecture is a statement about the frontier of the design
space: every access method trades somewhere, so the set of non-dominated
designs is broad and no single point wins.  These helpers compute that
frontier over measured profiles and how widely it spans each axis.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.rum import RUMProfile


def pareto_frontier(profiles: Dict[str, RUMProfile]) -> List[str]:
    """Names of the non-dominated profiles (sorted)."""
    names = sorted(profiles)
    frontier = []
    for name in names:
        dominated = any(
            profiles[other].dominates(profiles[name])
            for other in names
            if other != name
        )
        if not dominated:
            frontier.append(name)
    return frontier


def frontier_span(profiles: Dict[str, RUMProfile]) -> Dict[str, Tuple[float, float]]:
    """Per-axis (min, max) across the frontier profiles.

    A wide span on every axis is the empirical signature of the
    conjecture: the frontier stretches between specialists rather than
    collapsing onto one balanced point.
    """
    frontier = pareto_frontier(profiles)
    if not frontier:
        return {}
    ros = [profiles[name].read_overhead for name in frontier]
    uos = [profiles[name].update_overhead for name in frontier]
    mos = [profiles[name].memory_overhead for name in frontier]
    return {
        "read": (min(ros), max(ros)),
        "update": (min(uos), max(uos)),
        "memory": (min(mos), max(mos)),
    }
