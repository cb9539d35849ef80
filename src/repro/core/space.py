"""Geometry of the RUM design space (Figures 1 and 3).

The paper visualizes access methods on a triangle whose corners are
*read-optimized* (top), *write-optimized* (bottom left) and
*space-optimized* (bottom right).  A structure sits near a corner when it
is good on that overhead and pays on the others.

We project a measured :class:`~repro.core.rum.RUMProfile` onto the
triangle with barycentric weights proportional to *goodness* on each
axis: goodness is ``1 / overhead`` so the theoretical optimum (ratio 1.0)
has weight 1 and an unbounded overhead has weight 0.  A structure optimal
on exactly one axis lands on that corner; a structure equally mediocre on
all three lands in the center, matching the paper's qualitative picture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.rum import RUMProfile

#: Corner labels, reused by the triangle renderer and the wizard.
CORNER_READ = "read-optimized"
CORNER_WRITE = "write-optimized"
CORNER_SPACE = "space-optimized"

#: 2-D positions of the corners in the unit triangle (x, y), y up.
CORNER_POSITIONS: Dict[str, Tuple[float, float]] = {
    CORNER_READ: (0.5, math.sqrt(3.0) / 2.0),
    CORNER_WRITE: (0.0, 0.0),
    CORNER_SPACE: (1.0, 0.0),
}


@dataclass(frozen=True)
class RUMPoint:
    """A profile placed in the triangle."""

    name: str
    x: float
    y: float
    weights: Tuple[float, float, float]  # (read, write, space) goodness


def goodness(overhead: float) -> float:
    """Map an amplification ratio in [1, inf) to goodness in (0, 1].

    Ratios below 1 cannot occur under the paper's definitions but are
    clamped defensively; infinite/NaN overheads map to 0.
    """
    if overhead is None or math.isnan(overhead) or math.isinf(overhead):
        return 0.0
    return 1.0 / max(overhead, 1.0)


def barycentric_weights(profile: RUMProfile) -> Tuple[float, float, float]:
    """Normalized (read, write, space) goodness weights of a profile.

    A profile that is infinitely bad on every axis (weight sum 0) is
    placed at the centroid.
    """
    raw = (
        goodness(profile.read_overhead),
        goodness(profile.update_overhead),
        goodness(profile.memory_overhead),
    )
    total = sum(raw)
    if total == 0.0:
        return (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    return (raw[0] / total, raw[1] / total, raw[2] / total)


def project(profile: RUMProfile, name: str = "") -> RUMPoint:
    """Place a profile in the unit RUM triangle."""
    w_read, w_write, w_space = barycentric_weights(profile)
    rx, ry = CORNER_POSITIONS[CORNER_READ]
    wx, wy = CORNER_POSITIONS[CORNER_WRITE]
    sx, sy = CORNER_POSITIONS[CORNER_SPACE]
    x = w_read * rx + w_write * wx + w_space * sx
    y = w_read * ry + w_write * wy + w_space * sy
    return RUMPoint(
        name=name or profile.name,
        x=x,
        y=y,
        weights=(w_read, w_write, w_space),
    )


def project_field(profiles: Dict[str, RUMProfile]) -> Dict[str, RUMPoint]:
    """Place a *set* of profiles in the triangle, field-normalized.

    Absolute amplifications live on very different scales (block
    granularity puts RO in the tens while MO hovers near 1), so placing
    each profile independently squashes every structure onto one edge.
    Figure 1 is a *relative* picture: what matters is how each structure
    compares with the best-in-class on each axis.  Each overhead is
    divided by the field minimum on its axis, and goodness decays with
    the log of that ratio — best-in-class on an axis gets weight 1.
    """
    if not profiles:
        return {}
    floor_ro = min(p.read_overhead for p in profiles.values())
    floor_uo = min(p.update_overhead for p in profiles.values())
    floor_mo = min(p.memory_overhead for p in profiles.values())

    def relative_goodness(overhead: float, floor: float) -> float:
        if math.isinf(overhead) or math.isnan(overhead):
            return 0.0
        ratio = max(overhead / max(floor, 1e-12), 1.0)
        return 1.0 / (1.0 + math.log2(ratio))

    points: Dict[str, RUMPoint] = {}
    for name, profile in profiles.items():
        raw = (
            relative_goodness(profile.read_overhead, floor_ro),
            relative_goodness(profile.update_overhead, floor_uo),
            relative_goodness(profile.memory_overhead, floor_mo),
        )
        total = sum(raw) or 1.0
        weights = (raw[0] / total, raw[1] / total, raw[2] / total)
        rx, ry = CORNER_POSITIONS[CORNER_READ]
        wx, wy = CORNER_POSITIONS[CORNER_WRITE]
        sx, sy = CORNER_POSITIONS[CORNER_SPACE]
        points[name] = RUMPoint(
            name=name,
            x=weights[0] * rx + weights[1] * wx + weights[2] * sx,
            y=weights[0] * ry + weights[1] * wy + weights[2] * sy,
            weights=weights,
        )
    return points
