"""ASCII rendering of the RUM triangle (Figures 1 and 3).

Renders measured :class:`~repro.core.space.RUMPoint` placements inside
the read/write/space triangle so benchmarks can print a recognizable
reproduction of the paper's figures on a terminal.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.space import CORNER_POSITIONS, CORNER_READ, CORNER_SPACE, CORNER_WRITE, RUMPoint


def render_triangle(
    points: Sequence[RUMPoint],
    width: int = 61,
    height: int = 24,
    legend: bool = True,
) -> str:
    """Draw the unit RUM triangle with labelled points.

    Each point is drawn as a single letter (a, b, c, ...); the legend
    maps letters to names.  Points landing on the same cell are stacked
    into the legend with a ``*`` marker in the grid.
    """
    if width < 21 or height < 8:
        raise ValueError("triangle rendering needs width >= 21 and height >= 8")
    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    tri_height = math.sqrt(3.0) / 2.0

    def to_cell(x: float, y: float) -> Tuple[int, int]:
        column = int(round(x * (width - 1)))
        row = int(round((1.0 - y / tri_height) * (height - 1)))
        return max(0, min(height - 1, row)), max(0, min(width - 1, column))

    # Triangle edges.
    corners = [
        CORNER_POSITIONS[CORNER_READ],
        CORNER_POSITIONS[CORNER_WRITE],
        CORNER_POSITIONS[CORNER_SPACE],
    ]
    for start, end in ((0, 1), (1, 2), (2, 0)):
        x0, y0 = corners[start]
        x1, y1 = corners[end]
        steps = max(width, height) * 2
        for step in range(steps + 1):
            t = step / steps
            row, column = to_cell(x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
            grid[row][column] = "."

    # Corner labels.
    top_row, top_col = to_cell(*CORNER_POSITIONS[CORNER_READ])
    _stamp(grid, top_row, max(0, top_col - 1), "R")
    bl_row, bl_col = to_cell(*CORNER_POSITIONS[CORNER_WRITE])
    _stamp(grid, bl_row, bl_col, "U")
    br_row, br_col = to_cell(*CORNER_POSITIONS[CORNER_SPACE])
    _stamp(grid, br_row, br_col, "M")

    labels: List[Tuple[str, str]] = []
    for index, point in enumerate(points):
        letter = chr(ord("a") + index % 26)
        row, column = to_cell(point.x, point.y)
        current = grid[row][column]
        if current not in (" ", "."):
            grid[row][column] = "*"
        else:
            grid[row][column] = letter
        labels.append((letter, point.name))

    lines = ["".join(row).rstrip() for row in grid]
    if legend:
        lines.append("")
        lines.append("R = read-optimized, U = write-optimized, M = space-optimized")
        for letter, name in labels:
            lines.append(f"  {letter} = {name}")
    return "\n".join(lines)


def _stamp(grid: List[List[str]], row: int, column: int, text: str) -> None:
    for offset, char in enumerate(text):
        if 0 <= column + offset < len(grid[0]):
            grid[row][column + offset] = char
