"""Unit tests for the Pareto-frontier analysis."""

from __future__ import annotations

from repro.analysis.pareto import frontier_span, pareto_frontier
from repro.core.rum import RUMProfile


def profiles():
    return {
        "reader": RUMProfile(1.0, 50.0, 20.0),
        "writer": RUMProfile(50.0, 1.0, 20.0),
        "saver": RUMProfile(50.0, 20.0, 1.0),
        "loser": RUMProfile(60.0, 60.0, 25.0),  # dominated by everyone
        "balanced": RUMProfile(10.0, 10.0, 5.0),
    }


class TestFrontier:
    def test_specialists_on_frontier(self):
        frontier = pareto_frontier(profiles())
        assert {"reader", "writer", "saver", "balanced"} <= set(frontier)

    def test_dominated_profile_excluded(self):
        assert "loser" not in pareto_frontier(profiles())

    def test_empty_input(self):
        assert pareto_frontier({}) == []
        assert frontier_span({}) == {}


class TestSpan:
    def test_span_covers_specialist_extremes(self):
        span = frontier_span(profiles())
        assert span["read"][0] == 1.0
        assert span["update"][0] == 1.0
        assert span["memory"][0] == 1.0
        assert span["read"][1] >= 50.0
