"""Unit tests for the RUM triangle geometry (Figures 1 and 3)."""

from __future__ import annotations

import math

import pytest

from repro.core.rum import RUMProfile
from repro.core.space import (
    CORNER_POSITIONS,
    CORNER_READ,
    CORNER_SPACE,
    CORNER_WRITE,
    barycentric_weights,
    goodness,
    project,
)


class TestGoodness:
    def test_optimal_overhead_is_one(self):
        assert goodness(1.0) == 1.0

    def test_larger_overhead_means_less_good(self):
        assert goodness(2.0) == 0.5
        assert goodness(10.0) == pytest.approx(0.1)

    def test_infinite_overhead_is_zero(self):
        assert goodness(float("inf")) == 0.0

    def test_nan_is_zero(self):
        assert goodness(float("nan")) == 0.0

    def test_sub_one_clamped(self):
        assert goodness(0.5) == 1.0


class TestProjection:
    @staticmethod
    def _assert_on_corner(profile, corner):
        point = project(profile)
        assert (point.x, point.y) == pytest.approx(CORNER_POSITIONS[corner], abs=0.01)

    def test_read_optimal_lands_on_read_corner(self):
        self._assert_on_corner(RUMProfile(1.0, 1e12, 1e12), CORNER_READ)

    def test_write_optimal_lands_on_write_corner(self):
        self._assert_on_corner(RUMProfile(1e12, 1.0, 1e12), CORNER_WRITE)

    def test_space_optimal_lands_on_space_corner(self):
        self._assert_on_corner(RUMProfile(1e12, 1e12, 1.0), CORNER_SPACE)

    def test_balanced_profile_lands_in_center(self):
        profile = RUMProfile(2.0, 2.0, 2.0)
        point = project(profile)
        # The centroid of the unit triangle.
        assert point.x == pytest.approx(0.5)
        assert point.y == pytest.approx(math.sqrt(3) / 6, rel=1e-6)

    def test_all_infinite_lands_in_center(self):
        inf = float("inf")
        point = project(RUMProfile(inf, inf, inf))
        assert point.x == pytest.approx(0.5)

    def test_weights_sum_to_one(self):
        profile = RUMProfile(1.5, 7.0, 3.0)
        weights = barycentric_weights(profile)
        assert sum(weights) == pytest.approx(1.0)

    def test_point_inside_triangle(self):
        profile = RUMProfile(1.5, 7.0, 3.0)
        point = project(profile)
        assert 0.0 <= point.x <= 1.0
        assert 0.0 <= point.y <= math.sqrt(3) / 2 + 1e-9

    def test_project_uses_profile_name(self):
        profile = RUMProfile(1.0, 2.0, 3.0, name="thing")
        assert project(profile).name == "thing"
        assert project(profile, name="override").name == "override"


class TestAffinity:
    def test_read_heavy_affinity_ordering(self):
        w_read, w_write, w_space = barycentric_weights(RUMProfile(1.0, 4.0, 4.0))
        assert w_read > w_write
        assert w_read > w_space
