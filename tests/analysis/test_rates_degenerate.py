"""Degenerate residual/error series must never crash the rate helpers.

Satellite of the streaming-results PR: sweeps now feed whatever series
a persisted trace holds straight into :mod:`repro.analysis.rates`, so
empty, constant, single-point and non-monotone inputs are everyday
inputs, not edge cases.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.rates import (
    fit_geometric_rate,
    iterations_to_tolerance,
    time_to_tolerance,
)

EMPTY = np.array([])
SINGLE = np.array([0.5])
CONSTANT = np.full(10, 3.0)
NON_MONOTONE = np.array([1.0, 0.1, 0.5, 0.01, 0.2, 1e-4, 5e-5])
ALL_ZERO = np.zeros(6)
WITH_NANS = np.array([1.0, np.nan, 0.5, np.inf, 0.25, -1.0, 0.125])

DEGENERATE = {
    "empty": EMPTY,
    "single": SINGLE,
    "constant": CONSTANT,
    "non-monotone": NON_MONOTONE,
    "all-zero": ALL_ZERO,
    "nans-infs-negatives": WITH_NANS,
}


class TestFitGeometricRateDegenerate:
    @pytest.mark.parametrize("name", DEGENERATE)
    def test_never_raises(self, name):
        fit = fit_geometric_rate(DEGENERATE[name])
        assert fit.n_points >= 0  # object comes back intact

    def test_empty_returns_nan_fit(self):
        fit = fit_geometric_rate(EMPTY)
        assert math.isnan(fit.rate) and fit.n_points == 0
        assert fit.half_life() == float("inf")

    def test_single_point_returns_nan_fit(self):
        fit = fit_geometric_rate(SINGLE)
        assert math.isnan(fit.rate) and fit.n_points == 1

    def test_constant_series_rate_one(self):
        fit = fit_geometric_rate(CONSTANT)
        assert fit.rate == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.half_life() == float("inf")

    def test_all_zero_has_no_usable_points(self):
        fit = fit_geometric_rate(ALL_ZERO)
        assert fit.n_points == 0 and math.isnan(fit.rate)

    def test_non_monotone_still_contracting(self):
        fit = fit_geometric_rate(NON_MONOTONE)
        assert 0.0 < fit.rate < 1.0
        assert fit.n_points == NON_MONOTONE.size

    def test_nonfinite_and_nonpositive_points_skipped(self):
        fit = fit_geometric_rate(WITH_NANS)
        assert fit.n_points == 4  # 1.0, 0.5, 0.25, 0.125

    def test_skip_beyond_length(self):
        fit = fit_geometric_rate(NON_MONOTONE, skip=100)
        assert fit.n_points == 0 and math.isnan(fit.rate)

    def test_2d_input_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            fit_geometric_rate(np.ones((3, 3)))


class TestToleranceHelpersDegenerate:
    def test_empty_series_returns_none(self):
        assert iterations_to_tolerance(EMPTY, 1e-3) is None
        assert time_to_tolerance(EMPTY[:0], EMPTY, 1e-3) is None

    def test_single_point_below(self):
        assert iterations_to_tolerance(np.array([1e-9]), 1e-3) == 0
        assert time_to_tolerance(np.array([1e-9]), EMPTY, 1e-3) == 0.0

    def test_single_point_above(self):
        assert iterations_to_tolerance(np.array([1.0]), 1e-3) is None

    def test_constant_above_never_reaches(self):
        assert iterations_to_tolerance(CONSTANT, 1e-3) is None

    def test_non_monotone_requires_staying_below(self):
        series = np.array([1.0, 1e-6, 1.0, 1e-6, 1e-7])
        assert iterations_to_tolerance(series, 1e-3) == 3

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            iterations_to_tolerance(CONSTANT, 0.0)
