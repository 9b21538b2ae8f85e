import numpy as np
import pytest

from seqspectrum.trend import least_squares_slope


def test_least_squares_slope_fits_a_line_over_finite_entries():
    x = np.arange(1.0, 11.0)
    y = 2.5 * x - 1.0
    y[2], y[5] = -np.inf, np.nan
    x[7] = np.inf
    assert least_squares_slope(x, y) == pytest.approx(2.5, rel=1e-14)


def test_least_squares_slope_is_zero_without_two_finite_points():
    assert least_squares_slope([1.0, 2.0, 3.0], [np.nan, 4.0, -np.inf]) == 0.0
    assert least_squares_slope([1.0, np.inf], [1.0, 2.0]) == 0.0
    assert least_squares_slope([], []) == 0.0


def test_least_squares_slope_is_zero_without_spread_in_x():
    assert least_squares_slope([2.0, 2.0, np.nan, 2.0], [1.0, 5.0, 3.0, -2.0]) == 0.0
