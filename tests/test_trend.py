import numpy as np
import pytest

from seqspectrum.dynamics import DelaySystem, ForcingSpec, simulate_delay
from seqspectrum.linalg import CMatrix, CVector
from seqspectrum.trend import GROWTH_DECAYING, classify_growth, least_squares_slope


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


def test_a_decay_into_subnormal_norms_reads_decaying():
    # 0.5^n is below 1e-300 from n = 997 and 0 from n = 1075: logs clamped
    # at 1e-300 made the finite part of the window flat, read as bounded
    assert classify_growth(0.5 ** np.arange(2000)) == GROWTH_DECAYING


@pytest.mark.parametrize("horizon", [2000, 2100])
def test_a_simulated_decay_into_subnormal_norms_reads_decaying(horizon):
    system = DelaySystem(CMatrix([[0.5]]), 1, [CVector([1.0])], ForcingSpec("zero"))
    _, report = simulate_delay(system, horizon)
    assert report.growth_class == GROWTH_DECAYING
