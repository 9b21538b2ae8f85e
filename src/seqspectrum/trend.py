"""Trend fitting for norm sequences.

A single least-squares slope serves every fit in the package: ln of
the resolvent norm against -ln of the radius for the pole-order probe,
and one log-log fit, :func:`_log_log_slope`, of a window of ln-norms
against ln of the 1-based index under both the growth classifier and
the tail statistics.  Both take logs the same way, -inf at a zero norm,
which stays out of the fit.  The growth classifier always fits the last
half of the range, the tail statistics the window their caller names.  Classification thresholds are heuristics: |slope| below
0.05 reads as bounded, a slope above 3 on the fitted window can no
longer be explained by a polynomial of the dimensions this package
handles and is flagged as exponential.
"""

import numpy as np

GROWTH_DECAYING = "decaying"
GROWTH_BOUNDED = "bounded"
GROWTH_POLYNOMIAL = "polynomial-suspect"
GROWTH_EXPONENTIAL = "exponential-suspect"

_SLOPE_FLAT = 0.05
_SLOPE_EXPONENTIAL = 3.0


def is_bounded(growth: str) -> bool:
    """Whether a growth class certifies boundedness: decaying or bounded."""
    return growth in (GROWTH_DECAYING, GROWTH_BOUNDED)


def least_squares_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x over the entries where both are finite.

    The slope is reported as 0.0 when fewer than two such entries remain
    or when x has no spread over them.  The sums are numpy's own, not a
    BLAS dot, so the slope does not depend on the BLAS thread count.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = np.isfinite(x) & np.isfinite(y)
    if int(mask.sum()) < 2:
        return 0.0
    x, y = x[mask], y[mask]
    x = x - x.mean()
    denom = float(np.sum(x * x))
    if denom == 0.0:
        return 0.0
    return float(np.sum(x * (y - y.mean())) / denom)


def _log_log_slope(window_logs: np.ndarray, start: int) -> float:
    """Slope of ``window_logs`` (ln-norms at indices start, start + 1, ...)
    against ln of the 1-based index start + 1, start + 2, ...; indices
    offset by one keep n = 0 out of the log fit."""
    idx = np.arange(start + 1, start + window_logs.shape[0] + 1, dtype=np.float64)
    return least_squares_slope(np.log(idx), window_logs)


def classify_from_logs(log_norms: np.ndarray) -> str:
    """Classify growth from ln-norm samples over the last half of the range.

    ``log_norms[k]`` is ln of the norm at index k+1 (1-based indices keep
    the log-log fit well defined); -inf marks exactly-zero norms.  The
    window runs from index n // 2 to n, for n samples.
    """
    logs = np.asarray(log_norms, dtype=float)
    start = max(0, logs.shape[0] // 2 - 1)
    window = logs[start:]
    if window.size == 0:
        return GROWTH_BOUNDED
    if not np.isfinite(window).any():
        return GROWTH_DECAYING
    slope = _log_log_slope(window, start)
    if slope >= _SLOPE_EXPONENTIAL:
        return GROWTH_EXPONENTIAL
    if slope >= _SLOPE_FLAT:
        return GROWTH_POLYNOMIAL
    if slope > -_SLOPE_FLAT:
        return GROWTH_BOUNDED
    return GROWTH_DECAYING


def classify_growth(norms: np.ndarray) -> str:
    """Classify a norm sequence; see :func:`classify_from_logs`."""
    with np.errstate(divide="ignore"):
        return classify_from_logs(np.log(np.asarray(norms, dtype=float)))
