"""Finite-horizon bounded sequences, tail statistics, rotated Cesaro
means, unit-circle spectrum scans, and mode extraction.

The central estimator: for unimodular theta, the rotated mean
(1/n) sum theta^-k x_k recovers the amplitude of the eigen-sequence
theta^n v inside x exactly (telescoping), while every other unimodular
mode contributes O(1/n).  A sweep of these means over a circle grid is
the computable stand-in for the spectrum of a bounded sequence; the
scan report says so explicitly, since the identification is only proven
for sequences that really are a finite sum of modes plus a vanishing
term.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .eigen import power_bounded_probe, spectrum_info
from .linalg import CMatrix, CVector, _batched_spectral_norms
from .trend import GROWTH_BOUNDED, GROWTH_DECAYING, least_squares_slope

DEFAULT_HORIZON = 16384
DEFAULT_GRID_SIZE = 4096
MIN_HORIZON = 16
MAX_HORIZON = 2**20  # longest window an input may ask for

#: Running unimodular powers are renormalized this often to stop
#: modulus drift over horizons up to MAX_HORIZON.
_RENORM_INTERVAL = 1024

_UNIMODULAR_TOL = 1e-12

#: Complex elements one block of stacked rotated means may multiply at
#: once (1 MiB, one evaluation of a 16384 x 4 window): many clusters at a
#: long horizon would otherwise allocate clusters * horizon * d values
#: per golden-section step.
_EVAL_BLOCK_ELEMENTS = 1 << 16

PROXY_DISCLAIMER = (
    "detections are rotated-mean persistence estimates; they provably "
    "coincide with the sequence spectrum only for finite sums of "
    "unimodular modes plus a vanishing term"
)


def default_epsilon(sup_norm: float) -> float:
    """Scan threshold that scales with the sequence: max(1e-6, 1% of sup)."""
    return max(1e-6, 0.01 * sup_norm)


def default_tol_vanish(sup_norm: float) -> float:
    """Vanishing-tail tolerance: max(1e-9, 0.1% of sup)."""
    return max(1e-9, 1e-3 * sup_norm)


def require_unimodular(theta: complex, tol: float = _UNIMODULAR_TOL) -> complex:
    """Check | |theta| - 1 | <= tol and return theta normalized to unit modulus."""
    theta = complex(theta)
    mod = abs(theta)
    if abs(mod - 1.0) > tol:
        raise PreconditionError(f"theta = {theta!r} is not unimodular: | |theta|-1 | = {abs(mod - 1.0):.3e}")
    return theta / mod


def angular_distance(a: complex, b: complex) -> float:
    """Geodesic distance of two unit-circle points, in radians."""
    d = (cmath.phase(complex(a)) - cmath.phase(complex(b))) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def unimodular_powers(theta: complex, count: int) -> np.ndarray:
    """theta^0 .. theta^(count-1) by incremental multiplication.

    The running value is renormalized to unit modulus every 1024 steps;
    the angle accumulates only rounding error (about count * eps / 2).
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    return _unimodular_power_stack(np.array([complex(theta)]), count)[0]


def _unimodular_power_stack(thetas: np.ndarray, count: int) -> np.ndarray:
    """Row c holds thetas[c]^0 .. thetas[c]^(count-1), as in
    :func:`unimodular_powers`.

    Every segment between renormalizations scales the same running
    products theta^1 .. theta^1024.  The renormalization of each row's
    running value uses scalar arithmetic: numpy's array multiply and
    divide round differently, and every row must carry the same bits as
    a stack of one.
    """
    rows = thetas.shape[0]
    out = np.empty((rows, count), dtype=np.complex128)
    seg = np.cumprod(thetas[:, None].repeat(min(count, _RENORM_INTERVAL), axis=1), axis=1)
    current = [1.0 + 0.0j] * rows
    for start in range(0, count, _RENORM_INTERVAL):
        m = min(_RENORM_INTERVAL, count - start)
        out[:, start] = current
        out[:, start + 1 : start + m] = np.array(current, dtype=np.complex128)[:, None] * seg[:, : m - 1]
        if start + m < count:
            current = [c * s for c, s in zip(current, seg[:, m - 1])]
            current = [c / abs(c) for c in current]
    return out


class BoundedSeq:
    """A finite window x_0 .. x_(N-1) of a bounded sequence in C^d.

    Values are materialized as an (N, d) array; per-step norms and the
    sup norm are computed once at construction.  ``descriptor`` records
    how the window was generated (kind, parameters, seed) when it came
    from a generator, so that the exact same window can be regenerated.
    """

    def __init__(self, values, descriptor: dict | None = None):
        arr = np.asarray(values, dtype=np.complex128)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise PreconditionError("sequence values must form an (N, d) array")
        if arr.shape[0] < MIN_HORIZON:
            raise PreconditionError(f"horizon must be >= {MIN_HORIZON}, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise PreconditionError("sequence dimension must be >= 1")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise PreconditionError("sequence values must all be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self.values = arr
        self.descriptor = descriptor
        self.norms = np.linalg.norm(arr, axis=1)
        self.sup_norm = float(self.norms.max())

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> int:
        return self.values.shape[0]

    def vector(self, n: int) -> CVector:
        return CVector(self.values[n])

    def shifted(self, k: int) -> "BoundedSeq":
        """The window x_k .. x_(N-1) as a sequence in its own right."""
        if not 0 <= k <= self.horizon - MIN_HORIZON:
            raise PreconditionError(f"shift {k} leaves fewer than {MIN_HORIZON} entries")
        return BoundedSeq(self.values[k:])

    def __repr__(self):
        return f"BoundedSeq(horizon={self.horizon}, dim={self.dim})"


def decay_envelope(kind: str, param, count: int) -> np.ndarray:
    """Scalar envelope values e_0 .. e_(count-1) for the named decay law."""
    n = np.arange(count, dtype=np.float64)
    if kind == "none":
        return np.zeros(count)
    if kind == "geometric":
        r = float(param)
        if not 0.0 < r < 1.0:
            raise PreconditionError(f"geometric ratio must be in (0,1), got {r}")
        with np.errstate(under="ignore"):
            return r**n
    if kind == "power":
        q = float(param)
        if not q > 0.0:
            raise PreconditionError(f"power exponent must be > 0, got {q}")
        return (n + 1.0) ** (-q)
    if kind == "log":
        return 1.0 / np.log(n + 2.0)
    raise PreconditionError(f"unknown decay kind {kind!r}")


def _seeded_direction(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def modes_plus_decay(
    modes,
    horizon: int,
    decay: tuple[str, float] | None = None,
    seed: int = 0,
    dim: int | None = None,
    decay_direction=None,
) -> BoundedSeq:
    """sum_j theta_j^n v_j plus a decaying term along a seeded direction.

    ``modes`` is an iterable of (theta, v) pairs; ``decay`` is None or a
    (kind, param) pair.  The decay direction defaults to a seeded random
    unit vector so the envelope parameter is also the term's norm.
    """
    modes = [(require_unimodular(t), np.asarray(getattr(v, "data", v), dtype=np.complex128).reshape(-1)) for t, v in modes]
    if modes:
        d = modes[0][1].shape[0]
        if any(v.shape[0] != d for _, v in modes):
            raise PreconditionError("mode vectors must share one dimension")
        if dim is not None and dim != d:
            raise PreconditionError("dim contradicts the mode vectors")
    elif dim is not None:
        d = dim
    else:
        raise PreconditionError("need at least one mode or an explicit dim")
    values = np.zeros((horizon, d), dtype=np.complex128)
    for theta, v in modes:
        values += unimodular_powers(theta, horizon)[:, None] * v
    if decay is not None:
        kind, param = decay
        if kind != "none":
            env = decay_envelope(kind, param, horizon)
            if decay_direction is None:
                direction = _seeded_direction(d, seed)
            else:
                direction = np.asarray(getattr(decay_direction, "data", decay_direction), dtype=np.complex128).reshape(-1)
                if direction.shape[0] != d:
                    raise PreconditionError("decay direction has the wrong dimension")
            values += env[:, None] * direction
    descriptor = {
        "kind": "modes_plus_decay",
        "modes": [(t, tuple(v.tolist())) for t, v in modes],
        "decay": None if decay is None else (decay[0], decay[1]),
        "horizon": horizon,
        "seed": seed,
    }
    return BoundedSeq(values, descriptor)


def custom_table(values) -> BoundedSeq:
    """Materialized sequence from an explicit table of vectors."""
    return BoundedSeq(values, {"kind": "custom_table"})


@dataclass(frozen=True)
class TailStats:
    """Sup of ||x_n|| over [window_start, horizon) plus a decay-trend slope.

    A single tail sup cannot distinguish slow decay from persistence;
    the slope of ln||x_n|| against ln n over the window disambiguates.
    """

    window_start: int
    tail_sup: float
    trend_slope: float


def _stats_of_norms(norms: np.ndarray, window_start: int) -> TailStats:
    if not 0 <= window_start < norms.shape[0]:
        raise PreconditionError(f"window_start {window_start} outside [0, {norms.shape[0]})")
    window = norms[window_start:]
    # indices offset by one so n = 0 stays out of the log fit
    idx = np.arange(window_start, norms.shape[0], dtype=np.float64) + 1.0
    with np.errstate(divide="ignore"):
        slope = least_squares_slope(np.log(idx), np.log(window))
    return TailStats(window_start, float(window.max()), slope)


def tail_norm(x: BoundedSeq, window_start: int | None = None) -> TailStats:
    if window_start is None:
        window_start = x.horizon // 2
    return _stats_of_norms(x.norms, window_start)


def difference_tail(x: BoundedSeq, theta: complex, step: int = 1, window_start: int | None = None) -> TailStats:
    """Tail statistics of d_n = x_{n+step} - theta x_n.

    The difference sequence is one ``step`` shorter than the window, so
    this works directly on the values rather than through a BoundedSeq
    (whose minimum-horizon rule would reject short windows).
    """
    step = int(step)
    if not 1 <= step <= x.horizon - 2:
        raise PreconditionError(f"step {step} outside [1, {x.horizon - 2}]")
    theta = require_unimodular(theta)
    diffs = x.values[step:] - theta * x.values[:-step]
    norms = np.linalg.norm(diffs, axis=1)
    if window_start is None:
        window_start = x.horizon // 2
    return _stats_of_norms(norms, min(window_start, norms.shape[0] - 1))


@dataclass(frozen=True)
class RotatedMeanResult:
    theta: complex
    n_used: int
    mean: CVector
    mean_norm: float


def rotated_mean(x: BoundedSeq, theta: complex, n_used: int | None = None) -> RotatedMeanResult:
    """(1/n) sum_{k<n} theta^-k x_k.

    Exactly v on the eigen-sequence theta^n v (for every n); at most
    2 ||v|| / (n |theta - mu|) on any other unimodular mode mu^n v.
    """
    if n_used is None:
        n_used = x.horizon
    if not 1 <= n_used <= x.horizon:
        raise PreconditionError(f"n_used {n_used} outside [1, {x.horizon}]")
    theta = require_unimodular(theta)
    mean_vec = _rotated_means(x.values, np.array([theta]), n_used)[0]
    return RotatedMeanResult(theta, n_used, CVector(mean_vec), float(np.linalg.norm(mean_vec)))


def _rotated_means(values: np.ndarray, thetas: np.ndarray, n: int) -> np.ndarray:
    """Row c is (1/n) sum_{k<n} thetas[c]^-k values[k], for unimodular thetas.

    Rows are evaluated in blocks whose (rows, n, d) product stays under
    ``_EVAL_BLOCK_ELEMENTS``.  numpy reduces the k axis of every row of
    the block as it would for a stack of one, so each row carries the
    bits of a one-theta evaluation whatever the block size.
    """
    vals = values[:n]
    out = np.empty((thetas.shape[0], vals.shape[1]), dtype=np.complex128)
    block = max(1, _EVAL_BLOCK_ELEMENTS // vals.size)
    for lo in range(0, thetas.shape[0], block):
        weights = _unimodular_power_stack(thetas[lo : lo + block].conj(), n)
        out[lo : lo + block] = (weights[:, :, None] * vals[None]).sum(axis=1) / n
    return out


@dataclass(frozen=True)
class DetectedPoint:
    theta: complex
    peak_mean_norm: float


@dataclass(frozen=True)
class SpectrumScanReport:
    grid_size: int
    threshold: float
    horizon: int
    n_grid: int  # horizon actually used in the grid stage
    detected: tuple[DetectedPoint, ...]
    proxy_disclaimer: str = PROXY_DISCLAIMER


def _next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 1).bit_length()


def _lockstep_golden_max(f, a: np.ndarray, b: np.ndarray, iters: int = 64):
    """Golden-section maximization of unimodal functions on [a_c, b_c], all
    brackets advancing together.

    ``f`` maps an array of points (one per bracket) to their values.
    Every bracket makes the comparisons and float steps of a scalar
    search; returns the maximizers and their values.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc >= fd  # the maximum lies in [a, d]: d becomes b
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        f_probe = f(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, f_probe, fd), np.where(left, fc, f_probe)
    best = fc >= fd
    return np.where(best, c, d), np.where(best, fc, fd)


def spectrum_scan(
    x: BoundedSeq, grid_size: int = DEFAULT_GRID_SIZE, epsilon: float | None = None
) -> SpectrumScanReport:
    """Sweep rotated means over a circle grid and report persistent peaks.

    Grid stage: the K means at the K-th roots of unity over the first
    n_grid entries are one length-K transform of the index-folded
    sequence.  n_grid is capped at K itself: averaging over c*K entries
    with c >= 2 makes a mode sitting halfway between grid points
    invisible (its Dirichlet kernel vanishes on the whole grid), whereas
    a single-period window keeps the worst-case attenuation at 2/pi.
    Clusters of above-threshold grid points are then refined at the full
    horizon: first by argmax over a dense zero-padded transform, then by
    a golden-section search inside the winning lobe.  The searches of
    all clusters run in lockstep, so each of their 66 steps is one
    stacked rotated-mean evaluation over every cluster (in row blocks of
    bounded size) and makes the same float decisions as a search of its
    own.  Peaks closer than one grid step are merged, and peaks under
    the leakage envelope of a taller one are dropped as its sidelobes.
    """
    if grid_size < 64:
        raise PreconditionError("grid_size must be >= 64")
    if epsilon is None:
        epsilon = default_epsilon(x.sup_norm)
    if not epsilon > 0.0:
        raise PreconditionError("epsilon must be positive")
    k = int(grid_size)
    n_grid = min(x.horizon, k)
    vals = x.values[:n_grid]
    pad = (-n_grid) % k
    if pad:
        vals = np.vstack([vals, np.zeros((pad, x.dim), dtype=np.complex128)])
    folded = vals.reshape(-1, k, x.dim).sum(axis=0)
    grid_means = np.fft.fft(folded, axis=0) / n_grid  # row m = mean at e^(2 pi i m / K)
    grid_norms = np.linalg.norm(grid_means, axis=1)
    above = grid_norms > epsilon
    idx = np.flatnonzero(above)
    detected: list[DetectedPoint] = []
    if idx.size:
        if idx.size == k:
            clusters = [idx]
        else:
            breaks = np.flatnonzero(np.diff(idx) > 1)
            clusters = [list(c) for c in np.split(idx, breaks + 1)]
            # the circle wraps: a run ending at K-1 continues at 0
            if len(clusters) > 1 and idx[0] == 0 and idx[-1] == k - 1:
                tail = [i - k for i in clusters.pop()]
                clusters[0] = tail + clusters[0]
        # Full-horizon fine spectrum for refinement.  The mean as a
        # function of angle has lobes of width 2 pi / horizon -- far
        # narrower than a coarse grid step when horizon > 2K -- so a
        # search bracketed by coarse steps would be multimodal.  The
        # zero-padded transform samples the full-horizon mean densely
        # enough that the argmax bin sits inside the peak's main lobe,
        # and the bracket of one fine bin each way is unimodal.
        n_fine = 2 * _next_pow2(max(x.horizon, k))
        fine_means = np.fft.fft(x.values, n=n_fine, axis=0) / x.horizon
        fine_norms = np.linalg.norm(fine_means, axis=1)
        fine_step = 2.0 * math.pi / n_fine
        ratio = n_fine / k
        j_stars = []
        for cluster in clusters:
            j_lo = int(math.floor((cluster[0] - 1) * ratio))
            j_hi = int(math.ceil((cluster[-1] + 1) * ratio))
            js = np.arange(j_lo, j_hi + 1) % n_fine
            j_stars.append(js[np.argmax(fine_norms[js])])
        centers = fine_step * np.array(j_stars, dtype=np.float64)

        def peak_norms(phis: np.ndarray) -> np.ndarray:
            thetas = np.array([require_unimodular(cmath.exp(1j * phi)) for phi in phis.tolist()])
            means = _rotated_means(x.values, thetas, x.horizon)
            return np.array([np.linalg.norm(m) for m in means])

        phis, norms = _lockstep_golden_max(peak_norms, centers - fine_step, centers + fine_step)
        for phi, norm in zip(phis.tolist(), norms.tolist()):
            if norm > epsilon:
                detected.append(DetectedPoint(cmath.exp(1j * phi), norm))
    # Greedy acceptance, tallest first.  A candidate within one grid step
    # of an accepted peak is the same peak; a candidate whose value is
    # below the leakage envelope pi*A/(n*delta) of an accepted peak of
    # height A (factor-2 margin) is a Dirichlet sidelobe of that peak,
    # not a mode of its own.  A genuine mode keeps its full amplitude
    # at every horizon, so it clears the envelope regardless of order.
    detected.sort(key=lambda p: (-p.peak_mean_norm, cmath.phase(p.theta) % (2.0 * math.pi)))
    accepted: list[DetectedPoint] = []
    for cand in detected:
        keep = True
        for a in accepted:
            delta = angular_distance(a.theta, cand.theta)
            if delta <= 2.0 * math.pi / k:
                keep = False
                break
            if cand.peak_mean_norm <= 2.0 * math.pi * a.peak_mean_norm / (x.horizon * delta):
                keep = False
                break
        if keep:
            accepted.append(cand)
    accepted.sort(key=lambda p: cmath.phase(p.theta) % (2.0 * math.pi))
    return SpectrumScanReport(k, float(epsilon), x.horizon, n_grid, tuple(accepted))


@dataclass(frozen=True)
class VanishingVerdict:
    """Does the sequence vanish?  Tail evidence and scan evidence, jointly.

    ``consistent`` records whether the two agree: an empty scan should
    mean a vanishing tail and vice versa.  The tail's trend slope is
    carried so slow decay (log-like) can be told from persistence.
    """

    vanishing: bool
    tail: TailStats
    tol_vanish: float
    scan_empty: bool
    detected: tuple[DetectedPoint, ...]
    consistent: bool


def vanishing_check(
    x: BoundedSeq,
    tol_vanish: float | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
    epsilon: float | None = None,
) -> VanishingVerdict:
    """Operational test of: the spectrum is empty iff x_n -> 0."""
    if tol_vanish is None:
        tol_vanish = default_tol_vanish(x.sup_norm)
    tail = tail_norm(x)
    vanishing = tail.tail_sup <= tol_vanish
    report = spectrum_scan(x, grid_size, epsilon)
    scan_empty = len(report.detected) == 0
    return VanishingVerdict(
        vanishing=vanishing,
        tail=tail,
        tol_vanish=float(tol_vanish),
        scan_empty=scan_empty,
        detected=report.detected,
        consistent=vanishing == scan_empty,
    )


@dataclass(frozen=True)
class SingleModeVerdict:
    """Does x_{n+1} - theta x_n vanish, and does the scan see only theta?"""

    theta: complex
    difference_tail: TailStats
    difference_vanishes: bool
    tol_vanish: float
    detected: tuple[DetectedPoint, ...]
    scan_matches: bool
    consistent: bool


def single_mode_check(
    x: BoundedSeq,
    theta: complex,
    tol_vanish: float | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
    epsilon: float | None = None,
) -> SingleModeVerdict:
    """Operational test of: the spectrum equals {theta} iff the one-step
    theta-difference vanishes."""
    theta = require_unimodular(theta)
    if tol_vanish is None:
        tol_vanish = default_tol_vanish(x.sup_norm)
    tail = difference_tail(x, theta)
    difference_vanishes = tail.tail_sup <= tol_vanish
    report = spectrum_scan(x, grid_size, epsilon)
    scan_matches = len(report.detected) == 1 and angular_distance(
        report.detected[0].theta, theta
    ) <= 1e-3
    return SingleModeVerdict(
        theta=theta,
        difference_tail=tail,
        difference_vanishes=difference_vanishes,
        tol_vanish=float(tol_vanish),
        detected=report.detected,
        scan_matches=scan_matches,
        consistent=difference_vanishes == scan_matches,
    )


@dataclass(frozen=True)
class Mode:
    theta: complex
    v: CVector


@dataclass(frozen=True)
class ModeDecomp:
    modes: tuple[Mode, ...]
    residual: TailStats


def extract_modes(x: BoundedSeq, thetas, n_used: int | None = None) -> ModeDecomp:
    """Recover the amplitude of each listed mode by rotated means.

    Requires pairwise angular separation >= 10 / n_used; below that the
    cross-term O(1/(n sep)) contamination exceeds any useful tolerance.
    The residual x_n - sum theta_j^n v_j is reported as tail statistics
    over the second half of the window.
    """
    if n_used is None:
        n_used = x.horizon
    if not MIN_HORIZON <= n_used <= x.horizon:
        raise PreconditionError(f"n_used {n_used} outside [{MIN_HORIZON}, {x.horizon}]")
    thetas = [require_unimodular(t) for t in thetas]
    min_sep = 10.0 / n_used
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            sep = angular_distance(thetas[i], thetas[j])
            if sep < min_sep:
                raise PreconditionError(
                    f"thetas {i} and {j} are separated by {sep:.3e} < {min_sep:.3e}; "
                    "increase n_used or drop one of the pair"
                )
    modes = []
    residual = x.values[:n_used].copy()
    means = _rotated_means(x.values, np.array(thetas, dtype=np.complex128), n_used)
    for theta, v in zip(thetas, means):
        modes.append(Mode(theta, CVector(v)))
        residual -= unimodular_powers(theta, n_used)[:, None] * v
    res_stats = _stats_of_norms(np.linalg.norm(residual, axis=1), n_used // 2)
    return ModeDecomp(tuple(modes), res_stats)


@dataclass(frozen=True)
class KtzVerdict:
    """Power-boundedness and one-point peripheral spectrum, then the
    operator-norm tail of T^(n+1) - theta T^n.

    Hypothesis failure is a reported state, not an exception: the matrix
    sequence is still classified, and ``reason`` says which hypothesis
    broke.  ``operator_tail_sup`` and ``limit_attained`` are None when
    the powers grow too fast to measure safely.
    """

    theta: complex
    hypotheses_met: bool
    power_bounded: bool
    peripheral_ok: bool
    growth_class: str
    peripheral: tuple[complex, ...]
    tail: TailStats | None
    operator_tail_sup: float | None
    limit_attained: bool | None
    n_max: int
    limit_tol: float
    reason: str | None


def ktz_check(
    t: CMatrix,
    theta: complex,
    n_max: int = 512,
    bound: float = 1e6,
    limit_tol: float = 1e-8,
    peripheral_tol: float = 1e-6,
) -> KtzVerdict:
    """Check that T^n (T - theta I) -> 0 for power-bounded T whose
    unit-circle spectrum is contained in {theta}."""
    if n_max < MIN_HORIZON:
        raise PreconditionError(f"n_max must be >= {MIN_HORIZON}")
    theta = require_unimodular(theta)
    probe = power_bounded_probe(t, n_max, bound)
    power_bounded = probe.bounded and probe.growth_class in (GROWTH_DECAYING, GROWTH_BOUNDED)
    info = spectrum_info(t)
    peripheral_ok = all(angular_distance(p, theta) <= peripheral_tol for p in info.peripheral)
    hypotheses_met = power_bounded and peripheral_ok
    reasons = []
    if not power_bounded:
        reasons.append(
            f"not power bounded on [1, {n_max}]: growth class {probe.growth_class}, "
            f"sup ||T^n|| = {probe.sup_norm:.6g}"
        )
    if not peripheral_ok:
        reasons.append(f"unit-circle spectrum {info.peripheral!r} is not contained in {{theta}}")
    tail = None
    op_tail = None
    attained = None
    if probe.bounded:
        shift = t.data - theta * np.eye(t.dim)
        values = np.empty((n_max, t.dim * t.dim), dtype=np.complex128)
        power = np.eye(t.dim, dtype=np.complex128)
        # an infinite bound admits powers that overflow to inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(n_max):
                values[n] = (power @ shift).reshape(-1)
                power = t.data @ power
        if not np.all(np.isfinite(values)):
            raise PreconditionError("sequence values must all be finite")
        window = n_max // 2
        tail = _stats_of_norms(np.linalg.norm(values, axis=1), window)
        op_tail = float(np.max(_batched_spectral_norms(values[window:].reshape(-1, t.dim, t.dim))))
        attained = op_tail <= limit_tol
    return KtzVerdict(
        theta=theta,
        hypotheses_met=hypotheses_met,
        power_bounded=power_bounded,
        peripheral_ok=peripheral_ok,
        growth_class=probe.growth_class,
        peripheral=info.peripheral,
        tail=tail,
        operator_tail_sup=op_tail,
        limit_attained=attained,
        n_max=n_max,
        limit_tol=float(limit_tol),
        reason="; ".join(reasons) if reasons else None,
    )
