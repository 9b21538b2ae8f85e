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
from .eigen import _exp, _power_verdict, spectrum_info
from .linalg import CMatrix, CVector, _as_complex_array, _batched_spectral_norms, _div_real, _plain_norms, _pow2_scaled, _pow2_unscaled, _power_stack, _raise_open, _row_norms
from .trend import _log_log_slope, is_bounded

DEFAULT_HORIZON = 16384
DEFAULT_GRID_SIZE = 4096
MIN_HORIZON = 16
MAX_HORIZON = 2**20  # longest window an input may ask for

#: Running unimodular powers are renormalized this often to stop
#: modulus drift over horizons up to MAX_HORIZON.
_RENORM_INTERVAL = 1024

_UNIMODULAR_TOL = 1e-12

#: Complex inner sums one block of stacked rotated means may hold at once
#: (1 MiB, 128 rows at horizon 16384 and d = 4): many clusters at a long
#: horizon would otherwise allocate clusters * A * d sums per refinement
#: step.
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


def require_unimodular(theta: complex) -> complex:
    """Check | |theta| - 1 | <= 1e-12 and return theta normalized to unit modulus."""
    theta = complex(theta)
    mod = abs(theta)
    if not abs(mod - 1.0) <= _UNIMODULAR_TOL:  # NaN fails too
        raise PreconditionError(f"theta = {theta!r} is not unimodular: | |theta|-1 | = {abs(mod - 1.0):.3e}")
    return theta / mod


def angular_distance(a: complex, b: complex) -> float:
    """Geodesic distance of two unit-circle points, in radians."""
    d = (cmath.phase(complex(a)) - cmath.phase(complex(b))) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def unimodular_powers(theta: complex, count: int) -> np.ndarray:
    """theta^0 .. theta^(count-1) by incremental multiplication.

    Every segment between renormalizations scales the same running
    products theta^1 .. theta^1024, and the running value is renormalized
    to unit modulus every 1024 steps; the angle accumulates only rounding
    error (about count * eps / 2).
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    seg = np.cumprod(np.full(min(count, _RENORM_INTERVAL), complex(theta), dtype=np.complex128))
    out = np.empty(count, dtype=np.complex128)
    current = 1.0 + 0.0j
    for start in range(0, count, _RENORM_INTERVAL):
        m = min(_RENORM_INTERVAL, count - start)
        out[start] = current
        out[start + 1 : start + m] = current * seg[: m - 1]
        current = current * seg[m - 1]
        current /= abs(current)
    return out


def _as_table(values, what: str) -> np.ndarray:
    """``values`` as a read-only complex (N, d) array, N, d >= 1; a 1-D input is one column."""
    arr = _as_complex_array(values)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or not arr.size:
        raise PreconditionError(f"{what} must form a nonempty (N, d) array")
    return arr


class BoundedSeq:
    """A finite window x_0 .. x_(N-1) of a bounded sequence in C^d.

    Values are materialized as an (N, d) array; per-step norms and the
    sup norm are computed once at construction.  ``descriptor`` records
    how the window was generated (kind, parameters, seed) when it came
    from a generator, so that the exact same window can be regenerated.
    """

    def __init__(self, values, descriptor: dict | None = None):
        arr = _as_table(values, "sequence values")
        if arr.shape[0] < MIN_HORIZON:
            raise PreconditionError(f"horizon must be >= {MIN_HORIZON}, got {arr.shape[0]}")
        self.values = arr
        self.descriptor = descriptor
        self.norms = _row_norms(arr)
        self.sup_norm = float(self.norms.max())

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> int:
        return self.values.shape[0]

    def __repr__(self):
        return f"BoundedSeq(horizon={self.horizon}, dim={self.dim})"


def decay_envelope(kind: str, param, count: int) -> np.ndarray:
    """Scalar envelope values e_0 .. e_(count-1) for the named decay law;
    a given parameter must be finite for every law, as reports echo it.

    The geometric law p^n and the power law (n + 1)^-q are both
    base ** exponent, decreasing in n.  They are computed only where
    exponent * log2(base) >= -1080, and are 0 past that point: pow
    rounds every value below 2^-1076 to 0, and the log misses the
    cutoff by far less than the margin, so the bits are ``pow``'s.
    Computing those zeros would take pow's slow path.
    """
    if param is not None:
        param = float(param)
        if not math.isfinite(param):
            raise PreconditionError(f"decay parameter must be finite, got {param}")
    if kind == "none":
        return np.zeros(count)
    n = np.arange(count, dtype=np.float64)
    if kind == "geometric":
        if not 0.0 < param < 1.0:
            raise PreconditionError(f"geometric ratio must be in (0,1), got {param}")
        base, exponent = param, n
    elif kind == "power":
        if not param > 0.0:
            raise PreconditionError(f"power exponent must be > 0, got {param}")
        base, exponent = n + 1.0, -param
    elif kind == "log":
        return 1.0 / np.log(n + 2.0)
    else:
        raise PreconditionError(f"unknown decay kind {kind!r}")
    live = np.count_nonzero(exponent * np.log2(base) >= -1080.0)
    base, exponent = np.broadcast_arrays(base, exponent)
    out = np.zeros(count)
    with np.errstate(under="ignore"):
        out[:live] = base[:live] ** exponent[:live]
    return out


def _unit_vector(rng: np.random.Generator, dim: int, amp: float) -> np.ndarray:
    """A complex Gaussian direction of norm ``amp``, drawn from ``rng``."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amp * v / np.linalg.norm(v)


def _outer(col: np.ndarray, row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """col[:, None] * row written into ``out`` one column at a time, and
    returned.  The broadcast product makes one inner-loop call per row of
    a long, narrow array; each column here is one call.  The bits are the
    broadcast's when col has two or more entries; with one, numpy may
    round a complex product differently."""
    for j in range(row.shape[0]):
        np.multiply(col, row[j], out=out[:, j])
    return out


def _decaying_term(envelope: np.ndarray, direction: np.ndarray | None, seed: int, out: np.ndarray) -> np.ndarray:
    """The vanishing term envelope(n) u written into the (len(envelope), dim)
    array ``out``, which is returned; u is ``direction``, or a unit vector
    seeded by ``seed`` when that is None."""
    dim = out.shape[1]
    if direction is None:
        direction = _unit_vector(np.random.default_rng(seed), dim, 1.0)
    elif direction.shape[0] != dim:
        raise PreconditionError(f"forcing direction dimension {direction.shape[0]} != system dimension {dim}")
    return _outer(envelope, direction, out)


def modes_plus_decay(
    modes, horizon: int, decay: tuple[str, float] | None = None, seed: int = 0, dim: int | None = None
) -> BoundedSeq:
    """sum_j theta_j^n v_j plus a decaying term along a seeded direction.

    ``modes`` is an iterable of (theta, v) pairs; ``decay`` is None or a
    (kind, param) pair.  The decay direction is a seeded random unit
    vector, so the envelope parameter is also the term's norm.
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
    term = np.empty_like(values)
    for theta, v in modes:
        values += _outer(unimodular_powers(theta, horizon), v, term)
    if decay is not None:
        envelope = decay_envelope(*decay, horizon)  # checks the parameter of every law
        # the envelope's zeros are a suffix, and adding a zero term changes no
        # entry: a sum that starts at +0 is never -0
        live = np.count_nonzero(envelope)
        if live:  # a none decay draws no direction
            values[:live] += _decaying_term(envelope[:live], None, seed, term[:live])
    del term  # freed before the row norms are taken
    descriptor = {
        "kind": "modes_plus_decay",
        "modes": [(t, tuple(v.tolist())) for t, v in modes],
        "decay": None if decay is None else (decay[0], decay[1]),
        "horizon": horizon,
        "seed": seed,
    }
    return _handed_over(values, descriptor)


def _handed_over(values: np.ndarray, descriptor: dict) -> BoundedSeq:
    """``BoundedSeq(values, descriptor)`` for a complex (N, d) array that a
    builder made and hands over (``modes_plus_decay``, ``simulate_delay``
    and ``parse_sequence``): the array itself, made read-only, not a
    copy.  A NaN or inf entry makes its row's norm NaN or inf, so only a
    window with a norm that is not finite, or an empty or short one,
    goes through the constructor's checks, copy and errors."""
    if values.size and values.shape[0] >= MIN_HORIZON:
        seq = BoundedSeq.__new__(BoundedSeq)
        seq.values, seq.descriptor, seq.norms = values, descriptor, _row_norms(values)
        seq.sup_norm = float(seq.norms.max())
        if math.isfinite(seq.sup_norm):
            values.flags.writeable = False
            return seq
    return BoundedSeq(values, descriptor)


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
    with np.errstate(divide="ignore"):
        slope = _log_log_slope(np.log(window), window_start)
    return TailStats(window_start, float(window.max()), slope)


def tail_norm(x: BoundedSeq, window_start: int | None = None) -> TailStats:
    if window_start is None:
        window_start = x.horizon // 2
    return _stats_of_norms(x.norms, window_start)


def difference_tail(x: BoundedSeq, theta: complex, step: int = 1) -> TailStats:
    """Tail statistics of d_n = x_{n+step} - theta x_n from n = horizon // 2
    (or its last entry, when the difference is that short).

    The difference sequence is one ``step`` shorter than the window, so
    this works directly on the values rather than through a BoundedSeq
    (whose minimum-horizon rule would reject short windows).
    """
    step = int(step)
    if not 1 <= step <= x.horizon - 2:
        raise PreconditionError(f"step {step} outside [1, {x.horizon - 2}]")
    theta = require_unimodular(theta)
    diffs = x.values[step:] - theta * x.values[:-step]
    return _stats_of_norms(_row_norms(diffs), min(x.horizon // 2, diffs.shape[0] - 1))


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
    The sum runs in two levels over k = a B + b (:func:`_split_means`),
    so the modulus of a weight theta^-k drifts by at most about
    (A + B) eps, under 2.5 sqrt(n) eps.
    A peak that :func:`spectrum_scan` reports at theta is this mean_norm
    at theta, bit for bit unless the scan's power-of-two scaled copy of
    the window holds subnormal entries or sums.
    """
    if n_used is None:
        n_used = x.horizon
    if not 1 <= n_used <= x.horizon:
        raise PreconditionError(f"n_used {n_used} outside [1, {x.horizon}]")
    theta = require_unimodular(theta)
    mean = _rotated_means(x.values, np.array([theta]), n_used)
    return RotatedMeanResult(theta, n_used, CVector(mean[0]), float(_row_norms(mean)[0]))


def _rotated_means(values: np.ndarray, thetas: np.ndarray, n: int) -> np.ndarray:
    """Row c is (1/n) sum_{k<n} thetas[c]^-k values[k], for unimodular
    thetas and values of any finite magnitude: :func:`_split_means` on the
    :func:`_split_layout` of the values.

    That plain sum overflows for entries above about 1.8e308 / n (the
    scan evaluates its power-of-two scaled window, which stays
    far below that).  Rows whose sum leaves the float range are summed
    again on the values scaled by an exact power of two and scaled back,
    so they are inf only when the mean itself is; every other row keeps
    the bits of the plain sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are redone below
        out = _split_means(_split_layout(values, n), thetas, n)
    fix = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if fix.size:
        (scaled,), (exp,) = _pow2_scaled(values[None, :n])
        out[fix] = _pow2_unscaled(_split_means(_split_layout(scaled, n), thetas[fix], n), exp)
    return out


def _split_layout(values: np.ndarray, n: int) -> np.ndarray:
    """values[:n] laid out for :func:`_split_means`: with k = a B + b,
    entry [a, :, b] is values[k], and zero past n.

    B is the smallest power of two with B^2 >= n, so A = ceil(n / B) <= B,
    and both are at most 1024 up to MAX_HORIZON.
    """
    d = values.shape[1]
    b = 1 << (((n - 1).bit_length() + 1) // 2)
    full, rest = divmod(n, b)
    cols = np.zeros((full + (rest > 0), d, b), dtype=np.complex128)
    cols[:full] = values[: full * b].reshape(full, b, d).transpose(0, 2, 1)
    cols[full:, :, :rest] = values[full * b : n].T
    return cols


def _split_means(cols: np.ndarray, thetas: np.ndarray, n: int) -> np.ndarray:
    """Row c is (1/n) sum_{k<n} thetas[c]^-k x_k over the
    :func:`_split_layout` of x, summed in two levels (the index split of
    Cooley & Tukey, Math. Comp. 19, 1965):

        sum_k z^k x_k = sum_a w^a sum_b z^b x_(aB+b),   z = conj(theta),

    where w is z^B renormalized to modulus 1.  The weights are two
    running-product tables per row, z^0 .. z^B and w^0 .. w^(A-1), so a
    weight's modulus drifts by at most about (A + B) eps (256 eps at
    horizon 16384, 2048 at MAX_HORIZON) and no (rows, n) table is built.
    Both levels are ``np.einsum`` calls, numpy's own sum-of-products loops
    with no BLAS call, over runs of at most 1024 terms: a row's bits depend
    on neither the other rows nor the BLAS thread count, so the scan's
    peaks are the rotated means :func:`rotated_mean` reports at the same
    theta.  Rows go in blocks whose (rows, A d) inner sums stay under
    ``_EVAL_BLOCK_ELEMENTS``.
    """
    a, d, b = cols.shape
    flat = cols.reshape(a * d, b)
    out = np.empty((thetas.shape[0], d), dtype=np.complex128)
    block = max(1, _EVAL_BLOCK_ELEMENTS // (a * d))
    for lo in range(0, thetas.shape[0], block):
        theta = thetas[lo : lo + block, None]
        inner = np.empty((theta.shape[0], b + 1), dtype=np.complex128)
        inner[:, 0] = 1.0
        np.conjugate(theta, out=inner[:, 1:])
        np.multiply.accumulate(inner, axis=1, out=inner)  # z^0 .. z^B
        outer = np.empty((theta.shape[0], a), dtype=np.complex128)
        outer[:, 0] = 1.0
        step = inner[:, b:]
        np.multiply(step, 1.0 / np.abs(step), out=outer[:, 1:])  # w
        np.multiply.accumulate(outer, axis=1, out=outer)  # w^0 .. w^(A-1)
        runs = np.einsum("rb,mb->rm", inner[:, :b], flat).reshape(-1, a, d)
        np.einsum("ra,rad->rd", outer, runs, out=out[lo : lo + block])
    out /= n
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


def _fine_size(horizon: int, grid_size: int) -> int:
    """Length of the scan's fine transform, max(K, 2 next_pow2(horizon)):
    at least 2 * horizon, so one fine bin of 2 pi / n_fine <= pi / horizon
    stays inside a peak's main lobe (half-width 2 pi / horizon), and at
    least the grid size K, so a window of at most K / 2 entries is refined
    on the grid transform."""
    return max(grid_size, 2 << (horizon - 1).bit_length())


def _cluster_argmax(idx: np.ndarray, k: int, n_fine: int, norms_at) -> np.ndarray:
    """The fine bin of each cluster of above-threshold grid points: the
    first maximum of the fine norms over the bins floor((start - 1) r) ..
    ceil((end + 1) r), r = n_fine / K, taken in that order modulo n_fine.
    ``norms_at(bins)`` gives the norms at an array of bins, which may
    repeat, so only the bins read are normed.

    Clusters are the runs of consecutive points of ``idx`` (ascending, on a
    circle of K points); a run ending at K - 1 continues at 0, and comes
    first, starting below 0.
    """
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = idx[np.concatenate(([0], breaks + 1))]
    ends = idx[np.concatenate((breaks, [-1]))]
    if breaks.size and idx[0] == 0 and idx[-1] == k - 1:
        starts[0] = starts[-1] - k
        starts, ends = starts[:-1], ends[:-1]
    ratio = n_fine / k
    j_lo = np.floor((starts - 1) * ratio).astype(np.int64)
    sizes = np.ceil((ends + 1) * ratio).astype(np.int64) - j_lo + 1
    firsts = np.cumsum(sizes) - sizes
    bins = (np.arange(firsts[-1] + sizes[-1]) + np.repeat(j_lo - firsts, sizes)) % n_fine
    vals = norms_at(bins)
    at_max = np.flatnonzero(vals == np.repeat(np.maximum.reduceat(vals, firsts), sizes))
    return bins[at_max[np.searchsorted(at_max, firsts)]]


def _unit_thetas(phis: np.ndarray) -> np.ndarray:
    """require_unimodular(cmath.exp(1j * phi)) of each phi, bit for bit, as
    one array: cmath.exp(1j * phi) is cos(phi) + i sin(0.0 + phi), Python's
    abs is hypot of the parts, and its quotient by a real modulus divides
    each part (numpy's complex abs and quotient round differently)."""
    re, im = np.cos(phis), np.sin(0.0 + phis)
    mod = np.hypot(re, im)
    bad = np.flatnonzero(~(np.abs(mod - 1.0) <= _UNIMODULAR_TOL))  # NaN fails too
    if bad.size:
        require_unimodular(complex(re[bad[0]], im[bad[0]]))  # raises
    out = np.empty(mod.shape, dtype=np.complex128)
    out.real, out.imag = re / mod, im / mod
    return out


def spectrum_scan(
    x: BoundedSeq, grid_size: int = DEFAULT_GRID_SIZE, epsilon: float | None = None
) -> SpectrumScanReport:
    """Sweep rotated means over a circle grid and report persistent peaks.

    Grid stage: the K means at the K-th roots of unity over the first
    n_grid entries are one zero-padded length-K transform.  n_grid is
    capped at K itself: averaging over c*K entries with c >= 2 makes a
    mode sitting halfway between grid points invisible (its Dirichlet
    kernel vanishes on the whole grid), whereas a single-period window
    keeps the worst-case attenuation at 2/pi.
    Clusters of above-threshold grid points are then refined at the full
    horizon n: first by argmax over a zero-padded transform of
    n_fine = max(K, 2 next_pow2(n)) points (:func:`_fine_size`), which
    brackets each peak by one fine bin each way.  When n_fine = K (every
    window of at most K / 2 entries) that transform is the grid's own, so
    the scan takes one FFT; a longer window takes one more per row, each
    gathered at the clusters' bins, which alone are normed.  Then come
    Newton steps on
    g = Re<m, m'> = (1/2) d|m|^2/dphi, with g' = |m'|^2 + Re<m, m''>,
    safeguarded by that bracket (Press et al., Numerical Recipes, 3rd ed.,
    2007, sec. 9.4): the sign of g halves the bracket, and a step bisects
    it instead where g' >= 0 or the Newton point leaves it.  All clusters
    step together until every move is at most 2^-40 / n, or for 16 steps.
    Past n = 4096 / |phi| no nonzero move of phi is that small, so there
    only a move that rounds to 0 stops them; a last move of one ulp up and
    down in turn makes the steps repeat with period 2, and they stop at
    the repeat with the evaluation the 16th step would give.  On the
    benchmark's inputs that is 3 or 4 evaluations at horizons 16-128 and
    4 to 6 at 16384, or 7 or 8 where the steps cycle.  With
    z = conj(theta), m' = -i (1/n) sum k z^k x_k and
    m'' = -(1/n) sum k^2 z^k x_k are rotated means too, so x_k, k x_k and
    k^2 x_k are laid out side by side for the two-level sum over
    k = a B + b once per scan (:func:`_split_layout`), and each step is
    one :func:`_split_means` call over every cluster, whose weights'
    moduli drift by at most about (A + B) eps.  The transforms and the
    steps work on one copy of the window, laid out (d, n) so that each
    transform runs along a row, and scaled by an exact power of two, so
    no norm overflows, none underflows unless it is far
    below the largest entry, and a sequence scaled by 2^j (with epsilon
    scaled alike) gives the same angles.
    Each reported peak is the m of the last step, taken at the reported
    theta and scaled back exactly: the value
    :func:`rotated_mean` computes, bit for bit unless the scaled window
    holds subnormal entries or sums.  Peaks closer than one grid step
    are merged, and peaks under the leakage envelope of a taller one are
    dropped as its sidelobes.
    """
    if grid_size < 64:
        raise PreconditionError("grid_size must be >= 64")
    if epsilon is None:
        epsilon = default_epsilon(x.sup_norm)
    if not epsilon > 0.0:
        raise PreconditionError("epsilon must be positive")
    k = int(grid_size)
    n_grid = min(x.horizon, k)
    (window,), (exp,) = _pow2_scaled(x.values.T[None])
    scaled_eps = _pow2_unscaled(np.float64(epsilon), -exp)  # inf past the float range: nothing is detected
    grid_means = _div_real(np.fft.fft(window[:, :n_grid], n=k, axis=1), n_grid)  # column m = mean at e^(2 pi i m / K)
    grid_norms = _plain_norms(grid_means, 0)
    idx = np.flatnonzero(grid_norms > scaled_eps)
    detected: list[DetectedPoint] = []
    if idx.size:
        # Full-horizon fine spectrum for refinement.  The mean as a
        # function of angle has lobes of width 2 pi / horizon -- far
        # narrower than a coarse grid step when horizon > 2K -- so a
        # search bracketed by coarse steps would be multimodal.  The
        # zero-padded transform samples the full-horizon mean densely
        # enough that the argmax bin sits inside the peak's main lobe,
        # and the bracket of one fine bin each way is unimodal.
        n_fine = _fine_size(x.horizon, k)
        if n_fine == k:  # n_grid is the horizon: the grid transform is the fine one
            norms_at = grid_norms.__getitem__
        else:

            def norms_at(bins):
                # each row's transform, which has the bits of that row of the
                # (d, n_fine) one, gathered at the bins before the next is taken
                fine = np.empty((window.shape[0], bins.size), dtype=np.complex128)
                for row, out in zip(window, fine):
                    np.fft.fft(row, n=n_fine).take(bins, out=out)
                return _plain_norms(_div_real(fine, x.horizon), 0)

        fine_step = 2.0 * math.pi / n_fine
        phis = fine_step * _cluster_argmax(idx, k, n_fine, norms_at)
        lo, hi = phis - fine_step, phis + fine_step
        # the (A, 3d, B) layout of x_k, k x_k and k^2 x_k, filled in place
        layout = _split_layout(window.T, x.horizon)
        a, d, b = layout.shape
        cols = np.empty((a, 3 * d, b), dtype=np.complex128)
        cols[:, :d] = layout
        del layout
        ks = np.arange(a * b, dtype=np.float64).reshape(a, 1, b)
        np.multiply(cols[:, :d], ks, out=cols[:, d : 2 * d])
        np.multiply(cols[:, :d], ks * ks, out=cols[:, 2 * d :])
        back = [(None, None, None)] * 2  # (state, thetas, m) of the last two steps, older first
        for i in range(16):
            state = np.concatenate((phis, lo, hi)).tobytes()
            if state == back[0][0]:
                # the steps repeat with period 2 from here on: the 16th
                # evaluation would be one of the last two
                _, thetas, m = back[(15 - i) % 2]
                break
            thetas = _unit_thetas(phis)
            sums = _split_means(cols, thetas, x.horizon)
            m, m1, m2 = sums[:, :d], -1j * sums[:, d : 2 * d], -sums[:, 2 * d :]
            g = (m.conj() * m1).real.sum(axis=1)  # (1/2) d|m|^2/dphi
            dg = (m1.conj() * m1).real.sum(axis=1) + (m.conj() * m2).real.sum(axis=1)
            lo, hi = np.where(g > 0.0, phis, lo), np.where(g < 0.0, phis, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = phis - g / dg
            step = np.where((dg < 0.0) & (lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi)) - phis
            back = [back[1], (state, thetas, m)]
            if np.abs(step).max() <= 2.0**-40 / x.horizon:
                break
            phis = phis + step
        peaks = _row_norms(_pow2_unscaled(m, exp))
        for theta, peak in zip(thetas.tolist(), peaks.tolist()):
            if peak > epsilon:
                detected.append(DetectedPoint(theta, peak))
    # Greedy acceptance, tallest first.  A candidate within one grid step
    # of an accepted peak is the same peak; a candidate whose value is
    # below the leakage envelope pi*A/(n*delta) of an accepted peak of
    # height A (factor-2 margin) is a Dirichlet sidelobe of that peak,
    # not a mode of its own.  A genuine mode keeps its full amplitude
    # at every horizon, so it clears the envelope regardless of order.
    detected.sort(key=lambda p: (-p.peak_mean_norm, cmath.phase(p.theta) % (2.0 * math.pi)))
    accepted: list[DetectedPoint] = []
    for cand in detected:
        for a in accepted:
            delta = angular_distance(a.theta, cand.theta)
            if delta <= 2.0 * math.pi / k or cand.peak_mean_norm <= 2.0 * math.pi * a.peak_mean_norm / (x.horizon * delta):
                break
        else:
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


def vanishing_check(x: BoundedSeq) -> VanishingVerdict:
    """Operational test of: the spectrum is empty iff x_n -> 0, with the
    tail tolerance ``default_tol_vanish`` and a default scan
    (``DEFAULT_GRID_SIZE`` grid points, the default threshold)."""
    tol_vanish = default_tol_vanish(x.sup_norm)
    tail = tail_norm(x)
    vanishing = tail.tail_sup <= tol_vanish
    report = spectrum_scan(x)
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


def single_mode_check(x: BoundedSeq, theta: complex) -> SingleModeVerdict:
    """Operational test of: the spectrum equals {theta} iff the one-step
    theta-difference vanishes, with the tail tolerance
    ``default_tol_vanish`` and a default scan."""
    theta = require_unimodular(theta)
    tol_vanish = default_tol_vanish(x.sup_norm)
    tail = difference_tail(x, theta)
    difference_vanishes = tail.tail_sup <= tol_vanish
    report = spectrum_scan(x)
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
    This is the package's one separation check.  The residual
    x_n - sum theta_j^n v_j over the first n_used entries is reported as
    tail statistics over the last half, from index n_used // 2.
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
                    f"thetas {i} and {j} are separated by {sep:.3e} < 10 / n_used = {min_sep:.3e}; "
                    "use a longer horizon or n_used, or drop one of the pair"
                )
    modes = []
    residual = x.values[:n_used].copy()
    term = np.empty_like(residual)
    means = _rotated_means(x.values, np.array(thetas, dtype=np.complex128), n_used)
    for theta, v in zip(thetas, means):
        modes.append(Mode(theta, CVector(v)))
        residual -= _outer(unimodular_powers(theta, n_used), v, term)
    res_stats = _stats_of_norms(_row_norms(residual), n_used // 2)
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


def ktz_check(t: CMatrix, theta: complex, n_max: int = 512, bound: float = 1e6, limit_tol: float = 1e-8) -> KtzVerdict:
    """Check that T^n (T - theta I) -> 0 for power-bounded T whose
    unit-circle spectrum is contained in {theta}: every peripheral
    eigenvalue within 1e-6 rad of theta.  One :func:`_power_stack` walk
    gives both the power-boundedness verdict and the powers T^n.  Each
    chunk of powers leaves only the Frobenius and spectral norms of
    T^n (T - theta I) over the last half, n >= n_max // 2, taken while
    every power so far is within ``bound`` and every product finite."""
    if n_max < MIN_HORIZON:
        raise PreconditionError(f"n_max must be >= {MIN_HORIZON}")
    theta = require_unimodular(theta)
    d, window = t.dim, n_max // 2
    shift = t.data - theta * np.eye(d)
    # norms[n] = ||T^n (T - theta I)||_F for n >= window, 0 past a zero power
    logs, norms = np.empty(n_max), np.zeros(n_max)
    sup, op_sup, overflow, normed, opened = -np.inf, 0.0, None, 0, []
    for start, powers, exps in _power_stack(t.data, n_max, logs):
        sup = max(sup, logs[start : start + len(powers)].max())
        if overflow is not None or not _exp(sup) <= bound:
            continue
        # T^n (T - theta I) = 2^e_n P_n (T - theta I) for n = start + 1, ...; inf past the float range
        m = n_max - 1 - start
        values = _pow2_unscaled(np.matmul(powers[:m], shift), exps[:m])
        finite = np.isfinite(values).all(axis=(1, 2))
        if not finite.all():
            overflow = start + 1 + int(np.argmin(finite))
            continue
        first = max(window, start + 1)  # the tail's first n
        tail = values[first - start - 1 :]
        if len(tail):
            norms[first : first + len(tail)] = _row_norms(tail.reshape(len(tail), d * d))
            op_sup = max(op_sup, np.max(_batched_spectral_norms(tail, opened, normed)))
            normed += len(tail)
    probe = _power_verdict(logs, bound)
    power_bounded = probe.bounded and is_bounded(probe.growth_class)
    info = spectrum_info(t)
    peripheral_ok = all(angular_distance(p, theta) <= 1e-6 for p in info.peripheral)
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
        if overflow is not None:
            raise PreconditionError(f"T^n (T - theta I) leaves the float range at n = {overflow}")
        tail = _stats_of_norms(norms, window)
        _raise_open(opened, normed)
        op_tail = float(op_sup)
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
