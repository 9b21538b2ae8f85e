"""Resolvent evaluation, contour-quadrature coefficient recovery, and
unit-circle pole probing.

The resolvent (lambda I - A)^-1 is computed by direct solve and, for
|lambda| beyond the spectral radius, by the truncated series sum
A^n / lambda^(n+1) over the powers of A / lambda from ``_power_stack``.
Coefficient recovery integrates an analytic vector-valued function over
a circle with the trapezoidal rule, which is exact for truncated power
series of low degree relative to the node count.  Grid scans flag
spectral hits instead of failing: sweeping across the unit circle
necessarily grazes the spectrum.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, PreconditionError, SingularMatrixError
from .linalg import (
    CMatrix,
    CVector,
    _batched_spectral_norms,
    _pow2_unscaled,
    _power_stack,
    _solve_array,
    require_unitary,
)
from .eigen import spectrum_info
from .trend import least_squares_slope

#: Resolvent norms beyond this are reported as singular hits.
SINGULAR_NORM_CUTOFF = 1e14

#: Fixed approach angle for pole probes; off-axis to avoid symmetry
#: artifacts of axis-aligned spectra.
_PROBE_ANGLE = math.pi / 4.0

DEFAULT_QUADRATURE_NODES = 256

#: Excess of a resolvent norm over the isometry bound that is no violation.
_ISOMETRY_SLACK = 1e-9

#: A resolvent series term norm past this means divergence.
_SERIES_LIMIT = 1e150


def _resolvents(a: CMatrix, lams: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """(lambda I - A)^-1 for every lambda in one stacked solve against the
    identity, with the solve kernel's mask of the lambdas it could solve."""
    lams = np.asarray(lams, dtype=np.complex128)
    eye = np.eye(a.dim)
    return _solve_array(lams[:, None, None] * eye - a.data, eye)


def _nonspectral_resolvents(a: CMatrix, lams: Sequence[complex]) -> np.ndarray:
    """``_resolvents`` that raises SingularMatrixError at the first masked lambda."""
    stack, ok = _resolvents(a, lams)
    if not ok.all():
        lam = complex(lams[int(np.argmin(ok))])
        raise SingularMatrixError(f"lambda = {lam!r} is numerically spectral: a pivot below threshold or an overflowing solve")
    return stack


def resolvent_direct(a: CMatrix, lam: complex) -> CMatrix:
    """(lambda I - A)^-1 by row-pivoted solve against the identity."""
    return CMatrix(_nonspectral_resolvents(a, [lam])[0])


@dataclass(frozen=True)
class NeumannResult:
    """Truncated resolvent series with its truncation indicator."""

    matrix: CMatrix
    last_term_norm: float
    terms: int


def resolvent_neumann(a: CMatrix, lam: complex, k_max: int) -> NeumannResult:
    """Partial sum of A^n / lambda^(n+1) for n = 0..k_max.

    Valid only for |lambda| above the spectral radius; misuse is detected
    by a term norm above 1e150 or by the term norms failing to decay over
    the final ten terms, both read off the log norms of one
    :func:`_power_stack` walk, and raised as a divergence error rather
    than silently returned.  The terms are summed in order a chunk of
    powers at a time, each chunk after the sum so far, which numpy adds
    one term at a time at d >= 2: the bits of one ``sum(axis=0)`` over
    all terms.  At d = 1 numpy sums pairwise, and those bits are kept
    while the powers fit one chunk, k_max <= 65,536.
    """
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    lam = complex(lam)
    if lam == 0:
        raise PreconditionError("lambda must be nonzero")
    logs = np.empty(k_max)
    total = np.eye(a.dim, dtype=np.complex128) / lam  # the n = 0 term
    last = total[None][:0]  # the n = k_max term; none past a zero power
    # an A / lambda or a power past the float range gives inf or NaN logs, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for start, powers, exps in _power_stack(a.data / lam, k_max, logs):
            terms = np.concatenate([total[None], _pow2_unscaled(powers, exps) / lam])
            total, last = terms.sum(axis=0), terms[k_max - start :]
    logs = np.concatenate([[0.0], logs])  # ln ||(A / lambda)^n||, n = 0..k_max; the n-th term is that over |lambda|
    if not np.max(logs) - math.log(abs(lam)) <= math.log(_SERIES_LIMIT):
        raise DivergenceError(
            f"series terms exceed 1e150 at |lambda| = {abs(lam):.6g}; "
            "expansion point is inside the spectral radius"
        )
    tail = logs[-10:]
    # -inf first: a zero last term ends the check before -inf - -inf
    if len(tail) == 10 and tail[-1] > -np.inf and (np.diff(tail) >= 0.0).all():
        raise DivergenceError(
            "term norms are non-decreasing over the final 10 terms; "
            "|lambda| does not exceed the spectral radius"
        )
    last_norm = np.max(_batched_spectral_norms(last), initial=0.0)
    return NeumannResult(CMatrix(total), float(last_norm), k_max + 1)


def _unit_roots_table(nodes: int) -> np.ndarray:
    """e^(2 pi i j / M) for j < M, with the j+M/2 entry the exact negation
    of entry j so that symmetric sums cancel exactly."""
    if nodes % 2 == 0:
        half = np.exp(2j * np.pi * np.arange(nodes // 2) / nodes)
        return np.concatenate([half, -half])
    return np.exp(2j * np.pi * np.arange(nodes) / nodes)


def cauchy_coefficient(
    oracle: Callable[[complex], CVector | np.ndarray],
    k: int,
    radius: float = 1.0,
    nodes: int = DEFAULT_QUADRATURE_NODES,
) -> CVector:
    """k-th series coefficient of an analytic function by circle quadrature.

    Trapezoidal rule on equispaced nodes z_m = radius * e^(2 pi i m / M):
    the mean of z_m^-k f(z_m).  Exact (up to roundoff) on truncated power
    series of degree below M - k.  The caller guarantees analyticity on
    the circle.  Sums are compensated per component, so coefficients that
    cancel exactly (e.g. every k >= 1 of a constant) come out as exact
    zeros even at radii well below 1.
    """
    if nodes < 4:
        raise PreconditionError("nodes must be >= 4")
    if k < 0:
        raise PreconditionError("k must be >= 0")
    if not radius > 0.0:
        raise PreconditionError("radius must be positive")
    table = _unit_roots_table(nodes)
    samples = []
    dim = None
    for m in range(nodes):
        z = complex(radius * table[m])
        raw = oracle(z)
        vec = np.asarray(raw.data if isinstance(raw, CVector) else raw, dtype=np.complex128).reshape(-1)
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise PreconditionError("oracle returned vectors of inconsistent dimension")
        samples.append(vec)
    f = np.array(samples)  # (M, d)
    if not np.isfinite(f).all():
        raise PreconditionError("oracle returned a non-finite value on the circle")
    # z_m^-k on the unit circle via index arithmetic in the symmetric table;
    # -k % nodes first, so that no product leaves int64 however large k is
    w = table[(np.arange(nodes) * (-k % nodes)) % nodes]
    wr, wi = w.real, w.imag
    fr, fi = f.real, f.imag
    re_terms = wr[:, None] * fr - wi[:, None] * fi
    im_terms = wr[:, None] * fi + wi[:, None] * fr
    # a component whose samples are nonzero but all subnormal has lost bits before any sum
    lost = (np.maximum(np.abs(fr), np.abs(fi)).max(axis=0) < np.finfo(float).tiny) & f.any(axis=0)
    if lost.any():
        raise PreconditionError(f"oracle samples of component {lost.argmax()} are subnormal at radius {radius!r}")
    # radius^-k / nodes as one factor goes subnormal, and loses bits, long
    # before the result does, so the sums take radius^-k in two halves and
    # nodes last.  A radius^-k past the float range stays an error: the
    # samples c_k radius^k have underflowed.
    try:
        lo, hi = radius ** -(k // 2), radius ** -(k - k // 2)
        if math.isinf(lo * hi):
            raise OverflowError
    except OverflowError as exc:
        raise PreconditionError(f"radius {radius!r} to the power -{k} leaves the float range") from exc
    out = np.empty(dim, dtype=np.complex128)
    for j in range(dim):
        out[j] = complex(math.fsum(re_terms[:, j]) * lo * hi / nodes, math.fsum(im_terms[:, j]) * lo * hi / nodes)
    return CVector(out)


@dataclass(frozen=True)
class ResolventSample:
    lam: complex
    resolvent_norm: float
    singular_flag: bool


def resolvent_norm_scan(a: CMatrix, grid: Sequence[complex]) -> list[ResolventSample]:
    """Resolvent norm per grid point; spectral hits become flags, not errors.

    The resolvents at non-singular points are stacked and normed in one
    kernel call.
    """
    lams = np.asarray(grid, dtype=np.complex128)
    stack, ok = _resolvents(a, lams)
    norms = np.zeros(len(lams))
    norms[ok] = _batched_spectral_norms(stack[ok])
    flags = ~ok | (norms > SINGULAR_NORM_CUTOFF)
    return list(map(ResolventSample, lams.tolist(), norms.tolist(), flags.tolist()))


@dataclass(frozen=True)
class IsometryBoundReport:
    """Check of ||R(lambda)|| <= 1 / ||lambda| - 1| on a unitary matrix."""

    samples_checked: int
    violations: int
    worst_slack: float  # min over samples of bound - norm; negative means violated
    worst_lambda: complex

    @property
    def ok(self) -> bool:
        return self.violations == 0


def isometry_bound_check(u: CMatrix, samples: Sequence[complex]) -> IsometryBoundReport:
    """Verify the reciprocal-distance-to-circle bound at every sample point,
    up to the slack ``_ISOMETRY_SLACK``.

    Samples must keep a distance of at least 1e-6 from the unit circle in
    modulus; the matrix must be unitary to 1e-10.
    """
    require_unitary(u)
    lams = np.asarray([complex(lam) for lam in samples], dtype=np.complex128)
    gaps = np.abs(np.abs(lams) - 1.0)
    near = np.flatnonzero(gaps < 1e-6)
    if near.size:
        raise PreconditionError(f"sample {complex(lams[near[0]])!r} is within 1e-6 of the unit circle")
    if not lams.size:
        return IsometryBoundReport(0, 0, math.inf, complex(0.0))
    norms = _batched_spectral_norms(_nonspectral_resolvents(u, lams))
    bounds = 1.0 / gaps
    slacks = bounds - norms
    violations = int(np.count_nonzero(norms > bounds + _ISOMETRY_SLACK))
    worst_i = int(np.argmin(slacks))
    return IsometryBoundReport(lams.size, violations, float(slacks[worst_i]), complex(lams[worst_i]))


@dataclass(frozen=True)
class PoleProbeReport:
    """Resolvent norms on a shrinking ray toward a unit-circle eigenvalue.

    ``fitted_order`` is the least-squares slope of ln norm against
    -ln radius; a simple pole shows up as an order of one.
    """

    center: complex
    radii: tuple[float, ...]
    norms: tuple[float, ...]
    fitted_order: float


def pole_order_probe(u: CMatrix, theta: complex, radii: Sequence[float]) -> PoleProbeReport:
    """Probe the singularity order of a unitary resolvent at eigenvalue theta."""
    require_unitary(u)
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise PreconditionError("need at least 4 radii")
    if any(b >= a_ for a_, b in zip(radii, radii[1:])):
        raise PreconditionError("radii must be strictly decreasing")
    if radii[0] > 0.1 or radii[-1] < 1e-8:
        raise PreconditionError("radii must lie within [1e-8, 0.1]")
    theta = complex(theta)
    eigs = spectrum_info(u).eigenvalues
    dists = [abs(ev - theta) for ev in eigs]
    if min(dists) > 1e-6:
        raise PreconditionError(f"theta = {theta!r} is not an eigenvalue (distance {min(dists):.3e})")
    others = [dist for dist in dists if dist > 1e-6]
    min_sep = min(others) if others else math.inf
    if min_sep < 2.0 * max(radii):
        raise PreconditionError(
            f"eigenvalue separation {min_sep:.3e} below twice the largest radius {max(radii):.3e}"
        )
    direction = complex(math.cos(_PROBE_ANGLE), math.sin(_PROBE_ANGLE))
    norms = _batched_spectral_norms(_nonspectral_resolvents(u, [theta + r * direction for r in radii]))
    order = least_squares_slope(-np.log(np.asarray(radii)), np.log(norms))
    return PoleProbeReport(theta, tuple(radii), tuple(norms.tolist()), order)
