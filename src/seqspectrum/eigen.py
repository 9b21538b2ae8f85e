"""Characteristic polynomial, eigenvalues, and spectral radius estimators.

Eigenvalues are obtained from the characteristic polynomial (trace
recursion) followed by simultaneous root iteration, which is adequate
for the dimensions this package handles.  Accuracy degrades for
dimensions above ~20 and for tightly clustered roots; multiple roots
resolve only to roughly the machine-epsilon root of their multiplicity.

The spectral radius is also estimated from the norm sequence
ln ||A^n|| alone (Gelfand's formula), whose subadditivity makes the
limit equal the infimum of a_n / n, so the minimum over a trailing
window converges from above.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .linalg import CMatrix, _as_complex_array, mat_power_seq, operator_norm
from .trend import classify_from_logs

_ROOT_TOL = 1e-14
_ROOT_MAX_SWEEPS = 500
_ROOT_RESIDUAL_RTOL = 1e-7

DEFAULT_PERIPHERAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Polynomial with ascending complex coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_complex_array(self.coeffs)
        if arr.ndim != 1 or arr.size < 1:
            raise PreconditionError("coefficient list must be non-empty and one-dimensional")
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        acc = np.full_like(z, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc


def char_poly(a: CMatrix) -> Polynomial:
    """Monic characteristic polynomial det(tI - A) by the trace recursion.

    The recursion has no scaling, so entries near the float range can
    overflow it; the first non-finite coefficient fails with its step k.
    """
    d = a.dim
    arr = a.data
    coeffs = np.zeros(d + 1, dtype=np.complex128)
    coeffs[d] = 1.0
    m = np.eye(d, dtype=np.complex128)
    for k in range(1, d + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            am = arr @ m
            c = -np.trace(am) / k
            m = am + c * np.eye(d)
        if not np.isfinite(c):  # a non-finite m always reaches the next trace
            raise ConvergenceError(f"characteristic polynomial left the float range at step {k}", {"step": k})
        coeffs[d - k] = c
    return Polynomial(coeffs)


def poly_roots(p: Polynomial) -> list[complex]:
    """All roots with multiplicity by simultaneous (Durand-Kerner) iteration.

    Starts on a circle of radius 1 + max |coeff| at roots of unity rotated
    by 0.4 rad to break symmetry.  Stops when every update falls below
    1e-14 * (1 + |root|); if 500 sweeps do not get there, the iterate is
    accepted anyway when every residual |p(z)| is negligible against the
    coefficient scale (multiple roots stall at their attainable accuracy
    without ever meeting the update rule), otherwise a failure carrying
    the per-root residuals is raised.  A sweep that leaves the float range
    fails at once with its index and the last finite iterate.
    """
    degree = p.degree
    if degree < 1:
        raise PreconditionError("degree must be >= 1")
    lead = p.coeffs[-1]
    if lead == 0:
        raise PreconditionError("leading coefficient must be nonzero")
    monic = p.coeffs / lead
    monic[-1] = 1.0  # lead / lead may round off 1 for complex lead
    if degree == 1:
        return [complex(-monic[0])]
    q = Polynomial(monic)

    radius = 1.0 + float(np.max(np.abs(monic[:-1])))
    angles = 2.0 * np.pi * np.arange(degree) / degree + 0.4
    z = radius * np.exp(1j * angles)
    converged = False
    for sweep in range(_ROOT_MAX_SWEEPS):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            small = np.abs(diff) < 1e-30
            if small.any():
                diff[small] = 1e-30  # collision guard; next sweep separates them
            update = q(z) / diff.prod(axis=1)
            z_next = z - update
        if not np.isfinite(z_next).all():  # a non-finite iterate never recovers
            payload = {"sweep": sweep, "roots": z.tolist()}
            raise ConvergenceError(f"root iteration left the float range at sweep {sweep}", payload)
        z = z_next
        if np.all(np.abs(update) < _ROOT_TOL * (1.0 + np.abs(z))):
            converged = True
            break

    if not converged:
        residuals = np.abs(q(z))
        scale = _ROOT_RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(monic)))) * (1.0 + np.abs(z)) ** degree
        if not np.all(residuals <= scale):
            raise ConvergenceError(
                "root iteration did not converge",
                payload={"roots": z.tolist(), "residuals": residuals.tolist()},
            )
    return sorted((complex(r) for r in z), key=lambda r: (r.real, r.imag))


@dataclass(frozen=True)
class SpectrumInfo:
    """Eigenvalues with the unit-circle (peripheral) subset singled out.

    Peripheral points are deduplicated by clustering within ten times the
    tolerance and normalized to exact unit modulus, so downstream mode
    extraction receives distinct, exactly unimodular angles.
    """

    eigenvalues: tuple[complex, ...]
    spectral_radius: float
    peripheral: tuple[complex, ...]
    peripheral_tol: float


def _circular_runs(points: np.ndarray, gap: float, period: float) -> list[np.ndarray]:
    """Ascending points on a circle of length ``period``, split where two
    neighbours lie more than ``gap`` apart; a last run that reaches round to
    the first point within ``gap`` joins the first, shifted down by ``period``."""
    runs = np.split(points, np.flatnonzero(np.diff(points) > gap) + 1)
    if len(runs) > 1 and points[0] + period - points[-1] <= gap:
        runs[0] = np.concatenate([runs.pop() - period, runs[0]])
    return runs


def _cluster_peripheral(points: list[complex], tol: float) -> list[complex]:
    if not points:
        return []
    angs = np.sort([np.angle(p) % (2.0 * np.pi) for p in points])
    reps = []
    for grp in _circular_runs(angs, 10.0 * tol, 2.0 * np.pi):
        mean = complex(np.mean(np.exp(1j * grp)))
        reps.append(mean / abs(mean))
    return sorted(reps, key=lambda r: float(np.angle(r)) % (2.0 * np.pi))


def spectrum_info(a: CMatrix, peripheral_tol: float = DEFAULT_PERIPHERAL_TOL) -> SpectrumInfo:
    """Eigenvalues, spectral radius, and deduplicated unit-circle subset."""
    if not 0.0 < peripheral_tol <= 0.1:
        raise PreconditionError("peripheral_tol must lie in (0, 0.1]")
    eigenvalues = poly_roots(char_poly(a))
    radius = max(abs(ev) for ev in eigenvalues)
    near_circle = [ev for ev in eigenvalues if abs(abs(ev) - 1.0) <= peripheral_tol]
    peripheral = _cluster_peripheral(near_circle, peripheral_tol)
    return SpectrumInfo(tuple(eigenvalues), float(radius), tuple(peripheral), peripheral_tol)


def cayley_hamilton_residual(a: CMatrix) -> float:
    """|| chi_A(A) || with the polynomial evaluated by Horner in matrix arithmetic."""
    coeffs = char_poly(a).coeffs
    d = a.dim
    acc = np.eye(d, dtype=np.complex128)  # leading (monic) coefficient
    for c in coeffs[-2::-1]:
        acc = acc @ a.data
        # added, not multiplied: numpy's product c * (1 + 0j) can overflow for a finite c near the float limit
        acc.flat[:: d + 1] += c
    return operator_norm(acc)


@dataclass(frozen=True)
class PowerBoundVerdict:
    """Outcome of probing sup_n ||A^n|| over a finite range."""

    sup_log_norm: float  # -inf when every power is zero
    bounded: bool
    growth_class: str
    n_max: int
    bound: float

    @property
    def sup_norm(self) -> float:
        return _exp(self.sup_log_norm)


def _exp(log: float) -> float:
    """e**log, inf once that leaves the float range (a log past 709.78)."""
    with np.errstate(over="ignore"):
        return float(np.exp(log))


def power_bounded_probe(a: CMatrix, n_max: int, bound: float) -> PowerBoundVerdict:
    """sup ||A^n|| for n <= n_max, plus a growth classification.

    The classification fits the log norm against the log index over the
    last half of the range; 'bounded' and 'decaying' both certify power
    boundedness on the probed window.
    """
    if n_max < 8:
        raise PreconditionError("n_max must be >= 8")
    return _power_verdict(mat_power_seq(a, n_max), bound)


def _power_verdict(logs: np.ndarray, bound: float) -> PowerBoundVerdict:
    """The verdict of :func:`power_bounded_probe` on the log norms
    ln ||A^n||, n = 1..len(logs)."""
    sup_log = float(np.max(logs))
    return PowerBoundVerdict(
        sup_log_norm=sup_log,
        bounded=bool(_exp(sup_log) <= bound),
        growth_class=classify_from_logs(logs),
        n_max=logs.shape[0],
        bound=float(bound),
    )


@dataclass(frozen=True)
class GelfandReport:
    """Spectral radius from the norm sequence alone (Gelfand's formula)."""

    samples: tuple[tuple[int, float], ...]  # (n, a_n / n), zero-norm entries omitted
    estimate: float
    nilpotent: bool


def gelfand_radius_estimate(a: CMatrix, n_max: int) -> GelfandReport:
    """Estimate lim ||A^n||^(1/n) from the trailing window of a_n / n.

    a_n = ln ||A^n|| is subadditive, so the limit equals inf a_n / n and
    the minimum over n in [n_max/2, n_max] approaches it monotonically
    from above, which is robust to transient growth of defective
    matrices.  An exactly-zero power short-circuits to estimate 0 with
    the nilpotency flag set.  Only the powers are formed: no eigenvalue
    is computed.
    """
    if n_max < 16:
        raise PreconditionError("n_max must be >= 16")
    logs = mat_power_seq(a, n_max)
    n = np.arange(1, n_max + 1)
    nonzero = logs > -np.inf
    ratios = logs[nonzero] / n[nonzero]
    samples = tuple(zip(n[nonzero].tolist(), ratios.tolist()))
    if not nonzero.all():
        return GelfandReport(samples, 0.0, True)
    estimate = float(np.exp(ratios[max(1, n_max // 2) - 1 :].min()))
    return GelfandReport(samples, estimate, False)
