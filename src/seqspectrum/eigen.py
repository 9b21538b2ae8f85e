"""Characteristic polynomial, eigenvalues, and spectral radius estimators.

Eigenvalues come from one kernel, ``_eigenvalues``: a Householder
reduction to upper Hessenberg form, split into unreduced blocks at
negligible subdiagonal entries, and Aberth-Ehrlich sweeps on each
block's determinant, evaluated by Hyman's method.  Each root stops on
a bound on its backward error, so every eigenvalue is one of a matrix
within a few d eps ||A||_F of A at any dimension up to ``MAX_DIM`` and
any magnitude; multiple roots resolve only to roughly the
machine-epsilon root of their multiplicity.  Polynomial roots are the
eigenvalues of the companion matrix, from the same kernel.

The spectral radius is also estimated from the norm sequence
ln ||A^n|| alone (Gelfand's formula), whose subadditivity makes the
limit equal the infimum of a_n / n, so the minimum over a trailing
window converges from above.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .linalg import CMatrix, _as_complex_array, _pow2_scaled, _pow2_unscaled, mat_power_seq, operator_norm
from .trend import classify_from_logs

#: Aberth sweeps after which a block whose roots have not all stopped fails.
_MAX_SWEEPS = 64

#: Hyman's x is rescaled each time its growth bound has grown by 2 to this power.
_RESCALE_LOG2 = 400

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
    """All roots with multiplicity: the eigenvalues of the companion
    matrix, whose first row is -c_(n-1) .. -c_0 of the monic polynomial
    and whose subdiagonal is ones (Edelman & Murakami, Math. Comp. 1995),
    sorted by real then imaginary part."""
    degree = p.degree
    if degree < 1:
        raise PreconditionError("degree must be >= 1")
    lead = p.coeffs[-1]
    if lead == 0:
        raise PreconditionError("leading coefficient must be nonzero")
    companion = np.eye(degree, k=-1, dtype=np.complex128)
    companion[0] = -p.coeffs[-2::-1] / lead
    return _sorted(_eigenvalues(companion))


def _sorted(eigs: np.ndarray) -> list[complex]:
    return sorted((complex(z) for z in eigs), key=lambda z: (z.real, z.imag))


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square complex array, with multiplicity.

    A is scaled by an exact power of two and reduced to upper Hessenberg
    form H.  H splits into unreduced blocks at every subdiagonal entry of
    at most tol = 2 d eps ||H||_F; a block of one row is its diagonal
    entry, and each larger block is solved by :func:`_aberth`.  Every
    returned eigenvalue is one of a matrix within about tol of the scaled
    A, so to first order an eigenvalue of condition number k is off by
    at most k tol.  An eigenvalue past the float range fails.
    """
    scaled, exps = _pow2_scaled(a[None])
    h = _hessenberg(scaled[0])
    d = h.shape[0]
    tol = 2.0 * d * np.finfo(float).eps * np.sqrt(np.vdot(h, h).real)
    cuts = [0, *(np.flatnonzero(np.abs(np.diagonal(h, -1)) <= tol) + 1).tolist(), d]
    eigs = np.diagonal(h).copy()
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo > 1:
            eigs[lo:hi] = _aberth(h[lo:hi, lo:hi], tol, exps)
    eigs = _pow2_unscaled(eigs, exps[0])
    # |eigs| <= ||H||_F <= 64 sqrt(2) before the scaling back, so only a factor 2^e > 1 can overflow
    if exps[0] > 0:
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(eigs)).all():
                raise ConvergenceError("an eigenvalue leaves the float range")
    return eigs


def _hessenberg(h: np.ndarray) -> np.ndarray:
    """Reduce h in place to upper Hessenberg form by Householder
    reflections and return it; a column already zero below its
    subdiagonal is left as it is."""
    d = h.shape[0]
    for k in range(d - 2):
        x = h[k + 1 :, k]
        tail = np.vdot(x[1:], x[1:]).real
        if tail == 0.0:
            continue
        head = abs(x[0])
        norm = np.sqrt(head * head + tail)
        phase = x[0] / head if head else 1.0
        # I - v v* / (norm (norm + head)) maps x to -phase norm e_1
        v = x.copy()
        v[0] += phase * norm
        w = v.conj() / (norm * (norm + head))
        x[:] = 0.0
        x[0] = -phase * norm
        h[k + 1 :, k + 1 :] -= np.outer(v, w @ h[k + 1 :, k + 1 :])
        h[:, k + 1 :] -= np.outer(h[:, k + 1 :] @ v, w)
    return h


def _aberth(b: np.ndarray, tol: float, exps: np.ndarray) -> np.ndarray:
    """The eigenvalues of an unreduced upper Hessenberg block by
    Aberth-Ehrlich sweeps (Bini, Gemignani & Tisseur, SIAM J. Matrix
    Anal. Appl. 27, 2005) on det(B - zI), evaluated by :func:`_hyman`.

    The n roots start on a circle about the mean eigenvalue
    c = trace(B) / n whose radius is the root mean square distance of the
    diagonal from c plus the mean subdiagonal modulus, and every iterate
    is kept in the disk |z| <= ||B||_F, which holds every eigenvalue.  A
    root stops once a bound on its backward error,
    min(|beta| / ||x||, n |beta / beta'|), is at most ``tol``, after one
    more polishing step: z is an eigenvalue of B - beta e_1 x* / ||x||^2,
    and a disk of radius n |p / p'| about z holds a root of the degree-n
    polynomial p.  The second bound is the one a root reaches when a
    small subdiagonal entry inflates x.  A block not done in
    ``_MAX_SWEEPS`` sweeps fails with its last iterate, scaled back by
    2^exps, unless that leaves the float range.
    """
    n = b.shape[0]
    rows = [b[i, i:] for i in range(n)]
    sub = np.diagonal(b, -1)
    inv = (-1.0 / sub).tolist()
    gaps = np.abs(sub)
    radius = np.sqrt(np.vdot(b, b).real)  # b is zero below its subdiagonal
    # Hyman's x grows by at most (||b_i||_1 + |z| + 1) / |b_(i,i-1)| at row i
    # (b_i the whole row), at most ((sqrt(n) + 1) ||B||_F + 1) / |b_(i,i-1)|:
    # rescale wherever the running bound passes another 2^_RESCALE_LOG2
    rescale = frozenset()
    if (n - 1) * np.log2(((np.sqrt(n) + 1.0) * radius + 1.0) / gaps.min()) > _RESCALE_LOG2:
        growth = np.log2((np.abs(b).sum(axis=1)[1:] + radius + 1.0) / gaps)
        passes = np.cumsum(np.maximum(growth[::-1], 0.0)) // _RESCALE_LOG2
        rescale = frozenset((n - 1 - np.flatnonzero(np.diff(passes, prepend=0.0))).tolist())
    centre = np.trace(b) / n
    off = np.diagonal(b) - centre
    spread = np.sqrt(np.vdot(off, off).real / n) + gaps.sum() / (n - 1)
    z = centre + spread * np.exp(1j * (2.0 * np.pi / n * np.arange(n) + 0.4))
    act, own = np.arange(n), np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z *= np.minimum(1.0, radius / np.abs(z))
        for _ in range(_MAX_SWEEPS):
            za = z[act]
            beta, dbeta, xnorm = _hyman(rows, inv, za, rescale)
            ratio = dbeta / beta
            diff = za[:, None] - z
            diff[own[: len(act)], act] = np.inf
            step = 1.0 / (ratio - np.add.reduce(1.0 / diff, axis=1))
            za -= np.where(np.isfinite(step), step, 0.0)
            if (np.abs(za) > radius).any():  # every eigenvalue lies in |z| <= ||B||_F
                za *= np.minimum(1.0, radius / np.abs(za))
            z[act] = za
            act = act[np.abs(beta) > tol * np.maximum(xnorm, np.abs(dbeta) / n)]
            if not len(act):
                return z
    payload = {"sweep": _MAX_SWEEPS}
    roots = _pow2_unscaled(z, exps[0])
    if np.isfinite(roots).all():  # a root past the float range would not be strict JSON
        payload["roots"] = roots.tolist()
    raise ConvergenceError(f"eigenvalue iteration did not converge in {_MAX_SWEEPS} sweeps", payload)


def _hyman(rows: list, inv: list, z: np.ndarray, rescale: frozenset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta, beta', ||x||) at each z for Hyman's method (Wilkinson, The
    Algebraic Eigenvalue Problem, 7.11): x with x_(n-1) = 1 solves rows
    1 .. n-1 of (B - zI) x = beta e_1 from the bottom up, so det(B - zI)
    is beta times a constant and beta / beta' is the Newton quotient.
    x and x' are the two rows of one (len(z), 2, n) array, scaled by a
    power of two after each row in ``rescale``, which changes neither
    quotient; ``rows[i]`` is b[i, i:] and ``inv[i]`` is -1 / b[i+1, i]."""
    n, m = len(rows), len(z)
    x = np.zeros((m, 2, n), dtype=np.complex128)
    flat = x.reshape(2 * m, n)
    # the bottom row, with x_(n-1) = 1 and x'_(n-1) = 0
    flat[0::2, -1] = 1.0
    flat[0::2, -2] = (rows[-1][0] - z) * inv[-1]
    flat[1::2, -2] = -inv[-1]
    zz = np.repeat(z, 2)
    for i in range(n - 2, 0, -1):
        if i + 1 in rescale:
            flat[:] = _pow2_scaled(x)[0].reshape(2 * m, n)
        s = flat[:, i:] @ rows[i]
        s -= zz * flat[:, i]
        s[1::2] -= flat[0::2, i]
        flat[:, i - 1] = s * inv[i - 1]
    if 1 in rescale:
        flat[:] = _pow2_scaled(x)[0].reshape(2 * m, n)
    s = flat @ rows[0]
    s -= zz * flat[:, 0]
    s[1::2] -= flat[0::2, 0]
    parts = x[:, 0].view(np.float64)
    return s[0::2], s[1::2], np.sqrt(np.einsum("ij,ij->i", parts, parts))


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
    eigenvalues = _sorted(_eigenvalues(a.data))
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
