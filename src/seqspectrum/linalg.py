"""Dense complex linear algebra substrate.

Matrices are small (dimension capped at 64) dense complex arrays.  The
operator norm is the spectral 2-norm throughout the package, computed by
one kernel that squares the Gram matrix until a two-sided bound closes,
so every norm it returns is certified and every run is reproducible.
The kernel takes a stack of any size, empty included, and entries of
any finite magnitude, subnormal ones too: a matrix whose Frobenius norm
under- or overflows is rescaled by an exact power of two first.
Every linear solve goes through one elimination kernel, ``_solve_array``:
a (s, d, d) stack in, with a right-hand side broadcasting to (s, d, k),
and ``(x, ok)`` out, ``ok`` masking the zero matrices, those with a
pivot at most ``PIVOT_RTOL`` times their largest entry and those whose
solution overflows.  Each matrix gets bit for bit the arithmetic of a
one-matrix elimination.
All values are immutable after construction and every operation is a
pure function of its inputs.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConvergenceError, PreconditionError, SingularMatrixError

MAX_DIM = 64

#: Relative pivot threshold below which elimination declares singularity.
PIVOT_RTOL = 1e-14

#: Relative width at which a spectral-norm bracket counts as closed.
_NORM_RTOL = 1e-14

#: Gram squarings before the norm kernel gives up; 2^64 separates any tie.
_MAX_SQUARINGS = 64

#: Rescaling window for running matrix powers.
_POWER_RESCALE_LO = 1e-100
_POWER_RESCALE_HI = 1e100


def _as_complex_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise PreconditionError("entries must be finite (no NaN/Inf)")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CVector:
    """Immutable complex vector; element of the ambient space."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_complex_array(self.data)
        if arr.ndim != 1 or arr.size < 1:
            raise PreconditionError("vector must be one-dimensional and non-empty")
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __repr__(self):
        return f"CVector(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class CMatrix:
    """Immutable dense square complex matrix, dimension 1..64."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise PreconditionError("matrix must be square")
        if not 1 <= arr.shape[0] <= MAX_DIM:
            raise PreconditionError(f"dimension must be in [1, {MAX_DIM}]")
        object.__setattr__(self, "data", _as_complex_array(arr))

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "CMatrix":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, entries: Iterable[complex]) -> "CMatrix":
        return cls(np.diag(np.asarray(list(entries), dtype=np.complex128)))

    def __repr__(self):
        return f"CMatrix(dim={self.dim})"


def _solve_array(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-pivoted elimination of a (s, d, d) stack; returns ``(x, ok)``.

    Each column is one vectorized step over the stack: the first largest
    pivot candidate, row swaps where it is off the diagonal, the rank-1
    update.  Every matrix runs with its floating-point warnings silenced,
    so a solution that overflows is masked too; a masked ``x`` is
    meaningless.
    """
    m = a.astype(np.complex128)
    s, d, _ = m.shape
    x = np.broadcast_to(rhs, (s, d, rhs.shape[-1])).astype(np.complex128, order="C")
    threshold = PIVOT_RTOL * np.abs(m).max(axis=(1, 2))
    ok = np.ones(s, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for col in range(d):
            p = np.argmax(np.abs(m[:, col:, col]), axis=1) + col
            ok &= ~(np.abs(m[np.arange(s), p, col]) <= threshold)
            swap = np.flatnonzero(p != col)
            for arr in (m, x):
                arr[swap, col], arr[swap, p[swap]] = arr[swap, p[swap]], arr[swap, col]
            factors = m[:, col + 1 :, col] / m[:, col, col, None]
            m[:, col + 1 :, col:] -= factors[:, :, None] * m[:, None, col, col:]
            x[:, col + 1 :] -= factors[:, :, None] * x[:, None, col]
        for col in range(d - 1, -1, -1):
            dot = np.matmul(m[:, col, None, col + 1 :], x[:, col + 1 :])[:, 0]
            x[:, col] = (x[:, col] - dot) / m[:, col, col, None]
    return x, ok & np.isfinite(x).all(axis=(1, 2))


def _solve_one(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The s = 1 case of ``_solve_array``; raises PreconditionError when
    ``rhs`` has a different row count and SingularMatrixError when ``a``
    is masked."""
    if a.shape[0] != rhs.shape[0]:
        raise PreconditionError(f"dimension mismatch: {a.shape[0]} vs {rhs.shape[0]}")
    x, ok = _solve_array(a[None], rhs)
    if not ok[0]:
        raise SingularMatrixError("matrix is numerically singular: a pivot below threshold or an overflowing solve")
    return x[0]


def mat_solve(a: CMatrix, rhs: CMatrix) -> CMatrix:
    """Solve a @ X = rhs by row-pivoted elimination."""
    return CMatrix(_solve_one(a.data, rhs.data))


def solve_vector(a: CMatrix, rhs: CVector) -> CVector:
    return CVector(_solve_one(a.data, rhs.data.reshape(-1, 1))[:, 0])


def _pow2_scaled(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(scaled, e)``: each ``arr[i]`` times the power of two 2^-e[i] that
    brings its largest real or imaginary part into [0.5, 1).  The scaling
    is exact, subnormal entries included; an all-zero slice gets e = 0."""
    parts = np.ascontiguousarray(arr).view(np.float64)  # real and imaginary parts side by side
    exps = np.frexp(np.abs(parts).max(axis=tuple(range(1, arr.ndim))))[1]
    return np.ldexp(parts, -exps.reshape((-1,) + (1,) * (arr.ndim - 1))).view(np.complex128), exps


def operator_norm(a: CMatrix | np.ndarray) -> float:
    """Spectral 2-norm, certified to ``_NORM_RTOL`` relative."""
    arr = a.data if isinstance(a, CMatrix) else np.asarray(a, dtype=np.complex128)
    return float(_batched_spectral_norms(arr[None])[0])


def _batched_spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (s, d, d) stack, certified.

    Each matrix is scaled by its Frobenius norm, so its Gram matrix G has
    trace 1.  Squaring the Gram stack k times, renormalising by the trace
    after each squaring, leaves G^m / tr(G^m) with m = 2^k; the
    accumulated log traces give tr(G^m)^(1/m), an upper bound on the top
    eigenvalue of G.  The largest column of the squared matrix points
    along the top right singular direction, and its Rayleigh quotient,
    taken on the input matrix itself, is a lower bound and the returned
    value.  A matrix leaves the stack once its bracket closes to
    ``_NORM_RTOL`` relative.  A matrix whose Frobenius norm is 0 or inf
    (entries below about 1e-162 or above about 1e154) is first scaled by
    the power of two that brings its largest real or imaginary part into
    [0.5, 1), exactly even for subnormal entries, and its norm is scaled
    back; a zero matrix is closed at 0, a matrix with a NaN or inf entry
    at inf, and every other matrix keeps the bits of an unscaled run.  A
    relative
    gap g between the top two singular values closes in about
    log2(1/g) + 4 squarings, an exact tie in at most 48.  See Golub &
    Van Loan, *Matrix Computations*, sections 7.3 and 8.2.

    Raises ConvergenceError, with the widest open bracket in its payload,
    when a bracket is still open after ``_MAX_SQUARINGS`` squarings.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    s, d, _ = mats.shape
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf
        scale = np.linalg.norm(mats.reshape(s, d * d), axis=1)
    out = np.zeros(s)
    plain = (scale > 0.0) & (scale < np.inf)
    if not plain.all():
        out[plain] = _batched_spectral_norms(mats[plain])
        fix = np.flatnonzero(~plain)
        scaled, exps = _pow2_scaled(mats[fix])
        # e = 0 here only for a zero matrix, which stays at 0, or a
        # non-finite one, whose norm is inf
        finite = np.isfinite(scaled).all(axis=(1, 2))
        out[fix[~finite]] = np.inf
        live = (exps != 0) & finite
        with np.errstate(over="ignore"):  # a norm past the float range is inf
            out[fix[live]] = np.ldexp(_batched_spectral_norms(scaled[live]), exps[live])
        return out
    # conj(A)/|A| times A, then /|A|: the Gram stack with at most two
    # stack-sized arrays alive and no entry above |A|, so nothing overflows.
    gram = np.conjugate(mats)
    gram /= scale[:, None, None]
    gram = np.matmul(gram.swapaxes(1, 2), mats)
    gram /= scale[:, None, None]
    idx = np.arange(s)  # matrices whose bracket is still open
    log_top = np.zeros(s)  # ln tr(G^m) / m, an upper bound on ln of the top eigenvalue
    vecs = np.zeros((s, d), dtype=np.complex128)
    for k in range(_MAX_SQUARINGS + 1):
        if k:
            gram = np.matmul(gram, gram)
        trace = np.trace(gram, axis1=1, axis2=2).real
        gram /= trace[:, None, None]
        log_top += np.log(trace) / 2.0**k
        cols = np.argmax(np.diagonal(gram, axis1=1, axis2=2).real, axis=1)
        v = gram[np.arange(idx.size), :, cols]
        # one batched mat-vec on the whole input stack; closed rows hold zeros
        vecs[idx] = v
        image = np.matmul(mats, vecs[:, :, None])[idx, :, 0] / scale[idx, None]
        lower = np.linalg.norm(image, axis=1) / np.linalg.norm(v, axis=1)
        upper = np.exp(0.5 * log_top)
        done = upper - lower <= _NORM_RTOL * lower
        out[idx[done]] = scale[idx[done]] * lower[done]
        if done.all():
            return out
        vecs[idx[done]] = 0.0
        keep = ~done
        idx, gram, log_top = idx[keep], gram[keep], log_top[keep]
    lower, upper = lower[keep], upper[keep]
    worst = int(np.argmax((upper - lower) / lower))
    i = int(idx[worst])
    raise ConvergenceError(
        f"spectral norm bracket open after {_MAX_SQUARINGS} squarings for "
        f"{idx.size} of {s} matrices",
        {"index": i, "lower": float(scale[i] * lower[worst]), "upper": float(scale[i] * upper[worst])},
    )


def mat_power_seq(a: CMatrix, n_max: int) -> np.ndarray:
    """ln ||A^n|| for n = 1..n_max as a float64 array; -inf where A^n = 0.

    Maintains P_n = A^n / exp(s_n), renormalizing whenever the residual
    leaves [1e-100, 1e100], so growing and nilpotent powers both stay in
    range.  Entry n - 1 is ln ||P_n|| + s_n, the norms of the whole
    rescaled stack taken in one call of the batched norm kernel.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    arr = a.data
    p = arr
    log_scale = 0.0
    stack: list[np.ndarray] = []
    scales: list[float] = []
    for n in range(1, n_max + 1):
        if n > 1:
            p = arr @ p
        amax = float(np.max(np.abs(p)))
        if amax == 0.0:
            break
        if not _POWER_RESCALE_LO <= amax <= _POWER_RESCALE_HI:
            p = p / amax
            log_scale += float(np.log(amax))
        stack.append(p)
        scales.append(log_scale)
    out = np.full(n_max, -np.inf)
    if stack:
        out[: len(stack)] = np.log(_batched_spectral_norms(np.stack(stack))) + scales
    return out


def hermitian_defect(u: CMatrix) -> float:
    """|| U^H U - I ||, the distance from having orthonormal columns; inf
    when U^H U leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return operator_norm(u.data.conj().T @ u.data - np.eye(u.dim))


def require_unitary(u: CMatrix) -> None:
    """Raise PreconditionError unless U is unitary to 1e-10 in the defect
    ||U^H U - I||."""
    defect = hermitian_defect(u)
    if defect > 1e-10:
        raise PreconditionError(f"matrix is not unitary: ||U^H U - I|| = {defect:.3e} > 1.0e-10")
