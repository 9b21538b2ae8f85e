"""Dense complex linear algebra substrate.

Matrices are small (dimension capped at 64) dense complex arrays.  The
operator norm is the spectral 2-norm throughout the package, computed by
one kernel that squares the Gram matrix until a two-sided bound closes,
so every norm it returns is certified and every run is reproducible.
The kernel takes a stack of any size, empty included, and entries of
any finite magnitude, subnormal ones too, and walks it a chunk of at
most ``_NORM_CHUNK_ENTRIES`` entries at a time.  Matrix powers come from
one loop, ``_power_stack``, which hands them to its caller in chunks of
the same size and keeps none, so a power sequence of any length is
formed, normed and reduced in the memory of a few chunks.  Every
Euclidean norm of caller data goes through ``_row_norms``, or through
``_plain_norms`` where a plain norm's under- or overflow changes no
result.  These, the matrix powers and the spectrum scan keep magnitudes
in range by one rule: ``_pow2_scaled`` scales by an exact power of two,
``_pow2_unscaled`` undoes it.
A caller that reads only the extremes of a norm stack, the largest
norm less an offset and the norms above a threshold, passes the kernel a
query, and the brackets that can be neither stop early, proven by a
margin on their ends, and come back NaN; every norm read keeps its bits.
Every linear solve goes through one elimination kernel, ``_solve_array``:
a (s, d, d) stack in, with a right-hand side broadcasting to (s, d, k)
or, for the inverse, none, and ``(x, ok)`` out, ``ok`` masking the zero
matrices, those with a pivot at most ``PIVOT_RTOL`` times their largest
entry and those whose solution overflows.  An inverse is eliminated in
the caller's stack, never touching the identity's zeros.  Each matrix
gets bit for bit the arithmetic of a one-matrix elimination.
All values are immutable after construction and every operation is a
pure function of its inputs.
"""

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError, SingularMatrixError

MAX_DIM = 64

#: Relative pivot threshold below which elimination declares singularity.
PIVOT_RTOL = 1e-14

#: Relative width at which a spectral-norm bracket counts as closed.
_NORM_RTOL = 1e-14

#: Gram squarings before the norm kernel gives up; 2^64 separates any tie.
_MAX_SQUARINGS = 64

#: Squarings after which a bracket still open also gets the two-vector
#: Ritz step.  On a small stack the step costs about a dozen squarings in
#: numpy calls, so it waits for the brackets that squaring closes fast.
_RITZ_AFTER = 8

#: Relative widening of a bracket's ends before the norm kernel's query
#: compares them; it covers their rounding, about 3e-13 at d = 64.
_QUERY_RTOL = 1e-12

#: Entries in the largest chunk the norm kernel takes at once, and in
#: each chunk of powers :func:`_power_stack` hands over: 16 matrices at
#: d = 64, 256 at d = 16.
_NORM_CHUNK_ENTRIES = 2**16

#: Rescaling window for running matrix powers.
_POWER_RESCALE_LO = 1e-100
_POWER_RESCALE_HI = 1e100

#: Entries in the largest block of powers formed before their ranges are
#: checked: 8 powers at d = 64, where each power out of range costs the
#: rest of its block formed again.
_POWER_BLOCK_ENTRIES = 2**15


def _as_complex_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
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
        return float(_row_norms(self.data[None])[0])

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

    def __repr__(self):
        return f"CMatrix(dim={self.dim})"


def _solve_array(a: np.ndarray, rhs: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Row-pivoted elimination of a (s, d, d) stack; returns ``(x, ok)``.

    ``x`` solves a x = rhs for a right-hand side broadcasting to (s, d, k):
    a copy of the stack and the right-hand side are eliminated as one
    (s, d, d + k) array [M | B].  With ``rhs`` None, ``x`` is the inverse,
    and ``a``, a writable complex128 stack the caller hands over, is
    eliminated in place: below its diagonal, where elimination leaves
    entries no later step reads, it keeps B = L^-1, the identity
    eliminated along with M, with its columns in pivot order.  There B is
    unit lower triangular: a row swap at column c moves only its first c
    columns, and a rank-1 update changes only its first c + 1, the last
    to the identity's 0 less the factor times its 1, so the identity's
    other zeros and ones are never touched.  Once its columns are
    permuted back, B holds every bit of the [M | I] elimination.

    Each column is one vectorized step over the stack: the first largest
    pivot candidate, row swaps where it is off the diagonal, the rank-1
    update; back substitution follows, so each matrix gets bit for bit the
    arithmetic of a one-matrix elimination.  The pivot threshold is taken
    over M alone.  Every matrix runs with its floating-point warnings
    silenced, so a solution that overflows is masked too; a masked ``x``
    is meaningless.
    """
    s, d, _ = a.shape
    threshold = PIVOT_RTOL * np.abs(a).max(axis=(1, 2))
    if rhs is None:
        w, perm = a, np.tile(np.arange(d), (s, 1))
    else:
        w = np.concatenate([a, np.broadcast_to(rhs, (s, d, rhs.shape[-1]))], axis=2, dtype=np.complex128)
    ok = np.ones(s, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for col in range(d):
            first = 0 if rhs is None else col  # left of col: L^-1, or entries of M no later step reads
            p = np.argmax(np.abs(w[:, col:, col]), axis=1) + col
            ok &= ~(np.abs(w[np.arange(s), p, col]) <= threshold)
            swap = np.flatnonzero(p != col)
            w[swap, col, first:], w[swap, p[swap], first:] = w[swap, p[swap], first:], w[swap, col, first:]
            factors = w[:, col + 1 :, col] / w[:, col, col, None]
            w[:, col + 1 :, first:] -= factors[:, :, None] * w[:, None, col, first:]
            if rhs is None:
                perm[swap, col], perm[swap, p[swap]] = perm[swap, p[swap]], perm[swap, col]
                w[:, col + 1 :, col] = 0.0 - factors  # the identity's 0 less the factor times its 1, bit for bit
        if rhs is None:  # L^-1 and its unit diagonal, each column back in its place in the identity
            x = np.zeros_like(w)
            rows, cols = np.tril_indices(d, -1)
            x[np.arange(s)[:, None], rows, perm[:, cols]] = w[:, rows, cols]
            x[np.arange(s)[:, None], np.arange(d), perm] = 1.0
        else:
            x = w[:, :, d:]
        for col in range(d - 1, -1, -1):
            dot = np.matmul(w[:, col, None, col + 1 : d], x[:, col + 1 :])[:, 0]
            x[:, col] = (x[:, col] - dot) / w[:, col, col, None]
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


def _pow2_unscaled(arr, exps):
    """The inverse of :func:`_pow2_scaled`: each ``arr[i]`` of a real or
    complex array or numpy scalar times 2^exps[i], a scalar exponent
    scaling all of ``arr``; inf past the float range, with no warning, and
    ``arr`` itself when every exponent is 0."""
    exps = np.asarray(exps)
    if not exps.any():
        return arr
    with np.errstate(over="ignore"):
        return np.ldexp(arr.view(np.float64), exps.reshape(exps.shape + (1,) * (arr.ndim - exps.ndim))).view(arr.dtype)


def _div_real(z: np.ndarray, r) -> np.ndarray:
    """z / r in place for a complex array z whose last axis is contiguous
    and real divisors r broadcasting against it; returns z.

    numpy divides by r + 0j as (re + im 0) (1 / r), so multiplying the
    real and imaginary parts by 1 / r gives its bits wherever z is finite,
    up to the sign of a zero part, without its full complex quotient.
    Dividing the parts by r would round differently.  An inf or NaN part
    of z is not numpy's quotient, since numpy's im 0 turns inf into NaN.
    """
    parts = z.view(np.float64)
    parts *= 1.0 / r
    return z


def _plain_norms(arr: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(arr, axis=axis)`` of a complex 2-D array, bit for bit.

    numpy sums the squares ``(arr.conj() * arr).real`` with one reduce.
    Along axis 0 that reduce adds whole rows in order.  Along axis 1 it
    makes one inner-loop call per row, which on a long window of a few
    columns costs more than the arithmetic; there the columns are added
    left to right instead, which is numpy's order for rows of at most 7
    entries, and rows of 8 or more keep numpy's pairwise reduce.  numpy
    picks the reduce's order from the memory layout, so a reduce runs on
    row-major squares whatever the layout of ``arr``: a column-major
    window's would be summed in order, one column at a time.  The
    product stays out of place: numpy's in-place complex product can round
    differently.
    """
    squares = (arr.conj() * arr).real
    if axis == 0 or arr.shape[1] >= 8:
        if not arr.flags.c_contiguous:
            squares = np.ascontiguousarray(squares)
        total = np.add.reduce(squares, axis=axis)
    else:
        total = squares[:, 0].copy()
        for j in range(1, arr.shape[1]):
            total += squares[:, j]
    return np.sqrt(total, out=total)


def _row_norms(arr: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex (N, d) array.

    The plain norm is :func:`_plain_norms`: the squared moduli of a row
    of at most 7 entries summed left to right, a longer row's by numpy's
    pairwise reduce, so each row keeps ``np.linalg.norm``'s bits.
    Rows whose plain norm overflows, or is below 1e-140 where the squares
    that matter may underflow, are recomputed scaled by an exact power of
    two (Blue, ACM TOMS 1978); every other row keeps the plain norm's bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _plain_norms(arr, 1)
    fix = np.flatnonzero((norms < 1e-140) | np.isinf(norms))
    fix = fix[arr[fix].any(axis=1)]  # a zero row's plain norm is exact
    if fix.size:
        scaled, exps = _pow2_scaled(arr[fix])
        norms[fix] = _pow2_unscaled(_plain_norms(scaled, 1), exps)
    return norms


def operator_norm(a: CMatrix | np.ndarray) -> float:
    """Spectral 2-norm, certified to ``_NORM_RTOL`` relative."""
    arr = a.data if isinstance(a, CMatrix) else np.asarray(a, dtype=np.complex128)
    return float(_batched_spectral_norms(arr[None])[0])


def _batched_spectral_norms(
    mats: np.ndarray, opened: list | None = None, start: int = 0, query: tuple | None = None
) -> np.ndarray:
    """Largest singular value of each matrix in a (s, d, d) stack, certified.

    The stack is normed a chunk of at most ``_NORM_CHUNK_ENTRIES`` entries
    at a time, so the kernel's own arrays are a few chunks whatever the
    stack's size.  Every step below is taken on each matrix alone, so
    every matrix's bracket, and so every returned bit, is that of a
    whole-stack run.

    Each matrix is scaled by its Frobenius norm, so its Gram matrix G has
    trace 1.  Squaring the Gram stack k times, renormalising by the trace
    after each squaring, leaves H = G^m / tr(G^m) with m = 2^k; the
    accumulated log traces give tr(G^m)^(1/m), an upper bound on the top
    eigenvalue of G.  The largest column of H points along the top right
    singular direction, and its Rayleigh quotient, taken on the input
    matrix itself, is a lower bound and the returned value.  A matrix
    leaves the stack once its bracket closes to ``_NORM_RTOL`` relative.
    A relative gap g between the top two singular values closes in about
    log2(1/g) + 4 squarings.

    A tie of the top two singular values (a power of a matrix with two
    unimodular eigenvalues) would hold the trace bound 2^(1/m) high for
    about 45 squarings, so a bracket still open after ``_RITZ_AFTER``
    squarings also gets a two-vector Rayleigh-Ritz step
    (:func:`_ritz_bounds`; Golub & Van Loan, *Matrix Computations*,
    section 8.2; Parlett, *The Symmetric Eigenvalue Problem*, ch. 11) on
    Q, the two largest-diagonal columns of H orthonormalised by
    Gram-Schmidt run twice:

    * upper: the smaller eigenvalue theta_2 of Q*HQ is at most
      lambda_2(H) by Cauchy interlacing, and the eigenvalues of H are
      >= 0 and sum to 1, so lambda_1(H) <= 1 - theta_2 and
      ln lambda_1(G) <= ln tr(G^m) / m + ln(1 - theta_2') / m, with
      theta_2' = theta_2 - 64 d eps clipped to [0, 1/2];
    * lower: the larger of the column's Rayleigh quotient and that of
      w = Qy, the top Ritz vector of G on span(Q), whose image (AQ)y is
      again taken on the input matrix, so the returned value is still
      the Rayleigh quotient of one vector.  It takes no margin: at
      d = 64 one of d eps would already exceed ``_NORM_RTOL``.

    A tie of multiplicity two then closes at the first Ritz step or the
    next; one of multiplicity three or more still needs about 45
    squarings.  Matrices that close before the Ritz step keep the bits
    of a run without it.

    Margin: H here is the computed trace-1 power, taken as Hermitian
    positive semidefinite exactly as the trace bound takes it, and
    u = eps / 2.  (i) The second Gram-Schmidt pass leaves a residual of
    norm >= 1/2 (otherwise theta_2' = 0): rounding in a length-d complex
    inner product is at most (2d + 4) u times the product of the norms,
    in a normalisation (d + 3) u, so |q_i* q_i - 1| <= 2 (d + 3) u and
    |q_1* q_2| <= 2 (4d + 17) u, whence ||Q*Q - I|| <= delta =
    (12d + 52) u.  (ii) With Q = UP, U orthonormal and P = (Q*Q)^(1/2),
    Q*HQ = P (U*HU) P, and by Ostrowski's theorem each eigenvalue of
    Q*HQ is that of U*HU times a factor in [1 - delta, 1 + delta]; U*HU
    interlaces H, so theta_2(Q*HQ) <= (1 + delta) lambda_2(H) <=
    lambda_2(H) + delta / 2.  (iii) ||H|| <= ||H||_F <= tr H = 1 bounds
    the rounding of each entry of the computed Q*HQ by (4d + 9) u, so by
    Weyl the smaller eigenvalue of the Hermitian matrix read from its
    upper triangle moves by at most (8d + 18) u.  (iv) The closed form
    mean - hypot(half gap, |b|) on entries at most 1.1 adds at most 8 u.  In all, the computed theta_2
    exceeds lambda_2(H) by at most (14d + 52) u <= 20 d eps for d >= 2,
    under a third of the margin.  As theta_2' <= 1/2, the margin moves
    the bound by at most 64 d eps / m relative: 3.6e-15 at d = 64 and
    m = 256, under ``_NORM_RTOL``.

    A zero matrix is closed at 0 as it stands.  Any other matrix whose
    Frobenius norm is 0 or inf (entries below about 1e-162 or above about
    1e154) is first scaled by :func:`_pow2_scaled`, in a copy of its
    chunk, and its norm scaled back by :func:`_pow2_unscaled`; a matrix
    with a NaN or inf entry is closed at inf, and every other matrix keeps
    the bits of an unscaled run.  See Golub & Van Loan, sections 7.3 and 8.2.

    Every quotient by a real number, the trace renormalisation included,
    is :func:`_div_real`'s product by the reciprocal.  That keeps the bits
    of numpy's complex quotient only on finite arrays, and every array
    divided here is finite: a matrix with a NaN or inf entry is zeroed
    before the loop, and every array formed from the others is bounded by
    the Frobenius norm of its matrix.

    Raises ConvergenceError, with the widest open bracket in its payload,
    when a bracket is still open after ``_MAX_SQUARINGS`` squarings; every
    chunk is normed first, so the open count is that of the whole stack.
    The payload gives the caller's index into ``mats`` and the bracket in
    the units of that input matrix.  A caller that norms one stack in
    several calls passes a list as ``opened`` and the offset of ``mats``
    in that stack as ``start``: each call then appends its open brackets
    to the list, returns NaN for their norms, and leaves the raise to
    :func:`_raise_open` once the stack is done.

    Query.  A caller that reads only the extremes of a stack passes
    ``query = (offsets, threshold)``, offsets finite and broadcasting to
    (s,): it reads the first index of the largest ``norm - offset``, as
    it computes that difference, and which norms exceed ``offsets +
    threshold``, as it computes that sum.  Every other norm may come back
    NaN: at each squaring an open bracket is dropped, and returns NaN,
    when its widened upper end less offset is below ``best``, the largest
    widened lower end less offset seen so far in the stack (a closed
    bracket counts at its norm, and ``best`` carries over from chunk to
    chunk), and its widened upper end is at most ``offsets + threshold``.
    Every kept norm keeps its bits, the first largest is kept, and so is
    every norm above the threshold.  A dropped bracket never raises; a
    kept one still open after ``_MAX_SQUARINGS`` squarings raises as
    above.

    Margin of the query, under the assumption of the margin above that
    the computed trace-1 powers are exactly Hermitian positive
    semidefinite, with u = eps / 2 and r = ``_QUERY_RTOL`` = 1e-12.
    (i) A norm v returned at closing is a computed Rayleigh quotient
    ||Ax|| / ||x||, the Ritz one included: its mat-vecs round by at most
    about 4 d u |A| |x|, and || |A| |x| || <= ||A||_F ||x|| <= sqrt(d)
    ||A|| ||x||, so v, and any lower end, is at most the true norm times
    1 + (4 d sqrt(d) + 2 d + 8) u, 2.5e-13 at d = 64.  (ii) An upper end
    is exp of half a sum of at most 65 terms ln(tr) / 2^k (with the Ritz
    term ln(1 - theta_2') / 2^k), each trace a sum of nonnegative terms
    within 2 d u, and each term and partial sum at most ln d in modulus,
    so the sum is within (4 d + 67 ln d) u of its exact value, which
    bounds the true norm, and the end within 4e-14.  So v is at most any
    upper end times 1 + 3e-13, and, as closing takes u - l <=
    ``_NORM_RTOL`` l, at least any lower end over 1 + 3e-13: both inside
    the widened ends l (1 - r) and u (1 + r), taken times the Frobenius
    norm and scaled back by :func:`_pow2_unscaled` as v is.  (iii) Those
    products, the scaling by 2^e, and the caller's ``v - offset`` and
    ``offset + threshold`` all round to nearest, which is monotone.  So
    the first argmax a, whose v_a - o_a is at least that of the bracket
    that set ``best``, has widened upper end less offset at least
    ``best``, and a norm above ``offsets + threshold`` has its widened
    upper end above it too: neither is dropped.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    s, d, _ = mats.shape
    rows = max(1, _NORM_CHUNK_ENTRIES // (d * d))
    records = [] if opened is None else opened
    offsets, threshold = (None, None) if query is None else (np.broadcast_to(query[0], (s,)), query[1])
    best = -np.inf  # the largest lower end of norm - offset so far
    norms = np.empty(s)
    for i in range(0, s, rows):
        chunk = None if query is None else offsets[i : i + rows]
        norms[i : i + rows], best = _chunk_norms(mats[i : i + rows], start + i, records, chunk, threshold, best)
    if opened is None:
        _raise_open(records, s)
    return norms


def _raise_open(opened: list, s: int) -> None:
    """Raise the ConvergenceError of a stack of ``s`` matrices normed in
    chunks, if any chunk left a bracket open: the open count of every
    chunk, and the widest of their brackets, the first on a tie."""
    if opened:
        count, width, index, lower, upper = zip(*opened)
        worst = int(np.argmax(width))
        raise ConvergenceError(
            f"spectral norm bracket open after {_MAX_SQUARINGS} squarings for {sum(count)} of {s} matrices",
            {"index": index[worst], "lower": lower[worst], "upper": upper[worst]},
        )


def _chunk_norms(
    mats: np.ndarray, start: int, records: list, offsets: np.ndarray | None, threshold: float | None, best: float
) -> tuple[np.ndarray, float]:
    """The norms of one chunk of :func:`_batched_spectral_norms`, the
    chunk at offset ``start`` of its stack, and the query's ``best``.
    Brackets still open after ``_MAX_SQUARINGS`` squarings get NaN, and
    the chunk appends ``(open count, relative width, index, lower, upper)``
    of its widest one to ``records``.  With ``offsets``, the chunk's slice
    of the query's, brackets are dropped as the query says, ``best``
    coming in as the largest lower end of norm - offset over the chunks
    before and going out raised by this chunk's."""
    s, d, _ = mats.shape
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf
        scale = _plain_norms(mats.reshape(s, d * d), 1)
    out = np.zeros(s)
    exps = np.zeros(s, dtype=int)  # each norm is out * 2**exps
    odd = np.flatnonzero(~((scale > 0.0) & (scale < np.inf)))
    odd = odd[[mats[i].any() for i in odd]]  # a zero matrix is closed at 0 as it stands
    if odd.size:
        mats = mats.copy()
        mats[odd], exps[odd] = _pow2_scaled(mats[odd])
        # e = 0 here only for a zero matrix, which stays at 0, or a
        # non-finite one, whose norm is inf and which is zeroed here
        bad = odd[~np.isfinite(mats[odd]).all(axis=(1, 2))]
        out[bad], mats[bad] = np.inf, 0.0
        scale[odd] = _plain_norms(mats[odd].reshape(odd.size, d * d), 1)
    idx = np.flatnonzero(scale > 0.0)  # matrices whose bracket is still open
    if offsets is not None:  # the zero and non-finite matrices, closed as they stand
        closed = np.flatnonzero(scale == 0.0)
        best = np.max(_pow2_unscaled(out[closed], exps[closed]) - offsets[closed], initial=best)
    # conj(A)/|A| times A, then /|A|: the Gram stack with at most two
    # stack-sized arrays alive and no entry above |A|, so nothing overflows.
    # While most matrices are open it is formed on the whole stack (a
    # closed matrix is zero, divided by 1) and then selected, so no copy
    # of the open matrices is held beside it.
    rows = idx if 2 * idx.size <= s else slice(None)
    live = mats[rows]
    unit = np.where(scale > 0.0, scale, 1.0)[rows, None, None]
    gram = _div_real(np.conjugate(live), unit)
    gram = _div_real(np.matmul(gram.swapaxes(1, 2), live), unit)
    if len(gram) > idx.size:
        gram = gram[idx]
    # the open input matrices, compacted with the Gram stack once at most
    # half the stack is open; before that the mat-vec runs on the whole stack
    opened = live if 2 * idx.size <= s else None
    log_top = np.zeros(idx.size)  # ln tr(G^m) / m, an upper bound on ln of the top eigenvalue
    vecs = np.zeros((s, d), dtype=np.complex128)
    for k in range(_MAX_SQUARINGS + 1):
        if k:
            gram = np.matmul(gram, gram)
        trace = np.diagonal(gram, axis1=1, axis2=2).sum(axis=1).real  # np.trace's bits, faster
        _div_real(gram, trace[:, None, None])
        log_top += np.log(trace) / 2.0**k
        cols = np.argmax(np.diagonal(gram, axis1=1, axis2=2).real, axis=1)
        v = gram[np.arange(idx.size), :, cols]
        if opened is None:  # one batched mat-vec on the whole input stack; closed rows hold zeros
            vecs[idx] = v
        image = np.matmul(mats, vecs[:, :, None])[idx, :, 0] if opened is None else np.matmul(opened, v[:, :, None])[..., 0]
        image = _div_real(image, scale[idx, None])
        lower = _plain_norms(image, 1) / _plain_norms(v, 1)
        upper = np.exp(0.5 * log_top)
        done = upper - lower <= _NORM_RTOL * lower
        if k >= _RITZ_AFTER and not done.all():
            # on every row still in the stack, so gram is not copied; rows closed above keep their bounds
            ritz_lower, theta = _ritz_bounds(mats, scale, idx, gram)
            lower = np.where(done, lower, np.fmax(lower, ritz_lower))  # fmax: a NaN quotient is no bound
            upper = np.where(done, upper, np.exp(0.5 * (log_top + np.log1p(-theta) / 2.0**k)))
            done = upper - lower <= _NORM_RTOL * lower
        out[idx[done]] = scale[idx[done]] * lower[done]
        if offsets is not None:  # the query: what each bracket can still return, in the input's units
            lo = _pow2_unscaled(scale[idx] * lower * np.where(done, 1.0, 1.0 - _QUERY_RTOL), exps[idx])
            hi = _pow2_unscaled(scale[idx] * upper * (1.0 + _QUERY_RTOL), exps[idx])
            best = np.max(lo - offsets[idx], initial=best)
            drop = ~done & (hi - offsets[idx] < best) & ~(hi > offsets[idx] + threshold)
            out[idx[drop]] = np.nan
            done |= drop
        if done.all():
            return _pow2_unscaled(out, exps), best
        if done.any():  # compacting copies the open stack, so only where a bracket closed
            vecs[idx[done]] = 0.0
            keep = ~done
            idx, gram, log_top = idx[keep], gram[keep], log_top[keep]
            if opened is not None or 2 * idx.size <= s:
                opened = mats[idx] if opened is None else opened[keep]
    lower, upper = lower[~done], upper[~done]
    widths = (upper - lower) / lower
    worst = int(np.argmax(widths))
    i = int(idx[worst])
    lo, hi = _pow2_unscaled(scale[i] * np.array([lower[worst], upper[worst]]), exps[i])
    records.append((idx.size, widths[worst], start + i, float(lo), float(hi)))
    out[idx] = np.nan
    return _pow2_unscaled(out, exps), best


def _ritz_bounds(
    mats: np.ndarray, scale: np.ndarray, idx: np.ndarray, gram: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(lower, theta)`` of the two-vector Ritz step of
    :func:`_batched_spectral_norms` for the matrices ``mats[idx]`` of the
    input stack, given the Frobenius norms of the whole stack and the
    trace-1 Gram powers H of the rows of ``idx``.

    ``lower`` is ||Aw|| / (|A| ||w||) for the top Ritz vector w of A*A on
    span(Q), NaN where w is 0; ``theta`` is the smaller Ritz value of H
    on span(Q) less the margin 64 d eps, clipped to [0, 1/2], and 0
    where the second Gram-Schmidt pass leaves a residual below 1/2.
    Every product is a stack of mat-vecs, far cheaper in numpy than a
    stack of (d, 2) products.
    """
    n, d, _ = gram.shape

    def norms(x):
        return np.sqrt(np.vecdot(x, x).real)

    top2 = np.argpartition(-np.diagonal(gram, axis1=1, axis2=2).real, 1, axis=1)[:, :2]
    q = gram[np.arange(n), :, top2.T]  # (2, n, d): the two largest-diagonal columns
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero residual gives NaN, rejected below
        _div_real(q[0], norms(q[0])[:, None])
        for _ in range(2):
            q[1] -= q[0] * np.vecdot(q[0], q[1])[:, None]
            residual = norms(q[1])
            _div_real(q[1], residual[:, None])
        hq = np.matmul(gram, q[..., None])[..., 0]
        # A Q / |A|; the copy of mats[idx] is the size of the gram stack,
        # so this step holds about as much memory as a squaring
        aq = _div_real(np.matmul(mats[idx], q[..., None])[..., 0], scale[idx, None])
        # the 2x2 compressions of H and of A*A onto span(Q), solved together
        u, v = np.concatenate([q, aq], axis=1), np.concatenate([hq, aq], axis=1)
        theta, y = _hermitian_2x2(np.vecdot(u[0], v[0]).real, np.vecdot(u[1], v[1]).real, np.vecdot(u[0], v[1]))
        theta = np.where(residual >= 0.5, np.clip(theta[:n] - 64 * d * np.finfo(float).eps, 0.0, 0.5), 0.0)
        y1, y2 = y[n:, :1], y[n:, 1:]
        lower = norms(aq[0] * y1 + aq[1] * y2) / norms(q[0] * y1 + q[1] * y2)
    return lower, theta


def _hermitian_2x2(a: np.ndarray, c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(smaller eigenvalue, top eigenvector)`` of each Hermitian
    [[a, b], [b*, c]] (a and c real): mean - hypot(half gap, |b|), which
    takes no square root of a difference, and the null vector of the row
    of M - theta_1 I that avoids cancellation, scaled by a power of two
    so no entry under- or overflows; 0 for a multiple of I."""
    half_gap = 0.5 * (a - c)
    radius = np.hypot(half_gap, np.abs(b))
    vec = np.where(
        (half_gap >= 0.0)[:, None],
        np.stack([radius + half_gap, b.conj()], axis=1),
        np.stack([b, radius - half_gap], axis=1),
    )
    return 0.5 * (a + c) - radius, _pow2_scaled(vec)[0]


def _power_stack(arr: np.ndarray, n_max: int, logs: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """A^n for n = 1..n_max, handed over a chunk ``(start, powers, exps)``
    at a time, ``powers[i]`` and the int64 ``exps[i]`` for n = start + i + 1:
    the one loop that forms matrix powers, run once by each of
    ``mat_power_seq``, ``ktz_check`` and ``resolvent_neumann``.  A chunk
    holds at most ``_NORM_CHUNK_ENTRIES`` entries and is a new array, so
    no more than the chunk the caller holds and the one being formed are
    alive at once.

    Maintains P_n = A^n 2^-e_n, scaled by :func:`_pow2_scaled` whenever
    its largest real or imaginary part leaves [1e-100, 1e100], as A is
    once before the loop when its own exceeds 1e100.  Every scaling is
    exact, so ``_pow2_unscaled(powers, exps)`` is A^n bit for bit wherever
    A^n and its products stay normal.  The chunks run up to the first zero
    power.  Before a chunk is handed over, its row of ``logs``, an
    (n_max,) float array, gets ln ||P_n|| + e_n ln 2 from one norm kernel
    call, finite where A^n overflows; once the last chunk is handed over,
    ``logs`` is -inf from the first zero power on, and a norm bracket
    left open in any chunk raises ConvergenceError for the whole stack,
    its index n - 1.

    Powers are formed a block at a time and the ranges of a block are
    checked in one reduce.  A block starts at one power and doubles while
    every power stays in range, up to ``_POWER_BLOCK_ENTRIES`` entries and
    the end of its chunk; after a rescale it is as long as the run that
    rescale ended.  From the first power out of range, the rest of its
    block is formed again, so every power, exponent and log is the
    one-at-a-time loop's bit for bit.
    """
    step = 0
    if np.abs(arr.view(np.float64)).max() > _POWER_RESCALE_HI:
        (arr,), (step,) = _pow2_scaled(arr[None])
    rows = max(1, _NORM_CHUNK_ENTRIES // arr.size)
    cap = max(1, _POWER_BLOCK_ENTRIES // arr.size)
    opened, last = [], None
    start, e, block, run, zero = 0, 0, 1, 0, False  # a run starts after each rescale
    while start < n_max and not zero:
        powers = np.empty((min(rows, n_max - start),) + arr.shape, dtype=np.complex128)
        exps = np.zeros(len(powers), dtype=np.int64)
        n = 0  # powers[:n] are final
        # past the first power out of range a block's powers may overflow; they are formed again
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if last is None:
                powers[0] = arr
            else:
                np.matmul(arr, last, out=powers[0])
            while n < len(powers):
                stop = min(n + block, len(powers))
                for m in range(max(n, 1), stop):
                    np.matmul(arr, powers[m - 1], out=powers[m])  # P_(start+m+1) in its row of the chunk
                amax = np.abs(powers[n:stop].view(np.float64)).max(axis=(1, 2))  # of real and imaginary parts
                ok = (amax >= _POWER_RESCALE_LO) & (amax <= _POWER_RESCALE_HI)
                i = int(ok.argmin())
                j = stop if ok[i] else n + i  # the first power out of range
                exps[n:j] = e + step * np.arange(1, j - n + 1) if step else e  # no n_max overflows an int64 exponent
                e += step * (j - n)
                if j == stop:
                    n, block = stop, min(2 * block, cap)
                elif amax[j - n] == 0.0:
                    powers, exps, zero = powers[:j], exps[:j], True
                    break
                else:
                    (powers[j],), (k,) = _pow2_scaled(powers[j : j + 1])
                    e += step + k
                    exps[j] = e
                    # the next block ends where the next rescale falls if it comes as soon again
                    n, block, run = j + 1, min(start + j + 1 - run, cap), start + j + 1
        if len(powers):
            logs[start : start + len(powers)] = np.log(_batched_spectral_norms(powers, opened, start)) + exps * np.log(2.0)
            yield start, powers, exps
            last = powers[-1].copy()
            start += len(powers)
    logs[start:] = -np.inf
    _raise_open(opened, start)


def mat_power_seq(a: CMatrix, n_max: int) -> np.ndarray:
    """ln ||A^n|| for n = 1..n_max as a float64 array; -inf where A^n = 0.
    The powers are rescaled as they grow or decay and normed a chunk at a
    time (:func:`_power_stack`); none is kept."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    logs = np.empty(n_max)
    for _ in _power_stack(a.data, n_max, logs):
        pass
    return logs


def hermitian_defect(u: CMatrix) -> float:
    """|| U^H U - I ||, the distance from having orthonormal columns; inf
    when U^H U leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return operator_norm(u.data.conj().T @ u.data - np.eye(u.dim))


def require_unitary(u: CMatrix) -> None:
    """Raise PreconditionError unless U is unitary to 1e-10 in the defect
    ||U^H U - I||.

    The Frobenius norm of U^H U - I bounds its spectral norm, so the
    certified spectral norm is computed only when the Frobenius norm does
    not settle the check.  It settles it at 1e-10 (1 - 2^-40): its
    rounding is at most about d^2 u relative, 4.5e-13 at d = 64, and the
    spectral norm's about 2.5e-13 (see :func:`_batched_spectral_norms`),
    together under 2^-40 = 9.1e-13."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = u.data.conj().T @ u.data - np.eye(u.dim)
        if _plain_norms(defect.reshape(1, -1), 1)[0] <= 1e-10 * (1.0 - 2.0**-40):
            return
        norm = operator_norm(defect)
    if norm > 1e-10:
        raise PreconditionError(f"matrix is not unitary: ||U^H U - I|| = {norm:.3e} > 1.0e-10")
