"""Shared builders and oracles for the test suite.

Tests are free to lean on numpy.linalg (eig/svd/inv) as an independent
oracle; the library itself never does.
"""

import cmath
import dataclasses
import json
import math

import numpy as np

from seqspectrum import linalg, sequences
from seqspectrum.eigen import _circular_runs
from seqspectrum.errors import ConvergenceError, SingularMatrixError
from seqspectrum.linalg import PIVOT_RTOL, CMatrix, CVector, _hermitian_2x2, _pow2_scaled, _pow2_unscaled
from seqspectrum.sequences import BoundedSeq, _unit_vector, unimodular_powers
from seqspectrum.serialize import matrix_to_json, sequence_to_json, vector_to_json


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text):
    """``json.loads`` that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def loop_solve(a, rhs):
    """Reference for ``linalg._solve_array``: the one-matrix row-pivoted
    elimination it replaced, raising SingularMatrixError on a zero matrix
    or a pivot at most ``PIVOT_RTOL`` times the largest entry."""
    d = a.shape[0]
    m = a.astype(np.complex128, copy=True)
    x = rhs.astype(np.complex128, copy=True)
    amax = float(np.max(np.abs(m))) if m.size else 0.0
    if amax == 0.0:
        raise SingularMatrixError("matrix is identically zero")
    threshold = PIVOT_RTOL * amax
    for col in range(d):
        p = int(np.argmax(np.abs(m[col:, col]))) + col
        if abs(m[p, col]) <= threshold:
            raise SingularMatrixError(f"pivot {abs(m[p, col]):.3e} below threshold {threshold:.3e} at column {col}")
        if p != col:
            m[[col, p]] = m[[p, col]]
            x[[col, p]] = x[[p, col]]
        factors = m[col + 1 :, col] / m[col, col]
        m[col + 1 :, col:] -= np.outer(factors, m[col, col:])
        x[col + 1 :] -= np.outer(factors, x[col])
    for col in range(d - 1, -1, -1):
        x[col] = (x[col] - m[col, col + 1 :] @ x[col + 1 :]) / m[col, col]
    return x


def loop_cluster_argmax(idx, k, fine_norms):
    """Reference for ``sequences._cluster_argmax``: the per-cluster loop it
    replaced, over the runs of ``eigen._circular_runs`` (gap 1 on K points),
    taking ``np.argmax`` over each run's fine bins
    floor((start - 1) r) .. ceil((end + 1) r) modulo n_fine, r = n_fine / K."""
    n_fine = fine_norms.shape[0]
    ratio = n_fine / k
    j_stars = []
    for cluster in _circular_runs(idx, 1, k):
        j_lo = int(math.floor((cluster[0] - 1) * ratio))
        j_hi = int(math.ceil((cluster[-1] + 1) * ratio))
        js = np.arange(j_lo, j_hi + 1) % n_fine
        j_stars.append(js[np.argmax(fine_norms[js])])
    return np.array(j_stars, dtype=np.int64)


def reference_spectrum_scan(x, grid_size, epsilon):
    """Reference for ``sequences.spectrum_scan``: (theta, peak_mean_norm)
    of each detection, and the count of refinement evaluations, of the
    scan before it stopped its Newton steps at a 2-cycle and normed only
    the fine bins it reads.  Every bin of one (d, n_fine) transform is
    normed, and the steps run until every move is at most 2^-40 / n, or
    16 times."""
    k = grid_size
    n_grid = min(x.horizon, k)
    (window,), (exp,) = _pow2_scaled(x.values.T[None])
    scaled_eps = _pow2_unscaled(np.float64(epsilon), -exp)
    grid_norms = linalg._plain_norms(linalg._div_real(np.fft.fft(window[:, :n_grid], n=k, axis=1), n_grid), 0)
    idx = np.flatnonzero(grid_norms > scaled_eps)
    if not idx.size:
        return [], 0
    n_fine = sequences._fine_size(x.horizon, k)
    fine_norms = grid_norms
    if n_fine != k:
        fine_norms = linalg._plain_norms(linalg._div_real(np.fft.fft(window, n=n_fine, axis=1), x.horizon), 0)
    fine_step = 2.0 * math.pi / n_fine
    phis = fine_step * loop_cluster_argmax(idx, k, fine_norms)
    lo, hi = phis - fine_step, phis + fine_step
    layout = sequences._split_layout(window.T, x.horizon)
    a, d, b = layout.shape
    ks = np.arange(a * b, dtype=np.float64).reshape(a, 1, b)
    cols = np.concatenate([layout, layout * ks, layout * (ks * ks)], axis=1)
    for evals in range(1, 17):
        thetas = sequences._unit_thetas(phis)
        sums = sequences._split_means(cols, thetas, x.horizon)
        m, m1, m2 = sums[:, :d], -1j * sums[:, d : 2 * d], -sums[:, 2 * d :]
        g = (m.conj() * m1).real.sum(axis=1)
        dg = (m1.conj() * m1).real.sum(axis=1) + (m.conj() * m2).real.sum(axis=1)
        lo, hi = np.where(g > 0.0, phis, lo), np.where(g < 0.0, phis, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = phis - g / dg
        step = np.where((dg < 0.0) & (lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi)) - phis
        if np.abs(step).max() <= 2.0**-40 / x.horizon:
            break
        phis = phis + step
    peaks = linalg._row_norms(_pow2_unscaled(m, exp))
    candidates = [(t, p) for t, p in zip(thetas.tolist(), peaks.tolist()) if p > epsilon]
    candidates.sort(key=lambda c: (-c[1], cmath.phase(c[0]) % (2.0 * math.pi)))
    accepted = []
    for theta, peak in candidates:
        for kept, height in accepted:
            delta = sequences.angular_distance(kept, theta)
            if delta <= 2.0 * math.pi / k or peak <= 2.0 * math.pi * height / (x.horizon * delta):
                break
        else:
            accepted.append((theta, peak))
    accepted.sort(key=lambda c: cmath.phase(c[0]) % (2.0 * math.pi))
    return accepted, evals


def reference_row_norms(arr):
    """Reference for ``linalg._row_norms``: ``np.linalg.norm`` of each row,
    with the rows whose norm overflows or is below 1e-140 recomputed on
    their power-of-two scaled copy, as the kernel did before it summed
    short rows column by column."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(arr, axis=1)
    fix = np.flatnonzero((norms < 1e-140) | np.isinf(norms))
    fix = fix[arr[fix].any(axis=1)]
    if fix.size:
        scaled, exps = _pow2_scaled(arr[fix])
        norms[fix] = _pow2_unscaled(np.linalg.norm(scaled, axis=1), exps)
    return norms


def reference_mode_values(modes, horizon, decay, seed, dim):
    """Reference for the values ``sequences.modes_plus_decay`` builds: one
    broadcast product per mode, and the decay law evaluated at every term
    before its seeded direction scales it; ``modes`` holds (theta, v)
    pairs with theta already of unit modulus."""
    values = np.zeros((horizon, dim), dtype=np.complex128)
    for theta, v in modes:
        values += unimodular_powers(theta, horizon)[:, None] * np.asarray(v, dtype=np.complex128)
    if decay is not None and decay[0] != "none":
        kind, param = decay
        n = np.arange(horizon, dtype=np.float64)
        with np.errstate(under="ignore"):
            if kind == "geometric":
                envelope = param**n
            elif kind == "power":
                envelope = (n + 1.0) ** (-param)
            else:
                envelope = 1.0 / np.log(n + 2.0)
        values += envelope[:, None] * _unit_vector(np.random.default_rng(seed), dim, 1.0)
    return values


def reference_residual(values, thetas, vs, n_used):
    """Reference for the residual ``sequences.extract_modes`` reports:
    values[:n_used] less one broadcast product per mode, in order."""
    residual = values[:n_used].copy()
    for theta, v in zip(thetas, vs):
        residual -= unimodular_powers(theta, n_used)[:, None] * v
    return residual


def reference_spectral_norms(mats):
    """Reference for ``linalg._batched_spectral_norms``: the kernel before
    its per-level cuts, which divided by real numbers with numpy's complex
    quotient, took ``np.trace`` and compacted the open stack at every
    level.  It reads ``_MAX_SQUARINGS``, ``_RITZ_AFTER`` and ``_NORM_RTOL``
    from ``linalg`` at call time, so a test that patches them patches both."""
    mats = np.asarray(mats, dtype=np.complex128)
    s, d, _ = mats.shape
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.linalg.norm(mats.reshape(s, d * d), axis=1)
    out = np.zeros(s)
    exps = np.zeros(s, dtype=int)
    odd = np.flatnonzero(~((scale > 0.0) & (scale < np.inf)))
    odd = odd[[mats[i].any() for i in odd]]
    if odd.size:
        mats = mats.copy()
        mats[odd], exps[odd] = _pow2_scaled(mats[odd])
        bad = odd[~np.isfinite(mats[odd]).all(axis=(1, 2))]
        out[bad], mats[bad] = np.inf, 0.0
        scale[odd] = np.linalg.norm(mats[odd].reshape(odd.size, d * d), axis=1)
    idx = np.flatnonzero(scale > 0.0)
    rows = idx if 2 * idx.size <= s else slice(None)
    live = mats[rows]
    unit = np.where(scale > 0.0, scale, 1.0)[rows, None, None]
    gram = np.conjugate(live)
    gram /= unit
    gram = np.matmul(gram.swapaxes(1, 2), live)
    gram /= unit
    if len(gram) > idx.size:
        gram = gram[idx]
    log_top = np.zeros(idx.size)
    vecs = np.zeros((s, d), dtype=np.complex128)
    for k in range(linalg._MAX_SQUARINGS + 1):
        if k:
            gram = np.matmul(gram, gram)
        trace = np.trace(gram, axis1=1, axis2=2).real
        gram /= trace[:, None, None]
        log_top += np.log(trace) / 2.0**k
        cols = np.argmax(np.diagonal(gram, axis1=1, axis2=2).real, axis=1)
        v = gram[np.arange(idx.size), :, cols]
        vecs[idx] = v
        image = np.matmul(mats, vecs[:, :, None])[idx, :, 0] / scale[idx, None]
        lower = np.linalg.norm(image, axis=1) / np.linalg.norm(v, axis=1)
        upper = np.exp(0.5 * log_top)
        done = upper - lower <= linalg._NORM_RTOL * lower
        if k >= linalg._RITZ_AFTER and not done.all():
            ritz_lower, theta = _reference_ritz_bounds(mats, scale, idx, gram)
            lower = np.where(done, lower, np.fmax(lower, ritz_lower))
            upper = np.where(done, upper, np.exp(0.5 * (log_top + np.log1p(-theta) / 2.0**k)))
            done = upper - lower <= linalg._NORM_RTOL * lower
        out[idx[done]] = scale[idx[done]] * lower[done]
        if done.all():
            return _pow2_unscaled(out, exps)
        vecs[idx[done]] = 0.0
        keep = ~done
        idx, gram, log_top = idx[keep], gram[keep], log_top[keep]
    lower, upper = lower[keep], upper[keep]
    worst = int(np.argmax((upper - lower) / lower))
    i = int(idx[worst])
    lo, hi = _pow2_unscaled(scale[i] * np.array([lower[worst], upper[worst]]), exps[i])
    raise ConvergenceError(
        f"spectral norm bracket open after {linalg._MAX_SQUARINGS} squarings for "
        f"{idx.size} of {s} matrices",
        {"index": i, "lower": float(lo), "upper": float(hi)},
    )


def _reference_ritz_bounds(mats, scale, idx, gram):
    """The two-vector Ritz step of :func:`reference_spectral_norms`."""
    n, d, _ = gram.shape

    def norms(x):
        return np.sqrt(np.vecdot(x, x).real)

    top2 = np.argpartition(-np.diagonal(gram, axis1=1, axis2=2).real, 1, axis=1)[:, :2]
    q = gram[np.arange(n), :, top2.T]
    with np.errstate(divide="ignore", invalid="ignore"):
        q[0] /= norms(q[0])[:, None]
        for _ in range(2):
            q[1] -= q[0] * np.vecdot(q[0], q[1])[:, None]
            residual = norms(q[1])
            q[1] /= residual[:, None]
        hq = np.matmul(gram, q[..., None])[..., 0]
        aq = np.matmul(mats[idx], q[..., None])[..., 0] / scale[idx, None]
        u, v = np.concatenate([q, aq], axis=1), np.concatenate([hq, aq], axis=1)
        theta, y = _hermitian_2x2(np.vecdot(u[0], v[0]).real, np.vecdot(u[1], v[1]).real, np.vecdot(u[0], v[1]))
        theta = np.where(residual >= 0.5, np.clip(theta[:n] - 64 * d * np.finfo(float).eps, 0.0, 0.5), 0.0)
        y1, y2 = y[n:, :1], y[n:, 1:]
        lower = norms(aq[0] * y1 + aq[1] * y2) / norms(q[0] * y1 + q[1] * y2)
    return lower, theta


def joined_power_stack(arr, n_max):
    """``(logs, powers, exps)`` of ``linalg._power_stack``'s chunks joined,
    after checking that each chunk starts where the one before it ended
    and holds at most ``_NORM_CHUNK_ENTRIES`` entries."""
    logs, chunks = np.empty(n_max), []
    for start, powers, exps in linalg._power_stack(arr, n_max, logs):
        assert start == sum(len(p) for p, _ in chunks) and 0 < powers.size <= max(arr.size, linalg._NORM_CHUNK_ENTRIES)
        chunks.append((powers, exps))
    empty = (np.empty((0,) + arr.shape, dtype=np.complex128), np.zeros(0, dtype=np.int64))
    powers, exps = (np.concatenate(parts) for parts in zip(empty, *chunks))
    return logs, powers, exps


def reference_power_stack(arr, n_max):
    """Reference for ``linalg._power_stack``: the loop before block range
    checks, which formed one power at a time and checked its range before
    forming the next, and kept the whole stack, normed in one
    :func:`reference_spectral_norms` call."""
    powers = np.empty((n_max,) + arr.shape, dtype=np.complex128)
    exps = np.zeros(n_max, dtype=np.int64)
    step = 0
    if np.abs(arr.view(np.float64)).max() > linalg._POWER_RESCALE_HI:
        (arr,), (step,) = _pow2_scaled(arr[None])
    p, e = powers[0], np.int64(0)
    p[...] = arr
    for n in range(n_max):
        if n:
            p = np.matmul(arr, p, out=powers[n])
        e += step
        amax = np.abs(p.view(np.float64)).max()
        if amax == 0.0:
            powers, exps = powers[:n].copy(), exps[:n]
            break
        if not linalg._POWER_RESCALE_LO <= amax <= linalg._POWER_RESCALE_HI:
            (p[...],), (k,) = _pow2_scaled(p[None])
            e += k
        exps[n] = e
    logs = np.full(n_max, -np.inf)
    logs[: len(powers)] = np.log(reference_spectral_norms(powers)) + exps * np.log(2.0)
    return logs, powers, exps


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    # normalize the phases of R's diagonal so the factor is unique (Haar)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitary_with_phases(rng, phases):
    """Random unitary with the prescribed eigenvalue angles."""
    phases = np.asarray(phases, dtype=float)
    v = random_unitary(rng, len(phases))
    return v @ np.diag(np.exp(1j * phases)) @ v.conj().T


def diagonalizable(rng, eigs, cond=4.0):
    """A = V diag(eigs) V^-1 with cond(V) <= cond, plus V itself."""
    d = len(eigs)
    u = random_unitary(rng, d)
    w = random_unitary(rng, d)
    half = np.sqrt(cond)
    s = np.exp(rng.uniform(-np.log(half), np.log(half), d))
    v = u @ np.diag(s) @ w
    return v @ np.diag(np.asarray(eigs, dtype=complex)) @ np.linalg.inv(v), v


def disk_matrix(rng, d):
    """Matrix with entries drawn uniformly from the closed unit disk."""
    r = np.sqrt(rng.uniform(0.0, 1.0, (d, d)))
    ang = rng.uniform(0.0, 2.0 * np.pi, (d, d))
    return r * np.exp(1j * ang)


def spaced_phases(rng, d, jitter=0.1):
    """d angles with pairwise separation comfortably above 2 * jitter."""
    base = rng.uniform(0.0, 2.0 * np.pi)
    return (base + np.arange(d) * (2.0 * np.pi / d) + rng.uniform(-jitter, jitter, d)) % (
        2.0 * np.pi
    )


def multiset_distance(a, b):
    """Greedy matching distance between two same-length complex multisets."""
    a = list(a)
    b = list(b)
    assert len(a) == len(b)
    worst = 0.0
    for z in a:
        j = min(range(len(b)), key=lambda i: abs(b[i] - z))
        worst = max(worst, abs(b[j] - z))
        b.pop(j)
    return worst


def check_eigenvalues(a, eigs, normal=False):
    """Oracle for the eigenvalue kernel: d finite eigenvalues, each with
    sigma_min(A - lambda I) at most 4 d eps ||A||_F, a backward error
    within twice the kernel's stop rule, the rest left to numpy's own SVD
    rounding; for a normal A also within 1e-12 (1 + ||A||_2) of
    ``numpy.linalg.eigvals`` as a multiset."""
    a = np.asarray(a, dtype=np.complex128)
    eigs = np.asarray(eigs, dtype=np.complex128)
    d = a.shape[0]
    assert eigs.shape == (d,) and np.isfinite(eigs).all()
    shifted = a[None] - eigs[:, None, None] * np.eye(d)
    smallest = np.linalg.svd(shifted, compute_uv=False)[:, -1]
    assert smallest.max() <= 4.0 * d * np.finfo(float).eps * np.linalg.norm(a)
    if normal:
        assert multiset_distance(eigs, np.linalg.eigvals(a)) <= 1e-12 * (1.0 + np.linalg.norm(a, 2))


def naive_rotated_mean(values, theta, n_used):
    """Direct-summation oracle for rotated_mean."""
    vals = np.asarray(values, dtype=complex)[:n_used]
    weights = np.asarray(theta, dtype=complex) ** (-np.arange(n_used))
    if vals.ndim == 1:
        return np.sum(weights * vals) / n_used
    return weights @ vals / n_used


def scalar_unimodular_powers(theta, count):
    """Scalar-loop reference for unimodular_powers: one running value,
    renormalized to unit modulus every 1024 steps."""
    theta = complex(theta)
    out = np.empty(count, dtype=np.complex128)
    current = 1.0 + 0.0j
    for start in range(0, count, 1024):
        m = min(1024, count - start)
        seg = np.cumprod(np.full(m, theta, dtype=np.complex128))
        out[start] = current
        out[start + 1 : start + m] = current * seg[: m - 1]
        current = current * seg[m - 1]
        current /= abs(current)
    return out


def jsonable_oracle(obj):
    """Reference for ``dumps_report``: the recursive pre-walk it replaced,
    turning every package object and array into plain JSON data."""
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.complexfloating):
        return jsonable_oracle(complex(obj))
    if isinstance(obj, CVector):
        return jsonable_oracle(vector_to_json(obj))
    if isinstance(obj, CMatrix):
        return jsonable_oracle(matrix_to_json(obj))
    if isinstance(obj, BoundedSeq):
        return jsonable_oracle(sequence_to_json(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable_oracle(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [jsonable_oracle(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [jsonable_oracle(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable_oracle(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def companion_embedding(system):
    """Rewrite x_{n+p} = B x_n + y_n as a one-step system of dimension p*d.

    State z_n = (x_n, ..., x_{n+p-1}).  Used only as a cross-check for the
    direct delay simulator.
    """
    b = np.asarray(system.b.data)
    d = b.shape[0]
    p = system.p
    big = np.zeros((p * d, p * d), dtype=np.complex128)
    for j in range(p - 1):
        big[j * d : (j + 1) * d, (j + 1) * d : (j + 2) * d] = np.eye(d)
    big[(p - 1) * d :, :d] = b
    z0 = np.concatenate([np.asarray(v.data) for v in system.initial])
    return CMatrix(big), CVector(z0)


def lift_forcing_table(system, horizon):
    """Forcing values for the companion embedding: y lands in the last block."""
    d = system.b.dim
    y = system.forcing.materialize(horizon, d)
    lifted = np.zeros((horizon, system.p * d), dtype=np.complex128)
    lifted[:, (system.p - 1) * d :] = y
    return lifted
