"""Shared builders and oracles for the test suite.

Tests are free to lean on numpy.linalg (eig/svd/inv) as an independent
oracle; the library itself never does.
"""

import dataclasses

import numpy as np

from seqspectrum.linalg import CMatrix, CVector
from seqspectrum.sequences import BoundedSeq
from seqspectrum.serialize import matrix_to_json, sequence_to_json, vector_to_json


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
    if isinstance(obj, (np.floating, np.integer)):
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
