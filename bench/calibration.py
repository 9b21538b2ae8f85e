"""Host-speed calibration: a fixed reference kernel timed between ops.

The shared host this benchmark was built on changes speed by up to 1.7x
over a second or two, and the program's ops slow with it: the wall time
of one input moved between 0.85 and 1.29 of its median as the host
changed state.  So each op's wall time is divided by the mean time of
the kernel runs just before and after it and multiplied by the kernel's
fixed reference time, giving *reference seconds*: the time the op would
take with the host at the speed where the kernel takes its reference
time.  A slower program reads slower in reference seconds exactly as in
wall seconds; a slower host does not.

Host slow-downs do not hit all code alike, so one shared kernel
over-corrected some workloads and under-corrected others.  A mixed kernel
(a Python loop, small solves, JSON, vector arithmetic) tracks the
corpus scans and interpreter start-up well.  Short probes slowed more
than it did, so their kernel runs golden-section searches over short
sums like theirs; operator diagnostics get elimination, batched power
iteration and root finding.  A JSON round trip alone slowed more than the
trajectory round trips, the mixed kernel less, so theirs runs both.  All
kernels are the benchmark's own code: no change to seqspectrum can
change them.
"""

import json
import math
import time

import numpy as np

_rng = np.random.default_rng(1003_5091)


def _cplx(*shape) -> np.ndarray:
    return _rng.standard_normal(shape) + 1j * _rng.standard_normal(shape)


_LONG = _cplx(16384, 2)
_SHORT = _cplx(64, 3)
_B3 = 0.5 * _cplx(3, 3)
_B4 = 0.5 * _cplx(4, 4)
_ROWS = [[[float(z.real), float(z.imag)] for z in row] for row in _cplx(1200, 4)]
_MAT = _cplx(16, 16) + 8.0 * np.eye(16)
_STACK = _cplx(48, 16, 16)
_POLY = _cplx(17)
_DOC = {"values": [[float(x), float(y)] for x, y in _rng.standard_normal((200, 2))]}


def _rotated_norm(x: np.ndarray, phi: float) -> float:
    """|(1/n) sum_k e^{-i k phi} x_k|, the sum a spectrum scan evaluates."""
    n = x.shape[0]
    w = np.exp(-1j * phi * np.arange(n))
    return float(np.linalg.norm((w[:, None] * x).sum(axis=0) / n))


def _recursion(b: np.ndarray, steps: int) -> np.ndarray:
    x = np.ones(b.shape[0], dtype=np.complex128)
    for _ in range(steps):
        x = b @ x + 0.1
    return x


def _eliminate(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row-pivoted Gaussian elimination, one numpy call per row operation."""
    m, x = a.copy(), rhs.copy()
    d = m.shape[0]
    for c in range(d):
        p = int(np.argmax(np.abs(m[c:, c]))) + c
        m[[c, p]], x[[c, p]] = m[[p, c]], x[[p, c]]
        f = m[c + 1:, c] / m[c, c]
        m[c + 1:, c:] -= np.outer(f, m[c, c:])
        x[c + 1:] -= np.outer(f, x[c])
    for c in range(d - 1, -1, -1):
        x[c] = (x[c] - m[c, c + 1:] @ x[c + 1:]) / m[c, c]
    return x


def _short_probe() -> float:
    # Golden-section search over short sums and a short recursion: a
    # probe's many small scans and its simulation.
    a, b = 0.0, 2.0 * math.pi
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        c, d = b - g * (b - a), a + g * (b - a)
        if _rotated_norm(_SHORT, c) > _rotated_norm(_SHORT, d):
            b = d
        else:
            a = c
    return a + float(np.abs(_recursion(_B3, 120)).sum())


def _trajectory_roundtrip() -> float:
    # JSON emit and parse of [re, im] rows, and a step-by-step recursion.
    rows = json.loads(json.dumps({"values": _ROWS}))["values"]
    return len(rows) + float(np.abs(_recursion(_B4, 300)).sum()) + _mixed()


def _operator_diag() -> float:
    # Elimination, batched power iteration on Gram matrices, polynomial roots.
    acc = float(np.abs(_eliminate(_MAT, np.eye(16, dtype=np.complex128))).max())
    gram = np.einsum("sij,sik->sjk", _STACK.conj(), _STACK)
    v = np.ones((_STACK.shape[0], 16), dtype=np.complex128)
    for _ in range(30):
        v = np.einsum("sjk,sk->sj", gram, v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return acc + float(np.abs(v).sum()) + float(np.abs(np.roots(_POLY)).max())


def _mixed() -> float:
    acc = 0.0
    for k in range(70):
        acc += float(np.abs(np.linalg.solve(_MAT + k * np.eye(16), _MAT[:, :4])).max())
    for i in range(18000):
        acc += (i % 7) * 0.5
    acc += len(json.loads(json.dumps(_DOC))["values"])
    return acc + _rotated_norm(_LONG, 0.5)


#: name -> (kernel, reference seconds).  A reference time is about the
#: kernel's median on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, one
#: OpenBLAS thread) in its fastest spells.
KERNELS = {
    "corpus-scan": (_mixed, 0.0042),
    "short-probe": (_short_probe, 0.0015),
    "trajectory-roundtrip": (_trajectory_roundtrip, 0.0147),
    "operator-diag": (_operator_diag, 0.0024),
    "setup": (_mixed, 0.0042),
}


class Calibration:
    """One kernel and its reference time."""

    def __init__(self, name: str):
        self.kernel, self.reference_s = KERNELS[name]

    def timed(self) -> float:
        """Wall seconds of one kernel run."""
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def scale(self, before: float, after: float) -> float:
        """Factor from wall seconds to reference seconds for work timed between two kernel runs."""
        return self.reference_s / (0.5 * (before + after))
