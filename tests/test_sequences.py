import cmath
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import helpers
from seqspectrum import eigen, linalg, resolvent, sequences
from seqspectrum.corpus import generate_corpus
from seqspectrum.dynamics import DelaySystem, ForcingSpec, delay_limit_probe, simulate_delay
from seqspectrum.errors import ParseError, PreconditionError, UnboundedTrajectoryError
from seqspectrum.sequences import (
    _rotated_means,
    BoundedSeq,
    angular_distance,
    decay_envelope,
    default_epsilon,
    default_tol_vanish,
    difference_tail,
    extract_modes,
    ktz_check,
    modes_plus_decay,
    require_unimodular,
    rotated_mean,
    single_mode_check,
    spectrum_scan,
    tail_norm,
    unimodular_powers,
    vanishing_check,
)
from seqspectrum.linalg import CMatrix, CVector
from seqspectrum.serialize import parse_sequence, sequence_to_json


def test_bounded_seq_validation():
    with pytest.raises(PreconditionError):
        BoundedSeq(np.ones(8))  # too short to say anything about tails
    with pytest.raises(PreconditionError):
        BoundedSeq(np.array([np.inf] + [0.0] * 31))
    x = BoundedSeq(np.ones(16))
    assert x.values.shape == (16, 1)  # scalar sequences get a vector axis
    assert x.dim == 1 and x.horizon == 16
    assert not x.values.flags.writeable


@pytest.mark.parametrize(
    "values, message",
    [
        (np.ones((16, 2, 2)), "sequence values must form a nonempty (N, d) array"),
        (np.ones((16, 0)), "sequence values must form a nonempty (N, d) array"),
        (np.ones((0, 2)), "sequence values must form a nonempty (N, d) array"),
        ([1.0] * 15 + [complex(0.0, np.nan)], "entries must be finite (no NaN/Inf)"),  # one part is enough
    ],
)
def test_bounded_seq_names_each_bad_window(values, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        BoundedSeq(values)


def test_require_unimodular():
    t = require_unimodular(cmath.exp(0.3j))
    assert abs(abs(t) - 1.0) <= 1e-15
    with pytest.raises(PreconditionError):
        require_unimodular(0.5)
    with pytest.raises(PreconditionError):
        require_unimodular(complex(math.nan, 0.0))


def test_angular_distance_wraps():
    assert angular_distance(cmath.exp(0.1j), cmath.exp(-0.1j)) == pytest.approx(0.2)
    assert angular_distance(-1.0, cmath.exp(1j * (math.pi + 0.05))) == pytest.approx(0.05)


def test_unimodular_powers_stay_on_circle():
    theta = cmath.exp(1.234j)
    pw = unimodular_powers(theta, 100000)
    assert np.abs(np.abs(pw) - 1.0).max() <= 1e-12
    # spot-check a few against the closed form
    for n in (0, 1, 999, 99999):
        assert abs(pw[n] - cmath.exp(1.234j * n)) <= 1e-8 * (1 + n * 1e-6)


def test_unimodular_powers_match_scalar_powers():
    # 3000 powers cross the renormalizations at 1024 and 2048
    for theta in (cmath.exp(1j * t) for t in (0.1, 1.234, -2.5, math.pi, 3e-4)):
        want = helpers.scalar_unimodular_powers(theta, 3000)
        assert unimodular_powers(theta, 3000).tobytes() == want.tobytes()


#: (modes, horizon, decay, seed, dim) of two windows whose last Newton move
#: is one ulp back and forth: built like the benchmark's corpus-mixed-1 and
#: corpus-two-1 inputs at seed 7
CYCLING_WINDOWS = {
    "mixed": (
        [
            (complex(0.027789340079331887, 0.9996138017144197), [complex(0.7700435244224512, -0.26375888480172516)]),
            (complex(-0.9344197402103175, 0.3561737625166722), [complex(-0.22973444235746837, -1.2973140150111462)]),
        ],
        16384,
        ("power", 1.0),
        1186112100,
        1,
    ),
    "two": (
        [
            (
                complex(0.3898374672007525, 0.9208836784124813),
                [
                    complex(-0.5396407311701603, 0.37856062729408285),
                    complex(0.033539997693218325, 0.05257580291940479),
                    complex(0.5985657543329993, -0.28256961440874323),
                    complex(-0.6815218272727185, 0.8811894318888329),
                ],
            ),
            (
                complex(-0.17168229381280006, 0.9851523689212626),
                [
                    complex(0.6336420143267725, -0.1569285169866676),
                    complex(-0.9969303422994568, 0.5676813695512684),
                    complex(0.06194294746294736, -0.055293711656127065),
                    complex(0.47938352722153915, 0.5546614648508446),
                ],
            ),
        ],
        16384,
        ("none", None),
        1094767428,
        4,
    ),
}

SINGLE_MODE = [(cmath.exp(0.7j), [1.0, 0.5j])]


@pytest.mark.parametrize(
    "window, calls, reference_calls",
    [
        pytest.param((SINGLE_MODE, 16), 4, 4, id="16-4"),
        pytest.param((SINGLE_MODE, 16384), 5, 5, id="16384-5"),
        pytest.param(CYCLING_WINDOWS["mixed"], 7, 16, id="16384-cycling-mixed"),
        pytest.param(CYCLING_WINDOWS["two"], 8, 16, id="16384-cycling-two"),
    ],
)
def test_scan_search_stops_at_its_resolution(monkeypatch, window, calls, reference_calls):
    # Newton steps until every move is at most 2^-40 / n, which past
    # n = 4096 / |phi| only a move rounding to 0 meets, or until the steps
    # repeat with period 2, where the reference ran to its cap of 16; the
    # last evaluation, whose move is not taken, gives the reported peak
    x = modes_plus_decay(*window)
    want, evals = helpers.reference_spectrum_scan(x, sequences.DEFAULT_GRID_SIZE, default_epsilon(x.sup_norm))
    assert evals == reference_calls
    means = sequences._split_means
    seen = []

    def counted(*args):
        seen.append(args)
        return means(*args)

    monkeypatch.setattr(sequences, "_split_means", counted)
    report = spectrum_scan(x)
    assert _bits((p.theta, p.peak_mean_norm) for p in report.detected) == _bits(want)
    assert len(report.detected) == len(window[0])
    assert len(seen) == calls


def _bits(detections):
    return [(complex(t).real.hex(), complex(t).imag.hex(), float(p).hex()) for t, p in detections]


def test_scan_detections_keep_the_reference_bits():
    # the 2-cycle stop and the gathered fine norms change no bit of a
    # detection: 300 seeded windows and the two cycling ones, against the
    # frozen scan that normed every fine bin and stepped up to 16 times
    rng = np.random.default_rng(29)
    decays = [None, ("none", None), ("geometric", 0.5), ("geometric", 0.9), ("power", 1.0), ("power", 2.5), ("log", None)]
    windows = list(CYCLING_WINDOWS.values())
    for trial in range(300):
        d = int(rng.integers(1, 5))
        horizon = 16384 if trial % 3 == 0 else round(2.0 ** rng.uniform(4.0, 14.0))
        modes = [
            (cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)), rng.uniform(0.5, 2.0) * (rng.standard_normal(d) + 1j * rng.standard_normal(d)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        windows.append((modes, horizon, decays[trial % len(decays)], trial, d))
    cycled = 0
    for i, window in enumerate(windows):
        x = modes_plus_decay(*window)
        grid_size = 64 if i % 5 == 4 else sequences.DEFAULT_GRID_SIZE
        want, evals = helpers.reference_spectrum_scan(x, grid_size, default_epsilon(x.sup_norm))
        got = spectrum_scan(x, grid_size).detected
        assert _bits((p.theta, p.peak_mean_norm) for p in got) == _bits(want), i
        cycled += evals == 16
    assert cycled >= 10


def test_tail_norm_trivial_cases():
    assert tail_norm(BoundedSeq(np.zeros(32))).tail_sup == 0.0
    alt = BoundedSeq((-1.0) ** np.arange(64))
    assert tail_norm(alt).tail_sup == 1.0
    assert tail_norm(alt, 3).tail_sup == 1.0


def test_tail_norm_harmonic_window():
    x = BoundedSeq(1.0 / (np.arange(1024) + 1.0))
    stats = tail_norm(x)
    assert stats.window_start == 512
    assert stats.tail_sup == pytest.approx(1.0 / 513.0, rel=1e-15)
    assert stats.trend_slope < -0.5  # clearly decaying


@pytest.mark.parametrize("entry", [1e-200, 5e-324, 1e-150 - 3e-151j, 1e300])
def test_row_norms_keep_tiny_and_huge_entries(entry):
    x = BoundedSeq(np.full((16, 2), entry))
    true_norm = math.sqrt(2.0) * abs(entry)
    assert x.sup_norm == pytest.approx(true_norm, rel=1e-15, abs=0.0)
    assert tail_norm(x).tail_sup == x.sup_norm
    ones = np.ones((16, 2))
    assert np.array_equal(BoundedSeq(np.vstack([ones, np.full((16, 2), entry)])).norms[:16], BoundedSeq(ones).norms)


def test_tail_norm_window_validation():
    with pytest.raises(PreconditionError):
        tail_norm(BoundedSeq(np.ones(32)), 32)


def test_rotated_mean_telescopes_on_eigen_sequence():
    rng = np.random.default_rng(1)
    theta = cmath.exp(2.1j)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x = BoundedSeq(unimodular_powers(theta, 5000)[:, None] * v)
    for n_used in (16, 100, 4999):
        res = rotated_mean(x, theta, n_used)
        assert np.linalg.norm(res.mean.data - v) <= 1e-12 * np.linalg.norm(v)


def test_rotated_mean_cross_term_bound():
    theta = cmath.exp(0.9j)
    mu = cmath.exp(2.4j)
    v = np.array([1.0 + 0.5j])
    x = BoundedSeq(unimodular_powers(mu, 2048)[:, None] * v)
    for n_used in (64, 512, 2048):
        res = rotated_mean(x, theta, n_used)
        assert res.mean_norm <= 2.0 * np.linalg.norm(v) / (n_used * abs(theta - mu)) + 1e-12


def test_rotated_mean_linearity():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2))
    b = rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2))
    theta = cmath.exp(0.7j)
    lhs = rotated_mean(BoundedSeq(2.0 * a + 3j * b), theta).mean.data
    rhs = 2.0 * rotated_mean(BoundedSeq(a), theta).mean.data + 3j * rotated_mean(
        BoundedSeq(b), theta
    ).mean.data
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


def test_rotated_mean_matches_naive_summation():
    rng = np.random.default_rng(14)
    vals = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
    theta = cmath.exp(-1.9j)
    got = rotated_mean(BoundedSeq(vals), theta).mean.data
    want = helpers.naive_rotated_mean(vals, theta, 1000)
    assert np.linalg.norm(got - want) <= 1e-11 * (1 + np.linalg.norm(want))


def test_rotated_mean_matches_naive_summation_at_every_padding():
    # n_used where the last run of B terms is full (1, 2, 16, 1024), holds
    # one term (3, 17, 1025, 8193) or lacks one (15, 1023)
    rng = np.random.default_rng(15)
    x = BoundedSeq(rng.standard_normal((8193, 2)) + 1j * rng.standard_normal((8193, 2)))
    for theta in (cmath.exp(-1.9j), cmath.exp(0.3j), -1.0):
        for n_used in (1, 2, 3, 15, 16, 17, 1023, 1024, 1025, 8193):
            got = rotated_mean(x, theta, n_used).mean.data
            want = helpers.naive_rotated_mean(x.values, theta, n_used)
            assert np.linalg.norm(got - want) <= 1e-12 * (1 + np.linalg.norm(want)), (theta, n_used)


def test_rotated_mean_constant_plus_alternating():
    n = 10**4
    ks = np.arange(n)
    x = BoundedSeq(2.0 + 3.0 * (-1.0) ** ks + 1.0 / (ks + 1.0))
    res = rotated_mean(x, 1.0)
    assert abs(res.mean.data[0] - 2.0) <= 1.5e-3


def test_default_thresholds_scale():
    assert default_epsilon(10.0) == pytest.approx(0.1)
    assert default_epsilon(0.0) == 1e-6
    assert default_tol_vanish(1.0) == pytest.approx(1e-3)
    assert default_tol_vanish(0.0) == 1e-9


def test_scan_vanishing_sequence_detects_nothing():
    x = BoundedSeq(0.9 ** np.arange(4096))
    assert spectrum_scan(x).detected == ()


def test_scan_two_modes_with_decay():
    n = 16384
    ks = np.arange(n)
    x = BoundedSeq(2.0 + 3.0 * (-1.0) ** ks + 1.0 / (ks + 1.0))
    report = spectrum_scan(x)
    assert len(report.detected) == 2
    by_angle = sorted(report.detected, key=lambda d: abs(cmath.phase(d.theta)))
    assert angular_distance(by_angle[0].theta, 1.0) <= 1e-3
    assert angular_distance(by_angle[1].theta, -1.0) <= 1e-3
    assert by_angle[0].peak_mean_norm == pytest.approx(2.0, abs=1e-2)
    assert by_angle[1].peak_mean_norm == pytest.approx(3.0, abs=1e-2)


def test_scan_single_eigen_sequence_vector_valued():
    v = np.array([0.6, 0.8j])
    x = BoundedSeq(unimodular_powers(1j, 2048)[:, None] * v)
    report = spectrum_scan(x)
    assert len(report.detected) == 1
    assert angular_distance(report.detected[0].theta, 1j) <= 1e-6
    assert report.detected[0].peak_mean_norm == pytest.approx(1.0, abs=1e-6)


def test_scan_finds_mode_between_grid_points():
    # worst case for the grid stage: the mode angle falls exactly halfway
    # between two grid points
    k = 4096
    theta = cmath.exp(2j * math.pi * (1000.5 / k))
    x = BoundedSeq(0.9 * unimodular_powers(theta, 16384))
    report = spectrum_scan(x)
    assert len(report.detected) == 1
    assert angular_distance(report.detected[0].theta, theta) <= 1e-6
    assert report.detected[0].peak_mean_norm == pytest.approx(0.9, abs=1e-6)


def _mode_mixture(seed, horizon=None, d=None):
    """One to four unimodular modes in C^d, d from 1 to 8 unless given, plus
    a 1/n decay, at a horizon of 64, 256, 1024 or 4096 (by seed) unless given."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9)) if d is None else d
    modes = [
        (cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)), rng.standard_normal(d) + 1j * rng.standard_normal(d))
        for _ in range(int(rng.integers(1, 5)))
    ]
    if horizon is None:
        horizon = (64, 256, 1024, 4096)[seed % 4]
    return modes_plus_decay(modes, horizon, decay=("power", 1.0), seed=seed)


def test_scan_detections_clear_threshold():
    n = 8192
    inputs = [BoundedSeq(1.5 * (-1.0) ** np.arange(n) + 0.7)] + [_mode_mixture(seed) for seed in range(100)]
    for x in inputs:
        report = spectrum_scan(x)
        for det in report.detected:
            res = rotated_mean(x, det.theta)
            assert res.mean_norm > report.threshold
            # the scan refines with the evaluator rotated_mean uses
            assert res.mean_norm == det.peak_mean_norm


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 64])
def test_rotated_means_rows_keep_their_bits_in_any_block(d):
    # 37, 1025 and 8193 terms pad the last run, 1 term is a run of one, and
    # 8193 and 16384 terms are longer than numpy's 8192-element buffer
    rng = np.random.default_rng(d)
    for n in (1, 37, 1025, 8192, 8193, 16384):
        vals = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        thetas = np.exp(1j * rng.uniform(-math.pi, math.pi, 5))
        block = _rotated_means(vals, thetas, n)
        for i in range(thetas.shape[0]):
            assert _rotated_means(vals, thetas[i : i + 1], n).tobytes() == block[i : i + 1].tobytes(), (n, i)


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
def test_scan_is_scale_invariant(k):
    x = modes_plus_decay(
        [(cmath.exp(0.7j), [1.0, -0.5j]), (cmath.exp(-2.0j), [0.25, 0.5]), (-1.0, [0.0, 0.75j])],
        2048,
        decay=("power", 1.5),
        seed=4,
    )
    want = spectrum_scan(x, epsilon=0.05)
    got = spectrum_scan(BoundedSeq(np.ldexp(x.values.real, k) + 1j * np.ldexp(x.values.imag, k)), epsilon=math.ldexp(0.05, k))
    assert len(want.detected) == 3
    assert [d.theta for d in got.detected] == [d.theta for d in want.detected]
    assert [d.peak_mean_norm for d in got.detected] == [math.ldexp(d.peak_mean_norm, k) for d in want.detected]


def test_reports_do_not_depend_on_the_blas_thread_count():
    # past about 10,000 terms OpenBLAS splits one dot over its threads
    probe = (
        "import hashlib, sys\n"
        "from seqspectrum.corpus import generate_corpus\n"
        "from seqspectrum.sequences import extract_modes, spectrum_scan, tail_norm\n"
        "from seqspectrum.serialize import dumps_report\n"
        "for m in generate_corpus(7, 65536):\n"
        "    if m.member_id in sys.argv[1:]:\n"
        "        for r in (spectrum_scan(m.seq), extract_modes(m.seq, m.thetas), tail_norm(m.seq)):\n"
        "            print(m.member_id, hashlib.sha256(dumps_report(r).encode()).hexdigest())\n"
    )
    members = ["vanishing-6", "two-mode-0", "two-mode-1", "mode-plus-decay-3"]
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *members],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 3 * len(members)
    assert outputs[0] == outputs[1]


def _pinned_scan_inputs():
    """(system, trajectory) per PINNED_DETECTIONS entry; system is None for a
    sequence scanned on its own rather than through delay_limit_probe."""
    counterexample = DelaySystem(
        CMatrix(np.eye(1)), 2, [CVector([1.0]), CVector([-1.0])], ForcingSpec("zero")
    )
    # one unit-circle eigenvalue, three inside the disk
    b = CMatrix([
        [cmath.exp(0.9j), 0.3, 0.0, 0.0],
        [0.0, 0.9 * cmath.exp(2.2j), 0.2, 0.0],
        [0.0, 0.0, 0.7, 0.1],
        [0.0, 0.0, 0.0, -0.5j],
    ])
    initial = [CVector([1.0, 0.5j, -0.25, 2.0]), CVector([0.0, 1.0, 1.0j, -1.0]), CVector([0.5, 0.0, 0.0, 1.0])]
    interior = DelaySystem(b, 3, initial, ForcingSpec("geometric", 0.8, seed=3))
    member = next(m for m in generate_corpus(seed=7, horizon=4096) if m.member_id == "two-mode-0")
    return {
        "delay-counterexample-37": (counterexample, simulate_delay(counterexample, 37)[0]),
        "delay-counterexample-100": (counterexample, simulate_delay(counterexample, 100)[0]),
        "delay-d4-p3-interior-128": (interior, simulate_delay(interior, 128)[0]),
        "corpus-seed7-4096-two-mode-0": (None, member.seq),
    }


def _longdouble_peak(values, phi):
    """The maximiser of |m(phi)|, m(phi) = (1/n) sum_k e^(-ik phi) x_k, next
    to phi, and its height: Newton on g = Re<m, m'> = (1/2) d|m|^2/dphi,
    every sum in np.longdouble."""
    x = values.astype(np.clongdouble)
    k = np.arange(x.shape[0], dtype=np.longdouble)
    phi = np.longdouble(phi)
    for _ in range(30):
        w = np.exp(-1j * (k * phi)) / x.shape[0]
        m, m1, m2 = w @ x, (-1j * k * w) @ x, (-(k * k) * w) @ x
        g = np.sum(np.conj(m) * m1).real
        dg = np.sum(np.conj(m1) * m1).real + np.sum(np.conj(m) * m2).real
        assert dg < 0.0  # a maximum, not a minimum
        phi -= g / dg
        if abs(g / dg) <= 1e-17:
            return phi, np.sqrt(np.sum(np.conj(m) * m).real)
    raise AssertionError("Newton did not converge")


# float.hex of (theta.real, theta.imag, peak_mean_norm) per detection
PINNED_DETECTIONS = {
    "delay-counterexample-37": [
        ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53", "0x1.0000000000000p+0"),
    ],
    "delay-counterexample-100": [
        ("-0x1.0000000000000p+0", "0x1.1a62633145c07p-53", "0x1.0000000000000p+0"),
    ],
    "delay-d4-p3-interior-128": [
        ("0x1.e93a968929910p-1", "0x1.2dfcd15b64c6ep-2", "0x1.24f8ac182c89dp-1"),
        ("-0x1.1fb3ed2906470p-6", "0x1.ffebca4b20a64p-1", "0x1.8587076009ee2p-6"),
        ("-0x1.779d744962938p-1", "0x1.5beed5157e8a1p-1", "0x1.182ee9a787f0fp-2"),
        ("-0x1.c5489b495bb2ap-3", "-0x1.f34d4858732aep-1", "0x1.eb2b7e08a3aa3p-3"),
        ("0x1.a76ec191bb24cp-3", "-0x1.f4efea7a8b4e9p-1", "0x1.6326f7d41c596p-3"),
    ],
    "corpus-seed7-4096-two-mode-0": [
        ("0x1.0c647a4a962d7p-4", "0x1.fee64ffb8b5d5p-1", "0x1.4a70ed0537d12p-1"),
        ("-0x1.efc7b2409b551p-1", "0x1.ff686d1e84659p-3", "0x1.81fea2211ca6cp+0"),
    ],
}


def test_scan_detections_keep_pinned_bytes():
    for name, (system, seq) in _pinned_scan_inputs().items():
        detected = spectrum_scan(seq).detected if system is None else delay_limit_probe(system, seq).scan_detected
        got = [(d.theta.real.hex(), d.theta.imag.hex(), d.peak_mean_norm.hex()) for d in detected]
        assert got == PINNED_DETECTIONS[name], name


#: corpus members at the benchmark's scan horizon, beyond the mixtures' 4096
CORPUS_16384 = [f"{kind}-{i}" for kind in ("single-mode", "two-mode", "mode-plus-decay") for i in (0, 1)]

#: (horizon, grid size) pairs around the one-transform rule 2 next_pow2(n) <= K
SHORT_WINDOWS = [(n, k) for n in (16, 37, 100, 1000, 2047, 2048, 2049) for k in (64, 100, 3000)]


@pytest.mark.parametrize(
    "source",
    [
        *sorted(PINNED_DETECTIONS),
        *(f"mixture-{seed}" for seed in range(16)),
        *(f"corpus-11-16384-{m}" for m in CORPUS_16384),
        *(f"short-{n}-{k}" for n, k in SHORT_WINDOWS),
    ],
)
def test_scan_detections_match_a_longdouble_maximiser(source):
    grid_size = sequences.DEFAULT_GRID_SIZE
    if source in PINNED_DETECTIONS:
        x = _pinned_scan_inputs()[source][1]
    elif source.startswith("corpus-11-16384-"):
        member_id = source.removeprefix("corpus-11-16384-")
        x = next(m.seq for m in generate_corpus(11, 16384) if m.member_id == member_id)
    elif source.startswith("short-"):
        horizon, grid_size = map(int, source.split("-")[1:])
        x = _mode_mixture(horizon + grid_size, horizon)
    else:
        x = _mode_mixture(int(source.removeprefix("mixture-")))
    report = spectrum_scan(x, grid_size)
    assert report.detected
    for det in report.detected:
        phi, peak = _longdouble_peak(x.values, cmath.phase(det.theta))
        assert abs(det.peak_mean_norm - peak) <= 1e-13 * peak
        assert angular_distance(det.theta, cmath.exp(1j * float(phi))) <= 1e-12


@pytest.mark.parametrize("horizon, grid_size", [*SHORT_WINDOWS, (16, 4096), (2048, 4096), (2049, 4096), (16384, 4096)])
def test_short_windows_take_one_transform(monkeypatch, horizon, grid_size):
    # the grid transform is the fine one when 2 next_pow2(n) <= K
    fft = np.fft.fft
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["n"])
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    report = spectrum_scan(modes_plus_decay([(cmath.exp(0.7j), [1.0, 0.5j])], horizon), grid_size)
    assert len(report.detected) == 1
    one = 2 * 2 ** math.ceil(math.log2(horizon)) <= grid_size
    # a longer window's fine transform is taken one row at a time, here two
    assert calls == ([grid_size] if one else [grid_size] + [sequences._fine_size(horizon, grid_size)] * 2)
    assert sequences._fine_size(horizon, grid_size) >= 2 * horizon  # one fine bin is at most pi / n


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 13, 64])
def test_fine_rows_and_gathered_norms_keep_the_batched_bits(d):
    # the scan transforms the window one row at a time and norms only the
    # bins it gathers: each row's transform is that row of the (d, n_fine)
    # one, and the quotient and the row-by-row sum of squares are the
    # full array's at the gathered bins, repeats included
    rng = np.random.default_rng(d)
    for horizon in (100, 2049, 5000, 16384, 32768) if d <= 8 else (100, 5000):
        n_fine = sequences._fine_size(horizon, sequences.DEFAULT_GRID_SIZE)
        window = rng.standard_normal((d, horizon)) + 1j * rng.standard_normal((d, horizon))
        batched = np.fft.fft(window, n=n_fine, axis=1)
        for row, want in zip(window, batched):
            assert np.fft.fft(row, n=n_fine).tobytes() == want.tobytes()
        bins = np.sort(rng.integers(0, n_fine, 300))
        bins = np.concatenate([bins, bins[:7], np.arange(3)])
        got = linalg._plain_norms(linalg._div_real(np.ascontiguousarray(batched[:, bins]), horizon), 0)
        want = linalg._plain_norms(linalg._div_real(batched, horizon), 0)[bins]
        assert got.tobytes() == want.tobytes()


def _grid_masks(rng, k):
    """Above-threshold masks on K grid points: random densities, a run
    across the wrap, the full circle and lone points at 0 and K - 1."""
    masks = [(rng.uniform(size=k) < p) | (np.arange(k) == rng.integers(k)) for p in (0.02, 0.2, 0.5, 0.8, 0.97)]
    wrap = rng.uniform(size=k) < 0.3
    wrap[:3] = wrap[-4:] = True
    masks += [wrap, np.ones(k, dtype=bool)]
    for ends in ([0], [k - 1], [0, k - 1], [0, 2, k - 3, k - 1]):
        lone = np.zeros(k, dtype=bool)
        lone[ends] = True
        masks.append(lone)
    alternate = np.zeros(k, dtype=bool)
    alternate[::2] = True  # neighbouring clusters share the fine bins between them
    return masks + [alternate, np.roll(alternate, 1)]


#: fine/grid ratios of 1, 2 and 8, and non-integer ones
FINE_RATIOS = [(64, 64), (64, 128), (64, 512), (100, 128), (100, 256), (3000, 4096), (3000, 3000)]


@pytest.mark.parametrize("k, n_fine", FINE_RATIOS)
def test_cluster_argmax_matches_the_per_cluster_loop(k, n_fine):
    rng = np.random.default_rng(k + n_fine)
    for mask in _grid_masks(rng, k):
        idx = np.flatnonzero(mask)
        assert idx.size  # the scan refines only when some grid point is above the threshold
        # a few levels make ties common, so the first maximum is tested too
        for fine_norms in (rng.uniform(size=n_fine), rng.integers(0, 4, n_fine).astype(np.float64)):
            got = sequences._cluster_argmax(idx, k, n_fine, fine_norms.__getitem__)
            assert got.tolist() == helpers.loop_cluster_argmax(idx, k, fine_norms).tolist()


def test_unit_thetas_match_python_complex_bits(monkeypatch):
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, 1e-300, -1e-300, 5e-324, 2.0**-40, 1e-8, 7.0]
    phis = np.concatenate([special, rng.uniform(-7.0, 7.0, 90000), rng.uniform(-1e-6, 1e-6, 10000)])
    for phi, theta in zip(phis.tolist(), sequences._unit_thetas(phis).tolist()):
        want = require_unimodular(cmath.exp(1j * phi))
        assert (theta.real.hex(), theta.imag.hex()) == (want.real.hex(), want.imag.hex()), phi
    with pytest.raises(PreconditionError, match="not unimodular"):
        sequences._unit_thetas(np.array([0.5, math.nan]))
    # a cosine off by 2e-12 leaves the unit circle by more than the tolerance
    cos = np.cos
    monkeypatch.setattr(np, "cos", lambda p: cos(p) + 2e-12)
    with pytest.raises(PreconditionError, match="not unimodular"):
        sequences._unit_thetas(np.array([0.0, 0.5]))
    monkeypatch.setattr(np, "cos", lambda p: cos(p) + 5e-13)
    assert sequences._unit_thetas(np.array([0.0])).tolist() == [require_unimodular(1.0 + 5e-13)]


@pytest.mark.parametrize("d", [8, 13, 64])
def test_row_layout_norms_pick_the_same_clusters_and_bins(d):
    # from d = 8 numpy sums a contiguous row of squares pairwise, so the norms
    # of the (d, n) transforms may differ from the (n, d) ones in the last bit
    k = sequences.DEFAULT_GRID_SIZE
    last_bits = False
    for seed, horizon in [(s, n) for s in range(4) for n in (37, 128, 2048, 4096)]:
        x = _mode_mixture(seed, horizon, d)
        (rows,), (exp,) = linalg._pow2_scaled(x.values.T[None])
        (cols,), _ = linalg._pow2_scaled(x.values[None])
        eps = linalg._pow2_unscaled(np.float64(default_epsilon(x.sup_norm)), -exp)
        n_grid, n_fine = min(horizon, k), sequences._fine_size(horizon, k)
        grid_rows = np.linalg.norm(np.fft.fft(rows[:, :n_grid], n=k, axis=1) / n_grid, axis=0)
        grid_cols = np.linalg.norm(np.fft.fft(cols[:n_grid], n=k, axis=0) / n_grid, axis=1)
        fine_rows = np.linalg.norm(np.fft.fft(rows, n=n_fine, axis=1) / horizon, axis=0)
        fine_cols = np.linalg.norm(np.fft.fft(cols, n=n_fine, axis=0) / horizon, axis=1)
        assert np.abs(grid_rows - grid_cols).max() <= 4e-16 * grid_cols.max()
        last_bits |= (grid_rows != grid_cols).any()
        idx = np.flatnonzero(grid_rows > eps)
        assert idx.size and idx.tolist() == np.flatnonzero(grid_cols > eps).tolist()
        got = sequences._cluster_argmax(idx, k, n_fine, fine_rows.__getitem__)
        assert got.tolist() == sequences._cluster_argmax(idx, k, n_fine, fine_cols.__getitem__).tolist()
    assert last_bits


@pytest.mark.parametrize("m1_scale, m2_scale", [(1.0, -1.0), (1e-6, 1e-12)])
@pytest.mark.parametrize("source", ["single-16384", "mixture-3"])
def test_scan_safeguard_bisects_and_still_finds_the_maximiser(monkeypatch, m1_scale, m2_scale, source):
    # Newton never needs the safeguard on the suite's inputs, so the first
    # evaluation is perturbed: m'' negated makes g' > 0, and m' scaled by
    # 1e-6 with m'' by 1e-12 keeps g' < 0 but moves the Newton point 1e6
    # times as far, out of the bracket.  Either way the step bisects.
    if source == "single-16384":
        x = modes_plus_decay([(cmath.exp(0.7j), [1.0, 0.5j])], 16384)
    else:
        x = _mode_mixture(3)
    fine_step = 2.0 * math.pi / sequences._fine_size(x.horizon, sequences.DEFAULT_GRID_SIZE)
    means = sequences._split_means
    phis = []

    def perturbed(cols, thetas, n):
        out = means(cols, thetas, n)
        if not phis:
            d = cols.shape[1] // 3
            out[:, d : 2 * d] *= m1_scale
            out[:, 2 * d :] *= m2_scale
            m, m1, m2 = out[:, :d], -1j * out[:, d : 2 * d], -out[:, 2 * d :]
            g = (m.conj() * m1).real.sum(axis=1)
            dg = (m1.conj() * m1).real.sum(axis=1) + (m.conj() * m2).real.sum(axis=1)
            assert (dg > 0.0).all() if m2_scale < 0.0 else ((dg < 0.0) & (np.abs(g / dg) > fine_step)).all()
        phis.append(np.angle(thetas))
        return out

    monkeypatch.setattr(sequences, "_split_means", perturbed)
    report = spectrum_scan(x)
    # the second evaluation is at the middle of the halved bracket
    assert np.allclose(np.abs(phis[1] - phis[0]), fine_step / 2.0, rtol=1e-12, atol=0.0)
    assert report.detected
    for det in report.detected:
        phi, peak = _longdouble_peak(x.values, cmath.phase(det.theta))
        assert abs(det.peak_mean_norm - peak) <= 1e-13 * peak
        assert angular_distance(det.theta, cmath.exp(1j * float(phi))) <= 1e-12


def test_scan_memory_stays_bounded_with_many_clusters():
    # 64 clusters at horizon 16384 and d = 4: evaluating every cluster in
    # one (clusters, horizon, d) product would take over 64 MB per step
    rng = np.random.default_rng(5)
    phis = 2.0 * math.pi * (np.arange(64) + rng.uniform(0.2, 0.8, 64)) / 64
    modes = [(cmath.exp(1j * p), rng.standard_normal(4) + 1j * rng.standard_normal(4)) for p in phis]
    x = modes_plus_decay(modes, 16384)
    tracemalloc.start()
    try:
        report = spectrum_scan(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.detected) == 64
    assert peak <= 16 * 2**20


def test_scan_builds_its_derivative_layout_in_place():
    # x_k, k x_k and k^2 x_k share one preallocated (A, 3d, B) block;
    # concatenating three (n, d) copies before the layout peaks near 7.8 MiB
    rng = np.random.default_rng(2)
    modes = [(cmath.exp(1j * p), rng.standard_normal(4) + 1j * rng.standard_normal(4)) for p in (0.9, -2.1)]
    x = modes_plus_decay(modes, 16384, decay=("power", 1.0), seed=3)
    tracemalloc.start()
    try:
        report = spectrum_scan(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.detected) == 2
    assert peak <= 7 * 2**20


def test_rotated_means_memory_stays_bounded_with_many_thetas():
    # 2048 thetas at n = 2^16 and d = 4: one (thetas, A d) block of inner
    # sums would take 32 MiB
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((2**16, 4)) + 1j * rng.standard_normal((2**16, 4))
    thetas = np.exp(1j * rng.uniform(-math.pi, math.pi, 2048))
    tracemalloc.start()
    try:
        means = _rotated_means(vals, thetas, 2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert means.shape == (2048, 4)
    assert peak <= 16 * 2**20


def test_scan_report_metadata():
    x = BoundedSeq(np.ones(1024))
    report = spectrum_scan(x, grid_size=512)
    assert report.grid_size == 512
    assert report.n_grid == 512
    assert report.horizon == 1024
    assert "rotated-mean" in report.proxy_disclaimer
    with pytest.raises(PreconditionError):
        spectrum_scan(x, grid_size=32)


def test_vanishing_check_geometric():
    verdict = vanishing_check(BoundedSeq(0.5 ** np.arange(256)))
    assert verdict.vanishing and verdict.scan_empty and verdict.consistent


def test_vanishing_check_constant():
    verdict = vanishing_check(BoundedSeq(np.ones(2048)))
    assert not verdict.vanishing
    assert not verdict.scan_empty
    assert verdict.consistent
    assert len(verdict.detected) == 1
    assert angular_distance(verdict.detected[0].theta, 1.0) <= 1e-6


def test_vanishing_check_slow_log_decay():
    # decays for real, but so slowly the finite-horizon verdict cannot call
    # it vanishing; the trend slope carries the decay evidence
    n = 2**16
    x = BoundedSeq(1.0 / np.log(np.arange(n) + 2.0))
    verdict = vanishing_check(x)
    assert not verdict.vanishing
    assert verdict.consistent
    assert verdict.tail.trend_slope < -0.01


def test_single_mode_check_pure_mode():
    theta = cmath.exp(1.1j)
    x = BoundedSeq(unimodular_powers(theta, 4096)[:, None] * np.array([1.0, -2.0j]))
    verdict = single_mode_check(x, theta)
    assert verdict.difference_vanishes
    assert verdict.difference_tail.tail_sup <= 1e-12
    assert verdict.scan_matches and verdict.consistent


def test_single_mode_check_with_harmonic_perturbation():
    theta = cmath.exp(-0.4j)
    n = 4096
    x = BoundedSeq(unimodular_powers(theta, n) * (2.0 + 1.0 / (np.arange(n) + 1.0)))
    verdict = single_mode_check(x, theta)
    assert verdict.difference_vanishes
    assert verdict.difference_tail.tail_sup <= 10.0 / n
    assert verdict.scan_matches and verdict.consistent


def test_single_mode_check_two_modes_fails_consistently():
    n = 4096
    x = BoundedSeq(1.0 + (-1.0) ** np.arange(n))
    verdict = single_mode_check(x, 1.0)
    assert not verdict.difference_vanishes
    assert verdict.difference_tail.tail_sup == pytest.approx(2.0, rel=1e-12)
    assert len(verdict.detected) == 2
    assert not verdict.scan_matches
    assert verdict.consistent  # both views agree the spectrum is not {theta}


def test_difference_tail_step():
    x = BoundedSeq((-1.0) ** np.arange(64))
    assert difference_tail(x, 1.0).tail_sup == pytest.approx(2.0)
    assert difference_tail(x, 1.0, step=2).tail_sup == 0.0


def test_row_norms_of_huge_values_do_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert BoundedSeq(np.full((16, 1), 1e200)).sup_norm == pytest.approx(1e200, rel=1e-15)
        x = BoundedSeq(np.full((16, 16), 1e200))
        assert x.sup_norm == pytest.approx(4e200, rel=1e-15)
        assert difference_tail(x, -1).tail_sup == pytest.approx(8e200, rel=1e-15)
        assert extract_modes(x, []).residual.tail_sup == pytest.approx(4e200, rel=1e-15)


def test_rotated_means_of_values_near_the_float_limit():
    # the sum of the 16 entries overflows; their mean does not
    x = BoundedSeq(np.full((16, 1), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rotated_mean(x, 1.0).mean_norm == pytest.approx(1e308, rel=1e-13)
        (det,) = spectrum_scan(x).detected
    assert abs(cmath.phase(det.theta)) <= 1e-8
    assert det.peak_mean_norm == pytest.approx(1e308, rel=1e-13)


def test_extract_modes_exact_two_mode():
    rng = np.random.default_rng(3)
    v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    n = 2048
    ks = np.arange(n)[:, None]
    x = BoundedSeq(v1 * 1.0**ks + v2 * (-1.0) ** ks)
    dec = extract_modes(x, [1.0, -1.0])
    assert np.linalg.norm(dec.modes[0].v.data - v1) <= 1e-12 * (1 + np.linalg.norm(v1))
    assert np.linalg.norm(dec.modes[1].v.data - v2) <= 1e-12 * (1 + np.linalg.norm(v2))
    assert dec.residual.tail_sup <= 1e-12


def test_extract_modes_error_bound_with_decay():
    theta1, theta2 = 1.0, cmath.exp(0.5j)
    v1 = np.array([1.0 + 0j])
    v2 = np.array([-0.5 + 0.5j])
    n = 4096
    ks = np.arange(n)
    vals = v1 * unimodular_powers(theta1, n)[:, None] + v2 * unimodular_powers(theta2, n)[:, None]
    vals = vals + (0.8**ks)[:, None]
    dec = extract_modes(BoundedSeq(vals), [theta1, theta2])
    sep = angular_distance(theta1, theta2)
    decay_avg = (1.0 / (1.0 - 0.8)) / n  # average of the geometric tail
    bound = 3.0 / (n * sep) + decay_avg
    for mode, v in ((dec.modes[0], v1), (dec.modes[1], v2)):
        assert np.linalg.norm(mode.v.data - v) <= bound


def test_extract_modes_empty_theta_list():
    x = BoundedSeq(0.5 ** np.arange(128))
    dec = extract_modes(x, [])
    assert dec.modes == ()
    # residual window is [n_used/2, n_used) with n_used = horizon here
    assert dec.residual.tail_sup == tail_norm(x, 64).tail_sup


def test_extract_modes_separation_precondition():
    x = BoundedSeq(np.ones(64))
    with pytest.raises(PreconditionError, match="thetas 0 and 1"):
        extract_modes(x, [1.0, cmath.exp(1e-3j)], n_used=64)


def test_modes_plus_decay_descriptor():
    x = modes_plus_decay([(1j, (1.0, 0.0))], 256, decay=("geometric", 0.5), seed=7)
    assert x.descriptor["kind"] == "modes_plus_decay"
    assert x.horizon == 256 and x.dim == 2
    # planted mode must dominate once the decay has died off
    assert abs(np.linalg.norm(x.values[200]) - 1.0) <= 1e-10


def test_decay_envelope_kinds():
    assert np.allclose(decay_envelope("none", None, 4), np.zeros(4))
    assert np.allclose(decay_envelope("geometric", 0.5, 3), [1.0, 0.5, 0.25])
    assert np.allclose(decay_envelope("power", 1.0, 3), [1.0, 0.5, 1.0 / 3.0])
    env = decay_envelope("log", None, 4)
    assert env[0] >= env[1] >= env[2] >= env[3] > 0


@pytest.mark.parametrize(
    "kind, param",
    [("geometric", p) for p in (5e-324, 1e-300, 0.3, 0.5, 0.9, 1.0 - 2.0**-53)] + [("power", q) for q in (1.0, 50.0, 200.0)],
)
def test_decreasing_envelopes_keep_the_bits_of_pow(kind, param):
    # the envelope stops computing where pow gives 0; the terms it skips must be pow's zeros
    n = np.arange(20000, dtype=np.float64)
    with np.errstate(under="ignore"):
        full = param**n if kind == "geometric" else (n + 1.0) ** (-param)
    zeros = np.flatnonzero(full == 0.0)
    counts = [16, 16384, 20000] if not zeros.size else [max(zeros[0] - 1, 1), zeros[0], zeros[0] + 1, 16384]
    for count in counts:
        assert decay_envelope(kind, param, count).tobytes() == full[:count].tobytes()


@pytest.mark.parametrize(
    "kind, param, message",
    [
        ("cubic", 0.5, "unknown decay kind 'cubic'"),
        ("geometric", 1.0, "geometric ratio must be in (0,1), got 1.0"),
        ("power", 0.0, "power exponent must be > 0, got 0.0"),
        ("log", math.inf, "decay parameter must be finite, got inf"),
    ],
)
def test_decay_envelope_names_each_bad_law(kind, param, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        decay_envelope(kind, param, 4)


@pytest.mark.parametrize(
    "modes, dim, message",
    [
        ([(1.0, [1.0]), (-1.0, [1.0, 0.0])], None, "mode vectors must share one dimension"),
        ([(1.0, [1.0])], 2, "dim contradicts the mode vectors"),
        ([], None, "need at least one mode or an explicit dim"),
        ([(2.0, [1.0])], None, "theta = (2+0j) is not unimodular: | |theta|-1 | = 1.000e+00"),
    ],
)
def test_modes_plus_decay_names_each_bad_shape(modes, dim, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        modes_plus_decay(modes, 16, dim=dim)


def test_descriptor_windows_and_residuals_match_the_broadcast_builders():
    rng = np.random.default_rng(2024)
    decays = [None, ("none", None), ("geometric", 0.3), ("geometric", 0.9), ("power", 1.0), ("power", 200.0), ("log", None)]
    for trial in range(400):
        d = round(2.0 ** rng.uniform(0.0, 6.0))
        horizon = round(2.0 ** rng.uniform(4.0, 14.0))
        amps = 10.0 ** rng.uniform(-200.0, 200.0, int(rng.integers(0, 4)))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        thetas = [require_unimodular(cmath.exp(1j * (phi + 2.0 * math.pi * j / 3.0))) for j in range(amps.size)]
        modes = [(t, a * (rng.standard_normal(d) + 1j * rng.standard_normal(d))) for t, a in zip(thetas, amps)]
        decay = decays[trial % len(decays)]
        x = modes_plus_decay(modes, horizon, decay=decay, seed=trial, dim=d)
        values = helpers.reference_mode_values(modes, horizon, decay, trial, d)
        assert x.values.tobytes() == values.tobytes()
        assert x.norms.tobytes() == helpers.reference_row_norms(values).tobytes()
        decomp = extract_modes(x, thetas)
        residual = helpers.reference_residual(values, thetas, [m.v.data for m in decomp.modes], horizon)
        want = sequences._stats_of_norms(helpers.reference_row_norms(residual), horizon // 2)
        assert repr(decomp.residual) == repr(want)


def test_a_built_window_is_handed_over_uncopied(monkeypatch):
    # modes_plus_decay, simulate_delay and parse_sequence hand their own
    # arrays over: no copy and no entry-by-entry finiteness pass, and every
    # attribute is the constructor's
    passes = []
    monkeypatch.setattr(sequences, "_as_complex_array", lambda v: passes.append(v) or linalg._as_complex_array(v))
    wire = sequence_to_json(BoundedSeq(np.arange(64).reshape(32, 2) * (1 - 0.5j)))
    system = DelaySystem(CMatrix([[0.5, 1j], [0.0, -0.9]]), 2, [[1.0, 1j], [0.5, -1.0]], ForcingSpec("zero"))
    for build in (
        lambda: modes_plus_decay(*CYCLING_WINDOWS["two"]),
        lambda: simulate_delay(system, 64)[0],
        lambda: parse_sequence(wire),
    ):
        passes.clear()
        x = build()
        assert passes == [] and not x.values.flags.writeable
        want = BoundedSeq(x.values, x.descriptor)
        assert len(passes) == 1 and want.values is not x.values
        assert sorted(vars(x)) == sorted(vars(want))
        assert x.values.tobytes() == want.values.tobytes() and x.norms.tobytes() == want.norms.tobytes()
        assert x.sup_norm == want.sup_norm and x.descriptor is want.descriptor
    # an outside caller's array is still copied
    values = np.ones((16, 2), dtype=np.complex128)
    assert BoundedSeq(values).values is not values and values.flags.writeable


@pytest.mark.parametrize(
    "modes, horizon, dim, message",
    [
        ([(1.0, [np.inf])], 16, None, "entries must be finite (no NaN/Inf)"),
        ([(1j, [1.0, complex(0.0, np.nan)])], 16, None, "entries must be finite (no NaN/Inf)"),
        ([(1.0, [np.inf])], 8, None, "entries must be finite (no NaN/Inf)"),  # before the horizon
        ([(1.0, [1.0])], 8, None, "horizon must be >= 16, got 8"),
        ([], 0, 2, "sequence values must form a nonempty (N, d) array"),
        ([], 16, 0, "sequence values must form a nonempty (N, d) array"),
    ],
)
def test_a_built_window_keeps_the_constructors_errors(modes, horizon, dim, message):
    # inf times a zero part is NaN, which numpy warns of while building
    with np.errstate(invalid="ignore"), pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        modes_plus_decay(modes, horizon, dim=dim)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: parse_sequence({"kind": "materialized", "d": 1, "values": [[[1.0, 0.0]]] * 15 + [[[math.inf, 0.0]]]}),
            ParseError,
            "sequence values must be a nonempty list of equal-length lists of pairs of finite real numbers",
        ),
        (
            lambda: parse_sequence({"kind": "materialized", "d": 1, "values": [[[1.0, 0.0]]] * 15}),
            ParseError,
            "sequence: 'values' must list at least 16 vectors of dimension d = 1",
        ),
        (
            lambda: simulate_delay(DelaySystem(CMatrix([[1e200]]), 1, [[1.0]], ForcingSpec("zero")), 16),
            UnboundedTrajectoryError,
            "trajectory norm exceeded 1.0e+100 at step 1",
        ),
    ],
    ids=["non-finite", "short", "overflowing"],
)
def test_the_other_builders_keep_their_errors(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_a_built_window_whose_norm_overflows_is_kept():
    # finite entries whose row norm leaves the float range pass, as they do
    # through the constructor
    x = modes_plus_decay([(1.0, [1.5e308, 1.5e308])], 16)
    assert x.sup_norm == math.inf and np.isfinite(x.values).all()


def test_a_none_decay_draws_no_direction(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a none decay drew a direction")

    monkeypatch.setattr(sequences, "_unit_vector", no_draw)
    x = modes_plus_decay([(1j, [1.0, 0.0])], 16, decay=("none", None), seed=5)
    assert np.array_equal(x.values[:, 0], unimodular_powers(1j, 16)) and not x.values[:, 1].any()


def test_ktz_diagonal_contraction():
    verdict = ktz_check(CMatrix(np.diag([1.0, 0.5])), 1.0, n_max=64)
    assert verdict.hypotheses_met
    assert verdict.power_bounded and verdict.peripheral_ok
    # max over [32, 64) of ||T^n (T - I)|| = 0.5^33 on the diagonal
    assert verdict.operator_tail_sup == pytest.approx(0.5**33, rel=1e-12)
    assert verdict.limit_attained


def test_ktz_rotation_peripheral_point():
    verdict = ktz_check(CMatrix(np.diag([1j, 0.3])), 1j, n_max=64)
    assert verdict.hypotheses_met
    assert verdict.limit_attained


def test_ktz_jordan_block_hypotheses_not_met():
    verdict = ktz_check(CMatrix([[1.0, 1.0], [0.0, 1.0]]), 1.0, n_max=400)
    assert not verdict.hypotheses_met
    assert not verdict.power_bounded
    assert verdict.growth_class == "polynomial-suspect"
    assert verdict.reason  # structured explanation, not an exception
    # the powers stay small enough to measure: the difference tail really
    # does not vanish, and the verdict says so
    assert verdict.operator_tail_sup == pytest.approx(1.0, rel=1e-12)
    assert verdict.limit_attained is False


@pytest.mark.parametrize(
    "consumer",
    [
        lambda a: linalg.mat_power_seq(a, 64),
        lambda a: eigen.power_bounded_probe(a, 64, 1e6),
        lambda a: eigen.gelfand_radius_estimate(a, 64),
        lambda a: ktz_check(a, 1.0, n_max=64),
        lambda a: resolvent.resolvent_neumann(a, 2.0, 64),
    ],
    ids=["mat_power_seq", "power_bounded_probe", "gelfand_radius_estimate", "ktz_check", "resolvent_neumann"],
)
def test_each_power_consumer_forms_its_powers_once(monkeypatch, consumer):
    calls = []
    power_stack = linalg._power_stack

    def counting(arr, n_max, logs):
        calls.append(n_max)
        return power_stack(arr, n_max, logs)

    for module in (linalg, eigen, sequences, resolvent):
        if hasattr(module, "_power_stack"):
            monkeypatch.setattr(module, "_power_stack", counting)
    consumer(CMatrix(np.diag([1.0, 0.5])))
    assert calls == [64]


def _ktz_tail_oracle(t, theta, n_max):
    """(tail_sup, operator_tail_sup) of T^n (T - theta I) over
    [n_max // 2, n_max), the powers formed by clongdouble matmul and each
    product rounded to complex128 once; every norm is taken on the matrix
    scaled by a power of two, so none under- or overflows."""
    a = t.astype(np.clongdouble)
    shift = a - theta * np.eye(t.shape[0])
    power = np.linalg.matrix_power(a, n_max // 2)
    tail = []
    for _ in range(n_max // 2, n_max):
        tail.append((power @ shift).astype(np.complex128))
        power = a @ power
    tail = np.array(tail)
    exps = np.frexp(np.abs(tail).max(axis=(1, 2)))[1]
    scaled = tail * np.ldexp(1.0, -exps)[:, None, None]
    frobenius = np.ldexp(np.linalg.norm(scaled.reshape(len(tail), -1), axis=1), exps)
    spectral = np.ldexp(np.linalg.norm(scaled, ord=2, axis=(1, 2)), exps)
    return frobenius.max(), spectral.max()


def _stable_normal(seed, d):
    """Normal matrix with every eigenvalue of modulus in [0.3, 0.5]."""
    rng = np.random.default_rng(seed)
    eigs = rng.uniform(0.3, 0.5, d) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d))
    q = helpers.random_unitary(rng, d)
    return q @ np.diag(eigs) @ q.conj().T


@pytest.mark.parametrize(
    "t", [np.diag([0.5, 0.25]), _stable_normal(2, 2), _stable_normal(16, 16)], ids=["diag", "d2", "d16"]
)
def test_ktz_rescaled_powers_match_a_long_double_oracle(t):
    n_max = 512
    assert (helpers.joined_power_stack(t.astype(np.complex128), n_max)[2] != 0).any()  # the stack rescales
    verdict = ktz_check(CMatrix(t), 1.0, n_max)
    tail_sup, op_tail = _ktz_tail_oracle(t, 1.0, n_max)
    assert verdict.tail.tail_sup == pytest.approx(tail_sup, rel=1e-12, abs=0.0)
    assert verdict.operator_tail_sup == pytest.approx(op_tail, rel=1e-12, abs=0.0)


def test_ktz_powers_past_the_float_range_are_a_precondition_error():
    # an infinite bound admits every power; T^n (T - I) = 2^n first overflows at n = 1024
    with pytest.raises(PreconditionError, match=r"leaves the float range at n = 1024$"):
        ktz_check(CMatrix([[2.0]]), 1.0, n_max=2048, bound=math.inf)


def _reference_ktz_tail(t, theta, n_max):
    """``(tail, operator_tail_sup)`` of ``ktz_check`` from the whole stack
    of T^n (T - theta I), n < n_max: the powers of
    ``helpers.reference_power_stack``, each row normed in one
    ``reference_row_norms`` call and the last half in one
    ``reference_spectral_norms`` call."""
    d = len(t)
    _, powers, exps = helpers.reference_power_stack(t, n_max)
    shift = t - theta * np.eye(d)
    values = np.zeros((n_max, d, d), dtype=np.complex128)
    values[0] = shift
    m = min(n_max - 1, len(powers))
    values[1 : m + 1] = linalg._pow2_unscaled(np.matmul(powers[:m], shift), exps[:m])
    window = n_max // 2
    tail = sequences._stats_of_norms(helpers.reference_row_norms(values.reshape(n_max, d * d)), window)
    return tail, float(np.max(helpers.reference_spectral_norms(values[window : m + 1]), initial=0.0))


@pytest.mark.parametrize("rows", [None, 7, 100])
@pytest.mark.parametrize(
    "t, n_max",
    [(np.diag([0.5, 0.25]), 512), (_stable_normal(16, 16), 512), (np.array([[1.0, 1.0], [0.0, 1.0]]), 400),
     (np.triu(_stable_normal(5, 4), 1), 64), (np.diag([1j, 0.3]), 64)],
    ids=["diag", "d16", "jordan", "nilpotent", "rotation"],
)
def test_ktz_chunks_are_the_whole_stack_bit_for_bit(monkeypatch, t, n_max, rows):
    # the row norms, tail statistics and operator tail of each chunk of
    # powers are those of the whole stack of T^n (T - I), bit for bit
    if rows:
        monkeypatch.setattr(linalg, "_NORM_CHUNK_ENTRIES", rows * t.size)
    verdict = ktz_check(CMatrix(t), 1.0, n_max)
    tail, op_tail = _reference_ktz_tail(t.astype(np.complex128), 1.0, n_max)
    assert repr(verdict.tail) == repr(tail) and verdict.operator_tail_sup.hex() == op_tail.hex()


def test_ktz_float_range_check_keeps_its_n_and_its_place(monkeypatch):
    # in chunks of 100 powers the overflow at n = 1024 is found as before;
    # the check waits for spectrum_info and holds only for bounded powers
    monkeypatch.setattr(linalg, "_NORM_CHUNK_ENTRIES", 100)
    with pytest.raises(PreconditionError, match=r"leaves the float range at n = 1024$"):
        ktz_check(CMatrix([[2.0]]), 1.0, n_max=2048, bound=math.inf)
    verdict = ktz_check(CMatrix([[2.0]]), 1.0, n_max=2048)
    assert not verdict.power_bounded and verdict.tail is None and verdict.operator_tail_sup is None

    def failing(t):
        raise ParseError("spectrum_info runs first")

    monkeypatch.setattr(sequences, "spectrum_info", failing)
    with pytest.raises(ParseError, match="spectrum_info runs first"):
        ktz_check(CMatrix([[2.0]]), 1.0, n_max=2048, bound=math.inf)


@pytest.mark.parametrize("call", ["gelfand", "ktz"])
def test_power_sequences_run_in_bounded_memory(call):
    # powers are formed, normed and reduced a chunk at a time: a whole
    # stack would be 64 MiB (gelfand, d = 64) and 16 MiB (ktz, d = 16)
    rng = np.random.default_rng(64)
    g = 0.9 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / np.sqrt(128)
    run = {
        "gelfand": lambda: eigen.gelfand_radius_estimate(CMatrix(g), 1024),
        "ktz": lambda: ktz_check(CMatrix(_stable_normal(16, 16)), 1.0, 4096),
    }[call]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_ktz_extra_peripheral_point():
    verdict = ktz_check(CMatrix(np.diag([1.0, -1.0])), 1.0, n_max=64)
    assert not verdict.hypotheses_met
    assert verdict.power_bounded
    assert not verdict.peripheral_ok
