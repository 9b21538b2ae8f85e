import cmath
import math
import tracemalloc

import numpy as np
import pytest

import helpers
from seqspectrum.corpus import generate_corpus
from seqspectrum.dynamics import DelaySystem, ForcingSpec, delay_limit_probe, simulate_delay
from seqspectrum.errors import PreconditionError
from seqspectrum.sequences import (
    _lockstep_golden_max,
    _unimodular_power_stack,
    BoundedSeq,
    angular_distance,
    custom_table,
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


def test_bounded_seq_validation():
    with pytest.raises(PreconditionError):
        BoundedSeq(np.ones(8))  # too short to say anything about tails
    with pytest.raises(PreconditionError):
        BoundedSeq(np.array([np.inf] + [0.0] * 31))
    x = BoundedSeq(np.ones(16))
    assert x.values.shape == (16, 1)  # scalar sequences get a vector axis
    assert x.dim == 1 and x.horizon == 16
    assert not x.values.flags.writeable


def test_bounded_seq_shifted():
    x = BoundedSeq(np.arange(64, dtype=float))
    y = x.shifted(10)
    assert y.horizon == 54
    assert y.values[0, 0] == 10.0
    with pytest.raises(PreconditionError):
        x.shifted(60)  # fewer than 16 entries would remain


def test_require_unimodular():
    t = require_unimodular(cmath.exp(0.3j))
    assert abs(abs(t) - 1.0) <= 1e-15
    with pytest.raises(PreconditionError):
        require_unimodular(0.5)


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


def test_unimodular_power_stack_rows_match_scalar_powers():
    # 3000 powers cross the renormalizations at 1024 and 2048
    thetas = np.array([cmath.exp(1j * t) for t in (0.1, 1.234, -2.5, math.pi, 3e-4)])
    stack = _unimodular_power_stack(thetas, 3000)
    for theta, row in zip(thetas, stack):
        assert row.tobytes() == unimodular_powers(theta, 3000).tobytes()
        assert row.tobytes() == helpers.scalar_unimodular_powers(theta, 3000).tobytes()


def test_lockstep_golden_max_finds_each_quadratic_maximum():
    peaks = np.array([-1.0, 0.3, 2.0, 5.5, 0.0])
    curvature = np.array([1.0, 0.01, 3.0, 100.0, 7.0])
    lo = peaks - np.array([0.5, 0.01, 2.0, 0.1, 1.0])
    hi = peaks + np.array([1.5, 0.2, 0.5, 3.0, 1e-3])
    phis, values = _lockstep_golden_max(lambda p: -curvature * (p - peaks) ** 2, lo, hi)
    assert np.abs(phis - peaks).max() <= 1e-12
    assert np.array_equal(values, -curvature * (phis - peaks) ** 2)


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


def test_scan_detections_clear_threshold():
    n = 8192
    x = BoundedSeq(1.5 * (-1.0) ** np.arange(n) + 0.7)
    report = spectrum_scan(x)
    for det in report.detected:
        res = rotated_mean(x, det.theta)
        assert res.mean_norm > report.threshold
        # the scan refines with the evaluator rotated_mean uses
        assert res.mean_norm == det.peak_mean_norm


# float.hex of (theta.real, theta.imag, peak_mean_norm) per detection, as
# the one-cluster-at-a-time golden-section refinement reported them
PINNED_DETECTIONS = {
    "delay-counterexample-37": [
        ("-0x1.0000000000000p+0", "0x1.ab099a34c4c66p-30", "0x1.0000000000002p+0"),
    ],
    "delay-counterexample-100": [
        ("-0x1.0000000000000p+0", "0x1.e2b7d469898ccp-31", "0x1.0000000000003p+0"),
    ],
    "delay-d4-p3-interior-128": [
        ("0x1.e93a968a1874ep-1", "0x1.2dfcd15558bdep-2", "0x1.24f8ac182c8acp-1"),
        ("-0x1.1fb3ecbe4331fp-6", "0x1.ffebca4b2fa65p-1", "0x1.8587076009ee6p-6"),
        ("-0x1.779d7452fdd50p-1", "0x1.5beed50b1f9efp-1", "0x1.182ee9a787f20p-2"),
        ("-0x1.c5489b4b894e5p-3", "-0x1.f34d485853877p-1", "0x1.eb2b7e08a3abep-3"),
        ("0x1.a76ec1a3ebd7dp-3", "-0x1.f4efea79954b1p-1", "0x1.6326f7d41c5a0p-3"),
    ],
    "corpus-seed7-4096-two-mode-0": [
        ("0x1.0c647a4c2c488p-4", "0x1.fee64ffb88080p-1", "0x1.4a70ed0537d9cp-1"),
        ("-0x1.efc7b24072a57p-1", "0x1.ff686d20fb7a1p-3", "0x1.81fea2211cafep+0"),
    ],
}


def test_scan_detections_keep_pinned_bytes():
    counterexample = DelaySystem(
        CMatrix.identity(1), 2, [CVector([1.0]), CVector([-1.0])], ForcingSpec.zero()
    )
    # one unit-circle eigenvalue, three inside the disk
    b = CMatrix([
        [cmath.exp(0.9j), 0.3, 0.0, 0.0],
        [0.0, 0.9 * cmath.exp(2.2j), 0.2, 0.0],
        [0.0, 0.0, 0.7, 0.1],
        [0.0, 0.0, 0.0, -0.5j],
    ])
    initial = [CVector([1.0, 0.5j, -0.25, 2.0]), CVector([0.0, 1.0, 1.0j, -1.0]), CVector([0.5, 0.0, 0.0, 1.0])]
    interior = DelaySystem(b, 3, initial, ForcingSpec.geometric(0.8, seed=3))
    member = next(m for m in generate_corpus(seed=7, horizon=4096) if m.member_id == "two-mode-0")
    found = {
        "delay-counterexample-37": delay_limit_probe(counterexample, simulate_delay(counterexample, 37)[0]).scan_detected,
        "delay-counterexample-100": delay_limit_probe(counterexample, simulate_delay(counterexample, 100)[0]).scan_detected,
        "delay-d4-p3-interior-128": delay_limit_probe(interior, simulate_delay(interior, 128)[0]).scan_detected,
        "corpus-seed7-4096-two-mode-0": spectrum_scan(member.seq).detected,
    }
    for name, detected in found.items():
        got = [(d.theta.real.hex(), d.theta.imag.hex(), d.peak_mean_norm.hex()) for d in detected]
        assert got == PINNED_DETECTIONS[name], name


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


def test_custom_table():
    x = custom_table(np.ones((32, 2)))
    assert x.dim == 2
    assert x.descriptor["kind"] == "custom_table"


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


def test_ktz_extra_peripheral_point():
    verdict = ktz_check(CMatrix(np.diag([1.0, -1.0])), 1.0, n_max=64)
    assert not verdict.hypotheses_met
    assert verdict.power_bounded
    assert not verdict.peripheral_ok
