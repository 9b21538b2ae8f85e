"""Acceptance gate: the eleven release criteria, one test each.

Every test prints a single ``criterion NN (label): PASS|FAIL`` line
before asserting, so a plain ``pytest -s tests/test_acceptance.py``
reads as a checklist.  Tolerances and sample counts here are the
release contract -- do not loosen them to make a failure go away.
"""

import cmath
import math
import time

import numpy as np

import helpers
from seqspectrum import (
    CMatrix,
    CVector,
    DelaySystem,
    ForcingSpec,
    angular_distance,
    cauchy_coefficient,
    cayley_hamilton_residual,
    delay_limit_probe,
    extract_modes,
    gelfand_radius_estimate,
    generate_corpus,
    isometry_bound_check,
    ktz_check,
    modes_plus_decay,
    operator_norm,
    pole_order_probe,
    resolvent_direct,
    resolvent_neumann,
    simulate_delay,
    single_mode_check,
    vanishing_check,
    verify_asymptotic_decomposition,
)
from seqspectrum.cli import main


def _verdict(num, label, ok, detail):
    print(f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({label}) failed: {detail}"


def test_criterion_01_cayley_hamilton_residuals():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        a = CMatrix(helpers.disk_matrix(rng, d))
        ratio = cayley_hamilton_residual(a) / (1e-8 * (1.0 + operator_norm(a)) ** d)
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 1.0
    _verdict(1, "cayley-hamilton residuals", ok,
             f"worst residual at {worst:.3e} of the bound, {elapsed:.2f}s")


def test_criterion_02_gelfand_radius():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        moduli = rng.uniform(0.1, 2.0, d)
        eigs = moduli * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d))
        a, v = helpers.diagonalizable(rng, eigs, cond=8.0)
        assert np.linalg.cond(v) <= 10.0
        report = gelfand_radius_estimate(CMatrix(a), 512)
        target = float(moduli.max())
        worst = max(worst, abs(report.estimate - target) / (0.05 * (1.0 + target)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 5.0
    _verdict(2, "gelfand radius estimate", ok,
             f"worst error at {worst:.3e} of the allowance, {elapsed:.2f}s")


def test_criterion_03_resolvent_consistency():
    rng = np.random.default_rng(303)
    worst_gap = 0.0
    worst_identity = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        a = CMatrix(helpers.disk_matrix(rng, d))
        rho = float(np.abs(np.linalg.eigvals(a.data)).max())
        r = 2.0 * rho + 0.1
        lam = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        mu = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        series = resolvent_neumann(a, lam, 200).matrix.data
        rl = resolvent_direct(a, lam).data
        rm = resolvent_direct(a, mu).data
        worst_gap = max(worst_gap, np.linalg.norm(series - rl, 2))
        residual = (rl - rm) - (mu - lam) * (rl @ rm)
        scale = 1.0 + abs(mu - lam) * np.linalg.norm(rl, 2) * np.linalg.norm(rm, 2)
        worst_identity = max(worst_identity, np.linalg.norm(residual, 2) / scale)
    ok = worst_gap <= 1e-8 and worst_identity <= 1e-9
    _verdict(3, "resolvent consistency", ok,
             f"series-vs-direct {worst_gap:.3e}, identity residual {worst_identity:.3e}")


def test_criterion_04_cauchy_coefficients():
    rng = np.random.default_rng(404)
    coeffs = [CVector(helpers.disk_matrix(rng, 3)[0]) for _ in range(11)]

    def oracle(z):
        acc = np.zeros(3, dtype=complex)
        for c in reversed(coeffs):
            acc = acc * z + c.data
        return acc

    worst = max(
        np.linalg.norm(cauchy_coefficient(oracle, k, radius=1.0, nodes=64).data - c.data)
        for k, c in enumerate(coeffs)
    )
    constant = coeffs[0]
    worst_echo = max(
        np.linalg.norm(cauchy_coefficient(lambda z: constant.data, k, radius=r, nodes=64).data)
        for k in range(1, 11)
        for r in (0.5, 1.0, 2.0)
    )
    ok = worst <= 1e-12 and worst_echo <= 1e-13
    _verdict(4, "cauchy coefficient recovery", ok,
             f"worst coefficient error {worst:.3e}, liouville echo {worst_echo:.3e}")


def test_criterion_05_isometry_resolvent_bound():
    rng = np.random.default_rng(42)
    violations = 0
    worst_order = 1.0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        phases = helpers.spaced_phases(rng, d, jitter=0.1)
        u = CMatrix(helpers.unitary_with_phases(rng, phases))
        radii = np.concatenate([
            rng.uniform(0.2, 0.999, 500),
            rng.uniform(1.001, 3.0, 500),
        ])
        angles = rng.uniform(0.0, 2.0 * math.pi, 1000)
        samples = radii * np.exp(1j * angles)
        report = isometry_bound_check(u, samples)
        violations += report.violations
        for phi in phases:
            order = pole_order_probe(
                u, cmath.exp(1j * phi), (1e-2, 5e-3, 2e-3, 1e-3)
            ).fitted_order
            if abs(order - 1.0) > abs(worst_order - 1.0):
                worst_order = order
    ok = violations == 0 and 0.9 <= worst_order <= 1.1
    _verdict(5, "isometry resolvent bound", ok,
             f"{violations} bound violations, worst pole order {worst_order:.4f}")


def test_criterion_06_corpus_tail_scan_agreement():
    members = generate_corpus(seed=0, horizon=16384)
    assert len(members) == 30
    disagreements = []
    for member in members:
        expected_empty = member.kind == "vanishing"
        verdict = vanishing_check(member.seq)
        ok = (
            verdict.consistent
            and verdict.vanishing == expected_empty
            and verdict.scan_empty == expected_empty
        )
        if member.thetas:
            detected = verdict.detected
            ok = ok and len(detected) == len(member.thetas)
            for theta in member.thetas:
                ok = ok and any(
                    angular_distance(theta, p.theta) <= 1e-3 for p in detected
                )
        if member.kind == "single-mode":
            ok = ok and single_mode_check(member.seq, member.thetas[0]).consistent
        if not ok:
            disagreements.append(member.member_id)
    _verdict(6, "corpus tail/scan agreement", not disagreements,
             f"disagreeing members: {disagreements}")


def test_criterion_07_mode_recovery():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = {10_000: 0.0, 40_000: 0.0}
    for trial in range(6):
        k = int(rng.integers(1, 5))
        angles = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(rng.uniform(0.1, 1.2, k))
        thetas = [cmath.exp(1j * a) for a in angles]
        vs = []
        for _ in range(k):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            vs.append(v / np.linalg.norm(v))
        decay = ("geometric", 0.8) if trial % 2 == 0 else ("power", 1.0)
        x = modes_plus_decay(list(zip(thetas, vs)), 40_000, decay=decay, seed=trial)
        for n_used in (10_000, 40_000):
            decomp = extract_modes(x, thetas, n_used=n_used)
            for mode, v in zip(decomp.modes, vs):
                worst[n_used] = max(worst[n_used], float(np.linalg.norm(mode.v.data - v)))
    elapsed = time.perf_counter() - start
    ok = worst[10_000] <= 1e-2 and worst[40_000] <= 2.5e-3 and elapsed < 10.0
    _verdict(7, "mode recovery", ok,
             f"worst error {worst[10_000]:.3e} @ 1e4, {worst[40_000]:.3e} @ 4e4, {elapsed:.2f}s")


def test_criterion_08_forced_decompositions():
    rng = np.random.default_rng(808)
    horizon = 2**14
    cases = [
        ((-1.0, 0.5, 0.3), ForcingSpec("zero"), (-1.0,), False),
        ((1.0, 0.6, 0.4), ForcingSpec("geometric", 0.7, seed=1), (1.0,), True),
        ((1.0, -1.0, 0.5), ForcingSpec("zero"), (1.0, -1.0), False),
        ((0.5, 0.3, 0.2), ForcingSpec("geometric", 0.5, seed=2), (), True),
    ]
    failures = []
    for i, (eigs, forcing, peripheral, want_limit) in enumerate(cases):
        u = helpers.random_unitary(rng, 3)
        b = CMatrix(u @ np.diag(eigs) @ u.conj().T)
        x0 = CVector(u @ np.array([1.0, 1.0, 1.0]))
        x, report = simulate_delay(DelaySystem(b, 1, [x0], forcing), horizon)
        decomp, verdict = verify_asymptotic_decomposition(b, x)
        ok = report.bounded_verdict and verdict.residual_ok
        ok = ok and len(verdict.peripheral) == len(peripheral)
        for theta in peripheral:
            ok = ok and any(
                angular_distance(theta, p) <= 1e-8 for p in verdict.peripheral
            )
        ok = ok and verdict.limit_tested == want_limit
        if want_limit:
            ok = ok and verdict.limit_exists
        if not ok:
            failures.append(i)
    _verdict(8, "forced system decompositions", not failures,
             f"failing cases: {failures}")


def test_criterion_09_power_bounded_tail():
    rng = np.random.default_rng(909)
    failures = []
    worst_tail = 0.0
    for i in range(5):
        d = int(rng.integers(2, 7))
        theta = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        interior = rng.uniform(0.3, 0.9, d - 1) * np.exp(
            2j * np.pi * rng.uniform(0.0, 1.0, d - 1)
        )
        u = helpers.random_unitary(rng, d)
        t = CMatrix(u @ np.diag(np.concatenate([[theta], interior])) @ u.conj().T)
        verdict = ktz_check(t, theta, n_max=400)
        worst_tail = max(worst_tail, verdict.operator_tail_sup)
        if not (verdict.hypotheses_met and verdict.limit_attained
                and verdict.operator_tail_sup <= 1e-8):
            failures.append(i)
    jordan = ktz_check(CMatrix([[1.0, 1.0], [0.0, 1.0]]), 1.0, n_max=400)
    ok = not failures and not jordan.hypotheses_met
    _verdict(9, "power-bounded iterate tails", ok,
             f"failing cases {failures}, worst tail {worst_tail:.3e}, "
             f"jordan hypotheses_met={jordan.hypotheses_met}")


def test_criterion_10_delay_counterexample():
    system = DelaySystem(
        CMatrix(np.eye(1)), 2, [CVector([1.0]), CVector([-1.0])], ForcingSpec("zero")
    )
    horizons = list(range(16, 101)) + [128, 256, 512, 1024, 4096, 16384]
    worst_one = 0.0
    worst_p = 0.0
    for horizon in horizons:
        probe = delay_limit_probe(system, simulate_delay(system, horizon)[0])
        worst_one = max(worst_one, abs(probe.one_step.tail_sup - 2.0))
        worst_p = max(worst_p, probe.p_step.tail_sup)
    ok = worst_one <= 1e-12 and worst_p <= 1e-12
    _verdict(10, "delay limit counterexample", ok,
             f"one-step deviation {worst_one:.3e}, p-step sup {worst_p:.3e}")


def test_criterion_11_determinism(tmp_path, capsys):
    mismatched = []
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert main(["corpus", "--out-dir", str(d), "--seed", "7", "--horizon", "4096"]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    for name in names:
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
            mismatched.append(name)

    member = dirs[0] / "seq-two-mode-0.json"
    reports = [tmp_path / "scan1.json", tmp_path / "scan2.json"]
    for out in reports:
        assert main(["spectrum-scan", str(member), "--out", str(out)]) == 0
    if reports[0].read_bytes() != reports[1].read_bytes():
        mismatched.append("scan-report")
    capsys.readouterr()
    _verdict(11, "byte-identical reports", not mismatched,
             f"mismatched files: {mismatched}")
