import cmath
import math
import re

import numpy as np
import pytest

import helpers
from seqspectrum import linalg, resolvent
from seqspectrum.errors import DivergenceError, PreconditionError, SingularMatrixError
from seqspectrum.linalg import CMatrix, CVector, operator_norm
from seqspectrum.resolvent import (
    _batched_spectral_norms,
    cauchy_coefficient,
    isometry_bound_check,
    pole_order_probe,
    resolvent_direct,
    resolvent_neumann,
    resolvent_norm_scan,
)
from seqspectrum.eigen import spectrum_info


def test_direct_matches_numpy_inverse():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lam = 5.0 + 1.0j  # comfortably outside the spectrum of a unit-scale matrix
        got = resolvent_direct(CMatrix(a), lam).data
        want = np.linalg.inv(lam * np.eye(d) - a)
        assert np.allclose(got, want, atol=1e-10)


def test_direct_diagonal_value():
    r = resolvent_direct(CMatrix(np.diag([0.5, 0.5])), 2.0)
    assert operator_norm(r) == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_direct_at_eigenvalue_raises():
    with pytest.raises(SingularMatrixError):
        resolvent_direct(CMatrix(np.diag([1.0, 2.0])), 2.0)


def test_neumann_agrees_with_direct():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        a = CMatrix(helpers.disk_matrix(rng, d))
        rho = spectrum_info(a).spectral_radius
        lam = (2.0 * rho + 0.1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        res = resolvent_neumann(a, lam, 200)
        direct = resolvent_direct(a, lam)
        assert operator_norm(CMatrix(res.matrix.data - direct.data)) <= 1e-10
        assert res.last_term_norm <= 1e-12


def test_neumann_diverges_inside_spectrum():
    with pytest.raises(DivergenceError):
        resolvent_neumann(CMatrix(np.diag([2.0, 1.0])), 0.5, 200)


def test_first_resolvent_identity():
    rng = np.random.default_rng(13)
    a = CMatrix(helpers.disk_matrix(rng, 4))
    rho = spectrum_info(a).spectral_radius
    lam = (2.0 * rho + 0.1) * 1.0
    mu = (2.0 * rho + 0.1) * 1j
    rl = resolvent_direct(a, lam).data
    rm = resolvent_direct(a, mu).data
    lhs = rl - rm
    rhs = (mu - lam) * (rl @ rm)
    scale = 1.0 + abs(mu - lam) * np.linalg.norm(rl, 2) * np.linalg.norm(rm, 2)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * scale


def test_cauchy_recovers_polynomial_coefficients():
    rng = np.random.default_rng(17)
    coeffs = [CVector(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(6)]

    def oracle(z):
        acc = np.zeros(3, dtype=complex)
        for c in reversed(coeffs):
            acc = acc * z + c.data
        return acc

    for k, c in enumerate(coeffs):
        got = cauchy_coefficient(oracle, k, radius=1.0, nodes=64)
        assert np.linalg.norm(got.data - c.data) <= 1e-12


def test_neumann_overflow_guard_raises_divergence():
    with pytest.raises(DivergenceError, match="series terms exceed 1e150"):
        resolvent_neumann(CMatrix(10.0 * np.eye(2)), 1.0, 200)


@pytest.mark.parametrize(
    "a, lam",
    [([[1e300]], 1e-10), (np.full((2, 2), 1.5e308), 1.0)],
    ids=["quotient", "power"],
)
def test_neumann_terms_past_the_float_range_raise_divergence(a, lam):
    # A / lambda, or the rescaled power after it, overflows: a divergence,
    # with no warning
    with pytest.raises(DivergenceError, match="series terms exceed 1e150"):
        resolvent_neumann(CMatrix(a), lam, 200)


@pytest.mark.parametrize(
    "a, lam",
    [(0.9 * np.eye(8, k=1), 0.5 + 0.5j), (np.eye(3, k=1), 2.0), (np.zeros((2, 2)), 1j)],
    ids=["shift-8", "shift-3", "zero"],
)
def test_neumann_of_a_nilpotent_matrix(a, lam):
    # the powers stop at the nilpotency index, so their logs end in -inf
    res = resolvent_neumann(CMatrix(a), lam, 40)
    want = np.linalg.inv(lam * np.eye(len(a)) - a)
    assert np.linalg.norm(res.matrix.data - want, 2) <= 1e-14 * np.linalg.norm(want, 2)
    assert res.last_term_norm == 0.0


@pytest.mark.parametrize("d", [1, 2, 8, 64])
def test_neumann_matches_numpy_inverse(d):
    rng = np.random.default_rng(50 + d)
    for _ in range(5):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a *= 0.6 / np.abs(np.linalg.eigvals(a)).max()
        lam = 1.2 * cmath.exp(2j * math.pi * rng.uniform())
        want = np.linalg.inv(lam * np.eye(d) - a)
        got = resolvent_neumann(CMatrix(a), lam, 200).matrix.data
        assert np.linalg.norm(got - want, 2) <= 1e-14 * np.linalg.norm(want, 2)


@pytest.mark.parametrize(
    "d, k_max, rows",
    [(1, 200, None)] + [(d, k_max, rows) for d, k_max in [(2, 60), (3, 200), (8, 41), (16, 300)] for rows in (None, 1, 7)],
)
def test_neumann_sum_in_chunks_is_the_stacked_sum_bit_for_bit(monkeypatch, d, k_max, rows):
    # the terms are summed a chunk at a time after the sum so far, one
    # sum(axis=0) of the stacked terms at d >= 2; at d = 1 numpy sums
    # pairwise, so there the sum is checked within one chunk
    if rows:
        monkeypatch.setattr(linalg, "_NORM_CHUNK_ENTRIES", rows * d * d)
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a *= 0.9 / np.abs(np.linalg.eigvals(a)).max()
    if d == 3:
        a = np.triu(a, 1)  # nilpotent: the terms stop at A^2
    lam = 1.1 * cmath.exp(0.7j)
    _, powers, exps = helpers.reference_power_stack(a / lam, k_max)
    terms = np.concatenate([np.eye(d)[None], linalg._pow2_unscaled(powers, exps)]) / lam
    res = resolvent_neumann(CMatrix(a), lam, k_max)
    assert res.matrix.data.tobytes() == terms.sum(axis=0).tobytes()
    want = helpers.reference_spectral_norms(terms[k_max:])
    assert res.last_term_norm == (want[0] if len(want) else 0.0)


def test_cauchy_recovers_coefficients_with_an_odd_node_count():
    rng = np.random.default_rng(33)
    coeffs = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))

    def oracle(z):
        return ((coeffs[3] * z + coeffs[2]) * z + coeffs[1]) * z + coeffs[0]

    for k, c in enumerate(coeffs):
        assert np.linalg.norm(cauchy_coefficient(oracle, k, nodes=33).data - c) <= 1e-14


def test_cauchy_liouville_echo_is_exactly_zero():
    # bounded entire function: all higher coefficients vanish, and the
    # symmetric node table cancels them without round-off
    c0 = np.array([1.0 + 2.0j, -0.5j])

    def oracle(z):
        return c0

    for k in range(1, 11):
        for radius in (0.5, 1.0, 2.0):
            got = cauchy_coefficient(oracle, k, radius=radius, nodes=64)
            assert np.linalg.norm(got.data) == 0.0


def test_cauchy_respects_radius_scaling():
    def oracle(z):
        return np.array([z**3])

    got = cauchy_coefficient(oracle, 3, radius=2.0, nodes=32)
    assert abs(got.data[0] - 1.0) <= 1e-13


def test_cauchy_scale_keeps_full_precision_below_the_normal_range():
    # c_1030 = 1e-300 of (s z)^1030: radius^-1030 / 1031 as one factor is
    # subnormal at radius 2, which cost two orders of accuracy (1.5e-11);
    # 1.04e-13 at either radius is the rounding of the oracle's own powers
    k = 1030
    s = 10.0 ** (-300 / k)
    for radius in (1.0, 2.0):
        got = cauchy_coefficient(lambda z: np.array([(s * z) ** k]), k, radius=radius, nodes=k + 1)
        assert abs(got.data[0] - s**k) <= 2e-13 * s**k
    # each half of radius^-7 is a float, but radius^-7 is not: z^7 is 0 there
    with pytest.raises(PreconditionError, match="leaves the float range"):
        cauchy_coefficient(lambda z: np.array([z**7]), 7, radius=1e-50, nodes=16)


def test_cauchy_rejects_subnormal_samples():
    # 1e-20 z^6 at radius 1e-50 is subnormal on the circle: its mean would be 1.1e-5 off
    with pytest.raises(PreconditionError, match=r"component 1 are subnormal at radius 1e-50"):
        cauchy_coefficient(lambda z: np.array([1.0, 1e-20 * z**6]), 6, radius=1e-50, nodes=16)


def test_cauchy_node_validation():
    with pytest.raises(PreconditionError):
        cauchy_coefficient(lambda z: np.array([1.0]), 0, radius=1.0, nodes=2)
    with pytest.raises(PreconditionError):
        cauchy_coefficient(lambda z: np.array([1.0]), -1)


def test_scan_zero_matrix_circle():
    grid = [2.0 * cmath.exp(2j * math.pi * m / 16) for m in range(16)]
    samples = resolvent_norm_scan(CMatrix(np.zeros((3, 3))), grid)
    for s in samples:
        assert not s.singular_flag
        assert s.resolvent_norm == pytest.approx(0.5, rel=1e-12)


def test_scan_unitary_distance_formula():
    samples = resolvent_norm_scan(CMatrix(np.diag([1.0, 1j])), [2.0])
    assert samples[0].resolvent_norm == pytest.approx(1.0, rel=1e-9)


def test_scan_flags_spectral_hit():
    samples = resolvent_norm_scan(CMatrix(np.diag([1.0, 0.5])), [1.0, 3.0])
    assert samples[0].singular_flag
    assert not samples[1].singular_flag


def test_scan_eigenvalue_point_is_flagged_and_the_rest_bitwise_unchanged():
    rng = np.random.default_rng(37)
    # upper triangular with 0.5 on the diagonal: lambda = 0.5 zeroes the first column
    a = CMatrix(np.diag([0.5, 0.25j, -0.75, 0.1]) + np.triu(rng.standard_normal((4, 4)), 1))
    grid = [0.5 * cmath.exp(2j * math.pi * m / 16) for m in range(16)]
    assert grid[0] == 0.5
    samples = resolvent_norm_scan(a, grid)
    assert [s.singular_flag for s in samples] == [True] + [False] * 15
    for lam, sample in zip(grid[1:], samples[1:]):
        alone = resolvent_norm_scan(a, [lam])[0].resolvent_norm
        assert np.float64(sample.resolvent_norm).view(np.uint64) == np.float64(alone).view(np.uint64)


def test_scan_flags_an_overflowing_resolvent():
    # the pivot 1e-313 clears 1e-14 of the largest entry, yet 1/1e-313 is inf
    samples = resolvent_norm_scan(CMatrix(1e-300 * np.eye(2)), [1e-300 + 1e-313, 1.0])
    assert [s.singular_flag for s in samples] == [True, False]


def test_resolvent_grids_solve_in_one_stack(monkeypatch):
    calls = []
    solve = resolvent._solve_array

    def counted(a, rhs):
        calls.append(a.shape[0])
        return solve(a, rhs)

    monkeypatch.setattr(resolvent, "_solve_array", counted)
    rng = np.random.default_rng(41)
    u = CMatrix(helpers.random_unitary(rng, 4))
    resolvent_norm_scan(u, [1.5 * cmath.exp(2j * math.pi * m / 32) for m in range(32)])
    assert calls == [32]
    isometry_bound_check(u, [2.0, 0.5j, -3.0])
    assert calls == [32, 3]
    pole_order_probe(CMatrix(np.diag([1.0, -1.0])), 1.0, [1e-2, 1e-3, 1e-4, 1e-5])
    assert calls == [32, 3, 4]


def test_isometry_bound_on_random_unitaries():
    rng = np.random.default_rng(23)
    u = CMatrix(helpers.random_unitary(rng, 5))
    r = np.concatenate([rng.uniform(0.2, 0.99, 100), rng.uniform(1.01, 3.0, 100)])
    lams = list(r * np.exp(1j * rng.uniform(0, 2 * math.pi, 200)))
    report = isometry_bound_check(u, lams)
    assert report.ok
    assert report.samples_checked == 200
    assert report.worst_slack >= -1e-9


def test_isometry_bound_known_value():
    # U = diag(i, -i) at lambda = 2: norm 1/sqrt(5), bound 1/|2-1| = 1
    report = isometry_bound_check(CMatrix(np.diag([1j, -1j])), [2.0])
    assert report.violations == 0
    assert report.worst_slack == pytest.approx(1.0 - 1.0 / math.sqrt(5.0), abs=1e-9)


def test_isometry_bound_rejects_near_circle_sample():
    with pytest.raises(PreconditionError):
        isometry_bound_check(CMatrix(np.diag([1j, -1j])), [1.0000001])


def test_isometry_bound_names_the_first_near_circle_sample():
    samples = [2.0, 0.5, 1.0 + 1e-7j, 3.0, 1.0 - 1e-8]
    with pytest.raises(PreconditionError, match=re.escape(f"sample {complex(1.0 + 1e-7j)!r} is within")):
        isometry_bound_check(CMatrix(np.diag([1j, -1j])), samples)


def test_isometry_bound_with_no_samples_checks_nothing():
    report = isometry_bound_check(CMatrix(np.diag([1j, -1j])), [])
    assert (report.samples_checked, report.violations) == (0, 0)
    assert report.ok


def test_isometry_bound_requires_unitary():
    with pytest.raises(PreconditionError):
        isometry_bound_check(CMatrix(2.0 * np.eye(2)), [2.0])


def test_batched_norms_match_svd():
    rng = np.random.default_rng(29)
    stack = rng.standard_normal((20, 5, 5)) + 1j * rng.standard_normal((20, 5, 5))
    stack[3] = 0.0
    want = np.linalg.svd(stack, compute_uv=False)[:, 0]
    assert np.allclose(_batched_spectral_norms(stack), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [8, 64])
def test_batched_norms_of_unitary_resolvents_match_svd(d):
    rng = np.random.default_rng(31 + d)
    u = helpers.random_unitary(rng, d)
    r = np.concatenate([rng.uniform(0.2, 0.99, 32), rng.uniform(1.01, 3.0, 32)])
    lams = r * np.exp(1j * rng.uniform(0, 2 * math.pi, 64))
    stack = np.stack([np.linalg.inv(lam * np.eye(d) - u) for lam in lams])
    want = np.linalg.svd(stack, compute_uv=False)[:, 0]
    assert np.allclose(_batched_spectral_norms(stack), want, rtol=1e-12, atol=0.0)


def test_pole_order_simple_poles():
    radii = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
    report = pole_order_probe(CMatrix(np.diag([1.0, -1.0])), 1.0, radii)
    assert 0.95 <= report.fitted_order <= 1.05
    report = pole_order_probe(CMatrix(np.diag([1.0, 1j])), 1.0, radii)
    assert report.fitted_order == pytest.approx(1.0, abs=1e-9)


def test_pole_order_preconditions():
    u = CMatrix(np.diag([1.0, -1.0]))
    with pytest.raises(PreconditionError):
        pole_order_probe(u, 1.0, [1e-3, 1e-2, 1e-4, 1e-5])  # not decreasing
    with pytest.raises(PreconditionError):
        pole_order_probe(u, 1j, [1e-2, 1e-3, 1e-4, 1e-5])  # not an eigenvalue
    crowded = CMatrix(np.diag([1.0, cmath.exp(0.005j)]))
    with pytest.raises(PreconditionError):
        # second eigenvalue sits inside twice the largest probe radius
        pole_order_probe(crowded, 1.0, [1e-2, 1e-3, 1e-4, 1e-5])


@pytest.mark.parametrize(
    "call",
    [
        lambda u: isometry_bound_check(u, [math.nan]),
        lambda u: isometry_bound_check(u, [2.0, math.inf]),
        lambda u: pole_order_probe(u, 1.0, [1e-2, math.nan, 1e-4, 1e-5]),
        lambda u: pole_order_probe(u, complex(math.nan, 0.0), [1e-2, 1e-3, 1e-4, 1e-5]),
        lambda u: resolvent_norm_scan(u, [0.5, complex(0.0, math.nan)]),
        lambda u: resolvent_direct(u, complex(math.inf, 1.0)),
    ],
    ids=["isometry-nan", "isometry-inf", "pole-nan-radius", "pole-nan-theta", "scan-nan", "direct-inf"],
)
def test_non_finite_points_are_a_precondition_error(call):
    # each ended in SingularMatrixError, or a singular flag, as if the point were spectral
    with pytest.raises(PreconditionError):
        call(CMatrix(np.eye(3)))


@pytest.mark.parametrize("d", [1, 4, 16, 64])
def test_resolvent_stacks_are_the_loop_inverse_bit_for_bit(d):
    # lambda I - A as the loop builds it, signed zeros included, inverted in place
    rng = np.random.default_rng(60 + d)
    moduli = np.concatenate([rng.uniform(0.2, 0.99, 12), rng.uniform(1.01, 3.0, 12), [0.2, 3.0, -0.5, -2.0]])
    lams = moduli * np.concatenate([np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 24)), np.ones(4)])
    for a in (helpers.random_unitary(rng, d), np.diag(rng.choice([1.0, -1.0, 0.0], d))):
        stack, ok = resolvent._resolvents(CMatrix(a), lams)
        for lam, x, good in zip(lams, stack, ok):
            try:
                want = helpers.loop_solve(lam * np.eye(d) - a, np.eye(d))
            except SingularMatrixError:
                assert not good
                continue
            assert good and x.tobytes() == want.tobytes()
