import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from seqspectrum import eigen
from seqspectrum.eigen import (
    Polynomial,
    _circular_runs,
    _cluster_peripheral,
    cayley_hamilton_residual,
    char_poly,
    gelfand_radius_estimate,
    poly_roots,
    power_bounded_probe,
    spectrum_info,
)
from seqspectrum.errors import ConvergenceError, PreconditionError
from seqspectrum.linalg import CMatrix, operator_norm


def test_char_poly_known_2x2():
    p = char_poly(CMatrix([[1.0, 2.0], [3.0, 4.0]]))
    # z^2 - 5z - 2, ascending order
    assert np.allclose(p.coeffs, [-2.0, -5.0, 1.0])


def test_char_poly_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        got = np.asarray(char_poly(CMatrix(a)).coeffs)
        want = np.poly(a)[::-1]  # numpy returns descending coefficients
        scale = 1.0 + np.abs(want).max()
        assert np.allclose(got, want, atol=1e-8 * scale)


def test_polynomial_evaluation():
    p = Polynomial([1.0, 0.0, -1.0])  # 1 - z^2
    assert p(2.0) == pytest.approx(-3.0)
    assert p(1j) == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [[1.0, np.nan], [np.inf, 1.0], [1.0, complex(0.0, -np.inf)]])
def test_polynomial_rejects_non_finite_coefficients(bad):
    with pytest.raises(PreconditionError, match="finite"):
        Polynomial(bad)


def test_poly_roots_match_numpy():
    rng = np.random.default_rng(9)
    for _ in range(10):
        deg = int(rng.integers(2, 9))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        got = poly_roots(Polynomial(coeffs))
        want = np.roots(coeffs[::-1])
        assert helpers.multiset_distance(got, want) <= 1e-7


def test_poly_roots_repeated_root():
    # (z - 1)^2 (z + 2) = z^3 - 3z + 2; double roots converge slower
    got = sorted(poly_roots(Polynomial([2.0, -3.0, 0.0, 1.0])), key=lambda z: z.real)
    assert abs(got[0] - (-2.0)) <= 1e-8
    assert abs(got[1] - 1.0) <= 1e-5
    assert abs(got[2] - 1.0) <= 1e-5


def test_spectrum_info_matches_numpy_eig():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        info = spectrum_info(CMatrix(a))
        want = np.linalg.eigvals(a)
        assert helpers.multiset_distance(info.eigenvalues, want) <= 1e-6
        assert info.spectral_radius == pytest.approx(np.abs(want).max(), rel=1e-6)


def test_spectrum_info_similarity_invariance():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    _, v = helpers.diagonalizable(rng, np.ones(5), cond=100.0)
    b = v @ a @ np.linalg.inv(v)
    ea = spectrum_info(CMatrix(a)).eigenvalues
    eb = spectrum_info(CMatrix(b)).eigenvalues
    assert helpers.multiset_distance(ea, eb) <= 1e-6


ORACLE_DIMS = (1, 2, 4, 8, 16, 32, 64)


def _jordan(d, lam):
    return lam * np.eye(d) + np.eye(d, k=1)


def _oracle_case(name):
    """(A, normal) for one named case of the eigen oracle sweep, seeded by
    its name; the Haar-conjugated spectra are built as the operator
    benchmark builds them: 1 (and a second unit point) plus interior
    points of modulus 0.2-0.8."""
    rng = np.random.default_rng([ord(c) for c in name])
    kind, _, rest = name.partition("-")
    if kind in ("gaussian", "ginibre"):
        d, r = (int(v) for v in rest.split("-r"))
        g = rng.standard_normal((d, d)) / np.sqrt(d)
        if kind == "ginibre":
            g = (g + 1j * rng.standard_normal((d, d)) / np.sqrt(d)) / np.sqrt(2.0)
        return r * g, False
    if kind in ("one", "two"):
        d = int(rest)
        units = [1.0] if kind == "one" else [1.0, np.exp(1j * rng.uniform(0.5, 2.0 * np.pi - 0.5))]
        interior = rng.uniform(0.2, 0.8, d - len(units)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d - len(units)))
        q = helpers.random_unitary(rng, d)
        return q @ np.diag(np.concatenate([units, interior])) @ q.conj().T, True
    fixed = {
        "jordan16": (_jordan(16, 0.9), False),
        "jordan64": (_jordan(64, 1.0), False),
        "fold63": (np.diag([1.0] + [0.5] * 63), True),
        "diag2e4": (2e4 * np.eye(64), True),
        "zero": (np.zeros((8, 8)), True),
        # (z - 1)^3 (z + 2) = z^4 - z^3 - 3z^2 + 5z - 2
        "companion": (np.array([[1.0, 3.0, -5.0, 2.0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]), False),
    }
    a, normal = fixed[kind]
    if rest == "conj":
        q = helpers.random_unitary(rng, a.shape[0])
        a = q @ a @ q.conj().T
    return a, normal


ORACLE_CASES = [
    *(f"{kind}-{d}-r{r}" for kind in ("gaussian", "ginibre") for d in ORACLE_DIMS for r in (1, 2)),
    *(f"one-{d}" for d in ORACLE_DIMS),
    *(f"two-{d}" for d in ORACLE_DIMS if d > 1),
    "jordan16",
    "jordan16-conj",
    "jordan64",
    "jordan64-conj",
    "fold63-conj",
    "diag2e4",
    "zero",
    "companion",
]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_spectrum_info_meets_the_backward_error_oracle(name):
    a, normal = _oracle_case(name)
    helpers.check_eigenvalues(a, spectrum_info(CMatrix(a)).eigenvalues, normal)


def _times_pow2(z, k):
    """z * 2^k for a complex array, part by part."""
    return np.ldexp(np.ascontiguousarray(z, dtype=np.complex128).view(np.float64), k).view(np.complex128)


def _extreme_matrix(kind, d, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == "subnormal":
        return _times_pow2(a, -1060)
    if kind == "zero-rows":
        a[rng.random(d) < 0.5] = 0.0
    elif kind == "rank-one":
        a = np.outer(rng.standard_normal(d), rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return _times_pow2(a, k)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["gaussian", "subnormal", "zero-rows", "rank-one"]),
    st.integers(1, 8),
    st.integers(-1000, 1000),
    st.integers(0, 2**32 - 1),
)
def test_spectrum_info_on_extreme_inputs_is_finite_or_a_documented_error(kind, d, k, seed):
    a = _extreme_matrix(kind, d, k, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            eigs = np.asarray(spectrum_info(CMatrix(a)).eigenvalues)
        except (ConvergenceError, PreconditionError):
            return
    assert eigs.shape == (d,) and np.isfinite(eigs).all()
    # every eigenvalue lies in |z| <= ||A||_2 <= ||A||_F, up to the rounding
    # of a subnormal result (at most 2^-1074 a part), compared in a frame
    # scaled by an exact power of two
    e = int(np.frexp(np.max(np.abs(a.view(np.float64))))[1])
    bound = (1.0 + 1e-12) * np.linalg.norm(_times_pow2(a, -e)) + 2.0 ** (-1073 - e)
    assert np.all(np.abs(_times_pow2(eigs, -e)) <= bound)


def test_peripheral_selection():
    a = CMatrix(np.diag([1.0, 0.5, np.exp(1j * np.pi / 3)]))
    info = spectrum_info(a)
    per = sorted(info.peripheral, key=lambda z: np.angle(z))
    assert len(per) == 2
    assert abs(per[0] - 1.0) <= 1e-9
    assert abs(per[1] - np.exp(1j * np.pi / 3)) <= 1e-9
    # peripheral points come back exactly unimodular
    for t in per:
        assert abs(abs(t) - 1.0) <= 1e-15


def test_peripheral_cluster_merges_across_angle_zero():
    points = [np.exp(1e-9j), np.exp(-1e-9j)]
    (rep,) = _cluster_peripheral(points, 1e-8)
    assert abs(rep - 1.0) <= 1e-15


def _brute_force_runs(points, gap, period):
    """Connected components of the points under circular distance <= gap,
    each as a set of indices: every pair is compared."""
    n = len(points)
    label = list(range(n))
    for i in range(n):
        for j in range(n):
            dist = abs(points[i] - points[j]) % period
            if min(dist, period - dist) <= gap:
                old, new = label[j], label[i]
                label = [new if lab == old else lab for lab in label]
    return sorted(sorted(i for i in range(n) if label[i] == lab) for lab in set(label))


def _check_runs(points, gap, period):
    runs = _circular_runs(np.asarray(points), gap, period)
    assert all(np.all(np.diff(run) > 0) for run in runs)
    # only the first run may start below zero, by less than one period
    assert runs[0][0] > -period and all(run[0] >= 0 for run in runs[1:])
    # each run member is the nearest point, once shifted back up
    groups = [sorted(int(np.argmin(np.abs(np.asarray(points) - p % period))) for p in run) for run in runs]
    assert sorted(groups) == _brute_force_runs(points, gap, period)


@pytest.mark.parametrize("seed", range(12))
def test_circular_runs_match_brute_force_grouping(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(8, 64))
    idx = np.flatnonzero(rng.random(k) < rng.uniform(0.2, 0.9))
    if idx.size:
        _check_runs(idx.tolist(), 1, k)
    angs = np.sort(rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(1, 30))))
    _check_runs(angs.tolist(), float(rng.uniform(0.05, 0.5)), 2.0 * np.pi)


def test_circular_runs_edge_cases():
    _check_runs([5], 1, 16)
    (run,) = _circular_runs(np.arange(16), 1, 16)  # all K grid points: one run, unshifted
    np.testing.assert_array_equal(run, np.arange(16))
    runs = _circular_runs(np.array([0, 1, 5, 14, 15]), 1, 16)  # a run across the wrap
    assert [r.tolist() for r in runs] == [[-2, -1, 0, 1], [5]]
    _check_runs([0, 1, 5, 14, 15], 1, 16)
    runs = _circular_runs(np.array([0.1, 3.0, 6.2]), 0.2, 2.0 * np.pi)
    assert len(runs) == 2 and runs[0][0] == 6.2 - 2.0 * np.pi


def test_cayley_hamilton_residual():
    rng = np.random.default_rng(30)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        a = CMatrix(helpers.disk_matrix(rng, d))
        res = cayley_hamilton_residual(a)
        assert res <= 1e-8 * (1.0 + operator_norm(a)) ** d


def test_power_bounded_probe_contraction():
    verdict = power_bounded_probe(CMatrix(np.diag([0.5, 0.25])), 128, 1e6)
    assert verdict.bounded
    assert verdict.growth_class == "decaying"


def test_power_bounded_probe_expansion():
    verdict = power_bounded_probe(CMatrix(2.0 * np.eye(2)), 64, 1e6)
    assert not verdict.bounded
    assert verdict.growth_class == "exponential-suspect"


def test_power_bounded_probe_jordan_growth():
    # norms grow like n: stays under the default bound but is flagged
    verdict = power_bounded_probe(CMatrix([[1.0, 1.0], [0.0, 1.0]]), 256, 1e6)
    assert verdict.growth_class == "polynomial-suspect"


def test_power_bounded_probe_verdict_agrees_with_its_sup_norm_near_the_float_limit():
    # ln 2**1011 = 700.8: inside the float range, so the sup norm is finite
    verdict = power_bounded_probe(CMatrix([[2.0]]), 1012, 1e306)
    assert 700.0 < verdict.sup_log_norm < 709.78
    assert verdict.sup_norm <= verdict.bound
    assert verdict.bounded is True
    assert power_bounded_probe(CMatrix([[2.0]]), 1012, 1e304).bounded is False


@pytest.mark.parametrize("bound, bounded", [(1e306, False), (np.finfo(float).max, False), (np.inf, True)])
def test_power_bounded_probe_past_the_float_range(bound, bounded):
    verdict = power_bounded_probe(CMatrix([[2.0]]), 1030, bound)
    assert verdict.sup_norm == np.inf
    assert verdict.bounded is bounded


def test_power_bounded_probe_rejects_tiny_n_max():
    with pytest.raises(PreconditionError):
        power_bounded_probe(CMatrix(np.eye(2)), 4, 1e6)


def test_gelfand_diagonal():
    report = gelfand_radius_estimate(CMatrix(np.diag([2.0, 1.0])), 64)
    assert report.estimate == pytest.approx(2.0, rel=1e-12)
    assert not report.nilpotent


def test_gelfand_nilpotent_flag():
    report = gelfand_radius_estimate(CMatrix([[0.0, 1.0], [0.0, 0.0]]), 32)
    assert report.nilpotent
    assert report.estimate == 0.0


def test_gelfand_nonnormal():
    # eigenvalues +-1 but the matrix is far from normal
    report = gelfand_radius_estimate(CMatrix([[0.0, 2.0], [0.5, 0.0]]), 256)
    assert abs(report.estimate - 1.0) <= 0.05 * 2.0


def test_gelfand_reads_only_the_norm_sequence(monkeypatch):
    # large, defective and clustered spectra; since
    # ||A^n||^(1/n) >= rho for every n, the estimate stays above rho up
    # to log/exp rounding (diag(1e200) reads 9.999999999999084e199)
    def no_eigenvalues(*args):
        raise AssertionError("gelfand computed eigenvalues")

    monkeypatch.setattr(eigen, "char_poly", no_eigenvalues)
    monkeypatch.setattr(eigen, "_eigenvalues", no_eigenvalues)
    rng = np.random.default_rng(64)
    g = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / np.sqrt(2.0)
    g *= 2.0 / np.max(np.abs(np.linalg.eigvals(g)))
    u = helpers.random_unitary(rng, 64)
    cases = [
        (g, 64),  # radius 2 at d = 64
        (np.eye(64) + np.eye(64, k=1), 64),  # J_64(1)
        (np.diag([1e200, 1e200]), 64),
        (0.9 * np.eye(16) + np.eye(16, k=1), 512),  # J_16(0.9)
        (u @ np.diag([1.0] + [0.5] * 63) @ u.conj().T, 64),
    ]
    for a, n_max in cases:
        report = gelfand_radius_estimate(CMatrix(a), n_max)
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        assert not report.nilpotent
        assert report.estimate >= rho * (1.0 - 1e-12)
