import math
import tracemalloc
import warnings

import numpy as np
import pytest

import helpers
from seqspectrum import linalg
from seqspectrum.errors import ConvergenceError, PreconditionError, SingularMatrixError
from seqspectrum.linalg import (
    MAX_DIM,
    CMatrix,
    CVector,
    hermitian_defect,
    mat_power_seq,
    mat_solve,
    operator_norm,
    require_unitary,
    solve_vector,
)


def test_cvector_basics():
    v = CVector([1.0, 2.0, 2.0])
    assert v.dim == 3
    assert v.norm() == pytest.approx(3.0)
    with pytest.raises(PreconditionError):
        CVector([[1.0, 2.0]])


def test_cvector_norm_at_extreme_magnitudes():
    assert CVector([1e-200]).norm() == 1e-200
    want = math.sqrt(2.0) * 1e200
    assert abs(CVector([1e200, 1e200]).norm() - want) <= np.spacing(want)


def _norm_test_rows(rng, rows, d):
    """Complex (rows, d) rows at scales 1e-320 .. 1e308, with zero rows and
    rows whose plain norm overflows mixed in."""
    scales = 10.0 ** rng.uniform(-320.0, 308.0, (rows, 1))
    arr = (rng.uniform(-1.0, 1.0, (rows, d)) + 1j * rng.uniform(-1.0, 1.0, (rows, d))) * scales
    arr[rng.random(rows) < 0.05] = 0.0
    arr[rng.random(rows) < 0.05] = 1.5e308 * (1.0 - 1.0j)
    return arr


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 64])
def test_plain_norms_keep_numpys_bits(d):
    # bytes, not closeness: single rows catch a product rounded in place
    rng = np.random.default_rng(d)
    windows = [_norm_test_rows(rng, 1, d) for _ in range(64)] + [_norm_test_rows(rng, 16384, d)]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for arr in windows:
            assert linalg._plain_norms(arr, 1).tobytes() == np.linalg.norm(arr, axis=1).tobytes()
            assert linalg._row_norms(arr).tobytes() == helpers.reference_row_norms(arr).tobytes()
            cols = np.ascontiguousarray(arr.T)  # the scan's (d, K) transforms
            assert linalg._plain_norms(cols, 0).tobytes() == np.linalg.norm(cols, axis=0).tobytes()


def test_cmatrix_validation():
    with pytest.raises(PreconditionError):
        CMatrix(np.zeros((2, 3)))
    with pytest.raises(PreconditionError):
        CMatrix(np.zeros((MAX_DIM + 1, MAX_DIM + 1)))
    eye = CMatrix(np.eye(3))
    assert np.array_equal(eye.data, np.eye(3))


def test_solve_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        got = solve_vector(CMatrix(a), CVector(b))
        want = np.linalg.solve(a, b)
        assert np.linalg.norm(got.data - want) <= 1e-10 * (1 + np.linalg.norm(want))


def test_mat_solve_blocks():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rhs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    got = mat_solve(CMatrix(a), CMatrix(rhs))
    assert np.allclose(a @ got.data, rhs, atol=1e-10)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_vector(CMatrix([[1.0, 1.0], [1.0, 1.0]]), CVector([1.0, 0.0]))


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 32, 64])
def test_stacked_solve_is_bitwise_the_loop(d):
    rng = np.random.default_rng(100 + d)
    gaussian = rng.standard_normal((12, d, d)) + 1j * rng.standard_normal((12, d, d))
    # entries of equal modulus: columns tie for the pivot, some matrices are singular
    signs = rng.choice(np.array([1, -1, 1j, -1j]), (12, d, d))
    for stack in (gaussian, signs):
        for rhs in (np.eye(d), rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))):
            x, ok = linalg._solve_array(stack, rhs)
            for i, a in enumerate(stack):
                try:
                    want = helpers.loop_solve(a, rhs)
                except SingularMatrixError:
                    assert not ok[i]
                    continue
                assert ok[i]
                assert np.array_equal(_bits(x[i]), _bits(want))


@pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 32, 64])
def test_stacked_solve_matches_numpy(d):
    rng = np.random.default_rng(200 + d)
    # U diag(s) W with s in [1, 4]: condition number at most 4
    stack = np.stack(
        [
            helpers.random_unitary(rng, d) @ np.diag(rng.uniform(1.0, 4.0, d)) @ helpers.random_unitary(rng, d)
            for _ in range(8)
        ]
    )
    rhs = rng.standard_normal((8, d, 2)) + 1j * rng.standard_normal((8, d, 2))
    x, ok = linalg._solve_array(stack, rhs)
    assert ok.all()
    want = np.linalg.solve(stack, rhs)
    err = np.linalg.norm(x - want, axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=(1, 2)))


def test_stacked_solve_masks_only_singular_members():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((7, 6, 6)) + 1j * rng.standard_normal((7, 6, 6))
    stack[2] = 0.0
    stack[4, 3] = stack[4, 1]  # equal rows stay equal under elimination: an exact zero pivot
    stack[5] *= 1e-310  # pivots fine relative to the entries, but the inverse overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, ok = linalg._solve_array(stack, np.eye(6))
    assert ok.tolist() == [True, True, False, True, False, False, True]
    for i in (2, 4):
        with pytest.raises(SingularMatrixError):
            helpers.loop_solve(stack[i], np.eye(6))
    want = np.stack([helpers.loop_solve(stack[i], np.eye(6)) for i in np.flatnonzero(ok)])
    assert np.array_equal(_bits(x[ok]), _bits(want))


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        want = np.linalg.norm(a, 2)
        assert operator_norm(CMatrix(a)) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_operator_norm_jordan_block():
    # top singular value of [[1,1],[0,1]] is the golden ratio
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert operator_norm(CMatrix([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(phi, rel=1e-12)


def test_operator_norm_near_tie():
    # singular values 1e-7 apart: a stop rule on the change of a power
    # iterate's Rayleigh quotient halts on the second one
    assert operator_norm(CMatrix(np.diag([1.0, 1.0 - 1e-7, 0.5]))) == pytest.approx(1.0, rel=1e-14)
    assert operator_norm(CMatrix(np.diag([2.0, 1.0]))) == pytest.approx(2.0, rel=1e-14)


def test_norm_kernel_raises_with_open_bracket(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SQUARINGS", 3)
    with pytest.raises(ConvergenceError) as info:
        operator_norm(CMatrix(np.diag([1.0, 1.0 - 1e-7, 0.5])))
    payload = info.value.payload
    assert payload["index"] == 0
    assert payload["lower"] <= 1.0 <= payload["upper"]


def _tied_stack(rng, d, multiplicities, gaps):
    """U diag(s) V for each top multiplicity and gap: s = (1, 1 - gap, ...,
    1 - gap, rest uniform in [0, 0.9])."""
    stack = []
    for mult in multiplicities:
        for gap in gaps:
            s = np.concatenate([[1.0], np.full(mult - 1, 1.0 - gap), rng.uniform(0.0, 0.9, d - mult)])
            stack.append(helpers.random_unitary(rng, d) @ np.diag(s) @ helpers.random_unitary(rng, d))
    return np.array(stack)


@pytest.mark.parametrize("d", [2, 4, 8, 16, 32, 64])
def test_norm_kernel_matches_numpy_on_tied_top_singular_values(d):
    # multiplicity 3 and 4 stall the two-vector Ritz step but must close
    # within _MAX_SQUARINGS all the same
    stack = _tied_stack(np.random.default_rng(300 + d), d, [m for m in (2, 3, 4) if m <= d],
                        [0.0, 1e-15, 1e-13, 1e-10, 1e-6, 1e-2])
    want = np.linalg.norm(stack, ord=2, axis=(1, 2))
    np.testing.assert_allclose(linalg._batched_spectral_norms(stack), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("cap", [9, 10, 11])
def test_open_bracket_after_the_ritz_step_contains_the_norm(monkeypatch, cap):
    # a triple tie keeps the bracket open past the Ritz step, so the
    # payload carries the Ritz bounds themselves
    monkeypatch.setattr(linalg, "_MAX_SQUARINGS", cap)
    stack = _tied_stack(np.random.default_rng(cap), 6, [3], [0.0, 0.0, 0.0])
    with pytest.raises(ConvergenceError) as info:
        linalg._batched_spectral_norms(stack)
    payload = info.value.payload
    want = np.linalg.norm(stack[payload["index"]], 2)
    assert want <= payload["upper"]
    # the lower end is a Rayleigh quotient rounded like numpy's own SVD
    # value, with no margin, so it may sit an ulp or two above it
    assert payload["lower"] <= want * (1.0 + 4.0 * np.finfo(float).eps)


def _open_triple_tie():
    rng = np.random.default_rng(7)
    return helpers.random_unitary(rng, 6) @ np.diag([1.0, 1.0, 1.0, 0.5, 0.2, 0.1]) @ helpers.random_unitary(rng, 6)


@pytest.mark.parametrize("case", ["zero first", "huge", "tiny"])
def test_open_bracket_payload_is_in_the_callers_index_and_units(monkeypatch, case):
    # the triple tie stays open; beside it a zero matrix or one that
    # closes, and the open one may need a power-of-two rescaling
    monkeypatch.setattr(linalg, "_MAX_SQUARINGS", 10)
    t = _open_triple_tie()
    stack, index = {
        "zero first": ([np.zeros((6, 6)), t], 1),
        "huge": ([1e200 * t, np.zeros((6, 6))], 0),
        "tiny": ([np.diag([2.0, 1.0, 0.5, 0.1, 0.1, 0.1]), 1e-200 * t], 1),
    }[case]
    with pytest.raises(ConvergenceError, match="for 1 of 2 matrices") as info:
        linalg._batched_spectral_norms(np.array(stack, dtype=np.complex128))
    payload = info.value.payload
    assert payload["index"] == index
    want = np.linalg.norm(stack[index], 2)
    assert want <= payload["upper"]
    assert payload["lower"] <= want * (1.0 + 4.0 * np.finfo(float).eps)
    assert payload["lower"] >= want * (1.0 - 1e-14)


@pytest.mark.parametrize("d", [2, 8, 64])
def test_ritz_step_bounds_the_second_eigenvalue_from_below(d):
    # theta, the smaller Ritz value less its margin, stays at or below
    # lambda_2 of the Gram power H and is tight when the top pair spans
    # all but a sliver of H; theta = 0 is the plain trace bound.  The top
    # Ritz quotient is at most the norm, and tight for a tie of two.
    rng = np.random.default_rng(400 + d)
    mults = [m for m in (1, 2, 3, 4) if m <= d]
    a = _tied_stack(rng, d, mults, [0.0, 1e-10, 1e-2])
    scale = np.linalg.norm(a, axis=(1, 2))
    h = np.matmul(a.conj().swapaxes(1, 2), a)
    for _ in range(8):
        h = np.matmul(h, h)
        h /= np.trace(h, axis1=1, axis2=2).real[:, None, None]
    lower, theta = linalg._ritz_bounds(a, scale, np.arange(len(a)), h)
    lam2 = np.linalg.eigvalsh(h)[:, -2]
    assert np.all((theta == 0.0) | (theta <= lam2)) and np.all(lam2 - theta <= 1e-11)
    want = np.linalg.norm(a, ord=2, axis=(1, 2)) / scale
    assert np.all(lower <= want * (1.0 + 4.0 * np.finfo(float).eps))
    pair = np.repeat(mults, 3) <= 2
    np.testing.assert_allclose(lower[pair], want[pair], rtol=1e-14, atol=0.0)


def _peripheral_normal(rng, d, peripheral):
    """Normal matrix with eigenvalues 1 (and e^(i phi) when ``peripheral``
    is 2) and the rest of modulus in [0.3, 0.8]."""
    unimodular = [1.0, np.exp(1j * rng.uniform(0.5, 2.0 * np.pi - 0.5))][:peripheral]
    interior = rng.uniform(0.3, 0.8, d - peripheral) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d - peripheral))
    q = helpers.random_unitary(rng, d)
    return q @ np.diag(np.concatenate([unimodular, interior])) @ q.conj().T


def _squarings(monkeypatch, call):
    """``(call(), n)``, n the number of matrices ``call`` squared with np.matmul."""
    squared = []
    matmul = np.matmul

    def counting(x, y, *args, **kwargs):
        if x is y:
            squared.append(x.shape[0])
        return matmul(x, y, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "matmul", counting)
        return call(), sum(squared)


def test_tied_power_sequence_takes_few_squarings(monkeypatch):
    # every power of a matrix with two unimodular eigenvalues has a tied
    # top pair; without the Ritz step each took about 44 squarings
    a = _peripheral_normal(np.random.default_rng(16), 16, 2)
    _, squared = _squarings(monkeypatch, lambda: mat_power_seq(CMatrix(a), 512))
    assert squared <= 12 * 512


@pytest.mark.parametrize("peripheral", [1, 2])
@pytest.mark.parametrize("d, n_max", [(4, 512), (16, 512), (64, 64)])
def test_mat_power_seq_matches_numpy(peripheral, d, n_max):
    a = _peripheral_normal(np.random.default_rng(10 * d + peripheral), d, peripheral)
    powers = np.array([np.linalg.matrix_power(a, n) for n in range(1, n_max + 1)])
    want = np.log(np.linalg.norm(powers, ord=2, axis=(1, 2)))
    np.testing.assert_allclose(mat_power_seq(CMatrix(a), n_max), want, rtol=0.0, atol=1e-13)


def test_operator_norm_zero_matrix():
    assert operator_norm(CMatrix(np.zeros((3, 3)))) == 0.0


def test_norm_kernel_gives_non_finite_matrices_an_infinite_norm():
    stack = np.array([np.zeros((2, 2)), [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan], [0.0, 1.0]], np.eye(2)])
    np.testing.assert_array_equal(linalg._batched_spectral_norms(stack), [0.0, np.inf, np.inf, 1.0])


def test_norm_kernel_takes_an_empty_stack():
    norms = linalg._batched_spectral_norms(np.zeros((0, 3, 3)))
    assert norms.shape == (0,)


EXTREME_MATRICES = [
    np.diag([1e-200, 5e-201]),  # Frobenius norm underflows to 0
    np.diag([1e200, 5e199]),  # Frobenius norm overflows to inf
    np.full((2, 2), 5e-324),  # subnormal entries
    np.array([[1e200, 3e199j], [-2e199, 5e199]]),
    # a tied top pair coupled at 1e-160: the Ritz vector's entries would underflow
    np.array([[1.0, 1e-160, 0.0], [0.0, 1.0, 1e-160], [0.0, 0.0, 0.5]]),
]


@pytest.mark.parametrize("a", EXTREME_MATRICES)
def test_operator_norm_at_extreme_magnitudes_matches_svd(a):
    # RuntimeWarnings are errors in this suite, so this also checks for none
    want = np.linalg.svd(a, compute_uv=False)[0]
    assert operator_norm(CMatrix(a)) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_rescaled_matrices_leave_the_rest_of_the_stack_bitwise():
    rng = np.random.default_rng(3)
    plain = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    mixed = np.concatenate([plain[:2], np.zeros((1, 3, 3)), 1e-200 * plain[2:3], plain[2:], 1e200 * plain[3:]])
    norms = linalg._batched_spectral_norms(mixed)
    np.testing.assert_array_equal(norms[[0, 1, 4, 5]], linalg._batched_spectral_norms(plain))
    assert norms[2] == 0.0
    want = np.linalg.svd(mixed[[3, 6]], compute_uv=False)[:, 0]
    np.testing.assert_allclose(norms[[3, 6]], want, rtol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_zero_matrices_leave_the_rest_of_the_stack_bitwise(seed):
    # a few zero matrices, then mostly zero ones; odd seeds add a NaN and a rescaled matrix
    rng = np.random.default_rng(seed)
    d, s = 2 + seed, 12
    plain = rng.standard_normal((s, d, d)) + 1j * rng.standard_normal((s, d, d))
    zero = rng.random(s) < (0.2 if seed < 3 else 0.8)
    mixed = np.where(zero[:, None, None], 0.0, plain)
    if seed % 2:
        mixed = np.concatenate([mixed, np.full((1, d, d), np.nan), 1e-200 * plain[:1]])
    norms = linalg._batched_spectral_norms(mixed)
    np.testing.assert_array_equal(norms[:s][~zero], linalg._batched_spectral_norms(plain[~zero]))
    assert not norms[:s][zero].any()


def _kernel_run(kernel, stack, monkeypatch):
    """``(outcome, squarings)`` of one kernel call: the int64 view of the
    norms, or the message and payload of its ConvergenceError, and the
    number of matrices it squared."""

    def call():
        try:
            return kernel(stack).view(np.int64).tolist()
        except ConvergenceError as exc:
            return str(exc), repr(exc.payload)

    return _squarings(monkeypatch, call)


def _unimodular_normal_powers(rng, d, peripheral, count):
    """A, ..., A^count for a normal A with ``peripheral`` unimodular
    eigenvalues and the rest of modulus in [0.3, 0.8]."""
    eigs = np.concatenate([
        np.exp(2j * np.pi * rng.uniform(0.0, 1.0, peripheral)),
        rng.uniform(0.3, 0.8, d - peripheral) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d - peripheral)),
    ])
    q = helpers.random_unitary(rng, d)
    powers = [q @ np.diag(eigs) @ q.conj().T]
    for _ in range(count - 1):
        powers.append(powers[0] @ powers[-1])
    return np.array(powers)


def _reference_stack(case):
    kind, _, arg = case.partition("-")
    rng = np.random.default_rng(sum(map(ord, case)))
    if kind == "gaussian":
        d = int(arg)
        return rng.standard_normal((12, d, d))
    if kind == "ginibre":
        d = int(arg)
        return (rng.standard_normal((12, d, d)) + 1j * rng.standard_normal((12, d, d))) / np.sqrt(2 * d)
    if kind == "powers":
        d, peripheral = map(int, arg.split("x"))
        return _unimodular_normal_powers(rng, d, peripheral, 48)
    if kind == "extreme":
        return np.asarray(EXTREME_MATRICES[int(arg)])[None]
    if kind == "near1e300":
        return 1e300 * (rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3)))
    if kind == "mixed":
        plain = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        nan, inf = np.full((5, 5), np.nan), np.diag([np.inf, 1.0, 1.0, 1.0, 1.0])
        return np.array([plain[0], np.zeros((5, 5)), 1e-200 * plain[1], nan, plain[2], 1e200 * plain[3], inf])
    assert kind == "empty"
    return np.zeros((0, 3, 3))


@pytest.mark.parametrize(
    "case",
    [f"{kind}-{d}" for kind in ("gaussian", "ginibre") for d in (1, 2, 4, 8, 16, 32, 64)]
    + [f"powers-{d}x{p}" for d in (6, 16) for p in (2, 3, 4)]
    + [f"extreme-{i}" for i in range(len(EXTREME_MATRICES))]
    + ["near1e300", "mixed", "empty"],
)
def test_norm_kernel_is_the_reference_bit_for_bit(monkeypatch, case):
    # the kernel's per-level cuts keep every returned bit and every squaring
    stack = _reference_stack(case)
    assert _kernel_run(linalg._batched_spectral_norms, stack, monkeypatch) == _kernel_run(
        helpers.reference_spectral_norms, stack, monkeypatch
    )


@pytest.mark.parametrize("cap", [9, 10, 11])
@pytest.mark.parametrize("case", ["triple ties", "mixed"])
def test_forced_open_kernel_is_the_reference_bit_for_bit(monkeypatch, cap, case):
    monkeypatch.setattr(linalg, "_MAX_SQUARINGS", cap)
    rng = np.random.default_rng(cap)
    stack = _tied_stack(rng, 6, [3], [0.0, 0.0, 0.0])
    if case == "mixed":
        stack = np.concatenate([np.zeros((1, 6, 6)), 1e-200 * stack[:1], np.full((1, 6, 6), np.nan), stack[1:], np.eye(6)[None]])
    got = _kernel_run(linalg._batched_spectral_norms, stack, monkeypatch)
    assert isinstance(got[0], tuple)  # the bracket stays open
    assert got == _kernel_run(helpers.reference_spectral_norms, stack, monkeypatch)


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("case", ["mixed", "ginibre-8", "powers-6x3", "extreme-4"])
def test_norm_kernel_in_chunks_is_the_reference_bit_for_bit(monkeypatch, rows, case):
    # each matrix's bracket depends on that matrix alone, so chunks of any
    # size keep every bit and every squaring of one whole-stack run
    stack = _reference_stack(case)
    monkeypatch.setattr(linalg, "_NORM_CHUNK_ENTRIES", rows * stack[0].size)
    assert _kernel_run(linalg._batched_spectral_norms, stack, monkeypatch) == _kernel_run(
        helpers.reference_spectral_norms, stack, monkeypatch
    )


def test_open_bracket_past_the_first_chunk_keeps_its_meaning(monkeypatch):
    # at d = 64 a chunk holds 16 matrices; the open triple ties sit in the
    # second and third, one of them scaled by 2^-k in a copy of its chunk,
    # and the error counts both and names the widest by the caller's index
    monkeypatch.setattr(linalg, "_MAX_SQUARINGS", 10)
    rng = np.random.default_rng(64)
    assert linalg._NORM_CHUNK_ENTRIES // 64**2 == 16
    stack = rng.standard_normal((40, 64, 64)) + 1j * rng.standard_normal((40, 64, 64))
    stack[20], stack[37] = _tied_stack(rng, 64, [3], [0.0, 0.0])
    stack[37] *= 1e-200
    got = _kernel_run(linalg._batched_spectral_norms, stack, monkeypatch)
    assert got == _kernel_run(helpers.reference_spectral_norms, stack, monkeypatch)
    (message, payload), _ = got
    assert "for 2 of 40 matrices" in message and ("'index': 20," in payload or "'index': 37," in payload)


def test_div_real_is_numpys_quotient_up_to_the_sign_of_zero():
    # parts from 2^-1074 to 2^1000 and zeros of both signs, over ordinary
    # divisors, large and small ones, and one whose reciprocal overflows
    rng = np.random.default_rng(21)
    r = np.array([1.0, -3.0, 0.1, 7e-5, 2.0**-1000, -(2.0**1000), 1e300, 2.0**-1030, 3e-310])[:, None]
    parts = rng.choice([-1.0, 1.0], (len(r), 4096)) * np.ldexp(rng.uniform(1.0, 2.0, (len(r), 4096)), rng.integers(-1074, 1001, (len(r), 4096)))
    parts[:, :512] = rng.choice([-0.0, 0.0], (len(r), 512))
    rng.permuted(parts, axis=1, out=parts)
    z = parts.view(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range, and 0 times an infinite reciprocal
        want = (z / r).view(np.float64)
        got = linalg._div_real(z.copy(), r).view(np.float64)
    np.testing.assert_array_equal(got, want)
    differ = got.view(np.int64) != want.view(np.int64)
    assert differ.any() and (want[differ] == 0.0).all()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 32, 64])
def test_diagonal_sum_is_the_trace_bit_for_bit(d):
    # the norm kernel's trace; summing the real parts alone rounds differently
    rng = np.random.default_rng(d)
    for s in (1, 7, 512):
        g = (rng.standard_normal((s, d, d)) + 1j * rng.standard_normal((s, d, d))) * np.exp(rng.uniform(-20.0, 20.0, (s, d, d)))
        want = np.trace(g, axis1=1, axis2=2).real
        got = np.diagonal(g, axis1=1, axis2=2).sum(axis=1).real
        assert (got.view(np.int64) == want.view(np.int64)).all()


def _kernel_peak(stack):
    tracemalloc.start()
    try:
        linalg._batched_spectral_norms(stack)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_zero_matrix_does_not_copy_the_stack():
    rng = np.random.default_rng(4)
    plain = rng.standard_normal((512, 64, 64)) + 1j * rng.standard_normal((512, 64, 64))
    zeroed = plain.copy()
    zeroed[-1] = 0.0
    assert _kernel_peak(zeroed) <= _kernel_peak(plain) + plain[0].nbytes


@pytest.mark.parametrize("odd", ["nan", "tiny"])
def test_an_odd_matrix_copies_only_its_chunk(odd):
    # a NaN matrix is zeroed, and one scaled by 1e-200 rescaled, in a copy
    # of its own chunk; the whole (512, 64, 64) stack is 32 chunks
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((512, 64, 64)) + 1j * rng.standard_normal((512, 64, 64))
    if odd == "nan":
        stack[-1] = np.nan
    else:
        stack[-1] *= 1e-200
    assert _kernel_peak(stack) <= 4 * 16 * linalg._NORM_CHUNK_ENTRIES


def test_mat_power_seq_diagonal_decay():
    logs = mat_power_seq(CMatrix(np.diag([0.5, 0.25])), 12)
    assert logs.dtype == np.float64 and logs.shape == (12,)
    n = np.arange(1, 13)
    np.testing.assert_allclose(logs, n * math.log(0.5), rtol=1e-10)


def test_mat_power_seq_rescales_large_powers():
    # 3^1000 ~ 1.3e477 overflows float range by a wide margin; the running
    # rescale keeps log norms accurate at every n, including the ones
    # sitting just under the rescale threshold
    logs = mat_power_seq(CMatrix(3.0 * np.eye(2)), 1000)
    assert logs.shape == (1000,)
    n = np.arange(1, 1001)
    np.testing.assert_allclose(logs, n * math.log(3.0), rtol=1e-12, atol=0.0)


def test_mat_power_seq_rescales_a_matrix_past_the_window():
    # A @ A of entries 1.5e308 overflows; the loop runs on A / 1.5e308
    # and adds ln 1.5e308 at each step
    logs = mat_power_seq(CMatrix(np.full((2, 2), 1.5e308)), 4)
    n = np.arange(1, 5)
    np.testing.assert_allclose(logs, n * (math.log(1.5e308) + math.log(2.0)), rtol=1e-15)


def test_mat_power_seq_nilpotent():
    logs = mat_power_seq(CMatrix([[0.0, 1.0], [0.0, 0.0]]), 8)
    assert logs.shape == (8,)
    assert logs[0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(logs[1:] == -np.inf)


def test_pow2_unscaled_inverts_pow2_scaled():
    rng = np.random.default_rng(3)
    magnitudes = np.array([1e-310, 1e-200, 1.0, 1e300])[:, None, None]
    arr = (rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))) * magnitudes
    scaled, exps = linalg._pow2_scaled(arr)
    assert (linalg._pow2_unscaled(scaled, exps) == arr).all()
    assert linalg._pow2_unscaled(arr, np.zeros(4, dtype=int)) is arr
    # past the float range is inf, with no warning
    assert linalg._pow2_unscaled(np.array([1.0, 1.0]), np.array([1023, 1024])).tolist() == [2.0**1023, math.inf]


@pytest.mark.parametrize("factor", [3.0, 0.05])
@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_power_stack_unscaled_is_the_plain_loop_bit_for_bit(d, factor):
    # every rescale is an exact power of two, so scaling back gives the
    # plain loop's A^n wherever that loop stays in range
    rng = np.random.default_rng(d)
    a = factor * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    n_max = 400
    _, powers, exps = helpers.joined_power_stack(a, n_max)
    assert exps.dtype == np.int64
    got = linalg._pow2_unscaled(powers, exps)
    p, in_range = a, []
    for n in range(n_max):
        if n:
            with np.errstate(over="ignore", invalid="ignore"):  # the plain loop leaves the float range
                p = a @ p
        if 1e-280 <= np.abs(p).max() <= 1e300:
            in_range.append(n)
            assert (got[n].view(np.uint64) == p.view(np.uint64)).all(), n
    assert (exps[in_range] != 0).sum() >= 100  # the rescaled powers are checked


def _power_cases():
    """(A, n_max values) pairs for the block range checks of ``_power_stack``."""
    rng = np.random.default_rng(29)
    for d in (1, 2, 3, 4, 8, 16, 64):
        g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)
        nilpotent = np.triu(g, 1)
        # growing, decaying and unimodular spectra; entries past the rescale
        # window (1e120 is scaled before the loop); spectral radii 1e-30 and
        # 1e30, which cross the window every few powers; nilpotent and zero
        cases = [g, 1e120 * g, 1e-30 * g, nilpotent]
        if d < 64:  # each power stack at d = 64 takes a norm kernel call of about 30 ms
            cases += [2.0 * g, 0.5 * g, 1e-120 * g, 1e30 * g, 1e90 * nilpotent, np.zeros((d, d), dtype=np.complex128)]
        for a in cases:
            yield a, (1, 7, 64) if d == 64 else (1, 2, 3, 7, 64, 512)
    for j in range(1, 40):
        # c^n I first leaves [1e-100, 1e100] at n = j + 1 and crosses it again
        # every j or j + 1 powers after, so the first power out of range falls
        # at every offset in a block, its first power included
        c = 10.0 ** (100.0 / (j + 0.5))
        yield c * np.eye(2, dtype=np.complex128), (64,)
        yield np.eye(2, dtype=np.complex128) / c, (64,)


def test_power_stack_checks_ranges_a_block_at_a_time_bit_for_bit():
    # logs, powers and exps are the one-power-at-a-time loop's, bit for bit
    for a, n_maxes in _power_cases():
        for n_max in n_maxes:
            got, want = helpers.joined_power_stack(a, n_max), helpers.reference_power_stack(a, n_max)
            for x, y in zip(got, want):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), (len(a), n_max)


def test_power_stack_in_small_chunks_is_the_reference_bit_for_bit(monkeypatch):
    # chunk ends fall inside blocks, on rescales and on the nilpotent stop;
    # the chunks joined are the one-power-at-a-time loop's, bit for bit
    for a, n_maxes in _power_cases():
        for n_max in n_maxes:
            if n_max != 64 or len(a) == 64:  # d = 64 already runs in chunks of 16
                continue
            want = helpers.reference_power_stack(a, n_max)
            for rows in (3, 5):
                monkeypatch.setattr(linalg, "_NORM_CHUNK_ENTRIES", rows * a.size)
                got = helpers.joined_power_stack(a, n_max)
                for x, y in zip(got, want):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes(), (len(a), n_max, rows)


def test_power_stack_open_bracket_is_the_whole_stacks(monkeypatch):
    # every power of a normal matrix with three unimodular eigenvalues has
    # a triple tie; with the squarings capped each stays open, and the
    # error of the streamed powers is the whole stack's, its index n - 1
    monkeypatch.setattr(linalg, "_MAX_SQUARINGS", 10)
    monkeypatch.setattr(linalg, "_NORM_CHUNK_ENTRIES", 5 * 36)
    rng = np.random.default_rng(3)
    eigs = np.concatenate([np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 3)), [0.5, 0.3, 0.2]])
    q = helpers.random_unitary(rng, 6)
    a = q @ np.diag(eigs) @ q.conj().T
    with pytest.raises(ConvergenceError) as got:
        helpers.joined_power_stack(a, 12)
    with pytest.raises(ConvergenceError) as want:
        helpers.reference_power_stack(a, 12)
    assert str(got.value) == str(want.value) and "for 12 of 12 matrices" in str(got.value)
    assert got.value.payload == want.value.payload


def test_unitarity_defect():
    rng = np.random.default_rng(11)
    u = helpers.random_unitary(rng, 5)
    assert hermitian_defect(CMatrix(u)) <= 1e-12
    assert hermitian_defect(CMatrix(2.0 * np.eye(2))) == pytest.approx(3.0)


def test_require_unitary():
    rng = np.random.default_rng(12)
    require_unitary(CMatrix(helpers.random_unitary(rng, 4)))
    with pytest.raises(PreconditionError):
        require_unitary(CMatrix(2.0 * np.eye(2)))
    # U^H U - I = [[inf]]: a defect past the float range is no pass
    with pytest.raises(PreconditionError):
        require_unitary(CMatrix([[1e200]]))
