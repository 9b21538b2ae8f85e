import math

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


def test_cmatrix_validation():
    with pytest.raises(PreconditionError):
        CMatrix(np.zeros((2, 3)))
    with pytest.raises(PreconditionError):
        CMatrix(np.zeros((MAX_DIM + 1, MAX_DIM + 1)))
    eye = CMatrix.identity(3)
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


def test_operator_norm_zero_matrix():
    assert operator_norm(CMatrix(np.zeros((3, 3)))) == 0.0


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


def test_mat_power_seq_nilpotent():
    logs = mat_power_seq(CMatrix([[0.0, 1.0], [0.0, 0.0]]), 8)
    assert logs.shape == (8,)
    assert logs[0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(logs[1:] == -np.inf)


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
