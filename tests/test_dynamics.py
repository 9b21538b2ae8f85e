import cmath
import math
import re

import numpy as np
import pytest

import helpers
from seqspectrum.dynamics import (
    OVERFLOW_LIMIT,
    DelaySystem,
    ForcingSpec,
    delay_limit_probe,
    recurrence_defect,
    simulate_delay,
    spectrum_containment_check,
    verify_asymptotic_decomposition,
)
from seqspectrum.errors import PreconditionError, UnboundedTrajectoryError
from seqspectrum.linalg import CMatrix, CVector
from seqspectrum.sequences import BoundedSeq, angular_distance, modes_plus_decay


def test_forcing_validation():
    with pytest.raises(PreconditionError):
        ForcingSpec("geometric", 1.0)
    with pytest.raises(PreconditionError):
        ForcingSpec("geometric", 0.0)
    with pytest.raises(PreconditionError):
        ForcingSpec("power", 0.0)
    with pytest.raises(PreconditionError):
        ForcingSpec("nonsense")


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("zero",), {"seed": -1}, "forcing seed must be >= 0, got -1"),
        (("power",), {}, "power forcing needs a parameter"),
        (("custom_table",), {}, "custom_table forcing needs a table"),
        (("custom_table",), {"table": np.zeros((0, 2))}, "forcing table must form a nonempty (N, d) array"),
        (("custom_table",), {"table": np.zeros((16, 2, 2))}, "forcing table must form a nonempty (N, d) array"),
        (("custom_table",), {"table": [np.inf] * 16}, "entries must be finite (no NaN/Inf)"),
        (("geometric", 0.5), {"table": np.ones((16, 1))}, "only custom_table forcing takes a table"),
    ],
)
def test_forcing_spec_names_each_bad_argument(args, kwargs, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        ForcingSpec(*args, **kwargs)


def test_a_one_dimensional_forcing_table_is_one_column():
    f = ForcingSpec("custom_table", table=np.arange(16.0))
    assert f.table.shape == (16, 1)
    assert np.array_equal(f.materialize(16, 1)[:, 0], np.arange(16.0))


@pytest.mark.parametrize(
    "forcing, count, dim, message",
    [
        (ForcingSpec("custom_table", table=np.ones((16, 2))), 16, 3, "forcing table dimension 2 != system dimension 3"),
        (ForcingSpec("custom_table", table=np.ones((16, 2))), 17, 2, "forcing table has 16 entries, need 17"),
        (ForcingSpec("geometric", 0.5, direction=[1.0, 0.0]), 16, 3, "forcing direction dimension 2 != system dimension 3"),
    ],
)
def test_forcing_materialize_names_a_mismatch(forcing, count, dim, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        forcing.materialize(count, dim)


@pytest.mark.parametrize("kind, decay", [("geometric", ("geometric", 0.7)), ("power", ("power", 1.5)), ("log_decay", ("log", None))])
def test_a_seeded_forcing_is_the_decay_term_of_a_descriptor(kind, decay):
    # both draw their direction from the same seed and scale it by the same envelope
    param = decay[1]
    forcing = ForcingSpec(kind, param, seed=11).materialize(64, 3)
    assert np.array_equal(forcing, modes_plus_decay([], 64, decay=decay, seed=11, dim=3).values)


def test_forcing_summable_flags():
    assert ForcingSpec("zero").summable is True
    assert ForcingSpec("geometric", 0.9).summable is True
    assert ForcingSpec("power", 1.0).summable is False
    assert ForcingSpec("power", 1.5).summable is True
    assert ForcingSpec("log_decay").summable is False
    assert ForcingSpec("custom_table", table=np.zeros((16, 1))).summable is None


def test_forcing_materialize_geometric():
    f = ForcingSpec("geometric", 0.5, direction=CVector([2.0, 0.0]))
    got = f.materialize(4, 2)
    want = np.array([[2.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.25, 0.0]])
    assert np.allclose(got, want)


def test_forcing_materialize_is_vanishing():
    for f in (ForcingSpec("geometric", 0.9), ForcingSpec("power", 0.7), ForcingSpec("log_decay")):
        vals = f.materialize(4096, 1)
        norms = np.linalg.norm(vals, axis=1)
        assert norms[-1] < norms[0]
        assert norms[-1] < 0.2


def test_delay_system_validation():
    b = CMatrix(np.eye(2))
    good = [CVector([1.0, 0.0]), CVector([0.0, 1.0])]
    DelaySystem(b, 2, good, ForcingSpec("zero"))
    with pytest.raises(PreconditionError):
        DelaySystem(b, 0, [], ForcingSpec("zero"))
    with pytest.raises(PreconditionError):
        DelaySystem(b, 2, good[:1], ForcingSpec("zero"))
    with pytest.raises(PreconditionError):
        DelaySystem(b, 65, [CVector([1.0, 0.0])] * 65, ForcingSpec("zero"))
    with pytest.raises(PreconditionError):
        DelaySystem(b, 1, [CVector([1.0])], ForcingSpec("zero"))  # dim mismatch


def test_simulate_forced_telescoping_limit():
    # x_{n+1} = x_n + 2^-n from 0 gives x_n = 2 - 2^(1-n)
    forcing = ForcingSpec("geometric", 0.5, direction=CVector([1.0]))
    seq, report = simulate_delay(DelaySystem(CMatrix(np.eye(1)), 1, [CVector([0.0])], forcing), 64)
    ns = np.arange(64)
    want = 2.0 - 2.0 ** (1.0 - ns)
    assert np.allclose(seq.values[:, 0], want, atol=1e-12)
    assert report.bounded_verdict


def test_simulate_forced_decoupled_diagonal():
    seq, report = simulate_delay(
        DelaySystem(CMatrix(np.diag([-1.0, 0.5])), 1, [CVector([1.0, 1.0])], ForcingSpec("zero")), 32
    )
    ns = np.arange(32)
    assert np.allclose(seq.values[:, 0], (-1.0) ** ns)
    assert np.allclose(seq.values[:, 1], 0.5**ns)
    assert report.bounded_verdict
    assert report.sup_norm == pytest.approx(math.sqrt(2.0))


def test_simulate_forced_harmonic_growth_flagged():
    # x_n = H_n grows like log n: not classified as bounded
    forcing = ForcingSpec("power", 1.0, direction=CVector([1.0]))
    seq, report = simulate_delay(DelaySystem(CMatrix(np.eye(1)), 1, [CVector([0.0])], forcing), 4096)
    assert report.growth_class == "polynomial-suspect"
    assert not report.bounded_verdict


def test_simulate_forced_overflow():
    with pytest.raises(UnboundedTrajectoryError) as err:
        simulate_delay(DelaySystem(CMatrix(2.0 * np.eye(1)), 1, [CVector([1.0])], ForcingSpec("zero")), 1024)
    assert 300 <= err.value.blow_up_index <= 400  # 2^n crosses 1e100 near n = 333


def _per_step_blow_up(system, horizon):
    """The first step whose norm passes OVERFLOW_LIMIT, one step at a time."""
    y = system.forcing.materialize(horizon, system.dim)
    x = np.empty((horizon, system.dim), dtype=np.complex128)
    x[: system.p] = system.initial
    for n in range(horizon - system.p):
        x[n + system.p] = system.b.data @ x[n] + y[n]
        if np.linalg.norm(x[n + system.p]) > OVERFLOW_LIMIT:
            return n + system.p
    return None


@pytest.mark.parametrize(
    "b, p, forcing",
    [
        ([[2.0]], 1, ForcingSpec("zero")),
        ([[1.17, 0.3j], [0.0, -0.9]], 1, ForcingSpec("geometric", 0.5, seed=1)),  # past the first block
        ([[0.2, 1.0], [-1.0, 1.1j]], 3, ForcingSpec("power", 1.5, seed=2)),
    ],
)
def test_simulate_blow_up_index_matches_per_step_loop(b, p, forcing):
    system = DelaySystem(CMatrix(b), p, [CVector(np.ones(len(b)) * (1 + k)) for k in range(p)], forcing)
    want = _per_step_blow_up(system, 8192)
    assert want is not None
    with pytest.raises(UnboundedTrajectoryError, match=f"at step {want}$") as err:
        simulate_delay(system, 8192)
    assert err.value.blow_up_index == want


def test_simulate_delay_alternating_orbit():
    system = DelaySystem(
        CMatrix(np.eye(1)), 2, [CVector([1.0]), CVector([-1.0])], ForcingSpec("zero")
    )
    seq, report = simulate_delay(system, 64)
    assert np.array_equal(seq.values[:, 0], (-1.0) ** np.arange(64))
    assert report.bounded_verdict


def test_simulate_delay_interleaved_strands():
    system = DelaySystem(
        CMatrix([[0.25]]), 2, [CVector([1.0]), CVector([1.0])], ForcingSpec("zero")
    )
    seq, _ = simulate_delay(system, 40)
    want = 0.25 ** (np.arange(40) // 2)
    assert np.allclose(seq.values[:, 0], want, atol=1e-15)


def test_simulate_delay_p1_matches_forced_bitwise():
    rng = np.random.default_rng(19)
    b = CMatrix(0.8 * helpers.random_unitary(rng, 3))
    x0 = CVector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    forcing = ForcingSpec("geometric", 0.7, seed=5)
    delayed, _ = simulate_delay(DelaySystem(b, 1, [x0], forcing), 128)
    # the forced recurrence x_{n+1} = B x_n + y_n, one step at a time
    y = forcing.materialize(128, 3)
    direct = np.empty((128, 3), dtype=np.complex128)
    direct[0] = x0.data
    for n in range(127):
        direct[n + 1] = b.data @ direct[n] + y[n]
    assert np.array_equal(direct, delayed.values)


def test_simulate_delay_matches_companion_embedding():
    rng = np.random.default_rng(31)
    b = CMatrix(0.9 * helpers.random_unitary(rng, 2))
    initial = [CVector(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(3)]
    system = DelaySystem(b, 3, initial, ForcingSpec("geometric", 0.6, seed=2))
    horizon = 200
    direct, _ = simulate_delay(system, horizon)
    big, z0 = helpers.companion_embedding(system)
    lifted = helpers.lift_forcing_table(system, horizon)
    lifted_forcing = ForcingSpec("custom_table", table=lifted)
    companion, _ = simulate_delay(DelaySystem(big, 1, [z0], lifted_forcing), horizon)
    assert np.allclose(direct.values, companion.values[:, :2], atol=1e-10)


def test_recurrence_defect_is_zero_on_simulated_runs():
    rng = np.random.default_rng(40)
    b = CMatrix(0.7 * helpers.random_unitary(rng, 3))
    forcing = ForcingSpec("geometric", 0.5, seed=1)
    seq, _ = simulate_delay(DelaySystem(b, 1, [CVector(rng.standard_normal(3))], forcing), 256)
    assert recurrence_defect(b, seq, forcing.materialize(256, 3)) <= 1e-12

    system = DelaySystem(b, 2, [CVector(rng.standard_normal(3)) for _ in range(2)], forcing)
    seq2, _ = simulate_delay(system, 256)
    assert recurrence_defect(b, seq2, forcing.materialize(256, 3), p=2) <= 1e-12


def test_recurrence_defect_reports_a_planted_perturbation():
    b = CMatrix([[0.0, 1.0], [1.0, 0.0]])
    seq, _ = simulate_delay(DelaySystem(b, 1, [CVector([3.0, 4.0])], ForcingSpec("zero")), 64)
    values = seq.values.copy()
    values[20, 0] += 0.5
    # x_20 - B x_19 is the perturbation, norm 0.5, against 1 + ||x_19|| = 6;
    # x_21 - B x_20 has the same norm over a larger denominator
    defect = recurrence_defect(b, BoundedSeq(values), np.zeros((64, 2)))
    assert defect == 0.5 / 6.0


def test_recurrence_defect_of_an_orbit_near_the_float_limit():
    # residuals of about 1e184 square past the float range; the defect is
    # still rounding-sized
    c, s = math.cos(0.3), math.sin(0.3)
    b = np.array([[c, -s], [s, c]])
    values = np.empty((64, 2))
    values[0] = [1e200, 0.5e200]
    for n in range(63):
        values[n + 1] = b @ values[n]
    assert recurrence_defect(CMatrix(b), BoundedSeq(values), np.zeros((64, 2))) <= 1e-15


def test_flow_linearity():
    rng = np.random.default_rng(41)
    b = CMatrix(0.9 * helpers.random_unitary(rng, 2))
    forcing = ForcingSpec("geometric", 0.8, seed=3)
    x0 = CVector(rng.standard_normal(2))
    z0 = CVector(rng.standard_normal(2))
    both, _ = simulate_delay(DelaySystem(b, 1, [CVector(x0.data + z0.data)], forcing), 128)
    forced, _ = simulate_delay(DelaySystem(b, 1, [x0], forcing), 128)
    free, _ = simulate_delay(DelaySystem(b, 1, [z0], ForcingSpec("zero")), 128)
    assert np.allclose(both.values, forced.values + free.values, atol=1e-10)


def test_decomposition_free_orbit_minus_one():
    b = CMatrix(np.diag([-1.0, 0.5]))
    seq, _ = simulate_delay(DelaySystem(b, 1, [CVector([1.0, 1.0])], ForcingSpec("zero")), 256)
    decomp, verdict = verify_asymptotic_decomposition(b, seq)
    assert verdict.residual_ok
    assert len(decomp.modes) == 1
    assert angular_distance(decomp.modes[0].theta, -1.0) <= 1e-9
    assert np.linalg.norm(decomp.modes[0].v.data - np.array([1.0, 0.0])) <= 1e-10
    assert not verdict.limit_tested


def test_decomposition_limit_via_summable_forcing():
    # x_{n+1} = x_n + y_n with summable y: the limit is the full sum
    forcing = ForcingSpec("geometric", 0.5, direction=CVector([1.0]))
    seq, _ = simulate_delay(DelaySystem(CMatrix(np.eye(1)), 1, [CVector([0.0])], forcing), 1024)
    decomp, verdict = verify_asymptotic_decomposition(CMatrix(np.eye(1)), seq)
    assert verdict.residual_ok
    assert verdict.limit_tested and verdict.limit_exists
    assert abs(decomp.modes[0].v.data[0] - 2.0) <= 1e-9
    assert abs(verdict.limit_value.data[0] - 2.0) <= 1e-9


def test_decomposition_contraction_vanishes():
    b = CMatrix(np.diag([0.5, 0.25]))
    forcing = ForcingSpec("geometric", 0.5, seed=8)
    seq, _ = simulate_delay(DelaySystem(b, 1, [CVector([1.0, 1.0])], forcing), 512)
    decomp, verdict = verify_asymptotic_decomposition(b, seq)
    assert decomp.modes == ()
    assert verdict.residual_ok
    assert verdict.limit_tested and verdict.limit_exists
    assert verdict.limit_value.norm() <= 1e-9


def test_decomposition_limit_deviation_near_the_float_limit():
    # x_n = (1e160, 1e160 / 2^n); the tail window starts at n = 8
    values = 1e160 * np.stack([np.ones(16), 0.5 ** np.arange(16)], axis=1)
    _, verdict = verify_asymptotic_decomposition(CMatrix(np.diag([1.0, 0.5])), BoundedSeq(values))
    assert verdict.limit_tested
    assert verdict.limit_deviation == pytest.approx(1e160 * (0.5**8 - 0.5**15), rel=1e-14)


def test_decomposition_rejects_unbounded_trajectory():
    forcing = ForcingSpec("power", 1.0, direction=CVector([1.0]))
    seq, report = simulate_delay(DelaySystem(CMatrix(np.eye(1)), 1, [CVector([0.0])], forcing), 1024)
    assert not report.bounded_verdict
    with pytest.raises(PreconditionError):
        verify_asymptotic_decomposition(CMatrix(np.eye(1)), seq)


def test_decomposition_rejects_crowded_peripheral_points():
    eps = 2e-4
    b = CMatrix(np.diag([cmath.exp(1j * eps), cmath.exp(-1j * eps)]))
    seq, _ = simulate_delay(DelaySystem(b, 1, [CVector([1.0, 1.0])], ForcingSpec("zero")), 1024)
    with pytest.raises(PreconditionError, match="horizon"):
        verify_asymptotic_decomposition(b, seq)


def test_delay_probe_counterexample_family():
    system = DelaySystem(
        CMatrix(np.eye(1)), 2, [CVector([1.0]), CVector([-1.0])], ForcingSpec("zero")
    )
    report = delay_limit_probe(system, simulate_delay(system, 1024)[0])
    assert report.hypotheses_met
    assert report.one_step.tail_sup == pytest.approx(2.0, abs=1e-12)
    assert report.p_step.tail_sup <= 1e-12
    assert report.one_step_holds is False
    assert report.p_step_holds is True
    assert len(report.scan_detected) == 1
    assert angular_distance(report.scan_detected[0].theta, -1.0) <= 1e-6
    assert report.scan_contained
    # -1 is a square root of theta = 1
    assert any(abs(r - (-1.0)) <= 1e-9 for r in report.theta_roots)


def test_delay_probe_constant_orbit():
    system = DelaySystem(
        CMatrix(np.eye(1)), 2, [CVector([1.0]), CVector([1.0])], ForcingSpec("zero")
    )
    report = delay_limit_probe(system, simulate_delay(system, 256)[0])
    assert report.one_step.tail_sup <= 1e-12
    assert report.p_step.tail_sup <= 1e-12
    assert report.one_step_holds and report.p_step_holds


def test_delay_probe_p1_degeneracy():
    system = DelaySystem(CMatrix([[1j]]), 1, [CVector([1.0])], ForcingSpec("zero"))
    report = delay_limit_probe(system, simulate_delay(system, 256)[0])
    assert report.one_step.tail_sup == pytest.approx(report.p_step.tail_sup, abs=1e-15)


def test_delay_probe_alternating_initial_all_horizons():
    for p in (2, 3):
        initial = [CVector([(-1.0) ** j]) for j in range(p)]
        system = DelaySystem(CMatrix(np.eye(1)), p, initial, ForcingSpec("zero"))
        for horizon in (16, 33, 100, 1024):
            report = delay_limit_probe(system, simulate_delay(system, horizon)[0])
            assert report.one_step.tail_sup >= 1.0
            assert report.p_step.tail_sup <= 1e-12


def test_delay_probe_two_peripheral_points_not_met():
    system = DelaySystem(
        CMatrix(np.diag([1.0, -1.0])), 1, [CVector([1.0, 1.0])], ForcingSpec("zero")
    )
    report = delay_limit_probe(system, simulate_delay(system, 256)[0])
    assert not report.hypotheses_met
    assert report.notes


def test_delay_probe_notes_an_unbounded_trajectory():
    # a Jordan block at 1 from (0, 1) gives x_n = (n, 1)
    system = DelaySystem(CMatrix([[1.0, 1.0], [0.0, 1.0]]), 1, [CVector([0.0, 1.0])], ForcingSpec("zero"))
    report = delay_limit_probe(system, simulate_delay(system, 256)[0])
    assert report.notes == ("trajectory is not bounded (growth class polynomial-suspect)",)
    assert not report.hypotheses_met


def test_delay_probe_empty_peripheral_defaults_to_one():
    system = DelaySystem(CMatrix([[0.5]]), 1, [CVector([1.0])], ForcingSpec("zero"))
    report = delay_limit_probe(system, simulate_delay(system, 256)[0])
    assert report.hypotheses_met
    assert abs(report.theta - 1.0) <= 1e-12
    assert report.notes  # says theta was defaulted


def test_containment_forced_two_peripheral():
    rng = np.random.default_rng(50)
    b = CMatrix(np.diag([1.0, -1.0, 0.5]))
    x0 = CVector(rng.standard_normal(3))
    seq, _ = simulate_delay(DelaySystem(b, 1, [x0], ForcingSpec("geometric", 0.5, seed=4)), 4096)
    verdict = spectrum_containment_check(b, seq)
    assert verdict.ok
    assert verdict.worst_distance <= 1e-2
    assert len(verdict.detected) == 2


def test_containment_contracting_no_detections():
    b = CMatrix(np.diag([0.3, 0.2]))
    seq, _ = simulate_delay(DelaySystem(b, 1, [CVector([1.0, 1.0])], ForcingSpec("zero")), 1024)
    verdict = spectrum_containment_check(b, seq)
    assert verdict.ok
    assert verdict.detected == ()


def test_containment_eigen_orbit():
    rng = np.random.default_rng(51)
    phases = helpers.spaced_phases(rng, 3)
    v = helpers.random_unitary(rng, 3)
    b_arr = v @ np.diag(np.exp(1j * phases)) @ v.conj().T
    x0 = CVector(v[:, 0])  # exact eigenvector of the first phase
    seq, _ = simulate_delay(DelaySystem(CMatrix(b_arr), 1, [x0], ForcingSpec("zero")), 2048)
    verdict = spectrum_containment_check(CMatrix(b_arr), seq)
    assert verdict.ok
    assert len(verdict.detected) == 1
    assert angular_distance(verdict.detected[0].theta, cmath.exp(1j * phases[0])) <= 1e-3
