"""One simulator and asymptotic checks for the delay equation
x_{n+p} = B x_n + y_n, whose p = 1 case is x_{n+1} = B x_n + y_n.

Boundedness of a solution is a hypothesis everywhere in this module,
never an assumption: the simulator classifies the trajectory's growth and
the checkers gate on that classification.  The delay probe reports the
one-step and p-step difference statistics side by side without
adjudicating between them; on delay systems they genuinely differ (see
``delay_limit_probe``).
"""

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .eigen import spectrum_info, DEFAULT_PERIPHERAL_TOL
from .errors import PreconditionError, UnboundedTrajectoryError
from .linalg import CMatrix, CVector, _plain_norms, _row_norms
from .sequences import (
    BoundedSeq,
    DetectedPoint,
    Mode,
    ModeDecomp,
    TailStats,
    angular_distance,
    decay_envelope,
    default_tol_vanish,
    difference_tail,
    extract_modes,
    _as_table,
    _decaying_term,
    _handed_over,
    spectrum_scan,
    DEFAULT_GRID_SIZE,
    MIN_HORIZON,
)
from .trend import classify_growth, is_bounded

#: Trajectory norms beyond this raise; nothing downstream is trustworthy
#: once the dynamic range is gone.
OVERFLOW_LIMIT = 1e100

#: Steps the simulator runs between two overflow checks.
_CHECK_BLOCK = 1024

FORCING_KINDS = ("zero", "geometric", "power", "log_decay", "custom_table")

_ENVELOPE_FOR = {"geometric": "geometric", "power": "power", "log_decay": "log"}

#: Tail sup of the mode-form residual that verifies a decomposition.
_RESIDUAL_TOL = 1e-6

#: Radians within which a scan detection matches a root or an eigenvalue.
_MATCH_TOL = 1e-2


class ForcingSpec:
    """A vanishing forcing sequence y_n, or an explicit table.

    Analytic kinds produce y_n = envelope(n) * direction with a fixed
    direction vector (seeded unit vector when not given).  ``summable``
    records whether sum ||y_n|| converges: geometric yes, power only for
    exponent > 1, log decay no, explicit tables unknown (None).  The
    distinction matters: a unit-circle eigenvalue driven by vanishing
    but non-summable forcing can still produce an unbounded solution.
    """

    def __init__(self, kind: str, param: float | None = None, direction=None, table=None, seed: int = 0):
        if kind not in FORCING_KINDS:
            raise PreconditionError(f"unknown forcing kind {kind!r}")
        if int(seed) < 0:
            raise PreconditionError(f"forcing seed must be >= 0, got {seed}")
        if kind in ("geometric", "power"):
            if param is None:
                raise PreconditionError(f"{kind} forcing needs a parameter")
            param = float(param)
            decay_envelope(kind, param, 0)  # the decay law checks its own range
        elif param is not None:
            raise PreconditionError(f"forcing kind {kind!r} takes no parameter")
        if kind == "custom_table":
            if table is None:
                raise PreconditionError("custom_table forcing needs a table")
            table = _as_table(table, "forcing table")
        elif table is not None:
            raise PreconditionError("only custom_table forcing takes a table")
        if direction is not None:
            direction = np.asarray(getattr(direction, "data", direction), dtype=np.complex128).reshape(-1)
        self.kind = kind
        self.param = param
        self.direction = direction
        self.table = table
        self.seed = int(seed)

    @property
    def summable(self) -> bool | None:
        if self.kind in ("zero", "geometric"):
            return True
        if self.kind == "power":
            return self.param > 1.0
        if self.kind == "log_decay":
            return False
        return None

    def materialize(self, count: int, dim: int) -> np.ndarray:
        """y_0 .. y_(count-1) as a (count, dim) array."""
        if self.kind == "zero":
            return np.zeros((count, dim), dtype=np.complex128)
        if self.kind == "custom_table":
            if self.table.shape[1] != dim:
                raise PreconditionError(
                    f"forcing table dimension {self.table.shape[1]} != system dimension {dim}"
                )
            if self.table.shape[0] < count:
                raise PreconditionError(
                    f"forcing table has {self.table.shape[0]} entries, need {count}"
                )
            return self.table[:count]
        env = decay_envelope(_ENVELOPE_FOR[self.kind], self.param, count)
        return _decaying_term(env, self.direction, self.seed, np.empty((count, dim), dtype=np.complex128))


class DelaySystem:
    """x_{n+p} = B x_n + y_n with p initial vectors."""

    def __init__(self, b: CMatrix, p: int, initial, forcing: ForcingSpec):
        p = int(p)
        if not 1 <= p <= 64:
            raise PreconditionError(f"delay p must be in [1, 64], got {p}")
        init = [np.asarray(getattr(v, "data", v), dtype=np.complex128).reshape(-1) for v in initial]
        if len(init) != p:
            raise PreconditionError(f"need exactly p = {p} initial vectors, got {len(init)}")
        if any(v.shape[0] != b.dim for v in init):
            raise PreconditionError("initial vectors must match the matrix dimension")
        self.b = b
        self.p = p
        self.initial = np.array(init)
        self.forcing = forcing

    @property
    def dim(self) -> int:
        return self.b.dim


@dataclass(frozen=True)
class TrajectoryReport:
    """Growth summary of a simulated trajectory.

    ``bounded_verdict`` is true exactly when the growth class is
    decaying or bounded; polynomial-suspect (e.g. harmonic partial sums)
    does not count as bounded even though every finite window is finite.
    """

    sup_norm: float
    growth_class: str
    bounded_verdict: bool
    horizon: int


def simulate_delay(system: DelaySystem, horizon: int) -> tuple[BoundedSeq, TrajectoryReport]:
    """Iterate x_{n+p} = B x_n + y_n from the p initial vectors."""
    p = system.p
    if horizon < max(MIN_HORIZON, 2 * p):
        raise PreconditionError(f"horizon must be >= max({MIN_HORIZON}, 2p) = {max(MIN_HORIZON, 2 * p)}")
    y = system.forcing.materialize(horizon, system.dim)
    values = np.empty((horizon, system.dim), dtype=np.complex128)
    values[:p] = system.initial
    arr = system.b.data
    # rows past an overflow may reach inf or nan before their block is checked
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(p, horizon, _CHECK_BLOCK):
            stop = min(start + _CHECK_BLOCK, horizon)
            for n in range(start - p, stop - p):
                values[n + p] = arr @ values[n] + y[n]
            over = np.flatnonzero(_plain_norms(values[start:stop], 1) > OVERFLOW_LIMIT)
            if over.size:
                step = start + int(over[0])
                raise UnboundedTrajectoryError(f"trajectory norm exceeded {OVERFLOW_LIMIT:.1e} at step {step}", step)
    seq = _handed_over(values, None)
    growth = classify_growth(seq.norms)
    return seq, TrajectoryReport(
        sup_norm=seq.sup_norm,
        growth_class=growth,
        bounded_verdict=is_bounded(growth),
        horizon=seq.horizon,
    )


def recurrence_defect(b: CMatrix, seq: BoundedSeq, forcing_values: np.ndarray, p: int = 1) -> float:
    """max_n ||x_{n+p} - B x_n - y_n|| / (1 + ||x_n||): the simulator's
    self-witness, zero up to rounding for trajectories it produced."""
    steps = max(seq.horizon - p, 0)
    residual = seq.values[p:] - seq.values[:steps] @ b.data.T - forcing_values[:steps]
    return float(np.max(_row_norms(residual) / (1.0 + seq.norms[:steps]), initial=0.0))


@dataclass(frozen=True)
class DecompositionVerdict:
    """Outcome of matching a bounded trajectory against mode form.

    ``limit_exists`` is only meaningful when ``limit_tested`` is set
    (no unit-circle eigenvalue, or only the point 1: the cases where a
    plain limit is the asserted conclusion).  ``limit_deviation`` is
    max ||x_n - x_last|| over the tail window, a two-sided proxy for the
    window diameter.
    """

    residual_ok: bool
    residual_tol: float
    peripheral: tuple[complex, ...]
    burn_in: int
    n_used: int
    limit_tested: bool
    limit_exists: bool | None
    limit_deviation: float | None
    limit_value: CVector | None


def verify_asymptotic_decomposition(b: CMatrix, trajectory: BoundedSeq) -> tuple[ModeDecomp, DecompositionVerdict]:
    """Check x_n = sum theta_j^n v_j + o(1) with thetas from B's
    unit-circle eigenvalues.

    Modes are extracted from the second half of the window (the first
    half is burn-in for the o(1) transient) and phase-corrected back to
    index 0; the residual tail is therefore measured where the transient
    has already decayed.  When no unit-circle eigenvalue exists, or only
    the point 1, the conclusion includes an actual limit; that is tested
    via the tail-window deviation from the final element.  The residual
    tail sup must be at most ``_RESIDUAL_TOL`` and the deviation at most
    twice that.
    """
    growth = classify_growth(trajectory.norms)
    if not is_bounded(growth):
        raise PreconditionError(
            f"trajectory is not bounded (growth class {growth}); the decomposition "
            "only applies to bounded solutions"
        )
    peripheral = spectrum_info(b).peripheral
    burn_in = trajectory.horizon // 2 if trajectory.horizon >= 2 * MIN_HORIZON else 0
    raw = extract_modes(BoundedSeq(trajectory.values[burn_in:]), peripheral)
    # undo the burn-in shift: the mean of the shifted window estimates theta^burn_in v
    modes = tuple(
        Mode(m.theta, CVector(m.v.data * (m.theta ** (-burn_in)))) for m in raw.modes
    )
    residual = dataclasses.replace(raw.residual, window_start=burn_in + raw.residual.window_start)
    decomp = ModeDecomp(modes, residual)
    only_one = all(angular_distance(t, 1.0) <= 1e-8 for t in peripheral)
    limit_exists = deviation = limit_value = None
    if only_one:  # also with no peripheral point at all
        window = trajectory.values[trajectory.horizon // 2 :]
        deviation = float(_row_norms(window - window[-1]).max())
        limit_exists = deviation <= 2.0 * _RESIDUAL_TOL
        limit_value = modes[0].v if modes else CVector(np.zeros(trajectory.dim))
    verdict = DecompositionVerdict(
        residual_ok=residual.tail_sup <= _RESIDUAL_TOL,
        residual_tol=_RESIDUAL_TOL,
        peripheral=peripheral,
        burn_in=burn_in,
        n_used=trajectory.horizon - burn_in,
        limit_tested=only_one,
        limit_exists=limit_exists,
        limit_deviation=deviation,
        limit_value=limit_value,
    )
    return decomp, verdict


@dataclass(frozen=True)
class DelayProbeReport:
    """Side-by-side tail statistics for a delay system's asymptotics.

    Three quantities, reported without adjudication:

    * ``one_step``: tail sup of ||x_{n+1} - theta x_n||,
    * ``p_step``: tail sup of ||x_{n+p} - theta x_n||,
    * the spectrum scan of the trajectory against the p-th roots of
      theta.

    On genuinely delayed systems these can disagree: B = I, p = 2 with
    alternating initial data gives a bounded orbit where the one-step
    statistic stays at 2 while the p-step one is exactly 0 and the scan
    sits on a p-th root of theta.  ``hypotheses_met`` covers a single
    unit-circle spectrum point and a bounded trajectory.
    """

    theta: complex
    p: int
    horizon: int
    hypotheses_met: bool
    peripheral: tuple[complex, ...]
    bounded: bool
    growth_class: str
    one_step: TailStats
    p_step: TailStats | None
    one_step_holds: bool
    p_step_holds: bool | None
    tol_vanish: float
    scan_detected: tuple[DetectedPoint, ...]
    theta_roots: tuple[complex, ...]
    root_matches: tuple[DetectedPoint, ...]
    scan_contained: bool
    notes: tuple[str, ...]


def delay_limit_probe(
    system: DelaySystem, seq: BoundedSeq, peripheral_tol: float = DEFAULT_PERIPHERAL_TOL, grid_size: int = DEFAULT_GRID_SIZE
) -> DelayProbeReport:
    """Probe whether x_{n+1} - theta x_n (and the p-step analogue)
    vanish along ``seq``, a trajectory of ``system`` from
    :func:`simulate_delay`, to the tail tolerance ``default_tol_vanish``."""
    notes: list[str] = []
    peripheral = spectrum_info(system.b, peripheral_tol).peripheral
    theta = peripheral[0] if peripheral else 1.0 + 0.0j
    peripheral_ok = len(peripheral) <= 1
    if not peripheral:
        notes.append("unit-circle spectrum is empty; probing against theta = 1")
    elif not peripheral_ok:
        notes.append(f"unit-circle spectrum has {len(peripheral)} points; the probe needs exactly one")
    growth = classify_growth(seq.norms)
    bounded = is_bounded(growth)
    if not bounded:
        notes.append(f"trajectory is not bounded (growth class {growth})")
    tol_vanish = default_tol_vanish(seq.sup_norm)
    p = system.p
    one_stats = difference_tail(seq, theta, 1)
    p_stats = difference_tail(seq, theta, p) if p <= seq.horizon - 2 else None
    scan = spectrum_scan(seq, grid_size)
    roots = tuple(
        cmath.exp(1j * (cmath.phase(theta) + 2.0 * math.pi * k) / p) for k in range(p)
    )
    matches = tuple(
        d for d in scan.detected if any(angular_distance(d.theta, r) <= _MATCH_TOL for r in roots)
    )
    return DelayProbeReport(
        theta=theta,
        p=p,
        horizon=seq.horizon,
        hypotheses_met=peripheral_ok and bounded,
        peripheral=peripheral,
        bounded=bounded,
        growth_class=growth,
        one_step=one_stats,
        p_step=p_stats,
        one_step_holds=one_stats.tail_sup <= tol_vanish,
        p_step_holds=None if p_stats is None else p_stats.tail_sup <= tol_vanish,
        tol_vanish=float(tol_vanish),
        scan_detected=scan.detected,
        theta_roots=roots,
        root_matches=matches,
        scan_contained=len(matches) == len(scan.detected),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class ContainmentVerdict:
    """Are all trajectory scan detections near unit-circle eigenvalues of B?"""

    ok: bool
    detected: tuple[DetectedPoint, ...]
    peripheral: tuple[complex, ...]
    worst_distance: float
    tolerance: float


def spectrum_containment_check(b: CMatrix, trajectory: BoundedSeq) -> ContainmentVerdict:
    """Every detection of a default scan of the trajectory should sit
    within ``_MATCH_TOL`` rad of some unit-circle eigenvalue of the driving matrix;
    vacuously true with no detections."""
    peripheral = spectrum_info(b).peripheral
    scan = spectrum_scan(trajectory)
    dists = [min((angular_distance(d.theta, p) for p in peripheral), default=math.inf) for d in scan.detected]
    worst = max(dists, default=0.0)
    return ContainmentVerdict(worst <= _MATCH_TOL, scan.detected, peripheral, worst, _MATCH_TOL)
