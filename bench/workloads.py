"""Seeded inputs and op lists for the four benchmark workloads.

Everything here is the benchmark's own numpy code: no seqspectrum
generator is called, so a change to the program cannot change the
inputs it is measured on.

Two streams feed each workload.  A fixed stream sets everything the cost
of an op depends on: dimensions, delays, horizons, grid sizes, spectra
relative to a reference point, mode amplitudes and gaps.  The --seed
stream sets the rest: a global turn of each spectrum, the Haar bases,
vector directions and the descriptor seeds.  Every seed thus gives new
matrices and sequences while the work in a round stays the same, so
runs with different seeds can be compared.

Each op carries the facts the oracle needs about how its input was
built (planted thetas, amplitudes, matrices), so the oracle never reads
the program's own view of the input.
"""

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("corpus-scan", "short-probe", "trajectory-roundtrip", "operator-diag")

#: Mixed into every seed sequence, so that one --seed gives unrelated
#: inputs on each workload.
_WORKLOAD_KEY = {name: i for i, name in enumerate(WORKLOADS)}

#: Entropy of the seed-independent structure stream (spectra, amplitudes,
#: gaps).  Changing it changes what every seed measures.
_STRUCTURE_ENTROPY = 20100331


@dataclass
class Op:
    """One closed-loop operation: a CLI argv, or a library call when ``argv`` is None."""

    kind: str
    argv: list | None
    expect: dict
    klass: str | None = None  # "write" (emits a trajectory) or "read" (parses a sequence)
    out_path: str | None = None  # file the op writes, when it writes one


@dataclass
class Workload:
    name: str
    seed: int
    ops: list = field(default_factory=list)

    @property
    def tail_pct(self) -> float:
        """Highest percentile with at least ten inputs beyond it; the maximum
        when the round has too few inputs for that to lie above the median."""
        m = len(self.ops)
        return math.floor(1000.0 * (1.0 - 10.0 / m)) / 10.0 if m >= 20 else 100.0


def cnum(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_json(a: np.ndarray) -> dict:
    return {"d": int(a.shape[0]), "entries": [cnum(z) for z in a.reshape(-1)]}


def theta_arg(theta: complex) -> str:
    # The joined form: argparse reads a separate "-1,0" token as an option.
    return f"--theta={theta.real!r},{theta.imag!r}"


def _unit(phi: float) -> complex:
    return complex(math.cos(phi), math.sin(phi))


def _cvec(rng, d: int, amp: float = 1.0) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return amp * v / np.linalg.norm(v)


def haar_unitary(rng, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugated(q: np.ndarray, eigs) -> np.ndarray:
    return q @ np.diag(np.asarray(eigs, dtype=np.complex128)) @ q.conj().T


def _interior(rng, count: int, lo: float, hi: float) -> np.ndarray:
    return rng.uniform(lo, hi, count) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- corpus-scan

_VANISH_DECAYS = (("geometric", 0.5), ("power", 1.5), ("geometric", 0.9), ("power", 2.0))
_MIXED_DECAYS = (("geometric", 0.8), ("power", 1.0), ("geometric", 0.3), ("power", 1.25))


def _corpus_scan(wl: Workload, fix, rng, work: Path, tiny: bool) -> None:
    horizon = 1024 if tiny else 16384
    per_family = 1 if tiny else 4
    families = (
        # (tag, mode count, decay laws)
        ("vanishing", lambda i: 0, _VANISH_DECAYS),
        ("single", lambda i: 1, (None,)),
        ("two", lambda i: 2, (None,)),
        ("mixed", lambda i: 1 + i % 2, _MIXED_DECAYS),
    )
    for f, (tag, count, decays) in enumerate(families):
        for i in range(per_family):
            d = 1 + (i + f) % 4
            amps = fix.uniform(0.5, 2.0, count(i))
            offset = fix.uniform(0, 2 * np.pi / _SCAN_GRID)
            gaps = np.concatenate([[0.0], np.cumsum(fix.uniform(0.3, np.pi, count(i) - 1))]) if count(i) else []
            turn = _grid_turn(rng, _SCAN_GRID) + offset
            modes = [(_unit(turn + g), _cvec(rng, d, a)) for g, a in zip(gaps, amps)]
            decay = decays[i % len(decays)]
            doc = {
                "kind": "modes_plus_decay",
                "d": d,
                "modes": [{"theta": cnum(t), "v": [cnum(z) for z in v]} for t, v in modes],
                "decay": {"type": "none", "param": None} if decay is None else {"type": decay[0], "param": decay[1]},
                "horizon": horizon,
                "seed": int(rng.integers(2**31)),
            }
            path = _write(work / f"corpus-{tag}-{i}.json", doc)
            expect = {"thetas": [t for t, _ in modes], "vs": [v for _, v in modes], "decay": decay, "horizon": horizon}
            wl.ops.append(Op("spectrum-scan", ["spectrum-scan", path], expect, "read"))
            wl.ops.append(Op("modes", ["modes", path, *[theta_arg(t) for t, _ in modes]], expect, "read"))


# ---------------------------------------------------------------- systems


def _delay_system(b, initial, forcing, horizon, p) -> dict:
    doc = {
        "B": matrix_json(b),
        "p": p,
        "initial": [[cnum(z) for z in v] for v in initial],
        "horizon": horizon,
    }
    if forcing is None:
        doc["forcing"] = {"kind": "zero"}
    else:
        ratio, direction = forcing
        doc["forcing"] = {"kind": "geometric", "param": ratio, "direction": [cnum(z) for z in direction]}
    return doc


def _system_expect(b, initial, forcing, horizon, p) -> dict:
    return {"B": b, "initial": np.array(initial), "forcing": forcing, "horizon": horizon, "p": p}


#: Grid of the default spectrum scan (DEFAULT_GRID_SIZE).  A turn by a
#: multiple of its step, times p for a delay system, moves every scan
#: landscape by whole grid and fine-grid bins, so the scan's work is the same.
_SCAN_GRID = 4096


def _grid_turn(rng, steps: int) -> float:
    return 2.0 * np.pi * int(rng.integers(steps)) / steps


def _fixed_coeffs(fix, rows: int, cols: int) -> np.ndarray:
    return fix.uniform(0.5, 2.0, (rows, cols)) * np.exp(2j * np.pi * fix.uniform(0, 1, (rows, cols)))


# ---------------------------------------------------------------- short-probe

_SHORT_HORIZONS = (16, 32, 64, 128)
_COUNTEREXAMPLE_HORIZONS = (37, 100)


def _short_probe(wl: Workload, fix, rng, work: Path, tiny: bool) -> None:
    count = 4 if tiny else 16
    for i in range(count):
        d = 1 + i % 4
        p = 1 + (i // 4) % 4
        horizon = max(_SHORT_HORIZONS[(i + i // 4) % 4], 2 * p)
        # Spectrum and eigen-coordinates of the start are fixed by position;
        # the seed turns the whole system by e^{i turn} and picks the basis.
        # With zero forcing the orbit is then the fixed one times
        # e^{i turn n / p}, so the scan's work does not depend on the seed.
        relative = np.concatenate([[1.0], fix.uniform(0.3, 0.8, d - 1) * np.exp(2j * np.pi * fix.uniform(0, 1, d - 1))])
        coeffs = _fixed_coeffs(fix, p, d)
        forcing_coords = fix.uniform(0.05, 0.2) * np.exp(2j * np.pi * fix.uniform(0, 1, d))
        turn = p * _grid_turn(rng, _SCAN_GRID)
        q = haar_unitary(rng, d)
        theta = _unit(turn)
        b = _conjugated(q, theta * relative)
        initial = [q @ (coeffs[r] * cmath.exp(1j * r * turn / p)) for r in range(p)]
        forcing = None if i % 2 == 0 else (0.5, q @ forcing_coords)
        path = _write(work / f"probe-{i}.json", _delay_system(b, initial, forcing, horizon, p))
        expect = _system_expect(b, initial, forcing, horizon, p)
        expect["theta"] = theta
        wl.ops.append(Op("delay-simulate-probe", ["delay-simulate", path, "--probe"], expect, "write"))
    # Criterion 10: B = I, p = 2, alternating start.  One-step tail 2, p-step tail 0.
    for horizon in _COUNTEREXAMPLE_HORIZONS[: 1 if tiny else 2]:
        b = np.eye(1, dtype=np.complex128)
        initial = [np.array([1.0 + 0j]), np.array([-1.0 + 0j])]
        path = _write(work / f"counterexample-{horizon}.json", _delay_system(b, initial, None, horizon, 2))
        expect = _system_expect(b, initial, None, horizon, 2)
        expect.update(theta=1.0 + 0j, counterexample=True)
        wl.ops.append(Op("delay-simulate-probe", ["delay-simulate", path, "--probe"], expect, "write"))


# ---------------------------------------------------------------- trajectory-roundtrip


def _trajectory_roundtrip(wl: Workload, fix, rng, work: Path, tiny: bool) -> None:
    horizon = 1024 if tiny else 16384
    d = 4
    for p in (1, 2):
        gap = fix.uniform(0.5, np.pi)
        interior = fix.uniform(0.3, 0.7, d - 2) * np.exp(2j * np.pi * fix.uniform(0, 1, d - 2))
        amps = fix.uniform(0.5, 2.0, (2, p))
        interior_coeffs = _fixed_coeffs(fix, p, d - 2)
        turn = p * _grid_turn(rng, _SCAN_GRID)
        unit_eigs = [_unit(turn), _unit(turn + gap)]
        q = haar_unitary(rng, d)
        b = _conjugated(q, np.concatenate([unit_eigs, _unit(turn) * interior]))
        phases = np.exp(2j * np.pi * rng.uniform(0, 1, (2, p)))
        modes = []  # (theta, amplitude vector)
        if p == 1:
            coeffs = amps[:, 0] * phases[:, 0]
            modes = [(t, c * q[:, j]) for j, (t, c) in enumerate(zip(unit_eigs, coeffs))]
            initial = [q @ np.concatenate([coeffs, interior_coeffs[0]])]
            forcing = None
        else:
            # x_{n+2} = B x_n: the unit eigenvalue s^2 splits into modes s and -s
            # with amplitudes alpha and beta along its eigenvector.
            first, second = [], []
            for j, t in enumerate(unit_eigs):
                s = cmath.sqrt(t)
                alpha, beta = amps[j] * phases[j]
                first.append(alpha + beta)
                second.append(s * (alpha - beta))
                modes += [(s, alpha * q[:, j]), (-s, beta * q[:, j])]
            initial = [q @ np.concatenate([first, interior_coeffs[0]]), q @ np.concatenate([second, interior_coeffs[1]])]
            # Forcing along the interior eigenvectors only: it adds a decaying
            # transient and leaves the planted amplitudes as they are.
            forcing = (0.5, q @ np.concatenate([[0.0, 0.0], interior_coeffs[0] / np.linalg.norm(interior_coeffs[0])]))
        system = _write(work / f"system-p{p}.json", _delay_system(b, initial, forcing, horizon, p))
        envelope = str(work / f"trajectory-p{p}.json")
        expect = _system_expect(b, initial, forcing, horizon, p)
        expect.update(thetas=[t for t, _ in modes], vs=[v for _, v in modes])
        command = "simulate" if p == 1 else "delay-simulate"
        wl.ops.append(Op(command, [command, system, "-o", envelope], expect, "write", envelope))
        wl.ops.append(Op("spectrum-scan", ["spectrum-scan", envelope], expect, "read"))
        wl.ops.append(Op("modes", ["modes", envelope, *[theta_arg(t) for t, _ in modes]], expect, "read"))


# ---------------------------------------------------------------- operator-diag


#: Radii of the pole-order probe (the CLI's default ray).
POLE_RADII = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def _operator_diag(wl: Workload, fix, rng, work: Path, tiny: bool) -> None:
    # Spectra, sample patterns and Gaussian draws are fixed by position; the
    # seed turns each matrix by a root of unity and conjugates it by a Haar
    # unitary.  Norms and pivots move with the spectrum only, a turn by a
    # multiple of the scan step maps the resolvent grid onto itself, and a
    # turn by 2 pi / d maps the root finder's start points onto themselves,
    # so the work per op does not depend on the seed.
    # (d, scan points per circle, isometry samples, ktz/gelfand n_max, gaussian radii, interior modulus range)
    if tiny:
        slices = [(4, 16, 50, 64, (2.0,), (0.2, 0.5)), (8, 8, 16, 64, (2.0, 0.5), (0.2, 0.5))]
    else:
        slices = [
            (4, 256, 1000, 512, (2.0,), (0.3, 0.8)),
            (8, 256, 1000, 512, (1.25,), (0.3, 0.8)),
            (16, 256, 1000, 512, (0.5,), (0.3, 0.8)),
            # d = 64 costs about 35 ms per resolvent point and 17 ms per isometry
            # sample, so this slice runs coarse grids and a short power sequence.
            (64, 8, 16, 64, (2.0, 0.5), (0.2, 0.5)),
        ]
    for d, points, samples, n_max, radii, (lo, hi) in slices:
        step = 2.0 * np.pi / d
        phases = step * np.arange(d) + fix.uniform(-0.25 * step, 0.25 * step, d)
        inner = samples // 2
        sample_pattern = np.concatenate([fix.uniform(0.2, 0.999, inner), fix.uniform(1.001, 3.0, samples - inner)])
        sample_pattern = sample_pattern * np.exp(2j * np.pi * fix.uniform(0, 1, samples))
        one = np.concatenate([[1.0], _interior(fix, d - 1, lo, hi)])
        two = np.concatenate([[1.0, _unit(fix.uniform(0.5, 2 * np.pi - 0.5))], _interior(fix, d - 2, lo, hi)])
        gaussians = [_gaussian(fix, d, r) for r in radii]

        turn = _unit(_grid_turn(rng, points))
        u = _conjugated(haar_unitary(rng, d), turn * np.exp(1j * phases))
        u_path = _write(work / f"unitary-{d}.json", matrix_json(u))
        # One op per circle and per quarter of the isometry samples: the
        # host's speed changes within an op that runs for a second, which the
        # calibration runs around it cannot follow, and the d = 16 scan and
        # check each take about that long.
        for radius in (0.5, 1.5):
            wl.ops.append(Op("resolvent-scan",
                             ["resolvent-scan", u_path, "--radius", repr(radius), "--points", str(points)],
                             {"A": u, "radii": (radius,), "points": points, "d": d}))
        theta = turn * _unit(phases[0])
        wl.ops.append(Op("pole-probe", ["pole-probe", u_path, theta_arg(theta), "--radii", ",".join(map(repr, POLE_RADII))],
                         {"theta": theta, "radii": POLE_RADII, "d": d}))
        for part in np.array_split(turn * sample_pattern, 4 if samples >= 100 else 1):
            wl.ops.append(Op("isometry", None, {"U": u, "samples": part}))

        for tag, spectrum, met in (("one", one, True), ("two", two, False)):
            turn = _unit(_grid_turn(rng, d))
            t = _conjugated(haar_unitary(rng, d), turn * spectrum)
            path = _write(work / f"{tag}-peripheral-{d}.json", matrix_json(t))
            peripheral = list(turn * spectrum[np.abs(spectrum) > 0.99])
            wl.ops.append(Op("ktz", ["ktz", path, theta_arg(turn), "--n-max", str(n_max)],
                             {"peripheral": peripheral, "met": met, "d": d}))

        for k, g0 in enumerate(gaussians):
            q = haar_unitary(rng, d)
            g = _unit(_grid_turn(rng, d)) * (q @ g0 @ q.conj().T)
            path = _write(work / f"gaussian-{d}-{k}.json", matrix_json(g))
            wl.ops.append(Op("gelfand", ["gelfand", path, "--n-max", str(n_max)], {"A": g, "d": d}))
            if k == 0:
                wl.ops.append(Op("cayley", ["cayley", path], {"A": g, "d": d}))


def _gaussian(rng, d: int, radius: float) -> np.ndarray:
    """Complex Gaussian matrix scaled to the given spectral radius."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g * (radius / np.max(np.abs(np.linalg.eigvals(g))))


_BUILDERS = {
    "corpus-scan": _corpus_scan,
    "short-probe": _short_probe,
    "trajectory-roundtrip": _trajectory_roundtrip,
    "operator-diag": _operator_diag,
}


def generate(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    """Write the workload's input files under ``work`` and return its op list."""
    wl = Workload(name, seed)
    key = _WORKLOAD_KEY[name]
    fix = np.random.default_rng(np.random.SeedSequence([_STRUCTURE_ENTROPY, key]))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) % 2**63, key]))
    _BUILDERS[name](wl, fix, rng, work, tiny)
    return wl
