"""Seeded corpus of constructed sequences with known spectra.

Thirty members across four families: pure decay (empty spectrum),
single mode, two modes, and modes plus decay.  Every planted parameter
is chosen so the operational checks have working margin: mode
amplitudes in [0.5, 2], angular separations at least 0.2 rad, geometric
ratios at most 0.9 and power exponents at least 1 (slower decay than
that leaves finite-horizon tails that a scan at the default horizon
cannot tell from persistence).
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .sequences import BoundedSeq, DEFAULT_HORIZON, _unit_vector, modes_plus_decay

KIND_VANISHING = "vanishing"
KIND_SINGLE_MODE = "single-mode"
KIND_TWO_MODE = "two-mode"
KIND_MODE_PLUS_DECAY = "mode-plus-decay"


@dataclass(frozen=True)
class CorpusMember:
    member_id: str
    kind: str
    seq: BoundedSeq
    thetas: tuple[complex, ...]


def generate_corpus(seed: int = 0, horizon: int = DEFAULT_HORIZON) -> list[CorpusMember]:
    """The 30-member corpus, fully determined by (seed, horizon)."""
    rng = np.random.default_rng(seed)
    members: list[CorpusMember] = []

    def child_seed() -> int:
        return int(rng.integers(2**31))

    # 8 vanishing: four geometric rates, four power exponents
    decays = [("geometric", r) for r in (0.3, 0.5, 0.7, 0.9)]
    decays += [("power", q) for q in (1.0, 1.25, 1.5, 2.0)]
    dims = (1, 2, 3, 1, 2, 3, 4, 2)
    for i, (decay, dim) in enumerate(zip(decays, dims)):
        seq = modes_plus_decay([], horizon, decay=decay, seed=child_seed(), dim=dim)
        members.append(CorpusMember(f"vanishing-{i}", KIND_VANISHING, seq, ()))

    # 8 single-mode, no decay
    for i in range(8):
        dim = 1 + i % 4
        theta = cmath.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        v = _unit_vector(rng, dim, rng.uniform(0.5, 2.0))
        seq = modes_plus_decay([(theta, v)], horizon, seed=child_seed())
        members.append(CorpusMember(f"single-mode-{i}", KIND_SINGLE_MODE, seq, (theta,)))

    # 7 two-mode, angular separation at least 0.2 rad each way
    for i in range(7):
        dim = 1 + i % 3
        phi = rng.uniform(0.0, 2.0 * np.pi)
        gap = rng.uniform(0.2, np.pi)
        t1, t2 = cmath.exp(1j * phi), cmath.exp(1j * (phi + gap))
        v1 = _unit_vector(rng, dim, rng.uniform(0.5, 2.0))
        v2 = _unit_vector(rng, dim, rng.uniform(0.5, 2.0))
        seq = modes_plus_decay([(t1, v1), (t2, v2)], horizon, seed=child_seed())
        members.append(CorpusMember(f"two-mode-{i}", KIND_TWO_MODE, seq, (t1, t2)))

    # 7 mode-plus-decay, alternating mode count and decay law
    decay_cycle = [
        ("geometric", 0.5),
        ("power", 1.0),
        ("geometric", 0.8),
        ("power", 1.5),
        ("geometric", 0.9),
        ("power", 2.0),
        ("geometric", 0.3),
    ]
    for i, decay in enumerate(decay_cycle):
        dim = 1 + i % 3
        phi = rng.uniform(0.0, 2.0 * np.pi)
        if i % 2 == 0:
            thetas = (cmath.exp(1j * phi),)
        else:
            gap = rng.uniform(0.2, np.pi)
            thetas = (cmath.exp(1j * phi), cmath.exp(1j * (phi + gap)))
        modes = [(t, _unit_vector(rng, dim, rng.uniform(0.5, 2.0))) for t in thetas]
        seq = modes_plus_decay(modes, horizon, decay=decay, seed=child_seed())
        members.append(CorpusMember(f"mode-plus-decay-{i}", KIND_MODE_PLUS_DECAY, seq, thetas))

    return members
