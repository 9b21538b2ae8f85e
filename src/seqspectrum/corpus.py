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


_PURE_DECAYS = [("geometric", r) for r in (0.3, 0.5, 0.7, 0.9)] + [("power", q) for q in (1.0, 1.25, 1.5, 2.0)]
_MIXED_DECAYS = [("geometric", 0.5), ("power", 1.0), ("geometric", 0.8), ("power", 1.5), ("geometric", 0.9), ("power", 2.0), ("geometric", 0.3)]

#: (kind, index, dim, mode count, decay) of every member, in draw order;
#: mode-plus-decay members alternate one and two modes.
_PLAN = (
    [(KIND_VANISHING, i, dim, 0, decay) for i, (dim, decay) in enumerate(zip((1, 2, 3, 1, 2, 3, 4, 2), _PURE_DECAYS))]
    + [(KIND_SINGLE_MODE, i, 1 + i % 4, 1, None) for i in range(8)]
    + [(KIND_TWO_MODE, i, 1 + i % 3, 2, None) for i in range(7)]
    + [(KIND_MODE_PLUS_DECAY, i, 1 + i % 3, 1 + i % 2, decay) for i, decay in enumerate(_MIXED_DECAYS)]
)


def generate_corpus(seed: int = 0, horizon: int = DEFAULT_HORIZON) -> list[CorpusMember]:
    """The 30-member corpus, fully determined by (seed, horizon).

    Each member draws from one stream in a fixed order: its first angle,
    the gap to its second angle (at least 0.2 rad each way) when it has
    two modes, each mode's amplitude and then its direction, and last the
    seed of its decay direction.
    """
    rng = np.random.default_rng(seed)
    members: list[CorpusMember] = []
    for kind, i, dim, n_modes, decay in _PLAN:
        angles = [rng.uniform(0.0, 2.0 * np.pi)] if n_modes else []
        if n_modes == 2:
            angles.append(angles[0] + rng.uniform(0.2, np.pi))
        thetas = tuple(cmath.exp(1j * a) for a in angles)
        modes = [(t, _unit_vector(rng, dim, rng.uniform(0.5, 2.0))) for t in thetas]
        seq = modes_plus_decay(modes, horizon, decay=decay, seed=int(rng.integers(2**31)), dim=dim)
        members.append(CorpusMember(f"{kind}-{i}", kind, seq, thetas))
    return members
