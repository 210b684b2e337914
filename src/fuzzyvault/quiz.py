"""Per-point orientation puzzles.

Each vault record can carry an angle beta derived from the minutia
orientation: beta = snap(alpha) + j*pi/n (mod pi) for a secret index
j < n.  A reader who measures alpha recovers j and undoes the field
transform T_j(Y) = Y + j*floor(q/n) applied to the stored ordinate; an
attacker has to guess j for every record of a candidate subset, which
multiplies the brute-force work by n**k (k*log2(n) extra bits).

Enrollment orientations are snapped to the pi/n grid so that honest
recovery tolerates angular noise up to pi/(2n).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .field import DEFAULT_Q


@dataclass(frozen=True)
class QuizParams:
    n: int
    q: int = DEFAULT_Q

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("quiz granularity n must be >= 2")
        if self.n > self.q:
            raise ValueError("quiz granularity cannot exceed the field size")

    @property
    def step(self) -> int:
        """Field offset per index: floor(q/n); injective in j since n*step <= q."""
        return self.q // self.n


def snap_angle(alpha: float, n: int) -> float:
    """Nearest multiple of pi/n, wrapped to [0, pi)."""
    cell = math.pi / n
    return (round(alpha / cell) * cell) % math.pi


def encode_point(alpha: float, j: int, value: int, params: QuizParams) -> tuple[int, float]:
    """(stored ordinate, beta) for a genuine record whose true ordinate is
    ``value``.  The stored ordinate is value - j*step, so T_j undoes it."""
    if not 0.0 <= alpha < math.pi:
        raise ValueError("orientation must lie in [0, pi)")
    if not 0 <= j < params.n:
        raise ValueError(f"transform index must lie in [0, {params.n})")
    snapped = snap_angle(alpha, params.n)
    # betas carry 9 decimal digits end to end (the file format's precision),
    # so serialization round-trips exactly; the 5e-10 rad loss is harmless
    beta = round((snapped + j * math.pi / params.n) % math.pi, 9)
    stored = (value - j * params.step) % params.q
    return stored, beta


def recover_index(alpha_measured: float, beta: float, n: int) -> int:
    """Invert encode_point: j = round(n*((beta - alpha) mod pi)/pi) mod n.
    Exact whenever the measured alpha is within pi/(2n) of the snapped
    enrollment orientation."""
    frac = ((beta - alpha_measured) % math.pi) * n / math.pi
    return round(frac) % n


def apply_transform(stored: int, j: int, params: QuizParams) -> int:
    """T_j: recover the true ordinate from the stored one."""
    return (stored + j * params.step) % params.q


def transform_offsets(params: QuizParams) -> tuple[int, ...]:
    """All n possible (true - stored) offsets; membership of (g(X) - Y) mod q
    in this set is the any-index graph test used by vault-wide scans."""
    return tuple(j * params.step % params.q for j in range(params.n))


def random_grid_beta(n: int, rng: random.Random) -> float:
    """Chaff beta: uniform on the same pi/n grid the genuine betas live on,
    so beta alone cannot separate chaff from genuine."""
    return round((rng.randrange(n) * math.pi / n) % math.pi, 9)


def attack_bits(k: int, n: int) -> float:
    """Extra attacker work in bits: k*log2(n) (n=1 means no quiz)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return k * math.log2(n)
