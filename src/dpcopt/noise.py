"""Per-agent Laplace noise with geometrically decaying scale.

Scales follow theta_k = s * q^k. Sampling uses the inverse CDF
xi = -theta * sign(u) * ln(1 - 2|u|) with u ~ U(-1/2, 1/2) so that a
seeded stream reproduces the exact same noise bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from dpcopt.errors import ConfigInvalid

__all__ = ["NoiseSchedule", "scale_at", "sample_laplace"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Laplace scale family theta_k = s * q^k for one noised variable."""

    s: float
    q: float
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ConfigInvalid("noise.s: base scale must be >= 0")
        if not (0.0 < self.q < 1.0):
            raise ConfigInvalid("noise.q: decay rate must lie in (0, 1)")


def scale_at(sched: NoiseSchedule, k: int) -> float:
    """Scale in effect at round k; 0 when the schedule is disabled."""
    if k < 0:
        raise ConfigInvalid("noise: round index must be >= 0")
    if not sched.enabled:
        return 0.0
    return sched.s * sched.q**k


def sample_laplace(
    theta: float, d: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """n rows (n, d) of i.i.d. Laplace(theta) coordinates from a sequence
    of n generators, row i drawn from rngs[i]; zeros when theta = 0.

    Each row's d uniforms come from its own generator, written straight
    into a fresh (n, d) block, and one inverse-CDF transform maps all rows.
    """
    if theta < 0:
        raise ConfigInvalid("noise: scale must be >= 0")
    if d < 1:
        raise ConfigInvalid("noise: dimension must be >= 1")
    if theta == 0.0:
        return np.zeros((len(rngs), d))
    u = np.empty((len(rngs), d))
    for g, row in zip(rngs, u):
        g.random(out=row)
    u -= 0.5
    decay = 1.0 - 2.0 * np.abs(u)
    # u = -0.5 exactly would hit log(0); clamp that measure-zero draw.
    np.maximum(decay, np.finfo(np.float64).tiny, out=decay)
    return -theta * np.sign(u) * np.log(decay)
