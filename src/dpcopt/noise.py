"""Per-agent Laplace noise with geometrically decaying scale.

Scales follow theta_k = s * q^k. Sampling uses the inverse CDF
xi = -theta * sign(u) * ln(1 - 2|u|) with u ~ U(-1/2, 1/2) so that a
seeded stream reproduces the exact same noise bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from dpcopt.errors import ConfigInvalid, DimensionMismatch

__all__ = ["NoiseSchedule", "scale_at", "sample_laplace"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Laplace scale family theta_k = s * q^k for one noised variable."""

    s: float
    q: float
    enabled: bool = True

    def __post_init__(self) -> None:
        # Field-relative messages; the config parser prefixes the path.
        if self.s < 0:
            raise ConfigInvalid("s: must be >= 0")
        if not (0.0 < self.q < 1.0):
            raise ConfigInvalid("q: must lie in (0, 1)")


def scale_at(sched: NoiseSchedule, k: int) -> float:
    """Scale in effect at round k; 0 when the schedule is disabled."""
    if k < 0:
        raise ConfigInvalid("noise: round index must be >= 0")
    if not sched.enabled:
        return 0.0
    return sched.s * sched.q**k


def sample_laplace(
    theta: float, d: int, rngs: Sequence[np.random.Generator],
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """n rows (n, d) of i.i.d. Laplace(theta) coordinates from a sequence
    of n generators, row i drawn from rngs[i]; zeros when theta = 0.

    Each row's d uniforms come from its own generator, written straight
    into the (n, d) result block, and one inverse-CDF transform maps all
    rows. The result is written into out and the transform's temporary
    into scratch, two distinct (n, d) blocks, when they are given, and
    into fresh blocks otherwise; the bits are the same either way. A block
    of another shape raises DimensionMismatch.
    """
    if theta < 0:
        raise ConfigInvalid("noise: scale must be >= 0")
    if d < 1:
        raise ConfigInvalid("noise: dimension must be >= 1")
    if any(b is not None and b.shape != (len(rngs), d) for b in (out, scratch)):
        raise DimensionMismatch(f"noise: out and scratch must be ({len(rngs)}, {d}) blocks")
    u = np.empty((len(rngs), d)) if out is None else out
    if theta == 0.0:
        u.fill(0.0)
        return u
    for g, row in zip(rngs, u):
        g.random(out=row)
    u -= 0.5
    decay = np.abs(u, out=scratch)
    decay *= 2.0
    np.subtract(1.0, decay, out=decay)
    # u = -0.5 exactly would hit log(0); clamp that measure-zero draw.
    np.maximum(decay, np.finfo(np.float64).tiny, out=decay)
    np.log(decay, out=decay)
    # -theta * sign(u) * log(decay), factor by factor, in u's block:
    # -theta * sign(u) is copysign(theta, -u), as in-place np.sign is slow.
    # The bits are those of the sign form because u = r - 0.5 is never
    # -0.0: at r = 0.5, u = +0.0 and both give -theta * (+0.0) = -0.0.
    np.negative(u, out=u)
    np.copysign(theta, u, out=u)
    u *= decay
    return u
