"""Per-agent differential-privacy budgets for both engines and their
inversion to noise scales for a target budget.

For a finite horizon K with Laplace schedules theta_k = s * q^k, both
engines spend

    eps = a sqrt(d) M (sqrt(eta)/s_x + c/(w s_2)) S

where s_2 is the second variable's base scale, (a, c) = (4, 1) and
w = 1 for gradient tracking, (a, c) = (2, 2) and w = omega for the
primal-dual engine, and S = sum_{k=0}^{K} q^{-k}, evaluated in closed
form. M is the gradient bound, supplied as a box-restricted empirical
surrogate (see objectives.estimate_grad_bound); any report should carry
the box radius alongside eps. The budgets grow without bound as K grows
because the decaying noise spends privacy faster each round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from dpcopt.errors import ConfigInvalid
from dpcopt.noise import NoiseSchedule

__all__ = [
    "PrivacyParams",
    "geometric_budget_sum",
    "epsilon",
    "scales_for_epsilon",
    "budget_for_run",
]

# (a, c) of the budget formula, per engine.
_BUDGET_CONSTANTS = {"pgtc": (4.0, 1.0), "ppdc": (2.0, 2.0)}


@dataclass(frozen=True)
class PrivacyParams:
    """The run an engine's budget describes, without its noise scales.

    omega is required for the primal-dual budget and ignored by the
    gradient-tracking one.
    """

    algorithm: str
    d: int
    M: float
    K: int
    eta: float
    q: float
    omega: float | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in _BUDGET_CONSTANTS:
            raise ConfigInvalid(f"algorithm: unknown algorithm {self.algorithm!r}")
        if self.d < 1:
            raise ConfigInvalid("privacy: dimension must be >= 1")
        if not (self.M > 0):
            raise ConfigInvalid("privacy: gradient bound M must be positive")
        if self.K < 0:
            raise ConfigInvalid("privacy: horizon K must be >= 0")
        if not (self.eta > 0):
            raise ConfigInvalid("privacy: eta must be positive")
        if not (0.0 < self.q < 1.0):
            raise ConfigInvalid("privacy: q must lie in (0, 1)")
        if self.omega is not None and not (self.omega > 0):
            raise ConfigInvalid("privacy: omega must be positive when given")
        if self.algorithm == "ppdc" and self.omega is None:
            raise ConfigInvalid("privacy: omega is required for the primal-dual budget")

    @property
    def w(self) -> float:
        """Divisor of the second term: omega for ppdc, 1 for pgtc."""
        return self.omega if self.algorithm == "ppdc" else 1.0


def geometric_budget_sum(q: float, K: int) -> float:
    """S = sum_{k=0}^{K} q^{-k} in closed form.

    Saturates to inf once the sum leaves the float range (fast decay
    over a long horizon); downstream that reads as an unbounded budget
    rather than a crash.
    """
    if not (0.0 < q < 1.0):
        raise ConfigInvalid("privacy: q must lie in (0, 1)")
    if K < 0:
        raise ConfigInvalid("privacy: horizon K must be >= 0")
    inv_q = 1.0 / q
    try:
        return (inv_q ** (K + 1) - 1.0) / (inv_q - 1.0)
    except OverflowError:
        return math.inf


def epsilon(p: PrivacyParams, s_x: float, s_second: float) -> float:
    """Budget spent by a K-round run with base scales s_x and s_second."""
    if not (s_x > 0 and s_second > 0):
        raise ConfigInvalid("privacy: both noise scales must be positive")
    a, c = _BUDGET_CONSTANTS[p.algorithm]
    s = geometric_budget_sum(p.q, p.K)
    return a * math.sqrt(p.d) * p.M * (math.sqrt(p.eta) / s_x + c / (p.w * s_second)) * s


def scales_for_epsilon(
    p: PrivacyParams, target: float, split: float = 0.5
) -> tuple[float, float]:
    """Invert the budget: scales making the x-term contribute
    split*target and the second term (1-split)*target.

    Feeding the result back through epsilon reproduces the target up to
    rounding.
    """
    if not (target > 0) or math.isinf(target):
        raise ConfigInvalid("privacy: target epsilon must be positive and finite")
    if not (0.0 < split < 1.0):
        raise ConfigInvalid("privacy.split: must lie in (0, 1)")
    a, c = _BUDGET_CONSTANTS[p.algorithm]
    s = geometric_budget_sum(p.q, p.K)
    root_d = math.sqrt(p.d)
    s_x = a * root_d * p.M * math.sqrt(p.eta) * s / (split * target)
    s_second = (a * c) * root_d * p.M * s / (p.w * (1.0 - split) * target)
    return s_x, s_second


def budget_for_run(
    p: PrivacyParams, noise_x: NoiseSchedule, noise_second: NoiseSchedule
) -> float | None:
    """Budget for a configured run, or None when no guarantee exists.

    None is the distinguished "no privacy guarantee" outcome: it is
    returned whenever either noise family is disabled or has zero scale,
    and callers must not coerce it into a number.
    """
    if not noise_x.enabled or not noise_second.enabled:
        return None
    if noise_x.s == 0.0 or noise_second.s == 0.0:
        return None
    if not (noise_x.q == noise_second.q == p.q):
        raise ConfigInvalid(
            "privacy: budgets assume one decay rate shared by both noise "
            "families and the horizon sum"
        )
    return epsilon(p, noise_x.s, noise_second.s)
