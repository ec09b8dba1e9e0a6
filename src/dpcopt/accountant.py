"""Per-agent differential-privacy budgets for both engines and their
inversion to noise scales for a target budget.

For a finite horizon K with Laplace schedules theta_k = s * q^k, both
engines spend

    eps = a sqrt(d) M (sqrt(eta)/s_x + c/(w s_2)) S

where s_2 is the second variable's base scale, (a, c) = (4, 1) and
w = 1 for gradient tracking, (a, c) = (2, 2) and w = omega for the
primal-dual engine, and S = sum_{k=0}^{K} q^{-k}, evaluated in closed
form. Each engine's record holds (a, c) as BUDGET, w as budget_divisor,
and K, eta and q. M is the gradient bound, a box-restricted empirical
surrogate (see objectives.estimate_grad_bound); any report should carry
the box radius alongside eps. The budgets grow without bound as K grows
because the decaying noise spends privacy faster each round.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from dpcopt.errors import ConfigInvalid
from dpcopt.metrics import EngineConfig

__all__ = ["geometric_budget_sum", "epsilon", "scales_for_epsilon", "budget_for_run"]


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


def _run_terms(engine: EngineConfig, d: int, M: float) -> tuple[float, ...]:
    """(a, c, w, sqrt(d), M, sqrt(eta), S), the terms of the engine's run."""
    if d < 1:
        raise ConfigInvalid("privacy: dimension must be >= 1")
    if not (M > 0):
        raise ConfigInvalid("privacy: gradient bound M must be positive")
    (a, c), w = engine.BUDGET, engine.budget_divisor
    s = geometric_budget_sum(engine.noise_x.q, engine.iterations)
    return a, c, w, math.sqrt(d), M, math.sqrt(engine.eta), s


def _budget(a, c, w, root_d, M, root_eta, s, s_x, s_second):
    return a * root_d * M * (root_eta / s_x + c / (w * s_second)) * s


def _scale_x(a, c, w, root_d, M, root_eta, s, target, split):
    return a * root_d * M * root_eta * s / (split * target)


def _scale_second(a, c, w, root_d, M, root_eta, s, target, split):
    return (a * c) * root_d * M * s / (w * (1 - split) * target)


def _evaluate(formula: Callable[..., float], *args: float) -> float:
    """formula(*args) where positive and finite, so those results keep their
    bits; where an intermediate over- or underflowed (inf, nan, 0 or a zero
    divisor), the formula on exact Fractions, rounded once."""
    try:
        value = formula(*args)
    except ZeroDivisionError:
        value = math.nan
    if 0.0 < value < math.inf:
        return value
    from fractions import Fraction  # only here: it adds 3 ms to every import
    try:
        return float(formula(*map(Fraction, args)))
    except OverflowError:  # Fraction(inf) of an infinite S, or a value past the range
        return math.inf


def epsilon(engine: EngineConfig, d: int, M: float, s_x: float, s_second: float) -> float:
    """Budget spent by the engine's run in dimension d with gradient bound M
    and base scales s_x and s_second; inf when the horizon sum S is."""
    args = (*_run_terms(engine, d, M), s_x, s_second)
    if not (s_x > 0 and s_second > 0):
        raise ConfigInvalid("privacy: both noise scales must be positive")
    return _evaluate(_budget, *args)


def scales_for_epsilon(
    engine: EngineConfig, d: int, M: float, target: float, split: float = 0.5
) -> tuple[float, float]:
    """Invert the budget: scales making the x-term contribute
    split*target and the second term (1-split)*target.

    Feeding the result back through epsilon reproduces the target up to
    rounding. Both scales are inf when the horizon sum S is.
    """
    args = (*_run_terms(engine, d, M), target, split)
    if not (target > 0) or math.isinf(target):
        raise ConfigInvalid("privacy: target epsilon must be positive and finite")
    if not (0.0 < split < 1.0):
        raise ConfigInvalid("privacy.split: must lie in (0, 1)")
    return _evaluate(_scale_x, *args), _evaluate(_scale_second, *args)


def budget_for_run(engine: EngineConfig, d: int, M: float) -> float | None:
    """Budget for the engine's run, or None when no guarantee exists.

    None is the distinguished "no privacy guarantee" outcome: it is
    returned whenever either noise family is disabled or has zero scale,
    and callers must not coerce it into a number.
    """
    noise_x, noise_second = engine.noise_x, engine.noise_second
    if not (noise_x.enabled and noise_second.enabled) or 0.0 in (noise_x.s, noise_second.s):
        return None
    if noise_x.q != noise_second.q:
        raise ConfigInvalid(
            "privacy: budgets assume one decay rate shared by both noise "
            "families and the horizon sum"
        )
    return epsilon(engine, d, M, noise_x.s, noise_second.s)
