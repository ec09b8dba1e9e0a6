"""Synchronous-round engine for private gradient tracking with
compression (PGTC). The Identity compressor with disabled noise gives
the uncompressed diffusion baseline.

One round, for every agent i simultaneously:

1. draw Laplace noise xi_x, xi_y at scales s*q^k and form the noisy
   broadcasts x^a = x + xi_x, y^a = y + xi_y;
2. compress both differences to the reference vectors once per sender
   (x^a_i - x^c_i and y^a_i - y^c_i) and decode the shared estimates
   xhat_j = x^c_j + C(...), yhat_j = y^c_j + C(...);
3. x_{i,k+1} = x^a_i + gamma * sum_j w_ij (xhat_j - xhat_i) - eta * y_i;
4. reference updates x^c <- (1-alpha_x) x^c + alpha_x xhat (same for
   y^c with alpha_y);
5. y_{i,k+1} = y^a_i + gamma * sum_j w_ij (yhat_j - yhat_i)
   + grad f_i(x_{i,k+1}) - grad f_i(x_{i,k}).

Each agent's blocks are the rows of one (3, n, d) block z = (x, y, g),
g = grad f(x) the local gradients at x, kept for step 5 of the next round.
x and y share steps 1, 2 and 4 (metrics.noisy_round), with x^c, y^c as zc:
one call per step, bit-equal to two. g is neither noised nor sent.

Because W is doubly stochastic, the mean of y tracks the mean local
gradient plus all injected y-noise; the state carries that cumulative
noise so the identity can be checked to 1e-9 every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpcopt.compressors import CompressorSpec, encode_decode
from dpcopt.errors import ConfigInvalid, NonFiniteState
from dpcopt.metrics import (
    EngineConfig, RoundState, RoundWorkspace, Trace, check_start, noisy_round, run_rounds,
)
from dpcopt.noise import NoiseSchedule, sample_laplace
from dpcopt.objectives import AgentObjectives, mean_value_grad
from dpcopt.rng import StreamFactory, Tag
from dpcopt.topology import Network

__all__ = ["PgtcConfig", "pgtc_init", "pgtc_step", "pgtc_run"]

# Messages each agent broadcasts per round (noisy x and noisy y).
MESSAGES_PER_AGENT = 2


@dataclass(frozen=True)
class PgtcConfig(EngineConfig):
    eta: float
    gamma: float
    alpha_x: float
    alpha_y: float
    compressor: CompressorSpec
    noise_x: NoiseSchedule
    noise_y: NoiseSchedule
    iterations: int

    NAME = "pgtc"
    GAINS = ("eta", "gamma", "alpha_x", "alpha_y")
    SECOND = "y"
    MESSAGES_PER_AGENT = MESSAGES_PER_AGENT
    DIVERGED = "gradient-tracking update diverged"

    def __post_init__(self) -> None:
        self.plan(Tag.NOISE_Y, alpha_x=self.alpha_x, alpha_y=self.alpha_y)
        if not (0 < self.gamma <= 1):
            raise ConfigInvalid("gains.gamma: must lie in (0, 1]")


def pgtc_init(
    cfg: PgtcConfig,
    objectives: AgentObjectives,
    net: Network,
    x0: np.ndarray,
    streams: StreamFactory,
) -> RoundState:
    """Initial state z = (x_0, g_0, g_0): y_0 and the kept gradients both
    hold the local gradients at x_0."""
    x0 = check_start(x0, objectives, net.n)
    # As in pgtc_step, the finite check is the detector, not numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        grad0 = objectives.grad(x0)
    if not np.isfinite(grad0).all():
        raise NonFiniteState(0, "initial gradient is not finite")
    return RoundState.start(cfg, np.stack([x0, grad0, grad0]))


def pgtc_step(
    state: RoundState,
    cfg: PgtcConfig,
    objectives: AgentObjectives,
    net: Network,
    streams: StreamFactory,
    workspace: RoundWorkspace | None = None,
) -> RoundState:
    """Advance one synchronous round and return the next state, written
    into workspace (see metrics.RoundWorkspace). The incoming state is
    never written; without a workspace the step is pure."""

    def update(z, zhat):
        # Steps 3 and 5 in place: x and y mix alike, then eta and the
        # gradients; z[2] holds the incoming ones until the last line.
        z[:2] += cfg.gamma * (net.mixing @ zhat - zhat)
        z[0] -= cfg.eta * state.z[1]
        grad = objectives.grad(z[0])
        z[1] += grad
        z[1] -= z[2]
        z[2] = grad

    return noisy_round(state, cfg, update, streams, sample_laplace, encode_decode, workspace)


def tracking_residual(state: RoundState) -> float:
    """Infinity norm of mean(y) - mean(grad at current x) - accumulated
    mean y-noise; zero in exact arithmetic at every round."""
    _, y, grad = state.z
    n = len(y)
    gap = np.add.reduce(y, axis=0) / n - np.add.reduce(grad, axis=0) / n - state.noise_cumsum
    return float(np.max(np.abs(gap)))


def _emit_row(trace: Trace, state: RoundState, xbar: np.ndarray) -> None:
    np.divide(np.add.reduce(state.x, axis=0), len(state.x), out=xbar)
    trace.record(state.x, xbar, state.k, tracking_residual(state))


def pgtc_run(
    cfg: PgtcConfig,
    objectives: AgentObjectives,
    net: Network,
    x0: np.ndarray,
    streams: StreamFactory,
    record_iterates: bool = False,
    horizon: int = 0,
) -> Trace:
    """Run cfg.iterations rounds and return the trace (row k=0 included);
    see metrics.run_rounds for the horizon."""
    return run_rounds(
        pgtc_init, pgtc_step, _emit_row, mean_value_grad,
        cfg, objectives, net, x0, streams, record_iterates, horizon,
    )
