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

x and y share steps 1, 2 and 4 (metrics.noisy_round) as one (2, n, d)
block z = (x, y), and x^c, y^c as zc: one call per step, bit-equal to two.

Because W is doubly stochastic, the mean of y tracks the mean local
gradient plus all injected y-noise; the engine carries that cumulative
noise so the identity can be checked to 1e-9 every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpcopt.compressors import CompressorSpec, encode_decode
from dpcopt.errors import ConfigInvalid, NonFiniteState
from dpcopt.metrics import (
    RoundState, RoundWorkspace, Trace, check_gains, check_start, noisy_round, run_rounds,
)
from dpcopt.noise import NoiseSchedule, sample_laplace
from dpcopt.objectives import AgentObjectives, mean_value_grad
from dpcopt.rng import StreamFactory, Tag
from dpcopt.topology import Network

__all__ = ["PgtcConfig", "PgtcState", "pgtc_init", "pgtc_step", "pgtc_run"]

# Messages each agent broadcasts per round (noisy x and noisy y).
MESSAGES_PER_AGENT = 2


@dataclass(frozen=True)
class PgtcConfig:
    eta: float
    gamma: float
    alpha_x: float
    alpha_y: float
    compressor: CompressorSpec
    noise_x: NoiseSchedule
    noise_y: NoiseSchedule
    iterations: int

    def __post_init__(self) -> None:
        alphas = {"alpha_x": self.alpha_x, "alpha_y": self.alpha_y}
        check_gains(self.eta, alphas, self.compressor, self.iterations)
        if not (0 < self.gamma <= 1):
            raise ConfigInvalid("gains.gamma: must lie in (0, 1]")


@dataclass
class PgtcState(RoundState):
    """z = (x, y) and zc = (x^c, y^c) after k rounds, both sent; grad_prev
    holds the local gradients at x."""

    grad_prev: np.ndarray

    y = property(lambda self: self.z[1])
    yc = property(lambda self: self.zc[1])
    noise_y_cumsum = property(lambda self: self.noise_cumsum)


def pgtc_init(
    cfg: PgtcConfig,
    objectives: AgentObjectives,
    net: Network,
    x0: np.ndarray,
    streams: StreamFactory,
) -> PgtcState:
    """Initial state: y_0 holds the local gradients at x_0, both
    compression references start at zero."""
    x0 = check_start(x0, objectives, net.n)
    # As in pgtc_step, the finite check is the detector, not numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        grad0 = objectives.grad(x0)
    if not np.isfinite(grad0).all():
        raise NonFiniteState(0, "initial gradient is not finite")
    return PgtcState(
        z=np.stack([x0, grad0]),
        zc=np.zeros((2,) + x0.shape),
        noise_cumsum=np.zeros(x0.shape[1]),
        k=0,
        grad_prev=grad0,
    )


def pgtc_step(
    state: PgtcState,
    cfg: PgtcConfig,
    objectives: AgentObjectives,
    net: Network,
    streams: StreamFactory,
    workspace: RoundWorkspace | None = None,
) -> PgtcState:
    """Advance one synchronous round and return the next state, written
    into workspace (see metrics.RoundWorkspace). The incoming state is
    never written; without a workspace the step is pure."""

    def update(z, zhat):
        # Steps 3 and 5 in place: both rows mix alike, then eta and gradients.
        z += cfg.gamma * (net.mixing @ zhat - zhat)
        z[0] -= cfg.eta * state.y
        grad = objectives.grad(z[0])
        z[1] += grad
        z[1] -= state.grad_prev
        return (grad,)

    return noisy_round(
        state, cfg.compressor, ((cfg.noise_x, Tag.NOISE_X), (cfg.noise_y, Tag.NOISE_Y)),
        (cfg.alpha_x, cfg.alpha_y), update, streams, sample_laplace, encode_decode,
        "gradient-tracking update diverged", workspace,
    )


def tracking_residual(state: PgtcState) -> float:
    """Infinity norm of mean(y) - mean(grad at current x) - accumulated
    mean y-noise; zero in exact arithmetic at every round."""
    n = len(state.y)
    gap = (
        np.add.reduce(state.y, axis=0) / n
        - np.add.reduce(state.grad_prev, axis=0) / n
        - state.noise_cumsum
    )
    return float(np.max(np.abs(gap)))


def _emit_row(trace: Trace, state: PgtcState, xbar: np.ndarray) -> None:
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
        pgtc_init, pgtc_step, _emit_row, mean_value_grad, MESSAGES_PER_AGENT, cfg.noise_y,
        cfg, objectives, net, x0, streams, record_iterates, horizon,
    )
