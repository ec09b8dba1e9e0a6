"""Synchronous-round engine for private primal-dual optimization with
compression (PPDC): one compressed broadcast per agent per round, half
the traffic of the gradient-tracking engine.

One round, for every agent i simultaneously:

1. draw Laplace noise xi_x, xi_v at scales s*q^k;
2. compress x_i + xi_x - x^c_i once per sender, decode the shared
   estimate xhat_j = x^c_j + C(...);
3. x_{i,k+1} = x_i + xi_x
   - eta * (gamma * sum_j L_ij xhat_j + omega * v_i + grad f_i(x_i));
4. v_{i,k+1} = v_i + xi_v + eta * omega * sum_j L_ij xhat_j;
5. reference update x^c <- (1-alpha_x) x^c + alpha_x xhat.

Steps 1, 2 and 5 are metrics.noisy_round on the (2, n, d) block z = (x, v),
of which both rows are noised and only x is sent. Laplacian rows sum to
zero, so the dual average is exactly the running mean of injected v-noise;
the state carries that sum so the identity can be checked to 1e-9 every
round. The v-noise keeps the dual state private even though v is never
transmitted; disabling it (noise.v enabled=false) is an ablation that
forfeits the privacy guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpcopt.compressors import CompressorSpec, encode_decode
from dpcopt.errors import ConfigInvalid
from dpcopt.metrics import (
    EngineConfig, RoundState, RoundWorkspace, Trace, check_start, noisy_round, run_rounds,
)
from dpcopt.noise import NoiseSchedule, sample_laplace
from dpcopt.objectives import AgentObjectives, mean_value_grad
from dpcopt.rng import StreamFactory, Tag
from dpcopt.topology import Network

__all__ = ["PpdcConfig", "ppdc_init", "ppdc_step", "ppdc_run"]

# One compressed broadcast per agent per round.
MESSAGES_PER_AGENT = 1


@dataclass(frozen=True)
class PpdcConfig(EngineConfig):
    eta: float
    gamma: float
    omega: float
    alpha_x: float
    compressor: CompressorSpec
    noise_x: NoiseSchedule
    noise_v: NoiseSchedule
    iterations: int

    NAME = "ppdc"
    GAINS = ("eta", "gamma", "alpha_x", "omega")
    SECOND = "v"
    MESSAGES_PER_AGENT = MESSAGES_PER_AGENT
    DIVERGED = "primal-dual update diverged"

    def __post_init__(self) -> None:
        self.plan(Tag.NOISE_V, alpha_x=self.alpha_x)
        if not (self.gamma > 0):
            raise ConfigInvalid("gains.gamma: must be positive")
        if not (self.omega > 0):
            raise ConfigInvalid("gains.omega: must be positive")


def ppdc_init(
    cfg: PpdcConfig,
    objectives: AgentObjectives,
    net: Network,
    x0: np.ndarray,
    streams: StreamFactory,
) -> RoundState:
    """Initial state z = (x_0, 0): the dual variables start at zero."""
    x0 = check_start(x0, objectives, net.n)
    return RoundState.start(cfg, np.stack([x0, np.zeros_like(x0)]))


def ppdc_step(
    state: RoundState,
    cfg: PpdcConfig,
    objectives: AgentObjectives,
    net: Network,
    streams: StreamFactory,
    workspace: RoundWorkspace | None = None,
) -> RoundState:
    """Advance one synchronous round and return the next state, written
    into workspace (see metrics.RoundWorkspace). The incoming state is
    never written; without a workspace the step is pure."""

    def update(z, xhat):
        # Steps 3 and 4 in place, from the incoming x and v.
        x, v = state.z
        mixed = net.laplacian @ xhat[0]
        z[0] -= cfg.eta * (cfg.gamma * mixed + cfg.omega * v + objectives.grad(x))
        z[1] += cfg.eta * cfg.omega * mixed

    return noisy_round(state, cfg, update, streams, sample_laplace, encode_decode, workspace)


def dual_average_residual(state: RoundState) -> float:
    """Infinity norm of mean(v) minus the accumulated mean v-noise;
    zero in exact arithmetic because Laplacian columns sum to zero."""
    v = state.z[1]
    gap = np.add.reduce(v, axis=0) / len(v) - state.noise_cumsum
    return float(np.max(np.abs(gap)))


def _emit_row(trace: Trace, state: RoundState, xbar: np.ndarray) -> None:
    np.divide(np.add.reduce(state.x, axis=0), len(state.x), out=xbar)
    trace.record(state.x, xbar, state.k, dual_average_residual(state))


def ppdc_run(
    cfg: PpdcConfig,
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
        ppdc_init, ppdc_step, _emit_row, mean_value_grad,
        cfg, objectives, net, x0, streams, record_iterates, horizon,
    )
