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

Laplacian rows sum to zero, so the dual average is exactly the running
mean of injected v-noise; the engine carries that sum so the identity
can be checked to 1e-9 every round. The v-noise keeps the dual state
private even though v is never transmitted; disabling it (noise.v
enabled=false) is an ablation that forfeits the privacy guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpcopt.compressors import BBIT, CompressorSpec, encode_decode
from dpcopt.errors import ConfigInvalid, NonFiniteState
from dpcopt.metrics import Trace, check_start, run_rounds
from dpcopt.noise import NoiseSchedule, sample_laplace, scale_at
from dpcopt.objectives import AgentObjectives, mean_value_grad
from dpcopt.rng import StreamFactory, Tag
from dpcopt.topology import Network

__all__ = ["PpdcConfig", "PpdcState", "ppdc_init", "ppdc_step", "ppdc_run"]

# One compressed broadcast per agent per round.
MESSAGES_PER_AGENT = 1


@dataclass(frozen=True)
class PpdcConfig:
    eta: float
    gamma: float
    omega: float
    alpha_x: float
    compressor: CompressorSpec
    noise_x: NoiseSchedule
    noise_v: NoiseSchedule
    iterations: int

    def __post_init__(self) -> None:
        if not (self.eta > 0):
            raise ConfigInvalid("gains.eta: must be positive")
        if not (self.gamma > 0):
            raise ConfigInvalid("gains.gamma: must be positive")
        if not (self.omega > 0):
            raise ConfigInvalid("gains.omega: must be positive")
        if not (0 < self.alpha_x < 1.0 / self.compressor.r):
            raise ConfigInvalid("gains.alpha_x: must lie in (0, 1/r)")
        if self.iterations < 1:
            raise ConfigInvalid("iterations: must be >= 1")


@dataclass
class PpdcState:
    """Stacked (n, d) state of all agents after k rounds."""

    x: np.ndarray
    v: np.ndarray
    xc: np.ndarray
    noise_v_cumsum: np.ndarray
    k: int


def ppdc_init(
    cfg: PpdcConfig,
    objectives: AgentObjectives,
    net: Network,
    x0: np.ndarray,
    streams: StreamFactory,
) -> PpdcState:
    """Initial state: dual variables and compression references zeroed."""
    x0 = check_start(x0, objectives, net.n)
    return PpdcState(
        x=x0.copy(),
        v=np.zeros_like(x0),
        xc=np.zeros_like(x0),
        noise_v_cumsum=np.zeros(x0.shape[1]),
        k=0,
    )


def ppdc_step(
    state: PpdcState,
    cfg: PpdcConfig,
    objectives: AgentObjectives,
    net: Network,
    streams: StreamFactory,
) -> PpdcState:
    """Advance one synchronous round. Pure: returns a fresh state."""
    n, d = state.x.shape
    lap = net.laplacian
    spec = cfg.compressor
    k = state.k

    # A round whose scale is 0 (schedule disabled, or s*q^k underflowed)
    # adds no noise to that variable and draws none.
    theta_x = scale_at(cfg.noise_x, k)
    theta_v = scale_at(cfg.noise_v, k)
    xa = state.x
    if theta_x > 0.0:
        xa = xa + sample_laplace(theta_x, d, streams.rows(Tag.NOISE_X, k, n))
    va = state.v
    noise_v_cumsum = state.noise_v_cumsum
    if theta_v > 0.0:
        xi_v = sample_laplace(theta_v, d, streams.rows(Tag.NOISE_V, k, n))
        va = va + xi_v
        # What xi_v.mean(axis=0) computes, without its Python wrapper.
        noise_v_cumsum = noise_v_cumsum + np.add.reduce(xi_v, axis=0) / n

    # One compression draw per sender per round (broadcast semantics).
    rngs_c = streams.rows(Tag.COMPRESS, k, n) if spec.kind == BBIT else None
    xhat = encode_decode(spec, xa, state.xc, rngs_c)

    # Divergence shows up as overflow here; the finite check below is
    # the official detector, so numpy's warning is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        grads = objectives.grad(state.x)
        mixed = lap @ xhat
        x_next = xa - cfg.eta * (cfg.gamma * mixed + cfg.omega * state.v + grads)
        v_next = va + cfg.eta * cfg.omega * mixed

    if not (np.isfinite(x_next).all() and np.isfinite(v_next).all()):
        raise NonFiniteState(k, "primal-dual update diverged")

    return PpdcState(
        x=x_next,
        v=v_next,
        xc=(1.0 - cfg.alpha_x) * state.xc + cfg.alpha_x * xhat,
        noise_v_cumsum=noise_v_cumsum,
        k=k + 1,
    )


def dual_average_residual(state: PpdcState) -> float:
    """Infinity norm of mean(v) minus the accumulated mean v-noise;
    zero in exact arithmetic because Laplacian columns sum to zero."""
    gap = np.add.reduce(state.v, axis=0) / len(state.v) - state.noise_v_cumsum
    return float(np.max(np.abs(gap)))


def _emit_row(trace: Trace, state: PpdcState, xbar: np.ndarray) -> None:
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
        ppdc_init, ppdc_step, _emit_row, mean_value_grad, MESSAGES_PER_AGENT, cfg.noise_v,
        cfg, objectives, net, x0, streams, record_iterates, horizon,
    )
