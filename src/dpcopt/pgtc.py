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

x and y share steps 1-4, so the state stacks them as one (2, n, d) block
z = (x, y), and x^c, y^c as zc: one call per step, bit-equal to two.

Because W is doubly stochastic, the mean of y tracks the mean local
gradient plus all injected y-noise; the engine carries that cumulative
noise so the identity can be checked to 1e-9 every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpcopt.compressors import BBIT, CompressorSpec, encode_decode
from dpcopt.errors import ConfigInvalid, NonFiniteState
from dpcopt.metrics import Trace, check_start, run_rounds
from dpcopt.noise import NoiseSchedule, sample_laplace, scale_at
from dpcopt.objectives import as_agent_objectives, mean_value_grad
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
        if not (self.eta > 0):
            raise ConfigInvalid("gains.eta: must be positive")
        if not (0 < self.gamma <= 1):
            raise ConfigInvalid("gains.gamma: must lie in (0, 1]")
        limit = 1.0 / self.compressor.r
        if not (0 < self.alpha_x < limit):
            raise ConfigInvalid("gains.alpha_x: must lie in (0, 1/r)")
        if not (0 < self.alpha_y < limit):
            raise ConfigInvalid("gains.alpha_y: must lie in (0, 1/r)")
        if self.iterations < 1:
            raise ConfigInvalid("iterations: must be >= 1")


@dataclass
class PgtcState:
    """(2, n, d) blocks z = (x, y) and zc = (x^c, y^c) after k rounds."""

    z: np.ndarray
    zc: np.ndarray
    grad_prev: np.ndarray
    noise_y_cumsum: np.ndarray
    k: int

    x = property(lambda self: self.z[0])
    y = property(lambda self: self.z[1])
    xc = property(lambda self: self.zc[0])
    yc = property(lambda self: self.zc[1])


def pgtc_init(
    cfg: PgtcConfig,
    objectives,
    net: Network,
    x0: np.ndarray,
    streams: StreamFactory,
) -> PgtcState:
    """Initial state: y_0 holds the local gradients at x_0, both
    compression references start at zero."""
    x0 = check_start(x0, objectives, net.n)
    # As in pgtc_step, the finite check is the detector, not numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        grad0 = as_agent_objectives(objectives).grad(x0)
    if not np.isfinite(grad0).all():
        raise NonFiniteState(0, "initial gradient is not finite")
    return PgtcState(
        z=np.stack([x0, grad0]),
        zc=np.zeros((2,) + x0.shape),
        grad_prev=grad0,
        noise_y_cumsum=np.zeros(x0.shape[1]),
        k=0,
    )


def pgtc_step(
    state: PgtcState,
    cfg: PgtcConfig,
    objectives,
    net: Network,
    streams: StreamFactory,
) -> PgtcState:
    """Advance one synchronous round. Pure: returns a fresh state."""
    _, n, d = state.z.shape
    k = state.k

    # A round whose scale is 0 (schedule disabled, or s*q^k underflowed)
    # adds no noise to that variable and draws none.
    theta_x = scale_at(cfg.noise_x, k)
    theta_y = scale_at(cfg.noise_y, k)
    za = state.z.copy() if theta_x > 0.0 or theta_y > 0.0 else state.z
    if theta_x > 0.0:
        za[0] += sample_laplace(theta_x, d, streams.rows(Tag.NOISE_X, k, n))
    noise_y_cumsum = state.noise_y_cumsum
    if theta_y > 0.0:
        xi_y = sample_laplace(theta_y, d, streams.rows(Tag.NOISE_Y, k, n))
        za[1] += xi_y
        # What xi_y.mean(axis=0) computes, without its Python wrapper.
        noise_y_cumsum = noise_y_cumsum + np.add.reduce(xi_y, axis=0) / n

    # One compression draw per sender per round, so all receivers decode the
    # same zhat. The x rows come first: a sender's stream serves x, then y.
    spec = cfg.compressor
    rngs_c = streams.rows(Tag.COMPRESS, k, n) * 2 if spec.kind == BBIT else None
    zhat = encode_decode(spec, za.reshape(-1, d), state.zc.reshape(-1, d), rngs_c)
    zhat = zhat.reshape(2, n, d)

    # Divergence shows up as overflow here; the finite check below is
    # the official detector, so numpy's warning is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        z_next = za + cfg.gamma * (net.mixing @ zhat - zhat)
        z_next[0] -= cfg.eta * state.y
        grad_next = as_agent_objectives(objectives).grad(z_next[0])
        z_next[1] += grad_next
        z_next[1] -= state.grad_prev

    if not np.isfinite(z_next).all():
        raise NonFiniteState(k, "gradient-tracking update diverged")

    alpha = np.array([cfg.alpha_x, cfg.alpha_y])[:, None, None]
    return PgtcState(
        z=z_next,
        zc=(1.0 - alpha) * state.zc + alpha * zhat,
        grad_prev=grad_next,
        noise_y_cumsum=noise_y_cumsum,
        k=k + 1,
    )


def tracking_residual(state: PgtcState) -> float:
    """Infinity norm of mean(y) - mean(grad at current x) - accumulated
    mean y-noise; zero in exact arithmetic at every round."""
    n = len(state.y)
    gap = (
        np.add.reduce(state.y, axis=0) / n
        - np.add.reduce(state.grad_prev, axis=0) / n
        - state.noise_y_cumsum
    )
    return float(np.max(np.abs(gap)))


def _emit_row(trace: Trace, state: PgtcState, objectives) -> None:
    xbar = np.add.reduce(state.x, axis=0) / len(state.x)
    with np.errstate(over="ignore", invalid="ignore"):
        _, gbar = mean_value_grad(objectives, xbar)
    trace.record(state.x, xbar, gbar, state.k, tracking_residual(state))


def pgtc_run(
    cfg: PgtcConfig,
    objectives,
    net: Network,
    x0: np.ndarray,
    streams: StreamFactory,
    record_iterates: bool = False,
    horizon: int = 0,
) -> Trace:
    """Run cfg.iterations rounds and return the trace (row k=0 included);
    see metrics.run_rounds for the horizon."""
    return run_rounds(
        pgtc_init, pgtc_step, _emit_row, MESSAGES_PER_AGENT, cfg.noise_y,
        cfg, objectives, net, x0, streams, record_iterates, horizon,
    )
