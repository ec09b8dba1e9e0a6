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

Because W is doubly stochastic, the mean of y tracks the mean local
gradient plus all injected y-noise; the engine carries that cumulative
noise so the identity can be checked to 1e-9 every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpcopt.compressors import BBIT, CompressorSpec, bit_cost, encode_decode
from dpcopt.errors import ConfigInvalid, DimensionMismatch, NonFiniteState
from dpcopt.metrics import Trace, TraceRow
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
    """Stacked (n, d) state of all agents after k rounds."""

    x: np.ndarray
    y: np.ndarray
    xc: np.ndarray
    yc: np.ndarray
    grad_prev: np.ndarray
    noise_y_cumsum: np.ndarray
    k: int


def _check_shapes(x0: np.ndarray, n: int) -> np.ndarray:
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[0] != n:
        raise DimensionMismatch(
            f"x0 has shape {x0.shape}, expected ({n}, d) for this graph"
        )
    return x0


def pgtc_init(
    cfg: PgtcConfig,
    objectives,
    net: Network,
    x0: np.ndarray,
    streams: StreamFactory,
) -> PgtcState:
    """Initial state: y_0 holds the local gradients at x_0, both
    compression references start at zero."""
    x0 = _check_shapes(x0, net.n)
    d = x0.shape[1]
    if objectives[0].d != d:
        raise DimensionMismatch(
            f"objectives have dimension {objectives[0].d}, x0 has {d}"
        )
    # As in pgtc_step, the finite check is the detector, not numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        grad0 = as_agent_objectives(objectives).grad(x0)
    if not np.isfinite(grad0).all():
        raise NonFiniteState(0, "initial gradient is not finite")
    return PgtcState(
        x=x0.copy(),
        y=grad0.copy(),
        xc=np.zeros_like(x0),
        yc=np.zeros_like(x0),
        grad_prev=grad0,
        noise_y_cumsum=np.zeros(d),
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
    n, d = state.x.shape
    w = net.mixing.w
    spec = cfg.compressor
    k = state.k

    theta_x = scale_at(cfg.noise_x, k)
    theta_y = scale_at(cfg.noise_y, k)
    if theta_x > 0.0:
        xi_x = sample_laplace(theta_x, d, streams.rows(Tag.NOISE_X, k, n))
    else:
        xi_x = np.zeros((n, d))
    if theta_y > 0.0:
        xi_y = sample_laplace(theta_y, d, streams.rows(Tag.NOISE_Y, k, n))
    else:
        xi_y = np.zeros((n, d))

    xa = state.x + xi_x
    ya = state.y + xi_y

    # One compression draw per sender per round; every receiver decodes
    # the same xhat/yhat because the draw happens exactly once here. Each
    # sender's stream serves its x-encode, then its y-encode.
    rngs_c = None
    if spec.kind == BBIT:
        rngs_c = streams.rows(Tag.COMPRESS, k, n)
    xhat = encode_decode(spec, xa, state.xc, rngs_c)
    yhat = encode_decode(spec, ya, state.yc, rngs_c)

    # Divergence shows up as overflow here; the finite check below is
    # the official detector, so numpy's warning is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        x_next = xa + cfg.gamma * (w @ xhat - xhat) - cfg.eta * state.y
        grad_next = as_agent_objectives(objectives).grad(x_next)
        y_next = ya + cfg.gamma * (w @ yhat - yhat) + grad_next - state.grad_prev

    if not (np.isfinite(x_next).all() and np.isfinite(y_next).all()):
        raise NonFiniteState(k, "gradient-tracking update diverged")

    return PgtcState(
        x=x_next,
        y=y_next,
        xc=(1.0 - cfg.alpha_x) * state.xc + cfg.alpha_x * xhat,
        yc=(1.0 - cfg.alpha_y) * state.yc + cfg.alpha_y * yhat,
        grad_prev=grad_next,
        noise_y_cumsum=state.noise_y_cumsum + xi_y.mean(axis=0),
        k=k + 1,
    )


def tracking_residual(state: PgtcState) -> float:
    """Infinity norm of mean(y) - mean(grad at current x) - accumulated
    mean y-noise; zero in exact arithmetic at every round."""
    gap = state.y.mean(axis=0) - state.grad_prev.mean(axis=0) - state.noise_y_cumsum
    return float(np.max(np.abs(gap)))


def _emit_row(
    trace: Trace, state: PgtcState, cfg: PgtcConfig, objectives, per_round_bits: int
) -> None:
    xbar = state.x.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        consensus = float(((state.x - xbar) ** 2).sum())
        _, gbar = mean_value_grad(objectives, xbar)
        grad_norm = float(np.linalg.norm(gbar))
    trace.rows.append(
        TraceRow(
            k=state.k,
            consensus_err=consensus,
            grad_norm_mean=grad_norm,
            residual=tracking_residual(state),
            cum_bits=state.k * per_round_bits,
            theta_x=scale_at(cfg.noise_x, state.k),
            theta_second=scale_at(cfg.noise_y, state.k),
        )
    )
    if trace.stacked_iterates is not None:
        trace.stacked_iterates.append(state.x.reshape(-1).copy())


def pgtc_run(
    cfg: PgtcConfig,
    objectives,
    net: Network,
    x0: np.ndarray,
    streams: StreamFactory,
    record_iterates: bool = False,
    horizon: int = 0,
) -> Trace:
    """Run cfg.iterations rounds and return the trace (row k=0 included).

    With a horizon H > cfg.iterations the same trajectory keeps stepping
    to round H without emitting rows or iterates; final_stacked is then
    the state at round H (the reference point of
    metrics.reference_point), and final_k records that round.
    """
    objectives = as_agent_objectives(objectives)
    state = pgtc_init(cfg, objectives, net, x0, streams)
    d = state.x.shape[1]
    per_round_bits = MESSAGES_PER_AGENT * net.n * bit_cost(cfg.compressor, d)
    trace = Trace(stacked_iterates=[] if record_iterates else None)
    _emit_row(trace, state, cfg, objectives, per_round_bits)
    for _ in range(cfg.iterations):
        state = pgtc_step(state, cfg, objectives, net, streams)
        _emit_row(trace, state, cfg, objectives, per_round_bits)
    for _ in range(cfg.iterations, horizon):
        state = pgtc_step(state, cfg, objectives, net, streams)
    trace.final_k = state.k
    trace.final_stacked = state.x.reshape(-1).copy()
    return trace
