"""What both engines share (the config base EngineConfig, noisy_round and
run_rounds), per-round telemetry, residual/accuracy metrics and the trace CSV schema.

A Trace holds one row per round counter k = 0..K. Row k describes the
state after k synchronous rounds: consensus error ||x_k - xbar_k||^2
over the stacked iterates, gradient norm of the average objective at
the mean iterate, and the algorithm's per-round invariant residual
(tracking identity or dual-average identity). The written trace adds
the cumulative transmitted bits and the noise scales in effect at
round k, which follow from k.

Each round's Trace.record(x, xbar, k, residual) fills the consensus and
residual entries of row k. run_rounds collects the mean iterates of a
bounded block of rows and fills their gradient norms from one stacked
call, each row the bits of a call on its mean iterate alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dpcopt.compressors import BBIT, bit_cost, row_dots, row_norms
from dpcopt.errors import ConfigInvalid, DimensionMismatch, EmptyTrace, NonFiniteState
from dpcopt.noise import NoiseSchedule, scale_at
from dpcopt.objectives import AgentObjectives
from dpcopt.rng import Tag

__all__ = [
    "RoundState",
    "RoundWorkspace",
    "EngineConfig",
    "noisy_round",
    "Trace",
    "check_start",
    "run_rounds",
    "residual_series",
    "reference_point",
    "final_accuracy",
    "fmt17",
    "write_trace_csv",
    "CSV_HEADER",
]

CSV_HEADER = (
    "k,consensus_err,grad_norm_mean,tracking_or_dual_residual,"
    "cum_bits,theta_x,theta_second,R_k"
)

# Residual tolerance every run is checked against (tracking identity for
# the gradient-tracking engine, dual-average identity for primal-dual).
IDENTITY_RESIDUAL_TOL = 1e-9

# residual_series subtracts x_inf from this many history elements at a
# time, so its temporary stays small however long the history is.
RESIDUAL_CHUNK_ELEMENTS = 1 << 13

# The gradient-norm column is filled from blocks of mean iterates whose
# largest gradient temporary holds about this many elements. mean_grad
# evaluates agent by agent, each call on the whole block, so that temporary
# is (block, per-agent width): 64 KiB, under glibc's 128 KiB mmap threshold.
GRAD_NORM_CHUNK_ELEMENTS = 1 << 13


@dataclass
class Trace:
    """Completed run record; immutable by convention once returned.

    consensus_err, grad_norm_mean and residual hold row k = 0..K, one
    float64 per round. cum_bits = k * per_round_bits and the noise scales
    in effect at round k follow from the run's constants, so they are
    derived only where they are written.
    """

    consensus_err: np.ndarray
    grad_norm_mean: np.ndarray
    residual: np.ndarray
    per_round_bits: int
    noise_x: NoiseSchedule
    noise_second: NoiseSchedule
    # Row k holds the stacked iterate x_k, shape (K + 1, n * d).
    stacked_iterates: np.ndarray | None = None
    # Stacked iterate after the last round run, and that round's counter:
    # the last row's k, or the longer horizon the engine was asked to run.
    final_stacked: np.ndarray | None = None
    final_k: int = 0
    # record's (n, d) scratch, allocated at the first row.
    spread: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.residual)

    def record(self, x: np.ndarray, xbar: np.ndarray, k: int, residual: float) -> None:
        """Fill the consensus error and residual of row k for the (n, d)
        iterate x with mean xbar, and keep x as history row k if history
        is kept. run_rounds fills the gradient-norm column."""
        if self.spread is None:
            self.spread = np.empty_like(x)
        # ((x - xbar) ** 2).sum() without its two temporaries: the same
        # values in the same C layout, so the same sum. xbar is spread over
        # the rows first, as a subtraction that broadcasts it allocates a
        # 64 KiB ufunc buffer.
        spread = self.spread
        np.copyto(spread, xbar)
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(x, spread, out=spread)
            np.square(spread, out=spread)
            self.consensus_err[k] = spread.sum()
        self.residual[k] = residual
        if self.stacked_iterates is not None:
            self.stacked_iterates[k] = x.reshape(-1)


@dataclass
class RoundState:
    """Either engine's state after k rounds: z (rows, n, d) holds each
    agent's blocks, zc the references of the first len(zc) rows, the ones
    it sends, and noise_cumsum the second row's summed mean noise."""

    z: np.ndarray
    zc: np.ndarray
    noise_cumsum: np.ndarray
    k: int

    x = property(lambda self: self.z[0])
    xc = property(lambda self: self.zc[0])

    @classmethod
    def start(cls, cfg: EngineConfig, z: np.ndarray) -> RoundState:
        """Round 0 of the rows z: the references of the rows cfg sends and
        the noise sum start at zero."""
        _, n, d = z.shape
        return cls(z, np.zeros((len(cfg.reference_gains[1]), n, d)), np.zeros(d), 0)


class RoundWorkspace:
    """The spare blocks the rounds of one run write into, so that a round
    allocates no state-sized block of its own; built from any state of it.

    z and zc receive the next state's variables and references, zhat the
    decoded estimates, and codec, two (sent * n, d) blocks, the codec's
    difference and temporaries. Before the codec runs, the first n rows of
    those blocks are noise: the Laplace block and its scratch. After each
    round z and zc take over the incoming state's blocks, so the round after
    next overwrites that state: a caller that passes a workspace steps only
    from the state the last round returned, and keeps only that one.
    """

    def __init__(self, state: RoundState) -> None:
        sent, n, d = state.zc.shape
        self.z = np.empty_like(state.z)
        self.zc = np.empty_like(state.zc)
        self.zhat = np.empty_like(state.zc)
        spare = np.empty((2, sent * n, d))
        self.codec = tuple(spare)
        self.noise = tuple(spare[:, :n])


class EngineConfig:
    """Base of each engine's config, the record of its engine's facts: NAME
    (the config's algorithm), GAINS (gain keys in parse order), SECOND (key
    of the second noised variable), MESSAGES_PER_AGENT and DIVERGED (detail
    of a diverged round's error)."""

    noise_second = property(lambda self: self.noise_rows[1][0])

    def plan(self, second_tag: Tag, **alphas: float) -> None:
        """Check the rules both engines share; keep noise_rows, each row's
        (schedule, tag), and reference_gains, read-only (1 - alpha, alpha) columns."""
        if not (self.eta > 0):
            raise ConfigInvalid("gains.eta: must be positive")
        for name, alpha in alphas.items():
            if not (0 < alpha < 1.0 / self.compressor.r):
                raise ConfigInvalid(f"gains.{name}: must lie in (0, 1/r)")
        if self.iterations < 1:
            raise ConfigInvalid("iterations: must be >= 1")
        second = getattr(self, f"noise_{self.SECOND}")
        object.__setattr__(self, "noise_rows", ((self.noise_x, Tag.NOISE_X), (second, second_tag)))
        alpha = np.array(tuple(alphas.values()))[:, None, None]
        keep = 1.0 - alpha
        alpha.flags.writeable = keep.flags.writeable = False
        object.__setattr__(self, "reference_gains", (keep, alpha))


def noisy_round(state, cfg: EngineConfig, update, streams, sample, codec, workspace):
    """One round of either engine around its linear update; returns the next
    RoundState. Each row of z that cfg.noise_rows lists gets Laplace noise
    from sample at its (schedule, tag), none at scale 0; the second row's
    mean noise joins noise_cumsum. codec encodes the rows cfg.reference_gains
    covers against zc once per sender (a bbit sender's stream serves its rows
    in order). update(za, zhat) overwrites every row of za, the noisy z, with
    the next z, which must be finite. Each reference moves to (1 - alpha) zc
    + alpha zhat, the compressed gossip of CHOCO-SGD (Koloskova, Stich and
    Jaggi, ICML 2019). Engines pass sample and codec from their module
    globals on each call, so wrappers set on those names (bench/tracer.py)
    see every call.

    Every block the round writes is workspace's (see RoundWorkspace), a
    fresh one when None: the round never writes state, and without a
    workspace it is pure. Either way it takes the same operations in the
    same order, so the next state has the same bits."""
    ws = RoundWorkspace(state) if workspace is None else workspace
    z, zc, k = state.z, state.zc, state.k
    _, n, d = z.shape
    za, noise_cumsum = ws.z, state.noise_cumsum
    keep, alpha = cfg.reference_gains
    sent, spec = len(alpha), cfg.compressor
    np.copyto(za, z)
    laplace, scratch = ws.noise
    # A huge noise scale or divergence overflows in the noise, its sum, the
    # codec's norms and dither or the update; the finite check is the detector.
    with np.errstate(over="ignore", invalid="ignore"):
        for row, (schedule, tag) in enumerate(cfg.noise_rows):
            theta = scale_at(schedule, k)
            if theta > 0.0:
                xi = sample(theta, d, streams.rows(tag, k, n), out=laplace, scratch=scratch)
                za[row] += xi
                if row:
                    # What xi.mean(axis=0) computes, without its Python wrapper.
                    noise_cumsum = noise_cumsum + np.add.reduce(xi, axis=0) / n
        rngs = streams.rows(Tag.COMPRESS, k, n) * sent if spec.kind == BBIT else None
        zhat = codec(
            spec, za[:sent].reshape(-1, d), zc.reshape(-1, d), rngs,
            out=ws.zhat.reshape(-1, d), scratch=ws.codec,
        ).reshape(zc.shape)
        update(za, zhat)
    if not np.isfinite(za).all():
        raise NonFiniteState(k, cfg.DIVERGED)
    # keep * zc + alpha * zhat; the update is done with zhat.
    zc_next = np.multiply(keep, zc, out=ws.zc)
    zhat *= alpha
    zc_next += zhat
    ws.z, ws.zc = z, zc
    return RoundState(za, zc_next, noise_cumsum, k + 1)


def check_start(x0: np.ndarray, objectives: AgentObjectives, n: int) -> np.ndarray:
    """x0 as a float64 (n, d) array, for objectives of the graph's n agents
    and of x0's dimension d."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[0] != n:
        raise DimensionMismatch(
            f"x0 has shape {x0.shape}, expected ({n}, d) for this graph"
        )
    if objectives.n != n:
        raise DimensionMismatch(f"objectives have {objectives.n} agents, the graph has {n}")
    d = x0.shape[1]
    if objectives.d != d:
        raise DimensionMismatch(f"objectives have dimension {objectives.d}, x0 has {d}")
    return x0


def run_rounds(
    init, step, emit, mean_grad, cfg: EngineConfig, objectives, net, x0: np.ndarray, streams,
    record_iterates: bool, horizon: int,
) -> Trace:
    """Run cfg.iterations synchronous rounds of one engine and return the
    trace (row k=0 included).

    init(cfg, objectives, net, x0, streams) builds the round-0 state,
    step(state, cfg, objectives, net, streams, workspace) returns the next
    one, writing it into the run's one RoundWorkspace, and emit(trace,
    state, xbar) records its row and writes the mean iterate into xbar
    (d,). mean_grad(objectives, xbars), with the signature of
    objectives.mean_value_grad, takes a block of those mean iterates at
    once (max(1, GRAD_NORM_CHUNK_ELEMENTS // objectives.agent_elements)
    rows), and the norms of its gradients fill the block's gradient-norm
    rows, each with the bits of a call on its mean iterate alone. Engines
    pass the four functions from their module globals on each call, so
    wrappers set on those names (bench/tracer.py) see every call.

    With a horizon H > cfg.iterations the same trajectory keeps stepping
    to round H without emitting rows or iterates; final_stacked is then
    the state at round H (the reference point of reference_point), and
    final_k records that round.
    """
    state = init(cfg, objectives, net, x0, streams)
    workspace = RoundWorkspace(state)
    n, d = state.x.shape
    per_round_bits = cfg.MESSAGES_PER_AGENT * n * bit_cost(cfg.compressor, d)
    rows = cfg.iterations + 1
    history = np.empty((rows, n * d)) if record_iterates else None
    # One (3, rows) block holds the consensus, gradient-norm and residual columns.
    trace = Trace(*np.empty((3, rows)), per_round_bits, cfg.noise_x, cfg.noise_second, history)
    # Mean iterates wait in a buffer of one block of rows. Each full block,
    # and the partial last one, gets its gradient norms from one stacked
    # mean_grad call, so memory stays O(block * d) however long the run.
    block = max(1, GRAD_NORM_CHUNK_ELEMENTS // objectives.agent_elements)
    xbars = np.empty((min(block, rows), d))
    for k in range(rows):
        if k:
            state = step(state, cfg, objectives, net, streams, workspace)
        emit(trace, state, xbars[k % block])
        if k % block == block - 1 or k == cfg.iterations:
            start = k - k % block
            # An overflowing gradient leaves an inf or nan norm, as in the
            # run's other columns, rather than numpy's warning.
            with np.errstate(over="ignore", invalid="ignore"):
                _, gbar = mean_grad(objectives, xbars[:k + 1 - start])
                trace.grad_norm_mean[start:k + 1] = row_norms(gbar)
    for _ in range(cfg.iterations, horizon):
        state = step(state, cfg, objectives, net, streams, workspace)
    trace.final_k = state.k
    trace.final_stacked = state.x.reshape(-1).copy()
    return trace


def residual_series(trace: Trace, x_inf: np.ndarray) -> np.ndarray:
    """R_k = min over t <= k of ||x_t - x_inf||^2 on stacked iterates.

    Raises NonFiniteState at the first t whose squared distance is not
    finite, so no row of the series is inf or nan.
    """
    history = trace.stacked_iterates
    if history is None or not len(history):
        raise EmptyTrace("trace was recorded without stacked iterate history")
    x_inf = np.asarray(x_inf, dtype=np.float64).reshape(-1)
    width = history.shape[1]
    if x_inf.shape[0] != width:
        raise DimensionMismatch(
            f"reference point has dimension {x_inf.shape[0]}, iterates have {width}"
        )
    # A far but finite x_inf overflows the squared distance; that is
    # reported as a failed run below rather than as numpy's warning.
    # Each row's value is its own product, so blocks keep every byte.
    sq = np.empty(len(history))
    block = max(1, RESIDUAL_CHUNK_ELEMENTS // width)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(history), block):
            sq[start:start + block] = row_dots(history[start:start + block] - x_inf)
    bad = np.flatnonzero(~np.isfinite(sq))
    if bad.size:
        raise NonFiniteState(
            int(bad[0]), "squared distance to the reference point is not finite"
        )
    return np.minimum.accumulate(sq)


def reference_point(trace: Trace) -> np.ndarray:
    """Convergence point estimate x_inf for the residual series.

    The engine run that produced the trace kept stepping the same seeded
    trajectory (with its noise schedule still decaying geometrically)
    past the last row to a reference horizon H, and final_stacked holds
    the stacked iterate at round H. H must be at least 10x the measured
    horizon K so that x_inf sits well past the rounds it is compared with.
    """
    if not len(trace):
        raise EmptyTrace("trace has no rows")
    base_horizon = len(trace) - 1
    if trace.final_k < 10 * base_horizon:
        raise ConfigInvalid(
            "reference.horizon_multiplier: reference horizon must be at least "
            f"10x the run horizon (got {trace.final_k} for {base_horizon})"
        )
    assert trace.final_stacked is not None
    return trace.final_stacked


def final_accuracy(trace: Trace) -> float:
    """Gradient norm of the average objective at the last mean iterate."""
    if not len(trace):
        raise EmptyTrace("trace has no rows")
    return float(trace.grad_norm_mean[-1])


def fmt17(value: float) -> str:
    """A float with 17 significant digits, which round-trips exactly; the
    written trace and sweep summary replay byte for byte in this format."""
    return format(value, ".17g")


def write_trace_csv(trace: Trace, path, residuals: np.ndarray | None = None) -> None:
    """Write the trace in the documented CSV schema.

    Floats carry 17 significant digits so a replayed run can be compared
    byte for byte. The R_k column is blank when no reference point was
    configured.
    """
    rows = len(trace)
    if residuals is not None and len(residuals) != rows:
        raise DimensionMismatch(
            f"residual series has length {len(residuals)}, trace has {rows}"
        )
    ks = range(rows)
    measured = (trace.consensus_err, trace.grad_norm_mean, trace.residual)
    columns = (
        map(str, ks),
        *(map(fmt17, column.tolist()) for column in measured),
        (str(k * trace.per_round_bits) for k in ks),
        (fmt17(scale_at(trace.noise_x, k)) for k in ks),
        (fmt17(scale_at(trace.noise_second, k)) for k in ks),
        [""] * rows if residuals is None else map(fmt17, residuals.tolist()),
    )
    lines = [CSV_HEADER, *map(",".join, zip(*columns))]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
