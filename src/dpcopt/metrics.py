"""The round driver both engines share, per-round telemetry,
residual/accuracy metrics and the trace CSV schema.

A Trace holds one row per round counter k = 0..K. Row k describes the
state after k synchronous rounds: consensus error ||x_k - xbar_k||^2
over the stacked iterates, gradient norm of the average objective at
the mean iterate, the algorithm's per-round invariant residual
(tracking identity or dual-average identity), cumulative transmitted
bits, and the noise scales in effect at round k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dpcopt.compressors import bit_cost, row_dots
from dpcopt.errors import ConfigInvalid, DimensionMismatch, EmptyTrace, NonFiniteState
from dpcopt.noise import NoiseSchedule, scale_at
from dpcopt.objectives import as_agent_objectives

__all__ = [
    "TraceRow",
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


@dataclass(frozen=True)
class TraceRow:
    k: int
    consensus_err: float
    grad_norm_mean: float
    residual: float
    cum_bits: int
    theta_x: float
    theta_second: float


@dataclass
class Trace:
    """Completed run record; immutable by convention once returned."""

    rows: list[TraceRow] = field(default_factory=list)
    # Row k holds the stacked iterate x_k, shape (K + 1, n * d).
    stacked_iterates: np.ndarray | None = None
    # Stacked iterate after the last round run, and that round's counter:
    # the last row's k, or the longer horizon the engine was asked to run.
    final_stacked: np.ndarray | None = None
    final_k: int = 0

    def record(
        self, x: np.ndarray, xbar: np.ndarray, gbar: np.ndarray, k: int, residual: float,
        noise_x: NoiseSchedule, noise_second: NoiseSchedule, per_round_bits: int,
    ) -> None:
        """Append row k for the (n, d) iterate x with mean xbar and mean
        gradient gbar, and keep x as history row k if history is kept."""
        with np.errstate(over="ignore", invalid="ignore"):
            consensus = float(((x - xbar) ** 2).sum())
            grad_norm = float(np.linalg.norm(gbar))
        theta_x, theta_second = scale_at(noise_x, k), scale_at(noise_second, k)
        self.rows.append(
            TraceRow(k, consensus, grad_norm, residual, k * per_round_bits, theta_x, theta_second)
        )
        if self.stacked_iterates is not None:
            self.stacked_iterates[k] = x.reshape(-1)


def check_start(x0: np.ndarray, objectives, n: int) -> np.ndarray:
    """x0 as a float64 (n, d) array whose d is the objectives' dimension."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[0] != n:
        raise DimensionMismatch(
            f"x0 has shape {x0.shape}, expected ({n}, d) for this graph"
        )
    d = x0.shape[1]
    if objectives[0].d != d:
        raise DimensionMismatch(
            f"objectives have dimension {objectives[0].d}, x0 has {d}"
        )
    return x0


def run_rounds(
    init, step, emit, messages_per_agent: int, cfg, objectives, net,
    x0: np.ndarray, streams, record_iterates: bool, horizon: int,
) -> Trace:
    """Run cfg.iterations synchronous rounds of one engine and return the
    trace (row k=0 included).

    init(cfg, objectives, net, x0, streams) builds the round-0 state,
    step(state, cfg, objectives, net, streams) returns the next one, and
    emit(trace, state, cfg, objectives, per_round_bits) records its row.
    Each agent sends messages_per_agent compressed vectors per round.
    Engines pass the three functions from their module globals on each
    call, so wrappers set on those names (bench/tracer.py) see every call.

    With a horizon H > cfg.iterations the same trajectory keeps stepping
    to round H without emitting rows or iterates; final_stacked is then
    the state at round H (the reference point of reference_point), and
    final_k records that round.
    """
    objectives = as_agent_objectives(objectives)
    state = init(cfg, objectives, net, x0, streams)
    n, d = state.x.shape
    per_round_bits = messages_per_agent * n * bit_cost(cfg.compressor, d)
    history = np.empty((cfg.iterations + 1, n * d)) if record_iterates else None
    trace = Trace(stacked_iterates=history)
    emit(trace, state, cfg, objectives, per_round_bits)
    for _ in range(cfg.iterations):
        state = step(state, cfg, objectives, net, streams)
        emit(trace, state, cfg, objectives, per_round_bits)
    for _ in range(cfg.iterations, horizon):
        state = step(state, cfg, objectives, net, streams)
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
    with np.errstate(over="ignore", invalid="ignore"):
        sq = row_dots(history - x_inf)
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
    if not trace.rows:
        raise EmptyTrace("trace has no rows")
    base_horizon = trace.rows[-1].k
    if trace.final_k < 10 * base_horizon:
        raise ConfigInvalid(
            "reference.horizon_multiplier: reference horizon must be at least "
            f"10x the run horizon (got {trace.final_k} for {base_horizon})"
        )
    assert trace.final_stacked is not None
    return trace.final_stacked


def final_accuracy(trace: Trace) -> float:
    """Gradient norm of the average objective at the last mean iterate."""
    if not trace.rows:
        raise EmptyTrace("trace has no rows")
    return trace.rows[-1].grad_norm_mean


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
    if residuals is not None and len(residuals) != len(trace.rows):
        raise DimensionMismatch(
            f"residual series has length {len(residuals)}, trace has {len(trace.rows)}"
        )
    lines = [CSV_HEADER]
    for row in trace.rows:
        r_field = "" if residuals is None else fmt17(float(residuals[row.k]))
        lines.append(
            ",".join(
                (
                    str(row.k),
                    fmt17(row.consensus_err),
                    fmt17(row.grad_norm_mean),
                    fmt17(row.residual),
                    str(row.cum_bits),
                    fmt17(row.theta_x),
                    fmt17(row.theta_second),
                    r_field,
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
