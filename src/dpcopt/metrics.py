"""Per-round telemetry, residual/accuracy metrics and the trace CSV
schema.

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

from dpcopt.compressors import row_dots
from dpcopt.errors import ConfigInvalid, DimensionMismatch, EmptyTrace, NonFiniteState

__all__ = [
    "TraceRow",
    "Trace",
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
    stacked_iterates: list[np.ndarray] | None = None
    # Stacked iterate after the last round run, and that round's counter:
    # the last row's k, or the longer horizon the engine was asked to run.
    final_stacked: np.ndarray | None = None
    final_k: int = 0


def residual_series(trace: Trace, x_inf: np.ndarray) -> np.ndarray:
    """R_k = min over t <= k of ||x_t - x_inf||^2 on stacked iterates.

    Raises NonFiniteState at the first t whose squared distance is not
    finite, so no row of the series is inf or nan.
    """
    if trace.stacked_iterates is None or not trace.stacked_iterates:
        raise EmptyTrace("trace was recorded without stacked iterate history")
    x_inf = np.asarray(x_inf, dtype=np.float64).reshape(-1)
    width = trace.stacked_iterates[0].shape[0]
    if x_inf.shape[0] != width:
        raise DimensionMismatch(
            f"reference point has dimension {x_inf.shape[0]}, iterates have {width}"
        )
    # A far but finite x_inf overflows the squared distance; that is
    # reported as a failed run below rather than as numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.stack(trace.stacked_iterates)
        diffs -= x_inf  # in place: one (K + 1, n * d) copy, not two
        sq = row_dots(diffs)
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
