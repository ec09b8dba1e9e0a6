"""Per-round telemetry, residual/accuracy metrics, bit accounting, and
the trace CSV schema.

A Trace holds one row per round counter k = 0..K. Row k describes the
state after k synchronous rounds: consensus error ||x_k - xbar_k||^2
over the stacked iterates, gradient norm of the average objective at
the mean iterate, the algorithm's per-round invariant residual
(tracking identity or dual-average identity), cumulative transmitted
bits, and the noise scales in effect at round k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from dpcopt.errors import ConfigInvalid, DimensionMismatch, EmptyTrace

__all__ = [
    "TraceRow",
    "Trace",
    "residual_series",
    "reference_point",
    "final_accuracy",
    "cum_bits",
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

    algorithm: str
    rows: list[TraceRow] = field(default_factory=list)
    stacked_iterates: list[np.ndarray] | None = None
    # Stacked iterate after the last round run, and that round's counter:
    # the last row's k, or the longer horizon the engine was asked to run.
    final_stacked: np.ndarray | None = None
    final_k: int = 0

    def validate(self) -> None:
        """Assert row contiguity and bit-meter monotonicity."""
        for index, row in enumerate(self.rows):
            if row.k != index:
                raise ConfigInvalid(f"trace rows not contiguous at index {index}")
        bits = [row.cum_bits for row in self.rows]
        if any(b1 > b2 for b1, b2 in zip(bits, bits[1:])):
            raise ConfigInvalid("trace cum_bits decreased")


def residual_series(trace: Trace, x_inf: np.ndarray) -> np.ndarray:
    """R_k = min over t <= k of ||x_t - x_inf||^2 on stacked iterates."""
    if trace.stacked_iterates is None or not trace.stacked_iterates:
        raise EmptyTrace("trace was recorded without stacked iterate history")
    x_inf = np.asarray(x_inf, dtype=np.float64).reshape(-1)
    width = trace.stacked_iterates[0].shape[0]
    if x_inf.shape[0] != width:
        raise DimensionMismatch(
            f"reference point has dimension {x_inf.shape[0]}, iterates have {width}"
        )
    out = np.empty(len(trace.stacked_iterates))
    best = math.inf
    for t, xt in enumerate(trace.stacked_iterates):
        diff = xt - x_inf
        best = min(best, float(diff @ diff))
        out[t] = best
    return out


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


def cum_bits(trace: Trace) -> np.ndarray:
    """Cumulative transmitted bits per row."""
    return np.array([row.cum_bits for row in trace.rows], dtype=np.int64)


def _fmt(value: float) -> str:
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
        r_field = "" if residuals is None else _fmt(float(residuals[row.k]))
        lines.append(
            ",".join(
                (
                    str(row.k),
                    _fmt(row.consensus_err),
                    _fmt(row.grad_norm_mean),
                    _fmt(row.residual),
                    str(row.cum_bits),
                    _fmt(row.theta_x),
                    _fmt(row.theta_second),
                    r_field,
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
