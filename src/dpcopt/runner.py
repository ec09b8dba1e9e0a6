"""Command line interface.

Subcommands: ``run`` executes one experiment and writes a trace CSV,
metadata, and (with a reference configured) residual charts; ``sweep``
repeats a run across parameter values with derived per-cell seeds;
``privacy`` reports the differential-privacy budget for the configured
run; ``validate-compressor`` runs just the empirical contraction check.

Exit codes: 0 all work finished and every invariant check passed;
1 a run failed or an invariant check did not pass; 2 the config is
invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import dpcopt
from dpcopt.accountant import budget_for_run, geometric_budget_sum, scales_for_epsilon
from dpcopt.compressors import ContractionReport, validate_contraction
from dpcopt.config import (
    RunConfig,
    apply_sweep_value,
    build_engine_config,  # noqa: F401 -- bench/tracer.py wraps it at this name
    config_digest,
    load_config,
    to_document,
)
from dpcopt.errors import ConfigInvalid, ContractionValidationFailed, DpcoptError
from dpcopt.metrics import (
    IDENTITY_RESIDUAL_TOL,
    Trace,
    final_accuracy,
    fmt17,
    reference_point,
    residual_series,
    write_trace_csv,
)
from dpcopt.objectives import estimate_grad_bound, make_objectives
from dpcopt.pgtc import pgtc_run
from dpcopt.plots import line_chart, write_chart
from dpcopt.ppdc import ppdc_run
from dpcopt.rng import StreamFactory, StreamKey, Tag, derive_seed, stream
from dpcopt.topology import build_network

__all__ = ["main", "execute_run", "resolve_output_dir"]

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2

OUTPUT_ROOT_ENV = "DPCOPT_OUTPUT_ROOT"

# The pre-run contraction check draws from its own run id so it can
# never collide with simulation streams (which use run id 0).
VALIDATION_RUN_ID = 1


def resolve_output_dir(outputs: str) -> Path:
    """Output directory, re-rooted under DPCOPT_OUTPUT_ROOT when that is
    set and the configured path is relative."""
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(outputs)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _build_problem(rc: RunConfig):
    """The run's stream factory and agent objectives."""
    streams = StreamFactory(master_seed=rc.seed)
    objectives = make_objectives(
        rc.objective.kind,
        rc.graph.n,
        rc.objective.d,
        streams,
        m=rc.objective.m,
        lam=rc.objective.lam,
        alpha=rc.objective.alpha,
    )
    return streams, objectives


def _initial_iterate(rc: RunConfig, streams: StreamFactory) -> np.ndarray:
    """Each agent starts uniform in [0, 1)^d from its own init stream."""
    x0 = np.empty((rc.graph.n, rc.objective.d))
    for g, row in zip(streams.rows(Tag.INIT, 0, rc.graph.n), x0):
        g.random(out=row)
    return x0


def check_contraction(rc: RunConfig) -> ContractionReport:
    rng = stream(
        rc.seed,
        StreamKey(run_id=VALIDATION_RUN_ID, agent_id=0, tag=Tag.COMPRESS, round_index=0),
    )
    spec = rc.engine.compressor
    report = validate_contraction(spec, rc.objective.d, rc.contraction_trials, rng)
    if not report.passes:
        raise ContractionValidationFailed(
            f"compressor {spec.kind!r}: empirical ratio "
            f"{report.empirical_ratio:.6g} exceeds {report.threshold:.6g} "
            f"over {rc.contraction_trials} trials"
        )
    return report


def execute_run(rc: RunConfig) -> tuple[Trace, dict, np.ndarray | None]:
    """Run one configured experiment in memory.

    Returns the trace, an invariant-check summary, and the residual
    series when a reference point is configured.
    """
    net = build_network(rc.graph)
    streams, objectives = _build_problem(rc)
    gate = check_contraction(rc)
    x0 = _initial_iterate(rc, streams)
    reference_horizon = 0
    if rc.reference is not None:
        reference_horizon = rc.reference.horizon_multiplier * rc.engine.iterations
    run = pgtc_run if rc.algorithm == "pgtc" else ppdc_run
    # One pass: rows for rounds 0..K, then the same trajectory continues
    # to the reference horizon, whose final state is x_inf.
    trace = run(
        rc.engine, objectives, net, x0, streams,
        record_iterates=rc.reference is not None,
        horizon=reference_horizon,
    )
    residuals = None
    if rc.reference is not None:
        residuals = residual_series(trace, reference_point(trace))
    residual_max = float(trace.residual.max())
    checks = {
        "contraction_empirical_ratio": gate.empirical_ratio,
        "contraction_threshold": gate.threshold,
        "contraction_passed": gate.passes,
        "tracking_or_dual_residual_max": residual_max,
        "tracking_or_dual_residual_tol": IDENTITY_RESIDUAL_TOL,
        "tracking_or_dual_residual_ok": bool(residual_max <= IDENTITY_RESIDUAL_TOL),
        "rows": len(trace),
    }
    if rc.reference is not None:
        checks["reference_horizon"] = reference_horizon
    return trace, checks, residuals


def _environment() -> dict:
    """The Python and numpy that wrote a run. Trace bytes depend on them
    within the bounded-drift contract: BLAS orders the sums of every
    matmul, and numpy's SIMD dispatch picks the exp kernel."""
    try:
        build = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 can only print its build config
        build = {}
    blas = build.get("Build Dependencies", {}).get("blas", {})
    simd = build.get("SIMD Extensions", {})
    return {
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "simd_baseline": list(simd.get("baseline", [])),
        "simd_found": list(simd.get("found", [])),
    }


def _write_metadata(path: Path, rc: RunConfig, extra: dict) -> None:
    doc = to_document(rc)
    metadata = {
        "config": doc,
        "config_sha256": config_digest(doc),
        "seed": rc.seed,
        "library_version": dpcopt.__version__,
        "environment": _environment(),
    }
    metadata.update(extra)
    path.write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_run(rc: RunConfig) -> int:
    out_dir = resolve_output_dir(rc.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace, checks, residuals = execute_run(rc)
    write_trace_csv(trace, out_dir / "trace.csv", residuals)
    _write_metadata(out_dir / "metadata.json", rc, {"invariants": checks})
    if residuals is not None:
        ks = [float(k) for k in range(len(trace))]
        bits = [float(k * trace.per_round_bits) for k in range(len(trace))]
        values = [float(r) for r in residuals]
        write_chart(
            out_dir / "residual_vs_rounds.svg",
            line_chart(ks, values, "residual vs rounds", "k", "log10 R_k"),
        )
        write_chart(
            out_dir / "residual_vs_bits.svg",
            line_chart(
                bits,
                values,
                "residual vs transmitted bits",
                "cumulative bits",
                "log10 R_k",
            ),
        )
    print(f"run complete: {out_dir / 'trace.csv'} ({checks['rows']} rows)")
    if not checks["tracking_or_dual_residual_ok"]:
        print(
            "invariant check failed: max tracking/dual residual "
            f"{checks['tracking_or_dual_residual_max']:.3e} exceeds "
            f"{IDENTITY_RESIDUAL_TOL}",
            file=sys.stderr,
        )
        return EXIT_RUN_FAILURE
    return EXIT_OK


def cmd_sweep(rc: RunConfig) -> int:
    if rc.sweep is None:
        raise ConfigInvalid("sweep: required for the sweep command")
    out_dir = resolve_output_dir(rc.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_lines = ["value,median,min,max"]
    chart_x: list[float] = []
    chart_y: list[float] = []
    failures: list[dict] = []
    cells: list[dict] = []
    total_cells = len(rc.sweep.values) * rc.sweep.repeats
    for value_index, value in enumerate(rc.sweep.values):
        accuracies: list[float] = []
        for repeat_index in range(rc.sweep.repeats):
            started = time.perf_counter()
            child_seed = derive_seed(rc.seed, value_index, repeat_index)
            cell = replace(
                apply_sweep_value(rc, rc.sweep.parameter, value),
                seed=child_seed,
                reference=None,
            )
            record = {
                "value": value,
                "repeat": repeat_index,
                "seed": child_seed,
            }
            try:
                trace, checks, _ = execute_run(cell)
                if not checks["tracking_or_dual_residual_ok"]:
                    raise DpcoptError(
                        "tracking/dual residual exceeded tolerance: "
                        f"{checks['tracking_or_dual_residual_max']:.3e}"
                    )
                accuracy = final_accuracy(trace)
                accuracies.append(accuracy)
                record["final_accuracy"] = accuracy
                cells.append(record)
            except DpcoptError as exc:
                record["error"] = str(exc)
                failures.append(record)
                print(
                    f"sweep cell failed ({rc.sweep.parameter}={value}, "
                    f"repeat {repeat_index}): {exc}",
                    file=sys.stderr,
                )
            # Progress goes to stderr, so stdout and the files keep their bytes.
            print(
                f"sweep cell {len(cells) + len(failures)}/{total_cells} "
                f"({rc.sweep.parameter}={value}, repeat {repeat_index}): "
                f"{time.perf_counter() - started:.3f} s",
                file=sys.stderr,
            )
        if accuracies:
            med = float(np.median(accuracies))
            summary_lines.append(
                ",".join(map(fmt17, (value, med, min(accuracies), max(accuracies))))
            )
            chart_x.append(value)
            chart_y.append(med)
        else:
            summary_lines.append(f"{fmt17(value)},,,")
    (out_dir / "sweep_summary.csv").write_text(
        "\n".join(summary_lines) + "\n", encoding="utf-8"
    )
    write_chart(
        out_dir / "accuracy_vs_value.svg",
        line_chart(
            chart_x,
            chart_y,
            f"median final accuracy vs {rc.sweep.parameter}",
            rc.sweep.parameter,
            "log10 final grad norm",
        ),
    )
    _write_metadata(
        out_dir / "metadata.json", rc, {"cells": cells, "failures": failures}
    )
    print(
        f"sweep complete: {out_dir / 'sweep_summary.csv'} "
        f"({len(rc.sweep.values)} values x {rc.sweep.repeats} repeats, "
        f"{len(failures)} failed)"
    )
    return EXIT_RUN_FAILURE if failures else EXIT_OK


def _json_number(value: float | None) -> float | str | None:
    """Keep the report strict JSON: infinities become the string "inf"."""
    if value is not None and math.isinf(value):
        return "inf"
    return value


def cmd_privacy(rc: RunConfig, target_epsilon: float | None) -> int:
    out_dir = resolve_output_dir(rc.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, objectives = _build_problem(rc)
    rng = stream(
        rc.seed,
        StreamKey(run_id=VALIDATION_RUN_ID, agent_id=0, tag=Tag.DATA, round_index=0),
    )
    bound = estimate_grad_bound(
        objectives, rc.privacy.box_radius, rc.privacy.trials, rng
    )
    engine, d = rc.engine, rc.objective.d
    epsilon = budget_for_run(engine, d, bound)
    report: dict = {
        "algorithm": rc.algorithm,
        "iterations": engine.iterations,
        "grad_bound": bound,
        "grad_bound_box_radius": rc.privacy.box_radius,
        "epsilon": _json_number(epsilon),
    }
    lines = [
        f"algorithm: {rc.algorithm}  rounds: {engine.iterations}  "
        f"grad bound (box radius {rc.privacy.box_radius:g}): {bound:.6g}",
    ]
    if epsilon is None:
        lines.append("epsilon: no privacy guarantee (noise disabled or zero scale)")
    elif math.isinf(epsilon):
        # The horizon sum S is to blame only where it is itself inf.
        if math.isinf(geometric_budget_sum(engine.noise_x.q, engine.iterations)):
            cause = "the decaying schedule spends an unbounded budget over this horizon"
        else:
            cause = "the budget overflows the float range"
        lines.append(f"epsilon: inf ({cause})")
    else:
        lines.append(f"epsilon: {epsilon:.6g}")
    if target_epsilon is not None:
        s_x, s_second = scales_for_epsilon(
            engine, d, bound, target_epsilon, split=rc.privacy.split
        )
        report["target_epsilon"] = target_epsilon
        report["required_s_x"] = _json_number(s_x)
        report[f"required_s_{engine.SECOND}"] = _json_number(s_second)
        lines.append(
            f"scales for epsilon {target_epsilon:g}: s_x = {s_x:.6g}, "
            f"s_{engine.SECOND} = {s_second:.6g}"
        )
    (out_dir / "privacy_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print("\n".join(lines))
    return EXIT_OK


def cmd_validate_compressor(rc: RunConfig) -> int:
    report = check_contraction(rc)
    print(
        f"compressor {rc.engine.compressor.kind!r} (d={rc.objective.d}): empirical ratio "
        f"{report.empirical_ratio:.6g} <= {report.threshold:.6g} "
        f"over {rc.contraction_trials} trials: PASS"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcopt",
        description=(
            "Deterministic simulator for differentially private, "
            "communication-compressed decentralized optimization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = "path to a JSON config (a metadata.json from a previous run also works)"
    run_p = sub.add_parser("run", help="execute one experiment")
    run_p.add_argument("config", help=help_text)
    sweep_p = sub.add_parser("sweep", help="run a parameter sweep")
    sweep_p.add_argument("config", help=help_text)
    privacy_p = sub.add_parser("privacy", help="report the privacy budget")
    privacy_p.add_argument("config", help=help_text)
    privacy_p.add_argument(
        "--target-epsilon",
        type=float,
        default=None,
        help="also report noise scales that would meet this budget",
    )
    validate_p = sub.add_parser(
        "validate-compressor", help="check the compressor contraction contract"
    )
    validate_p.add_argument("config", help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = load_config(args.config)
    except DpcoptError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        if args.command == "run":
            return cmd_run(rc)
        if args.command == "sweep":
            return cmd_sweep(rc)
        if args.command == "privacy":
            return cmd_privacy(rc, args.target_epsilon)
        return cmd_validate_compressor(rc)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (DpcoptError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate.
        print(f"run failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
