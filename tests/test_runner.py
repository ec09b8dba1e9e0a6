"""CLI tests: exit codes, output files, replay fidelity, sweeps, and
the privacy report."""

import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpcopt
import dpcopt.runner
from common import config_documents
from dpcopt.compressors import xi_factor
from dpcopt.config import config_digest, load_config
from dpcopt.metrics import CSV_HEADER
from dpcopt.objectives import MAX_BOX_RADIUS
from dpcopt.rng import derive_seed
from dpcopt.runner import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_RUN_FAILURE,
    OUTPUT_ROOT_ENV,
    check_contraction,
    main,
    resolve_output_dir,
)
from dpcopt.topology import Graph


def make_doc(outputs, algorithm="pgtc", **overrides):
    gains = (
        {"eta": 0.1, "gamma": 0.2, "alpha_x": 0.5, "alpha_y": 0.5}
        if algorithm == "pgtc"
        else {"eta": 0.015, "gamma": 45.0, "alpha_x": 0.2, "omega": 5.0}
    )
    second = "y" if algorithm == "pgtc" else "v"
    doc = {
        "algorithm": algorithm,
        "graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
        "objective": {"kind": "quadratic", "d": 4},
        "compressor": {"kind": "topk", "k": 2},
        "noise": {
            "x": {"s": 0.1, "q": 0.5},
            second: {"s": 0.1, "q": 0.5},
        },
        "gains": gains,
        "iterations": 5,
        "seed": 42,
        "outputs": str(outputs),
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_resolve_output_dir(monkeypatch, tmp_path):
    monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
    assert resolve_output_dir("out") == (tmp_path / "out").relative_to(tmp_path)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert resolve_output_dir("out") == tmp_path / "out"
    absolute = tmp_path / "elsewhere"
    assert resolve_output_dir(str(absolute)) == absolute


def test_run_writes_trace_and_metadata(tmp_path):
    out = tmp_path / "out"
    cfg = write_doc(tmp_path, make_doc(out))
    assert main(["run", str(cfg)]) == EXIT_OK

    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6  # header + rows k=0..5
    assert all(line.endswith(",") for line in lines[1:])  # no reference

    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert meta["library_version"] == dpcopt.__version__
    assert meta["seed"] == 42
    assert meta["config_sha256"] == config_digest(meta["config"])
    inv = meta["invariants"]
    assert inv["contraction_passed"] is True
    assert inv["tracking_or_dual_residual_ok"] is True
    assert inv["rows"] == 6
    assert not (out / "residual_vs_rounds.svg").exists()


def test_run_with_reference_writes_charts_and_residuals(tmp_path):
    out = tmp_path / "out"
    doc = make_doc(out, reference={"horizon_multiplier": 10})
    cfg = write_doc(tmp_path, doc)
    assert main(["run", str(cfg)]) == EXIT_OK
    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert all(line.split(",")[7] != "" for line in lines)
    r = [float(line.split(",")[7]) for line in lines]
    assert all(b <= a for a, b in zip(r, r[1:]))
    assert (out / "residual_vs_rounds.svg").exists()
    assert (out / "residual_vs_bits.svg").exists()
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert meta["invariants"]["reference_horizon"] == 50


def test_rerun_and_metadata_replay_are_byte_identical(tmp_path, monkeypatch):
    doc = make_doc("out")  # relative: lands under the env root
    cfg = write_doc(tmp_path, doc)

    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "first"))
    assert main(["run", str(cfg)]) == EXIT_OK
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "second"))
    assert main(["run", str(cfg)]) == EXIT_OK
    first = (tmp_path / "first" / "out" / "trace.csv").read_bytes()
    second = (tmp_path / "second" / "out" / "trace.csv").read_bytes()
    assert first == second

    # The metadata names the environment the trace bytes depend on, and
    # replaying from it reproduces the run too.
    meta_path = tmp_path / "first" / "out" / "metadata.json"
    build = np.show_config(mode="dicts")
    assert json.loads(meta_path.read_text(encoding="utf-8"))["environment"] == {
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "blas_name": build["Build Dependencies"]["blas"]["name"],
        "blas_version": build["Build Dependencies"]["blas"]["version"],
        "simd_baseline": build["SIMD Extensions"]["baseline"],
        "simd_found": build["SIMD Extensions"]["found"],
    }
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "replay"))
    assert main(["run", str(meta_path)]) == EXIT_OK
    replay = (tmp_path / "replay" / "out" / "trace.csv").read_bytes()
    assert replay == first


def test_replaying_a_tampered_metadata_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(write_doc(tmp_path, make_doc(out)))]) == EXIT_OK
    meta_path = out / "metadata.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["config"]["iterations"] = 7
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    trace = (out / "trace.csv").read_bytes()

    assert main(["run", str(meta_path)]) == EXIT_CONFIG_ERROR
    assert "config_sha256" in capsys.readouterr().err
    assert (out / "trace.csv").read_bytes() == trace


def test_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == EXIT_CONFIG_ERROR

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["run", str(bad)]) == EXIT_CONFIG_ERROR

    doc = make_doc(tmp_path / "out")
    doc["typo_key"] = 1
    cfg = write_doc(tmp_path, doc)
    assert main(["run", str(cfg)]) == EXIT_CONFIG_ERROR
    assert "config error" in capsys.readouterr().err


def test_null_privacy_section_exits_2_without_a_traceback(tmp_path, capsys):
    cfg = str(write_doc(tmp_path, make_doc(tmp_path / "out", privacy=None)))
    for command in ("run", "privacy"):
        assert main([command, cfg]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "config error: privacy: expected an object" in err
        assert "Traceback" not in err


def test_outputs_with_a_nul_character_exits_2_without_a_traceback(tmp_path, capsys):
    doc = make_doc("nul\0out", sweep={"parameter": "eta", "values": [0.1], "repeats": 1})
    cfg = str(write_doc(tmp_path, doc))
    for command in ("run", "sweep", "privacy"):
        assert main([command, cfg]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "config error: outputs: must not contain a NUL character" in err
        assert "Traceback" not in err


def test_huge_graph_n_exits_2_without_a_traversal(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Graph, "_connected", lambda self: pytest.fail("traversed"))
    doc = make_doc(tmp_path / "out", graph={"n": 2**40, "edges": [[0, 1]]})
    cfg = write_doc(tmp_path, doc)
    assert main(["validate-compressor", str(cfg)]) == EXIT_CONFIG_ERROR
    assert "not connected" in capsys.readouterr().err


FLOAT_FIELDS = [
    ("pgtc", "gains.eta"),
    ("pgtc", "gains.gamma"),
    ("pgtc", "gains.alpha_x"),
    ("pgtc", "gains.alpha_y"),
    ("ppdc", "gains.omega"),
    ("pgtc", "noise.x.s"),
    ("pgtc", "noise.x.q"),
    ("pgtc", "noise.y.s"),
    ("pgtc", "noise.y.q"),
    ("ppdc", "noise.v.s"),
    ("ppdc", "noise.v.q"),
    ("pgtc", "objective.lambda"),
    ("pgtc", "objective.alpha"),
    ("pgtc", "compressor.r"),
    ("pgtc", "compressor.phi"),
    ("pgtc", "privacy.box_radius"),
    ("pgtc", "privacy.split"),
    ("pgtc", "sweep.values[0]"),
]


def _doc_with(tmp_path, algorithm, field, value):
    """A valid doc of the algorithm with one field set to value, and the
    command that reads it."""
    doc = make_doc(tmp_path / "out", algorithm)
    doc["objective"] = {"kind": "logistic", "d": 4, "m": 5, "lambda": 1e-3, "alpha": 1.0}
    doc["privacy"] = {}
    if field == "sweep.values[0]":
        doc["sweep"] = {"parameter": "eta", "values": [value], "repeats": 1}
        return doc, "sweep"
    *outer, key = field.split(".")
    owner = doc
    for part in outer:
        owner = owner[part]
    owner[key] = value
    return doc, "privacy" if field.startswith("privacy.") else "run"


def _sweep(parameter, value):
    return {"parameter": parameter, "values": [value], "repeats": 1}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("algorithm,field", FLOAT_FIELDS, ids=[f for _, f in FLOAT_FIELDS])
def test_non_finite_numbers_exit_2(tmp_path, capsys, algorithm, field, value):
    # Python's json reads NaN, Infinity and -Infinity; the parser must not.
    doc, command = _doc_with(tmp_path, algorithm, field, value)
    assert main([command, str(write_doc(tmp_path, doc))]) == EXIT_CONFIG_ERROR
    assert f"{field}: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("compressor.b", 65, "compressor.b: bbit needs 1 <= b <= 64"),
        ("compressor.b", 2000, "compressor.b: bbit needs 1 <= b <= 64"),
        ("gains.eta", 10**400, "gains.eta: expected a finite number"),
        ("privacy.box_radius", 1e308, "privacy.box_radius: must be at most"),
        ("objective.alpha", -1.0, "objective.alpha: must be >= 0"),
        ("objective.alpha", -4.0, "objective.alpha: must be >= 0"),
        ("graph.edges", [[0, 1], [1, 2], [2, 2]], "graph.edges: self-loop at node 2"),
        ("graph.edges", [[0, 1], [1, 0], [1, 2]], "graph.edges: duplicate edge (0, 1)"),
        ("graph.edges", [[0, 1], [1, 2], [0, 9]], "graph.edges: edge (0,9) outside range(0, 3)"),
        ("graph.n", 7, "graph.edges: graph on 7 nodes is not connected"),
        ("graph.n", 1, "graph.n: need at least 2 nodes, got n=1"),
        ("compressor.k", 11, "compressor.k: top-k with k=11 exceeds d=4"),
        ("noise.x.s", -0.1, "noise.x.s: must be >= 0"),
        ("noise.y.q", 1.0, "noise.y.q: must lie in (0, 1)"),
        ("objective.d", 0, "objective.d: must be >= 1"),
        # A sweep value must pass the rule of the field it replaces.
        ("sweep", _sweep("q", 1.5), "sweep.values[0]: q: must lie in (0, 1)"),
        ("sweep", _sweep("s", -1.0), "sweep.values[0]: s: must be >= 0"),
        ("sweep", _sweep("eta", 0.0), "sweep.values[0]: gains.eta: must be positive"),
    ],
    ids=[
        "b=65", "b=2000", "eta=10**400", "box_radius=1e308", "alpha=-1", "alpha=-4",
        "self-loop", "duplicate-edge", "edge-out-of-range", "disconnected", "n=1", "k=11",
        "s=-0.1", "q=1", "d=0", "sweep-q=1.5", "sweep-s=-1", "sweep-eta=0",
    ],
)
def test_out_of_range_numbers_exit_2(tmp_path, capsys, field, value, message):
    doc, command = _doc_with(tmp_path, "pgtc", field, value)
    if field != "compressor.k":
        doc["compressor"] = {"kind": "bbit", "b": value if field == "compressor.b" else 2}
    config = str(write_doc(tmp_path, doc))
    for cmd in sorted({command, "privacy"}):
        assert main([cmd, config]) == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err


def test_widest_quantizer_parses(tmp_path):
    doc = make_doc(tmp_path / "out", compressor={"kind": "bbit", "b": 64})
    assert load_config(write_doc(tmp_path, doc)).compressor.b == 64


@pytest.mark.parametrize("d", [4, 10, 100])
def test_every_bbit_width_that_parses_passes_the_gate(tmp_path, d):
    # At b >= 29 (d = 4) xi rounds to 1; the default phi must stay below 1
    # there, and keep today's threshold (1 - 1/xi)(1 + 3/sqrt(2000)) below.
    for b in range(1, 65):
        doc = make_doc(
            tmp_path / "out",
            objective={"kind": "quadratic", "d": d},
            compressor={"kind": "bbit", "b": b},
        )
        report = check_contraction(load_config(write_doc(tmp_path, doc)))
        assert report.passes, (b, report)
        if b <= 28:
            phi = 1.0 / xi_factor(d, b)
            assert report.threshold == (1.0 - phi) * (1.0 + 3.0 / math.sqrt(2000))


def test_sweep_without_sweep_block_exits_2(tmp_path, capsys):
    cfg = write_doc(tmp_path, make_doc(tmp_path / "out"))
    assert main(["sweep", str(cfg)]) == EXIT_CONFIG_ERROR
    assert "sweep" in capsys.readouterr().err


def test_contraction_gate_failure_exits_1(tmp_path, capsys):
    # Claimed phi is far above what top-2-of-4 achieves, so the
    # pre-run empirical check refuses to start the run.
    doc = make_doc(tmp_path / "out")
    doc["compressor"] = {"kind": "topk", "k": 2, "phi": 0.95}
    cfg = write_doc(tmp_path, doc)
    assert main(["run", str(cfg)]) == EXIT_RUN_FAILURE
    err = capsys.readouterr().err
    assert "run failed" in err and "empirical ratio" in err
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_divergent_run_exits_1(tmp_path, capsys):
    doc = make_doc(tmp_path / "out")
    doc["gains"]["eta"] = 1e100  # overflows within a few rounds
    cfg = write_doc(tmp_path, doc)
    assert main(["run", str(cfg)]) == EXIT_RUN_FAILURE
    assert "non-finite state" in capsys.readouterr().err


def test_divergence_past_the_measured_rounds_exits_1(tmp_path, capsys):
    # At eta=10 the iterates grow about tenfold per round: the 5 measured
    # rounds stay finite and pass every check, but the run on to the
    # reference horizon of 500 rounds overflows, so no trace is written.
    doc = make_doc(tmp_path / "plain")
    doc["gains"]["eta"] = 10.0
    assert main(["run", str(write_doc(tmp_path, doc))]) == EXIT_OK
    assert (tmp_path / "plain" / "trace.csv").exists()
    capsys.readouterr()

    doc = make_doc(tmp_path / "ref", reference={"horizon_multiplier": 100})
    doc["gains"]["eta"] = 10.0
    assert main(["run", str(write_doc(tmp_path, doc))]) == EXIT_RUN_FAILURE
    err = capsys.readouterr().err
    assert "run failed:" in err and "non-finite state" in err
    assert not (tmp_path / "ref" / "trace.csv").exists()


def test_overflowing_residual_series_exits_1(tmp_path, capsys):
    # At eta=3 the run stays finite to its reference horizon of 500
    # rounds, but x_inf is so far out that ||x_t - x_inf||^2 overflows:
    # the run fails cleanly instead of writing R_k = inf.
    doc = make_doc(tmp_path / "out", reference={"horizon_multiplier": 100})
    doc["gains"]["eta"] = 3.0
    assert main(["run", str(write_doc(tmp_path, doc))]) == EXIT_RUN_FAILURE
    err = capsys.readouterr().err
    assert "run failed:" in err and "reference point" in err
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_residual_invariant_failure_exits_1(tmp_path, capsys):
    # Large-but-finite blowup: the run completes, but catastrophic
    # cancellation breaks the tracking identity and the check reports it.
    doc = make_doc(tmp_path / "out")
    doc["gains"]["eta"] = 1e8
    cfg = write_doc(tmp_path, doc)
    assert main(["run", str(cfg)]) == EXIT_RUN_FAILURE
    assert "invariant check failed" in capsys.readouterr().err
    assert (tmp_path / "out" / "trace.csv").exists()


def test_sweep_outputs(tmp_path):
    out = tmp_path / "out"
    doc = make_doc(
        out, sweep={"parameter": "q", "values": [0.3, 0.6], "repeats": 2}
    )
    cfg = write_doc(tmp_path, doc)
    assert main(["sweep", str(cfg)]) == EXIT_OK

    lines = (out / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "value,median,min,max"
    assert len(lines) == 3
    for line in lines[1:]:
        value, med, low, high = (float(f) for f in line.split(","))
        assert low <= med <= high
    assert (out / "accuracy_vs_value.svg").exists()

    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert meta["failures"] == []
    assert len(meta["cells"]) == 4
    for cell in meta["cells"]:
        assert cell["seed"] != 42  # per-cell derived seeds
    assert meta["cells"][0]["seed"] == derive_seed(42, 0, 0)
    assert meta["cells"][3]["seed"] == derive_seed(42, 1, 1)


def test_sweep_reports_each_cell_on_stderr_only(tmp_path, capsys):
    out = tmp_path / "out"
    doc = make_doc(out, sweep={"parameter": "q", "values": [0.3, 0.6], "repeats": 2})
    assert main(["sweep", str(write_doc(tmp_path, doc))]) == EXIT_OK
    captured = capsys.readouterr()
    cells = [(0.3, 0), (0.3, 1), (0.6, 0), (0.6, 1)]
    lines = captured.err.splitlines()
    assert len(lines) == len(cells)
    for done, (line, (value, repeat)) in enumerate(zip(lines, cells), start=1):
        prefix = f"sweep cell {done}/4 (q={value}, repeat {repeat}): "
        assert line.startswith(prefix), line
        assert re.fullmatch(r"\d+\.\d{3} s", line[len(prefix):]), line
    summary = out / "sweep_summary.csv"
    assert captured.out == f"sweep complete: {summary} (2 values x 2 repeats, 0 failed)\n"


def test_degenerate_sweep_matches_single_run(tmp_path):
    out = tmp_path / "out"
    doc = make_doc(out, sweep={"parameter": "q", "values": [0.5], "repeats": 1})
    cfg = write_doc(tmp_path, doc)
    assert main(["sweep", str(cfg)]) == EXIT_OK
    line = (out / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()[1]
    _, med, low, high = line.split(",")
    assert med == low == high
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert float(med) == meta["cells"][0]["final_accuracy"]


def test_sweep_records_failures_and_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    doc = make_doc(
        out, sweep={"parameter": "eta", "values": [0.05, 1e100], "repeats": 2}
    )
    cfg = write_doc(tmp_path, doc)
    assert main(["sweep", str(cfg)]) == EXIT_RUN_FAILURE
    assert "sweep cell failed" in capsys.readouterr().err

    lines = (out / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert not lines[1].endswith(",,,")  # eta=0.05 cells succeed
    assert lines[2].endswith(",,,")  # divergent cells leave stats blank

    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert len(meta["cells"]) == 2 and len(meta["failures"]) == 2
    for failure in meta["failures"]:
        assert "non-finite" in failure["error"]


def test_privacy_report(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_doc(tmp_path, make_doc(out))
    assert main(["privacy", str(cfg), "--target-epsilon", "24"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "epsilon:" in stdout and "scales for epsilon 24" in stdout

    report = json.loads((out / "privacy_report.json").read_text(encoding="utf-8"))
    assert report["algorithm"] == "pgtc"
    assert report["epsilon"] > 0
    assert report["grad_bound"] > 0
    assert report["grad_bound_box_radius"] == 1.0
    assert report["target_epsilon"] == 24.0
    assert report["required_s_x"] > 0 and report["required_s_y"] > 0


def test_privacy_no_guarantee_when_noise_disabled(tmp_path, capsys):
    out = tmp_path / "out"
    doc = make_doc(out)
    doc["noise"]["x"]["enabled"] = False
    cfg = write_doc(tmp_path, doc)
    assert main(["privacy", str(cfg)]) == EXIT_OK
    assert "no privacy guarantee" in capsys.readouterr().out
    report = json.loads((out / "privacy_report.json").read_text(encoding="utf-8"))
    assert report["epsilon"] is None


def test_privacy_reports_unbounded_budget_for_long_horizons(tmp_path, capsys):
    # q = 0.1 over 1000 rounds pushes the budget sum past the float
    # range; the command must report inf, not crash, and the JSON
    # report must stay strictly parseable.
    out = tmp_path / "out"
    doc = make_doc(out, iterations=1000)
    doc["noise"] = {"x": {"s": 0.1, "q": 0.1}, "y": {"s": 0.1, "q": 0.1}}
    cfg = write_doc(tmp_path, doc)
    assert main(["privacy", str(cfg), "--target-epsilon", "24"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "epsilon: inf" in stdout
    report = json.loads((out / "privacy_report.json").read_text(encoding="utf-8"))
    assert report["epsilon"] == "inf"
    assert report["required_s_x"] == "inf" and report["required_s_y"] == "inf"


def _ring_doc(outputs, **overrides):
    """ppdc on quadratic agents (d = 1) over a 6-ring, sending uncompressed
    rows; make_doc's schedules decay at q = 0.5."""
    return make_doc(
        outputs, algorithm="ppdc",
        graph={"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]},
        objective={"kind": "quadratic", "d": 1}, compressor={"kind": "identity"},
        **overrides,
    )


def _divisor_underflows(outputs):
    doc = _ring_doc(outputs, iterations=10)
    doc["gains"]["omega"] = doc["noise"]["v"]["s"] = 1e-300
    return doc


# Infinite budgets by their cause. The horizon sum S is finite but the
# budget overflows: through the gradient bound M = 8.8e307 with S =
# 2^601 - 1, or through omega s_v = 1e-600 with S = 2047. S itself is
# inf: q = 0.1 over 1000 rounds.
INFINITE_BUDGETS = {
    "bound-overflows": (
        lambda out: _ring_doc(out, iterations=600, privacy={"box_radius": 8e307}),
        "the budget overflows the float range",
    ),
    "divisor-underflows": (
        _divisor_underflows,
        "the budget overflows the float range",
    ),
    "horizon-sum-overflows": (
        lambda out: _ring_doc(
            out, iterations=1000,
            noise={"x": {"s": 0.1, "q": 0.1}, "v": {"s": 0.1, "q": 0.1}},
        ),
        "the decaying schedule spends an unbounded budget over this horizon",
    ),
}


@pytest.mark.parametrize("case", sorted(INFINITE_BUDGETS))
def test_privacy_names_the_cause_of_an_infinite_budget(tmp_path, capsys, case):
    build, cause = INFINITE_BUDGETS[case]
    doc = build(tmp_path / "out")
    assert main(["privacy", str(write_doc(tmp_path, doc))]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"epsilon: inf ({cause})"
    report = json.loads((tmp_path / "out" / "privacy_report.json").read_text(encoding="utf-8"))
    assert report["epsilon"] == "inf"


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# Primal-dual runs of the shipped logistic problem whose horizon sum S
# (q = 0.1, K = 1000) leaves the float range: the scale terms of the
# budget underflow to 0 (0 * inf), or the second scale's denominator
# overflows (inf / inf). Both must read inf, not nan.
UNBOUNDED_PRODUCTS = {
    "budget-terms-underflow": ({"s": 1e308, "q": 0.1}, 1e-300, 10.0),
    "omega-overflows": ({"s": 1.0, "q": 0.1}, 0.1, 1e308),
}


@pytest.mark.parametrize("case", sorted(UNBOUNDED_PRODUCTS))
def test_unbounded_budget_products_report_inf_in_strict_json(tmp_path, capsys, case):
    schedule, eta, omega = UNBOUNDED_PRODUCTS[case]
    configs = Path(__file__).resolve().parent.parent / "configs"
    doc = json.loads((configs / "pgtc_topk_logistic.json").read_text(encoding="utf-8"))
    doc.update(algorithm="ppdc", outputs=str(tmp_path / "out"))
    doc["noise"] = {"x": schedule, "v": schedule}
    doc["gains"] = {"eta": eta, "gamma": 0.2, "alpha_x": 0.5, "omega": omega}
    cfg = write_doc(tmp_path, doc)
    assert main(["privacy", str(cfg), "--target-epsilon", "24"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "nan" not in stdout
    assert "epsilon: inf" in stdout and "s_x = inf, s_v = inf" in stdout
    text = (tmp_path / "out" / "privacy_report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["epsilon"] == "inf"
    assert report["required_s_x"] == "inf" and report["required_s_v"] == "inf"


def test_overflowing_scale_intermediates_report_the_finite_scale(tmp_path, capsys):
    # S = 2^601 - 1 is finite, yet M S overflows and so does omega (1 -
    # split) target: the plain quotient for s_v reads inf / inf = nan, while
    # its exact value is about 3.04e22.
    doc = _ring_doc(tmp_path / "out", iterations=600, privacy={"box_radius": 1e150})
    doc["gains"]["omega"] = 1e308
    assert main(["privacy", str(write_doc(tmp_path, doc)), "--target-epsilon", "24"]) == EXIT_OK
    assert "nan" not in capsys.readouterr().out
    text = (tmp_path / "out" / "privacy_report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=_reject_constant)
    M = Fraction(report["grad_bound"])
    exact = 4 * M * (2**601 - 1) / (Fraction(1e308) * Fraction(1, 2) * 24)
    assert abs(Fraction(report["required_s_v"]) - exact) <= exact / 10**12


@pytest.mark.parametrize(
    "error, line",
    [
        (
            MemoryError("Unable to allocate 7.28 TiB for an array with shape (10000000000001, 100)"),
            "run failed: Unable to allocate 7.28 TiB for an array with shape (10000000000001, 100)",
        ),
        (MemoryError(), "run failed: MemoryError"),
    ],
    ids=["numpy-message", "bare"],
)
def test_an_allocation_failure_exits_1_with_one_line(tmp_path, capsys, monkeypatch, error, line):
    # A config whose arrays cannot be allocated (iterations = 10**13, say)
    # stands in as a run that raises; nothing large is allocated here.
    def no_memory(rc):
        raise error

    monkeypatch.setattr(dpcopt.runner, "execute_run", no_memory)
    cfg = write_doc(tmp_path, make_doc(tmp_path / "out"))
    assert main(["run", str(cfg)]) == EXIT_RUN_FAILURE
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("command", ["run", "sweep", "privacy"])
@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_outputs_that_cannot_be_a_directory_exit_1(
    tmp_path, capsys, monkeypatch, command, under
):
    # privacy must find out before it spends the bound's work.
    monkeypatch.setattr(
        "dpcopt.runner.estimate_grad_bound", lambda *args: pytest.fail("bound computed")
    )
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    doc = make_doc(blocker / "out" if under else blocker)
    doc["sweep"] = {"parameter": "eta", "values": [0.1], "repeats": 1}
    assert main([command, str(write_doc(tmp_path, doc))]) == EXIT_RUN_FAILURE
    err = capsys.readouterr().err
    assert "run failed:" in err and "Traceback" not in err


def test_validate_compressor_pass(tmp_path, capsys):
    cfg = write_doc(tmp_path, make_doc(tmp_path / "out"))
    assert main(["validate-compressor", str(cfg)]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def _cli(*args, module="dpcopt"):
    """The CLI in a fresh interpreter that prints every warning."""
    src = str(Path(dpcopt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )


# 2 * lambda overflows in every logistic gradient.
HUGE_LAMBDA = {"kind": "logistic", "d": 4, "m": 5, "lambda": 1e308, "alpha": 1.0}


@pytest.mark.parametrize("algorithm", ["pgtc", "ppdc"])
def test_overflowing_gradient_ends_run_without_warnings(tmp_path, algorithm):
    doc = make_doc(tmp_path / "out", algorithm, objective=HUGE_LAMBDA)
    done = _cli("run", str(write_doc(tmp_path, doc)))
    assert done.returncode == EXIT_RUN_FAILURE
    assert "run failed: non-finite state at round 0" in done.stderr
    assert "Warning" not in done.stderr


@pytest.mark.parametrize("config", ["pgtc_topk_logistic", "ppdc_topk_logistic"])
def test_huge_noise_scale_ends_run_without_warnings(tmp_path, capsys, config):
    # At a finite scale near the float maximum the Laplace draw and the
    # noise sum overflow; they run under the round's errstate, so the
    # finite check ends the run (warnings are errors here).
    configs = Path(__file__).resolve().parent.parent / "configs"
    doc = json.loads((configs / f"{config}.json").read_text(encoding="utf-8"))
    doc["noise"] = {key: {"s": 1e308, "q": 0.5} for key in doc["noise"]}
    doc.update(iterations=20, outputs=str(tmp_path / "out"))
    assert main(["run", str(write_doc(tmp_path, doc))]) == EXIT_RUN_FAILURE
    assert "run failed: non-finite state at round 0" in capsys.readouterr().err


def test_diverging_bbit_run_ends_without_warnings(tmp_path):
    # On the way to divergence the quantizer's norms and dither overflow;
    # they run under the update's errstate, so the finite check ends the
    # run and no numpy warning leaks.
    doc = make_doc(
        tmp_path / "out",
        graph={"n": 2, "edges": [[0, 1]]},
        objective={"kind": "sincos", "d": 1},
        compressor={"kind": "bbit", "b": 1},
        noise={"x": {"s": 0, "q": 0.5}, "y": {"s": 0, "q": 0.5}},
        gains={"eta": 14, "gamma": 1, "alpha_x": 0.5, "alpha_y": 0.5},
        iterations=11,
        seed=0,
        reference={"horizon_multiplier": 10},
    )
    done = _cli("run", str(write_doc(tmp_path, doc)))
    assert done.returncode == EXIT_RUN_FAILURE
    assert done.stderr == (
        "run failed: non-finite state at round 108: gradient-tracking update diverged\n"
    )


def test_non_finite_grad_bound_fails_without_report_or_warnings(tmp_path):
    doc = make_doc(tmp_path / "out", objective=HUGE_LAMBDA)
    done = _cli("privacy", str(write_doc(tmp_path, doc)))
    assert done.returncode == EXIT_RUN_FAILURE
    assert "run failed: gradient bound" in done.stderr
    assert "Warning" not in done.stderr
    assert not (tmp_path / "out" / "privacy_report.json").exists()


def test_far_box_gives_finite_bound_without_warnings(tmp_path):
    # x * x overflows at 1e200, yet every gradient stays finite.
    doc = make_doc(
        tmp_path / "out",
        objective=dict(HUGE_LAMBDA, **{"lambda": 1e-3}),
        privacy={"box_radius": 1e200},
    )
    done = _cli("privacy", str(write_doc(tmp_path, doc)))
    assert done.returncode == EXIT_OK, done.stderr
    assert "Warning" not in done.stderr
    report = json.loads((tmp_path / "out" / "privacy_report.json").read_text(encoding="utf-8"))
    assert math.isfinite(report["grad_bound"])


@pytest.mark.parametrize("module", ["dpcopt", "dpcopt.runner"])
def test_python_dash_m_runs_the_cli_without_warnings(tmp_path, module):
    cfg = write_doc(tmp_path, make_doc(tmp_path / "out"))
    done = _cli("validate-compressor", str(cfg), module=module)
    assert done.returncode == EXIT_OK, done.stderr
    assert "PASS" in done.stdout
    assert "Warning" not in done.stderr


@settings(max_examples=50, deadline=None)
@given(config_documents(), st.integers(1, 20))
def test_every_valid_document_runs_and_replays(doc, iterations):
    # Any document the parser accepts, kept small: run exits 0 or 1 with a
    # one-line message, never a traceback or a numpy warning (warnings are
    # errors here), and a run that exits 0 replays from its metadata.json
    # to the same trace bytes.
    doc.pop("sweep", None)
    if "reference" in doc:
        doc["reference"] = {"horizon_multiplier": 10}
    doc.update(iterations=iterations, contraction_trials=1000)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        doc["outputs"] = str(out)
        config = write_doc(Path(tmp), doc)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(["run", str(config)])
        assert code in (EXIT_OK, EXIT_RUN_FAILURE), err.getvalue()
        if code == EXIT_RUN_FAILURE:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert lines[0].startswith(("run failed: ", "invariant check failed: "))
            return
        trace = (out / "trace.csv").read_bytes()
        with redirect_stdout(io.StringIO()):
            assert main(["run", str(out / "metadata.json")]) == EXIT_OK
        assert (out / "trace.csv").read_bytes() == trace


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def _out_of_range_fields(doc: dict) -> dict:
    """Each numeric field of a valid document, by its dotted path, with
    its key path in the document and a strategy of values its rule
    rejects (a missing optional section is created by the mutation)."""
    at_most_zero = _finite(max_value=0.0)
    outside_open_unit = st.one_of(at_most_zero, _finite(min_value=1.0))
    negative = _finite(max_value=0.0, exclude_max=True)
    second = "y" if doc["algorithm"] == "pgtc" else "v"
    compressor = doc["compressor"]
    kind = compressor["kind"]
    fields = {
        "iterations": st.integers(max_value=0),
        "seed": st.one_of(st.integers(max_value=-1), st.integers(min_value=2**63)),
        "contraction_trials": st.integers(max_value=999),
        "objective.d": st.integers(max_value=0),
        "gains.eta": at_most_zero,
        "privacy.box_radius": st.one_of(
            at_most_zero, _finite(min_value=MAX_BOX_RADIUS, exclude_min=True)
        ),
        "privacy.trials": st.integers(max_value=0),
        "privacy.split": outside_open_unit,
        "reference.horizon_multiplier": st.integers(max_value=9),
    }
    for family in ("x", second):
        fields[f"noise.{family}.q"] = outside_open_unit
        fields[f"noise.{family}.s"] = negative
    # Each alpha against 1/r, the bound of the compressor's r.
    alpha = st.one_of(at_most_zero, _finite(min_value=1.0 / compressor.get("r", 1.0)))
    fields["gains.alpha_x"] = alpha
    if doc["algorithm"] == "pgtc":
        fields["gains.alpha_y"] = alpha
        fields["gains.gamma"] = st.one_of(at_most_zero, _finite(min_value=1.0, exclude_min=True))
    else:
        fields["gains.gamma"] = fields["gains.omega"] = at_most_zero
    if doc["objective"]["kind"] == "logistic":
        fields["objective.m"] = st.integers(max_value=0)
        fields["objective.alpha"] = negative
    if kind == "topk":
        d = doc["objective"]["d"]
        fields["compressor.k"] = st.one_of(st.integers(max_value=0), st.integers(min_value=d + 1))
    if kind == "bbit":
        fields["compressor.b"] = st.one_of(st.integers(max_value=0), st.integers(min_value=65))
    if kind == "identity":
        fields["compressor.r"] = fields["compressor.phi"] = _finite().filter(lambda v: v != 1.0)
    else:
        fields["compressor.r"] = at_most_zero
        fields["compressor.phi"] = st.one_of(at_most_zero, _finite(min_value=1.0, exclude_min=True))
    keyed = {path: (tuple(path.split(".")), values) for path, values in fields.items()}
    if "sweep" in doc:
        parameter = doc["sweep"]["parameter"]
        keyed["sweep.repeats"] = (("sweep", "repeats"), st.integers(max_value=0))
        value = {"q": outside_open_unit, "s": negative, "eta": at_most_zero}[parameter]
        keyed["sweep.values[0]"] = (("sweep", "values", 0), value)
    return keyed


@settings(max_examples=100, deadline=None)
@given(config_documents(), st.data())
def test_every_out_of_range_field_exits_2_naming_its_path(doc, data):
    # ROADMAP item 10: one numeric field of a valid document set outside
    # its rule; run exits 2 with one stderr line that starts with its path.
    fields = _out_of_range_fields(doc)
    path = data.draw(st.sampled_from(sorted(fields)), label="field")
    keys, values = fields[path]
    owner = doc
    for key in keys[:-1]:
        owner = owner.setdefault(key, {})
    owner[keys[-1]] = data.draw(values, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        doc["outputs"] = str(Path(tmp) / "out")
        config = write_doc(Path(tmp), doc)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(["run", str(config)])
        assert not (Path(tmp) / "out").exists()
    lines = err.getvalue().splitlines()
    assert code == EXIT_CONFIG_ERROR, lines
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"config error: {path}: "), lines
