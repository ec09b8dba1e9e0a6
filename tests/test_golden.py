"""Golden digests: the exact bytes of trace.csv (and of the shipped sweep's
sweep_summary.csv) for fixed configs.

A change that alters any of these digests changes what every replay of
these configs writes. Such a change must declare the drift in CHANGES.md
(which configs, which columns, how large) and update the digest here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dpcopt.runner import EXIT_OK, OUTPUT_ROOT_ENV, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The paper run: 6-agent logistic, top-k, K = 1000, reference at 10 K.
PAPER_DIGEST = "de24c7e2fff5d0df67ef475a593717714f439634b89ee724ad5e9aec4d395379"

# sweep_summary.csv of the shipped q-sweep: 30 cells, each with its own
# stream factory and its own contraction gate.
SWEEP_DIGEST = "c302440b392a89d60f9e9b597e908a3625b30db263800a5d2cac107a69767176"

# Primal-dual with noise on both variables, dithered b-bit compression and
# a reference point: every random stream and both reference-point phases.
BENCH_EDGES = [[0, 1], [0, 3], [0, 5], [1, 2], [1, 4], [2, 3], [3, 4], [4, 5]]

PPDC_BBIT_DOC = {
    "algorithm": "ppdc",
    "graph": {"n": 6, "edges": BENCH_EDGES},
    "objective": {"kind": "logistic", "d": 5, "m": 100, "lambda": 0.001, "alpha": 1.0},
    "compressor": {"kind": "bbit", "b": 4},
    "noise": {"x": {"s": 0.1, "q": 0.5}, "v": {"s": 0.1, "q": 0.5}},
    "gains": {"eta": 0.015, "gamma": 45.0, "alpha_x": 0.2, "omega": 5.0},
    "iterations": 40,
    "seed": 7,
    "reference": {"horizon_multiplier": 10},
    "outputs": "ppdc_bbit",
}
PPDC_BBIT_DIGEST = "9ac464f533b1a88eedca671087ddfe64fe14067becf5e71de1be292d55412376"



def _grid_edges(rows: int, cols: int) -> list[list[int]]:
    edges = []
    for i in range(rows * cols):
        if (i + 1) % cols:
            edges.append([i, i + 1])
        if i + cols < rows * cols:
            edges.append([i, i + cols])
    return edges


def _doc(algorithm, objective, compressor, seed, outputs, **overrides):
    second = "y" if algorithm == "pgtc" else "v"
    gains = (
        {"eta": 0.1, "gamma": 0.2, "alpha_x": 0.5, "alpha_y": 0.5}
        if algorithm == "pgtc"
        else {"eta": 0.015, "gamma": 45.0, "alpha_x": 0.2, "omega": 5.0}
    )
    doc = {
        "algorithm": algorithm,
        "graph": {"n": 6, "edges": BENCH_EDGES},
        "objective": objective,
        "compressor": compressor,
        "noise": {"x": {"s": 0.1, "q": 0.5}, second: {"s": 0.1, "q": 0.5}},
        "gains": gains,
        "iterations": 40,
        "seed": seed,
        "reference": {"horizon_multiplier": 10},
        "outputs": outputs,
    }
    doc.update(overrides)
    return doc


LOGISTIC_D5 = {"kind": "logistic", "d": 5, "m": 50, "lambda": 0.001, "alpha": 1.0}

# Inline configs and their trace.csv digests, recorded before the engines
# evaluated all agents as (n, d) arrays. Each one pins a different path:
# pgtc + bbit reads one compression stream per agent for both the x- and
# the y-encode; ppdc + normsign runs the sincos objective; pgtc + identity
# passes the noisy broadcasts through untouched; the 24-agent grid runs
# 32-dimensional logistic gradients and top-k on a non-ring graph.
INLINE_GOLDEN = {
    "pgtc_bbit_noise": (
        _doc("pgtc", LOGISTIC_D5, {"kind": "bbit", "b": 3}, 11, "pgtc_bbit_noise"),
        "149f6e88c504b9e55873767529eb511f186f6bffb7732a0e21dea4dd5845bdc9",
    ),
    "ppdc_normsign_sincos": (
        _doc("ppdc", {"kind": "sincos", "d": 4}, {"kind": "normsign"}, 12,
             "ppdc_normsign_sincos"),
        "8f1bddb07877f7735dfc19b1e834b43f02896e30e97dcb3c1f923b8113d95912",
    ),
    "pgtc_identity_noise": (
        _doc("pgtc", {"kind": "quadratic", "d": 7}, {"kind": "identity"}, 13,
             "pgtc_identity_noise"),
        "6bcea9f5466cd8a2990daffd846a2302bdf4a124acdd337c65f352394680bdbd",
    ),
    "ppdc_grid_24x32": (
        _doc(
            "ppdc",
            {"kind": "logistic", "d": 32, "m": 20, "lambda": 0.001, "alpha": 1.0},
            {"kind": "topk", "k": 8},
            14,
            "ppdc_grid_24x32",
            graph={"n": 24, "edges": _grid_edges(4, 6) + [[0, 23], [5, 18]]},
            noise={"x": {"s": 0.1, "q": 0.9}, "v": {"s": 0.1, "q": 0.9}},
            gains={"eta": 0.1, "gamma": 5.0, "alpha_x": 0.3, "omega": 1.0},
            iterations=30,
        ),
        "f2bb23314cf71820a490dc560501d650d8f0665ccabf01c33ada09d84f5bbef4",
    ),
}


def _trace_digest(config_path, out_dir) -> str:
    assert main(["run", str(config_path)]) == EXIT_OK
    return hashlib.sha256((out_dir / "trace.csv").read_bytes()).hexdigest()


def test_paper_config_trace_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = CONFIGS / "pgtc_topk_logistic.json"
    outputs = json.loads(config.read_text(encoding="utf-8"))["outputs"]
    assert _trace_digest(config, tmp_path / outputs) == PAPER_DIGEST


def test_q_sweep_summary_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = CONFIGS / "pgtc_q_sweep.json"
    outputs = json.loads(config.read_text(encoding="utf-8"))["outputs"]
    assert main(["sweep", str(config)]) == EXIT_OK
    summary = (tmp_path / outputs / "sweep_summary.csv").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == SWEEP_DIGEST


def test_ppdc_bbit_reference_trace_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PPDC_BBIT_DOC), encoding="utf-8")
    assert _trace_digest(config, tmp_path / "ppdc_bbit") == PPDC_BBIT_DIGEST


@pytest.mark.parametrize("name", sorted(INLINE_GOLDEN))
def test_inline_config_trace_digest(name, tmp_path, monkeypatch):
    doc, digest = INLINE_GOLDEN[name]
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert _trace_digest(config, tmp_path / doc["outputs"]) == digest
