"""Golden trace digests: the exact bytes of trace.csv for fixed configs.

A change that alters any of these digests changes what every replay of
these configs writes. Such a change must declare the drift in CHANGES.md
(which configs, which columns, how large) and update the digest here.
"""

import hashlib
import json
from pathlib import Path

from dpcopt.runner import EXIT_OK, OUTPUT_ROOT_ENV, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The paper run: 6-agent logistic, top-k, K = 1000, reference at 10 K.
PAPER_DIGEST = "de24c7e2fff5d0df67ef475a593717714f439634b89ee724ad5e9aec4d395379"

# Primal-dual with noise on both variables, dithered b-bit compression and
# a reference point: every random stream and both reference-point phases.
PPDC_BBIT_DOC = {
    "algorithm": "ppdc",
    "graph": {
        "n": 6,
        "edges": [[0, 1], [0, 3], [0, 5], [1, 2], [1, 4], [2, 3], [3, 4], [4, 5]],
    },
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


def _trace_digest(config_path, out_dir) -> str:
    assert main(["run", str(config_path)]) == EXIT_OK
    return hashlib.sha256((out_dir / "trace.csv").read_bytes()).hexdigest()


def test_paper_config_trace_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = CONFIGS / "pgtc_topk_logistic.json"
    outputs = json.loads(config.read_text(encoding="utf-8"))["outputs"]
    assert _trace_digest(config, tmp_path / outputs) == PAPER_DIGEST


def test_ppdc_bbit_reference_trace_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PPDC_BBIT_DOC), encoding="utf-8")
    assert _trace_digest(config, tmp_path / "ppdc_bbit") == PPDC_BBIT_DIGEST
