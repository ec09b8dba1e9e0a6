"""The benchmark's coupling to the package: every function the tracer
wraps must exist at the name it looks up, the shipped commands must call
the sites the per-layer metrics read, and the set-up probe must run.

All read bench/ without changing it. A renamed function then fails here
instead of crashing a traced benchmark run, and a site that is no longer
called fails here instead of reading 0.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dpcopt

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(dpcopt.__file__).resolve().parent.parent)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = [site for sites in _load_tracer().SITES.values() for site in sites]


def _run(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, check=False
    )


@pytest.mark.parametrize("site", SITES)
def test_tracer_site_resolves(site):
    # The lookup Recorder.install makes before it wraps the function.
    module_name, attr_path = site.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr))


def test_tracer_installs_on_every_site():
    # The tracer's own walk, in a fresh interpreter so the wrappers it
    # installs stay out of this one.
    done = _run(["-c", "import runpy; runpy.run_path('bench/tracer.py')['Recorder']().install()"])
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "config,runs,tx_bits",
    [
        ("pgtc_topk_logistic", 1, 1_632_000),
        ("ppdc_topk_logistic", 1, 816_000),
        ("pgtc_q_sweep", 30, 9_792_000),
    ],
    ids=["pgtc_topk_logistic", "ppdc_topk_logistic", "pgtc_q_sweep"],
)
def test_setup_probe_runs_on_the_paper_config(config, runs, tx_bits):
    # The probe reads RunConfig attributes and applies every sweep value.
    done = _run(["bench/setup_probe.py", f"configs/{config}.json"])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["runs"] == runs
    assert report["tx_bits"] == tx_bits


# Spans each traced command must record at least once; {a} is the engine.
LIVE_IN_RUN = [
    "{a}.{a}_run",
    "{a}.{a}_init",
    "{a}.{a}_step",
    "{a}._emit_row",
    "objectives.mean_value_grad",
    "objectives.value_grad",
    "objectives.grad",
    "noise.sample_laplace",
    "compressors.encode_decode",
    "runner._build_problem",
]
LIVE_IN_PRIVACY = [
    "runner._build_problem",
    "objectives.estimate_grad_bound",
    "accountant.budget_for_run",
]


def _noisy_doc(algorithm, outputs):
    second, gains = (
        ("y", {"eta": 0.1, "gamma": 0.2, "alpha_x": 0.5, "alpha_y": 0.5})
        if algorithm == "pgtc"
        else ("v", {"eta": 0.015, "gamma": 45.0, "alpha_x": 0.2, "omega": 5.0})
    )
    return {
        "algorithm": algorithm,
        "graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
        "objective": {"kind": "logistic", "d": 4, "m": 5, "lambda": 1e-3, "alpha": 1.0},
        "compressor": {"kind": "topk", "k": 2},
        "noise": {"x": {"s": 0.1, "q": 0.5}, second: {"s": 0.1, "q": 0.5}},
        "gains": gains,
        "iterations": 5,
        "seed": 3,
        "privacy": {"trials": 50},
        "outputs": str(outputs),
    }


@pytest.mark.parametrize(
    "algorithm,command", [("pgtc", "run"), ("ppdc", "run"), ("pgtc", "privacy")]
)
def test_tracer_sites_are_called(tmp_path, algorithm, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_noisy_doc(algorithm, tmp_path / "out")), encoding="utf-8")
    spans = tmp_path / "spans.npz"
    done = _run(["bench/tracer.py", str(spans), command, str(config)])
    assert done.returncode == 0, done.stderr
    with np.load(spans) as recorded:
        counts = Counter(str(recorded["names"][i]) for i in recorded["name"])
    live = LIVE_IN_PRIVACY if command == "privacy" else LIVE_IN_RUN
    dead = [name for name in (n.format(a=algorithm) for n in live) if not counts[name]]
    assert not dead, f"{command} records no span of {dead}"
    # Only a run mixes, so only a run builds the network.
    assert counts["topology.build_network"] == (1 if command == "run" else 0)
