"""The benchmark's coupling to the package: every function the tracer
wraps must exist at the name it looks up, and the set-up probe must run.

Both read bench/ without changing it. A renamed function then fails here
instead of crashing a traced benchmark run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_setup_probe_runs_on_the_paper_config():
    done = _run(["bench/setup_probe.py", "configs/pgtc_topk_logistic.json"])
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["runs"] == 1
    assert report["tx_bits"] == 1_632_000
