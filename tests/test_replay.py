"""Replay property: both engines, rerun from a fresh stream factory with
the same seed, reproduce every trace column and the iterate history
byte for byte."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from common import drawn_run, noisy_runs
from dpcopt.noise import NoiseSchedule
from dpcopt.pgtc import PgtcConfig, pgtc_run
from dpcopt.ppdc import PpdcConfig, ppdc_run

NOISE = NoiseSchedule(s=0.5, q=0.9)


def _pgtc(spec, iterations):
    cfg = PgtcConfig(
        eta=0.05, gamma=0.2, alpha_x=0.5, alpha_y=0.5, compressor=spec,
        noise_x=NOISE, noise_y=NOISE, iterations=iterations,
    )
    return cfg, pgtc_run


def _ppdc(spec, iterations):
    cfg = PpdcConfig(
        eta=0.05, gamma=1.0, omega=1.0, alpha_x=0.2, compressor=spec,
        noise_x=NOISE, noise_v=NOISE, iterations=iterations,
    )
    return cfg, ppdc_run


def _run_bytes(engine, case) -> dict:
    spec, net, streams, objectives, x0 = drawn_run(case)
    cfg, run = engine(spec, case[6])
    trace = run(cfg, objectives, net, x0, streams, record_iterates=True)
    return {
        "consensus_err": trace.consensus_err.tobytes(),
        "grad_norm_mean": trace.grad_norm_mean.tobytes(),
        "residual": trace.residual.tobytes(),
        "stacked_iterates": trace.stacked_iterates.tobytes(),
        "final_stacked": trace.final_stacked.tobytes(),
        "per_round_bits": trace.per_round_bits,
        "final_k": trace.final_k,
    }


@pytest.mark.parametrize("engine", [_pgtc, _ppdc], ids=["pgtc", "ppdc"])
@settings(max_examples=30, deadline=None)
@given(case=noisy_runs())
def test_same_seed_reruns_are_byte_identical(engine, case):
    assert _run_bytes(engine, case) == _run_bytes(engine, case)
