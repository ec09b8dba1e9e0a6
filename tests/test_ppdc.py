"""Primal-dual engine: init contract, update equations, invariants."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings

from common import build_problem, csv_columns, drawn_run, noisy_runs
from dpcopt.compressors import bit_cost, encode_decode, make_spec
from dpcopt.errors import ConfigInvalid, NonFiniteState
from dpcopt.metrics import fmt17
from dpcopt.noise import NoiseSchedule, sample_laplace, scale_at
from dpcopt.pgtc import MESSAGES_PER_AGENT as PGTC_MESSAGES
from dpcopt.ppdc import (
    MESSAGES_PER_AGENT,
    PpdcConfig,
    dual_average_residual,
    ppdc_init,
    ppdc_run,
    ppdc_step,
)
from dpcopt.rng import Tag

IDENTITY = make_spec("identity", 10)
QUIET = NoiseSchedule(s=0.0, q=0.5)
TABLE_NOISE = NoiseSchedule(s=0.1, q=0.2)


def _config(**overrides) -> PpdcConfig:
    base = dict(
        eta=0.015,
        gamma=45.0,
        omega=5.0,
        alpha_x=0.2,
        compressor=IDENTITY,
        noise_x=QUIET,
        noise_v=QUIET,
        iterations=10,
    )
    base.update(overrides)
    return PpdcConfig(**base)


@pytest.mark.parametrize(
    "overrides",
    [
        {"eta": 0.0},
        {"gamma": 0.0},
        {"gamma": -1.0},
        {"omega": 0.0},
        {"alpha_x": 0.0},
        {"alpha_x": 1.0},
        {"iterations": 0},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ConfigInvalid):
        _config(**overrides)


def test_init_state():
    net, streams, objectives, x0 = build_problem("quadratic", seed=20)
    state = ppdc_init(_config(), objectives, net, x0, streams)
    assert state.x.shape == (6, 10)
    assert np.array_equal(state.v, np.zeros((6, 10)))
    assert np.array_equal(state.xc, np.zeros((6, 10)))
    assert np.array_equal(state.v.sum(axis=0), np.zeros(10))
    assert state.k == 0


def test_frozen_dynamics_step():
    # eta = 0 freezes x and v; forbidden by config validation, so the
    # step function is probed with a bare stand-in config.
    net, streams, objectives, x0 = build_problem("quadratic", seed=22)
    cfg = SimpleNamespace(
        eta=0.0,
        gamma=45.0,
        omega=5.0,
        alpha_x=0.2,
        compressor=IDENTITY,
        noise_x=QUIET,
        noise_v=QUIET,
    )
    state = ppdc_init(_config(), objectives, net, x0, streams)
    stepped = ppdc_step(state, cfg, objectives, net, streams)
    assert np.array_equal(stepped.x, state.x)
    assert np.array_equal(stepped.v, state.v)
    assert stepped.k == 1


def test_single_step_matches_hand_rolled_update():
    spec = make_spec("bbit", 10, b=2)
    cfg = _config(compressor=spec, noise_x=TABLE_NOISE, noise_v=TABLE_NOISE)
    net, streams, objectives, x0 = build_problem("quadratic", seed=23)
    state = ppdc_init(cfg, objectives, net, x0, streams)
    stepped = ppdc_step(state, cfg, objectives, net, streams)

    n, d, k = 6, 10, 0
    lap = net.laplacian
    theta = scale_at(TABLE_NOISE, k)
    xi_x = np.concatenate(
        [sample_laplace(theta, d, [streams.get(i, Tag.NOISE_X, k)]) for i in range(n)]
    )
    xi_v = np.concatenate(
        [sample_laplace(theta, d, [streams.get(i, Tag.NOISE_V, k)]) for i in range(n)]
    )
    xa = state.x + xi_x
    xhat = np.empty((n, d))
    for j in range(n):
        rng = [streams.get(j, Tag.COMPRESS, k)]
        xhat[j] = encode_decode(spec, xa[j:j + 1], state.xc[j:j + 1], rng)[0]
    grads = np.stack([objectives[i].grad(state.x[i]) for i in range(n)])
    mixed = lap @ xhat
    x_next = xa - cfg.eta * (cfg.gamma * mixed + cfg.omega * state.v + grads)
    v_next = state.v + xi_v + cfg.eta * cfg.omega * mixed

    assert np.array_equal(stepped.x, x_next)
    assert np.array_equal(stepped.v, v_next)
    assert np.array_equal(stepped.xc, 0.8 * state.xc + 0.2 * xhat)
    assert np.array_equal(stepped.noise_v_cumsum, xi_v.mean(axis=0))


def test_bbit_step_with_a_zero_difference_row_matches_hand_rolled_update():
    # Sender 2's x^a - x^c row is exactly zero, so its encode draws nothing
    # and decodes to its reference; every other sender draws from its own
    # compression stream as a per-sender encode would.
    spec = make_spec("bbit", 10, b=2)
    cfg = _config(compressor=spec, noise_x=TABLE_NOISE, noise_v=TABLE_NOISE)
    net, streams, objectives, x0 = build_problem("quadratic", seed=26)
    state = ppdc_init(cfg, objectives, net, x0, streams)
    for _ in range(2):
        state = ppdc_step(state, cfg, objectives, net, streams)
    zc = state.zc.copy()
    zc[0, 2] = state.x[2]
    state = dataclasses.replace(state, zc=zc)
    # No x-noise, so x^a is x itself; v keeps its noise.
    cfg = dataclasses.replace(cfg, noise_x=QUIET)
    stepped = ppdc_step(state, cfg, objectives, net, streams)

    n, d, k = 6, 10, state.k
    xi_v = np.concatenate(
        [sample_laplace(scale_at(TABLE_NOISE, k), d, [streams.get(i, Tag.NOISE_V, k)])
         for i in range(n)]
    )
    xhat = np.empty((n, d))
    for j in range(n):
        rng = [streams.get(j, Tag.COMPRESS, k)]
        xhat[j] = encode_decode(spec, state.x[j:j + 1], state.xc[j:j + 1], rng)[0]
    grads = np.stack([objectives[i].grad(state.x[i]) for i in range(n)])
    mixed = net.laplacian @ xhat
    x_next = state.x - cfg.eta * (cfg.gamma * mixed + cfg.omega * state.v + grads)
    v_next = state.v + xi_v + cfg.eta * cfg.omega * mixed

    assert xhat[2].tobytes() == state.xc[2].tobytes()
    assert stepped.x.tobytes() == x_next.tobytes()
    assert stepped.v.tobytes() == v_next.tobytes()
    assert stepped.xc.tobytes() == (0.8 * state.xc + 0.2 * xhat).tobytes()
    assert np.array_equal(stepped.noise_v_cumsum, state.noise_v_cumsum + xi_v.mean(axis=0))


def test_noise_free_dual_sum_stays_zero():
    cfg = _config(compressor=make_spec("topk", 10, k=2), iterations=200)
    net, streams, objectives, x0 = build_problem("quadratic", seed=24)
    state = ppdc_init(cfg, objectives, net, x0, streams)
    for _ in range(cfg.iterations):
        state = ppdc_step(state, cfg, objectives, net, streams)
        assert np.max(np.abs(state.v.sum(axis=0))) <= 1e-12


def test_dual_average_identity_under_noise():
    cfg = _config(noise_x=TABLE_NOISE, noise_v=TABLE_NOISE, iterations=500)
    net, streams, objectives, x0 = build_problem("quadratic", seed=25)
    trace = ppdc_run(cfg, objectives, net, x0, streams)
    assert trace.residual.max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(noisy_runs())
@example((5, [(0, 1), (0, 2), (0, 3), (0, 4)], 4, "bbit", 1, "logistic", 40, 3))
@example((4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 3, "normsign", None,
          "sincos", 40, 5))
def test_dual_average_identity_holds_on_noisy_runs_of_every_compressor(case):
    spec, net, streams, objectives, x0 = drawn_run(case)
    iterations = case[6]
    noise = NoiseSchedule(s=0.5, q=0.9)
    cfg = _config(
        eta=0.05, gamma=1.0, omega=1.0, compressor=spec,
        noise_x=noise, noise_v=noise, iterations=iterations,
    )
    trace = ppdc_run(cfg, objectives, net, x0, streams)
    assert len(trace) == iterations + 1
    assert trace.residual.max() <= 1e-9


def test_noise_free_convergence_table_gains():
    cfg = _config(iterations=5000)
    net, streams, objectives, x0 = build_problem("quadratic", seed=26)
    trace = ppdc_run(cfg, objectives, net, x0, streams)
    assert trace.grad_norm_mean[-1] <= 1e-6


def test_noise_free_step_preserves_converged_consensus():
    cfg = _config(iterations=5000)
    net, streams, objectives, x0 = build_problem("quadratic", seed=27)
    state = ppdc_init(cfg, objectives, net, x0, streams)
    for _ in range(5000):
        state = ppdc_step(state, cfg, objectives, net, streams)
    xbar = state.x.mean(axis=0)
    before = float(((state.x - xbar) ** 2).sum())
    stepped = ppdc_step(state, cfg, objectives, net, streams)
    xbar2 = stepped.x.mean(axis=0)
    after = float(((stepped.x - xbar2) ** 2).sum())
    assert before <= 1e-12
    assert after <= 1e-12


def test_run_trace_shape_and_bits(tmp_path):
    spec = make_spec("topk", 10, k=2)
    cfg = _config(compressor=spec, noise_x=TABLE_NOISE, iterations=7)
    net, streams, objectives, x0 = build_problem("quadratic", seed=28)
    trace = ppdc_run(cfg, objectives, net, x0, streams)
    columns = csv_columns(trace, tmp_path / "trace.csv")
    assert columns["k"] == [str(k) for k in range(8)]
    per_round = MESSAGES_PER_AGENT * 6 * bit_cost(spec, 10)
    assert per_round == 6 * 136
    assert columns["cum_bits"] == [str(k * per_round) for k in range(8)]
    assert columns["theta_x"] == [fmt17(scale_at(TABLE_NOISE, k)) for k in range(8)]
    assert columns["theta_second"] == ["0"] * 8  # disabled schedule reports zero scale
    # half of the gradient-tracking meter at equal compressor/topology
    assert PGTC_MESSAGES == 2 * MESSAGES_PER_AGENT


def test_single_round_trace_length():
    cfg = _config(iterations=1)
    net, streams, objectives, x0 = build_problem("quadratic", seed=29)
    trace = ppdc_run(cfg, objectives, net, x0, streams)
    assert len(trace) == 2


def test_run_deterministic():
    cfg = _config(
        compressor=make_spec("bbit", 10, b=2),
        noise_x=TABLE_NOISE,
        noise_v=TABLE_NOISE,
        iterations=50,
    )
    traces = []
    for _ in range(2):
        net, streams, objectives, x0 = build_problem("quadratic", seed=30)
        traces.append(ppdc_run(cfg, objectives, net, x0, streams))
    a, b = traces
    assert np.array_equal(a.final_stacked, b.final_stacked)
    for column in ("consensus_err", "grad_norm_mean", "residual"):
        assert getattr(a, column).tobytes() == getattr(b, column).tobytes()


def test_divergence_raises_non_finite():
    cfg = _config(eta=1e8, iterations=400)
    net, streams, objectives, x0 = build_problem("quadratic", seed=31)
    with pytest.raises(NonFiniteState) as err:
        ppdc_run(cfg, objectives, net, x0, streams)
    assert err.value.round_index >= 0


def test_dual_average_residual_reports_gap():
    net, streams, objectives, x0 = build_problem("quadratic", seed=32)
    state = ppdc_init(_config(), objectives, net, x0, streams)
    assert dual_average_residual(state) == 0.0
