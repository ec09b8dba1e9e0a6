"""Gradient-tracking engine: init contract, update equations, invariants."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpcopt.rng
from common import (
    build_problem,
    connected_graphs,
    csv_columns,
    drawn_run,
    family_params,
    noisy_runs,
    pgtc_step_two_calls,
    state_rows,
)
from dpcopt.compressors import bit_cost, encode_decode, make_spec
from dpcopt.errors import ConfigInvalid, NonFiniteState
from dpcopt.metrics import fmt17
from dpcopt.noise import NoiseSchedule, sample_laplace, scale_at
from dpcopt.objectives import QuadraticObjective, make_objectives
from dpcopt.pgtc import (
    MESSAGES_PER_AGENT,
    PgtcConfig,
    pgtc_init,
    pgtc_run,
    pgtc_step,
    tracking_residual,
)
from dpcopt.rng import StreamFactory, Tag
from dpcopt.topology import build_graph, build_network

IDENTITY = make_spec("identity", 10)
QUIET = NoiseSchedule(s=0.0, q=0.5)
TABLE_NOISE = NoiseSchedule(s=0.1, q=0.2)


def _config(**overrides) -> PgtcConfig:
    base = dict(
        eta=0.1,
        gamma=0.2,
        alpha_x=0.5,
        alpha_y=0.5,
        compressor=IDENTITY,
        noise_x=QUIET,
        noise_y=QUIET,
        iterations=10,
    )
    base.update(overrides)
    return PgtcConfig(**base)


@pytest.mark.parametrize(
    "overrides",
    [
        {"eta": 0.0},
        {"eta": -0.1},
        {"gamma": 0.0},
        {"gamma": 1.1},
        {"alpha_x": 0.0},
        {"alpha_x": 1.5},
        {"alpha_y": 1.0 + 1e-9},
        {"iterations": 0},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ConfigInvalid):
        _config(**overrides)


def test_alpha_bound_scales_with_r():
    # r = 0.5 widens the admissible interval to (0, 2)
    spec = make_spec("topk", 10, k=2, r=0.5)
    cfg = _config(compressor=spec, alpha_x=1.9, alpha_y=1.9)
    assert cfg.alpha_x == 1.9
    with pytest.raises(ConfigInvalid):
        _config(compressor=spec, alpha_x=2.0)


def test_init_state():
    net, streams, objectives, x0 = build_problem("quadratic", seed=1)
    state = pgtc_init(_config(), objectives, net, x0, streams)
    grads = np.stack([x0[i] - objectives.anchors[i] for i in range(6)])
    # z = (x, y, grad): y and the kept gradients both start at grad f(x_0).
    assert np.array_equal(state.z[1], grads)
    assert np.array_equal(state.z[2], grads)
    assert np.array_equal(state.xc, np.zeros((6, 10)))
    assert np.array_equal(state.zc[1], np.zeros((6, 10)))
    assert state.k == 0
    assert np.array_equal(state.noise_cumsum, np.zeros(10))


def test_init_quadratic_at_zero_gives_negated_anchors():
    net, streams, objectives, _ = build_problem("quadratic", seed=2)
    x0 = np.zeros((6, 10))
    state = pgtc_init(_config(), objectives, net, x0, streams)
    assert np.allclose(state.z[1], -objectives.anchors, atol=1e-15)


def test_frozen_dynamics_step():
    # eta = gamma = 0 freezes x and y; config validation forbids those
    # gains in real runs, so the step is exercised with a bare stand-in
    # that holds a valid config's fields and round plan.
    net, streams, objectives, x0 = build_problem("quadratic", seed=4)
    cfg = SimpleNamespace(**{**vars(_config()), "eta": 0.0, "gamma": 0.0})
    state = pgtc_init(_config(), objectives, net, x0, streams)
    stepped = pgtc_step(state, cfg, objectives, net, streams)
    assert np.array_equal(stepped.x, state.x)
    assert np.array_equal(stepped.z[1], state.z[1])
    assert stepped.k == 1


def test_single_step_matches_hand_rolled_update():
    # Reconstruct one noisy, compressed round from the documented
    # equations and the same streams; must agree bit for bit.
    spec = make_spec("bbit", 10, b=2)
    cfg = _config(compressor=spec, noise_x=TABLE_NOISE, noise_y=TABLE_NOISE)
    net, streams, objectives, x0 = build_problem("quadratic", seed=5)
    state = pgtc_init(cfg, objectives, net, x0, streams)
    stepped = pgtc_step(state, cfg, objectives, net, streams)

    n, d, k = 6, 10, 0
    w = net.mixing
    theta = scale_at(TABLE_NOISE, k)
    xi_x = np.concatenate(
        [sample_laplace(theta, d, [streams.get(i, Tag.NOISE_X, k)]) for i in range(n)]
    )
    xi_y = np.concatenate(
        [sample_laplace(theta, d, [streams.get(i, Tag.NOISE_Y, k)]) for i in range(n)]
    )
    _, y, grad = state.z
    xa = state.x + xi_x
    ya = y + xi_y
    xhat = np.empty((n, d))
    yhat = np.empty((n, d))
    for j in range(n):
        rng = [streams.get(j, Tag.COMPRESS, k)]
        xhat[j] = encode_decode(spec, xa[j:j + 1], state.xc[j:j + 1], rng)[0]
        yhat[j] = encode_decode(spec, ya[j:j + 1], state.zc[1, j:j + 1], rng)[0]
    x_next = xa + cfg.gamma * (w @ xhat - xhat) - cfg.eta * y
    grad_next = np.stack([x_next[i] - objectives.anchors[i] for i in range(n)])
    y_next = ya + cfg.gamma * (w @ yhat - yhat) + grad_next - grad

    assert np.array_equal(stepped.x, x_next)
    assert np.array_equal(stepped.z[1], y_next)
    assert np.array_equal(stepped.xc, 0.5 * state.xc + 0.5 * xhat)
    assert np.array_equal(stepped.zc[1], 0.5 * state.zc[1] + 0.5 * yhat)
    assert np.array_equal(stepped.z[2], grad_next)
    assert np.array_equal(stepped.noise_cumsum, xi_y.mean(axis=0))


def test_bbit_step_with_zero_difference_rows_equals_the_two_variable_round():
    # Sender 1's x^a - x^c row and sender 3's y^a - y^c row are exactly
    # zero, so neither draws from its compression stream. The step's one
    # encode, with each sender's stream listed once per sent row, must then
    # line up with an x-encode followed by a y-encode on the same streams.
    spec = make_spec("bbit", 10, b=3)
    noisy = _config(compressor=spec, noise_x=TABLE_NOISE, noise_y=TABLE_NOISE)
    net, streams, objectives, x0 = build_problem("logistic", seed=6, m=20, lam=1e-3, alpha=1.0)
    state = pgtc_init(noisy, objectives, net, x0, streams)
    for _ in range(2):
        state = pgtc_step(state, noisy, objectives, net, streams)
    zc = state.zc.copy()
    zc[0, 1] = state.z[0, 1]
    zc[1, 3] = state.z[1, 3]
    state = dataclasses.replace(state, zc=zc)
    # Noise-free, so the noisy broadcast z^a is z itself.
    cfg = dataclasses.replace(noisy, noise_x=QUIET, noise_y=QUIET)

    want = pgtc_step_two_calls(state, cfg, objectives, net, streams)
    got = pgtc_step(state, cfg, objectives, net, streams)

    assert got.k == want.k
    got_rows = state_rows(got)
    assert got_rows.keys() == state_rows(want).keys()
    for name, value in state_rows(want).items():
        assert got_rows[name].tobytes() == value.tobytes(), name
    # A zero difference decodes to the reference itself.
    assert got.xc[1].tobytes() == zc[0, 1].tobytes()
    assert got.zc[1, 3].tobytes() == zc[1, 3].tobytes()


def test_round_streams_build_one_generator_per_agent_and_tag(monkeypatch):
    # 50 noisy bbit rounds read three streams per agent per round. Building
    # one generator per (agent, tag) and reusing it keeps the Philox
    # constructions at n per tag plus the data and init streams, where one
    # per round would make 150 n.
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(dpcopt.rng.np.random, "Philox", counting_philox)
    net, streams, objectives, x0 = build_problem(
        "logistic", seed=8, d=5, m=20, lam=1e-3, alpha=1.0
    )
    data_and_init = len(built)
    assert data_and_init == 2 * net.n
    cfg = _config(
        compressor=make_spec("bbit", 5, b=3),
        noise_x=TABLE_NOISE,
        noise_y=TABLE_NOISE,
        iterations=50,
    )
    trace = pgtc_run(cfg, objectives, net, x0, streams)
    assert len(trace) == 51
    assert len(built) <= data_and_init + 3 * net.n


def test_tracking_identity_under_noise():
    cfg = _config(
        noise_x=TABLE_NOISE, noise_y=TABLE_NOISE, iterations=500
    )
    net, streams, objectives, x0 = build_problem("quadratic", seed=6)
    trace = pgtc_run(cfg, objectives, net, x0, streams)
    assert trace.residual.max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(noisy_runs())
def test_tracking_identity_holds_on_noisy_runs_of_every_compressor(case):
    spec, net, streams, objectives, x0 = drawn_run(case)
    iterations = case[6]
    noise = NoiseSchedule(s=0.5, q=0.9)
    cfg = _config(
        eta=0.05, compressor=spec, noise_x=noise, noise_y=noise, iterations=iterations
    )
    trace = pgtc_run(cfg, objectives, net, x0, streams)
    assert len(trace) == iterations + 1
    assert trace.residual.max() <= 1e-9


def test_tracking_identity_single_step():
    cfg = _config(noise_x=TABLE_NOISE, noise_y=TABLE_NOISE)
    net, streams, objectives, x0 = build_problem("quadratic", seed=7)
    state = pgtc_step(
        pgtc_init(cfg, objectives, net, x0, streams), cfg, objectives, net, streams
    )
    assert tracking_residual(state) <= 1e-9


def test_noise_free_convergence_to_quadratic_optimum():
    cfg = _config(iterations=2000)
    net, streams, objectives, x0 = build_problem("quadratic", seed=8)
    trace = pgtc_run(cfg, objectives, net, x0, streams)
    optimum = objectives.anchors.mean(axis=0)
    final = trace.final_stacked.reshape(6, 10)
    assert np.max(np.abs(final - optimum)) <= 1e-8
    assert trace.consensus_err[-1] <= 1e-12
    assert trace.grad_norm_mean[-1] <= 1e-8


def test_run_trace_shape_and_bits(tmp_path):
    cfg = _config(
        compressor=make_spec("topk", 10, k=2), noise_y=TABLE_NOISE, iterations=7
    )
    net, streams, objectives, x0 = build_problem("quadratic", seed=9)
    trace = pgtc_run(cfg, objectives, net, x0, streams)
    columns = csv_columns(trace, tmp_path / "trace.csv")
    assert columns["k"] == [str(k) for k in range(8)]
    per_round = MESSAGES_PER_AGENT * 6 * bit_cost(cfg.compressor, 10)
    assert per_round == 2 * 6 * 136
    assert columns["cum_bits"] == [str(k * per_round) for k in range(8)]
    assert columns["theta_x"] == ["0"] * 8  # disabled schedule reports zero scale
    assert columns["theta_second"] == [fmt17(scale_at(TABLE_NOISE, k)) for k in range(8)]


def test_single_round_trace_length():
    cfg = _config(iterations=1)
    net, streams, objectives, x0 = build_problem("quadratic", seed=10)
    trace = pgtc_run(cfg, objectives, net, x0, streams)
    assert len(trace) == 2


def test_run_deterministic():
    cfg = _config(
        compressor=make_spec("bbit", 10, b=2),
        noise_x=TABLE_NOISE,
        noise_y=TABLE_NOISE,
        iterations=50,
    )
    traces = []
    for _ in range(2):
        net, streams, objectives, x0 = build_problem("quadratic", seed=11)
        traces.append(pgtc_run(cfg, objectives, net, x0, streams))
    a, b = traces
    assert np.array_equal(a.final_stacked, b.final_stacked)
    for column in ("consensus_err", "grad_norm_mean", "residual"):
        assert getattr(a, column).tobytes() == getattr(b, column).tobytes()


def test_divergence_raises_non_finite():
    cfg = _config(eta=1e8, iterations=400)
    net, streams, objectives, x0 = build_problem("quadratic", seed=12)
    with pytest.raises(NonFiniteState) as err:
        pgtc_run(cfg, objectives, net, x0, streams)
    assert err.value.round_index >= 0
    assert "round" in str(err.value)


def test_record_iterates_toggle():
    cfg = _config(iterations=5)
    net, streams, objectives, x0 = build_problem("quadratic", seed=13)
    bare = pgtc_run(cfg, objectives, net, x0, streams)
    assert bare.stacked_iterates is None
    net, streams, objectives, x0 = build_problem("quadratic", seed=13)
    full = pgtc_run(cfg, objectives, net, x0, streams, record_iterates=True)
    assert len(full.stacked_iterates) == 6
    assert full.stacked_iterates[0].shape == (60,)
    assert np.array_equal(full.stacked_iterates[-1], full.final_stacked)


def test_grad_eval_count_one_per_agent_per_round():
    # The engine evaluates all agents in one stacked call; count the
    # gradient rows those calls evaluate.
    rows = {"n": 0}

    class CountingObjectives(QuadraticObjective):
        def grad(self, x):
            rows["n"] += len(x)
            return super().grad(x)

    net, streams, _, x0 = build_problem("quadratic", seed=14)
    objectives = CountingObjectives(np.zeros((6, 10)))
    cfg = _config(iterations=10)
    pgtc_run(cfg, objectives, net, x0, streams)
    # one evaluation per agent at init plus one per agent per round
    assert rows["n"] == 6 * (1 + 10)


NOISE = {
    "off": NoiseSchedule(s=0.5, q=0.5, enabled=False),
    "on": NoiseSchedule(s=0.5, q=0.5),
    # s * q^k is 1e-200 at k = 1 and underflows to 0 from k = 2 on.
    "underflows": NoiseSchedule(s=1.0, q=1e-200),
}


@st.composite
def _stacked_rounds(draw):
    g = draw(connected_graphs(max_n=7))
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["identity", "topk", "bbit", "normsign"]))
    param = {"topk": st.integers(1, d), "bbit": st.integers(1, 6)}.get(kind, st.none())
    return (
        g.n, sorted(g.edges), d, kind, draw(param),
        draw(st.sampled_from(["logistic", "sincos", "quadratic"])),
        draw(st.sampled_from(sorted(NOISE))), draw(st.sampled_from(sorted(NOISE))),
        draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(_stacked_rounds())
@example((4, [(0, 1), (1, 2), (1, 3), (2, 3)], 5, "bbit", 2, "logistic",
          "underflows", "on", 2, 7))
@example((3, [(0, 1), (0, 2)], 3, "topk", 1, "quadratic",
          "on", "underflows", 3, 8))
def test_stacked_step_equals_the_two_variable_round_bytewise(case):
    n, edges, d, kind, param, objective, noise_x, noise_y, warm, seed = case
    params = {"topk": {"k": param}, "bbit": {"b": param}}.get(kind, {})
    # Distinct gains, so a swapped (alpha_x, alpha_y) column shows.
    cfg = _config(
        compressor=make_spec(kind, d, **params), alpha_x=0.3, alpha_y=0.7,
        noise_x=NOISE[noise_x], noise_y=NOISE[noise_y],
    )
    net = build_network(build_graph(n, edges))
    streams = StreamFactory(master_seed=seed)
    objectives = make_objectives(objective, n, d, streams, **family_params(objective))
    x0 = np.stack([streams.get(i, Tag.INIT, 0).random(d) for i in range(n)])
    state = pgtc_init(cfg, objectives, net, x0, streams)
    for _ in range(warm):
        state = pgtc_step(state, cfg, objectives, net, streams)
    # z = (x, y, grad) holds the gradients the old state kept apart.
    names = ("z", "zc", "noise_cumsum")
    before = [getattr(state, name).tobytes() for name in names]

    want = pgtc_step_two_calls(state, cfg, objectives, net, streams)
    got = pgtc_step(state, cfg, objectives, net, streams)

    assert got.k == want.k
    got_rows = state_rows(got)
    assert got_rows.keys() == state_rows(want).keys()
    for name, value in state_rows(want).items():
        assert got_rows[name].tobytes() == value.tobytes(), name
    # The step is pure: the incoming state keeps its bytes.
    assert [getattr(state, name).tobytes() for name in names] == before
