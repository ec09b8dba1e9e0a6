"""Rounds whose noise scale is 0 skip that variable's noise work.

A scale is 0 when its schedule is disabled or when s*q^k has underflowed.
Such a round draws nothing for that variable and must still equal the
round that adds explicit zero noise, without writing to the incoming state.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import dpcopt.pgtc
import dpcopt.ppdc
from common import build_problem
from dpcopt.compressors import encode_decode, make_spec
from dpcopt.noise import NoiseSchedule, sample_laplace, scale_at
from dpcopt.pgtc import PgtcConfig, pgtc_init, pgtc_run, pgtc_step, tracking_residual
from dpcopt.ppdc import PpdcConfig, dual_average_residual, ppdc_init, ppdc_run, ppdc_step
from dpcopt.rng import StreamFactory, Tag

D = 10
BBIT = make_spec("bbit", D, b=3)
NOISY = NoiseSchedule(s=0.1, q=0.2)
OFF = NoiseSchedule(s=0.1, q=0.2, enabled=False)
# s * q^k is 1e-200 at k = 1 and underflows to 0 from k = 2 on.
UNDERFLOWS = NoiseSchedule(s=1.0, q=1e-200)

# name -> (x-noise, second noise)
CASES = {
    "both disabled": (OFF, OFF),
    "x on, second disabled": (NOISY, OFF),
    "x on, second underflowed": (NOISY, UNDERFLOWS),
}
# The tested step starts from this round, after noisy rounds.
START = 2


def _pgtc_config(noise_x, second):
    return PgtcConfig(
        eta=0.1, gamma=0.2, alpha_x=0.5, alpha_y=0.5, compressor=BBIT,
        noise_x=noise_x, noise_y=second, iterations=30,
    )


def _ppdc_config(noise_x, second):
    return PpdcConfig(
        eta=0.015, gamma=45.0, omega=5.0, alpha_x=0.2, compressor=BBIT,
        noise_x=noise_x, noise_v=second, iterations=30,
    )


def _explicit_noise(sched, tag, k, n, streams):
    """The round's noise as the engines drew it before: zeros at scale 0."""
    theta = scale_at(sched, k)
    if theta == 0.0:
        return np.zeros((n, D))
    return np.concatenate([sample_laplace(theta, D, [streams.get(i, tag, k)]) for i in range(n)])


def _decode(pairs, k, streams):
    """Decoded estimates of each (target, reference) pair, sender by
    sender: each sender's stream serves its encodes in pair order."""
    out = [np.empty((len(pairs[0][0]), D)) for _ in pairs]
    for j in range(len(pairs[0][0])):
        rng = streams.get(j, Tag.COMPRESS, k)
        for decoded, (target, reference) in zip(out, pairs):
            decoded[j] = encode_decode(BBIT, target[j:j + 1], reference[j:j + 1], [rng])[0]
    return out


def _pgtc_round_with_zero_noise(state, cfg, objectives, net, streams):
    n, k, w = len(state.x), state.k, net.mixing
    xa = state.x + _explicit_noise(cfg.noise_x, Tag.NOISE_X, k, n, streams)
    xi_y = _explicit_noise(cfg.noise_y, Tag.NOISE_Y, k, n, streams)
    ya = state.y + xi_y
    xhat, yhat = _decode([(xa, state.xc), (ya, state.yc)], k, streams)
    x_next = xa + cfg.gamma * (w @ xhat - xhat) - cfg.eta * state.y
    grad_next = objectives.grad(x_next)
    return {
        "x": x_next,
        "y": ya + cfg.gamma * (w @ yhat - yhat) + grad_next - state.grad_prev,
        "xc": (1.0 - cfg.alpha_x) * state.xc + cfg.alpha_x * xhat,
        "yc": (1.0 - cfg.alpha_y) * state.yc + cfg.alpha_y * yhat,
        "grad_prev": grad_next,
        "noise_y_cumsum": state.noise_y_cumsum + xi_y.mean(axis=0),
    }


def _ppdc_round_with_zero_noise(state, cfg, objectives, net, streams):
    n, k, lap = len(state.x), state.k, net.laplacian
    xa = state.x + _explicit_noise(cfg.noise_x, Tag.NOISE_X, k, n, streams)
    xi_v = _explicit_noise(cfg.noise_v, Tag.NOISE_V, k, n, streams)
    (xhat,) = _decode([(xa, state.xc)], k, streams)
    mixed = lap @ xhat
    grads = objectives.grad(state.x)
    return {
        "x": xa - cfg.eta * (cfg.gamma * mixed + cfg.omega * state.v + grads),
        "v": state.v + xi_v + cfg.eta * cfg.omega * mixed,
        "xc": (1.0 - cfg.alpha_x) * state.xc + cfg.alpha_x * xhat,
        "noise_v_cumsum": state.noise_v_cumsum + xi_v.mean(axis=0),
    }


ENGINES = {
    "pgtc": (
        dpcopt.pgtc, _pgtc_config, pgtc_init, pgtc_step, pgtc_run,
        tracking_residual, _pgtc_round_with_zero_noise, Tag.NOISE_Y,
    ),
    "ppdc": (
        dpcopt.ppdc, _ppdc_config, ppdc_init, ppdc_step, ppdc_run,
        dual_average_residual, _ppdc_round_with_zero_noise, Tag.NOISE_V,
    ),
}


def _array_bytes(state) -> dict[str, bytes]:
    return {
        f.name: getattr(state, f.name).tobytes()
        for f in dataclasses.fields(state)
        if isinstance(getattr(state, f.name), np.ndarray)
    }


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_noise_free_variable_draws_nothing_and_matches_zero_noise(engine, case, monkeypatch):
    module, config, init, step, _, residual, parent_round, second_tag = ENGINES[engine]
    noise_x, second = CASES[case]
    net, streams, objectives, x0 = build_problem(
        "logistic", seed=40, d=D, m=20, lam=1e-3, alpha=1.0
    )
    # Noisy rounds first, so the incoming noise sums are not zero.
    warm = config(NOISY, NOISY)
    state = init(warm, objectives, net, x0, streams)
    while state.k < START:
        state = step(state, warm, objectives, net, streams)
    before = _array_bytes(state)
    cfg = config(noise_x, second)

    tags, thetas = [], []
    rows = StreamFactory.rows

    def recording_rows(self, tag, round_index, n):
        tags.append(tag)
        return rows(self, tag, round_index, n)

    def recording_laplace(theta, d, rngs, **buffers):
        thetas.append(theta)
        return sample_laplace(theta, d, rngs, **buffers)

    with monkeypatch.context() as patch:
        patch.setattr(StreamFactory, "rows", recording_rows)
        patch.setattr(module, "sample_laplace", recording_laplace)
        stepped = step(state, cfg, objectives, net, streams)

    x_noisy = scale_at(noise_x, state.k) > 0.0
    assert scale_at(second, state.k) == 0.0
    assert second_tag not in tags and Tag.COMPRESS in tags
    assert (Tag.NOISE_X in tags) == x_noisy
    assert thetas == ([scale_at(noise_x, state.k)] if x_noisy else [])
    assert _array_bytes(state) == before

    # Skipping a + 0.0 keeps a -0.0 that the explicit round turns into
    # +0.0. array_equal counts them equal, and no written value depends on
    # the sign of a zero: the trace holds sums of squares, norms and
    # maxima of absolute values.
    want = parent_round(state, cfg, objectives, net, streams)
    for name, value in want.items():
        assert np.array_equal(getattr(stepped, name), value), name
    assert stepped.k == state.k + 1
    assert residual(stepped) <= 1e-9


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_identity_holds_through_noise_free_rounds(engine, case):
    _, config, _, _, run, _, _, _ = ENGINES[engine]
    noise_x, second = CASES[case]
    net, streams, objectives, x0 = build_problem(
        "logistic", seed=41, d=D, m=20, lam=1e-3, alpha=1.0
    )
    trace = run(config(noise_x, second), objectives, net, x0, streams)
    assert len(trace) == 31
    assert trace.residual.max() <= 1e-9
