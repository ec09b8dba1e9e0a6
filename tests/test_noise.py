"""Decaying Laplace noise: schedule arithmetic and sampler distribution."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dpcopt.errors import ConfigInvalid
from dpcopt.noise import NoiseSchedule, sample_laplace, scale_at
from dpcopt.rng import StreamKey, Tag, stream


class _HalfDither:
    """Stub stream whose uniforms are exactly 0, putting u at -1/2 (the
    inverse-CDF singularity)."""

    def random(self, out):
        out[...] = 0.0
        return out


def test_schedule_validation():
    NoiseSchedule(s=0.0, q=0.5)  # zero scale is legal (disabled-like)
    with pytest.raises(ConfigInvalid):
        NoiseSchedule(s=-1.0, q=0.5)
    with pytest.raises(ConfigInvalid):
        NoiseSchedule(s=1.0, q=0.0)
    with pytest.raises(ConfigInvalid):
        NoiseSchedule(s=1.0, q=1.0)


def test_scale_at_table_values():
    sched = NoiseSchedule(s=100.0, q=0.1)
    assert scale_at(sched, 0) == 100.0
    assert scale_at(sched, 2) == pytest.approx(1.0)
    assert scale_at(sched, 3) == pytest.approx(0.1)


def test_scale_at_disabled_is_zero():
    sched = NoiseSchedule(s=100.0, q=0.1, enabled=False)
    assert all(scale_at(sched, k) == 0.0 for k in range(5))


def test_scale_strictly_decreasing():
    sched = NoiseSchedule(s=2.0, q=0.9)
    scales = [scale_at(sched, k) for k in range(50)]
    assert all(a > b for a, b in zip(scales, scales[1:]))


def test_sample_theta_zero_is_zero_vector():
    rng = np.random.default_rng(0)
    assert np.array_equal(sample_laplace(0.0, 3, [rng]), np.zeros((1, 3)))


def test_sample_moments():
    rng = stream(11, StreamKey(run_id=0, agent_id=0, tag=Tag.NOISE_X, round_index=0))
    theta = 2.0
    xs = sample_laplace(theta, 1_000_000, [rng])[0]
    assert abs(np.mean(np.abs(xs)) - theta) / theta < 0.01
    assert abs(np.mean(xs**2) - 2.0 * theta**2) / (2.0 * theta**2) < 0.02
    assert abs(np.mean(xs)) < 0.01  # symmetry


def test_sample_ks_distance():
    # one-sample Kolmogorov-Smirnov distance against the Laplace CDF
    rng = stream(13, StreamKey(run_id=0, agent_id=1, tag=Tag.NOISE_X, round_index=0))
    theta = 1.5
    n = 1_000_000
    xs = np.sort(sample_laplace(theta, n, [rng])[0])
    cdf = np.where(
        xs < 0.0, 0.5 * np.exp(xs / theta), 1.0 - 0.5 * np.exp(-xs / theta)
    )
    grid = np.arange(1, n + 1) / n
    dist = max(np.max(np.abs(grid - cdf)), np.max(np.abs(grid - 1.0 / n - cdf)))
    assert dist < 0.01


def test_sampler_determinism():
    key = StreamKey(run_id=0, agent_id=2, tag=Tag.NOISE_Y, round_index=7)
    a = sample_laplace(0.3, 100, [stream(21, key)])
    b = sample_laplace(0.3, 100, [stream(21, key)])
    assert np.array_equal(a, b)


def test_singular_uniform_stays_finite():
    # u = -1/2 hits log(0) in the raw inverse CDF; the clamp keeps the
    # sample finite (huge but representable)
    xs = sample_laplace(1.0, 4, [_HalfDither()])
    assert np.all(np.isfinite(xs))


def test_sampler_matches_inverse_cdf_form():
    # spot-check the transform against a directly computed value
    key = StreamKey(run_id=0, agent_id=0, tag=Tag.NOISE_V, round_index=3)
    raw = stream(31, key).random(10)
    u = raw - 0.5
    expected = -2.5 * np.sign(u) * np.log(1.0 - 2.0 * np.abs(u))
    got = sample_laplace(2.5, 10, [stream(31, key)])[0]
    assert np.allclose(got, expected, atol=1e-15)
