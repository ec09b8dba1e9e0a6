"""Shared builders for engine-level tests, and a finite-difference oracle."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from dpcopt.errors import ConfigInvalid
from dpcopt.objectives import make_objectives
from dpcopt.rng import StreamFactory, Tag
from dpcopt.topology import Network, build_graph, build_network

# 6-agent benchmark topology used across the engine tests.
BENCH_EDGES = [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)]


def bench_network() -> Network:
    return build_network(build_graph(6, BENCH_EDGES))


def build_problem(kind: str, seed: int, d: int = 10, **kwargs):
    """Network, stream factory, objectives, and a uniform [0,1)^d start."""
    net = bench_network()
    streams = StreamFactory(master_seed=seed)
    objectives = make_objectives(kind, net.n, d, streams, **kwargs)
    x0 = np.stack([streams.get(i, Tag.INIT, 0).random(d) for i in range(net.n)])
    return net, streams, objectives, x0


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float
) -> np.ndarray:
    """Central differences (f(x + h e_s) - f(x - h e_s)) / 2h."""
    if h <= 0:
        raise ConfigInvalid("finite differences need h > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for s in range(x.shape[0]):
        step = np.zeros_like(x)
        step[s] = h
        grad[s] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad
