"""Graph construction, Metropolis weights, Laplacian, spectral summary."""

from __future__ import annotations

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings

from common import GRID_24_EDGES, connected_graphs, metropolis_weights_loops
from dpcopt.errors import DisconnectedGraph, InvalidEdge
from dpcopt.topology import (
    Graph,
    build_graph,
    build_network,
    consensus_contraction_radius,
    laplacian,
    metropolis_weights,
    spectral_summary,
)

# 6-agent benchmark topology, degrees {3, 3, 2, 3, 3, 2}.
BENCH_EDGES = [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)]

# Regression constant: spectral radius of W - J/n for the benchmark
# graph with Metropolis weights, frozen from a verified eigen-solve.
BENCH_RHO_W = 0.6403882032022079


def _random_connected_graph(n: int, rng: np.random.Generator):
    edges = {(i - 1, i) for i in range(1, n)}  # spanning path
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return build_graph(n, sorted(edges))


def test_build_graph_normalizes_edges():
    g = build_graph(3, [(2, 0), (1, 0)])
    assert set(g.edges) == {(0, 1), (0, 2)}


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 0)],
        [(0, 3)],
        [(-1, 1)],
        [(0, 1), (1, 0)],
        [(0, 1), (0, 1)],
    ],
)
def test_build_graph_rejects_bad_edges(edges):
    with pytest.raises(InvalidEdge):
        build_graph(3, edges)


def test_build_graph_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph(4, [(0, 1), (2, 3)])


def test_huge_n_with_too_few_edges_is_rejected_before_traversal(monkeypatch):
    # A traversal over 2**40 nodes would exhaust memory; the edge count
    # alone proves the graph disconnected.
    monkeypatch.setattr(Graph, "_connected", lambda self: pytest.fail("traversed"))
    with pytest.raises(DisconnectedGraph):
        build_graph(2**40, [(0, 1)])


def test_metropolis_two_node_path():
    g = build_graph(2, [(0, 1)])
    w = metropolis_weights(g)
    assert np.array_equal(w, np.full((2, 2), 0.5))


def test_metropolis_triangle():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    w = metropolis_weights(g)
    assert np.allclose(w, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_metropolis_benchmark_entry():
    g = build_graph(6, BENCH_EDGES)
    w = metropolis_weights(g)
    # degrees of 2 and 3 are 2 and 3: weight 1/(1 + max) = 1/4
    assert w[2, 3] == 0.25
    assert w[3, 2] == 0.25


@settings(max_examples=200, deadline=None)
@given(connected_graphs(max_n=40))
@example(build_graph(8, itertools.combinations(range(8), 2)))
@example(build_graph(9, [(0, i) for i in range(1, 9)]))
def test_mixing_matrix_is_doubly_stochastic_and_sparse(g):
    w = metropolis_weights(g)
    assert w.dtype == np.float64
    assert w.tobytes() == metropolis_weights_loops(g).tobytes()
    assert np.array_equal(w, w.T)
    assert np.all(w >= 0)
    support = np.eye(g.n, dtype=bool)
    for i, j in g.edges:
        support[i, j] = support[j, i] = True
    assert np.array_equal(w != 0, support)
    assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    l = laplacian(w)
    assert np.max(np.abs(l.sum(axis=1))) <= 1e-12
    # x-bar invariance: L (c 1) = 0 for any scalar
    assert np.max(np.abs(l @ np.full(g.n, 3.7))) <= 1e-12


def _seeded_edges(n: int, extra: int, seed: int) -> list[tuple[int, int]]:
    """A random spanning tree on n nodes plus `extra` distinct extra edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    target = len(edges) + extra
    while len(edges) < target:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((i, j))
    return sorted(edges)


# sha256 of W's and L's bytes on graphs larger than any golden trace's
# 6 agents, frozen from the per-edge loop builder.
@pytest.mark.parametrize(
    "n, edges, w_digest, l_digest",
    [
        (
            100,
            _seeded_edges(100, 300, seed=1),
            "c9b12ced2e543a7360209ac7775c237fa2e3215b4eabbbc77719db9428d6f8d2",
            "49bf2c383f914e363663f461f186696c27edb21abb3e9b583280a737a2d2cfb9",
        ),
        (
            24,
            GRID_24_EDGES,
            "7f1d5b2580fffb7a94d40bb6249a374bd32f820472fbbe99774a77c833700fcb",
            "91351db54119560b921445830e49cad7beb27128ba92ac2bdb6fae92f26aeb1f",
        ),
    ],
    ids=["seeded_100", "grid_24"],
)
def test_network_arrays_keep_their_bytes_at_scale(n, edges, w_digest, l_digest):
    net = build_network(build_graph(n, edges))
    assert net.mixing.shape == net.laplacian.shape == (n, n)
    assert hashlib.sha256(net.mixing.tobytes()).hexdigest() == w_digest
    assert hashlib.sha256(net.laplacian.tobytes()).hexdigest() == l_digest


def test_laplacian_two_node_path():
    g = build_graph(2, [(0, 1)])
    l = laplacian(metropolis_weights(g))
    assert np.array_equal(l, np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_laplacian_triangle_eigenvalues():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    l = laplacian(metropolis_weights(g))
    eig = np.linalg.eigvalsh(l)
    assert np.allclose(eig, [0.0, 1.0, 1.0], atol=1e-12)


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = _random_connected_graph(int(rng.integers(2, 12)), rng)
        l = laplacian(metropolis_weights(g))
        assert np.max(np.abs(l.sum(axis=1))) < 1e-12
        # x-bar invariance: L (c 1) = 0 for any scalar
        ones = np.full(g.n, 3.7)
        assert np.max(np.abs(l @ ones)) < 1e-12


def test_laplacian_equals_identity_minus_w():
    g = build_graph(6, BENCH_EDGES)
    w = metropolis_weights(g)
    l = laplacian(w)
    assert np.allclose(l, np.eye(6) - w, atol=1e-15)


def test_benchmark_single_zero_eigenvalue():
    g = build_graph(6, BENCH_EDGES)
    l = laplacian(metropolis_weights(g))
    eig = np.linalg.eigvalsh(l)
    assert np.sum(np.abs(eig) < 1e-10) == 1


def test_contraction_radius_complete_averaging():
    assert consensus_contraction_radius(np.full((4, 4), 0.25)) < 1e-12


def test_spectral_summary_two_node():
    g = build_graph(2, [(0, 1)])
    w = metropolis_weights(g)
    s = spectral_summary(w, laplacian(w))
    assert s.rho_w < 1e-12
    assert s.rho == pytest.approx(1.0)


def test_spectral_summary_benchmark_regression():
    g = build_graph(6, BENCH_EDGES)
    w = metropolis_weights(g)
    s = spectral_summary(w, laplacian(w))
    assert s.rho_w == pytest.approx(BENCH_RHO_W, abs=1e-12)
    assert 0.0 < s.rho_w < 1.0
    assert s.rho == pytest.approx(1.0 - BENCH_RHO_W, abs=1e-12)
    assert s.lambda_min_pos_l > 0.0
    assert s.lambda_max_l >= s.lambda_min_pos_l


def test_ring_four_contraction_radius_analytic():
    # Metropolis ring of 4: circulant with eigenvalues {1, 1/3, -1/3, 1/3}.
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    w = metropolis_weights(g)
    assert consensus_contraction_radius(w) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_contraction_radius_one_iff_disconnected():
    # Block-diagonal averaging matrix (two components) has radius 1;
    # built at array level since Graph construction forbids it.
    block = np.zeros((4, 4))
    block[:2, :2] = 0.5
    block[2:, 2:] = 0.5
    assert consensus_contraction_radius(block) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = _random_connected_graph(int(rng.integers(2, 10)), rng)
        assert consensus_contraction_radius(metropolis_weights(g)) < 1.0


def test_build_network_bundle():
    net = build_network(build_graph(6, BENCH_EDGES))
    assert net.n == 6
    assert net.mixing.shape == (6, 6)
    assert net.laplacian.shape == (6, 6)
    assert spectral_summary(net.mixing, net.laplacian).rho_w == pytest.approx(BENCH_RHO_W, abs=1e-12)
