"""Graph construction, Metropolis weights, Laplacian, spectral summary."""

from __future__ import annotations

import numpy as np
import pytest

from dpcopt.errors import DisconnectedGraph, InvalidEdge
from dpcopt.topology import (
    LaplacianMatrix,
    MixingMatrix,
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
    assert np.array_equal(g.degrees(), [2, 1, 1])


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


def test_metropolis_two_node_path():
    g = build_graph(2, [(0, 1)])
    w = metropolis_weights(g)
    assert np.array_equal(w.w, np.full((2, 2), 0.5))


def test_metropolis_triangle():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    w = metropolis_weights(g)
    assert np.allclose(w.w, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_metropolis_benchmark_entry():
    g = build_graph(6, BENCH_EDGES)
    w = metropolis_weights(g)
    # degrees of 2 and 3 are 2 and 3: weight 1/(1 + max) = 1/4
    assert w.w[2, 3] == 0.25
    assert w.w[3, 2] == 0.25


def test_mixing_matrix_is_doubly_stochastic_and_sparse():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = _random_connected_graph(int(rng.integers(2, 12)), rng)
        w = metropolis_weights(g)
        assert np.array_equal(w.w, w.w.T)
        assert np.all(w.w >= 0)
        assert np.allclose(w.w.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(w.w.sum(axis=1), 1.0, atol=1e-12)
        edge_set = set(g.edges)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if (i, j) in edge_set:
                    assert w.w[i, j] > 0
                else:
                    assert w.w[i, j] == 0


def test_laplacian_two_node_path():
    g = build_graph(2, [(0, 1)])
    l = laplacian(g, metropolis_weights(g))
    assert np.array_equal(l.l, np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_laplacian_triangle_eigenvalues():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    l = laplacian(g, metropolis_weights(g))
    eig = np.linalg.eigvalsh(l.l)
    assert np.allclose(eig, [0.0, 1.0, 1.0], atol=1e-12)


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = _random_connected_graph(int(rng.integers(2, 12)), rng)
        l = laplacian(g, metropolis_weights(g))
        assert np.max(np.abs(l.l.sum(axis=1))) < 1e-12
        # x-bar invariance: L (c 1) = 0 for any scalar
        ones = np.full(g.n, 3.7)
        assert np.max(np.abs(l.l @ ones)) < 1e-12


def test_laplacian_equals_identity_minus_w():
    g = build_graph(6, BENCH_EDGES)
    w = metropolis_weights(g)
    l = laplacian(g, w)
    assert np.allclose(l.l, np.eye(6) - w.w, atol=1e-15)


def test_benchmark_single_zero_eigenvalue():
    g = build_graph(6, BENCH_EDGES)
    l = laplacian(g, metropolis_weights(g))
    eig = np.linalg.eigvalsh(l.l)
    assert np.sum(np.abs(eig) < 1e-10) == 1


def test_contraction_radius_complete_averaging():
    assert consensus_contraction_radius(np.full((4, 4), 0.25)) < 1e-12


def test_spectral_summary_two_node():
    g = build_graph(2, [(0, 1)])
    w = metropolis_weights(g)
    s = spectral_summary(w, laplacian(g, w))
    assert s.rho_w < 1e-12
    assert s.rho == pytest.approx(1.0)


def test_spectral_summary_benchmark_regression():
    g = build_graph(6, BENCH_EDGES)
    w = metropolis_weights(g)
    s = spectral_summary(w, laplacian(g, w))
    assert s.rho_w == pytest.approx(BENCH_RHO_W, abs=1e-12)
    assert 0.0 < s.rho_w < 1.0
    assert s.rho == pytest.approx(1.0 - BENCH_RHO_W, abs=1e-12)
    assert s.lambda_min_pos_l > 0.0
    assert s.lambda_max_l >= s.lambda_min_pos_l


def test_ring_four_contraction_radius_analytic():
    # Metropolis ring of 4: circulant with eigenvalues {1, 1/3, -1/3, 1/3}.
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    w = metropolis_weights(g)
    assert consensus_contraction_radius(w.w) == pytest.approx(1.0 / 3.0, abs=1e-12)


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
        assert consensus_contraction_radius(metropolis_weights(g).w) < 1.0


def test_build_network_bundle():
    net = build_network(build_graph(6, BENCH_EDGES))
    assert net.n == 6
    assert net.mixing.w.shape == (6, 6)
    assert net.laplacian.l.shape == (6, 6)
    assert spectral_summary(net.mixing, net.laplacian).rho_w == pytest.approx(BENCH_RHO_W, abs=1e-12)


def test_mixing_matrix_validation_rejects_asymmetry():
    g = build_graph(2, [(0, 1)])
    bad = np.array([[0.5, 0.5], [0.4, 0.6]])
    with pytest.raises(InvalidEdge):
        MixingMatrix(w=bad, graph=g)


def test_laplacian_validation_rejects_nonzero_rows():
    bad = np.array([[0.5, -0.4], [-0.5, 0.5]])
    with pytest.raises(InvalidEdge):
        LaplacianMatrix(l=bad)
