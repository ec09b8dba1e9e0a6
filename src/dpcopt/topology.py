"""Communication graph, doubly stochastic mixing matrix and Laplacian
shared by both solver engines, and their spectral summary on request."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpcopt.errors import (
    DisconnectedGraph,
    EigenSolverFailure,
    InvalidEdge,
)

__all__ = [
    "Graph",
    "SpectralSummary",
    "Network",
    "build_graph",
    "metropolis_weights",
    "laplacian",
    "spectral_summary",
    "consensus_contraction_radius",
    "build_network",
]

# Eigenvalues below this are treated as the Laplacian's zero eigenvalue.
ZERO_EIG_TOL = 1e-10


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on nodes 0..n-1.

    Edges are stored as normalized (min, max) pairs. Construction
    validates node indices, rejects self-loops, and confirms
    connectivity by traversal.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidEdge(f"need at least 2 nodes, got n={self.n}")
        for i, j in self.edges:
            if i == j:
                raise InvalidEdge(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidEdge(f"edge ({i},{j}) outside range(0, {self.n})")
            if i > j:
                raise InvalidEdge(f"edge ({i},{j}) not normalized (use build_graph)")
        # Fewer than n - 1 edges cannot connect n nodes; checking the count
        # first keeps a huge n from allocating an n-node traversal.
        if len(self.edges) < self.n - 1 or not self._connected():
            raise DisconnectedGraph(f"graph on {self.n} nodes is not connected")

    def _connected(self) -> bool:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self.n


def build_graph(n: int, edges) -> Graph:
    """Validate and normalize an edge list into a Graph.

    Duplicate edges (in either orientation) are rejected here; the
    remaining invariants live in Graph construction.
    """
    normalized: set[tuple[int, int]] = set()
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        key = (min(i, j), max(i, j))
        if key in normalized:
            raise InvalidEdge(f"duplicate edge {key}")
        normalized.add(key)
    return Graph(n=int(n), edges=frozenset(normalized))


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral constants of a network, from spectral_summary."""

    rho_w: float
    rho: float
    lambda_max_l: float
    lambda_min_pos_l: float


def metropolis_weights(g: Graph) -> np.ndarray:
    """Metropolis-Hastings weights W: 1/(1 + max(deg_i, deg_j)) on edges,
    diagonal absorbs the remainder. Symmetric and doubly stochastic on any
    connected undirected graph, with support exactly the edges plus the
    diagonal."""
    i, j = np.array(sorted(g.edges), dtype=np.intp).T
    deg = np.bincount(np.concatenate((i, j)), minlength=g.n)
    w = np.zeros((g.n, g.n), dtype=np.float64)
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    # Each row is summed while its diagonal is still 0.
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def laplacian(w: np.ndarray) -> np.ndarray:
    """L = D - A where A is W with its diagonal removed and D holds A's
    row sums, so rows sum to 0 by construction."""
    a = w.copy()
    np.fill_diagonal(a, 0.0)
    return np.diag(a.sum(axis=1)) - a


def consensus_contraction_radius(w: np.ndarray) -> float:
    """Spectral radius of W - 11^T/n on a raw weight array.

    Strictly below 1 exactly when the weights mix a connected graph;
    equals 1 for disconnected weight patterns.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    deviation = w - np.full((n, n), 1.0 / n)
    try:
        eigenvalues = np.linalg.eigvalsh(deviation)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(str(exc)) from exc
    return float(np.max(np.abs(eigenvalues)))


def spectral_summary(w: np.ndarray, l: np.ndarray) -> SpectralSummary:
    rho_w = consensus_contraction_radius(w)
    try:
        eigenvalues = np.linalg.eigvalsh(l)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(str(exc)) from exc
    positive = eigenvalues[eigenvalues > ZERO_EIG_TOL]
    if positive.size == 0:
        raise EigenSolverFailure("laplacian has no positive eigenvalues")
    return SpectralSummary(
        rho_w=rho_w,
        rho=1.0 - rho_w,
        lambda_max_l=float(eigenvalues[-1]),
        lambda_min_pos_l=float(positive[0]),
    )


@dataclass(frozen=True)
class Network:
    """Bundle of everything the engines need about one topology: the
    graph, its (n, n) mixing weights W and its (n, n) Laplacian L."""

    graph: Graph
    mixing: np.ndarray
    laplacian: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n


def build_network(g: Graph) -> Network:
    w = metropolis_weights(g)
    return Network(graph=g, mixing=w, laplacian=laplacian(w))
