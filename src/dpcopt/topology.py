"""Communication graph, doubly stochastic mixing matrix and Laplacian
shared by both solver engines, and their spectral summary on request."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dpcopt.errors import (
    DisconnectedGraph,
    EigenSolverFailure,
    InvalidEdge,
)

__all__ = [
    "Graph",
    "MixingMatrix",
    "LaplacianMatrix",
    "SpectralSummary",
    "Network",
    "build_graph",
    "metropolis_weights",
    "laplacian",
    "spectral_summary",
    "consensus_contraction_radius",
    "build_network",
]

# Doubly-stochastic and zero-row-sum checks run at this tolerance.
STOCHASTICITY_TOL = 1e-12
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
        if not self._connected():
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

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


def build_graph(n: int, edges) -> Graph:
    """Validate and normalize an edge list into a Graph.

    Duplicate edges (in either orientation) are rejected here; the
    remaining invariants live in Graph construction.
    """
    normalized: set[tuple[int, int]] = set()
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        if i == j:
            raise InvalidEdge(f"self-loop at node {i}")
        key = (min(i, j), max(i, j))
        if key in normalized:
            raise InvalidEdge(f"duplicate edge {key}")
        normalized.add(key)
    return Graph(n=int(n), edges=frozenset(normalized))


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weights W aligned with a graph.

    W[i][j] > 0 exactly when (i, j) is an edge or i == j; rows and
    columns sum to 1 within STOCHASTICITY_TOL.
    """

    w: np.ndarray
    graph: Graph = field(repr=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        n = self.graph.n
        if w.shape != (n, n):
            raise InvalidEdge(f"mixing matrix shape {w.shape} does not match n={n}")
        if not np.array_equal(w, w.T):
            raise InvalidEdge("mixing matrix is not symmetric")
        if np.any(w < 0):
            raise InvalidEdge("mixing matrix has negative weights")
        rows = w.sum(axis=1)
        cols = w.sum(axis=0)
        if np.max(np.abs(rows - 1.0)) > STOCHASTICITY_TOL:
            raise InvalidEdge("mixing matrix rows do not sum to 1")
        if np.max(np.abs(cols - 1.0)) > STOCHASTICITY_TOL:
            raise InvalidEdge("mixing matrix columns do not sum to 1")
        edge_set = self.graph.edges
        for i in range(n):
            for j in range(i + 1, n):
                if ((i, j) in edge_set) != (w[i, j] > 0):
                    raise InvalidEdge(
                        f"weight sparsity at ({i},{j}) disagrees with the edge set"
                    )


@dataclass(frozen=True)
class LaplacianMatrix:
    """Graph Laplacian L = D - A built from the off-diagonal mixing
    weights; rows sum to 0 within STOCHASTICITY_TOL."""

    l: np.ndarray

    def __post_init__(self) -> None:
        l = np.asarray(self.l, dtype=np.float64)
        object.__setattr__(self, "l", l)
        if l.ndim != 2 or l.shape[0] != l.shape[1]:
            raise InvalidEdge(f"laplacian shape {l.shape} is not square")
        if not np.array_equal(l, l.T):
            raise InvalidEdge("laplacian is not symmetric")
        if np.max(np.abs(l.sum(axis=1))) > STOCHASTICITY_TOL:
            raise InvalidEdge("laplacian rows do not sum to 0")


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral constants of a network, from spectral_summary."""

    rho_w: float
    rho: float
    lambda_max_l: float
    lambda_min_pos_l: float


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis-Hastings weights: 1/(1 + max(deg_i, deg_j)) on edges,
    diagonal absorbs the remainder. Doubly stochastic on any connected
    undirected graph."""
    deg = g.degrees()
    w = np.zeros((g.n, g.n), dtype=np.float64)
    for i, j in g.edges:
        value = 1.0 / (1.0 + max(deg[i], deg[j]))
        w[i, j] = value
        w[j, i] = value
    for i in range(g.n):
        w[i, i] = 1.0 - (w[i].sum() - w[i, i])
    return MixingMatrix(w=w, graph=g)


def laplacian(g: Graph, w: MixingMatrix) -> LaplacianMatrix:
    """L = D - A where A is W with its diagonal removed and D holds A's
    row sums, so rows sum to 0 by construction."""
    a = w.w.copy()
    np.fill_diagonal(a, 0.0)
    l = np.diag(a.sum(axis=1)) - a
    return LaplacianMatrix(l=l)


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


def spectral_summary(w: MixingMatrix, l: LaplacianMatrix) -> SpectralSummary:
    rho_w = consensus_contraction_radius(w.w)
    try:
        eigenvalues = np.linalg.eigvalsh(l.l)
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
    """Bundle of everything the engines need about one topology."""

    graph: Graph
    mixing: MixingMatrix
    laplacian: LaplacianMatrix

    @property
    def n(self) -> int:
        return self.graph.n


def build_network(g: Graph) -> Network:
    w = metropolis_weights(g)
    return Network(graph=g, mixing=w, laplacian=laplacian(g, w))
