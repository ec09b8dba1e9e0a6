"""Workload configs for the benchmark, generated from the workload seed.

A workload is one dpcopt config document plus the CLI command that
consumes it. The same seed always yields the same document.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("paper_logistic", "sweep_sincos", "scale_ppdc_bbit")

# Seed of the golden digests in digests.json. At this seed
# paper_logistic is exactly configs/pgtc_topk_logistic.json.
DEFAULT_SEED = 1

# Target budget passed to `dpcopt privacy --target-epsilon`.
TARGET_EPSILON = "24"

SCALE_AGENTS = 100
SCALE_DIM = 100
SCALE_EXTRA_EDGES_PER_AGENT = 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    config: dict  # the generated config document
    primary_output: str  # file whose bytes a replay must reproduce


def _shipped(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / f"{name}.json").read_text(encoding="utf-8"))


def scale_edges(n: int, extra: int, seed: int) -> list[list[int]]:
    """Random spanning tree on n nodes plus `extra` distinct extra edges.

    Node order is a seeded permutation; each node after the first
    attaches to a uniformly chosen earlier node, so the tree (and hence
    the graph) is connected.
    """
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for pos in range(1, n):
        i, j = order[pos], order[rng.randrange(pos)]
        edges.add((min(i, j), max(i, j)))
    target = len(edges) + extra
    while len(edges) < target:
        i, j = rng.sample(range(n), 2)
        edges.add((min(i, j), max(i, j)))
    return [list(e) for e in sorted(edges)]


def _scale_config(seed: int) -> dict:
    n = SCALE_AGENTS
    return {
        "algorithm": "ppdc",
        "graph": {"n": n, "edges": scale_edges(n, SCALE_EXTRA_EDGES_PER_AGENT * n, seed)},
        "objective": {"kind": "quadratic", "d": SCALE_DIM},
        "compressor": {"kind": "bbit", "b": 4},
        "noise": {"x": {"s": 0.1, "q": 0.95}, "v": {"s": 0.1, "q": 0.95}},
        "gains": {"eta": 0.1, "gamma": 5.0, "alpha_x": 0.3, "omega": 1.0},
        "iterations": 200,
        "seed": seed,
        "outputs": "results/scale_ppdc_bbit",
    }


def make_workload(name: str, seed: int, root: Path) -> Workload:
    """The named workload's config, with every seed taken from `seed`."""
    if name == "paper_logistic":
        doc = dict(_shipped(root, "pgtc_topk_logistic"), seed=seed)
        return Workload(name, "run", doc, "trace.csv")
    if name == "sweep_sincos":
        doc = dict(_shipped(root, "pgtc_q_sweep"), seed=seed)
        return Workload(name, "sweep", doc, "sweep_summary.csv")
    if name == "scale_ppdc_bbit":
        return Workload(name, "run", _scale_config(seed), "trace.csv")
    raise ValueError(f"unknown workload {name!r}")

