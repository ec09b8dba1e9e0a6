"""Shared builders for engine-level tests, a connected-graph strategy, a
noisy-run strategy and a valid-config-document strategy built on it, a
finite-difference oracle, the loop
form of the Metropolis weights, the written trace's columns, the
round-by-round gradient-norm formula that the blocked fill must
reproduce, the exhaustive quadratic gradient bound that the screened one
must reproduce, the two-variable pgtc round that the stacked step must
reproduce, a state's arrays row by row, and the plain logistic formulas
that the saturation cut must reproduce."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from dpcopt import objectives as objectives_module
from dpcopt.compressors import BBIT, encode_decode, make_spec, row_norms
from dpcopt.errors import ConfigInvalid, NonFiniteState
from dpcopt.metrics import RoundState, Trace, write_trace_csv
from dpcopt.noise import sample_laplace, scale_at
from dpcopt.objectives import make_objectives, mean_value_grad
from dpcopt.rng import StreamFactory, Tag
from dpcopt.topology import Graph, Network, build_graph, build_network

# 6-agent benchmark topology used across the engine tests.
BENCH_EDGES = [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)]


def bench_network() -> Network:
    return build_network(build_graph(6, BENCH_EDGES))


def grid_edges(rows: int, cols: int) -> list[list[int]]:
    edges = []
    for i in range(rows * cols):
        if (i + 1) % cols:
            edges.append([i, i + 1])
        if i + cols < rows * cols:
            edges.append([i, i + cols])
    return edges


# The 24-agent golden topology: a 4 x 6 grid plus two long-range edges.
GRID_24_EDGES = grid_edges(4, 6) + [[0, 23], [5, 18]]


@st.composite
def connected_graphs(draw, max_n: int) -> Graph:
    """A random spanning tree on 2..max_n nodes (node i joins an earlier
    node) plus up to n extra edges."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(min(p), max(p)) for p in draw(st.lists(pairs, max_size=n)) if p[0] != p[1]}
    return build_graph(n, sorted(edges))


@st.composite
def noisy_runs(draw):
    """(n, edges, d, compressor kind, its k or b, objective, iterations,
    seed) for one engine run on a drawn connected graph."""
    g = draw(connected_graphs(max_n=8))
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["identity", "topk", "bbit", "normsign"]))
    param = {"topk": st.integers(1, d), "bbit": st.integers(1, 6)}.get(kind, st.none())
    return (
        g.n, sorted(g.edges), d, kind, draw(param),
        draw(st.sampled_from(["logistic", "sincos", "quadratic"])),
        draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 1)),
    )


OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
POSITIVE = st.floats(0.0, 1e6, exclude_min=True)


@st.composite
def config_documents(draw) -> dict:
    """A config document that parse_config accepts: either engine, each
    objective kind, each compressor with a valid k or b, enabled and
    disabled noise schedules, and any of the optional sections."""
    algorithm = draw(st.sampled_from(["pgtc", "ppdc"]))
    g = draw(connected_graphs(max_n=6))
    d = draw(st.integers(1, 8))
    objective = {"kind": draw(st.sampled_from(["logistic", "sincos", "quadratic"])), "d": d}
    if objective["kind"] == "logistic":
        objective.update(m=draw(st.integers(1, 50)), alpha=draw(st.floats(0.0, 10.0)))
        objective["lambda"] = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["identity", "topk", "bbit", "normsign"]))
    param = {"topk": {"k": st.integers(1, d)}, "bbit": {"b": st.integers(1, 64)}}.get(kind, {})
    # 1/r >= 1 keeps every alpha drawn from (0, 1) below the engines' 1/r.
    constants = {} if kind == "identity" else {"r": st.floats(0.5, 1.0), "phi": OPEN_UNIT}
    compressor = st.fixed_dictionaries({"kind": st.just(kind), **param}, optional=constants)
    schedule = st.fixed_dictionaries(
        {"s": st.floats(0.0, 1e3), "q": OPEN_UNIT}, optional={"enabled": st.booleans()}
    )
    second = "y" if algorithm == "pgtc" else "v"
    gains = {"eta": POSITIVE, "alpha_x": OPEN_UNIT}
    if algorithm == "pgtc":
        gains.update(gamma=st.floats(0.0, 1.0, exclude_min=True), alpha_y=OPEN_UNIT)
    else:
        gains.update(gamma=POSITIVE, omega=POSITIVE)
    parameter = draw(st.sampled_from(["q", "s", "eta"]))
    # Each value passes the rule of the field it replaces: s may be 0.
    value = {"q": OPEN_UNIT, "s": st.floats(0.0, 1e6), "eta": POSITIVE}[parameter]
    values = st.lists(value, min_size=1, max_size=3)
    sweep = {"parameter": st.just(parameter), "values": values, "repeats": st.integers(1, 5)}
    privacy = {
        "box_radius": st.floats(0.0, 1e3, exclude_min=True),
        "trials": st.integers(1, 10**4),
        "split": OPEN_UNIT,
    }
    required = {
        "algorithm": st.just(algorithm),
        "graph": st.just({"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}),
        "objective": st.just(objective),
        "compressor": compressor,
        "noise": st.fixed_dictionaries({"x": schedule, second: schedule}),
        "gains": st.fixed_dictionaries(gains),
        "iterations": st.integers(1, 10**6),
        "seed": st.integers(0, 2**63 - 1),
        "outputs": st.text(st.characters(exclude_characters="\0"), min_size=1, max_size=8),
    }
    optional = {
        "reference": st.fixed_dictionaries({"horizon_multiplier": st.integers(10, 1000)}),
        "sweep": st.fixed_dictionaries(sweep),
        "privacy": st.fixed_dictionaries({}, optional=privacy),
        "contraction_trials": st.integers(1000, 10**6),
    }
    return draw(st.fixed_dictionaries(required, optional=optional))


def drawn_run(case):
    """Compressor spec, network, fresh stream factory, objectives and a
    uniform [0,1)^d start for a noisy_runs case."""
    n, edges, d, kind, param, objective, _, seed = case
    params = {"topk": {"k": param}, "bbit": {"b": param}}.get(kind, {})
    net = build_network(build_graph(n, edges))
    streams = StreamFactory(master_seed=seed)
    objectives = make_objectives(objective, n, d, streams, m=5, lam=1e-3, alpha=1.0)
    x0 = np.stack([streams.get(i, Tag.INIT, 0).random(d) for i in range(n)])
    return make_spec(kind, d, **params), net, streams, objectives, x0


def metropolis_weights_loops(g: Graph) -> np.ndarray:
    """Metropolis weights built edge by edge and row by row: the oracle
    that metropolis_weights must reproduce byte for byte."""
    deg = np.zeros(g.n, dtype=np.int64)
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    w = np.zeros((g.n, g.n), dtype=np.float64)
    for i, j in g.edges:
        value = 1.0 / (1.0 + max(deg[i], deg[j]))
        w[i, j] = value
        w[j, i] = value
    for i in range(g.n):
        w[i, i] = 1.0 - (w[i].sum() - w[i, i])
    return w


def csv_columns(trace: Trace, path) -> dict[str, list[str]]:
    """Write the trace to path and return its CSV fields column by column."""
    write_trace_csv(trace, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    return dict(zip(header.split(","), map(list, zip(*(line.split(",") for line in lines)))))


def grad_norms_per_round(objectives, trace: Trace) -> np.ndarray:
    """The gradient-norm column computed round by round from the trace's
    iterate history: xbar_k, then mean_value_grad at that single point,
    then np.linalg.norm, as each round's row was once filled."""
    n = len(objectives)
    norms = np.empty(len(trace))
    for k, row in enumerate(trace.stacked_iterates):
        x = row.reshape(n, -1)
        xbar = np.add.reduce(x, axis=0) / n
        with np.errstate(over="ignore", invalid="ignore"):
            _, gbar = mean_value_grad(objectives, xbar)
            norms[k] = np.linalg.norm(gbar)
    return norms


def exhaustive_quadratic_bound(
    anchors: np.ndarray, radius: float, trials: int, rng: np.random.Generator
) -> float:
    """The gradient bound of quadratic agents with these (n, d) anchors by
    the exhaustive path: the same draws as estimate_grad_bound, every
    gradient p - a_i by a broadcast subtraction, row_norms, where a square
    overflows from finite entries m * row_norms(g / m) with m the row's
    largest |g|, their largest (a NaN kept) and 1.1x. Not finite where
    estimate_grad_bound raises."""
    points = rng.random((trials, anchors.shape[1]))
    points *= radius - -radius
    points += -radius
    worst = []
    with np.errstate(over="ignore", invalid="ignore"):
        for point in points:
            g = point - anchors
            norms = row_norms(g)
            over = np.isinf(norms) & np.isfinite(g).all(axis=1)
            m = np.abs(g[over]).max(axis=1)
            norms[over] = m * row_norms(g[over] / m[:, None])
            worst.append(norms.max())
    return 1.1 * float(np.max(worst))


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


def state_rows(state: RoundState) -> dict[str, np.ndarray]:
    """A state's arrays by name, z and zc row by row ("z[0]", "zc[1]", ...),
    and its noise_cumsum."""
    rows = {
        f"{name}[{i}]": row for name in ("z", "zc") for i, row in enumerate(getattr(state, name))
    }
    rows["noise_cumsum"] = state.noise_cumsum
    return rows


def pgtc_step_two_calls(state, cfg, objectives, net, streams) -> RoundState:
    """One pgtc round with x and y as separate (n, d) arrays: a noise add,
    an encode, a mixing product, a finite check and a reference update per
    variable. Returns the next state, its arrays stacked only at the end."""
    n, d = state.x.shape
    w = net.mixing
    spec = cfg.compressor
    k = state.k
    y, grad = state.z[1], state.z[2]
    yc = state.zc[1]

    theta_x = scale_at(cfg.noise_x, k)
    theta_y = scale_at(cfg.noise_y, k)
    xa = state.x
    if theta_x > 0.0:
        xa = xa + sample_laplace(theta_x, d, streams.rows(Tag.NOISE_X, k, n))
    ya = y
    noise_y_cumsum = state.noise_cumsum
    if theta_y > 0.0:
        xi_y = sample_laplace(theta_y, d, streams.rows(Tag.NOISE_Y, k, n))
        ya = ya + xi_y
        noise_y_cumsum = noise_y_cumsum + np.add.reduce(xi_y, axis=0) / n

    # Each sender's stream serves its x-encode, then its y-encode.
    rngs_c = None
    if spec.kind == BBIT:
        rngs_c = streams.rows(Tag.COMPRESS, k, n)
    xhat = encode_decode(spec, xa, state.xc, rngs_c)
    yhat = encode_decode(spec, ya, yc, rngs_c)

    with np.errstate(over="ignore", invalid="ignore"):
        x_next = xa + cfg.gamma * (w @ xhat - xhat) - cfg.eta * y
        grad_next = objectives.grad(x_next)
        y_next = ya + cfg.gamma * (w @ yhat - yhat) + grad_next - grad

    if not (np.isfinite(x_next).all() and np.isfinite(y_next).all()):
        raise NonFiniteState(k, "gradient-tracking update diverged")

    xc_next = (1.0 - cfg.alpha_x) * state.xc + cfg.alpha_x * xhat
    yc_next = (1.0 - cfg.alpha_y) * yc + cfg.alpha_y * yhat
    return RoundState(
        np.stack([x_next, y_next, grad_next]), np.stack([xc_next, yc_next]),
        noise_y_cumsum, k + 1,
    )


def plain_logistic_grad(signed, reg, alpha, x, z, out=None):
    """The logistic kernel as it ran before the saturation cut, with
    exp(-|z|) taken on every margin: the oracle whose bytes
    objectives._logistic_grad must keep. Its steps work in place as the
    kernel's do, so that even the sign of a NaN gradient matches (an
    out-of-place grad + reg_term can pick the other NaN operand).
    Broadcasts like the kernel; out is accepted and unused."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    neg_sigma = (z >= 0).astype(np.float64)
    np.maximum(neg_sigma, e, out=neg_sigma)
    np.subtract(-1.0, e, out=e)
    neg_sigma /= e
    grad = np.matmul(neg_sigma[..., None, :], signed)[..., 0, :]
    grad /= -signed.shape[-2]
    denom = x * x
    denom *= alpha
    denom += 1.0
    denom *= denom
    reg_term = reg * x
    reg_term /= denom
    grad += reg_term
    return grad


def plain_logistic_loss(z):
    """log1p(exp(z)) of each margin as np.logaddexp(0, z) on every margin:
    the oracle whose bytes objectives._logistic_loss must keep."""
    return np.logaddexp(0.0, z)


@contextmanager
def plain_logistic_formulas() -> Iterator[None]:
    """Within the block, every logistic gradient and loss in dpcopt, the
    engines' grad and each agent's term of value_grad included, goes
    through the plain oracles above instead of the saturation cut."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objectives_module, "_logistic_grad", plain_logistic_grad)
        patch.setattr(objectives_module, "_logistic_loss", plain_logistic_loss)
        yield
