"""Row-wise paths equal the per-agent loop bit for bit.

The engines evaluate all n agents as (n, d) arrays: one gradient call,
one encode per broadcast variable, one Laplace transform. The
contraction gate compresses all its trials as one array. Each test
compares that call with a loop over rows of the single-agent call, by
the bytes of the result.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dpcopt.compressors import (
    ContractionReport,
    compress,
    encode_decode,
    make_spec,
    row_dots,
    row_norms,
    validate_contraction,
)
from dpcopt.errors import DimensionMismatch
from dpcopt.noise import sample_laplace
from dpcopt.objectives import (
    AgentObjectives,
    QuadraticObjective,
    estimate_grad_bound,
    make_objectives,
)
from dpcopt.rng import StreamFactory, Tag

SPECS = [
    ("identity", {}),
    ("topk", {"k": 3}),
    ("bbit", {"b": 2}),
    ("bbit", {"b": 4}),
    ("normsign", {}),
]


def _rows_with_ties(n: int, d: int, seed: int) -> np.ndarray:
    """Gaussian rows (d even) plus rows of small integers, of one repeated
    value and of +-pairs, so top-k must break ties by index."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x[0] = rng.integers(-2, 3, size=d).astype(np.float64)
    x[1] = 1.5
    x[2, 1::2] = -x[2, ::2]
    x[3] = rng.standard_normal(d) * 1e3
    return x


def _generators(n: int, seed: int) -> list[np.random.Generator]:
    streams = StreamFactory(master_seed=seed)
    return [streams.get(i, Tag.COMPRESS, 3) for i in range(n)]


@pytest.mark.parametrize("d", [10, 100])
@pytest.mark.parametrize("kind,params", SPECS)
def test_compress_rows_equal_per_row_loop(kind, params, d):
    spec = make_spec(kind, d, **params)
    x = _rows_with_ties(8, d, seed=d)
    rows = compress(spec, x, _generators(8, 5))
    loop = np.stack(
        [compress(spec, xi, g) for xi, g in zip(x, _generators(8, 5))]
    )
    assert rows.shape == x.shape
    assert rows.tobytes() == loop.tobytes()


def test_topk_rows_keep_lower_index_on_ties():
    spec = make_spec("topk", 4, k=2)
    x = np.array([[1.0, 2.0, 2.0, 1.0], [3.0, 3.0, 3.0, 3.0], [-1.0, 1.0, -1.0, 1.0]])
    out = compress(spec, x)
    assert out.tolist() == [
        [0.0, 2.0, 2.0, 0.0],
        [3.0, 3.0, 0.0, 0.0],
        [-1.0, 1.0, 0.0, 0.0],
    ]


def test_bbit_zero_row_draws_nothing_and_a_second_encode_lines_up():
    # The pgtc pattern: one compression stream per sender serves the
    # x-encode and then the y-encode. A sender whose x difference is
    # exactly zero must not draw, or its y-encode would shift.
    d, n = 10, 5
    spec = make_spec("bbit", d, b=3)
    rng = np.random.default_rng(40)
    xa, xc, ya, yc = (rng.standard_normal((n, d)) for _ in range(4))
    xa[2], ya[2] = xc[2], yc[2]
    xa[3] = xc[3]
    ya[4] = yc[4]

    gens = _generators(n, 41)
    xhat = encode_decode(spec, xa, xc, gens)
    yhat = encode_decode(spec, ya, yc, gens)

    want_x, want_y = [], []
    for i, g in enumerate(_generators(n, 41)):
        want_x.append(encode_decode(spec, xa[i], xc[i], g))
        want_y.append(encode_decode(spec, ya[i], yc[i], g))
    assert xhat.tobytes() == np.stack(want_x).tobytes()
    assert yhat.tobytes() == np.stack(want_y).tobytes()
    assert xhat[3].tobytes() == xc[3].tobytes()

    # Sender 2 sent two zero differences and left its stream untouched.
    fresh = _generators(n, 41)
    assert gens[2].random() == fresh[2].random()
    assert gens[0].random() != fresh[0].random()


def test_row_norms_equal_linalg_norm_per_row():
    x = np.random.default_rng(42).standard_normal((30, 100)) * 10.0
    want = np.array([np.linalg.norm(row) for row in x])
    assert row_norms(x).tobytes() == want.tobytes()
    assert row_norms(x[0]) == np.linalg.norm(x[0])


def test_row_dots_equal_dot_per_row():
    x = np.random.default_rng(47).standard_normal((30, 100)) * 10.0
    want = np.array([row @ row for row in x])
    assert row_dots(x).tobytes() == want.tobytes()
    assert row_dots(x[0]) == x[0] @ x[0]


def _per_trial_ratio(spec, d, trials, rng):
    total = 0.0
    for _ in range(trials):
        x = rng.standard_normal(d)
        sq = float(x @ x)
        if sq == 0.0:
            continue
        err = compress(spec, x, rng) / spec.r - x
        total += float(err @ err) / sq
    return total / trials


@pytest.mark.parametrize("d", [10, 100])
@pytest.mark.parametrize(
    "kind,params", SPECS + [("topk", {"k": 1}), ("normsign", {"r": 2.0})]
)
def test_contraction_gate_equals_per_trial_loop(kind, params, d):
    spec = make_spec(kind, d, **params)
    report = validate_contraction(spec, d, 1000, np.random.default_rng(d))
    ratio = _per_trial_ratio(spec, d, 1000, np.random.default_rng(d))
    threshold = (1.0 - spec.phi) * (1.0 + 3.0 / math.sqrt(1000))
    assert report == ContractionReport(ratio, threshold, ratio <= threshold)


OBJECTIVE_KINDS = [
    ("logistic", 6, 10, {"m": 200, "lam": 1e-3, "alpha": 1.0}),
    ("logistic", 24, 32, {"m": 20, "lam": 1e-3, "alpha": 1.0}),
    ("logistic", 3, 4, {"m": 7, "lam": 0.5, "alpha": 2.0}),
    ("sincos", 6, 10, {}),
    ("sincos", 7, 33, {}),
    ("quadratic", 100, 100, {}),
    ("logistic", 5, 1, {"m": 200, "lam": 1e-3, "alpha": 1.0}),
    ("logistic", 5, 10, {"m": 1, "lam": 1e-3, "alpha": 1.0}),
    ("logistic", 4, 1, {"m": 1, "lam": 1e-3, "alpha": 1.0}),
]


@pytest.mark.parametrize("kind,n,d,params", OBJECTIVE_KINDS)
def test_stacked_gradient_equals_per_agent_grad(kind, n, d, params):
    objs = make_objectives(kind, n, d, StreamFactory(master_seed=n + d), **params)
    assert isinstance(objs, AgentObjectives)
    rng = np.random.default_rng(43)
    for scale in (1.0, 1e3):
        x = scale * rng.standard_normal((n, d))
        want = np.stack([obj.grad(xi) for obj, xi in zip(objs, x)])
        assert objs.grad(x).tobytes() == want.tobytes()
    with pytest.raises(DimensionMismatch):
        objs.grad(np.zeros(d))


def test_agent_objectives_fall_back_to_each_agents_grad():
    # A subclass may override grad; the stacked formula must not bypass it.
    class Shifted(QuadraticObjective):
        def grad(self, x):
            return super().grad(x) + 1.0

    objs = AgentObjectives([Shifted(anchor=np.zeros(3)), Shifted(anchor=np.ones(3))])
    x = np.arange(6.0).reshape(2, 3)
    assert objs.grad(x).tolist() == [[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]


def test_laplace_rows_equal_per_row_draws():
    streams = StreamFactory(master_seed=44)
    gens = [streams.get(i, Tag.NOISE_X, 9) for i in range(12)]
    rows = sample_laplace(0.7, 25, gens)
    again = [streams.get(i, Tag.NOISE_X, 9) for i in range(12)]
    loop = np.stack([sample_laplace(0.7, 25, g) for g in again])
    assert rows.tobytes() == loop.tobytes()
    assert sample_laplace(0.0, 25, gens).tobytes() == np.zeros((12, 25)).tobytes()


def test_row_draws_return_fresh_buffers():
    # The uniforms are written into a block allocated per call; a block
    # kept between calls would let the next call overwrite this result.
    streams = StreamFactory(master_seed=48)
    spec = make_spec("bbit", 25, b=3)
    x = np.random.default_rng(49).standard_normal((6, 25))
    for draw in (
        lambda k: sample_laplace(0.7, 25, streams.rows(Tag.NOISE_X, k, 6)),
        lambda k: compress(spec, x, streams.rows(Tag.COMPRESS, k, 6)),
    ):
        first = draw(1)
        kept = first.tobytes()
        second = draw(2)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept


def _per_agent_bound(objectives, radius, trials, rng):
    worst = 0.0
    for _ in range(trials):
        x = rng.uniform(-radius, radius, size=objectives[0].d)
        for obj in objectives:
            worst = max(worst, float(np.linalg.norm(obj.grad(x))))
    return 1.1 * worst


@pytest.mark.parametrize("kind,n,d,params", OBJECTIVE_KINDS)
def test_grad_bound_equals_per_agent_loop(kind, n, d, params):
    objs = make_objectives(kind, n, d, StreamFactory(master_seed=45), **params)
    got = estimate_grad_bound(objs, 2.0, 50, np.random.default_rng(46))
    assert got == _per_agent_bound(objs, 2.0, 50, np.random.default_rng(46))
    # A plain list of agents gives the same bound.
    assert got == estimate_grad_bound(list(objs), 2.0, 50, np.random.default_rng(46))
