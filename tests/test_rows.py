"""Row-wise paths equal the per-agent loop bit for bit.

The engines evaluate all n agents as (n, d) arrays: one gradient call,
one encode per round (pgtc stacks its x and y rows), one Laplace
transform. The
contraction gate compresses its trials, and the gradient bound
evaluates its points, in chunks of rows. Each test compares that call
with a loop of one-row calls, or of per-agent gradients, by the bytes of
the result.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dpcopt.compressors import (
    GATE_CHUNK_ELEMENTS,
    ContractionReport,
    compress,
    encode_decode,
    make_spec,
    row_dots,
    row_norms,
    validate_contraction,
)
from dpcopt.errors import ConfigInvalid, DimensionMismatch
from dpcopt.noise import sample_laplace
from dpcopt.objectives import (
    BOUND_CHUNK_ELEMENTS,
    AgentObjectives,
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
    loop = np.concatenate(
        [compress(spec, xi[None], [g]) for xi, g in zip(x, _generators(8, 5))]
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
    # exactly zero must not draw, or its y-encode would shift. Sender 2's
    # x and y differences are zero, sender 3's x and sender 4's y.
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
        want_x.append(encode_decode(spec, xa[i:i + 1], xc[i:i + 1], [g]))
        want_y.append(encode_decode(spec, ya[i:i + 1], yc[i:i + 1], [g]))
    assert xhat.tobytes() == np.concatenate(want_x).tobytes()
    assert yhat.tobytes() == np.concatenate(want_y).tobytes()
    assert xhat[3].tobytes() == xc[3].tobytes()

    # The stacked pgtc call: x rows, then y rows, in one (2n, d) encode
    # with each sender's stream listed twice, draws in the same order.
    stacked_gens = _generators(n, 41)
    zhat = encode_decode(
        spec, np.concatenate([xa, ya]), np.concatenate([xc, yc]), stacked_gens * 2
    )
    assert zhat.tobytes() == np.concatenate([xhat, yhat]).tobytes()

    # Both ways leave every stream at the same place, and sender 2, which
    # sent two zero differences, left its stream untouched.
    after = [g.random() for g in gens]
    assert [g.random() for g in stacked_gens] == after
    fresh = _generators(n, 41)
    assert after[2] == fresh[2].random()
    assert after[0] != fresh[0].random()


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
        err = compress(spec, x[None], [rng])[0] / spec.r - x
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
        # Agent i's gradient at its own point, as value_grad's term i.
        want = np.stack([objs._term(i, xi)[1] for i, xi in enumerate(x)])
        assert objs.grad(x).tobytes() == want.tobytes()
    with pytest.raises(DimensionMismatch):
        objs.grad(np.zeros(d))


def _grad_contract_cases():
    for kind, n, d, params in OBJECTIVE_KINDS:
        yield pytest.param(
            lambda kind=kind, n=n, d=d, params=params: make_objectives(
                kind, n, d, StreamFactory(master_seed=n + d), **params
            ),
            id=f"{kind}-{n}-{d}",
        )


@pytest.mark.parametrize("build", _grad_contract_cases())
def test_grad_over_leading_axes_equals_one_call_per_point(build):
    objs = build()
    n, d = len(objs), objs.d
    rng = np.random.default_rng(51)
    x = rng.standard_normal((4, n, d)) * np.array([1.0, 10.0, 1e3, 0.0])[:, None, None]
    want = np.stack([objs.grad(point) for point in x])
    assert objs.grad(x).tobytes() == want.tobytes()
    # Two leading axes, and one point repeated for every agent as a
    # stride-0 view, the input estimate_grad_bound passes.
    assert objs.grad(x.reshape(2, 2, n, d)).tobytes() == want.tobytes()
    shared = np.broadcast_to(x[:, 0, None, :], x.shape)
    want_shared = np.stack([objs.grad(np.tile(point[0], (n, 1))) for point in shared])
    assert objs.grad(shared).tobytes() == want_shared.tobytes()
    for shape in [(n,), (d,), (3, n, d + 1), (3, n + 1, d)]:
        with pytest.raises(DimensionMismatch):
            objs.grad(np.zeros(shape))


def test_laplace_rows_equal_per_row_draws():
    streams = StreamFactory(master_seed=44)
    gens = [streams.get(i, Tag.NOISE_X, 9) for i in range(12)]
    rows = sample_laplace(0.7, 25, gens)
    again = [streams.get(i, Tag.NOISE_X, 9) for i in range(12)]
    loop = np.concatenate([sample_laplace(0.7, 25, [g]) for g in again])
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
        x = rng.uniform(-radius, radius, size=objectives.d)
        for i in range(len(objectives)):
            worst = max(worst, float(np.linalg.norm(objectives._term(i, x)[1])))
    return 1.1 * worst


@pytest.mark.parametrize("kind,n,d,params", OBJECTIVE_KINDS)
def test_grad_bound_equals_per_agent_loop(kind, n, d, params):
    objs = make_objectives(kind, n, d, StreamFactory(master_seed=45), **params)
    got = estimate_grad_bound(objs, 2.0, 50, np.random.default_rng(46))
    assert got == _per_agent_bound(objs, 2.0, 50, np.random.default_rng(46))


def _edges(step: int) -> list[int]:
    """Trial counts at the chunk edges of a chunk of step rows."""
    return [t for t in (1, step - 1, step, step + 1, 2 * step + 1) if t >= 1]


# Agents whose bound chunk is short enough for the per-agent reference,
# with the elements of their largest gradient temporary per point: the
# logistic margins set it by m, the others by d.
EDGE_AGENTS = [
    pytest.param(
        lambda: make_objectives(
            "logistic", 6, 10, StreamFactory(master_seed=52), m=200, lam=1e-3, alpha=1.0
        ),
        6 * 200,
        id="logistic-6-10-m200",
    ),
    pytest.param(
        lambda: make_objectives("sincos", 7, 33, StreamFactory(master_seed=52)),
        7 * 33,
        id="sincos-7-33",
    ),
    pytest.param(
        lambda: make_objectives("quadratic", 100, 100, StreamFactory(master_seed=52)),
        100 * 100,
        id="quadratic-100-100",
    ),
    pytest.param(
        lambda: make_objectives("quadratic", 4, 300, StreamFactory(master_seed=52)),
        4 * 300,
        id="quadratic-4-300",
    ),
]


@pytest.mark.parametrize("build,point_elements", EDGE_AGENTS)
def test_grad_bound_at_chunk_edges_equals_per_agent_loop(build, point_elements):
    objs = build()
    assert objs.point_elements == point_elements
    for trials in _edges(BOUND_CHUNK_ELEMENTS // point_elements):
        got = estimate_grad_bound(objs, 3.0, trials, np.random.default_rng(trials))
        assert got == _per_agent_bound(objs, 3.0, trials, np.random.default_rng(trials))


@pytest.mark.parametrize("d", [1, 100, 1000])
@pytest.mark.parametrize("kind,params", [("bbit", {"b": 4}), ("topk", {"k": 1})])
def test_contraction_gate_at_chunk_edges_equals_per_trial_loop(kind, params, d):
    spec = make_spec(kind, d, **params)
    step = GATE_CHUNK_ELEMENTS // d
    # The gate needs 1000 trials: straddle the first chunk edge above.
    edge = step * -(-1001 // step)
    for trials in (edge - 1, edge, edge + 1):
        report = validate_contraction(spec, d, trials, np.random.default_rng(trials))
        ratio = _per_trial_ratio(spec, d, trials, np.random.default_rng(trials))
        assert report.empirical_ratio == ratio


class _ZeroAt:
    """A generator whose standard_normal calls number `zero_calls` fill
    zeros in place of the draw; counts the calls to random."""

    def __init__(self, seed: int, zero_calls: set[int]) -> None:
        self._rng = np.random.default_rng(seed)
        self._zero_calls = zero_calls
        self.normal_calls = 0
        self.random_calls = 0

    def standard_normal(self, *args, **kwargs):
        got = self._rng.standard_normal(*args, **kwargs)
        if self.normal_calls in self._zero_calls:
            got[...] = 0.0
        self.normal_calls += 1
        return got

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self._rng.random(*args, **kwargs)


def test_contraction_gate_skips_a_zero_vector_without_drawing_its_dither():
    d, trials = 100, 1000
    spec = make_spec("bbit", d, b=4)
    # One zero vector inside a chunk and one at each side of a chunk edge.
    step = GATE_CHUNK_ELEMENTS // d
    zeros = {5, step - 1, step}
    rng = _ZeroAt(53, zeros)
    report = validate_contraction(spec, d, trials, rng)
    reference = _ZeroAt(53, zeros)
    assert report.empirical_ratio == _per_trial_ratio(spec, d, trials, reference)
    assert rng.normal_calls == trials
    assert rng.random_calls == reference.random_calls == trials - len(zeros)
