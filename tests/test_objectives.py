"""Benchmark objectives: analytic gradients, datasets, gradient bound."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from common import (
    exhaustive_quadratic_bound,
    family_params,
    finite_diff_grad,
    plain_logistic_formulas,
    plain_logistic_grad,
    plain_logistic_loss,
)
from dpcopt import objectives
from dpcopt.compressors import row_norms
from dpcopt.errors import ConfigInvalid, DimensionMismatch, DpcoptError
from dpcopt.objectives import (
    BOUND_CHUNK_ELEMENTS,
    MAX_BOX_RADIUS,
    SATURATED_MARGIN,
    SCREEN_GEMM_MACS,
    LogisticObjective,
    QuadraticObjective,
    SinCosObjective,
    draw_zero_sum_coefficients,
    estimate_grad_bound,
    make_objectives,
    mean_value_grad,
)
from dpcopt.rng import StreamFactory, Tag


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(1.0, float(np.linalg.norm(want)))
    return float(np.linalg.norm(got - want)) / scale


def _dataset(m: int, d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One agent's logistic data as (1, m, d) features and (1, m) labels:
    standard Gaussian features, then labels uniform on {-1, +1}."""
    features = rng.standard_normal((1, m, d))
    labels = 2.0 * rng.integers(0, 2, size=(1, m)).astype(np.float64) - 1.0
    return features, labels


def test_dataset_validation():
    # LogisticObjective checks the blocks it is given.
    feats = np.zeros((1, 3, 2))
    LogisticObjective(feats, np.array([[1.0, -1.0, 1.0]]), 0.0, 1.0)
    with pytest.raises(ConfigInvalid, match="exactly"):
        LogisticObjective(feats, np.array([[1.0, 0.0, 1.0]]), 0.0, 1.0)
    with pytest.raises(DimensionMismatch, match="nonempty"):
        LogisticObjective(np.zeros((1, 0, 2)), np.zeros((1, 0)), 0.0, 1.0)
    with pytest.raises(DimensionMismatch, match="nonempty"):
        LogisticObjective(np.zeros((3, 2)), np.ones(3), 0.0, 1.0)
    with pytest.raises(DimensionMismatch, match="align"):
        LogisticObjective(feats, np.ones((1, 2)), 0.0, 1.0)
    with pytest.raises(ConfigInvalid, match="objective.alpha: must be >= 0"):
        LogisticObjective(feats, np.ones((1, 3)), 0.0, -1.0)


def test_generate_dataset_shapes_and_labels():
    # make_objectives draws an agent's features and then its labels from
    # its data stream; the signed rows -u_j v_j over the features give the
    # labels back, one per row.
    for m, d in ((200, 10), (1, 1)):
        objs = make_objectives("logistic", 1, d, StreamFactory(0), m=m, lam=1e-3, alpha=1.0)
        assert objs.signed.shape == (1, m, d)
        features = StreamFactory(0).get(0, Tag.DATA, 0).standard_normal((m, d))
        labels = -objs.signed[0] / features
        assert set(np.unique(labels)) <= {-1.0, 1.0}
        assert np.array_equal(labels, np.broadcast_to(labels[:, :1], (m, d)))


def test_generate_dataset_deterministic():
    a = make_objectives("logistic", 3, 4, StreamFactory(7), m=50, lam=1e-3, alpha=1.0)
    b = make_objectives("logistic", 3, 4, StreamFactory(7), m=50, lam=1e-3, alpha=1.0)
    assert a.signed.tobytes() == b.signed.tobytes()


def test_logistic_at_zero():
    rng = np.random.default_rng(1)
    features, labels = _dataset(20, 5, rng)
    value, grad = LogisticObjective(features, labels, 0.001, 1.0).value_grad(np.zeros(5))
    assert value == pytest.approx(np.log(2.0), rel=1e-12)
    expected = -np.mean(labels[0, :, None] * features[0], axis=0) / 2.0
    assert np.allclose(grad, expected, atol=1e-12)


def test_logistic_lambda_zero_drops_regularizer():
    rng = np.random.default_rng(2)
    data = _dataset(10, 3, rng)
    x = rng.standard_normal(3)
    v0, g0 = LogisticObjective(*data, 0.0, 1.0).value_grad(x)
    v1, g1 = LogisticObjective(*data, 0.001, 1.0).value_grad(x)
    reg = np.sum(0.001 * x**2 / (1.0 + x**2))
    assert v1 - v0 == pytest.approx(reg, rel=1e-12)
    assert not np.array_equal(g0, g1)


def test_logistic_stable_at_large_arguments():
    rng = np.random.default_rng(3)
    x = 1e3 * np.ones(3)
    value, grad = LogisticObjective(*_dataset(10, 3, rng), 0.001, 1.0).value_grad(x)
    assert np.isfinite(value)
    assert np.all(np.isfinite(grad))
    assert value >= 0.0


def _logaddexp_mean_grad(
    features: np.ndarray, labels: np.ndarray, lam: float, alpha: float, x: np.ndarray
) -> np.ndarray:
    """The logistic gradient of one agent's (m, d) features and (m,)
    labels as first written: sigma as exp(-logaddexp) and the data term as
    a mean over the samples."""
    z = -labels * np.matmul(features, x[:, None])[:, 0]
    sigma = np.exp(-np.logaddexp(0.0, -z))
    grad = -(features * (labels * sigma)[:, None]).mean(axis=0)
    denom = 1.0 + alpha * (x * x)
    return grad + 2.0 * lam * alpha * x / (denom * denom)


# Margins where sigma saturates, underflows to subnormals or to zero, or
# switches between its two branches.
EDGE_MARGINS = [-800.0, -745.2, -709.8, -36.0, -1e-9, 0.0, 1e-9, 36.0, 709.8, 800.0]


@pytest.mark.parametrize("m", [1, 200])
@pytest.mark.parametrize("d", [1, 10])
def test_logistic_grad_matches_the_logaddexp_mean_formula(m, d):
    rng = np.random.default_rng(10 * m + d)
    for trial in range(2 * len(EDGE_MARGINS)):
        x = rng.standard_normal(d)
        features, labels = _dataset(m, d, rng)
        margins = rng.uniform(-800.0, 800.0, size=m)
        if m == 1:
            margins[0] = EDGE_MARGINS[trial % len(EDGE_MARGINS)]
        else:
            margins[: len(EDGE_MARGINS)] = EDGE_MARGINS
        # Rescale each feature row so that its margin -u_j x^T v_j is the target.
        raw = -labels[0] * (features[0] @ x)
        scaled = features * (margins / raw)[:, None]
        obj = LogisticObjective(scaled, labels, 1e-3, 1.0)
        got = obj.grad(x[None])[0]
        want = _logaddexp_mean_grad(scaled[0], labels[0], 1e-3, 1.0, x)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        assert obj._term(0, x)[1].tobytes() == got.tobytes()


def _unsigned_logistic_grad(features, labels, lam, alpha, x):
    """The logistic gradient before the signed features: margins
    -u * (V x), sigma from exp(-|z|) on two branches, c = u * sigma and the
    data term -(c^T V) / m. Broadcasts over a leading agent axis."""
    z = -labels * np.matmul(features, x[..., None])[..., 0]
    e = np.exp(-np.abs(z))
    sigma = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    c = labels * sigma
    grad = -(np.matmul(c[..., None, :], features)[..., 0, :] / features.shape[-2])
    denom = 1.0 + alpha * (x * x)
    return grad + 2.0 * lam * alpha * x / (denom * denom)


def _assert_kernel_keeps_its_bits(features, labels, lam, alpha, x):
    """The stacked grad, each of its rows with every agent at that row's
    point, and each agent's term of value_grad all equal the unsigned
    formula byte for byte; features (n, m, d), labels (n, m), x (n, d)."""
    objs = LogisticObjective(features, labels, lam, alpha)
    n, d = x.shape
    want = _unsigned_logistic_grad(features, labels, lam, alpha, x)
    assert objs.grad(x).tobytes() == want.tobytes()
    for i in range(n):
        row = _unsigned_logistic_grad(features[i], labels[i], lam, alpha, x[i])
        assert row.tobytes() == want[i].tobytes()
        assert objs.grad(np.broadcast_to(x[i], (n, d)))[i].tobytes() == row.tobytes()
        assert objs._term(i, x[i])[1].tobytes() == row.tobytes()


@st.composite
def _logistic_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    d = draw(st.integers(1, 6))
    # Products up to 1e6 * d push |z| past 745, where e underflows to 0;
    # the float strategy also draws exact zeros of either sign.
    values = st.floats(-1e3, 1e3)
    features = draw(hnp.arrays(np.float64, (n, m, d), elements=values))
    labels = draw(hnp.arrays(np.float64, (n, m), elements=st.sampled_from([-1.0, 1.0])))
    lam = draw(st.floats(0.0, 1.0))
    alpha = draw(st.floats(0.0, 10.0))
    x = draw(hnp.arrays(np.float64, (n, d), elements=values))
    return features, labels, lam, alpha, x


@settings(max_examples=200, deadline=None)
@given(_logistic_cases())
def test_signed_kernel_equals_the_unsigned_formula_bytewise(case):
    _assert_kernel_keeps_its_bits(*case)


def _edge_case(name):
    """Features (n, m, d), labels (n, m), lambda, the alphas to try and
    points x (n, d) for one named edge case."""
    rng = np.random.default_rng(31)
    n, m, d = 3, 1 if name == "m=1" else 7, 4
    features = rng.standard_normal((n, m, d))
    labels = rng.choice([-1.0, 1.0], size=(n, m))
    x = rng.standard_normal((n, d))
    if name == "z=0":
        x[:] = 0.0
        x[1] = -0.0
    elif name == "|z|>745":
        # Row j of agent i gets margin +-(750 + j); exp(-750) underflows.
        # Agent 0's margins are all negative, so its sigma is 0 throughout:
        # its data term is an exact zero, whose sign shows where x is -0.0.
        x[0, 0] = -0.0
        z = -labels * np.matmul(features, x[..., None])[..., 0]
        target = np.sign(z) * (750.0 + np.arange(m))
        target[0] = -np.abs(target[0])
        features *= (target / z)[..., None]
    elif name == "signed zeros":
        x[:, ::2] = 0.0
        x[:, 1::2] *= np.array([[-0.0], [0.0], [-0.0]])
    return features, labels, 1e-3, (1.0, 0.0, 2.5), x


def _assert_stack_equals_single_points(objs, x):
    """Each agent's term of value_grad, and mean_value_grad, on the stack
    x (..., d) equal their calls on each point alone: values ==, gradients
    and the norms of the mean gradients byte for byte; and agent i's
    term equals row i of grad with every agent at each point."""
    points = list(np.ndindex(x.shape[:-1]))
    n, d = len(objs), x.shape[-1]
    stacked = objs.grad(np.broadcast_to(x[..., None, :], x.shape[:-1] + (n, d)))
    for i in range(n):
        values, grads = objs._term(i, x)
        assert values.shape == x.shape[:-1] and grads.shape == x.shape
        assert stacked[..., i, :].tobytes() == grads.tobytes()
        for index in points:
            value, grad = objs._term(i, x[index])
            assert values[index] == value
            assert grads[index].tobytes() == grad.tobytes()
    values, grads = mean_value_grad(objs, x)
    norms = row_norms(grads)
    for index in points:
        value, grad = mean_value_grad(objs, x[index])
        assert values[index] == value
        assert grads[index].tobytes() == grad.tobytes()
        assert norms[index].tobytes() == np.float64(np.linalg.norm(grad)).tobytes()


@st.composite
def _stacked_points(draw):
    kind = draw(st.sampled_from(["logistic", "sincos", "quadratic"]))
    n = draw(st.integers(1, 3))
    # Past 8 terms numpy's and BLAS's sums split into partial sums, whose
    # order a stacked call must keep too.
    d = draw(st.integers(1, 24))
    # Products up to 1e6 * d push logistic margins past +-745; the float
    # strategy also draws exact zeros of either sign.
    values = st.floats(-1e3, 1e3)
    if kind == "logistic":
        m = draw(st.integers(1, 24))
        objs = LogisticObjective(
            draw(hnp.arrays(np.float64, (n, m, d), elements=values)),
            draw(hnp.arrays(np.float64, (n, m), elements=st.sampled_from([-1.0, 1.0]))),
            lam=draw(st.floats(0.0, 1.0)),
            alpha=draw(st.floats(0.0, 10.0)),
        )
    elif kind == "sincos":
        objs = SinCosObjective(draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0))), d)
    else:
        objs = QuadraticObjective(draw(hnp.arrays(np.float64, (n, d), elements=values)))
    lead = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=5))
    return objs, draw(hnp.arrays(np.float64, lead + (d,), elements=values))


@settings(max_examples=200, deadline=None)
@given(_stacked_points())
def test_value_grad_on_a_stack_equals_one_call_per_point(case):
    _assert_stack_equals_single_points(*case)


@pytest.mark.parametrize("name", ["z=0", "|z|>745", "signed zeros"])
def test_logistic_stack_keeps_its_bits_at_the_edges(name):
    # Agent i's edge-case margins are those at point x[i], and the stack
    # holds every agent's point.
    features, labels, lam, alphas, x = _edge_case(name)
    for alpha in alphas:
        _assert_stack_equals_single_points(LogisticObjective(features, labels, lam, alpha), x)


@pytest.mark.parametrize("name", ["z=0", "|z|>745", "m=1", "signed zeros"])
def test_signed_kernel_keeps_its_bits_at_the_edges(name):
    features, labels, lam, alphas, x = _edge_case(name)
    if name == "|z|>745":
        z = -labels * np.matmul(features, x[..., None])[..., 0]
        assert np.all(np.abs(z) > 745.0) and np.exp(-np.abs(z)).max() == 0.0
        assert np.all(z[0] < 0.0)
    for alpha in alphas:
        _assert_kernel_keeps_its_bits(features, labels, lam, alpha, x)


def _out_of_place_logistic_grad(signed, reg, alpha, x):
    """The signed kernel as it was before it worked in place: a fresh
    array at every step. Broadcasts like the kernel."""
    z = np.matmul(signed, x[..., None])[..., 0]
    e = np.exp(-np.abs(z))
    neg_sigma = np.maximum((z >= 0).astype(np.float64), e) / (-1.0 - e)
    grad = np.matmul(neg_sigma[..., None, :], signed)[..., 0, :] / -signed.shape[-2]
    denom = 1.0 + alpha * (x * x)
    return grad + reg * x / (denom * denom)


def _wrapped_logistic_value(objs, i, x):
    """Agent i's loss value through np.mean and np.sum."""
    z = np.matmul(objs.signed[i], x[:, None])[:, 0]
    xsq = x * x
    return float(np.mean(np.logaddexp(0.0, z))) + float(
        np.sum(objs.lam * objs.alpha * xsq / (1.0 + objs.alpha * xsq))
    )


def _read_only(x):
    locked = x.copy()
    locked.flags.writeable = False
    return locked


@pytest.mark.parametrize("name", ["z=0", "|z|>745", "signed zeros", "non-finite x"])
def test_kernel_writes_no_input_and_keeps_the_out_of_place_bits(name):
    features, labels, lam, alphas, x = _edge_case("z=0" if name == "non-finite x" else name)
    if name == "non-finite x":
        x[0, 0], x[1, 1], x[2] = np.inf, -np.inf, np.nan
    signed = -labels[..., None] * features
    n, d = x.shape
    for alpha in alphas:
        objs = LogisticObjective(features, labels, lam, alpha)
        reg = 2.0 * lam * alpha
        with np.errstate(over="ignore", invalid="ignore"):
            # Read-only inputs, as an engine's state views and the bound's
            # stride-0 broadcasts are: an in-place write would raise.
            stacked_inputs = [
                _read_only(x),
                np.broadcast_to(x[0], (n, d)),
                np.broadcast_to(x, (3, n, d)),
            ]
            for xs in stacked_inputs:
                want = _out_of_place_logistic_grad(signed, reg, alpha, xs)
                assert objs.grad(xs).tobytes() == want.tobytes()
            for i in range(n):
                for xi in (_read_only(x[i]), np.broadcast_to(x[i], (d,))):
                    want = _out_of_place_logistic_grad(signed[i], reg, alpha, xi)
                    value, grad = objs._term(i, xi)
                    assert grad.tobytes() == want.tobytes()
                    assert np.float64(value).tobytes() == np.float64(
                        _wrapped_logistic_value(objs, i, xi)
                    ).tobytes()


# Margins where exp(-|z|) turns subnormal (-708.4) and where it rounds to
# +0.0 (below -745.1332...), and the cut itself; each also with its sign
# flipped.
CUT_EDGES = [-708.4, -745.1332191019412, -SATURATED_MARGIN]


def _cut_margins(non_finite: bool):
    """Margin values in and around CUT_EDGES of either sign, signed zeros,
    |z| up to 1e6 and, if non_finite, +-inf and NaN."""
    edges = st.sampled_from(CUT_EDGES + [-z for z in CUT_EDGES] + [0.0, -0.0])
    near = st.builds(lambda z, dz: z + dz, edges, st.floats(-0.2, 0.2))
    values = [edges, near, near, st.floats(-1e6, 1e6)]
    if non_finite:
        values.append(st.sampled_from([np.inf, -np.inf, np.nan]))
    return st.one_of(values)


def _quiet_if_finite(*arrays):
    """A block that turns every numpy warning into an error when all the
    arrays are finite; otherwise one that lets overflow and NaN pass."""
    if all(np.isfinite(a).all() for a in arrays):
        return _no_warnings()
    return np.errstate(over="ignore", invalid="ignore")


@contextmanager
def _no_warnings():
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
        warnings.simplefilter("error")
        yield


@st.composite
def _kernel_margins(draw):
    """Signed features (n, m, d), reg and alpha (n, 1) columns, points
    (..., n, d) and margins (..., n, m) drawn on their own, so that they
    can take any value: the kernel is elementwise in the margins. A drawn
    flag makes every margin <= 0, where sigma is the exp itself."""
    n, m, d = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    signed = draw(hnp.arrays(np.float64, (n, m, d), elements=st.floats(-1e3, 1e3)))
    x = draw(hnp.arrays(np.float64, lead + (n, d), elements=st.floats(-1e3, 1e3)))
    z = draw(hnp.arrays(np.float64, lead + (n, m), elements=_cut_margins(draw(st.booleans()))))
    if draw(st.booleans()):
        z = -np.abs(z)
    # lam = 0 leaves the data term alone in the gradient, so that even a
    # lone subnormal sigma shows in its bytes.
    lam = draw(hnp.arrays(np.float64, (n, 1), elements=st.sampled_from([0.0, 1e-3, 1.0])))
    alpha = draw(hnp.arrays(np.float64, (n, 1), elements=st.floats(0.0, 10.0)))
    return signed, 2.0 * lam * alpha, alpha, x, z


@settings(max_examples=300, deadline=None)
@given(_kernel_margins())
def test_saturation_cut_keeps_the_plain_kernel_and_loss_bytes(case):
    signed, reg, alpha, x, z = case
    want = plain_logistic_grad(signed, reg, alpha, x, z)
    with _quiet_if_finite(x, z):
        got = objectives._logistic_grad(signed, reg, alpha, x, z)
        out = objectives._logistic_buffers(z.shape, signed.shape[-1])
        into = objectives._logistic_grad(signed, reg, alpha, x, z, out)
        loss = objectives._logistic_loss(z)
    assert got.tobytes() == want.tobytes()
    # The gradient is written into the last buffer.
    assert into.tobytes() == out[-1].tobytes() == want.tobytes()
    assert np.shares_memory(into, out[-1])
    with np.errstate(invalid="ignore"):
        assert loss.tobytes() == plain_logistic_loss(z).tobytes()


@st.composite
def _saturating_agents(draw):
    """Logistic agents with one m whose margins at a base point x0 lie in
    and around CUT_EDGES, and a stack (..., d) of multiples of x0, by
    factors near 1 and up to 1e3, so that the margins move around the
    edges and reach |z| = 1e6; a factor may be +-inf or NaN."""
    n, m, d = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    # x0 and the raw features are positive, so no raw margin is zero.
    positive = st.floats(0.5, 2.0)
    x0 = draw(hnp.arrays(np.float64, d, elements=positive))
    features, labels = np.empty((n, m, d)), np.empty((n, m))
    for i in range(n):
        features[i] = draw(hnp.arrays(np.float64, (m, d), elements=positive))
        labels[i] = draw(hnp.arrays(np.float64, m, elements=st.sampled_from([-1.0, 1.0])))
        target = draw(hnp.arrays(np.float64, m, elements=_cut_margins(False)))
        if draw(st.booleans()):
            target = -np.abs(target)
        # Row j scaled so that its margin -u_j v_j^T x0 is about target_j.
        features[i] *= (target / (-labels[i] * (features[i] @ x0)))[:, None]
    objs = LogisticObjective(
        features, labels, lam=draw(st.sampled_from([0.0, 1e-3])), alpha=draw(st.floats(0.0, 10.0))
    )
    factors = st.one_of(
        st.floats(0.999, 1.001), st.floats(-1e3, 1e3),
        st.sampled_from([1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, np.nan]),
    )
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    scale = draw(hnp.arrays(np.float64, lead, elements=factors))
    return objs, np.multiply.outer(scale, x0)


def _logistic_entry_points(objs, x):
    """The bytes of every logistic entry point on a stack x (..., d): each
    agent's term of value_grad on the stack and on each point alone, grad
    with every agent at each point alone and at the whole stack, and the
    network mean."""
    got = []
    n, d = len(objs), x.shape[-1]
    for i in range(n):
        got += [*objs._term(i, x)]
        for index in np.ndindex(x.shape[:-1]):
            value, grad = objs._term(i, x[index])
            got += [np.float64(value), grad]
    for index in np.ndindex(x.shape[:-1]):
        got.append(objs.grad(np.broadcast_to(x[index], (n, d))))
    got += list(mean_value_grad(objs, x))
    got.append(objs.grad(np.broadcast_to(x[..., None, :], x.shape[:-1] + (n, d))))
    return [np.asarray(a).tobytes() for a in got]


@settings(max_examples=200, deadline=None)
@given(_saturating_agents())
def test_saturation_cut_keeps_every_logistic_entry_point_bytewise(case):
    objs, x = case
    with _quiet_if_finite(x):
        got = _logistic_entry_points(objs, x)
    with np.errstate(over="ignore", invalid="ignore"), plain_logistic_formulas():
        want = _logistic_entry_points(objs, x)
    assert got == want


def test_logistic_dimension_mismatch():
    data = _dataset(5, 3, np.random.default_rng(4))
    with pytest.raises(DimensionMismatch):
        LogisticObjective(*data, 0.0, 1.0).value_grad(np.zeros(4))


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    obj = LogisticObjective(*_dataset(5, 3, rng), 0.001, 1.0)
    for _ in range(10):
        x = rng.standard_normal(3)
        _, grad = obj.value_grad(x)
        fd = finite_diff_grad(
            lambda p: obj.value_grad(p)[0],
            x,
            h=1e-6 * (1.0 + float(np.linalg.norm(x))),
        )
        assert _rel_err(grad, fd) <= 1e-6


def test_sincos_at_zero():
    value, grad = SinCosObjective([0.7], 10).value_grad(np.zeros(10))
    assert value == 0.0
    assert np.allclose(grad, 0.7 * np.ones(10), atol=1e-15)


def test_sincos_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    obj = SinCosObjective([0.7], 10)
    for _ in range(10):
        x = rng.standard_normal(10)
        _, grad = obj.value_grad(x)
        fd = finite_diff_grad(
            lambda p: obj.value_grad(p)[0],
            x,
            h=1e-6 * (1.0 + float(np.linalg.norm(x))),
        )
        assert _rel_err(grad, fd) <= 1e-6


def test_sincos_lower_bound_sanity():
    rng = np.random.default_rng(7)
    m_i, d = -0.4, 6
    for _ in range(100):
        x = 3.0 * rng.standard_normal(d)
        value, _ = SinCosObjective([m_i], d).value_grad(x)
        floor = float(x @ x) - 3.0 * d - abs(m_i) * float(np.linalg.norm(x)) * np.sqrt(d)
        assert value >= floor - 1e-9


def test_quadratic_values():
    a = np.zeros(2)
    value, grad = QuadraticObjective([a]).value_grad(np.array([3.0, 4.0]))
    assert value == 12.5
    assert np.array_equal(grad, np.array([3.0, 4.0]))
    value0, grad0 = QuadraticObjective([[1.0, -1.0]]).value_grad(np.array([1.0, -1.0]))
    assert value0 == 0.0
    assert np.array_equal(grad0, np.zeros(2))
    with pytest.raises(DimensionMismatch):
        QuadraticObjective(np.zeros((1, 3))).value_grad(np.zeros(2))


def test_quadratic_pl_inequality_exact():
    # 0.5*||grad||^2 = f - f* holds with equality (nu = 1, f* = 0)
    rng = np.random.default_rng(8)
    a = rng.standard_normal(4)
    for _ in range(20):
        x = rng.standard_normal(4)
        value, grad = QuadraticObjective([a]).value_grad(x)
        assert 0.5 * float(grad @ grad) == pytest.approx(value, rel=1e-12)


def test_finite_diff_on_quadratic():
    fd = finite_diff_grad(lambda p: float(p @ p), np.array([1.0, 2.0]), h=1e-5)
    assert np.allclose(fd, [2.0, 4.0], atol=1e-8)
    with pytest.raises(ConfigInvalid):
        finite_diff_grad(lambda p: 0.0, np.zeros(2), h=0.0)


def test_zero_sum_coefficients():
    rng = np.random.default_rng(9)
    for _ in range(50):
        coeffs = draw_zero_sum_coefficients(6, rng)
        assert coeffs.shape == (6,)
        assert float(coeffs.sum()) == pytest.approx(0.0, abs=1e-15)
        assert np.all(coeffs != 0.0)
    with pytest.raises(ConfigInvalid):
        draw_zero_sum_coefficients(1, rng)


def test_estimate_grad_bound_quadratic_box():
    # anchor 0, radius 1, d=2: sup norm over box is sqrt(2) at corners
    objs = QuadraticObjective(np.zeros((1, 2)))
    bound = estimate_grad_bound(objs, radius=1.0, trials=4000, rng=np.random.default_rng(10))
    assert bound <= 1.1 * np.sqrt(2.0) + 1e-12
    assert bound >= 1.1 * 0.9 * np.sqrt(2.0)  # sampling reaches near the corner


def test_estimate_grad_bound_logistic_analytic_cap():
    rng = np.random.default_rng(11)
    features, labels = _dataset(30, 4, rng)
    objs = LogisticObjective(features, labels, lam=0.0, alpha=1.0)
    bound = estimate_grad_bound(objs, radius=2.0, trials=500, rng=rng)
    cap = 1.1 * float(np.max(np.linalg.norm(features[0], axis=1)))
    assert bound <= cap + 1e-12


def test_estimate_grad_bound_zero_objective():
    objs = QuadraticObjective(np.zeros((1, 3)))
    # radius 0 pins every sample at the anchor, where the gradient is 0
    assert estimate_grad_bound(objs, radius=0.0, trials=10, rng=np.random.default_rng(12)) == 0.0


def test_estimate_grad_bound_holds_one_chunk_of_points_at_a_time():
    # All 100,000 points of d = 50 at once would take 40 MB.
    objs = QuadraticObjective([np.zeros(50), np.ones(50)])
    tracemalloc.start()
    try:
        estimate_grad_bound(objs, radius=1.0, trials=100_000, rng=np.random.default_rng(16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# Radii from the zero box to ones whose squares are subnormal, underflow
# or overflow.
BOUND_RADII = [0.0, 1e-300, 1e-160, 1e-3, 1.0, 7.5, 1e6, 1e150, 1e155, MAX_BOX_RADIUS]


@st.composite
def quadratic_anchors(draw) -> np.ndarray:
    """(n, d) anchors: n in 1..8 or 100, d in 1..120, Gaussian at a drawn
    scale, and in some draws duplicated, mirrored through the origin, or
    each a few ulps per coordinate from the first (exact and near ties
    between agents), or holding one NaN."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 100]), label="n")
    d = draw(st.integers(1, 120), label="d")
    scale = draw(st.sampled_from([0.0, 1e-300, 1e-160, 1.0, 7.5, 1e150, 1e155]), label="scale")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="anchor seed"))
    anchors = rng.standard_normal((n, d)) * scale
    layouts = ["plain", "duplicated", "mirrored", "ulps apart", "nan"]
    layout = draw(st.sampled_from(layouts), label="layout")
    if layout == "duplicated":
        anchors[1::2] = anchors[: n // 2]
    elif layout == "mirrored":
        anchors[1::2] = -anchors[: n // 2]
    elif layout == "ulps apart":
        anchors = anchors[0] + anchors[0] * rng.integers(-4, 5, (n, d)) * 2.0**-52
    elif layout == "nan":
        anchors[rng.integers(n), rng.integers(d)] = np.nan
    return anchors


@settings(max_examples=100, deadline=None)
@given(
    quadratic_anchors(),
    st.sampled_from(BOUND_RADII),
    st.sampled_from([100, 2_000, BOUND_CHUNK_ELEMENTS]),
    st.sampled_from([4_096, SCREEN_GEMM_MACS]),
    st.data(),
)
def test_screened_quadratic_bound_equals_the_exhaustive_one(
    anchors, radius, chunk_elements, gemm_macs, data
):
    # Smaller chunks and GEMM tiles than the shipped ones put several
    # chunks, tiles and candidate batches in one small case.
    n, d = anchors.shape
    step = max(1, chunk_elements // max(n, d))
    trials = data.draw(st.integers(1, min(3 * step + 1, 700)), label="trials")
    seed = data.draw(st.integers(0, 2**32 - 1), label="point seed")
    objs = QuadraticObjective(anchors)
    want = exhaustive_quadratic_bound(anchors, radius, trials, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objectives, "BOUND_CHUNK_ELEMENTS", chunk_elements)
        patch.setattr(objectives, "SCREEN_GEMM_MACS", gemm_macs)
        if not math.isfinite(want):
            with pytest.raises(DpcoptError, match="not finite"):
                estimate_grad_bound(objs, radius, trials, np.random.default_rng(seed))
            return
        got = estimate_grad_bound(objs, radius, trials, np.random.default_rng(seed))
    assert got.hex() == want.hex()


def _near_tie_anchors(layout: str, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    if layout == "ulps apart":
        base = rng.standard_normal(d)
        return base + base * rng.integers(-4, 5, (n, d)) * 2.0**-52
    # Squares of about 1e-322 keep a few bits, and E's relative part is 0.
    return rng.standard_normal((n, d)) * 1e-161


@pytest.mark.parametrize("layout,radius", [("ulps apart", 1.0), ("subnormal", 1e-161)])
@pytest.mark.parametrize("n,d", [(100, 40), (8, 120), (100, 120), (8, 10)])
def test_screened_bound_keeps_its_bits_on_near_ties(layout, radius, n, d):
    # Agents a few ulps apart have norms that tie to within the screen's
    # rounding, and subnormal squares round on a coarse absolute grid, so
    # the screen's top pair is often not the one with the largest norm. A
    # screen that re-evaluated only its top pair fails the first layout,
    # and one without E's absolute term fails the second.
    for seed in range(40):
        rng = np.random.default_rng(seed)
        anchors = _near_tie_anchors(layout, n, d, rng)
        objs = QuadraticObjective(anchors)
        want = exhaustive_quadratic_bound(anchors, radius, 20, np.random.default_rng(seed))
        assert estimate_grad_bound(objs, radius, 20, np.random.default_rng(seed)) == want


def test_estimate_grad_bound_rejects_a_radius_it_cannot_draw():
    objs = QuadraticObjective(np.zeros((1, 1)))
    too_wide = math.nextafter(MAX_BOX_RADIUS, math.inf)
    with pytest.raises(ConfigInvalid, match="privacy.box_radius"):
        estimate_grad_bound(objs, radius=too_wide, trials=10, rng=np.random.default_rng(13))


@pytest.mark.parametrize("d", [1, 3])
def test_grad_bound_is_finite_where_the_squared_norms_overflow(d):
    # Every square of a coordinate near 8e307 overflows, yet each gradient
    # norm, and 1.1x the largest, stays below the float range.
    radius = 8e307
    anchors = np.random.default_rng(16).standard_normal((6, d))
    bound = estimate_grad_bound(QuadraticObjective(anchors), radius, 200, np.random.default_rng(17))
    points = np.random.default_rng(17).uniform(-radius, radius, (200, d))
    largest = max(math.hypot(*(point - anchor)) for point in points for anchor in anchors)
    assert largest > 7e307
    assert bound == pytest.approx(1.1 * largest, rel=1e-15)


@pytest.mark.parametrize(
    "objective",
    [
        LogisticObjective(*_dataset(5, 3, np.random.default_rng(14)), lam=1e308, alpha=1.0),
        # Every gradient x - anchor is NaN.
        QuadraticObjective(np.full((1, 3), np.nan)),
    ],
    ids=["overflow", "nan"],
)
def test_estimate_grad_bound_rejects_a_non_finite_norm(objective):
    # Raised under filterwarnings = error, so no overflow warning leaks;
    # a NaN norm must not be skipped as max(worst, nan) would.
    with pytest.raises(DpcoptError, match="not finite") as caught:
        estimate_grad_bound(objective, radius=1.0, trials=20, rng=np.random.default_rng(15))
    assert not isinstance(caught.value, ConfigInvalid)


def test_make_objectives_logistic():
    streams = StreamFactory(master_seed=5)
    objs = make_objectives("logistic", 3, 4, streams, m=7, lam=0.001, alpha=1.0)
    assert len(objs) == 3
    assert objs.d == 4 and objs.signed.shape == (3, 7, 4)
    # per-agent datasets must differ
    assert not np.array_equal(objs.signed[0], objs.signed[1])
    again = make_objectives("logistic", 3, 4, streams, m=7, lam=0.001, alpha=1.0)
    assert np.array_equal(objs.signed[2], again.signed[2])
    with pytest.raises(ConfigInvalid):
        make_objectives("logistic", 3, 4, streams)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_agent_data_is_drawn_from_each_agents_own_data_stream(data):
    # Row i of a family's block holds what a fresh generator on agent i's
    # data stream draws; the shared sincos coefficients come from one
    # stream at round index 1.
    kind = data.draw(st.sampled_from(["logistic", "sincos", "quadratic"]))
    n = data.draw(st.integers(2 if kind == "sincos" else 1, 8))
    d, m = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    seed = data.draw(st.integers(0, 2**63 - 1))
    objs = make_objectives(kind, n, d, StreamFactory(seed), **family_params(kind, m=m))
    fresh = StreamFactory(seed)
    if kind == "sincos":
        head = fresh.get(0, Tag.DATA, 1).uniform(-1.0, 1.0, size=n - 1)
        assert objs.coeffs.tobytes() == np.append(head, -float(head.sum())).tobytes()
        return
    for i in range(n):
        g = fresh.get(i, Tag.DATA, 0)
        if kind == "quadratic":
            assert objs.anchors[i].tobytes() == g.standard_normal(d).tobytes()
        else:
            features = g.standard_normal((m, d))
            labels = 2.0 * g.integers(0, 2, size=m).astype(np.float64) - 1.0
            assert objs.signed[i].tobytes() == (-labels[:, None] * features).tobytes()


@pytest.mark.parametrize("alpha", [-1.0, -4.0, -1e-300, math.nan])
def test_make_objectives_rejects_an_alpha_below_zero(alpha):
    # With alpha < 0 the regulariser has a pole at |x_s| = 1/sqrt(-alpha).
    streams = StreamFactory(master_seed=5)
    with pytest.raises(ConfigInvalid, match="objective.alpha: must be >= 0"):
        make_objectives("logistic", 3, 4, streams, m=7, lam=0.001, alpha=alpha)
    assert make_objectives("logistic", 3, 4, streams, m=7, lam=0.001, alpha=0.0).alpha == 0.0


def test_make_objectives_sincos_zero_sum():
    streams = StreamFactory(master_seed=6)
    objs = make_objectives("sincos", 6, 10, streams)
    assert objs.coeffs.shape == (6, 1)
    total = sum(float(m_i) for m_i in objs.coeffs[:, 0])
    assert total == pytest.approx(0.0, abs=1e-15)
    assert np.all(objs.coeffs != 0.0)
    # the zero-sum structure kills the m-term of the average gradient at 0
    _, gbar = mean_value_grad(objs, np.zeros(10))
    assert np.allclose(gbar, np.zeros(10), atol=1e-16)


def test_make_objectives_quadratic_and_mean():
    streams = StreamFactory(master_seed=7)
    objs = make_objectives("quadratic", 4, 3, streams)
    xbar = objs.anchors.mean(axis=0)
    _, gbar = mean_value_grad(objs, xbar)
    assert np.allclose(gbar, np.zeros(3), atol=1e-15)


def test_make_objectives_unknown_kind():
    with pytest.raises(ConfigInvalid):
        make_objectives("rosenbrock", 2, 2, StreamFactory(master_seed=8))


@pytest.mark.parametrize("kind", ["logistic", "sincos", "quadratic"])
def test_grad_matches_value_grad_bytewise(kind):
    # grad() skips the loss values but shares the gradient arithmetic with
    # value_grad(), so each agent's gradient has the same bits in both, and
    # value_grad's is their in-order mean, large arguments included.
    objs = make_objectives(kind, 3, 6, StreamFactory(master_seed=21), **family_params(kind, m=40))
    rng = np.random.default_rng(22)
    for scale in (1.0, 1e3):
        for _ in range(5):
            x = scale * rng.standard_normal(6)
            grads = objs.grad(np.broadcast_to(x, (3, 6)))
            total = np.zeros(6)
            for i, row in enumerate(grads):
                assert row.tobytes() == objs._term(i, x)[1].tobytes()
                total += row
            assert (total / 3).tobytes() == objs.value_grad(x)[1].tobytes()
    with pytest.raises(DimensionMismatch):
        objs.grad(np.zeros((3, 5)))


@pytest.mark.parametrize("kind", ["logistic", "sincos", "quadratic"])
def test_grad_and_value_grad_do_not_call_each_other(kind, monkeypatch):
    # The benchmark's tracer counts the two as separate calls.
    obj = make_objectives(kind, 2, 3, StreamFactory(master_seed=23), **family_params(kind, m=10))

    def forbidden(self, x):
        raise AssertionError("called through the other method")

    x = np.full(3, 0.5)
    with monkeypatch.context() as patch:
        patch.setattr(type(obj), "value_grad", forbidden)
        obj.grad(np.stack([x, x]))
    with monkeypatch.context() as patch:
        patch.setattr(type(obj), "grad", forbidden)
        obj.value_grad(x)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LogisticObjective(np.zeros((0, 5, 3)), np.zeros((0, 5)), lam=1e-3, alpha=1.0),
        lambda: SinCosObjective([], 3),
        lambda: QuadraticObjective(np.zeros((0, 3))),
    ],
    ids=["logistic", "sincos", "quadratic"],
)
def test_objectives_need_at_least_one_agent(build):
    with pytest.raises(ConfigInvalid, match="objectives: need at least one agent"):
        build()
