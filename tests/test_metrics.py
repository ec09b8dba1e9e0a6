"""Trace metrics tests: residual series, reference points, bit meters,
and the replay-grade CSV writer."""

import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import (
    build_problem,
    csv_columns,
    drawn_run,
    grad_norms_per_round,
    noisy_runs,
    plain_logistic_formulas,
)
from dpcopt import metrics
from dpcopt.compressors import make_spec
from dpcopt.errors import ConfigInvalid, DimensionMismatch, EmptyTrace, NonFiniteState
from dpcopt.metrics import (
    CSV_HEADER,
    Trace,
    final_accuracy,
    reference_point,
    residual_series,
    write_trace_csv,
)
from dpcopt.noise import NoiseSchedule, scale_at
from dpcopt.pgtc import PgtcConfig, pgtc_init, pgtc_run
from dpcopt.ppdc import PpdcConfig, ppdc_init, ppdc_run

QUIET = NoiseSchedule(s=0.0, q=0.5)


def _trace(grads, bits=0, iterates=None):
    """A trace whose rows hold the given gradient norms, zero consensus
    error and residual, and per_round_bits = bits."""
    grads = np.array(grads, dtype=np.float64)
    zeros = np.zeros(len(grads))
    return Trace(zeros, grads, zeros.copy(), bits, QUIET, QUIET, iterates)


def _trace_with_iterates(iterates):
    return _trace(np.ones(len(iterates)), iterates=np.array(iterates))


def _pgtc_config(spec, iterations, noise=QUIET):
    return PgtcConfig(
        eta=0.1, gamma=0.2, alpha_x=0.5, alpha_y=0.5,
        compressor=spec, noise_x=noise, noise_y=noise, iterations=iterations,
    )


def _ppdc_config(spec, iterations, noise=QUIET):
    return PpdcConfig(
        eta=0.015, gamma=45.0, omega=5.0, alpha_x=0.2,
        compressor=spec, noise_x=noise, noise_v=noise, iterations=iterations,
    )


# Gains that keep both engines finite on every drawn connected graph.
NOISY = NoiseSchedule(s=0.5, q=0.9)
ENGINES = {
    "pgtc": (
        lambda spec, iterations, eta=0.05: PgtcConfig(
            eta=eta, gamma=0.2, alpha_x=0.5, alpha_y=0.5, compressor=spec,
            noise_x=NOISY, noise_y=NOISY, iterations=iterations,
        ),
        pgtc_run,
    ),
    "ppdc": (
        lambda spec, iterations, eta=0.05: PpdcConfig(
            eta=eta, gamma=1.0, omega=1.0, alpha_x=0.2, compressor=spec,
            noise_x=NOISY, noise_v=NOISY, iterations=iterations,
        ),
        ppdc_run,
    ),
}


# --- start check ---


@pytest.mark.parametrize(
    "init,config", [(pgtc_init, _pgtc_config), (ppdc_init, _ppdc_config)], ids=["pgtc", "ppdc"]
)
@pytest.mark.parametrize(
    "cut,message",
    [(np.s_[:4], "x0 has shape"), (np.s_[:, :4], "objectives have dimension")],
    ids=["rows", "dimension"],
)
def test_init_rejects_bad_shapes(init, config, cut, message):
    net, streams, objectives, x0 = build_problem("quadratic", seed=3)
    cfg = config(make_spec("identity", d=10), iterations=1)
    with pytest.raises(DimensionMismatch, match=message):
        init(cfg, objectives, net, x0[cut], streams)


# --- residual series ---


def test_residual_running_min():
    # Squared distances to the origin are 4, 1, 9.
    trace = _trace_with_iterates(
        [np.array([2.0, 0.0]), np.array([0.0, 1.0]), np.array([3.0, 0.0])]
    )
    r = residual_series(trace, np.zeros(2))
    assert r.tolist() == [4.0, 1.0, 1.0]


def test_residual_zero_at_reference():
    point = np.array([1.0, -2.0, 3.0])
    trace = _trace_with_iterates([point.copy() for _ in range(4)])
    assert residual_series(trace, point).tolist() == [0.0] * 4


def test_residual_nonincreasing_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        steps = rng.normal(size=(rng.integers(2, 40), 6))
        trace = _trace_with_iterates(list(np.cumsum(steps, axis=0)))
        r = residual_series(trace, rng.normal(size=6))
        assert np.all(np.diff(r) <= 0.0)


def test_residual_series_equals_per_row_loop():
    # The reference: one 1-D dot product per iterate, then a running min.
    # The shapes span one block, several blocks with a short last one, and
    # rows wider than a block.
    rng = np.random.default_rng(6)
    for rows, width in ((50, 12), (1500, 12), (3, 9000)):
        iterates = list(rng.normal(size=(rows, width)) * 10.0)
        x_inf = rng.normal(size=width)
        best, want = math.inf, []
        for xt in iterates:
            diff = xt - x_inf
            best = min(best, float(diff @ diff))
            want.append(best)
        got = residual_series(_trace_with_iterates(iterates), x_inf)
        assert got.tobytes() == np.array(want).tobytes()


def test_residual_series_names_first_non_finite_round():
    iterates = [np.zeros(2), np.full(2, 1e200), np.full(2, np.inf)]
    with pytest.raises(NonFiniteState) as caught:
        residual_series(_trace_with_iterates(iterates), np.zeros(2))
    assert caught.value.round_index == 1


def test_residual_dimension_mismatch():
    trace = _trace_with_iterates([np.zeros(4)])
    with pytest.raises(DimensionMismatch):
        residual_series(trace, np.zeros(3))


def test_residual_requires_iterate_history():
    bare = _trace([1.0])
    with pytest.raises(EmptyTrace):
        residual_series(bare, np.zeros(1))
    empty = _trace([], iterates=np.empty((0, 1)))
    with pytest.raises(EmptyTrace):
        residual_series(empty, np.zeros(1))


# --- accuracy and bits ---


def test_final_accuracy_is_last_grad_norm():
    trace = _trace([3.0, 0.25])
    assert final_accuracy(trace) == 0.25
    assert type(final_accuracy(trace)) is float


def test_final_accuracy_empty_trace():
    with pytest.raises(EmptyTrace):
        final_accuracy(_trace([]))


def test_cum_bits_series_and_empty(tmp_path):
    # The bit meter is written as exact integers; an empty trace writes
    # only the header.
    path = tmp_path / "trace.csv"
    assert csv_columns(_trace([1.0, 1.0], bits=7680), path)["cum_bits"] == ["0", "7680"]
    write_trace_csv(_trace([]), path)
    assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"


def _bits(trace, path):
    return [int(bits) for bits in csv_columns(trace, path)["cum_bits"]]


def test_pgtc_identity_bits_per_round(tmp_path):
    # 2 messages x 6 agents x 640 bits for a dense d=10 vector.
    net, streams, objectives, x0 = build_problem("quadratic", seed=3)
    cfg = _pgtc_config(make_spec("identity", d=10), iterations=1)
    trace = pgtc_run(cfg, objectives, net, x0, streams)
    assert _bits(trace, tmp_path / "trace.csv") == [0, 7680]


def test_ppdc_topk_bits_per_round(tmp_path):
    # 1 message x 6 agents x 136 bits for two (value, index) pairs.
    net, streams, objectives, x0 = build_problem("quadratic", seed=3)
    cfg = _ppdc_config(make_spec("topk", d=10, k=2), iterations=1)
    trace = ppdc_run(cfg, objectives, net, x0, streams)
    assert _bits(trace, tmp_path / "trace.csv") == [0, 816]


def test_ppdc_bits_are_half_of_pgtc(tmp_path):
    spec = make_spec("bbit", d=10, b=2)
    path = tmp_path / "trace.csv"
    for k in (1, 5):
        net, streams, objectives, x0 = build_problem("quadratic", seed=11)
        pg = _bits(pgtc_run(_pgtc_config(spec, k), objectives, net, x0, streams), path)
        net, streams, objectives, x0 = build_problem("quadratic", seed=11)
        pd = _bits(ppdc_run(_ppdc_config(spec, k), objectives, net, x0, streams), path)
        assert pg == [2 * bits for bits in pd]
        assert np.all(np.diff(pg) > 0)


# --- reference point ---


def test_reference_point_rejects_short_horizon():
    net, streams, objectives, x0 = build_problem("quadratic", seed=1)
    cfg = _pgtc_config(make_spec("identity", d=10), iterations=10)
    trace = pgtc_run(cfg, objectives, net, x0, streams, horizon=99)
    assert trace.final_k == 99
    with pytest.raises(ConfigInvalid):
        reference_point(trace)
    # Without a horizon the final state is the last row's, never a reference.
    with pytest.raises(ConfigInvalid):
        reference_point(pgtc_run(cfg, objectives, net, x0, streams))


def test_reference_point_noise_free_quadratic():
    # Without noise the network average is conserved and every agent
    # contracts to the mean anchor, so x_inf is its 6-fold tiling.
    net, streams, objectives, x0 = build_problem("quadratic", seed=9)
    cfg = _pgtc_config(make_spec("identity", d=10), iterations=60)
    trace = pgtc_run(
        cfg, objectives, net, x0, streams, record_iterates=True, horizon=2000
    )
    assert len(trace) == len(trace.stacked_iterates) == 61
    x_inf = reference_point(trace)
    anchors = np.stack([obj.anchor for obj in objectives])
    expected = np.tile(anchors.mean(axis=0), net.n)
    assert np.max(np.abs(x_inf - expected)) < 1e-10
    again = reference_point(pgtc_run(cfg, objectives, net, x0, streams, horizon=2000))
    assert np.array_equal(x_inf, again)


@pytest.mark.parametrize(
    "run, make_cfg",
    [(pgtc_run, _pgtc_config), (ppdc_run, _ppdc_config)],
    ids=["pgtc", "ppdc"],
)
def test_one_pass_reference_equals_explicit_long_run(run, make_cfg):
    # An explicit run of H rounds defines the reference point. The one
    # pass must reproduce it bit for bit, noise and dithering included,
    # and its rows must be that run's first K + 1 rows.
    spec = make_spec("bbit", d=10, b=4)
    noise = NoiseSchedule(s=0.5, q=0.9)
    net, streams, objectives, x0 = build_problem(
        "logistic", seed=13, m=50, lam=1e-3, alpha=1.0
    )
    one_pass = run(
        make_cfg(spec, 20, noise), objectives, net, x0, streams,
        record_iterates=True, horizon=200,
    )
    explicit = run(make_cfg(spec, 200, noise), objectives, net, x0, streams)
    assert np.array_equal(reference_point(one_pass), explicit.final_stacked)
    for column in ("consensus_err", "grad_norm_mean", "residual"):
        assert getattr(one_pass, column).tobytes() == getattr(explicit, column)[:21].tobytes()


# --- CSV writer ---


def test_csv_header_and_blank_residual(tmp_path):
    trace = _trace([1.0, 1.0], bits=816)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert all(line.endswith(",") for line in lines[1:])


def test_csv_seventeen_digit_round_trip(tmp_path):
    values = np.array([1.0 / 3.0, 0.1 + 0.2, 2.0**-52, 1.2345678901234567e30])
    noise_x = NoiseSchedule(s=1.0 / 3.0, q=0.1 + 0.2)
    noise_second = NoiseSchedule(s=2.0**-52, q=1.0 / 3.0)
    trace = Trace(values, values * 7.0, -values, 816, noise_x, noise_second)
    residuals = values * 13.0
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, residuals=residuals)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == len(values)
    for k, (v, line) in enumerate(zip(values, lines)):
        fields = line.split(",")
        assert int(fields[0]) == k
        assert float(fields[1]) == v
        assert float(fields[2]) == v * 7.0
        assert float(fields[3]) == -v
        assert int(fields[4]) == k * 816
        assert float(fields[5]) == scale_at(noise_x, k)
        assert float(fields[6]) == scale_at(noise_second, k)
        assert float(fields[7]) == v * 13.0


def test_csv_rejects_residual_length_mismatch(tmp_path):
    trace = _trace([1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        write_trace_csv(trace, tmp_path / "trace.csv", residuals=np.zeros(3))


# --- gradient-norm column ---


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=30, deadline=None)
@given(case=noisy_runs(), rows_per_block=st.one_of(st.none(), st.integers(1, 7)))
def test_grad_norm_column_equals_the_per_round_formula(engine, case, rows_per_block):
    # rows_per_block None keeps the shipped block size; 1..7 rows split
    # the K + 1 rows into several blocks, most often with a partial last.
    make_cfg, run = ENGINES[engine]
    spec, net, streams, objectives, x0 = drawn_run(case)
    with pytest.MonkeyPatch.context() as patch:
        if rows_per_block is not None:
            elements = rows_per_block * objectives.agent_elements
            patch.setattr(metrics, "GRAD_NORM_CHUNK_ELEMENTS", elements)
        trace = run(make_cfg(spec, case[6]), objectives, net, x0, streams, record_iterates=True)
    want = grad_norms_per_round(objectives, trace)
    assert trace.grad_norm_mean.tobytes() == want.tobytes()


@st.composite
def _saturating_logistic_runs(draw):
    """A noisy_runs case on logistic agents and a factor for its x0 that
    puts the largest start margin at 500..3000, so that margins pass the
    saturation cut (|z| = 746) from the first rounds on."""
    case = draw(noisy_runs())
    return case[:5] + ("logistic",) + case[6:], draw(st.floats(500.0, 3000.0))


def _run_bytes(engine, case, largest_margin):
    """The trace columns, iterate history and final state of one run, as
    bytes, past a reference tail of 3 rounds; or the error that ended it."""
    make_cfg, run = ENGINES[engine]
    spec, net, streams, objectives, x0 = drawn_run(case)
    margins = [obj.signed @ x for obj, x in zip(objectives, x0)]
    x0 = x0 * (largest_margin / max(np.abs(z).max() for z in margins))
    try:
        trace = run(
            make_cfg(spec, case[6]), objectives, net, x0, streams,
            record_iterates=True, horizon=case[6] + 3,
        )
    except NonFiniteState as exc:
        return repr(exc)
    columns = (trace.consensus_err, trace.grad_norm_mean, trace.residual)
    return [a.tobytes() for a in (*columns, trace.stacked_iterates, trace.final_stacked)]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=25, deadline=None)
@given(_saturating_logistic_runs())
def test_saturated_runs_keep_the_bytes_of_the_plain_logistic_formulas(engine, drawn):
    case, largest_margin = drawn
    got = _run_bytes(engine, case, largest_margin)
    with plain_logistic_formulas():
        want = _run_bytes(engine, case, largest_margin)
    assert got == want


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_grad_norm_column_is_filled_one_block_of_rows_per_call(engine, monkeypatch):
    make_cfg, run = ENGINES[engine]
    module = importlib.import_module(f"dpcopt.{engine}")
    net, streams, objectives, x0 = build_problem("logistic", seed=3, m=20, lam=1e-3, alpha=1.0)
    monkeypatch.setattr(
        metrics, "GRAD_NORM_CHUNK_ELEMENTS", 4 * objectives.agent_elements
    )
    steps = []
    blocks = []
    step, mean_value_grad = getattr(module, f"{engine}_step"), module.mean_value_grad

    def counting_step(*args):
        steps.append(None)
        return step(*args)

    def recording_mean_value_grad(objs, xbars):
        blocks.append((len(steps), len(xbars)))
        return mean_value_grad(objs, xbars)

    monkeypatch.setattr(module, f"{engine}_step", counting_step)
    monkeypatch.setattr(module, "mean_value_grad", recording_mean_value_grad)
    cfg = make_cfg(make_spec("topk", 10, k=2), 10)
    trace = run(cfg, objectives, net, x0, streams, record_iterates=True, horizon=100)
    # 11 rows in blocks of 4, 4 and 3, each filled once its last row is
    # written (after rounds 3, 7 and 10), none in the reference tail.
    assert blocks == [(3, 4), (7, 4), (10, 3)]
    assert len(steps) == 100
    assert trace.grad_norm_mean.tobytes() == grad_norms_per_round(objectives, trace).tobytes()


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_diverging_run_raises_non_finite_without_a_warning(engine, monkeypatch):
    make_cfg, run = ENGINES[engine]
    monkeypatch.setattr(metrics, "GRAD_NORM_CHUNK_ELEMENTS", 1)
    net, streams, objectives, x0 = build_problem("quadratic", seed=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            run(make_cfg(make_spec("identity", 10), 400, eta=1e8), objectives, net, x0, streams)
