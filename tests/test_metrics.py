"""Trace metrics tests: residual series, reference points, bit meters,
and the replay-grade CSV writer."""

import math

import numpy as np
import pytest

from dpcopt.compressors import make_spec
from dpcopt.errors import ConfigInvalid, DimensionMismatch, EmptyTrace, NonFiniteState
from dpcopt.metrics import (
    CSV_HEADER,
    Trace,
    TraceRow,
    final_accuracy,
    reference_point,
    residual_series,
    write_trace_csv,
)
from dpcopt.noise import NoiseSchedule
from dpcopt.pgtc import PgtcConfig, pgtc_init, pgtc_run
from dpcopt.ppdc import PpdcConfig, ppdc_init, ppdc_run

from tests.common import build_problem

QUIET = NoiseSchedule(s=0.0, q=0.5)


def _row(k, bits=0, grad=1.0):
    return TraceRow(
        k=k,
        consensus_err=0.0,
        grad_norm_mean=grad,
        residual=0.0,
        cum_bits=bits,
        theta_x=0.0,
        theta_second=0.0,
    )


def _trace_with_iterates(iterates):
    rows = [_row(k) for k in range(len(iterates))]
    return Trace(rows=rows, stacked_iterates=np.array(iterates))


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
    rng = np.random.default_rng(6)
    iterates = list(rng.normal(size=(50, 12)) * 10.0)
    x_inf = rng.normal(size=12)
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
    bare = Trace(rows=[_row(0)], stacked_iterates=None)
    with pytest.raises(EmptyTrace):
        residual_series(bare, np.zeros(1))
    empty = Trace(rows=[], stacked_iterates=np.empty((0, 1)))
    with pytest.raises(EmptyTrace):
        residual_series(empty, np.zeros(1))


# --- accuracy and bits ---


def test_final_accuracy_is_last_grad_norm():
    trace = Trace(rows=[_row(0, grad=3.0), _row(1, grad=0.25)])
    assert final_accuracy(trace) == 0.25


def test_final_accuracy_empty_trace():
    with pytest.raises(EmptyTrace):
        final_accuracy(Trace())


def test_cum_bits_series_and_empty(tmp_path):
    # The bit meter is written as exact integers; an empty trace writes
    # only the header.
    path = tmp_path / "trace.csv"
    write_trace_csv(Trace(rows=[_row(0, bits=0), _row(1, bits=7680)]), path)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(",")[4] for line in lines] == ["0", "7680"]
    write_trace_csv(Trace(), path)
    assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"


def _bits(trace):
    return [row.cum_bits for row in trace.rows]


def test_pgtc_identity_bits_per_round():
    # 2 messages x 6 agents x 640 bits for a dense d=10 vector.
    net, streams, objectives, x0 = build_problem("quadratic", seed=3)
    cfg = _pgtc_config(make_spec("identity", d=10), iterations=1)
    trace = pgtc_run(cfg, objectives, net, x0, streams)
    assert _bits(trace) == [0, 7680]


def test_ppdc_topk_bits_per_round():
    # 1 message x 6 agents x 136 bits for two (value, index) pairs.
    net, streams, objectives, x0 = build_problem("quadratic", seed=3)
    cfg = _ppdc_config(make_spec("topk", d=10, k=2), iterations=1)
    trace = ppdc_run(cfg, objectives, net, x0, streams)
    assert _bits(trace) == [0, 816]


def test_ppdc_bits_are_half_of_pgtc():
    spec = make_spec("bbit", d=10, b=2)
    for k in (1, 5):
        net, streams, objectives, x0 = build_problem("quadratic", seed=11)
        pg = pgtc_run(_pgtc_config(spec, k), objectives, net, x0, streams)
        net, streams, objectives, x0 = build_problem("quadratic", seed=11)
        pd = ppdc_run(_ppdc_config(spec, k), objectives, net, x0, streams)
        assert _bits(pg) == [2 * bits for bits in _bits(pd)]
        assert np.all(np.diff(_bits(pg)) > 0)


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
    assert len(trace.rows) == len(trace.stacked_iterates) == 61
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
    assert one_pass.rows == explicit.rows[:21]


# --- CSV writer ---


def test_csv_header_and_blank_residual(tmp_path):
    trace = Trace(rows=[_row(0, bits=0), _row(1, bits=816)])
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert all(line.endswith(",") for line in lines[1:])


def test_csv_seventeen_digit_round_trip(tmp_path):
    values = (1.0 / 3.0, 0.1 + 0.2, 2.0**-52, 1.2345678901234567e30)
    rows = [
        TraceRow(
            k=i,
            consensus_err=v,
            grad_norm_mean=v * 7.0,
            residual=-v,
            cum_bits=i * 816,
            theta_x=v / 3.0,
            theta_second=v / 9.0,
        )
        for i, v in enumerate(values)
    ]
    trace = Trace(rows=rows)
    residuals = np.array([v * 13.0 for v in values])
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, residuals=residuals)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    for row, res, line in zip(rows, residuals, lines):
        fields = line.split(",")
        assert int(fields[0]) == row.k
        assert float(fields[1]) == row.consensus_err
        assert float(fields[2]) == row.grad_norm_mean
        assert float(fields[3]) == row.residual
        assert int(fields[4]) == row.cum_bits
        assert float(fields[5]) == row.theta_x
        assert float(fields[6]) == row.theta_second
        assert float(fields[7]) == res


def test_csv_rejects_residual_length_mismatch(tmp_path):
    trace = Trace(rows=[_row(0), _row(1)])
    with pytest.raises(DimensionMismatch):
        write_trace_csv(trace, tmp_path / "trace.csv", residuals=np.zeros(3))
