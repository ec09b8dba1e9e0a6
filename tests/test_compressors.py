"""Compression operators: outputs, bit costs, and the contraction gate."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcopt.compressors import (
    CompressorSpec,
    bit_cost,
    compress,
    encode_decode,
    make_spec,
    r0_constant,
    validate_contraction,
    xi_factor,
)
from dpcopt.errors import ConfigInvalid, DimensionMismatch, SpecDimensionMismatch


class _ZeroDither:
    """Stub random stream forcing dither u = 0 for hand-checked values."""

    def random(self, out):
        out[...] = 0.0
        return out


def test_make_spec_defaults():
    assert make_spec("identity", 10) == CompressorSpec("identity", r=1.0, phi=1.0)
    topk = make_spec("topk", 10, k=2)
    assert (topk.r, topk.phi) == (1.0, 0.2)
    normsign = make_spec("normsign", 10)
    assert (normsign.r, normsign.phi) == (1.0, 1.0 / 40.0)
    bbit = make_spec("bbit", 10, b=2)
    assert bbit.phi == pytest.approx(1.0 / xi_factor(10, 2))


def test_xi_factor_values():
    # b=2, d=2: 1 + min(2/4, sqrt(2)/2) = 1.5
    assert xi_factor(2, 2) == pytest.approx(1.5)
    # b=1, d=10: 1 + min(10, sqrt(10)) = 1 + sqrt(10)
    assert xi_factor(10, 1) == pytest.approx(1.0 + np.sqrt(10.0))


@pytest.mark.parametrize(
    "kind,kwargs,error",
    [
        ("topk", {"k": 11}, SpecDimensionMismatch),
        ("topk", {"k": 0}, ConfigInvalid),
        ("topk", {}, ConfigInvalid),
        ("bbit", {"b": 0}, ConfigInvalid),
        ("bbit", {}, ConfigInvalid),
        ("identity", {"r": 2.0}, ConfigInvalid),
        ("identity", {"phi": 0.5}, ConfigInvalid),
        ("topk", {"k": 2, "phi": 0.0}, ConfigInvalid),
        ("topk", {"k": 2, "phi": 1.5}, ConfigInvalid),
        ("topk", {"k": 2, "r": 0.0}, ConfigInvalid),
        ("hadamard", {}, ConfigInvalid),
    ],
)
def test_make_spec_rejects_invalid(kind, kwargs, error):
    with pytest.raises(error):
        make_spec(kind, 10, **kwargs)


@pytest.mark.parametrize("d", [0, -3])
def test_make_spec_rejects_a_dimension_below_one(d):
    # A config's objective.d is checked by its own record before this.
    with pytest.raises(ConfigInvalid, match=f"make_spec: d must be >= 1, got d={d}"):
        make_spec("identity", d)


def test_identity_is_exact():
    spec = make_spec("identity", 4)
    x = np.array([[1.0, -2.5, 0.0, 3.25]])
    assert np.array_equal(compress(spec, x), x)


def test_topk_keeps_largest_magnitudes():
    spec = make_spec("topk", 4, k=2)
    out = compress(spec, np.array([[3.0, -5.0, 1.0, 0.0]]))
    assert np.array_equal(out, np.array([[3.0, -5.0, 0.0, 0.0]]))


def test_topk_tie_break_lower_index():
    spec = make_spec("topk", 4, k=2)
    out = compress(spec, np.array([[1.0, 2.0, 2.0, 1.0]]))
    assert np.array_equal(out, np.array([[0.0, 2.0, 2.0, 0.0]]))
    spec1 = make_spec("topk", 3, k=1)
    out1 = compress(spec1, np.array([[3.0, 3.0, 3.0]]))
    assert np.array_equal(out1, np.array([[3.0, 0.0, 0.0]]))


@st.composite
def _tied_rows(draw):
    # Few distinct magnitudes, both signs and both zeros, so ties abound.
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    values = st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0, -2.0])
    rows = draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n))
    return np.array(rows), draw(st.integers(1, d))


@settings(max_examples=200, deadline=None)
@given(_tied_rows())
@example((np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]), 2))
@example((np.array([[-2.0, 2.0, 1.5, -2.0, 2.0]]), 3))
def test_topk_keeps_lowest_indices_among_ties_row_by_row(case):
    x, k = case
    n, d = x.shape
    spec = make_spec("topk", d, k=k)
    out = compress(spec, x)
    for row, got in zip(x, out):
        keep = sorted(range(d), key=lambda i: (-abs(row[i]), i))[:k]
        want = np.zeros(d)
        want[keep] = row[keep]
        assert got.tobytes() == want.tobytes()
        assert compress(spec, row[None]).tobytes() == want.tobytes()


def test_topk_nonzeros_match_input_exactly():
    spec = make_spec("topk", 10, k=3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(10)
        out = compress(spec, x[None])[0]
        nz = np.nonzero(out)[0]
        assert len(nz) <= 3
        assert np.array_equal(out[nz], x[nz])


def test_normsign_handpicked():
    spec = make_spec("normsign", 2)
    out = compress(spec, np.array([[1.0, -2.0]]))
    assert np.array_equal(out, np.array([[1.0, -1.0]]))


def test_normsign_magnitudes_and_sign_zero():
    spec = make_spec("normsign", 5)
    x = np.array([0.5, -3.0, 0.0, 2.0, -0.25])
    out = compress(spec, x[None])[0]
    half = 1.5
    assert np.all(np.isin(np.abs(out), [0.0, half]))
    assert out[2] == 0.0
    assert np.all(np.sign(out[x != 0]) == np.sign(x[x != 0]))


def test_bbit_forced_dither_hand_value():
    # b=2, x=[3,4]: xi=1.5, norm=5, floor(2*[0.6,0.8]) = [1,1],
    # output (5/1.5)*0.5*[1,1] = [5/3, 5/3]
    spec = make_spec("bbit", 2, b=2)
    out = compress(spec, np.array([[3.0, 4.0]]), [_ZeroDither()])
    assert np.allclose(out, [[5.0 / 3.0, 5.0 / 3.0]], atol=1e-15)


def test_bbit_sign_consistency_and_zero():
    spec = make_spec("bbit", 10, b=3)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.standard_normal(10)
        x[rng.integers(0, 10)] = 0.0
        out = compress(spec, x[None], [rng])[0]
        assert np.all(out[x == 0.0] == 0.0)
        live = x != 0.0
        assert np.all(out[live] * x[live] >= 0.0)
    assert np.array_equal(compress(spec, np.zeros((1, 10)), [rng]), np.zeros((1, 10)))


def test_bbit_requires_rng():
    spec = make_spec("bbit", 3, b=2)
    with pytest.raises(ConfigInvalid):
        compress(spec, np.array([[1.0, 2.0, 3.0]]))


def test_bbit_deterministic_given_stream():
    spec = make_spec("bbit", 8, b=2)
    x = np.arange(1.0, 9.0)[None]
    a = compress(spec, x, [np.random.default_rng(12)])
    b = compress(spec, x, [np.random.default_rng(12)])
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "spec",
    [
        make_spec("identity", 3),
        make_spec("topk", 3, k=1),
        make_spec("normsign", 3),
        make_spec("bbit", 3, b=2),
    ],
)
def test_compress_rejects_a_single_vector(spec):
    with pytest.raises(DimensionMismatch):
        compress(spec, np.array([1.0, 2.0, 3.0]), [np.random.default_rng(1)])


def test_bit_costs():
    assert bit_cost(make_spec("identity", 10), 10) == 640
    assert bit_cost(make_spec("topk", 10, k=2), 10) == 136
    assert bit_cost(make_spec("normsign", 10), 10) == 74
    assert bit_cost(make_spec("bbit", 10, b=2), 10) == 84
    # index bits are exact ceil(log2 d)
    assert bit_cost(make_spec("topk", 16, k=1), 16) == 64 + 4
    assert bit_cost(make_spec("topk", 17, k=1), 17) == 64 + 5
    assert bit_cost(make_spec("topk", 1, k=1), 1) == 64


def test_bit_cost_never_exceeds_float_payload_plus_header():
    for d in (1, 2, 10, 64, 1000):
        for spec in (
            make_spec("identity", d),
            make_spec("topk", d, k=min(2, d)),
            make_spec("normsign", d),
            make_spec("bbit", d, b=4),
        ):
            assert 0 < bit_cost(spec, d) <= 64 * d + 64


def test_encode_decode_identity_short_circuit():
    spec = make_spec("identity", 3)
    target = np.array([[0.1, 0.2, 0.3]])
    reference = np.array([[7.0, -1.0, 2.0]])
    out = encode_decode(spec, target, reference)
    assert np.array_equal(out, target)


def test_encode_decode_offsets_by_reference():
    spec = make_spec("topk", 3, k=3)  # k=d keeps everything
    target = np.array([[1.0, 2.0, 3.0]])
    reference = np.array([[0.5, 0.5, 0.5]])
    out = encode_decode(spec, target, reference)
    assert np.allclose(out, target, atol=1e-15)


def test_validate_contraction_identity_exact():
    report = validate_contraction(
        make_spec("identity", 10), 10, 1000, np.random.default_rng(5)
    )
    assert report.empirical_ratio == 0.0
    assert report.passes


@pytest.mark.parametrize(
    "spec",
    [
        make_spec("topk", 10, k=2),
        make_spec("normsign", 10),
        make_spec("bbit", 10, b=2),
    ],
)
def test_validate_contraction_documented_constants(spec):
    report = validate_contraction(spec, 10, 2000, np.random.default_rng(6))
    assert report.passes, (spec.kind, report.empirical_ratio, report.threshold)


def test_validate_contraction_fails_for_overtight_phi():
    # top-k keeps at most k coordinates, so phi near 1 cannot hold
    spec = make_spec("topk", 10, k=2, phi=0.95)
    report = validate_contraction(spec, 10, 2000, np.random.default_rng(7))
    assert not report.passes


def test_validate_contraction_holds_one_chunk_of_trials_at_a_time():
    # All 100,000 trial vectors of d = 50 at once would take 40 MB.
    tracemalloc.start()
    try:
        validate_contraction(make_spec("normsign", 50), 50, 100_000, np.random.default_rng(9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_validate_contraction_requires_trials():
    with pytest.raises(ConfigInvalid):
        validate_contraction(
            make_spec("identity", 4), 4, 999, np.random.default_rng(8)
        )


@pytest.mark.parametrize(
    "spec",
    [
        make_spec("identity", 10),
        make_spec("topk", 10, k=2),
        make_spec("normsign", 10),
        make_spec("bbit", 10, b=2),
    ],
)
def test_r0_bound_empirical(spec):
    # raw error against the r0 = 2r^2(1-phi) + 2(1-r)^2 constant
    rng = np.random.default_rng(9)
    trials = 3000
    total = 0.0
    for _ in range(trials):
        x = rng.standard_normal(10)
        err = compress(spec, x[None], [rng])[0] - x
        total += float(err @ err) / float(x @ x)
    slack = 1.0 + 3.0 / np.sqrt(trials)
    assert total / trials <= r0_constant(spec) * slack + 1e-12
