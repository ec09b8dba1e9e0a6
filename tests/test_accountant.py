"""Privacy budget tests.

The closed-form budgets are cross-checked against literal term-by-term
summation and against the paper's two formulas written out per engine,
the documented worked examples are frozen, and the inversion is verified
by round-trip.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcopt.accountant import (
    PrivacyParams,
    budget_for_run,
    epsilon,
    geometric_budget_sum,
    scales_for_epsilon,
)
from dpcopt.errors import ConfigInvalid
from dpcopt.noise import NoiseSchedule


def _params(**overrides):
    base = dict(algorithm="pgtc", d=1, M=1.0, K=1, eta=1.0, q=0.5)
    base.update(overrides)
    return PrivacyParams(**base)


def _pgtc(p, s_x, s_second):
    return epsilon(replace(p, algorithm="pgtc"), s_x, s_second)


def _ppdc(p, s_x, s_second):
    return epsilon(replace(p, algorithm="ppdc"), s_x, s_second)


def _direct_pgtc(p, s_x, s_second):
    terms = sum(
        math.sqrt(p.eta) / (s_x * p.q**k) + 1.0 / (s_second * p.q**k)
        for k in range(p.K + 1)
    )
    return 4.0 * math.sqrt(p.d) * p.M * terms


def _direct_ppdc(p, s_x, s_second):
    terms = sum(
        math.sqrt(p.eta) / (s_x * p.q**k) + 2.0 / (p.omega * s_second * p.q**k)
        for k in range(p.K + 1)
    )
    return 2.0 * math.sqrt(p.d) * p.M * terms


# --- parameter validation ---


@pytest.mark.parametrize(
    "overrides",
    [
        {"d": 0},
        {"M": 0.0},
        {"M": -1.0},
        {"K": -1},
        {"eta": 0.0},
        {"q": 0.0},
        {"q": 1.0},
        {"q": 1.5},
        {"algorithm": "dual-avg"},
        {"algorithm": "ppdc"},  # omega missing
        {"omega": 0.0},
    ],
)
def test_params_validation(overrides):
    with pytest.raises(ConfigInvalid):
        _params(**overrides)


def test_geometric_sum_values():
    # q=0.5: 1 + 2 = 3; K=0 is always the single q^0 term.
    assert geometric_budget_sum(0.5, 1) == 3.0
    assert geometric_budget_sum(0.5, 0) == 1.0
    assert geometric_budget_sum(0.9, 0) == 1.0


def test_geometric_sum_rejects_bad_inputs():
    with pytest.raises(ConfigInvalid):
        geometric_budget_sum(1.0, 5)
    with pytest.raises(ConfigInvalid):
        geometric_budget_sum(0.5, -1)


def test_geometric_sum_saturates_past_float_range():
    # 10^1000 does not fit a double; the sum saturates instead of
    # raising so long horizons read as an unbounded budget.
    assert geometric_budget_sum(0.1, 1000) == math.inf


def test_unbounded_budget_propagates_to_epsilon_and_scales():
    p = _params(q=0.1, K=1000, omega=2.0)
    assert _pgtc(p, 1.0, 1.0) == math.inf
    assert _ppdc(p, 1.0, 1.0) == math.inf
    for algorithm in ("pgtc", "ppdc"):
        s_x, s_second = scales_for_epsilon(replace(p, algorithm=algorithm), 10.0)
        assert s_x == math.inf
        assert s_second == math.inf


def test_unbounded_budget_is_inf_where_the_products_would_be_nan():
    # The scale terms underflow to 0 (0 * inf), or the second scale's
    # denominator overflows (inf / inf): positive terms over an unbounded
    # horizon sum still spend an unbounded budget.
    p = _params(algorithm="ppdc", d=10, q=0.1, K=1000, eta=1e-300, omega=10.0)
    assert epsilon(p, 1e308, 1e308) == math.inf
    wide = replace(p, eta=0.1, omega=1e308)
    assert scales_for_epsilon(wide, 24.0) == (math.inf, math.inf)


def test_epsilon_requires_scales():
    for algorithm in ("pgtc", "ppdc"):
        p = _params(algorithm=algorithm, omega=2.0)
        for s_x, s_second in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)):
            with pytest.raises(ConfigInvalid):
                epsilon(p, s_x, s_second)


def test_ppdc_requires_omega():
    with pytest.raises(ConfigInvalid):
        _params(algorithm="ppdc")
    # Gradient tracking has no dual gain: a given omega changes nothing.
    assert epsilon(_params(omega=7.0), 1.0, 1.0) == epsilon(_params(), 1.0, 1.0)


# --- the paper's formulas, one engine at a time ---


def _paper_budget(algorithm, d, M, eta, omega, S, s_x, s_second):
    if algorithm == "pgtc":
        return 4.0 * math.sqrt(d) * M * (math.sqrt(eta) / s_x + 1.0 / s_second) * S
    return 2.0 * math.sqrt(d) * M * (math.sqrt(eta) / s_x + 2.0 / (omega * s_second)) * S


def _paper_scales(algorithm, d, M, eta, omega, S, target, split):
    if algorithm == "pgtc":
        return (
            4.0 * math.sqrt(d) * M * math.sqrt(eta) * S / (split * target),
            4.0 * math.sqrt(d) * M * S / ((1.0 - split) * target),
        )
    return (
        2.0 * math.sqrt(d) * M * math.sqrt(eta) * S / (split * target),
        4.0 * math.sqrt(d) * M * S / (omega * (1.0 - split) * target),
    )


def _positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(
    algorithm=st.sampled_from(["pgtc", "ppdc"]),
    d=st.integers(1, 10_000),
    M=_positive(1e-3, 1e3),
    K=st.integers(0, 5_000),
    eta=_positive(1e-5, 10.0),
    q=_positive(0.01, 0.999),
    omega=_positive(1e-2, 1e3),
    s_x=_positive(1e-3, 1e3),
    s_second=_positive(1e-3, 1e3),
    target=_positive(1e-4, 1e4),
    split=_positive(0.01, 0.99),
)
# S = sum 10^k over 1,001 rounds leaves the float range: every value is inf.
@example(algorithm="pgtc", d=3, M=2.0, K=1000, eta=0.5, q=0.1, omega=3.0,
         s_x=1.0, s_second=2.0, target=5.0, split=0.4)
@example(algorithm="ppdc", d=3, M=2.0, K=1000, eta=0.5, q=0.1, omega=3.0,
         s_x=1.0, s_second=2.0, target=5.0, split=0.4)
def test_epsilon_and_scales_equal_the_papers_formulas(
    algorithm, d, M, K, eta, q, omega, s_x, s_second, target, split
):
    p = PrivacyParams(algorithm, d, M, K, eta, q, omega=omega)
    S = geometric_budget_sum(q, K)
    assert epsilon(p, s_x, s_second) == _paper_budget(
        algorithm, d, M, eta, omega, S, s_x, s_second
    )
    scales = scales_for_epsilon(p, target, split)
    assert scales == _paper_scales(algorithm, d, M, eta, omega, S, target, split)
    # Past S = 1e200 the scales' reciprocals can leave the normal float
    # range, so the round trip is checked below it.
    if S <= 1e200:
        assert abs(epsilon(p, *scales) - target) <= 1e-12 * target


# --- worked examples ---


def test_pgtc_worked_example():
    # d=1, M=1, eta=1, unit scales, q=0.5, K=1:
    # per-round terms are (1+1) at k=0 and (2+2) at k=1, times 4.
    assert _pgtc(_params(), 1.0, 1.0) == pytest.approx(24.0, rel=1e-15)


def test_pgtc_single_round():
    p = _params(d=4, M=3.0, K=0, eta=0.25)
    expected = 4.0 * 2.0 * 3.0 * (0.5 / 2.0 + 1.0 / 5.0)
    assert _pgtc(p, 2.0, 5.0) == pytest.approx(expected, rel=1e-15)


def test_pgtc_doubling_scales_halves_budget():
    base = _pgtc(_params(), 1.5, 0.7)
    doubled = _pgtc(_params(), 3.0, 1.4)
    assert doubled == pytest.approx(base / 2.0, rel=1e-15)


def test_ppdc_worked_example():
    # Same params with omega=2: ((1+1) + (2+2)) times 2.
    assert _ppdc(_params(omega=2.0), 1.0, 1.0) == pytest.approx(12.0, rel=1e-15)


def test_ppdc_large_omega_limit():
    # The dual term vanishes as omega grows; only the x-term remains.
    p = _params(d=9, M=2.0, K=3, eta=4.0, q=0.25, omega=1e12)
    x_only = 2.0 * 3.0 * 2.0 * (2.0 / 1.0) * geometric_budget_sum(0.25, 3)
    assert _ppdc(p, 1.0, 1.0) == pytest.approx(x_only, rel=1e-10)


def test_remark_ordering_omega_above_one():
    # With shared scales and omega > 1 the primal-dual budget is strictly
    # smaller: 2(sqrt(eta)/s_x + 2/(omega s)) < 4(sqrt(eta)/s_x + 1/s).
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = _params(
            d=int(rng.integers(1, 20)),
            M=float(rng.uniform(0.1, 10.0)),
            K=int(rng.integers(0, 50)),
            eta=float(rng.uniform(0.01, 2.0)),
            q=float(rng.uniform(0.2, 0.95)),
        )
        s_x = float(rng.uniform(0.1, 10.0))
        s_second = float(rng.uniform(0.1, 10.0))
        p = replace(p, omega=float(rng.uniform(1.0 + 1e-6, 50.0)))
        assert _ppdc(p, s_x, s_second) < _pgtc(p, s_x, s_second)


# --- closed form vs direct summation ---


def test_closed_form_matches_direct_summation():
    rng = np.random.default_rng(11)
    for i in range(100):
        if i % 10 == 0:
            # Long-horizon slow-decay corner; q is kept close enough to 1
            # that q^{-(K+1)} stays finite in float64.
            K = 10_000
            q = float(rng.uniform(0.95, 0.99))
        else:
            K = int(rng.integers(0, 200))
            q = float(rng.uniform(0.1, 0.99))
        p = _params(
            d=int(rng.integers(1, 50)),
            M=float(rng.uniform(0.01, 20.0)),
            K=K,
            eta=float(rng.uniform(1e-3, 5.0)),
            q=q,
        )
        s_x = float(rng.uniform(0.05, 50.0))
        s_second = float(rng.uniform(0.05, 50.0))
        p = replace(p, omega=float(rng.uniform(0.1, 20.0)))
        got = _pgtc(p, s_x, s_second)
        want = _direct_pgtc(p, s_x, s_second)
        assert abs(got - want) <= 1e-12 * abs(want)
        got = _ppdc(p, s_x, s_second)
        want = _direct_ppdc(p, s_x, s_second)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_monotonicity():
    base = _params(d=4, M=2.0, K=10, eta=0.5, q=0.6, omega=3.0)
    scales = (1.0, 2.0)
    for p in (
        replace(base, K=11), replace(base, M=2.5), replace(base, d=5), replace(base, eta=0.6)
    ):
        assert _pgtc(p, *scales) > _pgtc(base, *scales)
        assert _ppdc(p, *scales) > _ppdc(base, *scales)
    for larger in ((1.5, 2.0), (1.0, 2.5)):  # s_x, then s_second
        assert _pgtc(base, *larger) < _pgtc(base, *scales)
        assert _ppdc(base, *larger) < _ppdc(base, *scales)
    wider = replace(base, omega=4.0)
    assert _ppdc(wider, *scales) < _ppdc(base, *scales)


# --- inversion ---


@pytest.mark.parametrize("algorithm", ["pgtc", "ppdc"])
def test_scales_round_trip(algorithm):
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = PrivacyParams(
            algorithm,
            d=int(rng.integers(1, 30)),
            M=float(rng.uniform(0.1, 10.0)),
            K=int(rng.integers(0, 100)),
            eta=float(rng.uniform(1e-3, 4.0)),
            q=float(rng.uniform(0.2, 0.95)),
            omega=float(rng.uniform(0.5, 10.0)),
        )
        target = float(rng.uniform(1e-3, 1e3))
        split = float(rng.uniform(0.05, 0.95))
        s_x, s_second = scales_for_epsilon(p, target, split=split)
        assert s_x > 0 and s_second > 0
        eps = epsilon(p, s_x, s_second)
        assert abs(eps - target) <= 1e-12 * target


def test_even_split_scale_ratio():
    # Equal halves mean the two per-round terms are equal:
    # sqrt(eta)/s_x = 1/s_second, so s_x = sqrt(eta) * s_second.
    p = _params(d=3, M=2.0, K=5, eta=0.49, q=0.5)
    s_x, s_second = scales_for_epsilon(p, 10.0, split=0.5)
    assert s_x / s_second == pytest.approx(math.sqrt(0.49), rel=1e-12)


def test_tiny_target_gives_large_finite_scales():
    p = _params(d=2, M=1.0, K=10, eta=1.0, q=0.5)
    s_x, s_second = scales_for_epsilon(p, 1e-9)
    assert math.isfinite(s_x) and math.isfinite(s_second)
    assert s_x > 1e9 and s_second > 1e9


def test_scales_for_epsilon_rejects_bad_inputs():
    p = _params()
    with pytest.raises(ConfigInvalid):
        scales_for_epsilon(p, 0.0)
    with pytest.raises(ConfigInvalid):
        scales_for_epsilon(p, math.inf)
    with pytest.raises(ConfigInvalid):
        scales_for_epsilon(p, 1.0, split=1.0)
    with pytest.raises(ConfigInvalid):
        scales_for_epsilon(_params(algorithm="ppdc"), 1.0)  # omega missing
    with pytest.raises(ConfigInvalid):
        scales_for_epsilon(_params(algorithm="nope"), 1.0)


# --- run-level wrapper ---


def test_budget_for_run_matches_formula():
    nx = NoiseSchedule(s=1.0, q=0.5)
    ny = NoiseSchedule(s=1.0, q=0.5)
    eps = budget_for_run(_params(), nx, ny)
    assert eps == pytest.approx(24.0, rel=1e-15)
    eps = budget_for_run(_params(algorithm="ppdc", omega=2.0), nx, ny)
    assert eps == pytest.approx(12.0, rel=1e-15)


def test_budget_for_run_no_guarantee_outcomes():
    on = NoiseSchedule(s=1.0, q=0.5)
    off = NoiseSchedule(s=1.0, q=0.5, enabled=False)
    zero = NoiseSchedule(s=0.0, q=0.5)
    for second in (off, zero):
        assert budget_for_run(_params(), on, second) is None
        assert budget_for_run(_params(), second, on) is None


def test_budget_for_run_rejects_mismatched_decay():
    nx = NoiseSchedule(s=1.0, q=0.5)
    ny = NoiseSchedule(s=1.0, q=0.6)
    with pytest.raises(ConfigInvalid):
        budget_for_run(_params(), nx, ny)
    # Both families decay at 0.6, the record's horizon sum at 0.5.
    with pytest.raises(ConfigInvalid):
        budget_for_run(_params(q=0.5), ny, ny)


def test_budget_for_run_rejects_unknown_algorithm():
    nx = NoiseSchedule(s=1.0, q=0.5)
    with pytest.raises(ConfigInvalid):
        budget_for_run(_params(algorithm="dual-avg"), nx, nx)
