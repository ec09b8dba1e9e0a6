"""Privacy budget tests.

The closed-form budgets are cross-checked against literal term-by-term
summation and against the paper's two formulas written out per engine,
the documented worked examples are frozen, and the inversion is verified
by round-trip. Every budget is priced from an engine record.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcopt.accountant import (
    budget_for_run,
    epsilon,
    geometric_budget_sum,
    scales_for_epsilon,
)
from dpcopt.compressors import make_spec
from dpcopt.errors import ConfigInvalid
from dpcopt.noise import NoiseSchedule
from dpcopt.pgtc import PgtcConfig
from dpcopt.ppdc import PpdcConfig

IDENTITY = make_spec("identity", d=1)


def _engine(algorithm="pgtc", K=1, eta=1.0, q=0.5, omega=1.0, noise_x=None, noise_second=None):
    """A K-round engine record; both noise families default to s = 1 at q."""
    noise_x = noise_x or NoiseSchedule(s=1.0, q=q)
    noise_second = noise_second or NoiseSchedule(s=1.0, q=q)
    if algorithm == "pgtc":
        return PgtcConfig(
            eta=eta, gamma=0.5, alpha_x=0.5, alpha_y=0.5, compressor=IDENTITY,
            noise_x=noise_x, noise_y=noise_second, iterations=K,
        )
    return PpdcConfig(
        eta=eta, gamma=1.0, omega=omega, alpha_x=0.5, compressor=IDENTITY,
        noise_x=noise_x, noise_v=noise_second, iterations=K,
    )


def _run(algorithm="pgtc", d=1, M=1.0, **engine):
    """(engine, d, M), the leading arguments of every accountant entry point."""
    return _engine(algorithm, **engine), d, M


def _direct(algorithm, d, M, K, eta, q, omega, s_x, s_second):
    if algorithm == "pgtc":
        a, c, w = 4.0, 1.0, 1.0
    else:
        a, c, w = 2.0, 2.0, omega
    terms = sum(
        math.sqrt(eta) / (s_x * q**k) + c / (w * s_second * q**k) for k in range(K + 1)
    )
    return a * math.sqrt(d) * M * terms


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
        {"M": math.nan},
        {"K": 0},  # no run has zero rounds
        {"algorithm": "ppdc", "omega": 0.0},
    ],
)
def test_params_validation(overrides):
    # The engine record rejects K, eta, q and omega; every accountant entry
    # point rejects d and M.
    if overrides.keys() & {"K", "eta", "q", "omega"}:
        with pytest.raises(ConfigInvalid):
            _run(**overrides)
        return
    run = _run(**overrides)
    with pytest.raises(ConfigInvalid):
        epsilon(*run, 1.0, 1.0)
    with pytest.raises(ConfigInvalid):
        scales_for_epsilon(*run, 1.0)
    with pytest.raises(ConfigInvalid):
        budget_for_run(*run)


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
    for algorithm in ("pgtc", "ppdc"):
        run = _run(algorithm, q=0.1, K=1000, omega=2.0)
        assert epsilon(*run, 1.0, 1.0) == math.inf
        s_x, s_second = scales_for_epsilon(*run, 10.0)
        assert s_x == math.inf
        assert s_second == math.inf


def test_unbounded_budget_is_inf_where_the_products_would_be_nan():
    # The scale terms underflow to 0 (0 * inf), or the second scale's
    # denominator overflows (inf / inf): positive terms over an unbounded
    # horizon sum still spend an unbounded budget.
    run = _run("ppdc", d=10, q=0.1, K=1000, eta=1e-300, omega=10.0)
    assert epsilon(*run, 1e308, 1e308) == math.inf
    wide = _run("ppdc", d=10, q=0.1, K=1000, eta=0.1, omega=1e308)
    assert scales_for_epsilon(*wide, 24.0) == (math.inf, math.inf)


def _close(value, exact):
    return abs(Fraction(value) - exact) <= Fraction(1, 10**12) * exact


def test_overflowing_intermediates_give_the_exact_finite_value():
    # S = 2^601 - 1 is finite, yet (a c) sqrt(d) M S and omega (1 - split)
    # target both overflow: the plain quotient reads inf / inf = nan.
    M = 1.0992e150
    run = _run("ppdc", M=M, K=600, q=0.5, omega=1e308)
    s_x, s_v = scales_for_epsilon(*run, 24.0)
    assert s_x == math.inf  # its exact value is past the float range
    assert _close(s_v, 4 * Fraction(M) * (2**601 - 1) / (Fraction(1e308) * Fraction(1, 2) * 24))
    # a sqrt(d) M overflows, though the budget is about 2.4e306.
    eps = epsilon(*_run("pgtc", M=1e308), 1e3, 1e3)
    assert _close(eps, 4 * Fraction(1e308) * Fraction(2, 1000) * 3)
    # Both scale terms underflow to 0 over a large finite S: 0 is no budget.
    eps = epsilon(*_run("ppdc", K=600, eta=1e-300, omega=1e308), 1e308, 1e308)
    root_eta = Fraction(math.sqrt(1e-300))
    exact = 2 * (root_eta / Fraction(1e308) + 2 / Fraction(1e308) ** 2) * (2**601 - 1)
    assert eps > 0 and _close(eps, exact)
    # The divisor omega s_v underflows to 0: the budget is past the float
    # range, not a ZeroDivisionError.
    assert epsilon(*_run("ppdc", omega=1e-300), 1.0, 1e-300) == math.inf
    assert scales_for_epsilon(*_run(), 5e-324, split=0.25)[0] == math.inf


def test_epsilon_requires_scales():
    for algorithm in ("pgtc", "ppdc"):
        run = _run(algorithm, omega=2.0)
        for s_x, s_second in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)):
            with pytest.raises(ConfigInvalid):
                epsilon(*run, s_x, s_second)


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
    K=st.integers(1, 5_000),
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
# S = (3^646 - 1) / 2 is about 8e307: 4 S overflows, yet s_x = 4 S / 2 fits.
@example(algorithm="pgtc", d=1, M=1.0, K=645, eta=1.0, q=1 / 3, omega=1.0,
         s_x=1.0, s_second=1.0, target=4.0, split=0.5)
def test_epsilon_and_scales_equal_the_papers_formulas(
    algorithm, d, M, K, eta, q, omega, s_x, s_second, target, split
):
    run = _run(algorithm, d, M, K=K, eta=eta, q=q, omega=omega)
    S = geometric_budget_sum(q, K)
    scales = scales_for_epsilon(*run, target, split)
    want = (
        _paper_budget(algorithm, d, M, eta, omega, S, s_x, s_second),
        *_paper_scales(algorithm, d, M, eta, omega, S, target, split),
    )
    for got, plain in zip((epsilon(*run, s_x, s_second), *scales), want):
        # Where an intermediate overflows the formula reads inf (or nan), and
        # the exact value, at least the overflowed numerator over a divisor
        # below 1e4 here, replaces it.
        assert got == plain if 0.0 < plain < math.inf else got > 1e300
    # Past S = 1e200 the scales' reciprocals can leave the normal float
    # range, so the round trip is checked below it.
    if S <= 1e200:
        assert abs(epsilon(*run, *scales) - target) <= 1e-12 * target


@settings(max_examples=200, deadline=None)
@given(
    algorithm=st.sampled_from(["pgtc", "ppdc"]),
    d=st.integers(1, 400),
    M=_positive(1e-3, 1e3),
    K=st.integers(1, 400),
    eta=_positive(1e-6, 10.0),
    q=_positive(0.2, 0.999),
    omega=_positive(1e-2, 1e3),
    s_x=_positive(1e-3, 1e3),
    s_second=_positive(1e-3, 1e3),
    target=_positive(1e-3, 1e3),
    split=_positive(0.01, 0.99),
)
def test_record_budgets_keep_the_bits_of_the_plain_expressions(
    algorithm, d, M, K, eta, q, omega, s_x, s_second, target, split
):
    # In these ranges S <= 5^401 and every value below stays positive and
    # finite, so each must be the plain expression's own bits.
    engine, d, M = _run(algorithm, d, M, K=K, eta=eta, q=q, omega=omega)
    a, c = engine.BUDGET
    w = engine.budget_divisor
    assert (a, c, w) == ((4.0, 1.0, 1.0) if algorithm == "pgtc" else (2.0, 2.0, omega))
    S = geometric_budget_sum(q, K)
    root_d = math.sqrt(d)
    eps = a * math.sqrt(d) * M * (math.sqrt(eta) / s_x + c / (w * s_second)) * S
    s_x_needed = a * root_d * M * math.sqrt(eta) * S / (split * target)
    s_second_needed = (a * c) * root_d * M * S / (w * (1.0 - split) * target)
    for value in (eps, s_x_needed, s_second_needed):
        assert 0.0 < value < math.inf
    assert epsilon(engine, d, M, s_x, s_second).hex() == eps.hex()
    got = scales_for_epsilon(engine, d, M, target, split)
    assert [v.hex() for v in got] == [s_x_needed.hex(), s_second_needed.hex()]


# --- worked examples ---


def test_pgtc_worked_example():
    # d=1, M=1, eta=1, unit scales, q=0.5, K=1:
    # per-round terms are (1+1) at k=0 and (2+2) at k=1, times 4.
    assert epsilon(*_run(), 1.0, 1.0) == pytest.approx(24.0, rel=1e-15)


def test_pgtc_single_round():
    # One round spends the terms at k = 0 and k = 1: S = 1 + 2.
    run = _run(d=4, M=3.0, K=1, eta=0.25)
    expected = 4.0 * 2.0 * 3.0 * (0.5 / 2.0 + 1.0 / 5.0) * 3.0
    assert epsilon(*run, 2.0, 5.0) == pytest.approx(expected, rel=1e-15)


def test_pgtc_doubling_scales_halves_budget():
    base = epsilon(*_run(), 1.5, 0.7)
    doubled = epsilon(*_run(), 3.0, 1.4)
    assert doubled == pytest.approx(base / 2.0, rel=1e-15)


def test_ppdc_worked_example():
    # Same run with omega=2: ((1+1) + (2+2)) times 2.
    assert epsilon(*_run("ppdc", omega=2.0), 1.0, 1.0) == pytest.approx(12.0, rel=1e-15)


def test_ppdc_large_omega_limit():
    # The dual term vanishes as omega grows; only the x-term remains.
    run = _run("ppdc", d=9, M=2.0, K=3, eta=4.0, q=0.25, omega=1e12)
    x_only = 2.0 * 3.0 * 2.0 * (2.0 / 1.0) * geometric_budget_sum(0.25, 3)
    assert epsilon(*run, 1.0, 1.0) == pytest.approx(x_only, rel=1e-10)


def test_remark_ordering_omega_above_one():
    # With shared scales and omega > 1 the primal-dual budget is strictly
    # smaller: 2(sqrt(eta)/s_x + 2/(omega s)) < 4(sqrt(eta)/s_x + 1/s).
    rng = np.random.default_rng(7)
    for _ in range(50):
        shared = dict(
            d=int(rng.integers(1, 20)),
            M=float(rng.uniform(0.1, 10.0)),
            K=int(rng.integers(1, 50)),
            eta=float(rng.uniform(0.01, 2.0)),
            q=float(rng.uniform(0.2, 0.95)),
        )
        s_x = float(rng.uniform(0.1, 10.0))
        s_second = float(rng.uniform(0.1, 10.0))
        omega = float(rng.uniform(1.0 + 1e-6, 50.0))
        pd = epsilon(*_run("ppdc", omega=omega, **shared), s_x, s_second)
        assert pd < epsilon(*_run("pgtc", **shared), s_x, s_second)


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
            K = int(rng.integers(1, 200))
            q = float(rng.uniform(0.1, 0.99))
        d = int(rng.integers(1, 50))
        M = float(rng.uniform(0.01, 20.0))
        eta = float(rng.uniform(1e-3, 5.0))
        s_x = float(rng.uniform(0.05, 50.0))
        s_second = float(rng.uniform(0.05, 50.0))
        omega = float(rng.uniform(0.1, 20.0))
        for algorithm in ("pgtc", "ppdc"):
            got = epsilon(*_run(algorithm, d, M, K=K, eta=eta, q=q, omega=omega), s_x, s_second)
            want = _direct(algorithm, d, M, K, eta, q, omega, s_x, s_second)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_monotonicity():
    base = dict(d=4, M=2.0, K=10, eta=0.5, q=0.6, omega=3.0)
    scales = (1.0, 2.0)
    for algorithm in ("pgtc", "ppdc"):
        at_base = epsilon(*_run(algorithm, **base), *scales)
        for change in ({"K": 11}, {"M": 2.5}, {"d": 5}, {"eta": 0.6}):
            assert epsilon(*_run(algorithm, **{**base, **change}), *scales) > at_base
        for larger in ((1.5, 2.0), (1.0, 2.5)):  # s_x, then s_second
            assert epsilon(*_run(algorithm, **base), *larger) < at_base
    wider = epsilon(*_run("ppdc", **{**base, "omega": 4.0}), *scales)
    assert wider < epsilon(*_run("ppdc", **base), *scales)


# --- inversion ---


@pytest.mark.parametrize("algorithm", ["pgtc", "ppdc"])
def test_scales_round_trip(algorithm):
    rng = np.random.default_rng(23)
    for _ in range(100):
        run = _run(
            algorithm,
            d=int(rng.integers(1, 30)),
            M=float(rng.uniform(0.1, 10.0)),
            K=int(rng.integers(1, 100)),
            eta=float(rng.uniform(1e-3, 4.0)),
            q=float(rng.uniform(0.2, 0.95)),
            omega=float(rng.uniform(0.5, 10.0)),
        )
        target = float(rng.uniform(1e-3, 1e3))
        split = float(rng.uniform(0.05, 0.95))
        s_x, s_second = scales_for_epsilon(*run, target, split=split)
        assert s_x > 0 and s_second > 0
        eps = epsilon(*run, s_x, s_second)
        assert abs(eps - target) <= 1e-12 * target


def test_even_split_scale_ratio():
    # Equal halves mean the two per-round terms are equal:
    # sqrt(eta)/s_x = 1/s_second, so s_x = sqrt(eta) * s_second.
    run = _run(d=3, M=2.0, K=5, eta=0.49, q=0.5)
    s_x, s_second = scales_for_epsilon(*run, 10.0, split=0.5)
    assert s_x / s_second == pytest.approx(math.sqrt(0.49), rel=1e-12)


def test_tiny_target_gives_large_finite_scales():
    run = _run(d=2, M=1.0, K=10, eta=1.0, q=0.5)
    s_x, s_second = scales_for_epsilon(*run, 1e-9)
    assert math.isfinite(s_x) and math.isfinite(s_second)
    assert s_x > 1e9 and s_second > 1e9


def test_scales_for_epsilon_rejects_bad_inputs():
    run = _run()
    with pytest.raises(ConfigInvalid):
        scales_for_epsilon(*run, 0.0)
    with pytest.raises(ConfigInvalid):
        scales_for_epsilon(*run, math.inf)
    with pytest.raises(ConfigInvalid):
        scales_for_epsilon(*run, 1.0, split=1.0)


# --- run-level wrapper ---


def test_budget_for_run_matches_formula():
    assert budget_for_run(*_run()) == pytest.approx(24.0, rel=1e-15)
    assert budget_for_run(*_run("ppdc", omega=2.0)) == pytest.approx(12.0, rel=1e-15)


def test_budget_for_run_no_guarantee_outcomes():
    on = NoiseSchedule(s=1.0, q=0.5)
    off = NoiseSchedule(s=1.0, q=0.5, enabled=False)
    zero = NoiseSchedule(s=0.0, q=0.5)
    for second in (off, zero):
        assert budget_for_run(*_run(noise_x=on, noise_second=second)) is None
        assert budget_for_run(*_run(noise_x=second, noise_second=on)) is None


def test_budget_for_run_rejects_mismatched_decay():
    nx = NoiseSchedule(s=1.0, q=0.5)
    ny = NoiseSchedule(s=1.0, q=0.6)
    with pytest.raises(ConfigInvalid):
        budget_for_run(*_run(noise_x=nx, noise_second=ny))
