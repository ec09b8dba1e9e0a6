"""Golden traces: what fixed configs write, pinned two ways.

- Exact digests. TRACE_DIGESTS holds the sha256 of each golden config's
  trace.csv, and SWEEP_DIGEST that of the shipped sweep's
  sweep_summary.csv. A replay within one version on one platform is byte
  identical, so these pin every byte. The bytes also depend on numpy's
  BLAS and SIMD dispatch, which metadata.json records under "environment".
- Privacy and config digests. PRIVACY_DIGESTS pins privacy_report.json
  of each shipped config, and CONFIG_DIGESTS the config_sha256 that
  metadata.json records, so the replayable document to_document writes
  cannot change unnoticed.
- Bounded drift. tests/golden/<name>.csv is each config's trace.csv as
  written when this contract was introduced. Every later version must stay
  within TRACE_BOUNDS of it: k, cum_bits, theta_x and theta_second exactly;
  the identity residual within an absolute 1e-9; consensus_err,
  grad_norm_mean and R_k within 1e-6 relative.

A change that alters a trace digest must pass the bounded test, declare the
old and the new digest with the measured drift per column in CHANGES.md,
and update TRACE_DIGESTS here. A fixture is never refrozen: FIXTURE_DIGESTS
pins its bytes.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from dpcopt.config import config_digest, load_config, to_document
from dpcopt.runner import EXIT_OK, OUTPUT_ROOT_ENV, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# sweep_summary.csv of the shipped q-sweep: 30 cells, each with its own
# stream factory and its own contraction gate.
SWEEP_DIGEST = "c302440b392a89d60f9e9b597e908a3625b30db263800a5d2cac107a69767176"

# Primal-dual with noise on both variables, dithered b-bit compression and
# a reference point: every random stream and both reference-point phases.
BENCH_EDGES = [[0, 1], [0, 3], [0, 5], [1, 2], [1, 4], [2, 3], [3, 4], [4, 5]]

PPDC_BBIT_DOC = {
    "algorithm": "ppdc",
    "graph": {"n": 6, "edges": BENCH_EDGES},
    "objective": {"kind": "logistic", "d": 5, "m": 100, "lambda": 0.001, "alpha": 1.0},
    "compressor": {"kind": "bbit", "b": 4},
    "noise": {"x": {"s": 0.1, "q": 0.5}, "v": {"s": 0.1, "q": 0.5}},
    "gains": {"eta": 0.015, "gamma": 45.0, "alpha_x": 0.2, "omega": 5.0},
    "iterations": 40,
    "seed": 7,
    "reference": {"horizon_multiplier": 10},
    "outputs": "ppdc_bbit",
}


def _grid_edges(rows: int, cols: int) -> list[list[int]]:
    edges = []
    for i in range(rows * cols):
        if (i + 1) % cols:
            edges.append([i, i + 1])
        if i + cols < rows * cols:
            edges.append([i, i + cols])
    return edges


def _doc(algorithm, objective, compressor, seed, outputs, **overrides):
    second = "y" if algorithm == "pgtc" else "v"
    gains = (
        {"eta": 0.1, "gamma": 0.2, "alpha_x": 0.5, "alpha_y": 0.5}
        if algorithm == "pgtc"
        else {"eta": 0.015, "gamma": 45.0, "alpha_x": 0.2, "omega": 5.0}
    )
    doc = {
        "algorithm": algorithm,
        "graph": {"n": 6, "edges": BENCH_EDGES},
        "objective": objective,
        "compressor": compressor,
        "noise": {"x": {"s": 0.1, "q": 0.5}, second: {"s": 0.1, "q": 0.5}},
        "gains": gains,
        "iterations": 40,
        "seed": seed,
        "reference": {"horizon_multiplier": 10},
        "outputs": outputs,
    }
    doc.update(overrides)
    return doc


LOGISTIC_D5 = {"kind": "logistic", "d": 5, "m": 50, "lambda": 0.001, "alpha": 1.0}

# Inline configs, each pinning a different path: pgtc + bbit reads one
# compression stream per agent for both the x- and the y-encode; ppdc +
# normsign runs the sincos objective; pgtc + identity passes the noisy
# broadcasts through untouched; the 24-agent grid runs 32-dimensional
# logistic gradients and top-k on a non-ring graph.
INLINE_GOLDEN = {
    "pgtc_bbit_noise": _doc(
        "pgtc", LOGISTIC_D5, {"kind": "bbit", "b": 3}, 11, "pgtc_bbit_noise"
    ),
    "ppdc_normsign_sincos": _doc(
        "ppdc", {"kind": "sincos", "d": 4}, {"kind": "normsign"}, 12,
        "ppdc_normsign_sincos",
    ),
    "pgtc_identity_noise": _doc(
        "pgtc", {"kind": "quadratic", "d": 7}, {"kind": "identity"}, 13,
        "pgtc_identity_noise",
    ),
    "ppdc_grid_24x32": _doc(
        "ppdc",
        {"kind": "logistic", "d": 32, "m": 20, "lambda": 0.001, "alpha": 1.0},
        {"kind": "topk", "k": 8},
        14,
        "ppdc_grid_24x32",
        graph={"n": 24, "edges": _grid_edges(4, 6) + [[0, 23], [5, 18]]},
        noise={"x": {"s": 0.1, "q": 0.9}, "v": {"s": 0.1, "q": 0.9}},
        gains={"eta": 0.1, "gamma": 5.0, "alpha_x": 0.3, "omega": 1.0},
        iterations=30,
    ),
}

# The paper run (6-agent logistic, top-k, K = 1000, reference at 10 K),
# the ppdc bbit run and the inline configs.
GOLDEN_DOCS = {
    "pgtc_topk_logistic": json.loads(
        (CONFIGS / "pgtc_topk_logistic.json").read_text(encoding="utf-8")
    ),
    "ppdc_bbit": PPDC_BBIT_DOC,
    **INLINE_GOLDEN,
}

# sha256 of trace.csv as this version writes it.
TRACE_DIGESTS = {
    "pgtc_topk_logistic": "13657023f005c4309e299ef90968cf37362893dbd1e3cc87087eea68bdbdbc1b",
    "ppdc_bbit": "40ae10dc443ce15120c308dcf6617a1f652a3b7e27ca7854107769b34643f7d1",
    "pgtc_bbit_noise": "59a8b4e5bf3e4e0c59aaf2dfabdfd5056c5896244c5bbeb62ee496a575978d54",
    "ppdc_normsign_sincos": "8f1bddb07877f7735dfc19b1e834b43f02896e30e97dcb3c1f923b8113d95912",
    "pgtc_identity_noise": "6bcea9f5466cd8a2990daffd846a2302bdf4a124acdd337c65f352394680bdbd",
    "ppdc_grid_24x32": "b352fef3fb14b0adc227b9c8c53db8c992232e4eb3d29b017ba518c20cdf0103",
}

# sha256 of each frozen fixture tests/golden/<name>.csv. These never change.
FIXTURE_DIGESTS = {
    "pgtc_topk_logistic": "de24c7e2fff5d0df67ef475a593717714f439634b89ee724ad5e9aec4d395379",
    "ppdc_bbit": "9ac464f533b1a88eedca671087ddfe64fe14067becf5e71de1be292d55412376",
    "pgtc_bbit_noise": "149f6e88c504b9e55873767529eb511f186f6bffb7732a0e21dea4dd5845bdc9",
    "ppdc_normsign_sincos": "8f1bddb07877f7735dfc19b1e834b43f02896e30e97dcb3c1f923b8113d95912",
    "pgtc_identity_noise": "6bcea9f5466cd8a2990daffd846a2302bdf4a124acdd337c65f352394680bdbd",
    "ppdc_grid_24x32": "f2bb23314cf71820a490dc560501d650d8f0665ccabf01c33ada09d84f5bbef4",
}

# sha256 of privacy_report.json from `dpcopt privacy --target-epsilon 24`
# on each shipped config.
PRIVACY_DIGESTS = {
    "pgtc_topk_logistic": "1796eefff38b8774669e030847017d3cf8a6020892798d21faf70be43cf7e154",
    "ppdc_topk_logistic": "8402f607e520fe252dd4a912cc2572d5fd150e80abb6f2b7b35faa88498f2fdc",
    "pgtc_q_sweep": "e62e54852b3993448cd73f4b0707dc37a7cceaac4069b3b6a88979475c1c2fa1",
}

# config_sha256 of metadata.json for each shipped config and the inline
# ppdc_bbit config, all with their relative outputs paths.
CONFIG_DIGESTS = {
    "pgtc_topk_logistic": "02e15a8940fd3e4d95df2d6a18ccbdd2506c9ab3ae912cb0840205178c7dd279",
    "ppdc_topk_logistic": "e5870df8380e70db872b27b70011ff83b4550959d5f5aa2b04414f9f908c7c93",
    "pgtc_q_sweep": "30c9fe148cb14e8cbd279d09ba486e42ec846d3dc0677ee6160e413197b3ae98",
    "ppdc_bbit": "9855299c8482c7d64a39981ebc1dfc8ba67ada7fa108d8e452a80ff791d8db66",
}

# Column -> (rule, bound): "exact" compares the written text, "abs" bounds
# |new - old|, "rel" bounds |new - old| / |old| (so an old 0 must stay 0).
TRACE_BOUNDS = {
    "k": ("exact", 0.0),
    "consensus_err": ("rel", 1e-6),
    "grad_norm_mean": ("rel", 1e-6),
    "tracking_or_dual_residual": ("abs", 1e-9),
    "cum_bits": ("exact", 0.0),
    "theta_x": ("exact", 0.0),
    "theta_second": ("exact", 0.0),
    "R_k": ("rel", 1e-6),
}


def _columns(text: str) -> tuple[list[str], dict[str, list[str]]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _field_drift(old: str, new: str) -> tuple[float, float]:
    """(absolute, relative) difference of two written fields; a blank field
    (R_k without a reference) only matches a blank one."""
    if old == "" or new == "":
        return (0.0, 0.0) if old == new else (math.inf, math.inf)
    a, b = float(old), float(new)
    diff = abs(b - a)
    if diff == 0.0:
        return 0.0, 0.0
    return diff, (diff / abs(a) if a != 0.0 else math.inf)


def drift_table(old_text: str, new_text: str) -> tuple[list[str], bool]:
    """Lines of a table with each column's rule and its maximum absolute
    and relative drift from old to new, and whether every column keeps its
    bound."""
    old_header, old = _columns(old_text)
    new_header, new = _columns(new_text)
    if old_header != new_header:
        return [f"header {new_header} differs from {old_header}"], False
    if len(old["k"]) != len(new["k"]):
        return [f"{len(new['k'])} rows, fixture has {len(old['k'])}"], False
    lines = [f"{'column':<27}{'rule':<13}{'max abs':>12}{'max rel':>12}  ok"]
    ok = True
    for name in old_header:
        rule, bound = TRACE_BOUNDS[name]
        drifts = [_field_drift(o, n) for o, n in zip(old[name], new[name])]
        max_abs = max((a for a, _ in drifts), default=0.0)
        max_rel = max((r for _, r in drifts), default=0.0)
        if rule == "exact":
            kept = old[name] == new[name]
        else:
            kept = (max_abs if rule == "abs" else max_rel) <= bound
        ok = ok and kept
        label = rule if rule == "exact" else f"{rule} {bound:g}"
        lines.append(
            f"{name:<27}{label:<13}{max_abs:>12.3g}{max_rel:>12.3g}  "
            f"{'yes' if kept else 'NO'}"
        )
    return lines, ok


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_trace(tmp_path_factory):
    """name -> the trace.csv bytes that golden config writes, each config
    run once per module."""
    traces: dict[str, bytes] = {}

    def run(name: str) -> bytes:
        if name not in traces:
            out = tmp_path_factory.mktemp(name)
            doc = dict(GOLDEN_DOCS[name], outputs=str(out / "run"))
            config = out / "config.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["run", str(config)]) == EXIT_OK
            traces[name] = (out / "run" / "trace.csv").read_bytes()
        return traces[name]

    return run


def test_paper_config_trace_digest(golden_trace):
    trace = golden_trace("pgtc_topk_logistic")
    assert _sha256(trace) == TRACE_DIGESTS["pgtc_topk_logistic"]


def test_q_sweep_summary_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = CONFIGS / "pgtc_q_sweep.json"
    outputs = json.loads(config.read_text(encoding="utf-8"))["outputs"]
    assert main(["sweep", str(config)]) == EXIT_OK
    summary = (tmp_path / outputs / "sweep_summary.csv").read_bytes()
    assert _sha256(summary) == SWEEP_DIGEST


@pytest.mark.parametrize("name", sorted(PRIVACY_DIGESTS))
def test_shipped_privacy_report_digest(name, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = CONFIGS / f"{name}.json"
    outputs = json.loads(config.read_text(encoding="utf-8"))["outputs"]
    assert main(["privacy", str(config), "--target-epsilon", "24"]) == EXIT_OK
    report = (tmp_path / outputs / "privacy_report.json").read_bytes()
    assert _sha256(report) == PRIVACY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(set(CONFIG_DIGESTS) - {"ppdc_bbit"}))
def test_shipped_config_digest(name):
    # What _write_metadata records as config_sha256 for this config.
    rc = load_config(CONFIGS / f"{name}.json")
    assert config_digest(to_document(rc)) == CONFIG_DIGESTS[name]


def test_inline_config_metadata_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PPDC_BBIT_DOC), encoding="utf-8")
    assert main(["run", str(config)]) == EXIT_OK
    meta = json.loads((tmp_path / "ppdc_bbit" / "metadata.json").read_text(encoding="utf-8"))
    assert meta["config_sha256"] == CONFIG_DIGESTS["ppdc_bbit"]


def test_ppdc_bbit_reference_trace_digest(golden_trace):
    assert _sha256(golden_trace("ppdc_bbit")) == TRACE_DIGESTS["ppdc_bbit"]


@pytest.mark.parametrize("name", sorted(INLINE_GOLDEN))
def test_inline_config_trace_digest(name, golden_trace):
    assert _sha256(golden_trace(name)) == TRACE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCS))
def test_trace_within_bounds_of_frozen_fixture(name, golden_trace):
    fixture = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    lines, ok = drift_table(fixture, golden_trace(name).decode("utf-8"))
    assert ok, f"{name} drifted past its bounds:\n" + "\n".join(lines)


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCS))
def test_frozen_fixture_is_unchanged(name):
    assert _sha256((GOLDEN_DIR / f"{name}.csv").read_bytes()) == FIXTURE_DIGESTS[name]


def test_every_fixture_belongs_to_a_golden_config():
    frozen = {path.stem for path in GOLDEN_DIR.glob("*.csv")}
    assert frozen == set(GOLDEN_DOCS) == set(TRACE_DIGESTS) == set(FIXTURE_DIGESTS)


def test_drift_table_flags_each_rule():
    fixture = (GOLDEN_DIR / "ppdc_bbit.csv").read_text(encoding="utf-8")
    header, columns = _columns(fixture)

    def edited(column: str, value: str) -> str:
        rows = [line.split(",") for line in fixture.splitlines()[1:]]
        rows[3][header.index(column)] = value
        return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"

    assert drift_table(fixture, fixture)[1]
    old_err = float(columns["consensus_err"][3])
    lines, ok = drift_table(fixture, edited("consensus_err", repr(old_err * (1 + 5e-7))))
    assert ok
    lines, ok = drift_table(fixture, edited("consensus_err", repr(old_err * (1 + 2e-6))))
    assert not ok and "consensus_err" in lines[2] and lines[2].endswith("NO")
    old_res = float(columns["tracking_or_dual_residual"][3])
    assert not drift_table(fixture, edited("tracking_or_dual_residual", repr(old_res + 2e-9)))[1]
    assert not drift_table(fixture, edited("cum_bits", columns["cum_bits"][3] + "0"))[1]
    assert not drift_table(fixture, edited("R_k", ""))[1]
