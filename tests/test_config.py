"""Config document parsing, serialization, digesting, and sweep
substitution."""

import copy
import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import config_documents
from dpcopt.config import (
    ENGINES,
    PrivacyConfig,
    ReferenceConfig,
    RunConfig,
    apply_sweep_value,
    build_engine_config,
    config_digest,
    load_config,
    parse_config,
    to_document,
)
from dpcopt.errors import ConfigInvalid, DpcoptError, SpecDimensionMismatch
from dpcopt.pgtc import PgtcConfig
from dpcopt.ppdc import PpdcConfig
from dpcopt.runner import EXIT_CONFIG_ERROR, execute_run, main


def base_doc(algorithm="pgtc"):
    gains = (
        {"eta": 0.1, "gamma": 0.2, "alpha_x": 0.5, "alpha_y": 0.5}
        if algorithm == "pgtc"
        else {"eta": 0.015, "gamma": 45.0, "alpha_x": 0.2, "omega": 5.0}
    )
    second = "y" if algorithm == "pgtc" else "v"
    return {
        "algorithm": algorithm,
        "graph": {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]},
        "objective": {"kind": "quadratic", "d": 4},
        "compressor": {"kind": "topk", "k": 2},
        "noise": {
            "x": {"s": 0.1, "q": 0.5},
            second: {"s": 0.1, "q": 0.5},
        },
        "gains": gains,
        "iterations": 5,
        "seed": 42,
        "outputs": "out",
    }


def test_parse_minimal_pgtc():
    rc = parse_config(base_doc())
    assert rc.algorithm == "pgtc"
    assert rc.engine.SECOND == "y"
    assert rc.graph.n == 3
    assert rc.objective.kind == "quadratic"
    assert rc.compressor.kind == "topk" and rc.compressor.k == 2
    assert rc.compressor.phi == 0.5  # k/d default
    assert rc.engine.noise_x.enabled and rc.engine.noise_x.s == 0.1
    assert isinstance(rc.engine, PgtcConfig) and rc.engine.alpha_y == 0.5
    assert rc.privacy == PrivacyConfig()
    assert rc.reference is None and rc.sweep is None
    assert rc.contraction_trials == 2000


def test_parse_minimal_ppdc():
    rc = parse_config(base_doc("ppdc"))
    assert rc.engine.SECOND == "v"
    assert rc.engine.omega == 5.0 and rc.engine.noise_v.s == 0.1
    assert isinstance(build_engine_config(rc), PpdcConfig)


def test_engine_config_resolution():
    cfg = build_engine_config(parse_config(base_doc()))
    assert isinstance(cfg, PgtcConfig)
    assert cfg.eta == 0.1 and cfg.noise_y.s == 0.1 and cfg.iterations == 5


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(frobnicate=1), "frobnicate: unknown key"),
        (lambda d: d["gains"].update(momentum=0.9), "gains.momentum: unknown key"),
        (lambda d: d["noise"]["x"].update(mean=0.0), "noise.x.mean: unknown key"),
        (lambda d: d.pop("gains"), "gains: required"),
        (lambda d: d["noise"].pop("y"), "noise.y: required"),
        (lambda d: d["gains"].pop("alpha_y"), "gains.alpha_y: required"),
        (lambda d: d["graph"].pop("edges"), "graph.edges: required"),
        (lambda d: d.update(privacy=None), "privacy: expected an object"),
        (lambda d: d.update(privacy=[]), "privacy: expected an object"),
        (lambda d: d.update(privacy=""), "privacy: expected an object"),
        (lambda d: d.update(reference=5), "reference: expected an object"),
        (lambda d: d.update(sweep=[]), "sweep: expected an object"),
        (lambda d: d["noise"].update(x=[]), "noise.x: expected an object"),
    ],
)
def test_unknown_and_missing_keys(mutate, message):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigInvalid, match=message):
        parse_config(doc)


def test_ppdc_gains_require_omega():
    doc = base_doc("ppdc")
    del doc["gains"]["omega"]
    with pytest.raises(ConfigInvalid, match="gains.omega: required"):
        parse_config(doc)


def test_ppdc_rejects_y_noise_family():
    doc = base_doc("ppdc")
    doc["noise"]["y"] = doc["noise"].pop("v")
    with pytest.raises(ConfigInvalid):
        parse_config(doc)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(algorithm="sgd"),
        lambda d: d.update(iterations=True),
        lambda d: d.update(iterations=0),
        lambda d: d.update(seed=-1),
        lambda d: d.update(seed=2**63),
        lambda d: d.update(outputs=""),
        lambda d: d.update(outputs=7),
        lambda d: d["gains"].update(eta="fast"),
        lambda d: d["gains"].update(gamma=0.0),
        lambda d: d["gains"].update(gamma=1.5),
        lambda d: d["gains"].update(alpha_y=2.1),
        lambda d: d["noise"]["x"].update(s=-0.1),
        lambda d: d["noise"]["x"].update(q=0.0),
        lambda d: d["noise"]["x"].update(q=1.0),
        lambda d: d["noise"]["x"].update(enabled="yes"),
        lambda d: d["graph"].update(edges=[[0, 1], [0, 1], [1, 2], [0, 2]]),
        lambda d: d["graph"].update(edges="ring"),
        lambda d: d["graph"].update(edges=[[0, 1, 2]]),
        lambda d: d["objective"].update(kind="cubic"),
        lambda d: d["objective"].update(d=0),
        lambda d: d["compressor"].update(kind="sketch"),
        lambda d: d["compressor"].pop("k"),
        lambda d: d.update(contraction_trials=999),
        lambda d: d.update(outputs="nul\0out"),
    ],
)
def test_invalid_field_values(mutate):
    # Every rejection is a DpcoptError so the CLI can map it to the
    # config-error exit code; most are ConfigInvalid, graph problems
    # keep their topology types.
    doc = base_doc()
    mutate(doc)
    with pytest.raises(DpcoptError):
        parse_config(doc)


def test_topk_k_exceeding_d_is_a_spec_mismatch():
    doc = base_doc()
    doc["compressor"]["k"] = 5
    with pytest.raises(SpecDimensionMismatch):
        parse_config(doc)


def test_logistic_requires_all_parameters():
    doc = base_doc()
    doc["objective"] = {"kind": "logistic", "d": 4, "m": 20, "lambda": 0.001}
    with pytest.raises(ConfigInvalid, match="objective.alpha: required"):
        parse_config(doc)
    doc["objective"]["alpha"] = 1.0
    rc = parse_config(doc)
    assert rc.objective.m == 20 and rc.objective.lam == 0.001


def test_quadratic_rejects_logistic_parameters():
    doc = base_doc()
    doc["objective"]["m"] = 20
    with pytest.raises(ConfigInvalid, match="objective.m: not a parameter"):
        parse_config(doc)


def test_sweep_parsing_and_validation():
    doc = base_doc()
    doc["sweep"] = {"parameter": "q", "values": [0.2, 0.5, 0.8], "repeats": 3}
    rc = parse_config(doc)
    assert rc.sweep.parameter == "q"
    assert rc.sweep.values == (0.2, 0.5, 0.8)
    for bad in (
        {"parameter": "gamma", "values": [0.1], "repeats": 1},
        {"parameter": "q", "values": [], "repeats": 1},
        {"parameter": "q", "values": [1.5], "repeats": 1},
        {"parameter": "s", "values": [-1.0], "repeats": 1},
        {"parameter": "q", "values": [0.5], "repeats": 0},
        {"parameter": "q", "values": [0.5, True], "repeats": 1},
    ):
        doc["sweep"] = bad
        with pytest.raises(ConfigInvalid):
            parse_config(doc)
    # s = 0 is a valid noise scale, so a sweep takes it too, and its cells
    # run as if both noise families were disabled.
    doc["sweep"] = {"parameter": "s", "values": [0.0], "repeats": 1}
    cell = apply_sweep_value(parse_config(doc), "s", 0.0)
    quiet = base_doc()
    for schedule in quiet["noise"].values():
        schedule["enabled"] = False
    swept, _, _ = execute_run(cell)
    noiseless, _, _ = execute_run(parse_config(quiet))
    for column in ("consensus_err", "grad_norm_mean", "residual"):
        assert getattr(swept, column).tobytes() == getattr(noiseless, column).tobytes()


def test_reference_and_privacy_blocks():
    doc = base_doc()
    doc["reference"] = {"horizon_multiplier": 10}
    doc["privacy"] = {"box_radius": 2.0, "trials": 1500, "split": 0.25}
    rc = parse_config(doc)
    assert rc.reference.horizon_multiplier == 10
    assert rc.privacy == PrivacyConfig(box_radius=2.0, trials=1500, split=0.25)
    doc["reference"] = {"horizon_multiplier": 9}
    with pytest.raises(ConfigInvalid, match="reference.horizon_multiplier"):
        parse_config(doc)
    doc["reference"] = {"horizon_multiplier": 10}
    doc["privacy"] = {"split": 1.0}
    with pytest.raises(ConfigInvalid, match="privacy.split"):
        parse_config(doc)


def test_to_document_round_trip():
    for algorithm in ("pgtc", "ppdc"):
        doc = base_doc(algorithm)
        doc["reference"] = {"horizon_multiplier": 12}
        doc["sweep"] = {"parameter": "s", "values": [0.1, 1.0], "repeats": 2}
        rc = parse_config(doc)
        materialized = to_document(rc)
        again = parse_config(materialized)
        assert again == rc
        assert to_document(again) == materialized
        assert config_digest(materialized) == config_digest(to_document(again))


@settings(max_examples=100, deadline=None)
@given(config_documents())
def test_every_valid_document_round_trips(doc):
    rc = parse_config(doc)
    materialized = to_document(rc)
    again = parse_config(json.loads(json.dumps(materialized)))
    assert again == rc
    assert to_document(again) == materialized
    assert config_digest(to_document(again)) == config_digest(materialized)


FINITE = st.floats(allow_nan=False, allow_infinity=False)

# The fields the sweep, reference, privacy and run records check, each with
# values of its JSON type: integers, finite numbers or text.
RECORD_FIELDS = {
    "seed": st.integers(),
    "outputs": st.text(),
    "contraction_trials": st.integers(),
    "privacy.box_radius": FINITE,
    "privacy.trials": st.integers(),
    "privacy.split": FINITE,
    "reference.horizon_multiplier": st.integers(),
    "sweep.parameter": st.one_of(st.sampled_from(["q", "s", "eta"]), st.text()),
    "sweep.values": st.lists(FINITE, max_size=3),
    "sweep.repeats": st.integers(),
}


@settings(max_examples=200, deadline=None)
@given(config_documents(), st.data())
def test_a_config_built_in_code_checks_itself_or_replays(doc, data):
    # One field replaced in code: the record either raises the parser's
    # message for the same document, or holds a run whose document replays.
    rc = parse_config(doc)
    # A section the document leaves out (reference, sweep) has no record.
    paths = [p for p in RECORD_FIELDS if "." not in p or getattr(rc, p.split(".")[0])]
    path = data.draw(st.sampled_from(paths), label="field")
    value = data.draw(RECORD_FIELDS[path], label="value")
    section, _, key = path.rpartition(".")
    changed = copy.deepcopy(doc)
    (changed.setdefault(section, {}) if section else changed)[key] = value
    if key == "values":
        value = tuple(value)
    try:
        if section:
            record = dataclasses.replace(getattr(rc, section), **{key: value})
            rc2 = dataclasses.replace(rc, **{section: record})
        else:
            rc2 = dataclasses.replace(rc, **{key: value})
    except ConfigInvalid as exc:
        with pytest.raises(ConfigInvalid) as parsed:
            parse_config(changed)
        assert str(parsed.value) == str(exc)
    else:
        assert parse_config(to_document(rc2)) == rc2
        assert parse_config(changed) == rc2


SHIPPED_TOPK = Path(__file__).resolve().parent.parent / "configs" / "pgtc_topk_logistic.json"


@pytest.mark.parametrize("d", range(1, 21))
def test_a_replaced_objective_is_checked_against_the_compressor(d):
    # The shipped top-k config keeps k = 2: a dimension below it raises the
    # parser's message for the same document, and any other replays.
    rc = load_config(SHIPPED_TOPK)
    changed = to_document(rc)
    changed["objective"]["d"] = d
    try:
        rc2 = dataclasses.replace(rc, objective=dataclasses.replace(rc.objective, d=d))
    except SpecDimensionMismatch as exc:
        assert str(exc) == f"compressor.k: top-k with k=2 exceeds d={d}"
        with pytest.raises(SpecDimensionMismatch) as parsed:
            parse_config(changed)
        assert str(parsed.value) == str(exc)
    else:
        assert d >= 2
        assert parse_config(to_document(rc2)) == rc2
        assert parse_config(changed) == rc2


def test_a_reference_record_checks_itself_before_any_round(monkeypatch):
    monkeypatch.setattr("dpcopt.runner.pgtc_run", lambda *args, **kw: pytest.fail("a round ran"))
    rc = parse_config(base_doc())
    with pytest.raises(ConfigInvalid, match=r"^reference\.horizon_multiplier: must be >= 10$"):
        execute_run(dataclasses.replace(rc, reference=ReferenceConfig(3)))


# One value of each JSON type. A field is given one of another type, so a
# section is given a non-object.
JSON_VALUES = [None, True, 7, "x", [], {}]


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def _key_paths(doc, path=()):
    """The path of every key in doc, the keys of nested objects included."""
    for key, value in doc.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, path + (key,))


@settings(max_examples=200, deadline=None)
@given(config_documents(), st.data())
def test_one_bad_field_is_named_by_its_path(doc, data):
    path = data.draw(st.sampled_from(list(_key_paths(doc))))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    key = path[-1]
    fault = data.draw(st.sampled_from(["unknown sibling", "wrong type", "nan"]))
    if fault == "unknown sibling":
        owner["unknown_key"] = owner.pop(key)
        path = path[:-1] + ("unknown_key",)
    elif fault == "wrong type":
        others = [v for v in JSON_VALUES if _json_type(v) != _json_type(owner[key])]
        owner[key] = data.draw(st.sampled_from(others))
    else:
        owner[key] = math.nan
    with pytest.raises(DpcoptError) as caught:
        parse_config(doc)
    assert str(caught.value).startswith(".".join(path) + ":")


def test_digest_is_canonical():
    doc = to_document(parse_config(base_doc()))
    shuffled = dict(reversed(list(doc.items())))
    assert config_digest(doc) == config_digest(shuffled)
    bumped = copy.deepcopy(doc)
    bumped["seed"] = 43
    assert config_digest(doc) != config_digest(bumped)


def test_load_config_file_and_replay(tmp_path):
    doc = base_doc()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = load_config(path)
    assert rc == parse_config(doc)

    # A metadata document embeds the materialized config and replays it.
    materialized = to_document(rc)
    meta = {
        "config": materialized,
        "config_sha256": config_digest(materialized),
        "seed": rc.seed,
        "library_version": "0.0.0",
        "invariants": {},
    }
    meta_path = tmp_path / "metadata.json"
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    assert load_config(meta_path) == rc


def test_load_config_rejects_a_metadata_document_with_a_stale_digest(tmp_path):
    materialized = to_document(parse_config(base_doc()))
    meta = {"config": materialized, "config_sha256": config_digest(materialized)}
    # The embedded config was edited after its digest was recorded.
    meta["config"] = {**materialized, "iterations": materialized["iterations"] + 2}
    path = tmp_path / "metadata.json"
    path.write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="config_sha256"):
        load_config(path)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigInvalid, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="invalid JSON"):
        load_config(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="expected a JSON object"):
        load_config(array)


def test_load_config_rejects_a_repeated_key(tmp_path, capsys):
    # json.loads keeps the last of a repeated key: the shipped config would
    # run 3 rounds instead of its 1000.
    shipped = Path(__file__).resolve().parent.parent / "configs" / "pgtc_topk_logistic.json"
    text = shipped.read_text(encoding="utf-8")
    assert text.count('"iterations": 1000,') == 1
    path = tmp_path / "repeated.json"
    path.write_text(
        text.replace('"iterations": 1000,', '"iterations": 1000, "iterations": 3,'),
        encoding="utf-8",
    )
    with pytest.raises(ConfigInvalid, match="^config: duplicate key 'iterations'$"):
        load_config(path)
    assert main(["run", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "config error: config: duplicate key 'iterations'\n"
    # A repeat inside a section is caught too.
    nested = json.dumps(base_doc()).replace('"k": 2', '"k": 2, "k": 1')
    path.write_text(nested, encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="duplicate key 'k'"):
        load_config(path)


def test_algorithm_is_the_engine_records_name():
    assert ENGINES == {"pgtc": PgtcConfig, "ppdc": PpdcConfig}
    pgtc, ppdc = parse_config(base_doc()), parse_config(base_doc("ppdc"))
    assert (pgtc.algorithm, ppdc.algorithm) == ("pgtc", "ppdc")
    # No run config can name one algorithm and hold the other's engine.
    assert dataclasses.replace(pgtc, engine=ppdc.engine).algorithm == "ppdc"
    with pytest.raises(TypeError, match="algorithm"):
        RunConfig(
            algorithm="pgtc", graph=pgtc.graph, objective=pgtc.objective,
            engine=ppdc.engine, seed=1, outputs="out",
        )
    assert to_document(pgtc)["algorithm"] == "pgtc"


def test_apply_sweep_value():
    rc = parse_config(base_doc())
    swept = apply_sweep_value(rc, "q", 0.9).engine
    assert swept.noise_x.q == 0.9 and swept.noise_y.q == 0.9
    assert swept.noise_x.s == rc.engine.noise_x.s
    swept = apply_sweep_value(rc, "s", 7.0).engine
    assert swept.noise_x.s == 7.0 and swept.noise_y.s == 7.0
    assert swept.noise_x.q == rc.engine.noise_x.q
    swept = apply_sweep_value(rc, "eta", 0.05).engine
    assert swept.eta == 0.05 and swept.noise_x == rc.engine.noise_x
    with pytest.raises(ConfigInvalid):
        apply_sweep_value(rc, "gamma", 0.3)
