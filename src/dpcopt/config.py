"""Run configuration: strict JSON parsing into a RunConfig, which holds
the engine config it runs with, and serialization back to a replayable
document.

The config is a single UTF-8 JSON object. Unknown keys anywhere are
errors (catches typos before they silently change an experiment), and
every validation failure names the offending field with a dotted path.
The objective (objectives.ObjectiveConfig), compressor, noise and engine
records check their own fields, as does the record a sweep value lands
in; the graph, privacy, reference and sweep sections rely on the parser.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from dpcopt.compressors import make_spec
from dpcopt.errors import ConfigInvalid, DisconnectedGraph, InvalidEdge
from dpcopt.noise import NoiseSchedule
from dpcopt.objectives import MAX_BOX_RADIUS, ObjectiveConfig
from dpcopt.pgtc import PgtcConfig
from dpcopt.ppdc import PpdcConfig
from dpcopt.topology import Graph, build_graph

__all__ = [
    "ObjectiveConfig",
    "SweepConfig",
    "ReferenceConfig",
    "PrivacyConfig",
    "RunConfig",
    "parse_config",
    "load_config",
    "to_document",
    "config_digest",
    "apply_sweep_value",
    "build_engine_config",
]


ENGINES = {engine.NAME: engine for engine in (PgtcConfig, PpdcConfig)}

SWEEP_PARAMETERS = ("q", "s", "eta")

DEFAULT_BOX_RADIUS = 1.0
DEFAULT_PRIVACY_TRIALS = 2000
DEFAULT_SPLIT = 0.5
DEFAULT_CONTRACTION_TRIALS = 2000

_MAX_SEED = 2**63 - 1


def _where(path: str, key: str) -> str:
    """The dotted path of key under path ("" at the top level)."""
    return f"{path}.{key}" if path else key


REQUIRED = object()  # the default of a key that must be given


def _read(doc, path: str, fields: dict) -> dict:
    """The object doc at path, read through fields: each allowed key maps
    to (reader, default), and a reader takes the value and its dotted path.
    An absent key takes its default unless that is REQUIRED."""
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"{path}: expected an object")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigInvalid(f"{_where(path, unknown[0])}: unknown key")
    for key, (_, default) in fields.items():
        if default is REQUIRED and key not in doc:
            raise ConfigInvalid(f"{_where(path, key)}: required")
    return {
        key: reader(doc[key], _where(path, key)) if key in doc else default
        for key, (reader, default) in fields.items()
    }


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{where}: expected an integer")
    return value


def _float(value, where: str) -> float:
    """value as a float; NaN, Infinity and integers beyond the float range
    (all of which Python's json accepts) are invalid."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{where}: expected a number")
    if not abs(value) <= sys.float_info.max:
        raise ConfigInvalid(f"{where}: expected a finite number")
    return float(value)


def _of_type(json_type: type, name: str):
    def read(value, where: str):
        if not isinstance(value, json_type):
            raise ConfigInvalid(f"{where}: expected {name}")
        return value

    return read


_bool = _of_type(bool, "a boolean")
_str = _of_type(str, "a string")
_list = _of_type(list, "a list")


def _object(value, where: str):
    """A section whose keys depend on another field: its own _read checks
    it once that field is known."""
    return value


@dataclass(frozen=True)
class SweepConfig:
    parameter: str
    values: tuple[float, ...]
    repeats: int


@dataclass(frozen=True)
class ReferenceConfig:
    horizon_multiplier: int


@dataclass(frozen=True)
class PrivacyConfig:
    box_radius: float = DEFAULT_BOX_RADIUS
    trials: int = DEFAULT_PRIVACY_TRIALS
    split: float = DEFAULT_SPLIT


@dataclass(frozen=True)
class RunConfig:
    graph: Graph
    objective: ObjectiveConfig
    engine: PgtcConfig | PpdcConfig
    seed: int
    outputs: str
    reference: ReferenceConfig | None = None
    sweep: SweepConfig | None = None
    privacy: PrivacyConfig = PrivacyConfig()
    contraction_trials: int = DEFAULT_CONTRACTION_TRIALS

    # The engine record names its algorithm; bench/setup_probe.py reads it
    # and the next two.
    algorithm = property(lambda self: self.engine.NAME)
    compressor = property(lambda self: self.engine.compressor)
    iterations = property(lambda self: self.engine.iterations)


def _parse_graph(doc, path: str) -> Graph:
    fields = _read(doc, path, {"n": (_int, REQUIRED), "edges": (_list, REQUIRED)})
    n = fields["n"]
    pairs = []
    for index, pair in enumerate(fields["edges"]):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(e, bool) or not isinstance(e, int) for e in pair)
        ):
            raise ConfigInvalid(f"graph.edges[{index}]: expected an [i, j] integer pair")
        pairs.append((pair[0], pair[1]))
    try:
        return build_graph(n, pairs)
    except (InvalidEdge, DisconnectedGraph) as exc:
        raise type(exc)(f"{'graph.n' if n < 2 else 'graph.edges'}: {exc}") from None


def _parse_objective(doc, path: str) -> ObjectiveConfig:
    fields = _read(doc, path, {
        "kind": (_str, REQUIRED), "d": (_int, REQUIRED),
        "m": (_int, None), "lambda": (_float, None), "alpha": (_float, None),
    })
    fields["lam"] = fields.pop("lambda")
    return ObjectiveConfig(**fields)


def _parse_schedule(doc, path: str) -> NoiseSchedule:
    fields = _read(doc, path, {
        "s": (_float, REQUIRED), "q": (_float, REQUIRED), "enabled": (_bool, True),
    })
    try:
        return NoiseSchedule(**fields)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}.{exc}") from None


def _parse_sweep(doc, path: str) -> SweepConfig:
    fields = _read(doc, path, {
        "parameter": (_str, REQUIRED),
        "values": (_list, REQUIRED),
        "repeats": (_int, REQUIRED),
    })
    parameter = fields["parameter"]
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigInvalid(f"sweep.parameter: must be one of {SWEEP_PARAMETERS}")
    if not fields["values"]:
        raise ConfigInvalid("sweep.values: expected a nonempty list of numbers")
    values = tuple(_float(v, f"sweep.values[{i}]") for i, v in enumerate(fields["values"]))
    if fields["repeats"] < 1:
        raise ConfigInvalid("sweep.repeats: must be >= 1")
    return SweepConfig(parameter=parameter, values=values, repeats=fields["repeats"])


def _parse_reference(doc, path: str) -> ReferenceConfig:
    fields = _read(doc, path, {"horizon_multiplier": (_int, REQUIRED)})
    if fields["horizon_multiplier"] < 10:
        raise ConfigInvalid("reference.horizon_multiplier: must be >= 10")
    return ReferenceConfig(**fields)


def _parse_privacy(doc, path: str) -> PrivacyConfig:
    fields = _read(doc, path, {
        "box_radius": (_float, DEFAULT_BOX_RADIUS),
        "trials": (_int, DEFAULT_PRIVACY_TRIALS),
        "split": (_float, DEFAULT_SPLIT),
    })
    if fields["box_radius"] <= 0:
        raise ConfigInvalid("privacy.box_radius: must be positive")
    if fields["box_radius"] > MAX_BOX_RADIUS:
        raise ConfigInvalid(f"privacy.box_radius: must be at most {MAX_BOX_RADIUS!r}")
    if fields["trials"] < 1:
        raise ConfigInvalid("privacy.trials: must be >= 1")
    if not (0.0 < fields["split"] < 1.0):
        raise ConfigInvalid("privacy.split: must lie in (0, 1)")
    return PrivacyConfig(**fields)


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigInvalid("config: expected a JSON object")
    top = _read(doc, "", {
        "algorithm": (_str, REQUIRED),
        "graph": (_parse_graph, REQUIRED),
        "objective": (_parse_objective, REQUIRED),
        "compressor": (_object, REQUIRED),
        "noise": (_object, REQUIRED),
        "gains": (_object, REQUIRED),
        "iterations": (_int, REQUIRED),
        "seed": (_int, REQUIRED),
        "outputs": (_str, REQUIRED),
        "reference": (_parse_reference, None),
        "sweep": (_parse_sweep, None),
        "privacy": (_parse_privacy, PrivacyConfig()),
        "contraction_trials": (_int, DEFAULT_CONTRACTION_TRIALS),
    })
    algorithm = top.pop("algorithm")
    if algorithm not in ENGINES:
        raise ConfigInvalid(f"algorithm: must be one of {tuple(ENGINES)}")
    engine_class = ENGINES[algorithm]
    compressor = _read(top.pop("compressor"), "compressor", {
        "kind": (_str, REQUIRED), "k": (_int, None), "b": (_int, None),
        "r": (_float, None), "phi": (_float, None),
    })
    second = engine_class.SECOND
    noise = _read(top.pop("noise"), "noise", {
        "x": (_parse_schedule, REQUIRED), second: (_parse_schedule, REQUIRED),
    })
    gains = _read(top.pop("gains"), "gains", {k: (_float, REQUIRED) for k in engine_class.GAINS})
    if not (0 <= top["seed"] <= _MAX_SEED):
        raise ConfigInvalid("seed: must fit in an unsigned 63-bit integer")
    if not top["outputs"]:
        raise ConfigInvalid("outputs: must be a nonempty path")
    if "\0" in top["outputs"]:
        raise ConfigInvalid("outputs: must not contain a NUL character")
    if top["contraction_trials"] < 1000:
        raise ConfigInvalid("contraction_trials: must be >= 1000")
    engine = engine_class(
        compressor=make_spec(d=top["objective"].d, **compressor),
        noise_x=noise["x"],
        **{f"noise_{second}": noise[second]},
        iterations=top.pop("iterations"),
        **gains,
    )
    rc = RunConfig(engine=engine, **top)
    for index, value in enumerate(rc.sweep.values if rc.sweep else ()):
        try:
            apply_sweep_value(rc, rc.sweep.parameter, value)
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"sweep.values[{index}]: {exc}") from None
    return rc


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its (key, value) pairs; json.loads would keep the
    last of a repeated key, so a repeat is an error."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigInvalid(f"config: duplicate key {key!r}")
        doc[key] = value
    return doc


def load_config(path) -> RunConfig:
    """Load a config file; a metadata document (from a previous run) is
    accepted too and replays its embedded config."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalid(f"config: cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config: invalid JSON in {path}: {exc}") from exc
    if isinstance(doc, dict) and "config" in doc and "config_sha256" in doc:
        if config_digest(doc["config"]) != doc["config_sha256"]:
            raise ConfigInvalid("config_sha256: does not match the embedded config")
        doc = doc["config"]
    return parse_config(doc)


def build_engine_config(rc: RunConfig) -> PgtcConfig | PpdcConfig:
    """The engine config rc runs with (bench/tracer.py wraps this name)."""
    return rc.engine


def _record(record) -> dict:
    """A record's fields as a config section: unset (None) fields are
    left out, and lam is written as lambda."""
    return {
        "lambda" if key == "lam" else key: value
        for key, value in asdict(record).items()
        if value is not None
    }


def to_document(rc: RunConfig) -> dict:
    """Serialize back to a config document that parses to the same run.

    All defaults are materialized so the document alone pins the
    experiment.
    """
    engine = rc.engine
    gains = {key: getattr(engine, key) for key in engine.GAINS}
    noise = {"x": asdict(engine.noise_x), engine.SECOND: asdict(engine.noise_second)}
    doc = {
        "algorithm": rc.algorithm,
        "graph": {
            "n": rc.graph.n,
            "edges": [[i, j] for i, j in sorted(rc.graph.edges)],
        },
        "objective": _record(rc.objective),
        "compressor": _record(engine.compressor),
        "noise": noise,
        "gains": gains,
        "iterations": engine.iterations,
        "seed": rc.seed,
        "outputs": rc.outputs,
        "privacy": asdict(rc.privacy),
        "contraction_trials": rc.contraction_trials,
    }
    if rc.reference is not None:
        doc["reference"] = asdict(rc.reference)
    if rc.sweep is not None:
        doc["sweep"] = {**asdict(rc.sweep), "values": list(rc.sweep.values)}
    return doc


def config_digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a config document."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def apply_sweep_value(rc: RunConfig, parameter: str, value: float) -> RunConfig:
    """New RunConfig with one swept parameter substituted; the records it
    lands in check it.

    q and s apply to both noise families (the experiment protocol uses a
    single shared noise setting); eta replaces the step size.
    """
    engine = rc.engine
    if parameter in ("q", "s"):
        fields = ("noise_x", f"noise_{engine.SECOND}")
        engine = replace(engine, **{
            field: replace(getattr(engine, field), **{parameter: value}) for field in fields
        })
    elif parameter == "eta":
        engine = replace(engine, eta=value)
    else:
        raise ConfigInvalid(f"sweep.parameter: must be one of {SWEEP_PARAMETERS}")
    return replace(rc, engine=engine)
