"""Run configuration: strict JSON parsing into a RunConfig, which holds
the engine config it runs with, and serialization back to a replayable
document.

The config is a single UTF-8 JSON object. Unknown keys anywhere are
errors (catches typos before they silently change an experiment), and
every validation failure names the offending field with a dotted path.
The parser checks JSON types (an integer, a finite number, a string, a
list, an object), and each record its own value ranges: the objective
(objectives.ObjectiveConfig), compressor, noise, engine, sweep,
reference, privacy and run records. So a RunConfig built or replaced in
code holds only a run the parser accepts, and it replays.
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


def _read(doc, path: str, required: dict, optional: dict | None = None) -> dict:
    """The object doc at path, read through required and optional, which
    map each allowed key to its reader; a reader takes the value and its
    dotted path and checks its JSON type. An absent optional key is left
    out, so the record built from the result applies its own default."""
    if not isinstance(doc, dict):
        raise ConfigInvalid(
            f"{path}: expected an object" if path else "config: expected a JSON object"
        )
    readers = {**required, **(optional or {})}
    prefix = f"{path}." if path else ""
    unknown = sorted(set(doc) - set(readers))
    if unknown:
        raise ConfigInvalid(f"{prefix}{unknown[0]}: unknown key")
    for key in required:
        if key not in doc:
            raise ConfigInvalid(f"{prefix}{key}: required")
    return {key: reader(doc[key], prefix + key) for key, reader in readers.items() if key in doc}


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
_object = _of_type(dict, "an object")  # its keys are read once the engine is known


def _check_parameter(parameter: str) -> None:
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigInvalid(f"sweep.parameter: must be one of {SWEEP_PARAMETERS}")


@dataclass(frozen=True)
class SweepConfig:
    parameter: str
    values: tuple[float, ...]
    repeats: int

    def __post_init__(self) -> None:
        _check_parameter(self.parameter)
        if not self.values:
            raise ConfigInvalid("sweep.values: expected a nonempty list of numbers")
        if self.repeats < 1:
            raise ConfigInvalid("sweep.repeats: must be >= 1")


@dataclass(frozen=True)
class ReferenceConfig:
    horizon_multiplier: int

    def __post_init__(self) -> None:
        if self.horizon_multiplier < 10:
            raise ConfigInvalid("reference.horizon_multiplier: must be >= 10")


@dataclass(frozen=True)
class PrivacyConfig:
    box_radius: float = 1.0
    trials: int = 2000
    split: float = 0.5

    def __post_init__(self) -> None:
        if not self.box_radius > 0:
            raise ConfigInvalid("privacy.box_radius: must be positive")
        if self.box_radius > MAX_BOX_RADIUS:
            raise ConfigInvalid(f"privacy.box_radius: must be at most {MAX_BOX_RADIUS!r}")
        if self.trials < 1:
            raise ConfigInvalid("privacy.trials: must be >= 1")
        if not (0.0 < self.split < 1.0):
            raise ConfigInvalid("privacy.split: must lie in (0, 1)")


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
    contraction_trials: int = 2000

    # The engine record names its algorithm; bench/setup_probe.py reads it
    # and the next two.
    algorithm = property(lambda self: self.engine.NAME)
    compressor = property(lambda self: self.engine.compressor)
    iterations = property(lambda self: self.engine.iterations)

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**63):
            raise ConfigInvalid("seed: must fit in an unsigned 63-bit integer")
        if not self.outputs:
            raise ConfigInvalid("outputs: must be a nonempty path")
        if "\0" in self.outputs:
            raise ConfigInvalid("outputs: must not contain a NUL character")
        if self.contraction_trials < 1000:
            raise ConfigInvalid("contraction_trials: must be >= 1000")
        self.compressor.check_dimension(self.objective.d)
        for index, value in enumerate(self.sweep.values if self.sweep else ()):
            try:
                _swept_engine(self.engine, self.sweep.parameter, value)
            except ConfigInvalid as exc:
                raise ConfigInvalid(f"sweep.values[{index}]: {exc}") from None


def _parse_graph(doc, path: str) -> Graph:
    fields = _read(doc, path, {"n": _int, "edges": _list})
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
    fields = _read(doc, path, {"kind": _str, "d": _int}, {
        "m": _int, "lambda": _float, "alpha": _float,
    })
    if "lambda" in fields:
        fields["lam"] = fields.pop("lambda")
    return ObjectiveConfig(**fields)


def _parse_schedule(doc, path: str) -> NoiseSchedule:
    fields = _read(doc, path, {"s": _float, "q": _float}, {"enabled": _bool})
    try:
        return NoiseSchedule(**fields)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}.{exc}") from None


def _parse_sweep(doc, path: str) -> SweepConfig:
    fields = _read(doc, path, {
        "parameter": _str,
        "values": _list,
        "repeats": _int,
    })
    values = tuple(_float(v, f"{path}.values[{i}]") for i, v in enumerate(fields.pop("values")))
    return SweepConfig(values=values, **fields)


def _parse_reference(doc, path: str) -> ReferenceConfig:
    return ReferenceConfig(**_read(doc, path, {"horizon_multiplier": _int}))


def _parse_privacy(doc, path: str) -> PrivacyConfig:
    return PrivacyConfig(**_read(doc, path, {}, {
        "box_radius": _float,
        "trials": _int,
        "split": _float,
    }))


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    top = _read(doc, "", {
        "algorithm": _str,
        "graph": _parse_graph,
        "objective": _parse_objective,
        "compressor": _object,
        "noise": _object,
        "gains": _object,
        "iterations": _int,
        "seed": _int,
        "outputs": _str,
    }, {
        "reference": _parse_reference,
        "sweep": _parse_sweep,
        "privacy": _parse_privacy,
        "contraction_trials": _int,
    })
    algorithm = top.pop("algorithm")
    if algorithm not in ENGINES:
        raise ConfigInvalid(f"algorithm: must be one of {tuple(ENGINES)}")
    engine_class = ENGINES[algorithm]
    compressor = _read(top.pop("compressor"), "compressor", {"kind": _str}, {
        "k": _int, "b": _int, "r": _float, "phi": _float,
    })
    second = engine_class.SECOND
    noise = _read(top.pop("noise"), "noise", {"x": _parse_schedule, second: _parse_schedule})
    gains = _read(top.pop("gains"), "gains", {k: _float for k in engine_class.GAINS})
    engine = engine_class(
        compressor=make_spec(d=top["objective"].d, **compressor),
        noise_x=noise["x"],
        **{f"noise_{second}": noise[second]},
        iterations=top.pop("iterations"),
        **gains,
    )
    return RunConfig(engine=engine, **top)


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


def _swept_engine(engine: PgtcConfig | PpdcConfig, parameter: str, value: float):
    """engine with one swept parameter substituted, which the records it
    lands in check: q and s set both noise schedules (the experiment
    protocol shares one noise setting), eta the step size."""
    _check_parameter(parameter)
    if parameter == "eta":
        return replace(engine, eta=value)
    fields = ("noise_x", f"noise_{engine.SECOND}")
    return replace(engine, **{
        field: replace(getattr(engine, field), **{parameter: value}) for field in fields
    })


def apply_sweep_value(rc: RunConfig, parameter: str, value: float) -> RunConfig:
    """New RunConfig with one swept parameter substituted (see _swept_engine)."""
    return replace(rc, engine=_swept_engine(rc.engine, parameter, value))
