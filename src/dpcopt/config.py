"""Run configuration: strict JSON parsing, resolution to engine configs,
and serialization back to a replayable document.

The config is a single UTF-8 JSON object. Unknown keys anywhere are
errors (catches typos before they silently change an experiment), and
every validation failure names the offending field with a dotted path.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple

from dpcopt.compressors import CompressorSpec, make_spec
from dpcopt.errors import ConfigInvalid, DisconnectedGraph, InvalidEdge
from dpcopt.noise import NoiseSchedule
from dpcopt.objectives import MAX_BOX_RADIUS
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


class AlgorithmNames(NamedTuple):
    gains: tuple[str, ...]  # the gains a config must give, in parse order
    second_family: str  # the second noised variable: y or v


ALGORITHMS = {
    "pgtc": AlgorithmNames(("eta", "gamma", "alpha_x", "alpha_y"), "y"),
    "ppdc": AlgorithmNames(("eta", "gamma", "alpha_x", "omega"), "v"),
}

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
class ObjectiveConfig:
    kind: str
    d: int
    m: int | None = None
    lam: float | None = None
    alpha: float | None = None


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
    algorithm: str
    graph: Graph
    objective: ObjectiveConfig
    compressor: CompressorSpec
    noise_x: NoiseSchedule
    noise_second: NoiseSchedule
    eta: float
    gamma: float
    alpha_x: float
    alpha_y: float | None
    omega: float | None
    iterations: int
    seed: int
    outputs: str
    reference: ReferenceConfig | None = None
    sweep: SweepConfig | None = None
    privacy: PrivacyConfig = PrivacyConfig()
    contraction_trials: int = DEFAULT_CONTRACTION_TRIALS

    @property
    def second_family(self) -> str:
        return ALGORITHMS[self.algorithm].second_family


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
    kind = fields["kind"]
    if kind == "logistic":
        for key in ("m", "lambda", "alpha"):
            if fields[key] is None:
                raise ConfigInvalid(f"objective.{key}: required for logistic")
        if fields["m"] < 1:
            raise ConfigInvalid("objective.m: must be >= 1")
        if fields["alpha"] < 0:
            # The regulariser lambda alpha x^2 / (1 + alpha x^2) has a pole
            # at |x_s| = 1/sqrt(-alpha).
            raise ConfigInvalid("objective.alpha: must be >= 0")
    elif kind in ("sincos", "quadratic"):
        for key in ("m", "lambda", "alpha"):
            if fields[key] is not None:
                raise ConfigInvalid(f"objective.{key}: not a parameter of {kind}")
    else:
        raise ConfigInvalid(f"objective.kind: unknown kind {kind!r}")
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
    values = []
    for index, value in enumerate(fields["values"]):
        value = _float(value, f"sweep.values[{index}]")
        if parameter in ("q",) and not (0.0 < value < 1.0):
            raise ConfigInvalid(f"sweep.values[{index}]: q must lie in (0, 1)")
        if parameter in ("s", "eta") and value <= 0:
            raise ConfigInvalid(f"sweep.values[{index}]: must be positive")
        values.append(value)
    if fields["repeats"] < 1:
        raise ConfigInvalid("sweep.repeats: must be >= 1")
    return SweepConfig(parameter=parameter, values=tuple(values), repeats=fields["repeats"])


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
    if algorithm not in ALGORITHMS:
        raise ConfigInvalid(f"algorithm: must be one of {tuple(ALGORITHMS)}")
    names = ALGORITHMS[algorithm]
    compressor = _read(top.pop("compressor"), "compressor", {
        "kind": (_str, REQUIRED), "k": (_int, None), "b": (_int, None),
        "r": (_float, None), "phi": (_float, None),
    })
    second = names.second_family
    noise = _read(top.pop("noise"), "noise", {
        "x": (_parse_schedule, REQUIRED), second: (_parse_schedule, REQUIRED),
    })
    gains = _read(top.pop("gains"), "gains", {key: (_float, REQUIRED) for key in names.gains})
    if not (0 <= top["seed"] <= _MAX_SEED):
        raise ConfigInvalid("seed: must fit in an unsigned 63-bit integer")
    if not top["outputs"]:
        raise ConfigInvalid("outputs: must be a nonempty path")
    if "\0" in top["outputs"]:
        raise ConfigInvalid("outputs: must not contain a NUL character")
    if top["contraction_trials"] < 1000:
        raise ConfigInvalid("contraction_trials: must be >= 1000")
    rc = RunConfig(
        algorithm=algorithm,
        compressor=make_spec(d=top["objective"].d, **compressor),
        noise_x=noise["x"],
        noise_second=noise[second],
        **{"alpha_y": None, "omega": None, **gains},
        **top,
    )
    build_engine_config(rc)  # surface gain/compressor violations now
    return rc


def load_config(path) -> RunConfig:
    """Load a config file; a metadata document (from a previous run) is
    accepted too and replays its embedded config."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalid(f"config: cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config: invalid JSON in {path}: {exc}") from exc
    if isinstance(doc, dict) and "config" in doc and "config_sha256" in doc:
        if config_digest(doc["config"]) != doc["config_sha256"]:
            raise ConfigInvalid("config_sha256: does not match the embedded config")
        doc = doc["config"]
    return parse_config(doc)


def build_engine_config(rc: RunConfig) -> PgtcConfig | PpdcConfig:
    """Resolve the RunConfig into the matching engine config."""
    if rc.algorithm == "pgtc":
        assert rc.alpha_y is not None
        return PgtcConfig(
            eta=rc.eta,
            gamma=rc.gamma,
            alpha_x=rc.alpha_x,
            alpha_y=rc.alpha_y,
            compressor=rc.compressor,
            noise_x=rc.noise_x,
            noise_y=rc.noise_second,
            iterations=rc.iterations,
        )
    assert rc.omega is not None
    return PpdcConfig(
        eta=rc.eta,
        gamma=rc.gamma,
        omega=rc.omega,
        alpha_x=rc.alpha_x,
        compressor=rc.compressor,
        noise_x=rc.noise_x,
        noise_v=rc.noise_second,
        iterations=rc.iterations,
    )


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
    gains = {key: getattr(rc, key) for key in ALGORITHMS[rc.algorithm].gains}
    noise = {"x": asdict(rc.noise_x), rc.second_family: asdict(rc.noise_second)}
    doc = {
        "algorithm": rc.algorithm,
        "graph": {
            "n": rc.graph.n,
            "edges": [[i, j] for i, j in sorted(rc.graph.edges)],
        },
        "objective": _record(rc.objective),
        "compressor": _record(rc.compressor),
        "noise": noise,
        "gains": gains,
        "iterations": rc.iterations,
        "seed": rc.seed,
        "outputs": rc.outputs,
        "privacy": asdict(rc.privacy),
        "contraction_trials": rc.contraction_trials,
    }
    if rc.reference is not None:
        doc["reference"] = asdict(rc.reference)
    if rc.sweep is not None:
        doc["sweep"] = {
            "parameter": rc.sweep.parameter,
            "values": list(rc.sweep.values),
            "repeats": rc.sweep.repeats,
        }
    return doc


def config_digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a config document."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def apply_sweep_value(rc: RunConfig, parameter: str, value: float) -> RunConfig:
    """New RunConfig with one swept parameter substituted.

    q and s apply to both noise families (the experiment protocol uses a
    single shared noise setting); eta replaces the step size.
    """
    if parameter in ("q", "s"):
        return replace(
            rc,
            noise_x=replace(rc.noise_x, **{parameter: value}),
            noise_second=replace(rc.noise_second, **{parameter: value}),
        )
    if parameter == "eta":
        return replace(rc, eta=value)
    raise ConfigInvalid(f"sweep.parameter: must be one of {SWEEP_PARAMETERS}")
