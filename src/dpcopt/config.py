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
from dpcopt.errors import ConfigInvalid
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


def _require_keys(doc: dict, path: str, required: tuple, optional: tuple) -> None:
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ConfigInvalid(f"{_where(path, unknown[0])}: unknown key")
    for key in required:
        if key not in doc:
            raise ConfigInvalid(f"{_where(path, key)}: required")


def _as_int(doc: dict, path: str, key: str) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{_where(path, key)}: expected an integer")
    return value


def _finite(value: int | float, where: str) -> float:
    """value as a float; NaN, Infinity and integers beyond the float range
    (all of which Python's json accepts) are invalid."""
    if not abs(value) <= sys.float_info.max:
        raise ConfigInvalid(f"{where}: expected a finite number")
    return float(value)


def _as_float(doc: dict, path: str, key: str) -> float:
    value = doc[key]
    where = _where(path, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{where}: expected a number")
    return _finite(value, where)


def _as_bool(doc: dict, path: str, key: str) -> bool:
    value = doc[key]
    if not isinstance(value, bool):
        raise ConfigInvalid(f"{_where(path, key)}: expected a boolean")
    return value


def _as_str(doc: dict, path: str, key: str) -> str:
    value = doc[key]
    if not isinstance(value, str):
        raise ConfigInvalid(f"{_where(path, key)}: expected a string")
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


def _parse_graph(doc: dict) -> Graph:
    _require_keys(doc, "graph", ("n", "edges"), ())
    n = _as_int(doc, "graph", "n")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise ConfigInvalid("graph.edges: expected a list of [i, j] pairs")
    pairs = []
    for index, pair in enumerate(edges):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(e, bool) or not isinstance(e, int) for e in pair)
        ):
            raise ConfigInvalid(f"graph.edges[{index}]: expected an [i, j] integer pair")
        pairs.append((pair[0], pair[1]))
    return build_graph(n, pairs)


def _parse_objective(doc: dict) -> ObjectiveConfig:
    _require_keys(doc, "objective", ("kind", "d"), ("m", "lambda", "alpha"))
    kind = _as_str(doc, "objective", "kind")
    d = _as_int(doc, "objective", "d")
    if d < 1:
        raise ConfigInvalid("objective.d: must be >= 1")
    if kind == "logistic":
        for key in ("m", "lambda", "alpha"):
            if key not in doc:
                raise ConfigInvalid(f"objective.{key}: required for logistic")
        m = _as_int(doc, "objective", "m")
        if m < 1:
            raise ConfigInvalid("objective.m: must be >= 1")
        alpha = _as_float(doc, "objective", "alpha")
        if alpha < 0:
            # The regulariser lambda alpha x^2 / (1 + alpha x^2) has a pole
            # at |x_s| = 1/sqrt(-alpha).
            raise ConfigInvalid("objective.alpha: must be >= 0")
        return ObjectiveConfig(
            kind=kind,
            d=d,
            m=m,
            lam=_as_float(doc, "objective", "lambda"),
            alpha=alpha,
        )
    if kind in ("sincos", "quadratic"):
        for key in ("m", "lambda", "alpha"):
            if key in doc:
                raise ConfigInvalid(f"objective.{key}: not a parameter of {kind}")
        return ObjectiveConfig(kind=kind, d=d)
    raise ConfigInvalid(f"objective.kind: unknown kind {kind!r}")


def _parse_compressor(doc: dict, d: int) -> CompressorSpec:
    _require_keys(doc, "compressor", ("kind",), ("k", "b", "r", "phi"))
    kind = _as_str(doc, "compressor", "kind")
    k = _as_int(doc, "compressor", "k") if "k" in doc else None
    b = _as_int(doc, "compressor", "b") if "b" in doc else None
    r = _as_float(doc, "compressor", "r") if "r" in doc else None
    phi = _as_float(doc, "compressor", "phi") if "phi" in doc else None
    return make_spec(kind, d, k=k, b=b, r=r, phi=phi)


def _parse_schedule(doc: dict, path: str) -> NoiseSchedule:
    _require_keys(doc, path, ("s", "q"), ("enabled",))
    enabled = _as_bool(doc, path, "enabled") if "enabled" in doc else True
    s = _as_float(doc, path, "s")
    q = _as_float(doc, path, "q")
    if s < 0:
        raise ConfigInvalid(f"{path}.s: must be >= 0")
    if not (0.0 < q < 1.0):
        raise ConfigInvalid(f"{path}.q: must lie in (0, 1)")
    return NoiseSchedule(s=s, q=q, enabled=enabled)


def _parse_noise(doc: dict, algorithm: str) -> tuple[NoiseSchedule, NoiseSchedule]:
    second = ALGORITHMS[algorithm].second_family
    _require_keys(doc, "noise", ("x", second), ())
    if not isinstance(doc["x"], dict) or not isinstance(doc[second], dict):
        raise ConfigInvalid("noise: each family must be an object")
    return _parse_schedule(doc["x"], "noise.x"), _parse_schedule(
        doc[second], f"noise.{second}"
    )


def _parse_gains(doc: dict, algorithm: str) -> dict:
    names = ALGORITHMS[algorithm].gains
    _require_keys(doc, "gains", names, ())
    return {
        "alpha_y": None,
        "omega": None,
        **{key: _as_float(doc, "gains", key) for key in names},
    }


def _parse_sweep(doc: dict) -> SweepConfig:
    _require_keys(doc, "sweep", ("parameter", "values", "repeats"), ())
    parameter = _as_str(doc, "sweep", "parameter")
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigInvalid(f"sweep.parameter: must be one of {SWEEP_PARAMETERS}")
    values = doc["values"]
    if not isinstance(values, list) or not values:
        raise ConfigInvalid("sweep.values: expected a nonempty list of numbers")
    parsed = []
    for index, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigInvalid(f"sweep.values[{index}]: expected a number")
        value = _finite(value, f"sweep.values[{index}]")
        if parameter in ("q",) and not (0.0 < value < 1.0):
            raise ConfigInvalid(f"sweep.values[{index}]: q must lie in (0, 1)")
        if parameter in ("s", "eta") and value <= 0:
            raise ConfigInvalid(f"sweep.values[{index}]: must be positive")
        parsed.append(value)
    repeats = _as_int(doc, "sweep", "repeats")
    if repeats < 1:
        raise ConfigInvalid("sweep.repeats: must be >= 1")
    return SweepConfig(parameter=parameter, values=tuple(parsed), repeats=repeats)


def _parse_reference(doc: dict) -> ReferenceConfig:
    _require_keys(doc, "reference", ("horizon_multiplier",), ())
    multiplier = _as_int(doc, "reference", "horizon_multiplier")
    if multiplier < 10:
        raise ConfigInvalid("reference.horizon_multiplier: must be >= 10")
    return ReferenceConfig(horizon_multiplier=multiplier)


def _parse_privacy(doc: dict) -> PrivacyConfig:
    _require_keys(doc, "privacy", (), ("box_radius", "trials", "split"))
    radius = (
        _as_float(doc, "privacy", "box_radius")
        if "box_radius" in doc
        else DEFAULT_BOX_RADIUS
    )
    trials = (
        _as_int(doc, "privacy", "trials") if "trials" in doc else DEFAULT_PRIVACY_TRIALS
    )
    split = _as_float(doc, "privacy", "split") if "split" in doc else DEFAULT_SPLIT
    if radius <= 0:
        raise ConfigInvalid("privacy.box_radius: must be positive")
    if radius > MAX_BOX_RADIUS:
        raise ConfigInvalid(f"privacy.box_radius: must be at most {MAX_BOX_RADIUS!r}")
    if trials < 1:
        raise ConfigInvalid("privacy.trials: must be >= 1")
    if not (0.0 < split < 1.0):
        raise ConfigInvalid("privacy.split: must lie in (0, 1)")
    return PrivacyConfig(box_radius=radius, trials=trials, split=split)


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigInvalid("config: expected a JSON object")
    _require_keys(
        doc,
        "",
        (
            "algorithm",
            "graph",
            "objective",
            "compressor",
            "noise",
            "gains",
            "iterations",
            "seed",
            "outputs",
        ),
        ("reference", "sweep", "privacy", "contraction_trials"),
    )
    algorithm = _as_str(doc, "", "algorithm")
    if algorithm not in ALGORITHMS:
        raise ConfigInvalid(f"algorithm: must be one of {tuple(ALGORITHMS)}")
    for key in ("graph", "objective", "compressor", "noise", "gains"):
        if not isinstance(doc[key], dict):
            raise ConfigInvalid(f"{key}: expected an object")
    graph = _parse_graph(doc["graph"])
    objective = _parse_objective(doc["objective"])
    compressor = _parse_compressor(doc["compressor"], objective.d)
    noise_x, noise_second = _parse_noise(doc["noise"], algorithm)
    gains = _parse_gains(doc["gains"], algorithm)
    iterations = _as_int(doc, "", "iterations")
    if iterations < 1:
        raise ConfigInvalid("iterations: must be >= 1")
    seed = _as_int(doc, "", "seed")
    if not (0 <= seed <= _MAX_SEED):
        raise ConfigInvalid("seed: must fit in an unsigned 63-bit integer")
    outputs = _as_str(doc, "", "outputs")
    if not outputs:
        raise ConfigInvalid("outputs: must be a nonempty path")
    reference = _parse_reference(doc["reference"]) if "reference" in doc else None
    sweep = _parse_sweep(doc["sweep"]) if "sweep" in doc else None
    privacy = _parse_privacy(doc["privacy"]) if "privacy" in doc else PrivacyConfig()
    if "contraction_trials" in doc:
        contraction_trials = _as_int(doc, "", "contraction_trials")
        if contraction_trials < 1000:
            raise ConfigInvalid("contraction_trials: must be >= 1000")
    else:
        contraction_trials = DEFAULT_CONTRACTION_TRIALS
    rc = RunConfig(
        algorithm=algorithm,
        graph=graph,
        objective=objective,
        compressor=compressor,
        noise_x=noise_x,
        noise_second=noise_second,
        iterations=iterations,
        seed=seed,
        outputs=outputs,
        reference=reference,
        sweep=sweep,
        privacy=privacy,
        contraction_trials=contraction_trials,
        **gains,
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


def to_document(rc: RunConfig) -> dict:
    """Serialize back to a config document that parses to the same run.

    All defaults are materialized so the document alone pins the
    experiment.
    """
    compressor: dict = {"kind": rc.compressor.kind}
    if rc.compressor.k is not None:
        compressor["k"] = rc.compressor.k
    if rc.compressor.b is not None:
        compressor["b"] = rc.compressor.b
    compressor["r"] = rc.compressor.r
    compressor["phi"] = rc.compressor.phi
    objective: dict = {"kind": rc.objective.kind, "d": rc.objective.d}
    if rc.objective.kind == "logistic":
        objective["m"] = rc.objective.m
        objective["lambda"] = rc.objective.lam
        objective["alpha"] = rc.objective.alpha
    gains = {key: getattr(rc, key) for key in ALGORITHMS[rc.algorithm].gains}
    noise = {"x": asdict(rc.noise_x), rc.second_family: asdict(rc.noise_second)}
    doc = {
        "algorithm": rc.algorithm,
        "graph": {
            "n": rc.graph.n,
            "edges": [[i, j] for i, j in sorted(rc.graph.edges)],
        },
        "objective": objective,
        "compressor": compressor,
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
