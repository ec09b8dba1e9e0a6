"""Per-layer metrics from the spans bench/tracer.py writes.

A span's self time is its duration minus the durations of its direct
children; the busy time of a layer is the self time of its spans. Span
names are "<layer>.<function>".
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ENGINES = ("pgtc", "ppdc")


def layer_of(span_name: str) -> str:
    return span_name.split(".")[0]


@dataclass
class Spans:
    """The spans of one traced process."""

    names: list[str]
    name: np.ndarray  # per span: index into names
    parent: np.ndarray  # per span: index of the parent span, -1 at the root
    duration: np.ndarray
    self_time: np.ndarray
    counters: dict

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            name, parent = data["name"], data["parent"]
            duration = data["end"] - data["start"]
            counters = json.loads(str(data["counters"]))
        inner = parent >= 0
        children = np.bincount(
            parent[inner], weights=duration[inner], minlength=len(name)
        )
        return cls(names, name, parent, duration, duration - children, counters)

    def mask(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(span_name)

    def calls(self, span_name: str) -> int:
        return int(self.mask(span_name).sum())

    def self_s(self, span_name: str) -> float:
        return float(self.self_time[self.mask(span_name)].sum())

    def incl_s(self, span_name: str) -> float:
        return float(self.duration[self.mask(span_name)].sum())

    def layer_self_s(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if layer_of(n) == layer]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def under(self, ancestor: str) -> np.ndarray:
        """Per span: whether a span named `ancestor` encloses it."""
        target = self.names.index(ancestor) if ancestor in self.names else -1
        name = self.name.tolist()
        inside = [False] * len(name)
        # Parents are recorded before their children.
        for i, parent in enumerate(self.parent.tolist()):
            if parent >= 0:
                inside[i] = inside[parent] or name[parent] == target
        return np.array(inside, dtype=bool)

    def callers_outside(self, layer: str) -> np.ndarray:
        """Per span: the name index of its nearest enclosing span outside
        `layer`, or -1 if there is none."""
        outside = [layer_of(n) != layer for n in self.names]
        name = self.name.tolist()
        caller: list[int] = []
        for parent in self.parent.tolist():
            if parent < 0:
                caller.append(-1)
            elif outside[name[parent]]:
                caller.append(name[parent])
            else:
                caller.append(caller[parent])
        return np.array(caller, dtype=np.int64)


def per_call_table(spans: list[Spans]) -> list[dict]:
    """Calls, busy (self) time and inclusive time per function, summed over
    the traced processes, most busy first."""
    rows: dict[str, dict] = {}
    for s in spans:
        for span_name in s.names:
            row = rows.setdefault(
                span_name,
                {"function": span_name, "calls": 0, "self_s": 0.0, "incl_s": 0.0},
            )
            row["calls"] += s.calls(span_name)
            row["self_s"] += s.self_s(span_name)
            row["incl_s"] += s.incl_s(span_name)
    table = [row for row in rows.values() if row["calls"]]
    for row in table:
        row["self_us_per_call"] = 1e6 * row["self_s"] / row["calls"]
        row["incl_us_per_call"] = 1e6 * row["incl_s"] / row["calls"]
    return sorted(table, key=lambda row: -row["self_s"])


def _engine_metrics(spans: list[Spans], engine: str) -> dict:
    step = f"{engine}.{engine}_step"
    steps = sum(s.calls(step) for s in spans)
    # Steps run inside metrics.reference_point produce no trace row.
    kept = sum(
        int((s.mask(step) & ~s.under("metrics.reference_point")).sum()) for s in spans
    )
    return {
        f"{engine}.steps": steps,
        f"{engine}.step_s": sum(s.incl_s(step) for s in spans),
        f"{engine}.step_self_s": sum(s.self_s(step) for s in spans),
        f"{engine}.run_self_s": sum(s.self_s(f"{engine}.{engine}_run") for s in spans),
        f"{engine}.emit_row_s": sum(s.self_s(f"{engine}._emit_row") for s in spans),
        f"{engine}.useful_round_share": kept / steps if steps else 0.0,
    }


def _step_grad_share(spans: list[Spans]) -> float:
    """Gradient evaluations whose nearest caller outside the objectives
    layer is an engine step, as a share of all gradient evaluations."""
    total = for_steps = 0
    for s in spans:
        grads = s.mask("objectives.value_grad")
        total += int(grads.sum())
        steps = [s.names.index(n) for n in (f"{e}.{e}_step" for e in ENGINES) if n in s.names]
        for_steps += int(np.isin(s.callers_outside("objectives")[grads], steps).sum())
    return for_steps / total if total else 0.0


def layer_metrics(spans: list[Spans]) -> dict:
    """Every per-layer metric except those taken from the outputs or from
    wall clocks (runner.failed_cells, trace.wall_s, trace.overhead_s)."""

    def calls(name):
        return sum(s.calls(name) for s in spans)

    def self_s(*names):
        return sum(s.self_s(name) for s in spans for name in names)

    def incl_s(name):
        return sum(s.incl_s(name) for s in spans)

    def counter(name):
        return sum(s.counters.get(name, 0) for s in spans)

    metrics = {
        "rng.streams": calls("rng.stream"),
        "rng.stream_s": self_s("rng.stream", "rng.StreamFactory.get"),
        "noise.draws": calls("noise.sample_laplace"),
        "noise.draw_s": self_s("noise.sample_laplace"),
        "compressors.encode_calls": calls("compressors.encode_decode"),
        "compressors.encode_s": self_s("compressors.encode_decode"),
        "compressors.gate_trials": counter("compressors.gate_trials"),
        "compressors.gate_s": self_s("compressors.validate_contraction"),
        "objectives.grad_calls": calls("objectives.value_grad"),
        "objectives.grad_s": self_s("objectives.grad", "objectives.value_grad"),
        "objectives.mean_grad_calls": calls("objectives.mean_value_grad"),
        "objectives.mean_grad_s": self_s("objectives.mean_value_grad"),
        "objectives.make_s": self_s("objectives.make_objectives"),
        "objectives.bound_s": self_s("objectives.estimate_grad_bound"),
        "objectives.step_grad_share": _step_grad_share(spans),
        "topology.build_calls": calls("topology.build_network"),
        "topology.build_s": self_s("topology.build_network", "topology.build_graph"),
        "topology.spectral_s": self_s("topology.spectral_summary"),
    }
    for engine in ENGINES:
        metrics.update(_engine_metrics(spans, engine))
    metrics.update({
        # Inclusive: the discarded reference rerun runs below this span.
        "metrics.reference_s": incl_s("metrics.reference_point"),
        "metrics.residual_s": self_s("metrics.residual_series"),
        "metrics.csv_s": self_s("metrics.write_trace_csv"),
        "metrics.csv_bytes": counter("metrics.csv_bytes"),
        "accountant.budget_s": self_s("accountant.budget_for_run"),
        "accountant.invert_s": self_s("accountant.scales_for_epsilon"),
        "plots.chart_s": self_s("plots.line_chart", "plots.write_chart"),
        "plots.svg_bytes": counter("plots.svg_bytes"),
        "config.load_s": self_s("config.load_config"),
        "runner.cells": calls("runner.execute_run"),
        "runner.cell_s": incl_s("runner.execute_run"),
        "runner.self_s": sum(s.layer_self_s("runner") for s in spans),
        "trace.self_sum_s": sum(float(s.self_time.sum()) for s in spans),
    })
    return metrics
