"""Run one dpcopt CLI command with a span recorded around every call into
each layer.

Usage (PYTHONPATH must point at the package sources):

    python bench/tracer.py SPANS.npz COMMAND CONFIG [ARGS...]

The public functions of each dpcopt module are wrapped at the names
their callers look up (``dpcopt.pgtc.sample_laplace`` is what
``pgtc_step`` calls, not ``dpcopt.noise.sample_laplace``). Every call
appends one span (name, parent span, start, end) to in-memory arrays;
the spans and a few counters are written to SPANS.npz when the command
returns. The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

# Span name -> the "module:attribute" sites its callers look the function
# up at. The span name's prefix (before the first dot) is the layer.
SITES = {
    "rng.stream": ["dpcopt.rng:stream", "dpcopt.runner:stream"],
    "rng.StreamFactory.get": ["dpcopt.rng:StreamFactory.get"],
    "rng.derive_seed": ["dpcopt.runner:derive_seed"],
    "noise.sample_laplace": ["dpcopt.pgtc:sample_laplace", "dpcopt.ppdc:sample_laplace"],
    "compressors.encode_decode": [
        "dpcopt.pgtc:encode_decode", "dpcopt.ppdc:encode_decode"
    ],
    "compressors.validate_contraction": ["dpcopt.runner:validate_contraction"],
    "objectives.grad": [
        f"dpcopt.objectives:{cls}.grad"
        for cls in ("LogisticObjective", "SinCosObjective", "QuadraticObjective")
    ],
    "objectives.value_grad": [
        f"dpcopt.objectives:{cls}.value_grad"
        for cls in ("LogisticObjective", "SinCosObjective", "QuadraticObjective")
    ],
    "objectives.mean_value_grad": [
        "dpcopt.pgtc:mean_value_grad", "dpcopt.ppdc:mean_value_grad"
    ],
    "objectives.make_objectives": ["dpcopt.runner:make_objectives"],
    "objectives.estimate_grad_bound": ["dpcopt.runner:estimate_grad_bound"],
    "topology.build_graph": ["dpcopt.config:build_graph"],
    "topology.build_network": ["dpcopt.runner:build_network"],
    "topology.spectral_summary": ["dpcopt.topology:spectral_summary"],
    "pgtc.pgtc_run": ["dpcopt.runner:pgtc_run"],
    "pgtc.pgtc_init": ["dpcopt.pgtc:pgtc_init"],
    "pgtc.pgtc_step": ["dpcopt.pgtc:pgtc_step"],
    "pgtc._emit_row": ["dpcopt.pgtc:_emit_row"],
    "ppdc.ppdc_run": ["dpcopt.runner:ppdc_run"],
    "ppdc.ppdc_init": ["dpcopt.ppdc:ppdc_init"],
    "ppdc.ppdc_step": ["dpcopt.ppdc:ppdc_step"],
    "ppdc._emit_row": ["dpcopt.ppdc:_emit_row"],
    "metrics.reference_point": ["dpcopt.runner:reference_point"],
    "metrics.residual_series": ["dpcopt.runner:residual_series"],
    "metrics.write_trace_csv": ["dpcopt.runner:write_trace_csv"],
    "metrics.final_accuracy": ["dpcopt.runner:final_accuracy"],
    "accountant.budget_for_run": ["dpcopt.runner:budget_for_run"],
    "accountant.scales_for_epsilon": ["dpcopt.runner:scales_for_epsilon"],
    "plots.line_chart": ["dpcopt.runner:line_chart"],
    "plots.write_chart": ["dpcopt.runner:write_chart"],
    "config.load_config": ["dpcopt.runner:load_config"],
    "config.apply_sweep_value": ["dpcopt.runner:apply_sweep_value"],
    "config.build_engine_config": ["dpcopt.runner:build_engine_config"],
    "config.to_document": ["dpcopt.runner:to_document"],
    "config.config_digest": ["dpcopt.runner:config_digest"],
    "runner.main": ["dpcopt.runner:main"],
    "runner.cmd_run": ["dpcopt.runner:cmd_run"],
    "runner.cmd_sweep": ["dpcopt.runner:cmd_sweep"],
    "runner.cmd_privacy": ["dpcopt.runner:cmd_privacy"],
    "runner.execute_run": ["dpcopt.runner:execute_run"],
    "runner.check_contraction": ["dpcopt.runner:check_contraction"],
    "runner._build_problem": ["dpcopt.runner:_build_problem"],
    "runner._initial_iterate": ["dpcopt.runner:_initial_iterate"],
    "runner._write_metadata": ["dpcopt.runner:_write_metadata"],
}


def _trials(args, kwargs, result):
    return kwargs["trials"] if "trials" in kwargs else args[2]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


def _svg_bytes(args, kwargs, result):
    svg = kwargs["svg"] if "svg" in kwargs else args[1]
    return len(svg.encode("utf-8"))


# Counters taken at a span boundary: span name -> (counter, f(args, kwargs, result)).
COUNTERS = {
    "compressors.validate_contraction": ("compressors.gate_trials", _trials),
    "metrics.write_trace_csv": ("metrics.csv_bytes", _file_bytes),
    "plots.write_chart": ("plots.svg_bytes", _svg_bytes),
}


class Recorder:
    """Spans of one process, kept in flat arrays until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}

    def wrap(self, span_name: str, fn):
        if span_name not in self.ids:
            self.ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self.ids[span_name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter
        counter = COUNTERS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = t0
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for span_name, sites in SITES.items():
            for site in sites:
                module_name, attr_path = site.split(":")
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(span_name, original))

    def write(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counters=np.array(json.dumps(self.counters)),
        )


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import dpcopt.runner

    recorder = Recorder()
    recorder.install()
    try:
        return dpcopt.runner.main(argv)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
