"""Time dpcopt's set-up path in a fresh interpreter.

Usage (PYTHONPATH must point at the package sources):

    python bench/setup_probe.py CONFIG

Times ``import dpcopt`` plus the calls made before round 1 of every run
the config's command executes (one run, or every cell of a sweep):
``load_config``, ``build_network``, ``make_objectives`` and
``check_contraction``. Prints one JSON object with the set-up time, the
run count, the bits those runs transmit, the process's thread count
after set-up (BLAS worker threads included) and the BLAS numpy uses.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import dpcopt
    from dataclasses import replace

    from dpcopt import pgtc, ppdc
    from dpcopt.compressors import bit_cost
    from dpcopt.config import apply_sweep_value, load_config
    from dpcopt.objectives import make_objectives
    from dpcopt.rng import StreamFactory, derive_seed
    from dpcopt.runner import check_contraction
    from dpcopt.topology import build_network

    rc = load_config(sys.argv[1])
    runs = [rc]
    if rc.sweep is not None:
        runs = [
            replace(
                apply_sweep_value(rc, rc.sweep.parameter, value),
                seed=derive_seed(rc.seed, value_index, repeat_index),
                reference=None,
            )
            for value_index, value in enumerate(rc.sweep.values)
            for repeat_index in range(rc.sweep.repeats)
        ]
    for run in runs:
        net = build_network(run.graph)
        obj = run.objective
        make_objectives(
            obj.kind, net.n, obj.d, StreamFactory(master_seed=run.seed),
            m=obj.m, lam=obj.lam, alpha=obj.alpha,
        )
        check_contraction(run)
    setup_s = time.perf_counter() - t0

    engine = pgtc if rc.algorithm == "pgtc" else ppdc
    tx_bits = sum(
        run.iterations * engine.MESSAGES_PER_AGENT * run.graph.n
        * bit_cost(run.compressor, run.objective.d)
        for run in runs
    )
    with open("/proc/self/status", encoding="ascii") as status:
        threads = next(
            int(line.split()[1]) for line in status if line.startswith("Threads:")
        )
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "setup_s": setup_s,
        "runs": len(runs),
        "tx_bits": tx_bits,
        "threads": threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "dpcopt_file": dpcopt.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
