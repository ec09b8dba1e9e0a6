"""Deterministic multi-agent simulator for differentially private
decentralized optimization with compressed communication.

The package provides two solver engines (gradient tracking and
primal-dual consensus), contractive compressors, decaying Laplace noise
schedules with a privacy accountant, benchmark objectives, metrics and
bit accounting, and a JSON-config CLI runner. Every random draw flows
through keyed counter-based streams so runs replay bit-identically.

The CLI lives in ``dpcopt.runner`` (``python -m dpcopt`` runs it); it is
not imported here, so ``python -m dpcopt.runner`` loads it only once.
"""

__version__ = "0.1.0"

from dpcopt import (
    accountant,
    compressors,
    config,
    errors,
    metrics,
    noise,
    objectives,
    pgtc,
    plots,
    ppdc,
    rng,
    topology,
)

__all__ = [
    "accountant",
    "compressors",
    "config",
    "errors",
    "metrics",
    "noise",
    "objectives",
    "pgtc",
    "plots",
    "ppdc",
    "rng",
    "runner",
    "topology",
    "__version__",
]
