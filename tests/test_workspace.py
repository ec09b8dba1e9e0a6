"""The per-run round workspace: rounds that reuse it equal rounds that
build their own, byte for byte, no step writes its incoming state, and a
steady-state round allocates no more than its update's few blocks."""

import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import config_documents
from dpcopt.compressors import encode_decode, make_spec
from dpcopt.config import parse_config
from dpcopt.errors import NonFiniteState
from dpcopt.metrics import RoundWorkspace, Trace
from dpcopt.noise import NoiseSchedule
from dpcopt.objectives import make_objectives
from dpcopt.pgtc import PgtcConfig
from dpcopt.ppdc import PpdcConfig
from dpcopt.rng import StreamFactory, Tag
from dpcopt.runner import _build_problem, _initial_iterate
from dpcopt.topology import build_graph, build_network

# s q^k underflows to 0 from round 2 on for every drawn s <= 1e3.
UNDERFLOWING_Q = 1e-170


def _arrays(state) -> dict:
    """Every array field of a state as bytes, and its round counter."""
    fields = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
    return {
        name: value.tobytes() if isinstance(value, np.ndarray) else value
        for name, value in fields.items()
    }


def _stepped_run(rc, horizon: int, reuse: bool):
    """rc's run to horizon, its trace kept with its iterate history. Steps
    get run_rounds' workspace when reuse, else none (a fresh one each
    round). Returns the trace's columns and final iterate as bytes (or the
    NonFiniteState message), and the arrays of every stepped state. Every
    pgtc state's gradient row z[2] must be grad(z[0]) bit for bit."""
    module = importlib.import_module(f"dpcopt.{rc.algorithm}")
    step = getattr(module, f"{rc.algorithm}_step")
    states = []

    def checked_step(state, cfg, objectives, net, streams, workspace):
        before = _arrays(state)
        stepped = step(state, cfg, objectives, net, streams, workspace if reuse else None)
        assert _arrays(state) == before, "a step wrote its incoming state"
        if rc.algorithm == "pgtc":
            with np.errstate(over="ignore", invalid="ignore"):
                grad = objectives.grad(stepped.z[0])
            assert stepped.z[2].tobytes() == grad.tobytes(), "z[2] is not grad(z[0])"
        states.append(_arrays(stepped))
        return stepped

    net = build_network(rc.graph)
    streams, objectives = _build_problem(rc)
    x0 = _initial_iterate(rc, streams)
    run = getattr(module, f"{rc.algorithm}_run")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, f"{rc.algorithm}_step", checked_step)
        try:
            trace = run(rc.engine, objectives, net, x0, streams, True, horizon)
        except NonFiniteState as exc:
            return str(exc), states
    columns = ("consensus_err", "grad_norm_mean", "residual", "stacked_iterates", "final_stacked")
    return {name: getattr(trace, name).tobytes() for name in columns}, states


@settings(max_examples=40, deadline=None)
@given(config_documents(), st.integers(1, 12), st.integers(0, 40), st.data())
def test_reused_workspace_gives_the_rounds_of_fresh_ones(doc, iterations, horizon, data):
    # Both engines, all four compressors, enabled, disabled and (here)
    # underflowing schedules; diverging runs must fail at the same round.
    doc["iterations"] = iterations
    for schedule in doc["noise"].values():
        if data.draw(st.booleans(), label="underflowing q"):
            schedule["q"] = UNDERFLOWING_Q
    rc = parse_config(doc)
    reused, reused_states = _stepped_run(rc, horizon, reuse=True)
    fresh, fresh_states = _stepped_run(rc, horizon, reuse=False)
    assert reused == fresh
    assert reused_states == fresh_states


N = D = 100
BLOCK_BYTES = N * D * 8
# A steady-state round's tracemalloc peak above its start, in (n, d)
# float64 blocks: the engine update's temporaries (the Laplacian or mixing
# product and the gain arithmetic on it), measured at 4.04 (ppdc) and
# 4.05 (pgtc) with Python 3.11 and numpy 2.4, the fraction being the
# round's small objects (stream lists, the state record, (d,) sums). The
# bound sits halfway to a fifth block, so that interpreter and numpy
# versions with larger small objects pass while one more state-sized
# block fails. Before the workspace the rounds peaked at 11.1 (ppdc) and
# 19.1 (pgtc).
ROUND_PEAK_BLOCKS = {"ppdc": 4.5, "pgtc": 4.5}
NOISE = NoiseSchedule(s=0.1, q=0.95)
GUARD_CONFIGS = {
    "ppdc": lambda spec: PpdcConfig(
        eta=0.1, gamma=5.0, omega=1.0, alpha_x=0.3, compressor=spec,
        noise_x=NOISE, noise_v=NOISE, iterations=10,
    ),
    "pgtc": lambda spec: PgtcConfig(
        eta=0.1, gamma=0.5, alpha_x=0.3, alpha_y=0.3, compressor=spec,
        noise_x=NOISE, noise_y=NOISE, iterations=10,
    ),
}


# A bbit encode of the round's shape into given blocks, with a sender whose
# difference is zero: its row temporaries only, measured at 0.90 blocks
# with Python 3.11 and numpy 2.4. A gathered copy of the other rows and
# its fresh output and dither blocks would add about three.
BBIT_ENCODE_PEAK_BLOCKS = 1.5


def test_a_bbit_encode_with_a_zero_row_allocates_no_block():
    spec = make_spec("bbit", D, b=4)
    target, reference = np.random.default_rng(5).standard_normal((2, N, D))
    target[7] = reference[7]
    out, scratch = np.empty((N, D)), (np.empty((N, D)), np.empty((N, D)))
    gens = StreamFactory(master_seed=5).rows(Tag.COMPRESS, 1, N)

    def encode():
        encode_decode(spec, target, reference, gens, out=out, scratch=scratch)

    assert _peak_blocks(encode) < BBIT_ENCODE_PEAK_BLOCKS
    assert out[7].tobytes() == reference[7].tobytes()


# A steady-state _emit_row's peak, in the same blocks: its (d,) means and
# the residual's small temporaries, once the trace's (n, d) scratch exists.
# Before that scratch the consensus error's two temporaries peaked at 2.01.
EMIT_ROW_PEAK_BLOCKS = 0.5


def _stepped_guard_state(algorithm):
    """The engine module, its config and steady-state pieces on the scale
    benchmark's shape: 100 agents on a ring with chords, d = 100, bbit
    b = 4, after three rounds on one workspace."""
    module = importlib.import_module(f"dpcopt.{algorithm}")
    edges = [(i, (i + 1) % N) for i in range(N)] + [(i, (i + 7) % N) for i in range(N)]
    net = build_network(build_graph(N, sorted((min(e), max(e)) for e in edges)))
    streams = StreamFactory(master_seed=3)
    objectives = make_objectives("quadratic", N, D, streams)
    cfg = GUARD_CONFIGS[algorithm](make_spec("bbit", D, b=4))
    step = getattr(module, f"{algorithm}_step")
    state = getattr(module, f"{algorithm}_init")(
        cfg, objectives, net, np.random.default_rng(0).random((N, D)), streams
    )
    workspace = RoundWorkspace(state)
    for _ in range(3):
        state = step(state, cfg, objectives, net, streams, workspace)
    return module, cfg, objectives, net, streams, workspace, state


def _peak_blocks(call, repeats: int = 3) -> float:
    """The largest tracemalloc peak above its start over repeats calls, in
    (n, d) float64 blocks; numpy reports its data buffers to tracemalloc."""
    worst = 0.0
    tracemalloc.start()
    try:
        for _ in range(repeats):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            worst = max(worst, (tracemalloc.get_traced_memory()[1] - start) / BLOCK_BYTES)
    finally:
        tracemalloc.stop()
    return worst


@pytest.mark.parametrize("algorithm", sorted(GUARD_CONFIGS))
def test_a_steady_state_round_allocates_only_its_update_blocks(algorithm):
    module, cfg, objectives, net, streams, workspace, state = _stepped_guard_state(algorithm)
    step = getattr(module, f"{algorithm}_step")
    box = [state]

    def one_round():
        box[0] = step(box[0], cfg, objectives, net, streams, workspace)

    assert _peak_blocks(one_round) <= ROUND_PEAK_BLOCKS[algorithm]


@pytest.mark.parametrize("algorithm", sorted(GUARD_CONFIGS))
def test_a_steady_state_emit_row_allocates_under_half_a_block(algorithm):
    module, *_, state = _stepped_guard_state(algorithm)
    trace = Trace(*np.empty((3, state.k + 1)), 0, NOISE, NOISE)
    xbar = np.empty(D)
    module._emit_row(trace, state, xbar)
    consensus = trace.consensus_err[state.k]
    assert consensus == ((state.x - xbar) ** 2).sum()
    peak = _peak_blocks(lambda: module._emit_row(trace, state, xbar))
    assert peak <= EMIT_ROW_PEAK_BLOCKS
    assert trace.consensus_err[state.k] == consensus
