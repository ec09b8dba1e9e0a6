"""Keyed random streams: determinism, independence, and seed derivation."""

from __future__ import annotations

import numpy as np
import pytest

from dpcopt.rng import StreamFactory, StreamKey, Tag, derive_seed, stream

BASE_KEY = StreamKey(run_id=0, agent_id=0, tag=Tag.DATA, round_index=0)

# Anchor for cross-platform / cross-version drift: first double of a
# fixed (seed, key) pair, frozen from a verified run.
ANCHOR_SEED = 123
ANCHOR_FIRST_DOUBLE = 0.619144609521135


def test_same_key_same_stream():
    a = stream(42, BASE_KEY).random(1000)
    b = stream(42, BASE_KEY).random(1000)
    assert np.array_equal(a, b)


def test_frozen_anchor_value():
    value = stream(ANCHOR_SEED, BASE_KEY).random()
    assert value == pytest.approx(ANCHOR_FIRST_DOUBLE, abs=1e-15)


@pytest.mark.parametrize(
    "other",
    [
        StreamKey(run_id=1, agent_id=0, tag=Tag.DATA, round_index=0),
        StreamKey(run_id=0, agent_id=1, tag=Tag.DATA, round_index=0),
        StreamKey(run_id=0, agent_id=0, tag=Tag.NOISE_X, round_index=0),
        StreamKey(run_id=0, agent_id=0, tag=Tag.DATA, round_index=1),
    ],
)
def test_any_key_field_changes_the_stream(other):
    a = stream(42, BASE_KEY).random(1000)
    b = stream(42, other).random(1000)
    assert not np.array_equal(a, b)


def test_master_seed_changes_the_stream():
    a = stream(42, BASE_KEY).random(1000)
    b = stream(43, BASE_KEY).random(1000)
    assert not np.array_equal(a, b)


def test_uniform_mean_sanity():
    values = stream(7, BASE_KEY).random(1_000_000)
    assert abs(values.mean() - 0.5) < 0.002


def test_factory_matches_raw_stream():
    factory = StreamFactory(master_seed=99, run_id=2)
    from_factory = factory.get(3, Tag.COMPRESS, 17).random(100)
    key = StreamKey(run_id=2, agent_id=3, tag=Tag.COMPRESS, round_index=17)
    assert np.array_equal(from_factory, stream(99, key).random(100))


def test_derive_seed_frozen_values():
    assert derive_seed(42, 0, 0) == 4771785249305747976
    assert derive_seed(42, 0, 1) == 3203336839782796156
    assert derive_seed(42, 1, 0) == 7642378998003183616


def test_derive_seed_distinct_and_in_range():
    seen = set()
    for value_index in range(20):
        for repeat_index in range(20):
            child = derive_seed(5, value_index, repeat_index)
            assert 0 <= child < 2**63
            seen.add(child)
    assert len(seen) == 400


def test_derive_seed_stable_under_extension():
    # Appending sweep values or repeats must not move existing cells.
    before = [derive_seed(11, vi, ri) for vi in range(3) for ri in range(4)]
    after = [derive_seed(11, vi, ri) for vi in range(3) for ri in range(4)]
    assert before == after


# (name, draw) pairs covering the draw kinds the engines and the tests use;
# the full-range uint32 draw reads raw half-words and leaves one cached
# (has_uint32) in the state.
DRAWS = [
    ("random", lambda g: g.random(13)),
    ("standard_normal", lambda g: g.standard_normal(7)),
    ("uniform", lambda g: g.uniform(-2.0, 3.0, size=5)),
    ("integers_uint32", lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32)),
]


def _draw_all(generator) -> bytes:
    return b"".join(draw(generator).tobytes() for _, draw in DRAWS)


@pytest.mark.parametrize("tag", [Tag.NOISE_X, Tag.NOISE_V, Tag.COMPRESS])
@pytest.mark.parametrize("round_index,n", [(0, 1), (3, 6), (250, 17)])
def test_rows_draw_what_get_draws(tag, round_index, n):
    factory = StreamFactory(master_seed=31, run_id=2)
    rows = factory.rows(tag, round_index, n)
    assert len(rows) == n
    for i, generator in enumerate(rows):
        assert _draw_all(generator) == _draw_all(factory.get(i, tag, round_index))


@pytest.mark.parametrize("name,draw", DRAWS)
def test_rows_reset_partly_consumed_generators(name, draw):
    factory = StreamFactory(master_seed=32)
    for generator in factory.rows(Tag.NOISE_Y, 4, 5):
        draw(generator)
    rows = factory.rows(Tag.NOISE_Y, 5, 5)
    for i, generator in enumerate(rows):
        fresh = factory.get(i, Tag.NOISE_Y, 5)
        assert draw(generator).tobytes() == draw(fresh).tobytes()
        assert _draw_all(generator) == _draw_all(fresh)


def test_rows_reset_the_same_tag_only():
    factory = StreamFactory(master_seed=33)
    noise = factory.rows(Tag.NOISE_X, 7, 4)
    compress = factory.rows(Tag.COMPRESS, 7, 4)
    first = [g.random() for g in compress]

    # Other tags leave the COMPRESS generators where they were.
    factory.rows(Tag.NOISE_X, 8, 4)
    factory.rows(Tag.NOISE_Y, 7, 4)
    for i, generator in enumerate(compress):
        fresh = factory.get(i, Tag.COMPRESS, 7)
        fresh.random()
        assert generator.random() == fresh.random()

    # A second COMPRESS call resets the generators of the first list.
    again = factory.rows(Tag.COMPRESS, 7, 4)
    assert all(a is b for a, b in zip(again, compress))
    assert [g.random() for g in compress] == first
    assert all(a is b for a, b in zip(factory.rows(Tag.NOISE_X, 7, 2), noise))


def test_factory_equality_and_hash_ignore_the_pool():
    used = StreamFactory(master_seed=34, run_id=1)
    used.rows(Tag.NOISE_X, 0, 3)
    fresh = StreamFactory(master_seed=34, run_id=1)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == "StreamFactory(master_seed=34, run_id=1)"
    assert used != StreamFactory(master_seed=34, run_id=2)
