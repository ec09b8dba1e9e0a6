"""Keyed, counter-based random streams.

Every stochastic component draws from a stream addressed by
(master_seed, run_id, agent_id, variable_tag, round). Distinct keys give
independent Philox generators, so draw order never couples agents,
variables, or rounds, and any run replays bit-identically from its seed.

``stream`` and ``StreamFactory.get`` always build a fresh generator. The
engines' per-round streams come from ``StreamFactory.rows`` instead: one
pooled generator per (agent, tag), reset to its key at each call, which
draws exactly what a fresh generator draws without the cost of building
one. A pooled generator stays valid until the next ``rows`` call for the
same tag.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

__all__ = ["Tag", "StreamKey", "stream", "StreamFactory", "derive_seed"]

_STREAM_DOMAIN = b"dpcopt.stream.v1"
_SWEEP_DOMAIN = b"dpcopt.sweep.v1"

_WORD = (1 << 64) - 1
_ZEROS = (0, 0, 0, 0)


class Tag(IntEnum):
    """Variable families that consume randomness."""

    NOISE_X = 0
    NOISE_Y = 1
    NOISE_V = 2
    COMPRESS = 3
    DATA = 4
    INIT = 5


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream within a run."""

    run_id: int = 0
    agent_id: int = 0
    tag: Tag = Tag.DATA
    round_index: int = 0


def _philox_key(
    master_seed: int, run_id: int, agent_id: int, tag: Tag, round_index: int
) -> int:
    """128-bit Philox key of one stream: a SHA-256 digest of the packed
    fields, so the mapping is stable across platforms and library
    versions."""
    packed = struct.pack("<qqqqq", master_seed, run_id, agent_id, int(tag), round_index)
    digest = hashlib.sha256(_STREAM_DOMAIN + packed).digest()
    return int.from_bytes(digest[:16], "little")


def stream(master_seed: int, key: StreamKey) -> np.random.Generator:
    """Return a fresh generator addressed by (master_seed, key)."""
    philox_key = _philox_key(
        master_seed, key.run_id, key.agent_id, key.tag, key.round_index
    )
    return np.random.Generator(np.random.Philox(key=philox_key))


@dataclass(frozen=True)
class StreamFactory:
    """Binds a master seed and run id; hands out per-key streams."""

    master_seed: int
    run_id: int = 0
    # tag -> pooled generators, index = agent id; see rows.
    _pool: dict[Tag, list[np.random.Generator]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def get(self, agent_id: int, tag: Tag, round_index: int = 0) -> np.random.Generator:
        """A fresh generator for one stream."""
        key = StreamKey(self.run_id, agent_id, tag, round_index)
        return stream(self.master_seed, key)

    def rows(self, tag: Tag, round_index: int, n: int) -> list[np.random.Generator]:
        """The streams of agents 0..n-1 for one tag and round: element i
        draws exactly what get(i, tag, round_index) draws.

        The generators are pooled, one per (agent, tag), and reset to
        their keys here. They stay valid only until the next rows call
        for the same tag, which resets them again; calls for other tags
        leave them alone.
        """
        pool = self._pool.setdefault(tag, [])
        while len(pool) < n:
            pool.append(np.random.Generator(np.random.Philox()))
        generators = pool[:n]
        for agent_id, generator in enumerate(generators):
            key = _philox_key(self.master_seed, self.run_id, agent_id, tag, round_index)
            # A fresh Philox: counter 0, empty buffer, no cached half-word.
            generator.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": _ZEROS, "key": (key & _WORD, key >> 64)},
                "buffer": _ZEROS,
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        return generators


def derive_seed(master_seed: int, value_index: int, repeat_index: int) -> int:
    """Stable child seed for a sweep cell.

    Keyed by (value_index, repeat_index) so appending sweep values or
    repeats never perturbs existing cells.
    """
    packed = struct.pack("<qqq", master_seed, value_index, repeat_index)
    digest = hashlib.sha256(_SWEEP_DOMAIN + packed).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)
