"""Keyed, counter-based random streams.

Every stochastic component draws from a stream addressed by
(master_seed, run_id, agent_id, variable_tag, round). Distinct keys give
independent Philox generators, so draw order never couples agents,
variables, or rounds, and any run replays bit-identically from its seed.

``stream`` and ``StreamFactory.get`` always build a fresh generator. The
engines' per-round streams, the agents' data and their initial iterates
come from ``StreamFactory.rows`` instead: one pooled generator per (agent,
tag), reset to its key at each call, which draws exactly what a fresh
generator draws without the cost of building one. ``rows`` hashes the
(domain, seed, run id) prefix of the key message once and extends a copy
of that hash per agent, so each key is the digest ``_philox_key`` gives,
and it resets every generator from one state dict that it reuses for the
whole call. A pooled generator stays valid until the next ``rows`` call
for the same tag.
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

_ZEROS = (0, 0, 0, 0)
# Seeds the generators a rows pool is filled with. rows sets each one's
# whole state before use, so any seed serves; a fixed one spares the OS
# entropy an unseeded Philox reads, which made a first rows call at n = 100
# slower than 100 get calls.
_POOL_SEED = np.random.SeedSequence(0)
# The key message is _STREAM_DOMAIN + <qq (seed, run id) + <qqq (agent, tag,
# round); the digest's first 16 bytes are the key's (low, high) words.
_PREFIX = struct.Struct("<qq")
_SUFFIX = struct.Struct("<qqq")
_KEY_WORDS = struct.Struct("<QQ")


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
            pool.append(np.random.Generator(np.random.Philox(_POOL_SEED)))
        generators = pool[:n]
        prefix = hashlib.sha256(
            _STREAM_DOMAIN + _PREFIX.pack(self.master_seed, self.run_id)
        )
        # A fresh Philox: counter 0, empty buffer, no cached half-word. The
        # state setter copies the values, so one dict serves every agent.
        words = {"counter": _ZEROS}
        state = {
            "bit_generator": "Philox",
            "state": words,
            "buffer": _ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        for agent_id, generator in enumerate(generators):
            digest = prefix.copy()
            digest.update(_SUFFIX.pack(agent_id, tag, round_index))
            words["key"] = _KEY_WORDS.unpack_from(digest.digest())
            generator.bit_generator.state = state
        return generators


def derive_seed(master_seed: int, value_index: int, repeat_index: int) -> int:
    """Stable child seed for a sweep cell.

    Keyed by (value_index, repeat_index) so appending sweep values or
    repeats never perturbs existing cells.
    """
    packed = struct.pack("<qqq", master_seed, value_index, repeat_index)
    digest = hashlib.sha256(_SWEEP_DOMAIN + packed).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)
