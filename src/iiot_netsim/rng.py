"""Deterministic substream RNG built on the counter-based Philox generator.

A stream is identified by a 64-bit seed plus a tuple of nonnegative integers
(the stream id).  Equal (seed, stream_id) pairs always yield identical
sample sequences; distinct ids yield statistically independent streams, so
draws keyed by (domain, tick) never shift when ticks are added.

RngStream keys a Philox generator with numpy's seed sequence: its key is
SeedSequence(seed, spawn_key=stream_id).generate_state(2, np.uint64).

A simulation run needs many short streams, so it keys one Philox once, with
RngStream(seed).key, and addresses substream (domain, node, tick) by the
counter (0, domain, node, tick) under that key (Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC'11).  The root stream's blocks sit
at counters (k, 0, 0, 0) and domains start at 1, so no substream meets
them.  SubstreamGenerator moves one Philox to a substream's counter.  The
simulator draws each tick from one substream per domain, (domain, 0, tick),
and cuts it up among the nodes.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidParameterError

# Domain tags keep different uses of the same (tick, ...) coordinates
# on disjoint streams; they start at 1, clear of the root stream's counters.
DOMAIN_PACKET = 1
DOMAIN_SERVER = 2
DOMAIN_RATE_JITTER = 3
DOMAIN_CHANNEL = 4
DOMAIN_LEG = 5


def _check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidParameterError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise InvalidParameterError("seed must fit in 64 bits")
    return seed


class RngStream:
    """Stateful random stream keyed by (seed, stream_id).

    The Philox generator is built lazily from the stream's key, so
    construction is cheap; equal keys give bit-identical draws.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: tuple = ()):
        self.seed = _check_seed(seed)
        self.stream_id = tuple(_key_component(i) for i in stream_id)
        self._gen: np.random.Generator | None = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(key=self.key))
        return self._gen

    @property
    def key(self) -> np.ndarray:
        """The stream's Philox key, two uint64 words."""
        seq = np.random.SeedSequence(self.seed, spawn_key=self.stream_id)
        return seq.generate_state(2, np.uint64)

    def child(self, *path) -> "RngStream":
        """Fresh independent stream with the id extended by path.

        Path components are nonnegative ints or strings; strings are mapped
        to 64-bit ints by a stable hash so labels work as substream keys.
        """
        return RngStream(self.seed, self.stream_id + path)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _key_component(value) -> int:
    """Check a stream-id component is a nonnegative integer; hash strings."""
    if isinstance(value, str):
        digest = hashlib.sha256(value.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    # int() would run a float component as its floor and a bool as 0 or 1
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(
            f"stream id components must be integers or strings, got {value!r}"
        )
    if value < 0:
        raise InvalidParameterError(f"stream id components must be >= 0, got {value}")
    return int(value)


class SubstreamGenerator:
    """One Philox generator under one key, moved from substream to substream.

    at(stream_id) returns the generator set to counter (0, *stream_id),
    three words, with an empty buffer, so it draws exactly what a fresh
    Philox(key=key, counter=(0, *stream_id)) would.  Each instance holds its
    own state; runs must not share one.
    """

    __slots__ = ("key", "_bitgen", "_gen", "_state")

    def __init__(self, key):
        self.key = np.asarray(key, dtype=np.uint64)
        self._bitgen = np.random.Philox(key=self.key)
        self._gen = np.random.Generator(self._bitgen)
        # Python ints: the state setter reads them faster than numpy scalars
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": None, "key": self.key.tolist()},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, stream_id) -> np.random.Generator:
        self._state["state"]["counter"] = (0, *stream_id)
        self._bitgen.state = self._state
        return self._gen
