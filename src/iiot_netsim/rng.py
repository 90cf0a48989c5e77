"""Deterministic substream RNG built on the counter-based Philox generator.

A stream is identified by a 64-bit seed plus a tuple of nonnegative integers
(the stream id).  Equal (seed, stream_id) pairs always yield identical
sample sequences; distinct ids yield statistically independent streams, so
draws keyed by (domain, node, tick) never shift when nodes or ticks are added.

RngStream keys a Philox generator with numpy's seed sequence: its key is
SeedSequence(seed, spawn_key=stream_id).generate_state(2, np.uint64).

A simulation run needs many short streams, so it keys one Philox once, with
RngStream(seed).key, and addresses substream (domain, node, tick) by the
counter (0, domain, node, tick) under that key (Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC'11).  The root stream's blocks sit
at counters (k, 0, 0, 0) and domains start at 1, so no substream meets
them.  SubstreamGenerator moves one Philox to a substream's counter;
philox_random computes the first uniform of many substreams at once, with
Philox4x64-10 written in uint64 numpy arithmetic.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidParameterError

# Domain tags keep different uses of the same (node, tick, ...) coordinates
# on disjoint streams; they start at 1, clear of the root stream's counters.
DOMAIN_PACKET = 1
DOMAIN_SERVER = 2
DOMAIN_RATE_JITTER = 3

# Philox4x64 round multipliers and key increments (Random123), as columns
# that act on the (counter word 0, counter word 2) rows of a batch
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


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


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the 128-bit products a * b of uint64 arrays,
    the high word built from 32-bit halves so no partial sum overflows."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    # < 2**32 + 2**32 + (2**32 - 1)**2 < 2**64
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32), a * b


def _philox_block(key: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks under one key (two uint64 words) at the counters
    of an (n, 4) uint64 array; returns (n, 4) uint64, row i the block of
    counters[i], which numpy's Philox(key=key) outputs from the counter
    before it."""
    key = key[:, None]
    # the counters as rows x = (word 0, word 2), y = (word 1, word 3)
    x, y = counters.T[0::2], counters.T[1::2]
    # a round maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    # hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)); the key advances by W before each
    # round but the first
    for r in range(_PHILOX_ROUNDS):
        if r:
            key = key + _PHILOX_W
        hi, lo = _mulhilo(x, _PHILOX_M)
        x, y = hi[::-1] ^ y ^ key, lo[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1)


def philox_random(key, stream_ids) -> np.ndarray:
    """First uniform of many substreams under one key at once.

    stream_ids is an integer array of shape (..., 3), each row three
    counter words in [0, 2**64).  Element i of the float64 result of shape
    (...) equals SubstreamGenerator(key).at(stream_ids[i]).random(): the
    block at counter (1, *stream_ids[i]) (numpy increments the counter
    before its first block), word 0, top 53 bits.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    counters = np.ones(ids.shape[:-1] + (4,), dtype=np.uint64)
    counters[..., 1:] = ids
    words = _philox_block(np.asarray(key, dtype=np.uint64), counters.reshape(-1, 4))[:, 0]
    return ((words >> np.uint64(11)) * 2.0**-53).reshape(ids.shape[:-1])


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
