"""Deterministic substream RNG built on the counter-based Philox generator.

A stream is identified by a 64-bit seed plus a tuple of nonnegative integers
(the stream id).  Equal (seed, stream_id) pairs always yield identical sample
sequences; distinct ids yield statistically independent streams.  Substreams
are derived with child(), so e.g. packet draws keyed by
(node, tick, packet) never shift when more nodes or ticks are added.

RngStream is the reference: it builds each generator from numpy's
SeedSequence.  A Philox stream is fully determined by its 128-bit key, so
philox_keys derives the keys of a whole batch of stream ids at once with
SeedSequence's own hash arithmetic on uint32 arrays; each key equals
SeedSequence(seed, spawn_key=id).generate_state(2, np.uint64) bit for bit.
RekeyableGenerator then draws each stream from one reused Philox, so
many short streams cost a key assignment each instead of a SeedSequence.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import InvalidParameterError

# Domain tags keep different uses of the same (node, tick, ...) coordinates
# on disjoint streams.
DOMAIN_PACKET = 1
DOMAIN_SERVER = 2
DOMAIN_RATE_JITTER = 3

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _check_seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise InvalidParameterError("seed must fit in 64 bits")
    return seed


class RngStream:
    """Stateful random stream keyed by (seed, stream_id).

    The underlying generator is created lazily from a SeedSequence with
    spawn_key=stream_id, so construction is cheap and two streams with the
    same key are bit-identical draw for draw.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: tuple = ()):
        self.seed = _check_seed(seed)
        self.stream_id = tuple(_key_component(i) for i in stream_id)
        self._gen: np.random.Generator | None = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream_id)
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def child(self, *path) -> "RngStream":
        """Fresh independent stream with the id extended by path.

        Path components are nonnegative ints or strings; strings are mapped
        to 64-bit ints by a stable hash so labels work as substream keys.
        """
        return RngStream(self.seed, self.stream_id + path)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _key_component(value) -> int:
    """Coerce a stream-id component to a nonnegative int, hashing strings."""
    if isinstance(value, str):
        digest = hashlib.sha256(value.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    out = int(value)
    if out < 0:
        raise ValueError(f"stream id components must be >= 0, got {value}")
    return out


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's hashmix; returns (hashed value, next hash constant)."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    """SeedSequence's mix, on Python ints or uint32 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _hash_rows(values: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """Row i of a (4, n) uint32 array hashed as the i-th of four successive
    hashmix-style calls starting at hash_const; returns the hashed rows and
    the hash constant after them."""
    consts = [hash_const]
    for _ in range(_POOL_SIZE):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    values = (values ^ column[:-1]) * column[1:]
    return values ^ values >> _XSHIFT, consts[-1]


def _spawn_words(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """uint32 words of each row of a (n, m) uint64 array, as SeedSequence
    splits them: one word per component below 2**32, else low then high.

    Returns the words left-aligned in an (n, width) array, plus each row's
    word count when the rows differ in length (None when all have m words).
    """
    hi = keys >> np.uint64(32)
    if not hi.any():
        return keys.astype(np.uint32), None
    n_words = 1 + (hi > 0)
    end = np.cumsum(n_words, axis=1)
    words = np.zeros((len(keys), int(end[:, -1].max())), dtype=np.uint32)
    words[np.arange(len(keys))[:, None], end - n_words] = keys & np.uint64(_MASK32)
    rows, cols = np.nonzero(hi)
    words[rows, end[rows, cols] - 1] = hi[rows, cols]
    return words, end[:, -1]


def philox_keys(seed: int, spawn_keys) -> np.ndarray:
    """Philox keys of SeedSequence(seed, spawn_key=k) for every k at once.

    spawn_keys is an integer array of shape (..., m), one stream id of m
    nonnegative components (each below 2**64) per row.  Returns a uint64
    array of shape (..., 2): row k equals
    SeedSequence(seed, spawn_key=tuple(k)).generate_state(2, np.uint64).
    """
    seed = _check_seed(seed)
    keys = np.asarray(spawn_keys)
    if keys.ndim < 1 or keys.dtype.kind not in "iu":
        raise InvalidParameterError(
            "spawn_keys must be an integer array of shape (..., m) with entries below 2**64"
        )
    if keys.dtype.kind == "i" and (keys < 0).any():
        raise InvalidParameterError("spawn key components must be >= 0")
    shape = keys.shape[:-1]
    words, n_words = _spawn_words(keys.reshape(math.prod(shape), keys.shape[-1]).astype(np.uint64))

    # the seed's words, zero-padded to the pool size, fill and mix the pool
    hash_const = _INIT_A
    pool = []
    for word in (seed & _MASK32, seed >> 32, 0, 0):
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], value)

    # each spawn-key word is mixed into the four pool words (rows) in turn
    pool = np.repeat(np.array(pool, dtype=np.uint32)[:, None], len(words), axis=1)
    for j, column in enumerate(words.T):
        hashed, hash_const = _hash_rows(column, hash_const, _MULT_A)
        mixed = _mix(pool, hashed)
        pool = mixed if n_words is None else np.where(j < n_words, mixed, pool)

    # generate_state(2, np.uint64): the four hashed pool words, paired little-endian
    state = _hash_rows(pool, _INIT_B, _MULT_B)[0].astype(np.uint64)
    out = state[0::2] | state[1::2] << np.uint64(32)
    return out.T.reshape(shape + (2,))


class RekeyableGenerator:
    """One Philox generator that re-keys in place.

    rekey(key) returns the generator set to counter 0 with an empty
    buffer, so it draws exactly what a fresh Philox with that key would:
    rekey(philox_keys(seed, k)) matches RngStream(seed, k).gen.
    Each instance holds its own state; runs must not share one.
    """

    __slots__ = ("_bitgen", "_gen", "_state")

    def __init__(self):
        self._bitgen = np.random.Philox(0)  # rekey replaces this key
        self._gen = np.random.Generator(self._bitgen)
        empty = np.zeros(4, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": empty, "key": None},
            "buffer": empty,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, key) -> np.random.Generator:
        self._state["state"]["key"] = key
        self._bitgen.state = self._state
        return self._gen
