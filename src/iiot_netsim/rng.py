"""Deterministic substream RNG built on the counter-based Philox generator.

A stream is identified by a 64-bit seed plus a tuple of nonnegative integers
(the stream id).  Equal (seed, stream_id) pairs always yield identical
sample sequences; distinct ids yield statistically independent streams, so
draws keyed by (domain, node, tick) never shift when nodes or ticks are added.

Every Philox key in the program comes from one derivation: numpy's seed
sequence (numpy.random.bit_generator) hash mix on rows of uint32 words, bit
for bit.  philox_keys keys a batch of ids with 32-bit components at once;
RngStream splits its id into words as the seed sequence does and keys one
row.  RekeyableGenerator draws each stream from one reused Philox, so many
short streams cost a key assignment each instead of a new generator.

philox_random computes a fresh stream's first uniform for a whole batch of
keys at once: Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC'11) written in uint64 numpy arithmetic, bit for bit
what Generator(Philox(key=k)).random() returns first.
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

# numpy's seed-sequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# Philox4x64 round multipliers and key increments (Random123), as columns
# that act on the (counter word 0, counter word 2) rows of a batch
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(_MASK32)
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
            # the seed sequence's words: each component low word first, 0 as one word
            ids = self.stream_id
            words = [c >> s & _MASK32 for c in ids for s in range(0, c.bit_length() or 1, 32)]
            key = _mixed_keys(self.seed, np.array([words], dtype=np.uint32))[0]
            self._gen = np.random.Generator(np.random.Philox(key=key))
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
        raise InvalidParameterError(f"stream id components must be >= 0, got {value}")
    return out


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """The seed sequence's hashmix; returns (hashed value, next hash constant)."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    """The seed sequence's mix, on Python ints or uint32 arrays."""
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


def philox_keys(seed: int, spawn_keys) -> np.ndarray:
    """Philox keys of the streams (seed, k) for every stream id k at once.

    spawn_keys is an integer array of shape (..., m), one stream id of m
    components, each in [0, 2**32), per row.  Returns a uint64 array of
    shape (..., 2): row k is the key numpy's seed sequence with entropy
    seed and spawn_key tuple(k) generates (generate_state(2, np.uint64)).
    """
    seed = _check_seed(seed)
    keys = np.asarray(spawn_keys)
    # one pass: a negative component shifts to -1, one of 2**32 or more to >= 1
    if keys.ndim < 1 or keys.dtype.kind not in "iu" or (keys >> 32).any():
        raise InvalidParameterError(
            "spawn_keys must be an integer array of shape (..., m) with entries in [0, 2**32)"
        )
    shape = keys.shape[:-1]
    words = keys.reshape(math.prod(shape), keys.shape[-1]).astype(np.uint32)
    return _mixed_keys(seed, words).reshape(shape + (2,))


def _mixed_keys(seed: int, words: np.ndarray) -> np.ndarray:
    """Keys of the seed sequences (seed, spawn_key=row) for the rows of an
    (n, w) uint32 array of spawn-key words; returns an (n, 2) uint64 array."""
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
    for column in words.T:
        hashed, hash_const = _hash_rows(column, hash_const, _MULT_A)
        pool = _mix(pool, hashed)

    # generate_state(2, np.uint64): the four hashed pool words, paired little-endian
    state = _hash_rows(pool, _INIT_B, _MULT_B)[0].astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


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


def _philox_block(keys: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks of counter 1 under the keys of an (n, 2) uint64
    array; returns (n, 4) uint64, row k equal to Philox(key=k).random_raw(4)."""
    key = np.ascontiguousarray(keys.T)
    # the counter (1, 0, 0, 0) as rows x = (word 0, word 2), y = (word 1, word 3)
    x = np.zeros_like(key)
    x[0] = 1
    y = np.zeros_like(key)
    # a round maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    # hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)); the key advances by W before each
    # round but the first
    for r in range(_PHILOX_ROUNDS):
        if r:
            key = key + _PHILOX_W
        hi, lo = _mulhilo(x, _PHILOX_M)
        x, y = hi[::-1] ^ y ^ key, lo[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1)


def philox_random(keys) -> np.ndarray:
    """First uniform of a fresh Philox stream for every key at once.

    keys is a uint64 array of shape (..., 2), as philox_keys returns.
    Element k of the float64 result of shape (...) equals
    Generator(Philox(key=keys[k])).random(): the block of counter 1 (numpy
    increments the counter before its first block), word 0, top 53 bits.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    words = _philox_block(keys.reshape(-1, 2))[:, 0]
    return ((words >> np.uint64(11)) * 2.0**-53).reshape(keys.shape[:-1])


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
