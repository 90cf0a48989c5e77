import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iiot_netsim import cli
from iiot_netsim.errors import InvalidConfigError, InvalidParameterError
from iiot_netsim.rng import (
    RekeyableGenerator,
    RngStream,
    _mulhilo,
    _philox_block,
    philox_keys,
    philox_random,
)

SHIPPED_SIMULATE = resources.files("iiot_netsim") / "configs" / "default_simulate.json"


def test_equal_keys_equal_draws():
    a = RngStream(123, (4, 5)).gen.random(64)
    b = RngStream(123, (4, 5)).gen.random(64)
    np.testing.assert_array_equal(a, b)


def test_child_extends_key():
    s = RngStream(9)
    assert s.child(1, 2).stream_id == (1, 2)
    assert s.child("pkt").stream_id == s.child("pkt").stream_id
    # distinct labels land on distinct streams
    assert s.child("pkt").stream_id != s.child("ack").stream_id


def test_sibling_streams_differ():
    root = RngStream(7)
    a = root.child(0).gen.random(1000)
    b = root.child(1).gen.random(1000)
    assert not np.array_equal(a, b)


def test_adding_siblings_never_shifts_existing_draws():
    # node 3's stream must not depend on how many other nodes exist
    before = RngStream(11, (3,)).gen.random(16)
    _ = [RngStream(11, (k,)).gen.random(16) for k in range(50)]
    after = RngStream(11, (3,)).gen.random(16)
    np.testing.assert_array_equal(before, after)


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(InvalidParameterError):
        RngStream(5, (-2,))
    with pytest.raises(InvalidParameterError):
        RngStream(5).child(1, -1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_is_a_parameter_error(seed):
    with pytest.raises(InvalidParameterError):
        RngStream(seed)
    with pytest.raises(InvalidParameterError):
        philox_keys(seed, [[1, 2, 3]])


@pytest.mark.parametrize("seed", [42.7, 42.9, 42.0, True, np.bool_(False), "42", None])
def test_non_integer_seed_is_a_parameter_error(seed):
    # int() would run a float seed as its floor and a bool as 0 or 1
    with pytest.raises(InvalidParameterError, match="seed must be an integer"):
        RngStream(seed)
    with pytest.raises(InvalidParameterError, match="seed must be an integer"):
        philox_keys(seed, [[1, 2]])


def test_numpy_integer_seeds_are_accepted():
    for seed in (np.int64(42), np.uint64(42), np.int8(42)):
        assert RngStream(seed).seed == 42
        assert np.array_equal(philox_keys(seed, [[1, 2]]), philox_keys(42, [[1, 2]]))


# Every Philox key comes from a transcription of numpy's SeedSequence mixing;
# these pin the two together, so a numpy release that changes either fails here.
def reference_key(seed, spawn_key) -> np.ndarray:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(c) for c in spawn_key))
    return ss.generate_state(2, np.uint64)


def reference_gen(seed, spawn_key) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.Philox(ss))


COMPONENT = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    spawn_keys=st.integers(0, 5).flatmap(
        lambda m: st.lists(st.lists(COMPONENT, min_size=m, max_size=m), min_size=1, max_size=8)
    ),
    dtype=st.sampled_from([np.uint32, np.int64, np.uint64]),
)
@example(seed=0, spawn_keys=[[0, 0, 0]], dtype=np.int64)
@example(seed=1, spawn_keys=[[1, 1, 1]], dtype=np.int64)
@example(seed=2**32, spawn_keys=[[3, 600, 2**32 - 1]], dtype=np.int64)
@example(seed=2**64 - 1, spawn_keys=[[2**32 - 1, 2**32 - 1, 2**32 - 1]], dtype=np.uint64)
@example(seed=401, spawn_keys=[[], []], dtype=np.int64)  # RngStream(seed) with no child
@example(seed=401, spawn_keys=[[1, 7, 5], [3, 600, 1]], dtype=np.int64)
def test_philox_keys_match_seed_sequence(seed, spawn_keys, dtype):
    keys = philox_keys(seed, np.array(spawn_keys, dtype=dtype))
    assert keys.dtype == np.uint64 and keys.shape == (len(spawn_keys), 2)
    for row, key in zip(spawn_keys, keys):
        np.testing.assert_array_equal(key, reference_key(seed, row))


@pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
def test_philox_keys_every_spawn_key_width(seed, width):
    rows = np.array(
        [[0] * width, [2**32 - 1] * width, list(range(width)), [2**32 - 1, 0, 7, 2**32 - 1, 0][:width]],
        dtype=np.uint64,
    )
    for row, key in zip(rows, philox_keys(seed, rows)):
        np.testing.assert_array_equal(key, reference_key(seed, row))


def test_philox_keys_shape_follows_batch_shape():
    spawn = np.stack(np.broadcast_arrays(np.array([3, 1, 2])[:, None], np.arange(1, 5), 9), -1)
    keys = philox_keys(401, spawn)
    assert keys.shape == (3, 4, 2)
    np.testing.assert_array_equal(keys[1, 2], reference_key(401, (1, 3, 9)))
    np.testing.assert_array_equal(philox_keys(401, (1, 3, 9)), reference_key(401, (1, 3, 9)))
    assert philox_keys(401, np.zeros((0, 3), dtype=np.int64)).shape == (0, 2)


def test_config_rejects_node_and_tick_ids_above_32_bits():
    # node and tick are 32-bit words of the simulator's (domain, node, tick)
    # ids, so a config that would need a wider one is refused, never wrapped
    cfg = cli.build_config(json.loads(SHIPPED_SIMULATE.read_text()))[0]
    edge = replace(cfg, node_count=2**32 - 1, duration_s=(2**32 - 1) * cfg.tick_s)
    assert (edge.node_count, edge.n_ticks()) == (2**32 - 1, 2**32 - 1)
    with pytest.raises(InvalidConfigError, match="node_count"):
        replace(cfg, node_count=2**32)
    with pytest.raises(InvalidConfigError, match="2\\*\\*32 ticks"):
        replace(cfg, duration_s=2**32 * cfg.tick_s)
    np.testing.assert_array_equal(
        philox_keys(7, [[1, 4, 2**32 - 1]])[0], reference_key(7, (1, 4, 2**32 - 1))
    )


@pytest.mark.parametrize(
    "spawn_keys",
    [
        [[1, -2, 3]],
        [[1.0, 2.0]],
        [[2**64, 1]],
        [[2**63, 1]],
        5,
        # components are 32-bit words: wider ones are refused, never wrapped or split
        [[2**32]],
        [[1, 4, 2**32 + 5]],
        np.array([[1, 4, 2**32]], dtype=np.uint64),
        np.array([[2**64 - 1]], dtype=np.uint64),
        np.array([[3, -(2**31)]], dtype=np.int32),
        np.array([[True, True]]),
    ],
)
def test_philox_keys_rejects_what_it_cannot_encode(spawn_keys):
    with pytest.raises(InvalidParameterError):
        philox_keys(1, spawn_keys)


@pytest.mark.parametrize("n", [1, 3, 1000])
def test_rekeyed_generator_draws_like_a_fresh_stream(n):
    ids = [(1, 5, 7), (2, 600, 2**32 - 1)]
    keys = philox_keys(401, np.array(ids, dtype=np.uint64))
    rng = RekeyableGenerator()

    def draws(gen):
        return gen.random(n), gen.standard_normal((2, n)), gen.exponential(0.5, n)

    # both orders, so no key's draws depend on what the previous key left behind
    for order in ([0, 1], [1, 0], [0, 0]):
        for i in order:
            for got, want in zip(draws(rng.rekey(keys[i])), draws(reference_gen(401, ids[i]))):
                np.testing.assert_array_equal(got, want)


# the examples include every stream id the program builds through RngStream
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.lists(st.one_of(st.integers(0, 2**80 - 1), st.text(max_size=8)), max_size=5),
)
@example(seed=42, stream_id=())
@example(seed=401, stream_id=("qos-reliability",))
@example(seed=0, stream_id=(0, 2**32 - 1, 2**32, 2**64 - 1))
@example(seed=2**64 - 1, stream_id=("validate-channel", "awgn"))
@example(seed=42, stream_id=("validate-channel", "rayleigh"))
@example(seed=42, stream_id=("validate-channel", "rician"))
@example(seed=42, stream_id=("validate-channel", "degenerate"))
def test_stream_draws_match_seed_sequence(seed, stream_id):
    stream = RngStream(seed, stream_id)
    want = reference_gen(seed, stream.stream_id)
    np.testing.assert_array_equal(stream.gen.random(8), want.random(8))
    np.testing.assert_array_equal(stream.gen.standard_normal(3), want.standard_normal(3))


# The numpy Philox4x64-10 core gives run_tick every node's rate jitter in one
# pass; these pin it to numpy's Philox, the generator each draw replaces.
WORD = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)
)


@settings(max_examples=200, deadline=None)
@given(a=WORD, b=WORD)
@example(a=2**64 - 1, b=2**64 - 1)
@example(a=2**32 - 1, b=0xD2E7470EE14C6C93)  # the low halves' sum carries into the high word
def test_mulhilo_is_the_128_bit_product(a, b):
    hi, lo = _mulhilo(np.array([a], dtype=np.uint64), np.array([b], dtype=np.uint64))
    assert (int(hi[0]), int(lo[0])) == (a * b >> 64, a * b & (2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.tuples(WORD, WORD), min_size=1, max_size=6))
@example(keys=[(0, 0)])
@example(keys=[(2**64 - 1, 2**64 - 1)])
# the second round multiplies the key words themselves, and (2**32 - 1) times
# the first round multiplier carries out of the low 32-bit halves
@example(keys=[(2**32 - 1, 2**32 - 1)])
def test_philox_core_matches_numpy_philox(keys):
    array = np.array(keys, dtype=np.uint64)
    blocks, uniforms = _philox_block(array), philox_random(array)
    assert blocks.shape == (len(keys), 4) and uniforms.shape == (len(keys),)
    for key, block, u in zip(array, blocks, uniforms):
        np.testing.assert_array_equal(block, np.random.Philox(key=key).random_raw(4))
        assert u == np.random.Generator(np.random.Philox(key=key)).random()


def test_philox_random_follows_the_key_batch_shape():
    spawn = np.broadcast_arrays(np.array([1, 3])[:, None], np.arange(1, 4), 9)
    keys = philox_keys(401, np.stack(spawn, axis=-1))
    u = philox_random(keys)
    assert u.shape == (2, 3) and u.dtype == np.float64
    assert u[1, 2] == RngStream(401, (3, 3, 9)).gen.random()
    assert philox_random(np.zeros((0, 2), dtype=np.uint64)).shape == (0,)
