import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iiot_netsim import cli
from iiot_netsim.errors import InvalidConfigError, InvalidParameterError
from iiot_netsim.rng import RngStream, SubstreamGenerator

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


@pytest.mark.parametrize("seed", [42.7, 42.9, 42.0, True, np.bool_(False), "42", None])
def test_non_integer_seed_is_a_parameter_error(seed):
    # int() would run a float seed as its floor and a bool as 0 or 1
    with pytest.raises(InvalidParameterError, match="seed must be an integer"):
        RngStream(seed)


def test_numpy_integer_seeds_are_accepted():
    for seed in (np.int64(42), np.uint64(42), np.int8(42)):
        assert RngStream(seed).seed == 42
        assert np.array_equal(RngStream(seed, (1, 2)).key, RngStream(42, (1, 2)).key)


@pytest.mark.parametrize("component", [2.5, 2.0, True, np.bool_(True), np.float64(3.9), None])
def test_non_integer_stream_id_component_is_a_parameter_error(component):
    # int() would run child(2.5) as child(2) and child(True) as child(1)
    with pytest.raises(InvalidParameterError, match="integers or strings"):
        RngStream(1).child(component)
    with pytest.raises(InvalidParameterError, match="integers or strings"):
        RngStream(1, (0, component))


def test_numpy_integer_components_are_accepted():
    assert RngStream(1).child(np.int64(2), np.uint8(3)).stream_id == (2, 3)
    np.testing.assert_array_equal(
        RngStream(1).child(np.uint64(2)).gen.random(4), RngStream(1).child(2).gen.random(4)
    )


# RngStream's generator is numpy's Philox under numpy's seed sequence; these
# are the references its key and its draws are pinned to.
def reference_key(seed, spawn_key) -> np.ndarray:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(c) for c in spawn_key))
    return ss.generate_state(2, np.uint64)


def reference_gen(seed, spawn_key) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
def test_philox_keys_every_spawn_key_width(seed, width):
    # RngStream.key, the Philox key a simulation run is keyed with, at ids
    # of every width, with components on and past the 32-bit word edges
    edges = [2**64 - 1, 0, 7, 2**32, 0][:width]
    for row in ([0] * width, [2**32 - 1] * width, list(range(width)), edges):
        key = RngStream(seed, row).key
        assert key.dtype == np.uint64 and key.shape == (2,)
        np.testing.assert_array_equal(key, reference_key(seed, row))


def test_config_rejects_node_and_tick_ids_above_32_bits():
    # the bounds on node_count and the tick count refuse absurd sizes (exit 2)
    # before anything is allocated; the last tick's substreams address as usual
    cfg = cli.build_config(json.loads(SHIPPED_SIMULATE.read_text()))[0]
    edge = replace(cfg, node_count=2**32 - 1, duration_s=(2**32 - 1) * cfg.tick_s)
    assert (edge.node_count, edge.n_ticks()) == (2**32 - 1, 2**32 - 1)
    with pytest.raises(InvalidConfigError, match="node_count"):
        replace(cfg, node_count=2**32)
    with pytest.raises(InvalidConfigError, match="2\\*\\*32 ticks"):
        replace(cfg, duration_s=2**32 * cfg.tick_s)
    key = RngStream(edge.seed).key
    edge_id = (5, 0, 2**32 - 1)
    assert SubstreamGenerator(key).at(edge_id).random() == plain_philox(key, edge_id).random()


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


# A run addresses substream (domain, node, tick) as the counter
# (0, domain, node, tick) under one key; these pin SubstreamGenerator to a
# plain numpy Philox built at that counter.
WORD = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]),
    st.integers(0, 2**64 - 1),
)
KEY = st.tuples(WORD, WORD)
STREAM_ID = st.tuples(WORD, WORD, WORD)


def plain_philox(key, stream_id) -> np.random.Generator:
    key, counter = np.array(key, dtype=np.uint64), np.array([0, *stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@settings(max_examples=60, deadline=None)
@given(key=KEY, ids=st.lists(STREAM_ID, min_size=1, max_size=4), n=st.sampled_from([1, 3, 1000]))
@example(key=(401, 7), ids=[(1, 5, 7), (2, 600, 2**32 - 1), (1, 5, 7)], n=1000)
@example(key=(401, 7), ids=[(3, 0, 1), (4, 0, 2**32 - 1), (5, 0, 1)], n=1000)
@example(key=(0, 0), ids=[(2**64 - 1, 2**64 - 1, 2**64 - 1), (0, 0, 0)], n=3)
def test_substream_generator_matches_plain_philox(key, ids, n):
    # one generator visits the ids in turn, so no stream's draws may depend
    # on what the previous one left in the buffer
    rng = SubstreamGenerator(np.array(key, dtype=np.uint64))

    def draws(gen):
        return gen.random(n), gen.standard_normal((2, n)), gen.exponential(0.5, n)

    for stream_id in ids:
        for got, want in zip(draws(rng.at(stream_id)), draws(plain_philox(key, stream_id))):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [1, 3, 1000])
def test_rekeyed_generator_draws_like_a_fresh_stream(n):
    key = RngStream(401).key
    ids = [(1, 5, 7), (2, 600, 2**32 - 1)]
    rng = SubstreamGenerator(key)

    def draws(gen):
        return gen.random(n), gen.standard_normal((2, n)), gen.exponential(0.5, n)

    # both orders, so no stream's draws depend on what the previous one left behind
    for order in ([0, 1], [1, 0], [0, 0]):
        for i in order:
            for got, want in zip(draws(rng.at(ids[i])), draws(plain_philox(key, ids[i]))):
                np.testing.assert_array_equal(got, want)
