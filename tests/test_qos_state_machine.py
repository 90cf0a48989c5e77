"""Handshake tests: the batch handshake, closed form, Monte-Carlo agreement."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iiot_netsim.channel_models import RayleighParams, channel_gain
from iiot_netsim.errors import DomainError, InvalidParameterError
from iiot_netsim.qos_state_machine import (
    MIN_LEGS,
    N_LEGS,
    QoSChainParams,
    handshake_legs,
    handshake_rows,
    max_total_legs,
    reliability,
    reliability_monte_carlo,
)
from iiot_netsim.rng import DOMAIN_PACKET, RngStream
from iiot_netsim.rtt_model import HopConfig
from iiot_netsim.sim_engine import SimulationConfig, per_packet_error_probability, run_simulation

SEED = 7041


def stream(*path):
    return RngStream(SEED).child(*path)


probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---- parameters ----------------------------------------------------------


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        QoSChainParams(1.1, 0.5, 0.5, 0.5)
    with pytest.raises(InvalidParameterError):
        QoSChainParams(0.5, -0.1, 0.5, 0.5)


# ---- closed-form reliability --------------------------------------------


def test_reliability_values():
    assert reliability(QoSChainParams.uniform(1.0)) == 1.0
    assert reliability(QoSChainParams(0.3, 0.7, 0.9, 0.0)) == 0.0
    r = reliability(QoSChainParams.uniform(0.9))
    assert abs(r - 0.6561656165616562) < 1e-12
    with pytest.raises(DomainError):
        reliability(QoSChainParams.uniform(0.0))


@given(probs, probs, probs, probs)
def test_reliability_permutation_symmetric(a, b, g, d):
    if (1 - a) * (1 - b) * (1 - g) * (1 - d) >= 1.0:
        return
    r1 = reliability(QoSChainParams(a, b, g, d))
    r2 = reliability(QoSChainParams(d, g, a, b))
    assert math.isclose(r1, r2, rel_tol=1e-12, abs_tol=1e-15)


def test_reliability_monotone_grid():
    grid = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    for base in [0.2, 0.6, 1.0]:
        fixed = QoSChainParams.uniform(base)
        prev = -1.0
        for a in grid:
            r = reliability(QoSChainParams(a, fixed.beta, fixed.gamma, fixed.delta))
            assert r >= prev - 1e-15
            prev = r


# ---- the handshake ---------------------------------------------------------


def hop() -> HopConfig:
    return HopConfig(
        distance=30.0,
        propagation_speed=3e8,
        packet_length=1000.0,
        link_rate=1e6,
        processing_delay=0.5e-3,
        arrival_rate=60.0,
        service_rate=1000.0,
    )


def handshake(level, p, n, retries, *path):
    """handshake_legs on n packets that share the leg success probability p."""
    leg_u = stream(*path).gen.random((handshake_rows(level, retries), n))
    return handshake_legs(level, np.full(n, p), leg_u, retries)


def test_handshake_no_failures():
    delivered, legs = handshake(2, 1.0, 100, 0, "hs-1")
    assert delivered.all()
    assert np.all(legs == 4)


def test_handshake_first_leg_dead():
    # with no retries a dead channel ends the handshake on its first leg
    delivered, legs = handshake(2, 0.0, 100, 0, "hs-0")
    assert not delivered.any()
    assert np.all(legs == 1)


def test_handshake_batch_zero_retries_matches_product():
    # criterion: delivered fraction = p^4 within 3 standard errors at 1e6
    n = 10**6
    p = 0.9
    target = p**4
    delivered, legs = handshake(2, p, n, 0, "hs-b0")
    se = math.sqrt(target * (1 - target) / n)
    assert abs(delivered.mean() - target) < 3 * se
    assert legs.max() <= 4


def test_handshake_batch_unlimited_retries():
    # generous cap stands in for unlimited: overflow odds ~ 0.1^200
    n = 10**6
    delivered, legs = handshake(2, 0.9, n, 200, "hs-binf")
    assert delivered.all()
    assert abs(legs.mean() - 4.0 / 0.9) < 0.01


def test_handshake_batch_dead_leg():
    # the first leg burns its whole budget of three attempts, then the packet is lost;
    # a p whose geometric trial count lies past the int64 range acts the same
    for p in (0.0, 1e-40, 1e-300):
        delivered, legs = handshake(2, p, 100, 2, "hs-d")
        assert not delivered.any()
        assert np.all(legs == 3)


def test_handshake_scalar_batch_agree():
    # packets are independent: one call per packet equals one call per batch
    retries = 3
    p = stream("hs-p").gen.random(200)
    leg_u = stream("hs-u").gen.random((handshake_rows(2, retries), 200))
    delivered, legs = handshake_legs(2, p, leg_u, retries)
    for k in range(200):
        one_delivered, one_legs = handshake_legs(2, p[k : k + 1], leg_u[:, k : k + 1], retries)
        assert (one_delivered[0], one_legs[0]) == (delivered[k], legs[k])


def test_retry_chain_absorption():
    # with retries unbounded in practice, every live channel delivers and a dead one never does
    delivered, _ = handshake(2, 0.2, 10**4, 400, "hs-abs")
    assert delivered.all()
    delivered, _ = handshake(2, 0.0, 10**4, 400, "hs-abs0")
    assert not delivered.any()


# ---- QoS levels -------------------------------------------------------------


def test_qos0():
    delivered, legs = handshake(0, 1.0, 50, 8, "q0")
    assert delivered.all() and np.all(legs == 1)
    delivered, legs = handshake(0, 0.0, 50, 8, "q0b")
    assert not delivered.any() and np.all(legs == 1)


def test_qos1():
    delivered, legs = handshake(1, 1.0, 50, 8, "q1")
    assert delivered.all() and np.all(legs == 2)
    delivered, legs = handshake(1, 0.0, 50, 3, "q1b")
    assert not delivered.any()
    assert np.all(legs == 2 * 4)


def test_qos2_delegates():
    # the simulator's QoS 2 outcomes are handshake_legs on the same draws
    n = 200
    cfg = SimulationConfig(
        node_count=1,
        duration_s=1.0,
        base_hop=hop(),
        seed=SEED,
        fading=RayleighParams(sigma=1.0),
        snr_threshold_db=0.0,
        packets_per_node_per_tick=n,
        max_retries_per_leg=2,
    )
    records = run_simulation(cfg).records
    gen = RngStream(SEED).child(DOMAIN_PACKET, 1, 1).gen
    gen.random(n)  # send times
    h = channel_gain(cfg.fading, gen.standard_normal((2, n)))
    leg_u = gen.random((handshake_rows(2, 2), n))
    snr = (h.real**2 + h.imag**2) / cfg.noise_n0
    p = 1.0 - per_packet_error_probability(snr, 0.0)
    delivered, legs = handshake_legs(2, p, leg_u, 2)
    assert [r.delivered for r in records] == delivered.tolist()
    assert [r.attempts for r in records] == legs.tolist()
    assert not delivered.all() and legs.max() > 4  # retries and losses both occur


def test_qos_level_guard():
    leg_u = np.full((N_LEGS, 2), 0.5)
    for level in (-1, 3):
        with pytest.raises(InvalidParameterError):
            handshake_rows(level, 8)
        with pytest.raises(InvalidParameterError):
            handshake_legs(level, np.full(2, 0.9), leg_u, 8)
        with pytest.raises(InvalidParameterError):
            max_total_legs(level, 1)


@pytest.mark.parametrize("retries", range(9))
@pytest.mark.parametrize("level", [0, 1, 2])
def test_sure_legs_complete_in_the_fewest_legs(level, retries):
    # run_tick skips handshake_legs on a lossless channel and takes this
    # result: at p = 1 every uniform, 0 and the largest below 1 included,
    # delivers in MIN_LEGS legs (at QoS 2, log1p(-u) / -inf is a zero)
    edges = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    u = np.concatenate([edges, stream("sure", level, retries).gen.random(60)])
    rows = handshake_rows(level, retries)
    leg_u = np.stack([np.roll(u, shift) for shift in range(rows)])
    delivered, legs = handshake_legs(level, np.ones(len(u)), leg_u, retries)
    assert delivered.dtype == bool and delivered.all()
    assert legs.dtype == np.int64
    np.testing.assert_array_equal(legs, np.full(len(u), MIN_LEGS[level]))


@settings(max_examples=60)
@given(st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=0, max_value=6))
def test_delivered_implies_four_legs(p, retries):
    delivered, legs = handshake(2, p, 64, retries, "prop", int(p * 1e6), retries)
    assert np.all(legs[delivered] >= 4)
    assert np.all(legs <= 4 * (retries + 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2]), probs, st.integers(min_value=0, max_value=6))
def test_legs_within_bounds_every_level(level, p, retries):
    cfg = SimulationConfig(
        node_count=1,
        duration_s=1.0,
        base_hop=hop(),
        seed=SEED,
        qos_level=level,
        max_retries_per_leg=retries,
    )
    delivered, legs = handshake(level, p, 64, retries, "bounds", level, int(p * 1e6), retries)
    assert np.all(legs[delivered] >= cfg.min_legs())
    assert np.all(legs <= cfg.max_total_legs())


# ---- Monte-Carlo reliability ------------------------------------------------


def test_reliability_mc_sure_delivery():
    assert reliability_monte_carlo(QoSChainParams.uniform(1.0), 1000, stream("mc1")) == 1.0


def test_reliability_mc_matches_closed_form():
    params = QoSChainParams.uniform(0.9)
    n = 10**6
    r = reliability(params)
    est = reliability_monte_carlo(params, n, stream("mc9"))
    se = math.sqrt(r * (1 - r) / n)
    assert abs(est - r) < 3 * se


def test_reliability_mc_guard():
    with pytest.raises(DomainError):
        reliability_monte_carlo(QoSChainParams.uniform(0.0), 10, stream("mc0"))
