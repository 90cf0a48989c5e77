"""Round-trip model: hand-derived totals, monotonicity, additivity."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iiot_netsim.errors import InstabilityError, InvalidParameterError
from iiot_netsim.rtt_model import HopConfig, compute_rtt

# the hand-evaluated reference hop: 2*(1e-6 + 1e-3 + 0 + 2e-3) + 1e-3
REF_HOP = HopConfig(
    distance=300.0,
    propagation_speed=3e8,
    packet_length=1000.0,
    link_rate=1e6,
    hop_weight=1.0,
    processing_delay=0.0,
    arrival_rate=500.0,
    service_rate=1000.0,
    loss_prob=0.0,
    retx_base=1e-3,
)
REF_TOTAL = 7.002e-3


def test_empty_path():
    out = compute_rtt([])
    assert out.total == 0.0
    assert out.hops == ()


def test_single_hop_hand_value():
    out = compute_rtt([REF_HOP])
    assert out.total == pytest.approx(REF_TOTAL, rel=1e-12)
    t = out.hops[0]
    assert t.propagation == pytest.approx(1e-6, rel=1e-12)
    assert t.transmission == pytest.approx(1e-3, rel=1e-12)
    assert t.queueing == pytest.approx(2e-3, rel=1e-12)
    assert t.retransmission == pytest.approx(1e-3, rel=1e-12)


def test_two_identical_hops():
    out = compute_rtt([REF_HOP, REF_HOP])
    assert out.total == pytest.approx(2 * REF_TOTAL, rel=1e-12)


def test_breakdown_consistent_with_total():
    out = compute_rtt([REF_HOP, replace(REF_HOP, loss_prob=0.25, processing_delay=2e-3)])
    one_way = retx = 0.0
    for t in out.hops:
        one_way += t.propagation + t.transmission + t.processing + t.queueing
        retx += t.retransmission
    assert out.total == pytest.approx(2.0 * one_way + retx, rel=1e-12)
    assert out.one_way == one_way  # the same sum in the same order


def test_terms_add_left_to_right():
    # 1.0 + 2**-53 rounds to 1.0 (ties to even) twice; a compensated sum,
    # as the builtin sum is since CPython 3.12, would give 1.0 + 2**-52
    hops = [
        replace(REF_HOP, distance=d, propagation_speed=1.0, hop_weight=0.0, retx_base=0.0)
        for d in (1.0, 2**-53, 2**-53)
    ]
    out = compute_rtt(hops)
    assert [t.propagation for t in out.hops] == [1.0, 2**-53, 2**-53]
    assert out.one_way == 1.0
    assert out.total == 2.0


def test_hop_validation():
    with pytest.raises(InstabilityError):
        replace(REF_HOP, service_rate=500.0)  # mu == lambda
    with pytest.raises(InvalidParameterError):
        replace(REF_HOP, loss_prob=1.0)
    with pytest.raises(InvalidParameterError):
        replace(REF_HOP, loss_prob=-0.1)
    with pytest.raises(InvalidParameterError):
        replace(REF_HOP, propagation_speed=0.0)
    with pytest.raises(InvalidParameterError):
        replace(REF_HOP, link_rate=-1.0)


def test_monotone_in_each_field():
    base = replace(REF_HOP, processing_delay=1e-3, loss_prob=0.1, hop_weight=2.0)
    t0 = compute_rtt([base]).total
    up = ["distance", "packet_length", "processing_delay", "loss_prob", "retx_base", "hop_weight"]
    down = ["propagation_speed", "link_rate", "service_rate"]
    for name in up:
        bumped = replace(base, **{name: getattr(base, name) * 1.01})
        assert compute_rtt([bumped]).total > t0, name
    for name in down:
        bumped = replace(base, **{name: getattr(base, name) * 1.01})
        assert compute_rtt([bumped]).total < t0, name


hop_strategy = st.builds(
    HopConfig,
    distance=st.floats(min_value=1.0, max_value=1e5),
    propagation_speed=st.floats(min_value=1e6, max_value=3e8),
    packet_length=st.floats(min_value=8.0, max_value=1e5),
    link_rate=st.floats(min_value=1e3, max_value=1e9),
    hop_weight=st.floats(min_value=0.0, max_value=8.0),
    processing_delay=st.floats(min_value=0.0, max_value=0.1),
    arrival_rate=st.floats(min_value=0.1, max_value=100.0),
    service_rate=st.floats(min_value=200.0, max_value=1e4),
    loss_prob=st.floats(min_value=0.0, max_value=0.9),
    retx_base=st.floats(min_value=0.0, max_value=0.1),
)


@given(st.lists(hop_strategy, max_size=6), st.lists(hop_strategy, max_size=6))
def test_concatenation_additivity(a, b):
    whole = compute_rtt(a + b).total
    parts = compute_rtt(a).total + compute_rtt(b).total
    assert whole == pytest.approx(parts, rel=1e-12, abs=1e-300)


def test_retransmission_dominates_near_certain_loss():
    t1 = compute_rtt([replace(REF_HOP, loss_prob=0.99)]).hops[0].retransmission
    t2 = compute_rtt([replace(REF_HOP, loss_prob=0.98)]).hops[0].retransmission
    assert t1 / t2 == pytest.approx(2.0, rel=1e-9)

