"""Erlang-C closed forms against hand values and the discrete-event oracle."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iiot_netsim.errors import InstabilityError, InvalidParameterError
from iiot_netsim.queueing_model import (
    QueueParams,
    erlang_c_probability,
    mean_wait_in_queue,
    simulate_mmc,
)
from iiot_netsim.rng import RngStream

SEED = 90210


def stream(*path):
    return RngStream(SEED).child(*path)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        QueueParams(lam=0.0, mu=1.0)
    with pytest.raises(InvalidParameterError):
        QueueParams(lam=1.0, mu=-2.0)
    with pytest.raises(InvalidParameterError):
        QueueParams(lam=1.0, mu=2.0, servers=0)


@pytest.mark.parametrize(
    "lam,mu", [(math.inf, 3.0), (math.nan, 3.0), (3.0, math.inf), (3.0, math.nan)]
)
def test_params_reject_non_finite_rates(lam, mu):
    with pytest.raises(InvalidParameterError, match="finite"):
        QueueParams(lam=lam, mu=mu)


def test_erlang_c_single_server_is_rho():
    assert erlang_c_probability(QueueParams(1.0, 2.0, 1)) == pytest.approx(0.5, rel=1e-12)


def test_erlang_c_two_servers_hand_value():
    # rho = 1.5: tail = (1.125)/(0.25) = 4.5, partial = 1 + 1.5 -> 4.5/7
    c = erlang_c_probability(QueueParams(1.5, 1.0, 2))
    assert c == pytest.approx(4.5 / 7.0, rel=1e-12)


def test_erlang_c_vanishing_load():
    assert erlang_c_probability(QueueParams(1e-9, 1.0, 1)) < 1e-8


def test_instability_is_an_error():
    with pytest.raises(InstabilityError):
        erlang_c_probability(QueueParams(2.0, 1.0, 2))
    with pytest.raises(InstabilityError):
        mean_wait_in_queue(QueueParams(3.0, 1.0, 2))
    with pytest.raises(InstabilityError):
        simulate_mmc(QueueParams(1.0, 1.0, 1), 100, stream("x"))


@given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=1, max_value=16))
def test_erlang_c_in_unit_interval(util, c):
    p = QueueParams(lam=util * c, mu=1.0, servers=c)
    val = erlang_c_probability(p)
    assert 0.0 < val < 1.0


def test_erlang_c_monotone_in_lambda():
    prev = 0.0
    for lam in [0.2, 0.5, 1.0, 1.5, 1.9, 1.99]:
        val = erlang_c_probability(QueueParams(lam, 1.0, 2))
        assert val > prev
        prev = val


def test_mean_wait_hand_values():
    assert mean_wait_in_queue(QueueParams(1.0, 2.0, 1)) == pytest.approx(0.5, rel=1e-12)
    assert mean_wait_in_queue(QueueParams(1.5, 1.0, 2)) == pytest.approx(9.0 / 7.0, rel=1e-12)
    assert mean_wait_in_queue(QueueParams(1e-9, 1.0, 1)) < 1e-8


def test_mm1_closed_form_grid():
    # W_q must equal lambda/(mu(mu-lambda)) for c=1
    for lam in [0.1, 0.5, 1.0, 3.0]:
        for mu in [1.1 * lam, 2.0 * lam, 10.0 * lam]:
            got = mean_wait_in_queue(QueueParams(lam, mu, 1))
            want = lam / (mu * (mu - lam))
            assert got == pytest.approx(want, rel=1e-12)


def test_wait_diverges_near_saturation():
    near = mean_wait_in_queue(QueueParams(0.99 * 2, 1.0, 2))
    far = mean_wait_in_queue(QueueParams(0.90 * 2, 1.0, 2))
    assert near >= 5.0 * far


def test_large_c_no_overflow():
    p = QueueParams(lam=60.0, mu=1.0, servers=64)
    c_prob = erlang_c_probability(p)
    assert 0.0 < c_prob < 1.0
    assert math.isfinite(mean_wait_in_queue(p))


# ---- simulation oracle ---------------------------------------------------


def test_simulate_mm1_wait():
    wq, _ = simulate_mmc(QueueParams(1.0, 2.0, 1), 10**6, stream("mm1"))
    assert abs(wq - 0.5) < 0.01


def test_simulate_mm2_wait_probability():
    _, frac = simulate_mmc(QueueParams(1.5, 1.0, 2), 10**6, stream("mm2"))
    assert abs(frac - 4.5 / 7.0) < 0.01


def test_simulate_nearly_empty():
    wq, frac = simulate_mmc(QueueParams(0.001, 1.0, 1), 10**4, stream("mm0"))
    assert wq < 0.01
    assert frac < 0.01


def test_simulate_reproducible():
    a = simulate_mmc(QueueParams(2.0, 1.0, 4), 5000, stream("rep"))
    b = simulate_mmc(QueueParams(2.0, 1.0, 4), 5000, stream("rep"))
    assert a == b


@pytest.mark.parametrize("c,util", [(1, 0.6), (4, 0.6)])
def test_simulate_matches_closed_forms_spot(c, util):
    # quick sanity at reduced size; the tight 1e6-arrival grid runs in the
    # acceptance suite
    p = QueueParams(lam=util * c, mu=1.0, servers=c)
    wq, frac = simulate_mmc(p, 3 * 10**5, stream("grid", c, int(util * 10)))
    assert abs(wq - mean_wait_in_queue(p)) / mean_wait_in_queue(p) < 0.05
    assert abs(frac - erlang_c_probability(p)) < 0.03
