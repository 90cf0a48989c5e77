"""Erlang-C closed forms against hand values and the discrete-event oracle."""
import math
import time

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
    assert erlang_c_probability(QueueParams(1.0, 2.0, 1)) == 0.5


def test_erlang_c_two_servers_hand_value():
    # rho = 1.5: tail = (1.125)/(0.25) = 4.5, partial = 1 + 1.5 -> 4.5/7
    assert erlang_c_probability(QueueParams(1.5, 1.0, 2)) == 4.5 / 7.0


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
    assert mean_wait_in_queue(QueueParams(1.0, 2.0, 1)) == 0.5
    assert mean_wait_in_queue(QueueParams(1.5, 1.0, 2)) == 9.0 / 7.0
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


def _erlang_c_direct(rho, c):
    """C(c, rho) from the plain Poisson-term sum, the form used below ~708 Erlangs."""
    term, acc = 1.0, 0.0
    for k in range(c):
        acc += term
        term *= rho / (k + 1)
    tail = term / (1.0 - rho / c)
    return tail / (acc + tail)


def test_erlang_c_equals_the_direct_sum_bit_for_bit():
    # wherever the direct sum stays in the float range, the result is its value
    checked = 0
    for rho in [1e-6, 0.3, 0.9, 2.5, 7.0, 31.0, 99.5, 250.0, 512.0, 690.0, 700.0, 705.5]:
        for extra in [1, 2, 5, 17, 60, 200, 600]:
            c = math.floor(rho) + extra
            want = _erlang_c_direct(rho, c)
            if math.isfinite(want):
                assert erlang_c_probability(QueueParams(rho, 1.0, c)) == want, (rho, c)
                checked += 1
    assert checked >= 80


@pytest.mark.parametrize(
    "lam,mu,servers",
    # the direct sum overflows on all four; it gave nan, nan, nan and 0.0
    [(1000.0, 1.0, 1001), (720.0, 1.0, 730), (5000.0, 1.0, 5100), (709.0, 1.0, 714)],
)
def test_erlang_c_overflowing_loads_match_mpmath(lam, mu, servers):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        rho = mpmath.mpf(lam) / mpmath.mpf(mu)
        partial = mpmath.fsum(rho**k / mpmath.factorial(k) for k in range(servers))
        tail = rho**servers / mpmath.factorial(servers) / (1 - rho / servers)
        want = float(tail / (partial + tail))
    got = erlang_c_probability(QueueParams(lam, mu, servers))
    assert 0.0 < got < 1.0
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert math.isfinite(mean_wait_in_queue(QueueParams(lam, mu, servers)))


def test_erlang_c_stops_once_the_terms_underflow():
    # a billion servers: the terms reach 0.0 within a few hundred steps
    t0 = time.perf_counter()
    assert erlang_c_probability(QueueParams(1.0, 2.0, 10**9)) == 0.0
    assert time.perf_counter() - t0 < 1.0


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
