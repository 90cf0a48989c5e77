"""M/M/c broker-queue analytics plus a discrete-event simulation oracle.

The analytic pair is the standard Erlang-C waiting probability C(c, rho)
and W_q = C/(c*mu - lambda); simulate_mmc checks both by simulation.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InstabilityError, InvalidParameterError
from .rng import RngStream

WARMUP_FRACTION = 0.1
# erlang_c_probability refuses an offered load rho above this many Erlangs:
# past ~708 it runs the Erlang B recursion, about rho + 40*sqrt(rho) steps
# until B underflows (~0.25 s at the bound on a 2-vCPU host); rho = 5e8 would
# loop ~2 minutes
MAX_ERLANG_LOAD = 10**6


@dataclass(frozen=True)
class QueueParams:
    """Arrival rate lam, per-server service rate mu, c parallel servers."""

    lam: float
    mu: float
    servers: int = 1

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise InvalidParameterError(f"lam must be finite and > 0, got {self.lam}")
        if not 0 < self.mu < math.inf:
            raise InvalidParameterError(f"mu must be finite and > 0, got {self.mu}")
        if self.servers < 1:
            raise InvalidParameterError(f"servers must be >= 1, got {self.servers}")

    @property
    def rho(self) -> float:
        return self.lam / self.mu

    def require_stable(self) -> None:
        if self.rho >= self.servers:
            raise InstabilityError(
                f"instability: offered load rho={self.rho:.6g} must be below servers={self.servers}"
            )


def _poisson_terms(rho: float, c: int) -> tuple[float, float]:
    """(sum of rho^k/k! for k < c, rho^c/c!), built iteratively.

    The loop stops once a term underflows to 0.0 (every later term is 0.0
    too) or overflows to inf (the caller then takes _erlang_b_to_c).
    """
    term = 1.0
    acc = 0.0
    for k in range(c):
        acc += term
        term *= rho / (k + 1)
        if not 0.0 < term < math.inf:
            break
    return acc, term


def _erlang_b_to_c(rho: float, c: int) -> float:
    """C(c, rho) from the Erlang B recursion, which never overflows.

    B(k) = rho*B(k-1)/(k + rho*B(k-1)) from B(0) = 1, then
    C = c*B/(c - rho*(1 - B)).  Once B underflows to 0.0 it stays there.
    """
    b = 1.0
    for k in range(1, c + 1):
        b = rho * b / (k + rho * b)
        if b == 0.0:
            break
    return c * b / (c - rho * (1.0 - b))


def erlang_c_probability(params: QueueParams) -> float:
    """Probability an arrival must wait: C(c, rho).

    Sums the Poisson terms directly (perfbench's model_validation digest
    pins those values bit for bit); a load whose terms overflow the float
    range (rho above about 708) goes through the Erlang B recursion instead.
    A load above MAX_ERLANG_LOAD Erlangs raises DomainError.
    """
    params.require_stable()
    c, rho = params.servers, params.rho
    if rho > MAX_ERLANG_LOAD:
        raise DomainError(
            f"Erlang C refused: offered load rho={rho:.6g} is above {MAX_ERLANG_LOAD} Erlangs"
        )
    partial, top = _poisson_terms(rho, c)
    tail = top / (1.0 - rho / c)
    if math.isinf(partial + tail):
        return _erlang_b_to_c(rho, c)
    return tail / (partial + tail)


def mean_wait_in_queue(params: QueueParams) -> float:
    """Mean queueing delay W_q = C(c, rho) / (c*mu - lambda), seconds."""
    params.require_stable()
    return erlang_c_probability(params) / (params.servers * params.mu - params.lam)


def simulate_mmc(
    params: QueueParams, arrivals: int, rng: RngStream
) -> tuple[float, float]:
    """Event-driven M/M/c oracle: (mean wait, fraction of arrivals that wait).

    Poisson arrivals, exponential service, c FIFO servers.  The first 10%
    of arrivals are discarded as warm-up.
    """
    params.require_stable()
    if arrivals < 1:
        raise InvalidParameterError(f"arrivals must be >= 1, got {arrivals}")
    gen = rng.gen
    t_arrive = np.cumsum(gen.exponential(1.0 / params.lam, arrivals))
    service = gen.exponential(1.0 / params.mu, arrivals)

    # FIFO: each arrival takes the server that frees first (a heap's root)
    free_at = [0.0] * params.servers
    waits = []
    for t, s in zip(t_arrive.tolist(), service.tolist()):
        earliest = free_at[0]
        start = earliest if earliest > t else t
        waits.append(start - t)
        heapq.heapreplace(free_at, start + s)

    kept = np.array(waits[int(arrivals * WARMUP_FRACTION):])
    return float(kept.mean()), float(np.count_nonzero(kept > 0.0) / kept.size)
