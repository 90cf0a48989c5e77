"""MQTT QoS delivery semantics.

The exactly-once (QoS 2) handshake is a four-leg chain
PUBLISH -> PUBREC -> PUBREL -> PUBCOMP.  A failed leg is retried up to
max_retries times; a leg that exhausts its budget loses the packet.
QoS 0 (fire and forget, one leg) and QoS 1 (PUBLISH+PUBACK, retried
until both legs of one attempt succeed) are the baselines.

handshake_legs is the one implementation of these rules: the simulator
runs it per tick, and the validation checks call it directly.
reliability is the closed form of the chain with per-leg success
probabilities alpha, beta, gamma, delta, and reliability_monte_carlo
samples the process that closed form describes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .rng import RngStream

N_LEGS = 4


@dataclass(frozen=True)
class QoSChainParams:
    """Per-leg success probabilities of the four-leg handshake."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name, p in self.as_dict().items():
            if not (0.0 <= p <= 1.0):
                raise InvalidParameterError(f"{name} must be in [0,1], got {p}")

    def as_dict(self) -> dict[str, float]:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma, "delta": self.delta}

    def legs(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @classmethod
    def uniform(cls, p: float) -> "QoSChainParams":
        """All four legs sharing one success probability."""
        return cls(p, p, p, p)


def handshake_rows(level: int, max_retries: int) -> int:
    """Uniforms handshake_legs consumes per packet at this QoS level."""
    if level not in (0, 1, 2):
        raise InvalidParameterError(f"QoS level must be 0, 1 or 2, got {level}")
    budget = max_retries + 1
    return {0: 1, 1: 2 * budget, 2: 4}[level]


def handshake_legs(
    level: int, p: np.ndarray, leg_u: np.ndarray, max_retries: int
) -> tuple[np.ndarray, np.ndarray]:
    """(delivered, legs consumed) for a batch of packets.

    p holds each packet's per-leg success probability and leg_u its
    handshake_rows(level, max_retries) uniforms, one column per packet.
    Legs are drawn by inverting the geometric CDF, one uniform per leg,
    which matches the per-trial Bernoulli retry loop in distribution
    while consuming a fixed number of draws per packet.
    """
    n = p.shape[0]
    budget = max_retries + 1
    if level == 0:
        return leg_u[0] < p, np.ones(n, dtype=np.int64)
    if level == 1:
        alive = np.ones(n, dtype=bool)
        delivered = np.zeros(n, dtype=bool)
        legs = np.zeros(n, dtype=np.int64)
        for k in range(budget):
            pub = leg_u[2 * k] < p
            ack = leg_u[2 * k + 1] < p
            legs[alive] += 2
            delivered |= alive & pub
            alive &= ~(pub & ack)
        return delivered, legs
    # QoS 2: four legs, each a capped geometric number of attempts
    alive = np.ones(n, dtype=bool)
    legs = np.zeros(n, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = np.log1p(-p)  # -inf at p=1, 0 at p=0
        for i in range(4):
            ratio = np.log1p(-leg_u[i]) / denom
            # capped before the integer cast: a tiny p gives a ratio past
            # the int64 range (or inf), and NaN also means an exhausted budget
            trials = np.fmin(np.ceil(ratio), budget + 1)
            trials = np.maximum(trials, 1.0)
            trials = np.where(p <= 0.0, budget + 1, trials).astype(np.int64)
            consumed = np.minimum(trials, budget)
            legs[alive] += consumed[alive]
            alive &= trials <= budget
    return alive, legs


def reliability(params: QoSChainParams) -> float:
    """Closed-form probability that the handshake completes.

    R = (a*b*g*d) / (1 - (1-a)(1-b)(1-g)(1-d)); undefined when all four
    probabilities are zero (denominator vanishes).
    """
    a, b, g, d = params.legs()
    denom = 1.0 - (1.0 - a) * (1.0 - b) * (1.0 - g) * (1.0 - d)
    if denom <= 0.0:
        raise DomainError("reliability undefined: all leg probabilities are zero")
    return (a * b * g * d) / denom


def reliability_monte_carlo(params: QoSChainParams, n_runs: int, rng: RngStream) -> float:
    """Monte-Carlo estimate of the closed-form reliability.

    Samples the process the closed form describes: draw all four legs;
    all succeed -> delivered, all fail -> redraw, mixed -> lost.  The
    success probability of this process is exactly
    a*b*g*d / (1 - (1-a)(1-b)(1-g)(1-d)).
    """
    if n_runs < 1:
        raise InvalidParameterError("n_runs must be >= 1")
    p_legs = np.array(params.legs())
    if np.all(p_legs == 0.0):
        raise DomainError("reliability undefined: all leg probabilities are zero")
    gen = rng.gen
    delivered = 0
    active = n_runs
    while active:
        draws = gen.random((active, N_LEGS)) < p_legs
        hits = draws.sum(axis=1)
        delivered += int(np.count_nonzero(hits == N_LEGS))
        active = int(np.count_nonzero(hits == 0))
    return delivered / n_runs
