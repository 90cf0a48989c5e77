"""MQTT QoS delivery semantics.

The exactly-once (QoS 2) handshake is a four-leg chain
PUBLISH -> PUBREC -> PUBREL -> PUBCOMP.  A failed leg is retried up to
max_retries times; a leg that exhausts its budget loses the packet.
QoS 0 (fire and forget, one leg) and QoS 1 (PUBLISH+PUBACK, retried
until both legs of one attempt succeed) are the baselines.

handshake_legs is the one implementation of these rules: the simulator
runs it per chunk, and the tests call it directly.
reliability is the closed form of the chain with per-leg success
probabilities alpha, beta, gamma, delta, and reliability_monte_carlo
samples the process that closed form describes: all four legs drawn at
once and redrawn whole when all four fail, which is not the per-leg
retry process handshake_legs runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .rng import RngStream

N_LEGS = 4
# reliability_monte_carlo redraws a run until a leg succeeds, 1/(1 - prod(1-p))
# rounds on average: at this bound the CLI's 200k runs loop ~12k rounds (~10 s
# on a 2-vCPU host); p = 1e-9 on every leg would average ~2.5e8 per run
MAX_EXPECTED_ROUNDS = 1000


@dataclass(frozen=True)
class QoSChainParams:
    """Per-leg success probabilities of the four-leg handshake."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name, p in zip(("alpha", "beta", "gamma", "delta"), self.legs()):
            if not (0.0 <= p <= 1.0):
                raise InvalidParameterError(f"{name} must be in [0,1], got {p}")

    def legs(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    @classmethod
    def uniform(cls, p: float) -> "QoSChainParams":
        """All four legs sharing one success probability."""
        return cls(p, p, p, p)


# legs of one complete handshake at each QoS level: the fewest a delivery takes
MIN_LEGS = {0: 1, 1: 2, 2: N_LEGS}


def _check_level(level: int) -> None:
    if level not in MIN_LEGS:
        raise InvalidParameterError(f"QoS level must be 0, 1 or 2, got {level}")


def max_total_legs(level: int, max_retries: int) -> int:
    """Most legs one packet can consume; QoS 0 sends once and never retries."""
    _check_level(level)
    return 1 if level == 0 else MIN_LEGS[level] * (max_retries + 1)


def handshake_rows(level: int, max_retries: int) -> int:
    """Uniforms handshake_legs consumes per packet at this QoS level."""
    _check_level(level)
    # QoS 1 draws every leg of every attempt; QoS 2 inverts one geometric per leg
    return MIN_LEGS[level] * (max_retries + 1) if level == 1 else MIN_LEGS[level]


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
    _check_level(level)
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
    # QoS 2: four legs, each a capped geometric number of attempts, all
    # four in one pass over the (4, n) array.  p <= 0 takes log1p(-p) as
    # -0.0, so its ratios are +inf or NaN, and NaN means an exhausted budget
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = np.where(p <= 0.0, -0.0, np.log1p(-p))  # -inf at p=1
        ratio = np.log1p(-leg_u) / denom
    # capped before the integer cast: a tiny p gives a ratio past the int64 range
    trials = np.maximum(np.fmin(np.ceil(ratio), budget + 1), 1.0).astype(np.int64)
    # alive[i]: legs 0..i all within budget, so leg i + 1 is sent; three row
    # ands, as logical_and.accumulate along axis 0 is several times slower
    alive = trials <= budget
    for i in range(1, N_LEGS):
        alive[i] &= alive[i - 1]
    consumed = np.minimum(trials, budget)
    legs = consumed[0] + (consumed[1:] * alive[:-1]).sum(axis=0)
    return alive[-1].copy(), legs  # a copy, so the records do not keep the (4, n) mask


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
    a*b*g*d / (1 - (1-a)(1-b)(1-g)(1-d)).  A chain whose runs would
    average more than MAX_EXPECTED_ROUNDS rounds raises DomainError.
    """
    if n_runs < 1:
        raise InvalidParameterError("n_runs must be >= 1")
    p_legs = np.array(params.legs())
    ends = 1.0 - float(np.prod(1.0 - p_legs))  # chance a round is not redrawn
    if ends * MAX_EXPECTED_ROUNDS < 1.0:  # the all-zero chain included
        raise DomainError(
            f"Monte Carlo refused: a round ends a run with probability {ends:.3g}, "
            f"so a run would average over {MAX_EXPECTED_ROUNDS} rounds"
        )
    gen = rng.gen
    delivered = 0
    active = n_runs
    while active:
        draws = gen.random((active, N_LEGS)) < p_legs
        hits = draws.sum(axis=1)
        delivered += int(np.count_nonzero(hits == N_LEGS))
        active = int(np.count_nonzero(hits == 0))
    return delivered / n_runs
