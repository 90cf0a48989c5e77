"""Multi-hop round-trip-time evaluation with per-hop term breakdown.

total = 2 * sum_i(d_i/v_i + (L_i/R_i)*h_i + P_i + h_i/(mu_i - lambda_i))
        + sum_i T_i/(1 - p_i)

The per-hop weight h_i multiplies both the transmission and queueing
terms (and only those two); it defaults to 1.  All values are SI
seconds internally.  Sums run left to right from 0.0, the same bits on
every Python (the builtin sum is compensated since CPython 3.12).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InstabilityError, InvalidParameterError


@dataclass(frozen=True)
class HopConfig:
    """One hop of the path; see module docstring for the term each field feeds."""

    distance: float  # d_i, meters
    propagation_speed: float  # v_i, m/s
    packet_length: float  # L_i, bits
    link_rate: float  # R_i, bits/s
    hop_weight: float = 1.0  # h_i, dimensionless
    processing_delay: float = 0.0  # P_i, seconds
    arrival_rate: float = 1.0  # lambda_i, packets/s
    service_rate: float = 2.0  # mu_i, packets/s
    loss_prob: float = 0.0  # p_i in [0, 1)
    retx_base: float = 0.0  # T_i, seconds

    def __post_init__(self):
        for name in ("propagation_speed", "link_rate", "arrival_rate", "service_rate"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise InvalidParameterError(f"{name} must be > 0, got {v}")
        for name in ("distance", "packet_length", "hop_weight", "processing_delay", "retx_base"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise InvalidParameterError(f"{name} must be >= 0, got {v}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise InvalidParameterError(f"loss_prob must be in [0,1), got {self.loss_prob}")
        if self.service_rate <= self.arrival_rate:
            raise InstabilityError(
                f"instability: hop service_rate {self.service_rate} must exceed "
                f"arrival_rate {self.arrival_rate}"
            )


@dataclass(frozen=True)
class HopTerms:
    """One hop's delay contributions, seconds."""

    propagation: float
    transmission: float
    processing: float
    queueing: float
    retransmission: float


@dataclass(frozen=True)
class RttBreakdown:
    hops: tuple[HopTerms, ...]
    total: float
    one_way: float  # one direction of the two-way part, without retransmission


def compute_rtt(hops: list[HopConfig]) -> RttBreakdown:
    """Evaluate the round trip term by term over an ordered hop list."""
    terms = []
    one_way = retx = 0.0
    for hop in hops:
        t = HopTerms(
            propagation=hop.distance / hop.propagation_speed,
            transmission=(hop.packet_length / hop.link_rate) * hop.hop_weight,
            processing=hop.processing_delay,
            queueing=hop.hop_weight / (hop.service_rate - hop.arrival_rate),
            retransmission=hop.retx_base / (1.0 - hop.loss_prob),
        )
        terms.append(t)
        one_way += t.propagation + t.transmission + t.processing + t.queueing
        retx += t.retransmission
    return RttBreakdown(hops=tuple(terms), total=2.0 * one_way + retx, one_way=one_way)

