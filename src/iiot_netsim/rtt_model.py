"""Multi-hop round-trip-time evaluation with per-hop term breakdown.

total = 2 * sum_i(d_i/v_i + (L_i/R_i)*h_i + P_i + h_i/(mu_i - lambda_i))
        + sum_i T_i/(1 - p_i)

The per-hop weight h_i multiplies both the transmission and queueing
terms (and only those two); it defaults to 1.  All values are SI
seconds internally.  Sums run left to right from 0.0, the same bits on
every Python (the builtin sum is compensated since CPython 3.12).

Only calibrate_to_target imports scipy (scipy.optimize.brentq).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InstabilityError, InvalidParameterError, UnreachableTargetError

CALIBRATION_REL_TOL = 1e-3

# fields where scaling up strictly raises the total, and where it lowers it
_INCREASING_FIELDS = ("distance", "packet_length", "processing_delay", "retx_base", "hop_weight")
_DECREASING_FIELDS = ("propagation_speed", "link_rate")


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


def _scaled(hops: list[HopConfig], field: str, references: list[float], s: float) -> list[HopConfig]:
    return [replace(hop, **{field: s * ref}) for hop, ref in zip(hops, references)]


def calibrate_to_target(
    hops: list[HopConfig], target_rtt: float, free_param: str
) -> list[HopConfig]:
    """Scale one field across all hops so the total hits target_rtt.

    The field is multiplied by a common factor found by bracketed root
    solving; the result is within 0.1% of the target.  A field that is
    zero on every hop is calibrated in absolute value instead (the factor
    applies to one SI unit), so e.g. processing delay can be introduced
    from scratch.  arrival_rate, service_rate and loss_prob cannot be
    used: scaling them can violate hop invariants.
    """
    if free_param in _INCREASING_FIELDS:
        increasing = True
    elif free_param in _DECREASING_FIELDS:
        increasing = False
    else:
        valid = _INCREASING_FIELDS + _DECREASING_FIELDS
        raise InvalidParameterError(
            f"free_param must be one of {valid}, got {free_param!r}"
        )
    if not (target_rtt > 0 and math.isfinite(target_rtt)):
        raise InvalidParameterError(f"target_rtt must be > 0, got {target_rtt}")
    if not hops:
        raise UnreachableTargetError("cannot calibrate an empty hop list")

    current = compute_rtt(hops).total
    if abs(current - target_rtt) <= CALIBRATION_REL_TOL * target_rtt:
        return list(hops)

    values = [getattr(h, free_param) for h in hops]
    if increasing and all(v == 0.0 for v in values):
        references = [1.0] * len(hops)
    else:
        references = values
        if not increasing and any(v <= 0.0 for v in values):
            raise InvalidParameterError(f"{free_param} must be > 0 on every hop to calibrate")

    def gap(s: float) -> float:
        return compute_rtt(_scaled(hops, free_param, references, s)).total - target_rtt

    # bracket around s=1 by doubling outward
    lo = hi = 1.0
    for _ in range(80):
        if gap(lo) * gap(hi) <= 0.0:
            break
        lo /= 2.0
        hi *= 2.0
    else:
        raise UnreachableTargetError(
            f"unreachable-target: no {free_param} scale reaches {target_rtt:.6g} s"
        )
    if increasing and gap(0.0) > 0.0:
        raise UnreachableTargetError(
            f"unreachable-target: {target_rtt:.6g} s is below the floor with {free_param}=0"
        )
    if increasing and gap(lo) > 0.0:
        lo = 0.0

    from scipy import optimize

    s_star = optimize.brentq(gap, lo, hi, xtol=1e-15, rtol=1e-12)
    out = _scaled(hops, free_param, references, s_star)
    achieved = compute_rtt(out).total
    if abs(achieved - target_rtt) > CALIBRATION_REL_TOL * target_rtt:
        raise UnreachableTargetError(
            f"unreachable-target: best {free_param} scale lands at {achieved:.6g} s"
        )
    return out
