"""Tick-driven network simulation: N sensor nodes, one central server.

Each tick, every node offers a burst of packets.  A packet draws its own
channel realization (channel_models.channel_gain; block fading: one draw
reused by every leg and retry of that packet), the instantaneous SNR maps
to a per-leg success probability through a logistic threshold curve, and
the QoS handshake (qos_state_machine.handshake_legs) determines delivery
and the number of one-way legs consumed.  The validation commands check
those same two functions.  Delivered packets then queue FIFO at the
central server (one exponential server whose rate is the base hop's
service_rate), so end-to-end latency is

    legs_consumed * one_way + server_queue_wait

where one_way is the deterministic per-leg delay implied by the base hop
(propagation + transmission + processing + static queueing) and the
server wait is the dynamic, transient part that builds up under load.

Per tick, run_tick derives the Philox key of every (domain, node, tick)
substream it needs in one rng.philox_keys pass; each node then only
re-keys the run's one generator and draws.  The tick evaluates the channel
and the handshake once on those draws concatenated in (node, packet)
order, admits the delivered packets in arrival order and builds each
record once.

A run returns its per-packet records and nothing else; reporting owns
every summary of them (summarize_rtt, windowed_series), including the
running mean latency that compare_fading tabulates per fading kind.

Determinism: every random quantity comes from a substream keyed by
(domain, node, tick), so runs are bit-reproducible and adding a node
never perturbs existing nodes' draws.  Leg outcomes use inverse-CDF
geometric draws (one uniform per leg), which keeps draw alignment across
fading kinds in comparison runs: the same seed gives every kind the same
uniforms, coupling the runs for low-variance ordering.

Only per_packet_error_probability imports scipy (scipy.special.expit), so
a run on an ideal or lossless channel never loads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel_models import AwgnParams, RayleighParams, RicianParams, channel_gain
from .errors import InvalidConfigError, InvalidParameterError
from .qos_state_machine import MIN_LEGS, handshake_legs, handshake_rows, max_total_legs
from .queueing_model import QueueParams
from .reporting import mean_latency_so_far
from .rng import (
    DOMAIN_PACKET,
    DOMAIN_RATE_JITTER,
    DOMAIN_SERVER,
    RekeyableGenerator,
    philox_keys,
)
from .rtt_model import HopConfig, compute_rtt

PER_SLOPE_PER_DB = 1.0
RATE_JITTER_SPAN = (0.8, 1.2)

FadingParams = AwgnParams | RayleighParams | RicianParams | None
# each fading kind and the class of its fading_params ("none" takes None)
FADING_PARAMS = {
    "none": None,
    "awgn": AwgnParams,
    "rayleigh": RayleighParams,
    "rician": RicianParams,
}


def per_packet_error_probability(snr_linear, threshold_db: float):
    """Logistic SNR threshold model: PER = 1/(1 + exp(k*(snr_db - threshold_db))).

    Slope k is fixed at 1 per dB.  The model is length-independent, which
    keeps the loss knob a single calibration constant.
    Accepts scalar or array snr_linear (>= 0, inf allowed).
    """
    from scipy.special import expit

    snr = np.asarray(snr_linear, dtype=float)
    if np.any(snr < 0) or np.any(np.isnan(snr)):
        raise InvalidParameterError("snr_linear must be >= 0")
    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(snr)
    out = expit(PER_SLOPE_PER_DB * (threshold_db - snr_db))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SimulationConfig:
    node_count: int
    duration_s: float
    base_hop: HopConfig
    seed: int
    tick_s: float = 1.0
    fading: str = "none"
    fading_params: FadingParams = None
    noise_n0: float = 1.0
    qos_level: int = 2
    packets_per_node_per_tick: int = 1
    snr_threshold_db: float | None = None
    max_retries_per_leg: int = 8
    rate_jitter: bool = False
    rate_growth_per_tick: float = 0.0
    report_window_s: float = 5.0

    def __post_init__(self):
        if self.node_count < 1:
            raise InvalidConfigError(f"node_count must be >= 1, got {self.node_count}")
        if not 0 < self.duration_s < math.inf:
            raise InvalidConfigError(f"duration_s must be finite and > 0, got {self.duration_s}")
        if not self.tick_s > 0:
            raise InvalidConfigError(f"tick_s must be > 0, got {self.tick_s}")
        n = self.duration_s / self.tick_s
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise InvalidConfigError(
                f"duration_s must be a whole positive number of ticks, got {n:.6g}"
            )
        if self.qos_level not in MIN_LEGS:
            raise InvalidConfigError(f"qos_level must be 0, 1 or 2, got {self.qos_level}")
        if self.packets_per_node_per_tick < 0:
            raise InvalidConfigError("packets_per_node_per_tick must be >= 0")
        if self.max_retries_per_leg < 0:
            raise InvalidConfigError("max_retries_per_leg must be >= 0")
        if not 0 <= self.rate_growth_per_tick < math.inf:
            raise InvalidConfigError("rate_growth_per_tick must be finite and >= 0")
        try:
            self.rate_at_tick(self.n_ticks())
        except (OverflowError, ValueError):  # int(round()) of an inf or NaN rate
            raise InvalidConfigError("rate_growth_per_tick overflows the final rate") from None
        if not 0 < self.report_window_s < math.inf:
            raise InvalidConfigError("report_window_s must be finite and > 0")
        if self.snr_threshold_db is not None and not math.isfinite(self.snr_threshold_db):
            raise InvalidConfigError("snr_threshold_db must be finite or None")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfigError("seed must fit in 64 bits")
        if self.fading not in FADING_PARAMS:
            raise InvalidConfigError(
                f"fading must be one of {tuple(FADING_PARAMS)}, got {self.fading!r}"
            )
        wanted = FADING_PARAMS[self.fading] or type(None)
        if not isinstance(self.fading_params, wanted):
            raise InvalidConfigError(
                f"fading_params for kind {self.fading!r} must be {wanted.__name__}, "
                f"got {type(self.fading_params).__name__}"
            )
        if self.fading in ("rayleigh", "rician") and not 0 < self.noise_n0 < math.inf:
            raise InvalidConfigError(f"noise_n0 must be finite and > 0, got {self.noise_n0}")
        if self.handshake_guard_s() >= self.tick_s:
            raise InvalidConfigError(
                f"tick_s {self.tick_s} too short: worst-case handshake takes "
                f"{self.handshake_guard_s():.6g} s"
            )

    def n_ticks(self) -> int:
        return int(round(self.duration_s / self.tick_s))

    def one_way_s(self) -> float:
        """Deterministic per-leg delay implied by the base hop."""
        return compute_rtt([self.base_hop]).one_way()

    def server_mu(self) -> float:
        """Central-server service rate; the base hop's service_rate doubles
        as the capacity of the aggregation server."""
        return self.base_hop.service_rate

    def min_legs(self) -> int:
        return MIN_LEGS[self.qos_level]

    def max_total_legs(self) -> int:
        return max_total_legs(self.qos_level, self.max_retries_per_leg)

    def handshake_guard_s(self) -> float:
        """Worst-case handshake duration; sends are confined to
        [tick_start, tick_end - guard] so every packet resolves in its tick."""
        return self.max_total_legs() * self.one_way_s()

    def rate_at_tick(self, t: int) -> int:
        """Nominal per-node packet count for 1-based tick t (before jitter)."""
        grown = self.packets_per_node_per_tick * (1.0 + self.rate_growth_per_tick * (t - 1))
        return int(round(grown))

    def offered_rate_max(self) -> float:
        """Peak nominal offered rate over the run (last tick under growth)."""
        return self.node_count * self.rate_at_tick(self.n_ticks()) / self.tick_s


@dataclass
class PacketRecord:
    tick_start_s: float
    send_time_s: float
    attempts: int
    delivered: bool
    latency_s: float  # nan for a lost packet


@dataclass
class CentralServer:
    """Single FIFO exponential server; free_at persists across ticks."""

    free_at: float = 0.0

    def admit(self, arrival: float, service: float) -> float:
        """Queue one packet; returns its waiting time."""
        start = self.free_at if self.free_at > arrival else arrival
        self.free_at = start + service
        return start - arrival


@dataclass
class SimulationState:
    config: SimulationConfig
    server: CentralServer
    rng: RekeyableGenerator  # this run's own, re-keyed for every substream


@dataclass(frozen=True)
class SimulationResult:
    """Every packet record of a run, tick by tick; reporting.summarize_rtt
    and reporting.windowed_series summarize them."""

    records: list[PacketRecord]


def make_state(config: SimulationConfig) -> SimulationState:
    """Validate peak load against server capacity and set up run state."""
    if config.offered_rate_max() > 0:
        QueueParams(lam=config.offered_rate_max(), mu=config.server_mu()).require_stable()
    return SimulationState(config=config, server=CentralServer(), rng=RekeyableGenerator())


def _leg_success_prob(config: SimulationConfig, z: np.ndarray) -> np.ndarray:
    """Per-packet leg success probability from the channel draw.

    z is the packet's pair of standard normal quadrature draws; kinds that
    do not use them still consume them, keeping comparison runs aligned.
    """
    n = z.shape[1]
    if config.fading == "none":
        return np.ones(n)
    if config.fading == "awgn":
        snr = np.full(n, 1.0 / config.fading_params.n0)
    else:  # rayleigh, rician
        h = channel_gain(config.fading_params, z)
        snr = (h.real**2 + h.imag**2) / config.noise_n0
    if config.snr_threshold_db is None:
        return np.ones(n)
    return 1.0 - per_packet_error_probability(snr, config.snr_threshold_db)


def run_tick(state: SimulationState, t: int) -> list[PacketRecord]:
    """Advance one tick; returns the records of the packets sent in it,
    in (node, packet) order.

    Sends are jittered inside [tick_start, tick_end - guard], so every
    handshake finishes before the tick ends and server FIFO order across
    ticks is exact.
    """
    cfg = state.config
    if not 1 <= t <= cfg.n_ticks():
        raise InvalidParameterError(f"tick {t} outside 1..{cfg.n_ticks()}")
    tick_start = (t - 1) * cfg.tick_s
    span = cfg.tick_s - cfg.handshake_guard_s()
    leg_rows = handshake_rows(cfg.qos_level, cfg.max_retries_per_leg)
    base = cfg.rate_at_tick(t)
    if base == 0:
        return []

    # one key pass: keys[d][i] is the key of substream (domains[d], node i + 1, t)
    domains = [DOMAIN_PACKET, DOMAIN_SERVER]
    if cfg.rate_jitter:
        domains.append(DOMAIN_RATE_JITTER)
    spawn = np.broadcast_arrays(np.array(domains)[:, None], np.arange(1, cfg.node_count + 1), t)
    keys = philox_keys(cfg.seed, np.stack(spawn, axis=-1)).tolist()

    # each node draws from its own substreams; the tick evaluates them at once
    lo, hi = RATE_JITTER_SPAN
    mean_service = 1.0 / cfg.server_mu()
    u_send, z, leg_u, service = [], [], [], []
    for packet_key, server_key, *jitter_key in zip(*keys):
        n_pkts = base
        if jitter_key:
            u = state.rng.rekey(jitter_key[0]).random()
            n_pkts = int(round(base * (lo + (hi - lo) * u)))
        gen = state.rng.rekey(packet_key)
        u_send.append(gen.random(n_pkts))
        z.append(gen.standard_normal((2, n_pkts)))
        leg_u.append(gen.random((leg_rows, n_pkts)))
        service.append(state.rng.rekey(server_key).exponential(mean_service, n_pkts))

    p_leg = _leg_success_prob(cfg, np.concatenate(z, axis=1))
    delivered, legs = handshake_legs(
        cfg.qos_level, p_leg, np.concatenate(leg_u, axis=1), cfg.max_retries_per_leg
    )
    send = tick_start + np.concatenate(u_send) * span
    arrival = send + legs * cfg.one_way_s()

    # exact FIFO at the server: admit in arrival order; the stable sort keeps
    # (node, packet) order among equal arrivals
    sends = send.tolist()
    latency = [math.nan] * len(sends)
    queued = np.flatnonzero(delivered)
    queued = queued[np.argsort(arrival[queued], kind="stable")]
    for i, arrived, svc in zip(
        queued.tolist(), arrival[queued].tolist(), np.concatenate(service)[queued].tolist()
    ):
        latency[i] = (arrived - sends[i]) + state.server.admit(arrived, svc)

    return [
        PacketRecord(tick_start, s, legs_k, ok, lat)
        for s, legs_k, ok, lat in zip(sends, legs.tolist(), delivered.tolist(), latency)
    ]


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Run every tick."""
    state = make_state(config)
    return SimulationResult(
        records=[r for t in range(1, config.n_ticks() + 1) for r in run_tick(state, t)]
    )


@dataclass(frozen=True)
class FadingSpec:
    """One column of a comparison run."""

    label: str
    fading: str
    fading_params: FadingParams = None
    noise_n0: float | None = None


def compare_fading(
    base: SimulationConfig, kinds: list[FadingSpec], sample_times: list[float]
) -> np.ndarray:
    """Average latency so far, in ms, per fading kind at each sample time.

    Returns a (sample times x kinds) array, NaN where no packet of that
    kind was delivered yet; reporting.mean_latency_so_far computes each
    column.

    All kinds run from the same seed, so they share per-packet draws
    (send jitter, channel normals, leg uniforms, service times); the
    columns differ only through each kind's channel, which makes the
    comparison nearly paired rather than independent.
    """
    if not kinds:
        raise InvalidConfigError("kinds must be nonempty")
    labels = [k.label for k in kinds]
    if len(set(labels)) != len(labels):
        raise InvalidConfigError(f"duplicate kind labels: {labels}")
    if not sample_times:
        raise InvalidConfigError("sample_times must be nonempty")
    if sorted(sample_times) != list(sample_times):
        raise InvalidConfigError("sample_times must be ascending")
    for t in sample_times:
        if not 0 < t <= base.duration_s:
            raise InvalidConfigError(
                f"sample time {t} outside (0, {base.duration_s}]"
            )

    columns = []
    for spec in kinds:
        cfg = replace(
            base,
            fading=spec.fading,
            fading_params=spec.fading_params,
            noise_n0=spec.noise_n0 if spec.noise_n0 is not None else base.noise_n0,
        )
        columns.append(mean_latency_so_far(run_simulation(cfg).records, sample_times))
    return np.array(columns, dtype=float).T  # an idle cell's None becomes NaN
