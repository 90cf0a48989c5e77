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

Determinism: every random quantity comes from a substream keyed by
(domain, node, tick), so runs are bit-reproducible and adding a node
never perturbs existing nodes' draws.  Leg outcomes use inverse-CDF
geometric draws (one uniform per leg), which keeps draw alignment across
fading kinds in comparison runs: the same seed gives every kind the same
uniforms, coupling the runs for low-variance ordering.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .channel_models import AwgnParams, RayleighParams, RicianParams, channel_gain
from .errors import InvalidConfigError, InvalidParameterError
from .qos_state_machine import handshake_legs, handshake_rows
from .queueing_model import QueueParams
from .reporting import IntervalReport, latency_stats, windowed_series
from .rng import DOMAIN_PACKET, DOMAIN_RATE_JITTER, DOMAIN_SERVER, RngStream
from .rtt_model import HopConfig, compute_rtt

FADING_KINDS = ("none", "awgn", "rayleigh", "rician")
PER_SLOPE_PER_DB = 1.0
RATE_JITTER_SPAN = (0.8, 1.2)

FadingParams = AwgnParams | RayleighParams | RicianParams | None

_MIN_LEGS = {0: 1, 1: 2, 2: 4}


def per_packet_error_probability(snr_linear, packet_length: float, threshold_db: float):
    """Logistic SNR threshold model: PER = 1/(1 + exp(k*(snr_db - threshold_db))).

    Slope k is fixed at 1 per dB.  The model is length-independent; the
    packet_length argument is validated but does not enter the curve,
    which keeps the loss knob a single calibration constant.
    Accepts scalar or array snr_linear (>= 0, inf allowed).
    """
    snr = np.asarray(snr_linear, dtype=float)
    if np.any(snr < 0) or np.any(np.isnan(snr)):
        raise InvalidParameterError("snr_linear must be >= 0")
    if packet_length < 1:
        raise InvalidParameterError(f"packet_length must be >= 1, got {packet_length}")
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
        if not self.duration_s > 0:
            raise InvalidConfigError(f"duration_s must be > 0, got {self.duration_s}")
        if not self.tick_s > 0:
            raise InvalidConfigError(f"tick_s must be > 0, got {self.tick_s}")
        n = self.duration_s / self.tick_s
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise InvalidConfigError(
                f"duration_s must be a whole positive number of ticks, got {n:.6g}"
            )
        if self.qos_level not in (0, 1, 2):
            raise InvalidConfigError(f"qos_level must be 0, 1 or 2, got {self.qos_level}")
        if self.packets_per_node_per_tick < 0:
            raise InvalidConfigError("packets_per_node_per_tick must be >= 0")
        if self.max_retries_per_leg < 0:
            raise InvalidConfigError("max_retries_per_leg must be >= 0")
        if not (math.isfinite(self.rate_growth_per_tick) and self.rate_growth_per_tick >= 0):
            raise InvalidConfigError("rate_growth_per_tick must be finite and >= 0")
        if not self.report_window_s > 0:
            raise InvalidConfigError("report_window_s must be > 0")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfigError("seed must fit in 64 bits")
        if self.fading not in FADING_KINDS:
            raise InvalidConfigError(
                f"fading must be one of {FADING_KINDS}, got {self.fading!r}"
            )
        wanted = {
            "none": type(None),
            "awgn": AwgnParams,
            "rayleigh": RayleighParams,
            "rician": RicianParams,
        }[self.fading]
        if not isinstance(self.fading_params, wanted):
            raise InvalidConfigError(
                f"fading_params for kind {self.fading!r} must be {wanted.__name__}, "
                f"got {type(self.fading_params).__name__}"
            )
        if self.fading in ("rayleigh", "rician") and not self.noise_n0 > 0:
            raise InvalidConfigError(f"noise_n0 must be > 0, got {self.noise_n0}")
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
        return _MIN_LEGS[self.qos_level]

    def max_total_legs(self) -> int:
        budget = self.max_retries_per_leg + 1
        return {0: 1, 1: 2 * budget, 2: 4 * budget}[self.qos_level]

    def handshake_guard_s(self) -> float:
        """Worst-case handshake duration; sends are confined to
        [tick_start, tick_end - guard] so every packet resolves in its tick."""
        return self.max_total_legs() * self.one_way_s()

    def rate_at_tick(self, t: int) -> int:
        """Nominal per-node packet count for 1-based tick t (before jitter)."""
        grown = self.packets_per_node_per_tick * (1.0 + self.rate_growth_per_tick * (t - 1))
        return int(round(grown))

    def offered_rate(self) -> float:
        return self.node_count * self.packets_per_node_per_tick / self.tick_s

    def offered_rate_max(self) -> float:
        """Peak nominal offered rate over the run (last tick under growth)."""
        return self.node_count * self.rate_at_tick(self.n_ticks()) / self.tick_s


@dataclass
class PacketRecord:
    node: int
    tick: int
    pkt: int
    tick_start_s: float
    send_time_s: float
    attempts: int
    delivered: bool
    latency_s: float  # nan while undelivered


@dataclass
class SensorNode:
    """One traffic source."""

    id: int

    def packets_for_tick(self, config: SimulationConfig, root: RngStream, tick: int) -> int:
        base = config.rate_at_tick(tick)
        if not config.rate_jitter or base == 0:
            return base
        u = root.child(DOMAIN_RATE_JITTER, self.id, tick).gen.random()
        lo, hi = RATE_JITTER_SPAN
        return int(round(base * (lo + (hi - lo) * u)))


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
    root: RngStream
    nodes: list[SensorNode]
    server: CentralServer
    records: list[PacketRecord] = field(default_factory=list)


@dataclass(frozen=True)
class SimulationSummary:
    sent: int
    delivered: int
    lost: int
    min_latency_s: float | None
    avg_latency_s: float | None
    max_latency_s: float | None


@dataclass(frozen=True)
class SimulationResult:
    tick_reports: list[IntervalReport]
    summary: SimulationSummary
    records: list[PacketRecord]


def make_state(config: SimulationConfig) -> SimulationState:
    """Validate peak load against server capacity and set up run state."""
    if config.offered_rate_max() > 0:
        QueueParams(lam=config.offered_rate_max(), mu=config.server_mu()).require_stable()
    return SimulationState(
        config=config,
        root=RngStream(config.seed),
        nodes=[SensorNode(id=i) for i in range(1, config.node_count + 1)],
        server=CentralServer(),
    )


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
    per = per_packet_error_probability(
        snr, config.base_hop.packet_length, config.snr_threshold_db
    )
    return 1.0 - per


def run_tick(state: SimulationState, t: int) -> IntervalReport:
    """Advance one tick; returns the tick's aggregate fragment.

    Sends are jittered inside [tick_start, tick_end - guard], so every
    handshake finishes before the tick ends and server FIFO order across
    ticks is exact.
    """
    cfg = state.config
    if not 1 <= t <= cfg.n_ticks():
        raise InvalidParameterError(f"tick {t} outside 1..{cfg.n_ticks()}")
    tick_start = (t - 1) * cfg.tick_s
    one_way = cfg.one_way_s()
    span = cfg.tick_s - cfg.handshake_guard_s()
    leg_rows = handshake_rows(cfg.qos_level, cfg.max_retries_per_leg)

    tick_records: list[PacketRecord] = []
    queued = []  # (arrival, node_id, pkt, record) for delivered packets
    for node in state.nodes:
        n_pkts = node.packets_for_tick(cfg, state.root, t)
        if n_pkts == 0:
            continue
        gen = state.root.child(DOMAIN_PACKET, node.id, t).gen
        u_send = gen.random(n_pkts)
        z = gen.standard_normal((2, n_pkts))
        leg_u = gen.random((leg_rows, n_pkts))
        service = state.root.child(DOMAIN_SERVER, node.id, t).gen.exponential(
            1.0 / cfg.server_mu(), n_pkts
        )

        p_leg = _leg_success_prob(cfg, z)
        delivered, legs = handshake_legs(cfg.qos_level, p_leg, leg_u, cfg.max_retries_per_leg)
        send = tick_start + u_send * span
        travel = legs * one_way

        for k in range(n_pkts):
            rec = PacketRecord(
                node=node.id,
                tick=t,
                pkt=k,
                tick_start_s=tick_start,
                send_time_s=float(send[k]),
                attempts=int(legs[k]),
                delivered=bool(delivered[k]),
                latency_s=math.nan,
            )
            tick_records.append(rec)
            if rec.delivered:
                queued.append((float(send[k] + travel[k]), node.id, k, float(service[k]), rec))

    # exact FIFO at the server: admit in global arrival order
    queued.sort(key=lambda item: (item[0], item[1], item[2]))
    for arrival, _node, _pkt, svc, rec in queued:
        wait = state.server.admit(arrival, svc)
        rec.latency_s = (arrival - rec.send_time_s) + wait

    state.records.extend(tick_records)
    lat_ms = [r.latency_s * 1e3 for r in tick_records if r.delivered]
    n_sent = len(tick_records)
    n_del = len(lat_ms)
    lo, avg, hi = latency_stats(lat_ms)
    return IntervalReport(
        window_start_s=tick_start,
        window_len_s=cfg.tick_s,
        sent=n_sent,
        delivered=n_del,
        lost=n_sent - n_del,
        throughput_bps=n_del * cfg.base_hop.packet_length / cfg.tick_s,
        avg_latency_ms=avg,
        min_latency_ms=lo,
        max_latency_ms=hi,
    )


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Run every tick, then summarize."""
    state = make_state(config)
    tick_reports = [run_tick(state, t) for t in range(1, config.n_ticks() + 1)]
    lat = [r.latency_s for r in state.records if r.delivered]
    sent = len(state.records)
    lo, avg, hi = latency_stats(lat)
    summary = SimulationSummary(
        sent=sent,
        delivered=len(lat),
        lost=sent - len(lat),
        min_latency_s=lo,
        avg_latency_s=avg,
        max_latency_s=hi,
    )
    return SimulationResult(tick_reports=tick_reports, summary=summary, records=state.records)


def traffic_loopback(
    config: SimulationConfig, window: float, aggregate_rate: float = 300.0
) -> list[IntervalReport]:
    """Capacity-check profile: perfect channel at a fixed aggregate rate.

    Overrides the channel to ideal (no fading, loss model off, no rate
    jitter) and spreads aggregate_rate packets/second evenly across the
    nodes; reports fixed-window counts, which come out loss-free whenever
    the server keeps up.
    """
    if not window > 0:
        raise InvalidConfigError(f"window must be > 0, got {window}")
    if aggregate_rate < 0:
        raise InvalidConfigError(f"aggregate_rate must be >= 0, got {aggregate_rate}")
    per_node = aggregate_rate * config.tick_s / config.node_count
    if abs(per_node - round(per_node)) > 1e-9:
        raise InvalidConfigError(
            f"aggregate_rate {aggregate_rate}/s does not split evenly over "
            f"{config.node_count} nodes per {config.tick_s}s tick"
        )
    profile = replace(
        config,
        fading="none",
        fading_params=None,
        snr_threshold_db=None,
        rate_jitter=False,
        rate_growth_per_tick=0.0,
        packets_per_node_per_tick=int(round(per_node)),
        report_window_s=window,
    )
    result = run_simulation(profile)
    return windowed_series(
        result.records, window, config.base_hop.packet_length, span_s=config.duration_s
    )


@dataclass(frozen=True)
class FadingSpec:
    """One column of a comparison run."""

    label: str
    fading: str
    fading_params: FadingParams = None
    noise_n0: float | None = None


@dataclass(frozen=True)
class FadingComparison:
    kinds: tuple[str, ...]
    sample_times_s: tuple[float, ...]
    latency_s: np.ndarray  # rows = sample times, cols = kinds; nan when idle


def compare_fading(
    base: SimulationConfig, kinds: list[FadingSpec], sample_times: list[float]
) -> FadingComparison:
    """Average-latency-so-far per fading kind at each sample time.

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

    matrix = np.full((len(sample_times), len(kinds)), math.nan)
    for j, spec in enumerate(kinds):
        cfg = replace(
            base,
            fading=spec.fading,
            fading_params=spec.fading_params,
            noise_n0=spec.noise_n0 if spec.noise_n0 is not None else base.noise_n0,
        )
        result = run_simulation(cfg)
        rows = sorted(
            (r.send_time_s, r.latency_s) for r in result.records if r.delivered
        )
        sends = np.array([s for s, _ in rows])
        lats = np.cumsum([l for _, l in rows])
        for i, t in enumerate(sample_times):
            n = int(np.searchsorted(sends, t, side="right"))
            if n > 0:
                matrix[i, j] = lats[n - 1] / n
    return FadingComparison(
        kinds=tuple(labels), sample_times_s=tuple(sample_times), latency_s=matrix
    )
