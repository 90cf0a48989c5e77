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
Times are int64 counts of 2**-32 s from the tick's start: send offsets
and service times round to the nearest unit, one_way up, so latency is
exact and never below min_legs * one_way; only the float columns round it.

Per tick, run_tick draws, then resolves.  A run keys one Philox
generator once; a domain's substream of tick t is the counter
(0, domain, 0, t) under that key (rng.SubstreamGenerator).  The
draw step takes each domain's draws of the tick from that one
substream in one call: the nodes' rate jitters (node k's is
uniform k), the send times, the service times, and on a lossy channel
the channel normals (a pair per packet) and the leg uniforms
(handshake_rows per packet).  Node k's packets take positions
[off_k, off_k + n_k) of every stream, in (node, packet) order.
The resolve step evaluates the channel and the handshake once on those
draws and admits the tick's delivered packets to the server in one
call, in arrival order.  Its records are columns (PacketColumns: one
array per field), and a run concatenates the ticks column by column.

Determinism: every random quantity comes from a substream keyed by
(domain, tick), so runs are bit-reproducible.  Every stream is laid out
packet by packet, so its draws for the first n packets do not depend on
how many follow: adding a node never perturbs existing nodes' draws.
Leg outcomes use inverse-CDF geometric draws (a fixed number of
uniforms per packet) from a stream of their own, so the same seed gives
every fading kind the same uniforms whether or not it reads the normals,
coupling the runs for low-variance ordering; compare_fading draws each
tick once for all kinds, normals included when any kind is lossy.  On a
lossless channel (the ideal one, fading None, or no SNR threshold) no
leg can fail, and the tick draws neither the normals nor the leg
uniforms: every draw it does make is the one a lossy run of the same
seed makes, and a lossless kind can resolve a lossy draw.

Only per_packet_error_probability imports scipy (scipy.special.expit), so
a run on an ideal or lossless channel never loads it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel_models import AwgnParams, RayleighParams, RicianParams, channel_gain
from .errors import InvalidConfigError, InvalidParameterError
from .qos_state_machine import (
    MIN_LEGS, _check_level, handshake_legs, handshake_rows, max_total_legs
)
from .queueing_model import QueueParams
from .reporting import mean_latency_so_far
from .rng import (
    DOMAIN_CHANNEL,
    DOMAIN_LEG,
    DOMAIN_PACKET,
    DOMAIN_RATE_JITTER,
    DOMAIN_SERVER,
    RngStream,
    SubstreamGenerator,
    _check_seed,
)
from .rtt_model import HopConfig, compute_rtt

PER_SLOPE_PER_DB = 1.0
RATE_JITTER_SPAN = (0.8, 1.2)
UNITS_PER_S = 2**32  # the time unit is 2**-32 s

# a channel is its fading parameters; None is the ideal channel
FadingParams = AwgnParams | RayleighParams | RicianParams | None


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


_BOOL = (bool, np.bool_)
# finite-value checks compare with the largest float, not with inf: an int
# past the float range is below inf but overflows float arithmetic
_FLOAT_MAX = math.nextafter(math.inf, 0.0)
# what each field annotation of SimulationConfig accepts, and its name in
# the error; a number field refuses bool
_ANNOTATED_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a real number"),
    "float | None": (numbers.Real | None, "a real number or None"),
    "bool": (_BOOL, "a bool"),
    "HopConfig": (HopConfig, "a HopConfig"),
    "FadingParams": (FadingParams, "AwgnParams, RayleighParams, RicianParams or None"),
}


@dataclass(frozen=True)
class SimulationConfig:
    node_count: int
    duration_s: float
    base_hop: HopConfig
    seed: int
    tick_s: float = 1.0
    fading: FadingParams = None
    noise_n0: float = 1.0
    qos_level: int = 2
    packets_per_node_per_tick: int = 1
    snr_threshold_db: float | None = None
    max_retries_per_leg: int = 8
    rate_jitter: bool = False
    rate_growth_per_tick: float = 0.0
    report_window_s: float = 5.0

    def __post_init__(self):
        for f in fields(self):
            kind, what = _ANNOTATED_TYPES[f.type]
            value = getattr(self, f.name)
            if not isinstance(value, kind) or (isinstance(value, _BOOL) and kind is not _BOOL):
                raise InvalidConfigError(f"{f.name} must be {what}, got {value!r}")
        try:
            _check_level(self.qos_level)
            _check_seed(self.seed)
        except InvalidParameterError as e:
            raise InvalidConfigError(str(e)) from None
        # node_count, packets_per_node_per_tick, max_retries_per_leg and the tick
        # count are bounded so absurd sizes exit 2 before any allocation or overflow
        if not 1 <= self.node_count < 2**32:
            raise InvalidConfigError(f"node_count must be in [1, 2**32), got {self.node_count}")
        if not 0 < self.duration_s <= _FLOAT_MAX:
            raise InvalidConfigError(f"duration_s must be finite and > 0, got {self.duration_s}")
        if not 0 < self.tick_s < 2**31:  # so tick-local times in units fit int64
            raise InvalidConfigError(f"tick_s must be in (0, 2**31) s, got {self.tick_s}")
        n = self.duration_s / self.tick_s  # inf when a tiny tick_s overflows it
        if n == math.inf or abs(n - round(n)) > 1e-9 or not 1 <= round(n) < 2**32:
            raise InvalidConfigError(
                f"duration_s must be a whole number of ticks, 1 to under 2**32 ticks, got {n:.6g}"
            )
        if not 0 <= self.packets_per_node_per_tick < 2**32:
            raise InvalidConfigError("packets_per_node_per_tick must be in [0, 2**32)")
        if not 0 <= self.max_retries_per_leg < 2**32:
            raise InvalidConfigError("max_retries_per_leg must be in [0, 2**32)")
        if not 0 <= self.rate_growth_per_tick <= _FLOAT_MAX:
            raise InvalidConfigError("rate_growth_per_tick must be finite and >= 0")
        try:
            final = self.offered_rate_max()
        except (OverflowError, ValueError):  # int(round()) of an inf or NaN rate
            final = math.inf
        if final == math.inf:
            raise InvalidConfigError("rate_growth_per_tick or tick_s overflows the peak rate")
        if not 0 < self.report_window_s <= _FLOAT_MAX:
            raise InvalidConfigError("report_window_s must be finite and > 0")
        if self.snr_threshold_db is not None and not abs(self.snr_threshold_db) <= _FLOAT_MAX:
            raise InvalidConfigError("snr_threshold_db must be finite or None")
        fades = isinstance(self.fading, (RayleighParams, RicianParams))
        if fades and not 0 < self.noise_n0 <= _FLOAT_MAX:
            raise InvalidConfigError(f"noise_n0 must be finite and > 0, got {self.noise_n0}")
        if self.handshake_guard_s() >= self.tick_s:
            raise InvalidConfigError(
                f"tick_s {self.tick_s} too short: worst-case handshake takes "
                f"{self.handshake_guard_s():.6g} s"
            )

    def n_ticks(self) -> int:
        return int(round(self.duration_s / self.tick_s))

    def one_way_s(self) -> float:
        """Per-leg delay implied by the base hop, rounded up to the time unit."""
        return self._one_way_q / UNITS_PER_S

    @cached_property
    def _one_way_q(self) -> int:
        # once per config: validation and every tick read it; not a field, so
        # equality, hashing and replace() ignore it; capped so inf fails tick_s
        return math.ceil(min(compute_rtt([self.base_hop]).one_way, 2.0**32) * UNITS_PER_S)

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
        """Peak nominal offered rate (last tick under growth); inf past the float range."""
        return self.node_count * float(self.rate_at_tick(self.n_ticks())) / self.tick_s


class PacketRecord(NamedTuple):
    """One packet of a run, as iterating PacketColumns yields it."""

    tick_start_s: float
    send_time_s: float
    attempts: int
    delivered: bool
    latency_s: float  # nan for a lost packet


@dataclass(frozen=True, eq=False)
class PacketColumns:
    """A run's packets as one array per PacketRecord field, row i of every
    column describing the same packet, in (tick, node, packet) order.

    len() counts packets; iterating yields PacketRecord rows.
    """

    tick_start_s: np.ndarray  # float64
    send_time_s: np.ndarray  # float64
    attempts: np.ndarray  # int64, one-way legs consumed
    delivered: np.ndarray  # bool
    latency_s: np.ndarray  # float64, nan for a lost packet

    @classmethod
    def concat(cls, parts: list[PacketColumns]) -> PacketColumns:
        return cls(
            *(np.concatenate([getattr(p, f) for p in parts]) for f in PacketRecord._fields)
        )

    def __len__(self) -> int:
        return len(self.send_time_s)

    def __iter__(self):
        columns = (getattr(self, f).tolist() for f in PacketRecord._fields)
        return map(PacketRecord._make, zip(*columns))


@dataclass
class CentralServer:
    """Single FIFO exponential server; free_at, in units, persists across ticks."""

    free_at: int = 0

    def admit(self, origin: int, arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
        """Queue packets given in arrival order, int64 unit offsets >= 0 from
        origin; returns their waits.  Lindley's recursion in exact max-plus
        form, S = cumsum(s): D = S + running max of max(a - (S - s), backlog)."""
        backlog = max(self.free_at - origin, 0)
        # every departure is at most this sum; the margin covers its float rounding
        if backlog + arrivals[-1:].sum(dtype=float) + services.sum(dtype=float) >= 2**63 - 2**43:
            raise InvalidConfigError("the server's backlog overflows int64 time")
        done = np.cumsum(services)
        done += np.maximum.accumulate(np.maximum(arrivals - (done - services), backlog))
        if len(done):
            self.free_at = origin + int(done[-1])
        return done - services - arrivals


@dataclass
class SimulationState:
    config: SimulationConfig
    server: CentralServer
    rng: SubstreamGenerator  # this run's own, moved to every substream


@dataclass(frozen=True)
class SimulationResult:
    """Every packet of a run, tick by tick; reporting.summarize_rtt and
    reporting.windowed_series summarize them."""

    records: PacketColumns


def make_state(config: SimulationConfig) -> SimulationState:
    """Validate peak load against server capacity and set up run state."""
    if config.offered_rate_max() > 0:
        QueueParams(lam=config.offered_rate_max(), mu=config.server_mu()).require_stable()
    rng = SubstreamGenerator(RngStream(config.seed).key)
    return SimulationState(config=config, server=CentralServer(), rng=rng)


def _leg_success_prob(config: SimulationConfig, z: np.ndarray) -> np.ndarray:
    """Per-packet leg success probability from z, the packets' standard
    normal quadrature pairs, on a lossy channel: fading parameters and an
    SNR threshold (awgn does not read z)."""
    if isinstance(config.fading, AwgnParams):
        snr = np.full(z.shape[1], 1.0 / config.fading.n0)
    else:  # RayleighParams, RicianParams
        h = channel_gain(config.fading, z)
        snr = (h.real**2 + h.imag**2) / config.noise_n0
    return 1.0 - per_packet_error_probability(snr, config.snr_threshold_db)


def _lossy(config: SimulationConfig) -> bool:
    """Whether a leg can fail: fading parameters (not the ideal channel) and
    an SNR threshold."""
    return config.fading is not None and config.snr_threshold_db is not None


class _TickDraws(NamedTuple):
    """Every random draw of one tick, in (node, packet) order.

    z (the channel normals, 2 x packets) and leg_u (the leg uniforms,
    handshake_rows x packets) are None in a lossless draw.
    """

    tick_start: float
    send: np.ndarray  # int64 units from tick_start
    z: np.ndarray | None
    leg_u: np.ndarray | None
    service: np.ndarray  # int64 units


def _draw_tick(
    cfg: SimulationConfig, rng: SubstreamGenerator, t: int, lossy: bool
) -> _TickDraws:
    """Draw tick t: send times and service times, plus the channel normals
    and leg uniforms when lossy, each from its domain's substream
    (domain, 0, t) in one call.

    The fading kind is not read, so every config with cfg's traffic can
    resolve these draws.
    """
    tick_start = (t - 1) * float(cfg.tick_s)  # a float column even for an int tick_s
    base = cfg.rate_at_tick(t)

    total = base * cfg.node_count
    if cfg.rate_jitter:
        # node k's jitter is uniform k of the tick's jitter stream; rint
        # rounds half to even, as round does
        lo, hi = RATE_JITTER_SPAN
        u = rng.at((DOMAIN_RATE_JITTER, 0, t)).random(cfg.node_count)
        total = int(np.rint(float(base) * (lo + (hi - lo) * u)).astype(np.int64).sum())

    # node k's packets take the same positions in every stream, and the
    # layouts are packet-major, so a node's draws never depend on the
    # nodes after it (see the module docstring)
    span = cfg.tick_s - cfg.handshake_guard_s()
    send = rng.at((DOMAIN_PACKET, 0, t)).random(total)
    send = np.rint(send * span * UNITS_PER_S).astype(np.int64)
    service = rng.at((DOMAIN_SERVER, 0, t)).exponential(1.0 / cfg.server_mu(), total)
    service = np.rint(service * UNITS_PER_S)
    if service.max(initial=0) >= 2**63:
        raise InvalidConfigError("a service time of 2**31 s or more overflows int64 time")
    z = leg_u = None
    if lossy:
        leg_rows = handshake_rows(cfg.qos_level, cfg.max_retries_per_leg)
        z = rng.at((DOMAIN_CHANNEL, 0, t)).standard_normal((total, 2)).T
        leg_u = rng.at((DOMAIN_LEG, 0, t)).random((total, leg_rows)).T
    return _TickDraws(tick_start, send, z, leg_u, service.astype(np.int64))


def _resolve_tick(
    cfg: SimulationConfig, server: CentralServer, draws: _TickDraws
) -> PacketColumns:
    """One tick's packets on cfg's channel, queued at server, from its draws.

    Reads the draws and writes none of them, so several configs can
    resolve the same draws in turn.
    """
    tick_start, send, z, leg_u, service = draws
    if _lossy(cfg):
        p_leg = _leg_success_prob(cfg, z)
        delivered, legs = handshake_legs(cfg.qos_level, p_leg, leg_u, cfg.max_retries_per_leg)
    else:  # what handshake_legs returns at p = 1: every packet in the fewest legs
        delivered = np.ones(len(send), dtype=bool)
        legs = np.full(len(send), cfg.min_legs(), dtype=np.int64)
    arrival = send + legs * cfg._one_way_q

    # exact FIFO at the server: admit in arrival order, equal arrivals in
    # (node, packet) order.  Distinct arrivals have one sorting permutation,
    # so the default (SIMD, unstable) argsort finds it; only a tie needs the
    # slower stable sort
    queued = np.flatnonzero(delivered)
    key = arrival[queued]
    order = np.argsort(key)
    ordered = key[order]
    if (ordered[1:] == ordered[:-1]).any():  # a tie; ordered is the same either way
        order = np.argsort(key, kind="stable")
    queued = queued[order]
    waits = server.admit(round(tick_start * UNITS_PER_S), ordered, service[queued])
    latency = np.full(len(send), math.nan)
    latency[queued] = ((arrival - send)[queued] + waits) / UNITS_PER_S
    send_s = tick_start + send / UNITS_PER_S
    return PacketColumns(np.full(len(send), tick_start), send_s, legs, delivered, latency)


def run_tick(
    state: SimulationState, t: int, *, draws: _TickDraws | None = None
) -> PacketColumns:
    """Advance one tick; returns the packets sent in it, in (node, packet)
    order.

    Sends are jittered inside [tick_start, tick_end - guard], so every
    handshake finishes before the tick ends and server FIFO order across
    ticks is exact.  draws, keyword-only, are tick t's draws as
    run_simulation passes them on; without them the tick draws its own
    from state.rng.
    """
    cfg = state.config
    if not 1 <= t <= cfg.n_ticks():
        raise InvalidParameterError(f"tick {t} outside 1..{cfg.n_ticks()}")
    if draws is None:
        draws = _draw_tick(cfg, state.rng, t, _lossy(cfg))
    return _resolve_tick(cfg, state.server, draws)


def run_simulation(
    config: SimulationConfig, *, draws: list[_TickDraws] | None = None
) -> SimulationResult:
    """Run every tick.

    draws, keyword-only, are compare_fading's unchecked hand-off of every
    tick's draws, made once from its base config; without them the run
    draws its own.
    """
    state = make_state(config)
    per_tick = [None] * config.n_ticks() if draws is None else draws
    ticks = [run_tick(state, t, draws=d) for t, d in enumerate(per_tick, 1)]
    return SimulationResult(records=PacketColumns.concat(ticks))


@dataclass(frozen=True)
class FadingSpec:
    """One column of a comparison run."""

    label: str
    fading: FadingParams
    noise_n0: float | None = None


def compare_fading(
    base: SimulationConfig, kinds: list[FadingSpec], sample_times: list[float]
) -> np.ndarray:
    """Average latency so far, in ms, per fading kind at each sample time.

    Returns a (sample times x kinds) array, NaN where no packet of that
    kind was delivered yet; reporting.mean_latency_so_far computes each
    column.

    All kinds share one set of draws, made once per tick from base: send
    and service times, plus the channel normals and leg uniforms when any
    kind is lossy.  A kind is base with only fading and noise_n0 replaced,
    which no draw reads, so each kind resolves them with its own channel
    and server through run_simulation(..., draws=), and its column equals
    its own run_simulation's; the columns differ only through the channel,
    which pairs the comparison (common random numbers).
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

    configs = [
        replace(base, fading=k.fading, noise_n0=base.noise_n0 if k.noise_n0 is None else k.noise_n0)
        for k in kinds
    ]
    rng = make_state(base).rng  # refuses an overloaded run before drawing it
    lossy = any(_lossy(cfg) for cfg in configs)
    draws = [_draw_tick(base, rng, t, lossy) for t in range(1, base.n_ticks() + 1)]
    columns = [
        mean_latency_so_far(run_simulation(cfg, draws=draws).records, sample_times)
        for cfg in configs
    ]
    return np.array(columns, dtype=float).T  # an idle cell's None becomes NaN
