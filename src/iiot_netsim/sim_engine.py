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

Per tick, run_tick draws, then resolves.  The draw step derives the
Philox key of every (domain, node, tick) substream it needs in one
rng.philox_keys pass, and every node's rate jitter (its jitter stream's
first uniform) in one rng.philox_random pass; each node then only re-keys
the run's one generator for its packet and server streams and draws.
The resolve step evaluates the channel and the handshake once on those
draws concatenated in (node, packet) order and admits the tick's
delivered packets to the server in one call, in arrival order.  Its
records are columns (PacketColumns: one array per field), and a run
concatenates the ticks column by column.

The draws do not depend on the fading kind, so compare_fading draws each
tick once and resolves it once per kind: every kind runs run_simulation
on those shared draws with its own server.

A run returns its per-packet columns and nothing else; reporting owns
every summary of them (summarize_rtt, windowed_series), including the
running mean latency that compare_fading tabulates per fading kind.

Determinism: every random quantity comes from a substream keyed by
(domain, node, tick), so runs are bit-reproducible and adding a node
never perturbs existing nodes' draws.  A packet stream draws the send
times, then the channel normals, then the leg uniforms.  Leg outcomes use
inverse-CDF geometric draws (one uniform per leg), which keeps draw
alignment across fading kinds: on a lossy channel every kind draws the
normals, awgn included though it does not read them, so the same seed
gives every kind the same uniforms, coupling the runs for low-variance
ordering.  On a lossless channel (the ideal one, fading None, or no SNR
threshold) no leg can fail, and the tick draws neither the normals nor
the leg uniforms: they come last in the stream, so every draw it does
make is the one a lossy run of the same seed makes, and a lossless kind
can resolve a lossy draw.

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
    DOMAIN_PACKET,
    DOMAIN_RATE_JITTER,
    DOMAIN_SERVER,
    RekeyableGenerator,
    _check_seed,
    philox_keys,
    philox_random,
)
from .rtt_model import HopConfig, compute_rtt

PER_SLOPE_PER_DB = 1.0
RATE_JITTER_SPAN = (0.8, 1.2)

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
        # node and tick are 32-bit components of the substream ids (rng.philox_keys)
        if not 1 <= self.node_count < 2**32:
            raise InvalidConfigError(f"node_count must be in [1, 2**32), got {self.node_count}")
        if not 0 < self.duration_s < math.inf:
            raise InvalidConfigError(f"duration_s must be finite and > 0, got {self.duration_s}")
        if not self.tick_s > 0:
            raise InvalidConfigError(f"tick_s must be > 0, got {self.tick_s}")
        n = self.duration_s / self.tick_s
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise InvalidConfigError(
                f"duration_s must be a whole positive number of ticks, got {n:.6g}"
            )
        if self.n_ticks() >= 2**32:
            raise InvalidConfigError(f"a run must have < 2**32 ticks, got {self.n_ticks()}")
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
        fades = isinstance(self.fading, (RayleighParams, RicianParams))
        if fades and not 0 < self.noise_n0 < math.inf:
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
        return self._one_way_s

    @cached_property
    def _one_way_s(self) -> float:
        # once per config: validation and every tick read it; not a field,
        # so equality, hashing and replace() see only the fields
        return compute_rtt([self.base_hop]).one_way

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
    """Single FIFO exponential server; free_at persists across ticks."""

    free_at: float = 0.0

    def admit(self, arrivals: list[float], services: list[float]) -> list[float]:
        """Queue packets given in arrival order; returns their waiting times.

        The Lindley recursion is sequential: a cumulative-max form rounds
        differently.
        """
        free_at = self.free_at
        waits = []
        for arrival, service in zip(arrivals, services):
            start = free_at if free_at > arrival else arrival
            free_at = start + service
            waits.append(start - arrival)
        self.free_at = free_at
        return waits


@dataclass
class SimulationState:
    config: SimulationConfig
    server: CentralServer
    rng: RekeyableGenerator  # this run's own, re-keyed for every substream


@dataclass(frozen=True)
class SimulationResult:
    """Every packet of a run, tick by tick; reporting.summarize_rtt and
    reporting.windowed_series summarize them."""

    records: PacketColumns


def make_state(config: SimulationConfig) -> SimulationState:
    """Validate peak load against server capacity and set up run state."""
    if config.offered_rate_max() > 0:
        QueueParams(lam=config.offered_rate_max(), mu=config.server_mu()).require_stable()
    return SimulationState(config=config, server=CentralServer(), rng=RekeyableGenerator())


def _leg_success_prob(config: SimulationConfig, z: np.ndarray) -> np.ndarray:
    """Per-packet leg success probability from the channel draw, on a lossy
    channel: fading parameters and an SNR threshold.

    z is the packet's pair of standard normal quadrature draws.  awgn does
    not read them; the tick still draws them, so the leg uniforms after
    them stay aligned across fading kinds.
    """
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
    """Every random draw of one tick, concatenated in (node, packet) order.

    z (the channel normals, 2 x packets) and leg_u (the leg uniforms,
    handshake_rows x packets) are None in a lossless draw.
    """

    tick_start: float
    send: np.ndarray
    z: np.ndarray | None
    leg_u: np.ndarray | None
    service: np.ndarray


class _RunDraws(NamedTuple):
    """A run's draws, tick by tick, for every config that shares its traffic."""

    config: SimulationConfig  # the config they were drawn for
    lossy: bool  # whether they hold z and leg_u
    ticks: list[_TickDraws]


# the fields a config may change and still read another config's draws
_CHANNEL_FIELDS = frozenset({"fading", "noise_n0"})


def _draw_tick(
    cfg: SimulationConfig, rng: RekeyableGenerator, t: int, lossy: bool
) -> _TickDraws:
    """Draw tick t: send times and service times, plus the channel normals
    and leg uniforms when lossy.

    The fading kind is not read, so every config with cfg's traffic can
    resolve these draws.
    """
    tick_start = (t - 1) * float(cfg.tick_s)  # a float column even for an int tick_s
    base = cfg.rate_at_tick(t)

    # one key pass: keys[d][i] is the key of substream (domains[d], node i + 1, t)
    domains = [DOMAIN_PACKET, DOMAIN_SERVER]
    if cfg.rate_jitter:
        domains.append(DOMAIN_RATE_JITTER)
    spawn = np.broadcast_arrays(np.array(domains)[:, None], np.arange(1, cfg.node_count + 1), t)
    keys = philox_keys(cfg.seed, np.stack(spawn, axis=-1))
    n_pkts = [base] * cfg.node_count
    if cfg.rate_jitter:
        # each node's jitter is its stream's first uniform, for all nodes in
        # one pass; rint rounds half to even, as round does
        lo, hi = RATE_JITTER_SPAN
        jittered = float(base) * (lo + (hi - lo) * philox_random(keys[2]))
        n_pkts = np.rint(jittered).astype(np.int64).tolist()

    # each node draws from its own substreams.  A lossless draw skips the
    # channel normals and leg uniforms: they are the last draws of the
    # packet stream, so no other draw moves.
    leg_rows = handshake_rows(cfg.qos_level, cfg.max_retries_per_leg)
    mean_service = 1.0 / cfg.server_mu()
    u_send, z, leg_u, service = [], [], [], []
    for packet_key, server_key, n in zip(keys[0].tolist(), keys[1].tolist(), n_pkts):
        gen = rng.rekey(packet_key)
        u_send.append(gen.random(n))
        if lossy:
            z.append(gen.standard_normal((2, n)))
            leg_u.append(gen.random((leg_rows, n)))
        service.append(rng.rekey(server_key).exponential(mean_service, n))

    send = tick_start + np.concatenate(u_send) * (cfg.tick_s - cfg.handshake_guard_s())
    if lossy:
        z, leg_u = np.concatenate(z, axis=1), np.concatenate(leg_u, axis=1)
    else:
        z = leg_u = None
    return _TickDraws(tick_start, send, z, leg_u, np.concatenate(service))


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
    arrival = send + legs * cfg.one_way_s()

    # exact FIFO at the server: admit in arrival order; the stable sort keeps
    # (node, packet) order among equal arrivals
    queued = np.flatnonzero(delivered)
    queued = queued[np.argsort(arrival[queued], kind="stable")]
    arrived = arrival[queued]
    waits = server.admit(arrived.tolist(), service[queued].tolist())
    latency = np.full(len(send), math.nan)
    latency[queued] = (arrived - send[queued]) + waits
    return PacketColumns(np.full(len(send), tick_start), send, legs, delivered, latency)


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


def _draw_run(config: SimulationConfig, lossy: bool) -> _RunDraws:
    """Every tick's draws of config's traffic, from one generator."""
    rng = make_state(config).rng  # refuses an overloaded run before drawing it
    ticks = [_draw_tick(config, rng, t, lossy) for t in range(1, config.n_ticks() + 1)]
    return _RunDraws(config, lossy, ticks)


def _check_draws(config: SimulationConfig, draws: _RunDraws) -> None:
    drawn = draws.config
    other = [
        f.name
        for f in fields(SimulationConfig)
        if f.name not in _CHANNEL_FIELDS and getattr(drawn, f.name) != getattr(config, f.name)
    ]
    if other:
        raise InvalidParameterError(f"draws of other traffic: {', '.join(other)} differ")
    if _lossy(config) and not draws.lossy:
        raise InvalidParameterError(
            "a lossy config needs lossy draws (channel normals and leg uniforms)"
        )


def run_simulation(
    config: SimulationConfig, *, draws: _RunDraws | None = None
) -> SimulationResult:
    """Run every tick.

    draws, keyword-only, are a run's draws shared by configs that differ
    only in fading and noise_n0; compare_fading makes them once for all
    its kinds.  Draws of other traffic, or lossless draws given to a lossy
    config, raise InvalidParameterError.
    """
    if draws is not None:
        _check_draws(config, draws)
    state = make_state(config)
    per_tick = [None] * config.n_ticks() if draws is None else draws.ticks
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

    All kinds share one set of draws, made once per tick: send times and
    service times, plus the channel normals and leg uniforms when any kind
    is lossy (a lossless kind does not read them).  Each kind resolves
    them with its own channel and its own server through
    run_simulation(..., draws=), so its column equals that of its own
    run_simulation from the same seed; the columns differ only through
    each kind's channel, which makes the comparison paired (common random
    numbers) rather than independent.
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
        replace(
            base,
            fading=spec.fading,
            noise_n0=spec.noise_n0 if spec.noise_n0 is not None else base.noise_n0,
        )
        for spec in kinds
    ]
    draws = _draw_run(base, lossy=any(_lossy(cfg) for cfg in configs))
    columns = [
        mean_latency_so_far(run_simulation(cfg, draws=draws).records, sample_times)
        for cfg in configs
    ]
    return np.array(columns, dtype=float).T  # an idle cell's None becomes NaN
