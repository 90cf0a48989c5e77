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
exact and never below min_legs * one_way.  The records keep it in those
units, with each packet's tick number, and reporting reduces them exactly.
duration_s and report_window_s are whole numbers of ticks (one rule,
reporting._whole_ticks), so a report window holds the packets of its
ticks and no others.

A run draws, then resolves, one chunk of consecutive ticks at a time
(at least _CHUNK_PACKETS packets, or the rest of the run, and under
2**61 units of time and _CHUNK_PACKETS ticks), so it never holds more
than one chunk's draws.  A run keys one Philox generator once; a domain's
substream of tick t is the counter (0, domain, 0, t) under that key
(rng.SubstreamGenerator).  The draw step takes each domain's draws of a
tick from that one substream in one call, tick by tick: the nodes' rate
jitters (node k's is uniform k), the send times, the service times,
and on a lossy channel the channel normals (a pair per packet) and the
leg uniforms (handshake_rows per packet).  Node k's
packets take positions [off_k, off_k + n_k) of every stream of its
tick, in (node, packet) order, and a chunk lays its ticks end to end.
The resolve step evaluates the channel and the handshake once on the
whole chunk, then admits all of its delivered packets to the server in
one exact max-plus pass: one sort puts them in tick-major arrival order,
and their arrivals count from the chunk's first tick.  Lindley's
recursion in max-plus form composes over ticks (Baccelli, Cohen, Olsder
and Quadrat, Synchronization and Linearity, 1992), so that pass gives
the waits the ticks' own passes would.  Its records are columns
(PacketColumns: one array per field), written for the whole chunk at
once, and a run concatenates its chunks column by column.  run_tick is
the one-tick chunk; however the ticks are cut into chunks, the records
are the same.

Determinism: every random quantity comes from a substream keyed by
(domain, tick), so runs are bit-reproducible.  Every stream is laid out
packet by packet, so its draws for the first n packets do not depend on
how many follow: adding a node never perturbs existing nodes' draws.
Leg outcomes use inverse-CDF geometric draws (a fixed number of
uniforms per packet) from a stream of their own, so the same seed gives
every fading kind the same uniforms whether or not it reads the normals,
coupling the runs for low-variance ordering; compare_fading draws each
chunk once for all kinds, normals included when any kind is lossy.  On a
lossless channel (the ideal one, fading None, or no SNR threshold) no
leg can fail, and the tick draws neither the normals nor the leg
uniforms: every draw it does make is the one a lossy run of the same
seed makes, and a lossless kind can resolve a lossy draw.

No run imports scipy: per_packet_error_probability's logistic is numpy's
exp, so lossy and lossless runs alike load numpy only.
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
from .reporting import _whole_ticks, mean_latency_so_far
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
    Accepts scalar or array snr_linear (>= 0, inf allowed).  numpy's exp
    computes it, so a lossy run loads no scipy: exp overflows to inf far
    above the threshold (PER 0) and is 0 at snr 0 (PER exactly 1).
    """
    snr = np.asarray(snr_linear, dtype=float)
    if not (snr >= 0).all():  # NaN fails the comparison too
        raise InvalidParameterError("snr_linear must be >= 0")
    with np.errstate(divide="ignore", over="ignore"):
        snr_db = 10.0 * np.log10(snr)
        out = 1.0 / (1.0 + np.exp(PER_SLOPE_PER_DB * (snr_db - threshold_db)))
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
        if not 0 < _whole_ticks(self.duration_s, self.tick_s) < 2**32:
            raise InvalidConfigError(
                "duration_s must be a whole number of ticks, 1 to under 2**32 ticks, "
                f"got {self.duration_s / self.tick_s:.6g}"
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
        if not _whole_ticks(self.report_window_s, self.tick_s):
            raise InvalidConfigError(
                "report_window_s must be finite and >= tick_s, a whole number of ticks, "
                f"got {self.report_window_s}"
            )
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
        return _whole_ticks(self.duration_s, self.tick_s)

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

    tick: int
    send_time_s: float
    attempts: int
    delivered: bool
    latency_s: float  # nan for a lost packet


_COLUMNS = ("tick", "send_time_s", "attempts", "delivered", "latency_q")


@dataclass(frozen=True, eq=False)
class PacketColumns:
    """A run's packets as one array per field, row i of every column
    describing the same packet, in (tick, node, packet) order.

    len() counts packets; iterating yields PacketRecord rows.
    """

    tick_s: float  # the run's, so tick t starts at (t - 1) * tick_s
    tick: np.ndarray  # int64, 1-based, as run_tick's t
    send_time_s: np.ndarray  # float64
    attempts: np.ndarray  # int64, one-way legs consumed
    delivered: np.ndarray  # bool
    latency_q: np.ndarray  # int64 units of 2**-32 s, 0 for a lost packet

    @property
    def latency_s(self) -> np.ndarray:  # nan for a lost packet
        return np.where(self.delivered, self.latency_q / UNITS_PER_S, math.nan)

    @classmethod
    def concat(cls, parts: list[PacketColumns]) -> PacketColumns:
        if len(parts) == 1:
            return parts[0]
        columns = (np.concatenate([getattr(p, f) for p in parts]) for f in _COLUMNS)
        return cls(parts[0].tick_s, *columns)

    def __len__(self) -> int:
        return len(self.tick)

    def __iter__(self):
        columns = (getattr(self, f).tolist() for f in PacketRecord._fields)
        return map(PacketRecord._make, zip(*columns))


@dataclass
class CentralServer:
    """Single FIFO exponential server; free_at, in units, persists across calls."""

    free_at: int = 0

    def admit(self, origin: int, arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
        """Queue packets in the given order, int64 unit offsets >= 0 from
        origin; returns their waits.  Lindley's recursion in exact max-plus
        form, exact in any service order: with S = cumsum(s) and
        X = a - (S - s), M is the running max of X and the backlog, and a
        packet waits M - X.  A run admits each chunk of ticks in one call
        (_resolve).

        Reads its inputs only, and works in two buffers of their length."""
        backlog = max(self.free_at - origin, 0)
        # every departure is at most this sum; the margin covers its float rounding
        bound = backlog + float(arrivals.max(initial=0)) + services.sum(dtype=float)
        if bound >= 2**63 - 2**43:
            raise InvalidConfigError("the server's backlog overflows int64 time")
        work = np.cumsum(services)  # S, then S - s, then M
        total = int(work[-1]) if len(work) else 0
        work -= services
        wait = np.subtract(arrivals, work)  # X, then M - X
        np.maximum.accumulate(wait, out=work)
        np.maximum(work, backlog, out=work)
        if len(work):
            self.free_at = origin + total + int(work[-1])
        return np.subtract(work, wait, out=wait)


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


# a run resolves its ticks in chunks of at least this many packets (the last
# chunk may hold fewer, one tick is never split, and a chunk holds at most
# this many ticks): enough to share each numpy call of the channel and the
# handshake among many ticks, while a run holds only one chunk's draws
_CHUNK_PACKETS = 2**14


class _ChunkDraws(NamedTuple):
    """Every random draw of consecutive ticks first, first + 1, ..., in
    (tick, node, packet) order; sizes[i] packets belong to tick first + i.

    z (the channel normals, 2 x packets) and leg_u (the leg uniforms,
    handshake_rows x packets) are C-contiguous, and None in a lossless draw.
    """

    first: int
    sizes: np.ndarray  # int64
    send: np.ndarray  # int64 units from the packet's tick start
    z: np.ndarray | None
    leg_u: np.ndarray | None
    service: np.ndarray  # int64 units


def _rows(parts: tuple[np.ndarray, ...]) -> np.ndarray:
    """Packet-major (packets x k) draws laid end to end as one C-contiguous
    k x packets array, each row contiguous as the handshake reads it.

    One copy, tick by tick, straight into the result: concatenate(parts).T
    is F-ordered, and copying all of it into C order at once measured 5-10x
    slower for chunks of 16k packets.
    """
    out = np.empty((parts[0].shape[1], sum(len(a) for a in parts)))
    return np.concatenate([a.T for a in parts], axis=1, out=out)


def _join(cfg: SimulationConfig, first: int, ticks: list[tuple]) -> _ChunkDraws:
    """The chunk of consecutive ticks from first, given each tick's raw
    draws (see _draw_chunks): one array per stream, times quantized to the
    unit."""
    send, service, z, leg_u = zip(*ticks)
    sizes = np.array([len(s) for s in send], dtype=np.int64)
    span = cfg.tick_s - cfg.handshake_guard_s()
    send = np.rint(np.concatenate(send) * span * UNITS_PER_S).astype(np.int64)
    service = np.rint(np.concatenate(service) * UNITS_PER_S)
    if service.max(initial=0) >= 2**63:
        raise InvalidConfigError("a service time of 2**31 s or more overflows int64 time")
    if z[0] is not None:
        z, leg_u = _rows(z), _rows(leg_u)
    else:
        z = leg_u = None
    return _ChunkDraws(first, sizes, send, z, leg_u, service.astype(np.int64))


def _draw_chunks(
    cfg: SimulationConfig, rng: SubstreamGenerator, lossy: bool, ticks: range | None = None
):
    """Yield the draws of ticks, consecutive (the whole run by default),
    chunk by chunk, drawing each chunk only when the previous one has been
    taken.

    Tick t's raw draws are packet-major: send uniforms, service times in s,
    and when lossy the channel normals (packets x 2) and the leg uniforms
    (packets x handshake_rows), each from its domain's substream
    (domain, 0, t) in one call.  What no tick changes is worked out once.
    The fading kind is not read, so every config with cfg's traffic can
    resolve these draws.

    A chunk also ends before it spans 2**61 units, so the sort keys and the
    times from its first tick that _resolve forms stay below 2**62 (a tick
    always fits, as tick_s is below 2**31 s), and at _CHUNK_PACKETS ticks,
    so a run of idle ticks holds no more of them than a busy one.
    """
    ticks = range(1, cfg.n_ticks() + 1) if ticks is None else ticks
    max_ticks = min(_CHUNK_PACKETS, max(1, 2**61 // math.ceil(cfg.tick_s * UNITS_PER_S)))
    nodes, mean_service = cfg.node_count, 1.0 / cfg.server_mu()
    leg_rows = handshake_rows(cfg.qos_level, cfg.max_retries_per_leg)
    lo, hi = RATE_JITTER_SPAN
    width = hi - lo
    at, rate_at_tick, jitter = rng.at, cfg.rate_at_tick, cfg.rate_jitter
    chunk, packets = [], 0
    for t in ticks:
        base = rate_at_tick(t)
        total = base * nodes
        if jitter:
            # node k's jitter is uniform k of the tick's jitter stream; rint
            # rounds half to even, as round does
            u = at((DOMAIN_RATE_JITTER, 0, t)).random(nodes)
            total = int(np.rint(float(base) * (lo + width * u)).astype(np.int64).sum())

        # node k's packets take the same positions in every stream, and the
        # layouts are packet-major, so a node's draws never depend on the
        # nodes after it (see the module docstring)
        send = at((DOMAIN_PACKET, 0, t)).random(total)
        service = at((DOMAIN_SERVER, 0, t)).exponential(mean_service, total)
        z = leg_u = None
        if lossy:
            z = at((DOMAIN_CHANNEL, 0, t)).standard_normal((total, 2))
            leg_u = at((DOMAIN_LEG, 0, t)).random((total, leg_rows))
        chunk.append((send, service, z, leg_u))
        packets += total
        if packets >= _CHUNK_PACKETS or len(chunk) == max_ticks or t == ticks[-1]:
            yield _join(cfg, t + 1 - len(chunk), chunk)
            chunk, packets = [], 0


def _resolve(cfg: SimulationConfig, server: CentralServer, draws: _ChunkDraws) -> PacketColumns:
    """A chunk's packets on cfg's channel, queued at server, from its draws.

    The channel and the handshake run once on the whole chunk, and the
    server admits all of its delivered packets in one call, after one sort:
    no step loops over the ticks.  Reads the draws and writes none of them,
    so several configs can resolve the same draws in turn.
    """
    first, sizes, send, z, leg_u, service = draws
    if _lossy(cfg):
        p_leg = _leg_success_prob(cfg, z)
        delivered, legs = handshake_legs(cfg.qos_level, p_leg, leg_u, cfg.max_retries_per_leg)
    else:  # what handshake_legs returns at p = 1: every packet in the fewest legs
        delivered = np.ones(len(send), dtype=bool)
        legs = np.full(len(send), cfg.min_legs(), dtype=np.int64)
    latency = legs * cfg._one_way_q  # the travel times, then the latencies
    ticks = np.arange(first, first + len(sizes), dtype=np.int64)
    tick_start = (ticks - 1) * float(cfg.tick_s)

    # exact FIFO at the server: admit in tick-major arrival order, equal
    # arrivals in (node, packet) order.  The sort key is tick position *
    # stride + tick-local arrival, stride past every tick-local arrival, so
    # the order is tick-major by construction: the chunk-relative arrivals
    # alone need not be, when a late arrival meets the next tick's start.
    # Every chunk-sized temporary costs fresh pages, so the pass reuses its
    # buffers in place
    stride = int(send.max(initial=0)) + int(latency.max(initial=0)) + 1
    tick_key = np.arange(len(sizes), dtype=np.int64) * stride
    if delivered.all():  # no gathers: every row queues
        queued, counts = None, sizes
        key = np.repeat(tick_key, counts)
        key += send
        key += latency
    else:
        queued = np.flatnonzero(delivered)
        counts = np.diff(np.searchsorted(queued, np.cumsum(sizes)), prepend=0)
        key = np.repeat(tick_key, counts)
        key += send[queued]
        key += latency[queued]
    bits = max(len(key) - 1, 0).bit_length()
    if len(sizes) * stride << bits <= 2**63:
        # the key and the row index packed in one int64: a value sort, in
        # place, is twice as fast as an argsort, and ties keep row order
        order = np.arange(len(key))
        key <<= bits
        key |= order
        key.sort()
        np.bitwise_and(key, (1 << bits) - 1, out=order)
        key >>= bits
    else:  # no room for the row index (ticks of days, or many packets)
        order = np.argsort(key, kind="stable")
        key = key[order]
    rows = order if queued is None else queued[order]

    # each tick's start from the chunk's first, as admit's times count: the
    # difference of two float starts need not be a float, so a fast two-sum
    # (Dekker 1971) splits it exactly into two that are
    origin = np.rint(tick_start * UNITS_PER_S)
    offset = origin - origin[0]
    low = (origin - offset) - origin[0]
    offset = offset.astype(np.int64) + low.astype(np.int64)
    queue = np.repeat(offset - tick_key, counts)
    key += queue  # the arrivals, in admit order
    np.take(service, rows, out=queue, mode="clip")  # then the services, then the travel
    waits = server.admit(int(origin[0]), key, queue)
    waits += np.take(latency, rows, out=queue, mode="clip")
    latency[rows] = waits
    if queued is not None:
        latency *= delivered  # a lost packet's latency is 0
    # send_s = tick_start + send / UNITS_PER_S, scaled by a power of two so
    # the rounding is the same, with no temporary
    send_s = np.repeat(tick_start * UNITS_PER_S, sizes)
    send_s += send
    send_s /= UNITS_PER_S
    return PacketColumns(
        float(cfg.tick_s), np.repeat(ticks, sizes), send_s, legs, delivered, latency
    )


def run_tick(state: SimulationState, t: int) -> PacketColumns:
    """Advance one tick; returns the packets sent in it, in (node, packet)
    order.

    Sends are jittered inside [tick_start, tick_end - guard], so every
    handshake finishes before the tick ends and server FIFO order across
    ticks is exact.  A one-tick chunk: run_simulation resolves the same
    ticks chunk by chunk.
    """
    cfg = state.config
    if not 1 <= t <= cfg.n_ticks():
        raise InvalidParameterError(f"tick {t} outside 1..{cfg.n_ticks()}")
    draws = next(_draw_chunks(cfg, state.rng, _lossy(cfg), range(t, t + 1)))
    return _resolve(cfg, state.server, draws)


def run_simulation(
    config: SimulationConfig, *, draws: list[_ChunkDraws] | None = None
) -> SimulationResult:
    """Run every tick, chunk by chunk.

    draws, keyword-only, are compare_fading's unchecked hand-off of the
    run's chunks, drawn once from its base config, whose load it has
    checked; with them the run builds no generator of its own.  Without
    them the run draws its own, one chunk at a time.
    """
    if draws is None:
        state = make_state(config)
        server, draws = state.server, _draw_chunks(config, state.rng, _lossy(config))
    else:
        server = CentralServer()
    parts = [_resolve(config, server, chunk) for chunk in draws]
    return SimulationResult(records=PacketColumns.concat(parts))


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

    All kinds share one set of draws, made once from base, chunk by chunk:
    send and service times, plus the channel normals and leg uniforms when
    any kind is lossy.  A kind is base with only fading and noise_n0 replaced,
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
    draws = list(_draw_chunks(base, rng, lossy))
    columns, order = [], None
    for cfg in configs:
        records = run_simulation(cfg, draws=draws).records
        if order is None:  # every kind sends base's packets: one sort serves all
            order = np.argsort(records.send_time_s)
        columns.append(mean_latency_so_far(records, sample_times, order))
    return np.array(columns, dtype=float).T  # an idle cell's None becomes NaN
