"""Engine behavior: error model, conservation, determinism, isolation."""
import gc
import math
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iiot_netsim import cli, sim_engine
from iiot_netsim.channel_models import AwgnParams, RayleighParams, RicianParams, channel_gain
from iiot_netsim.errors import (
    InstabilityError, InvalidConfigError, InvalidParameterError, NetsimError
)
from iiot_netsim.qos_state_machine import handshake_legs, handshake_rows
from iiot_netsim.reporting import mean_latency_so_far, summarize_rtt, windowed_series
from iiot_netsim.rng import (
    DOMAIN_CHANNEL,
    DOMAIN_LEG,
    DOMAIN_PACKET,
    DOMAIN_RATE_JITTER,
    DOMAIN_SERVER,
    RngStream,
    SubstreamGenerator,
)
from iiot_netsim.rtt_model import HopConfig, compute_rtt
from iiot_netsim.sim_engine import (
    RATE_JITTER_SPAN,
    UNITS_PER_S,
    CentralServer,
    FadingSpec,
    PacketColumns,
    SimulationConfig,
    _leg_success_prob,
    _ChunkDraws,
    compare_fading,
    make_state,
    per_packet_error_probability,
    run_simulation,
    run_tick,
)

SEED = 20260817
SHIPPED = resources.files("iiot_netsim") / "configs"


def same_columns(a: PacketColumns, b: PacketColumns) -> bool:
    """Equal tick_s, and column-for-column equality."""
    return a.tick_s == b.tick_s and all(
        getattr(a, f).dtype == getattr(b, f).dtype and np.array_equal(getattr(a, f), getattr(b, f))
        for f in sim_engine._COLUMNS
    )


def make_hop(proc: float = 0.5e-3, service: float = 1000.0) -> HopConfig:
    return HopConfig(
        distance=30.0,
        propagation_speed=3e8,
        packet_length=1000.0,
        link_rate=1e6,
        processing_delay=proc,
        arrival_rate=60.0,
        service_rate=service,
        loss_prob=0.0,
        retx_base=0.0,
    )


# no one-way delay: no distance, and hop weight 0 zeroes transmission and queueing
ZERO_DELAY_HOP = replace(
    make_hop(proc=0.0), distance=0.0, hop_weight=0.0, service_rate=2.0**31
)


def make_config(**overrides) -> SimulationConfig:
    defaults = dict(
        node_count=3,
        duration_s=5.0,
        base_hop=make_hop(),
        seed=SEED,
        packets_per_node_per_tick=20,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestPerPacketErrorProbability:
    def test_midpoint(self):
        # snr equal to threshold sits at the logistic midpoint
        assert per_packet_error_probability(10 ** (-0.5), -5.0) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_ten_db_above_threshold(self):
        per = per_packet_error_probability(1.0, -10.0)
        assert per == pytest.approx(4.5397868702434395e-05, rel=1e-12)

    def test_infinite_snr(self):
        assert per_packet_error_probability(math.inf, 0.0) == 0.0

    def test_zero_snr_is_certain_loss(self):
        assert per_packet_error_probability(0.0, 0.0) == 1.0

    @pytest.mark.parametrize("threshold", [-1e300, -745.0, 0.0, 745.0, 1e300])
    def test_infinite_snr_at_any_threshold(self, threshold):
        assert per_packet_error_probability(math.inf, threshold) == 0.0
        assert per_packet_error_probability(np.full(3, math.inf), threshold).tolist() == [0.0] * 3

    @pytest.mark.parametrize("threshold", [-1e300, -745.0, 0.0, 745.0, 1e300])
    def test_zero_snr_is_certain_loss_at_any_threshold(self, threshold):
        assert per_packet_error_probability(0.0, threshold) == 1.0
        assert per_packet_error_probability(np.zeros(3), threshold).tolist() == [1.0] * 3

    @given(
        snr=st.lists(st.floats(min_value=0.0), min_size=1, max_size=40),
        threshold=st.floats(-800.0, 800.0),
    )
    @example(snr=[0.0, 1.0, math.inf], threshold=0.0)  # x = +inf, 0 and -inf
    @example(snr=[1.0, 1e-300, 1e300], threshold=709.0)
    @example(snr=[1.0, 1e-300, 1e300], threshold=-709.0)
    @example(snr=[1.0, 1e-300, 1e300], threshold=745.0)
    @example(snr=[1.0, 1e-300, 1e300], threshold=-745.0)
    @settings(max_examples=300, deadline=None)
    def test_within_4_ulp_of_the_c_library_logistic(self, snr, threshold):
        # numpy's SIMD exp is within 4 ulp of the C library's, so the PER is
        # within 4 ulp of 1/(1 + exp(-x)), x = threshold - snr_db, as scipy's
        # expit computed it; snr 1 puts x at the threshold itself
        per = per_packet_error_probability(np.array(snr), threshold)
        with np.errstate(divide="ignore"):
            snr_db = 10.0 * np.log10(snr)
        want = [libm_logistic(threshold - d) for d in snr_db.tolist()]
        np.testing.assert_array_max_ulp(per, np.array(want), maxulp=4)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_decreasing_in_snr(self, a, b):
        lo, hi = sorted((a, b))
        p_lo = per_packet_error_probability(lo, 3.0)
        p_hi = per_packet_error_probability(hi, 3.0)
        assert p_hi <= p_lo

    def test_negative_snr_rejected(self):
        with pytest.raises(InvalidParameterError):
            per_packet_error_probability(-0.1, 0.0)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, -math.inf])
    def test_negative_or_nan_anywhere_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            per_packet_error_probability(np.array([1.0, bad, 2.0]), 0.0)

    def test_negative_zero_and_inf_accepted(self):
        assert per_packet_error_probability(np.array([-0.0, math.inf]), 0.0).tolist() == [1.0, 0.0]

    def test_vectorized(self):
        out = per_packet_error_probability(np.array([1.0, 10.0]), 0.0)
        assert out.shape == (2,)
        assert out[1] < out[0]


def libm_logistic(x: float) -> float:
    """1 / (1 + exp(-x)) with the C library's exp; 0 where that overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def expit_per(snr_linear, threshold_db: float) -> np.ndarray:
    """The PER through scipy.special.expit, the C library's 1/(1 + exp(-x)):
    the reference whose handshake outcomes the numpy logistic must equal."""
    from scipy.special import expit

    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(np.asarray(snr_linear, dtype=float))
    return expit(sim_engine.PER_SLOPE_PER_DB * (threshold_db - snr_db))


def handshake_outcomes(cfg: SimulationConfig, draws, per) -> list:
    """(delivered, legs) of each lossy chunk of draws on cfg's channel, with
    per as the PER that _leg_success_prob calls."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_engine, "per_packet_error_probability", per)
        return [
            handshake_legs(
                cfg.qos_level, _leg_success_prob(cfg, c.z), c.leg_u, cfg.max_retries_per_leg
            )
            for c in draws
        ]


def same_outcomes(cfg: SimulationConfig, draws) -> bool:
    new = handshake_outcomes(cfg, draws, per_packet_error_probability)
    old = handshake_outcomes(cfg, draws, expit_per)
    return all(
        np.array_equal(d, d_old) and np.array_equal(n, n_old)
        for (d, n), (d_old, n_old) in zip(new, old)
    )


@st.composite
def lossy_configs(draw) -> SimulationConfig:
    """A one-tick lossy run of 600 packets at any QoS level, across SNR
    thresholds and noise floors."""
    noise = draw(st.floats(1e-3, 1e3))
    channels = [
        AwgnParams(n0=noise), RayleighParams(sigma=1.0), RicianParams(amplitude=1.0, sigma=0.7)
    ]
    fading = draw(st.sampled_from(channels))
    return make_config(
        duration_s=1.0,
        packets_per_node_per_tick=200,
        seed=draw(st.integers(0, 2**64 - 1)),
        qos_level=draw(st.sampled_from([0, 1, 2])),
        max_retries_per_leg=draw(st.integers(0, 3)),
        fading=fading,
        noise_n0=noise,
        snr_threshold_db=draw(st.floats(-30.0, 30.0)),
    )


class TestLogisticMovesNoOutcome:
    """numpy's exp may differ from the C library's in the last few ulp, so
    the PER may too: every handshake outcome equals scipy expit's."""

    @pytest.mark.parametrize("source", ["fading_compare", "default_compare.json"])
    def test_benchmark_and_shipped_comparisons(self, source, tmp_path):
        from perfbench import workloads

        if source.endswith(".json"):
            doc = cli.load_config_doc(str(SHIPPED / source))
        else:
            doc = workloads.generate(source, 401, tmp_path).config
        base, plan, _ = cli.build_config(doc)
        draws = list(sim_engine._draw_chunks(base, make_state(base).rng, lossy=True))
        lossy = [with_channel(base, k) for k in plan.kinds if k.fading is not None]
        assert lossy and all(sim_engine._lossy(cfg) for cfg in lossy)
        for cfg in lossy:
            assert same_outcomes(cfg, draws), cfg.fading

    @given(cfg=lossy_configs())
    @settings(max_examples=150, deadline=None)
    def test_any_threshold_noise_floor_and_qos_level(self, cfg):
        draws = list(sim_engine._draw_chunks(cfg, make_state(cfg).rng, lossy=True))
        assert same_outcomes(cfg, draws)


class TestChannelGain:
    @pytest.mark.parametrize(
        "kind,params",
        [
            ("rayleigh", RayleighParams(sigma=0.8)),
            ("rician", RicianParams(amplitude=1.5, sigma=0.6, phase=0.3)),
        ],
    )
    def test_simulator_snr_uses_channel_gain(self, kind, params):
        # the simulator's SNR for draws z is |channel_gain(z)|^2 / n0, term for term
        cfg = make_config(fading=params, noise_n0=0.7, snr_threshold_db=1.0)
        z = RngStream(SEED).child("snr").gen.standard_normal((2, 500))
        h = channel_gain(params, z)
        snr = (h.real**2 + h.imag**2) / 0.7
        expect = 1.0 - per_packet_error_probability(snr, 1.0)
        np.testing.assert_array_equal(_leg_success_prob(cfg, z), expect, err_msg=kind)


class TestConfigValidation:
    def test_fading_takes_only_params_or_none(self):
        # a kind name, a JSON-style object or a class is not a channel
        for fading in ("rayleigh", {"sigma": 1.0}, RayleighParams):
            with pytest.raises(InvalidConfigError, match="fading must be"):
                make_config(fading=fading)

    def test_rejects_fractional_tick_count(self):
        with pytest.raises(InvalidConfigError):
            make_config(duration_s=5.5)

    def test_rejects_bad_qos(self):
        with pytest.raises(InvalidConfigError):
            make_config(qos_level=3)

    def test_rejects_tick_shorter_than_handshake_guard(self):
        # worst case 36 legs x one_way must fit inside one tick
        with pytest.raises(InvalidConfigError):
            make_config(base_hop=make_hop(proc=40e-3), tick_s=1.0)

    @pytest.mark.parametrize("tick_s", [0.0, -1.0, 2.0**31, math.inf])
    def test_rejects_tick_outside_int64_time(self, tick_s):
        with pytest.raises(InvalidConfigError, match="tick_s must be in"):
            make_config(tick_s=tick_s)

    def test_runs_the_longest_ticks(self):
        cfg = make_config(tick_s=2.0**30, duration_s=2.0**31, report_window_s=2.0**30)
        records = run_simulation(cfg).records
        assert records.delivered.all()
        assert records.latency_s.min() >= cfg.min_legs() * cfg.one_way_s()

    @pytest.mark.parametrize(
        "t,what", [(2, "the server's backlog"), (5, "a service time")], ids=["backlog", "service"]
    )
    def test_refuses_server_times_beyond_int64(self, t, what):
        # stable (1 packet per 2**30 s against 1e-9 per s), but services
        # average 1e9 s: tick 2 ends its service past 2**31 s from its
        # start, and tick 5 draws a service of more than 2**31 s
        hop = replace(make_hop(proc=0.0), service_rate=1e-9, arrival_rate=1e-12)
        cfg = make_config(
            node_count=1, tick_s=2.0**30, duration_s=2.0**34, report_window_s=2.0**30,
            base_hop=hop, packets_per_node_per_tick=1, qos_level=0, max_retries_per_leg=0,
        )
        with pytest.raises(InvalidConfigError, match=f"^{what} .*overflows int64 time"):
            run_tick(make_state(cfg), t)

    @pytest.mark.parametrize(
        "window,tick_s",
        [(2.5, 1.0), (1.5, 1.0), (10**400, 1.0), (5.0, 0.3)],
        ids=["2.5-ticks", "1.5-ticks", "huge-int", "default-of-0.3-ticks"],
    )
    def test_rejects_window_not_whole_ticks(self, window, tick_s):
        match = "^report_window_s must be .* whole number of ticks"
        with pytest.raises(InvalidConfigError, match=match):
            make_config(tick_s=tick_s, duration_s=3 * tick_s, report_window_s=window)

    @pytest.mark.parametrize("window", [0.5, 1e-7, 1e-300])
    def test_rejects_window_shorter_than_a_tick(self, window):
        # packets are binned by their tick's start, so such a window only
        # adds windows no packet can fall into
        with pytest.raises(InvalidConfigError, match="^report_window_s must be .* >= tick_s"):
            make_config(report_window_s=window)

    def test_rejects_negative_growth(self):
        with pytest.raises(InvalidConfigError):
            make_config(rate_growth_per_tick=-0.01)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration_s": math.inf},
            {"report_window_s": math.inf},
            {"snr_threshold_db": math.nan},
            {"snr_threshold_db": -math.inf},
            {"rate_growth_per_tick": 1e308},
            {"packets_per_node_per_tick": 0, "rate_growth_per_tick": 1e308},
            {"fading": RayleighParams(1.0), "noise_n0": math.inf},
            # finite hop fields whose one_way overflows to inf
            {"base_hop": replace(make_hop(), distance=1e300, propagation_speed=1e-10)},
        ],
    )
    def test_rejects_non_finite(self, overrides):
        # non-finite values overflow the tick arithmetic or make every summary meaningless
        with pytest.raises(InvalidConfigError):
            make_config(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 42.7},
            {"packets_per_node_per_tick": 1.5},
            {"max_retries_per_leg": 1.5},
            {"node_count": 5.5},
            {"node_count": True},
            {"seed": True},
            {"qos_level": True},
            {"qos_level": 2.0},
            {"packets_per_node_per_tick": False},
            {"max_retries_per_leg": np.bool_(True)},
        ],
    )
    def test_rejects_non_integer_integer_fields(self, overrides):
        # a float or bool would run as some other integer or fail deep inside run_tick
        with pytest.raises(InvalidConfigError, match="must be an integer"):
            make_config(**overrides)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(InvalidConfigError, match="seed must fit in 64 bits"):
            make_config(seed=seed)

    EXTREMES = [0, -1, 2**32, 2**64, 10**308, 10**400, 5e-324, 1e308, math.inf, math.nan]

    @pytest.mark.parametrize(
        "field",
        [f.name for f in fields(SimulationConfig) if f.type in ("int", "float", "float | None")],
    )
    @pytest.mark.parametrize("fading", [None, RicianParams(amplitude=1.0, sigma=1.0)])
    def test_extreme_values_pass_or_raise_netsim_errors(self, field, fading):
        # only validation and make_state run: an accepted config may hold
        # more packets than memory, and any other exception is a traceback
        base = make_config(fading=fading, snr_threshold_db=0.0)
        for value in self.EXTREMES:
            try:
                make_state(replace(base, **{field: value}))
            except NetsimError:
                pass

    @pytest.mark.parametrize("field", ["packets_per_node_per_tick", "max_retries_per_leg"])
    def test_huge_counts_blame_their_own_field(self, field):
        with pytest.raises(InvalidConfigError, match=f"^{field} must be in"):
            make_config(**{field: 10**400})

    # one wrongly typed value per field; a field missing here fails the lookup
    ILL_TYPED = {
        "node_count": "3",
        "duration_s": "2",
        "base_hop": {"distance_m": 30.0},
        "seed": None,
        "tick_s": True,
        "fading": RayleighParams,
        "noise_n0": "x",
        "qos_level": "2",
        "packets_per_node_per_tick": 2.0,
        "snr_threshold_db": "x",
        "max_retries_per_leg": np.float64(8.0),
        "rate_jitter": "no",
        "rate_growth_per_tick": "0",
        "report_window_s": "5",
    }

    @pytest.mark.parametrize("field", [f.name for f in fields(SimulationConfig)])
    def test_rejects_ill_typed_field(self, field):
        with pytest.raises(InvalidConfigError, match=f"^{field} must be"):
            make_config(**{field: self.ILL_TYPED[field]})

    def test_real_fields_take_integers_and_rate_jitter_numpy_bools(self):
        reals = dict(
            duration_s=5, tick_s=1, noise_n0=2, snr_threshold_db=0,
            rate_growth_per_tick=0, report_window_s=5,
        )
        rayleigh = RayleighParams(sigma=1.0)
        ints = make_config(**reals, fading=rayleigh, rate_jitter=np.bool_(True))
        floats = make_config(
            **{k: float(v) for k, v in reals.items()}, fading=rayleigh, rate_jitter=True
        )
        assert same_columns(run_simulation(ints).records, run_simulation(floats).records)

    def test_accepts_numpy_integers(self):
        cfg = make_config(node_count=np.int64(3), seed=np.uint64(SEED), qos_level=np.int8(2))
        assert same_columns(run_simulation(cfg).records, run_simulation(make_config()).records)

    def test_server_rate_comes_from_base_hop(self):
        cfg = make_config()
        assert cfg.server_mu() == cfg.base_hop.service_rate


class TestStabilityGate:
    def test_overload_rejected_before_running(self):
        cfg = make_config(
            node_count=5, packets_per_node_per_tick=60, base_hop=make_hop(service=200.0)
        )
        with pytest.raises(InstabilityError):
            make_state(cfg)

    def test_growth_counts_toward_peak_load(self):
        # stable at tick 1, unstable by the last tick
        cfg = make_config(
            node_count=5,
            duration_s=10.0,
            packets_per_node_per_tick=60,
            base_hop=make_hop(service=400.0),
            rate_growth_per_tick=0.05,
        )
        with pytest.raises(InstabilityError):
            make_state(cfg)

    def test_zero_rate_always_allowed(self):
        cfg = make_config(
            packets_per_node_per_tick=0,
            base_hop=make_hop(service=70.0),
            max_retries_per_leg=0,
        )
        make_state(cfg)


def units(*seconds) -> np.ndarray:
    return np.array([round(s * UNITS_PER_S) for s in seconds], dtype=np.int64)


# packet times in units: a few apart, so ties and zero services are common,
# or anywhere in 2**40
PACKET_TIMES = st.one_of(st.integers(0, 4), st.integers(0, 2**40))


class TestCentralServer:
    def test_fifo_wait_accounting(self):
        srv = CentralServer()
        # the second arrival at t=1 waits until t=2; once the backlog
        # clears, the arrival at t=5 is served at once
        assert srv.admit(0, units(0, 1, 5), units(2, 1, 1)).tolist() == units(0, 1, 0).tolist()
        # the backlog carries over to the next batch (next tick), whose
        # arrivals 5.5 and 8 are offsets from its start at 5
        assert srv.free_at == 6 * UNITS_PER_S
        assert srv.admit(units(5), units(0.5, 3), units(1, 1)).tolist() == units(0.5, 0).tolist()
        assert srv.admit(units(9), units(), units()).tolist() == []
        assert srv.free_at == 9 * UNITS_PER_S

    @given(
        batches=st.lists(
            st.tuples(
                # the next origin: soon (a backlog carries over) or after an
                # idle gap, past int64 once several gaps add up
                st.one_of(st.integers(0, 4), st.integers(0, 2**62)),
                st.lists(st.tuples(PACKET_TIMES, PACKET_TIMES), max_size=8),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_admit_equals_the_sequential_recursion(self, batches):
        srv, free_at, origin = CentralServer(), 0, 0
        for gap, packets in batches:
            origin += gap
            arrivals = np.sort(np.array([a for a, _ in packets], dtype=np.int64))
            services = np.array([s for _, s in packets], dtype=np.int64)
            want, free_at = lindley_waits(
                free_at, [origin + a for a in arrivals.tolist()], services.tolist()
            )
            got = srv.admit(origin, arrivals, services)
            assert got.dtype == np.int64 and got.tolist() == want
            assert srv.free_at == free_at


class TestRunTick:
    def test_tick_bounds(self):
        state = make_state(make_config())
        with pytest.raises(InvalidParameterError):
            run_tick(state, 0)
        with pytest.raises(InvalidParameterError):
            run_tick(state, 6)

    def test_offered_count_exact(self):
        cfg = make_config(node_count=5, packets_per_node_per_tick=17)
        state = make_state(cfg)
        assert len(run_tick(state, 1)) == 85

    def test_perfect_channel_qos0_single_leg(self):
        cfg = make_config(qos_level=0)
        res = run_simulation(cfg)
        assert summarize_rtt(res.records).count == len(res.records)
        assert all(r.attempts == 1 for r in res.records)

    def test_rate_jitter_bounds(self):
        cfg = make_config(packets_per_node_per_tick=100, rate_jitter=True)
        state = make_state(cfg)
        for t in range(1, 6):
            assert 3 * 80 <= len(run_tick(state, t)) <= 3 * 120

    def test_rate_growth_schedule(self):
        cfg = make_config(
            node_count=1,
            packets_per_node_per_tick=100,
            rate_growth_per_tick=0.1,
            base_hop=make_hop(service=2000.0),
        )
        assert [cfg.rate_at_tick(t) for t in (1, 2, 5)] == [100, 110, 140]
        state = make_state(cfg)
        assert len(run_tick(state, 2)) == 110


DOMAINS = (DOMAIN_PACKET, DOMAIN_SERVER, DOMAIN_RATE_JITTER, DOMAIN_CHANNEL, DOMAIN_LEG)


def lindley_waits(free_at: int, arrivals, services) -> tuple[list[int], int]:
    """The FIFO server's recursion, one packet at a time on Python ints:
    (waits, free_at after them) for absolute arrivals in arrival order."""
    waits = []
    for arrival, service in zip(arrivals, services):
        start = max(free_at, arrival)
        free_at = start + service
        waits.append(start - arrival)
    return waits, free_at


def ref_run_tick(state, t, jitter_u=None) -> PacketColumns:
    """run_tick as a plain per-node loop: the tick builds one plain numpy
    Philox per domain, at the substream's counter (0, domain, 0, t) under
    the run's key (RngStream(seed).key), and each node in turn draws its
    jitter, send times, channel normals, leg uniforms and services from
    them, whatever the channel; the handshake always runs.
    Times are quantized to 2**-32 s as the engine does, and the server is
    the sequential Lindley loop.  jitter_u, if given, stands in for the
    jitter stream's uniforms."""
    cfg = state.config
    unit = 2**32
    one_way_q = math.ceil(compute_rtt([cfg.base_hop]).one_way * unit)
    tick_start = (t - 1) * cfg.tick_s
    span = cfg.tick_s - cfg.max_total_legs() * one_way_q / unit
    leg_rows = handshake_rows(cfg.qos_level, cfg.max_retries_per_leg)
    base = cfg.rate_at_tick(t)
    lo, hi = RATE_JITTER_SPAN
    mean_service = 1.0 / cfg.server_mu()
    key = RngStream(cfg.seed).key
    gen = {
        d: np.random.Generator(
            np.random.Philox(key=key, counter=np.array([0, d, 0, t], dtype=np.uint64))
        )
        for d in DOMAINS
    }
    u_send, z, leg_u, service = [], [], [], []
    for node in range(1, cfg.node_count + 1):
        n_pkts = base
        if cfg.rate_jitter:
            u = gen[DOMAIN_RATE_JITTER].random()
            if jitter_u is not None:
                u = jitter_u[node - 1]
            n_pkts = int(round(base * (lo + (hi - lo) * u)))
        u_send.append(gen[DOMAIN_PACKET].random(n_pkts))
        z.append(gen[DOMAIN_CHANNEL].standard_normal((n_pkts, 2)))
        leg_u.append(gen[DOMAIN_LEG].random((n_pkts, leg_rows)))
        service.append(gen[DOMAIN_SERVER].exponential(mean_service, n_pkts))

    z = np.concatenate(z).T
    p_leg = np.ones(z.shape[1])
    if cfg.fading is not None and cfg.snr_threshold_db is not None:
        p_leg = _leg_success_prob(cfg, z)
    delivered, legs = handshake_legs(
        cfg.qos_level, p_leg, np.concatenate(leg_u).T, cfg.max_retries_per_leg
    )
    send = np.rint(np.concatenate(u_send) * span * unit).astype(np.int64)
    service = np.rint(np.concatenate(service) * unit).astype(np.int64)
    origin = round(tick_start * unit)
    arrival = send + legs * one_way_q
    queued = np.flatnonzero(delivered)
    queued = queued[np.argsort(arrival[queued], kind="stable")]
    arrived = [origin + a for a in arrival[queued].tolist()]
    waits, state.server.free_at = lindley_waits(
        state.server.free_at, arrived, service[queued].tolist()
    )
    latency = np.zeros(len(send), dtype=np.int64)
    for i, wait in zip(queued.tolist(), waits):
        latency[i] = int(legs[i]) * one_way_q + wait
    send_s = tick_start + send / unit
    ticks = np.full(len(send), t, dtype=np.int64)
    return PacketColumns(float(cfg.tick_s), ticks, send_s, legs, delivered, latency)


CHANNELS = [
    FadingSpec("none", None),
    FadingSpec("awgn", AwgnParams(n0=1.0)),
    FadingSpec("rayleigh", RayleighParams(sigma=1.0), noise_n0=1.0),
    FadingSpec("rician", RicianParams(amplitude=1.0, sigma=0.7), noise_n0=1.0),
]


def with_channel(cfg: SimulationConfig, spec: FadingSpec) -> SimulationConfig:
    noise_n0 = cfg.noise_n0 if spec.noise_n0 is None else spec.noise_n0
    return replace(cfg, fading=spec.fading, noise_n0=noise_n0)


@st.composite
def tick_configs(draw) -> SimulationConfig:
    """Small runs over every QoS level, jitter and growth setting and
    channel; 0-6 packets per node, with or without an SNR threshold."""
    cfg = make_config(
        node_count=draw(st.integers(1, 4)),
        duration_s=float(draw(st.integers(1, 3))),
        seed=draw(st.integers(0, 2**64 - 1)),
        qos_level=draw(st.sampled_from([0, 1, 2])),
        packets_per_node_per_tick=draw(st.integers(0, 6)),
        max_retries_per_leg=draw(st.integers(0, 3)),
        rate_jitter=draw(st.booleans()),
        rate_growth_per_tick=draw(st.sampled_from([0.0, 0.3, 1.0])),
        snr_threshold_db=draw(st.sampled_from([None, -3.0, 0.0, 4.0])),
    )
    return with_channel(cfg, draw(st.sampled_from(CHANNELS)))


class TestTickMatchesPerNodeReference:
    """Bit-identity: run_tick skips the draws a lossless channel never reads
    and takes each domain's draws of a tick in one call, and still returns,
    column for column, what the plain per-node loop returns."""

    @given(cfg=tick_configs())
    @settings(max_examples=150, deadline=None)
    def test_every_tick_equals_the_reference(self, cfg):
        state, ref = make_state(cfg), make_state(cfg)
        for t in range(1, cfg.n_ticks() + 1):
            assert same_columns(run_tick(state, t), ref_run_tick(ref, t))
        assert state.server.free_at == ref.server.free_at

    @pytest.mark.parametrize("threshold", [None, -10.0])
    def test_compare_fading_equals_the_reference(self, threshold):
        base = make_config(
            node_count=4,
            duration_s=4.0,
            packets_per_node_per_tick=5,
            rate_jitter=True,
            rate_growth_per_tick=0.5,
            snr_threshold_db=threshold,
            max_retries_per_leg=2,
        )
        times = [0.5, 2.0, 3.5, 4.0]
        want = []
        for spec in CHANNELS:
            ref = make_state(with_channel(base, spec))
            ticks = [ref_run_tick(ref, t) for t in range(1, base.n_ticks() + 1)]
            want.append(mean_latency_so_far(PacketColumns.concat(ticks), times))
        got = compare_fading(base, CHANNELS, times)
        assert np.array_equal(got, np.array(want, dtype=float).T, equal_nan=True)

    def test_jitter_on_a_half_rounds_to_even(self):
        # base 5 spans [4, 6); these uniforms put the product exactly on 4.5 and
        # 5.5, which round (and rint) take to 4 and 6
        lo, hi = RATE_JITTER_SPAN
        u = [0.25, 0.7500000000000003]
        assert [5.0 * (lo + (hi - lo) * x) for x in u] == [4.5, 5.5]
        cfg = make_config(node_count=2, packets_per_node_per_tick=5, rate_jitter=True)
        state = make_state(cfg)
        state.rng = JitterStub(state.rng.key, u)
        got = run_tick(state, 1)
        assert len(got) == 4 + 6
        assert same_columns(got, ref_run_tick(make_state(cfg), 1, jitter_u=u))


class _StubGenerator:
    """A generator whose random() returns fixed uniforms."""

    def __init__(self, u):
        self._u = u

    def random(self, n):
        assert n == len(self._u)
        return np.array(self._u)


class JitterStub(SubstreamGenerator):
    """Draws the jitter stream's uniforms from a list, every other stream as usual."""

    def __init__(self, key, jitter_u):
        super().__init__(key)
        self.jitter_u = jitter_u

    def at(self, stream_id):
        if stream_id[0] == DOMAIN_RATE_JITTER:
            return _StubGenerator(self.jitter_u)
        return super().at(stream_id)


class _RecordingGenerator:
    """A generator that notes the name of every draw made on it."""

    def __init__(self, gen, draws: list):
        self._gen, self._draws = gen, draws

    def __getattr__(self, name):
        self._draws.append(name)
        return getattr(self._gen, name)


class RecordingSubstreamGenerator(SubstreamGenerator):
    """Records, per at(), the stream id and the draws made on that substream."""

    def __init__(self, key):
        super().__init__(key)
        self.streams: list[tuple[tuple, list[str]]] = []

    def at(self, stream_id):
        self.streams.append((tuple(stream_id), []))
        return _RecordingGenerator(super().at(stream_id), self.streams[-1][1])


class TestDrawsPerTick:
    """A tick moves the generator once per domain it draws from, whatever
    the node count: a lossless tick draws only what it reads, and a lossy
    one adds the channel normals and the leg uniforms."""

    def streams(self, nodes, t=2, **overrides) -> list[tuple[tuple, list[str]]]:
        cfg = make_config(
            node_count=nodes, packets_per_node_per_tick=3, rate_jitter=True,
            base_hop=make_hop(service=5000.0), **overrides,
        )
        state = make_state(cfg)
        state.rng = RecordingSubstreamGenerator(state.rng.key)
        assert len(run_tick(state, t)) > 0
        return state.rng.streams

    @pytest.mark.parametrize("nodes", [1, 40, 600])
    @pytest.mark.parametrize("spec", CHANNELS, ids=lambda s: s.label)
    def test_lossless_jittered_tick_moves_three_times(self, spec, nodes):
        # the ideal channel is lossless even with a threshold; the others without one
        threshold = 0.0 if spec.fading is None else None
        streams = self.streams(nodes, fading=spec.fading, snr_threshold_db=threshold)
        assert streams == [
            ((DOMAIN_RATE_JITTER, 0, 2), ["random"]),
            ((DOMAIN_PACKET, 0, 2), ["random"]),
            ((DOMAIN_SERVER, 0, 2), ["exponential"]),
        ]

    @pytest.mark.parametrize("nodes", [1, 40, 600])
    @pytest.mark.parametrize("spec", CHANNELS[1:], ids=lambda s: s.label)
    def test_lossy_tick_moves_five_times(self, spec, nodes):
        streams = self.streams(nodes, fading=spec.fading, snr_threshold_db=0.0)
        assert streams == [
            ((DOMAIN_RATE_JITTER, 0, 2), ["random"]),
            ((DOMAIN_PACKET, 0, 2), ["random"]),
            ((DOMAIN_SERVER, 0, 2), ["exponential"]),
            ((DOMAIN_CHANNEL, 0, 2), ["standard_normal"]),
            ((DOMAIN_LEG, 0, 2), ["random"]),
        ]


class TestConservationAndInvariants:
    def test_delivered_plus_lost_equals_offered(self):
        cfg = make_config(
            fading=RayleighParams(sigma=1.0),
            noise_n0=4.0,
            snr_threshold_db=-10.0,
            max_retries_per_leg=2,
        )
        res = run_simulation(cfg)
        reports = windowed_series(
            res.records, cfg.tick_s, cfg.base_hop.packet_length, span_s=cfg.duration_s
        )
        assert len(reports) == cfg.n_ticks()
        assert sum(r.sent for r in reports) == len(res.records)
        for rep in reports:
            assert rep.lost == rep.sent - rep.delivered
        delivered = summarize_rtt(res.records).count
        assert sum(r.delivered for r in reports) == delivered
        assert len(res.records) - delivered > 0  # this config does lose packets

    def test_delivered_implies_positive_latency_and_attempts(self):
        cfg = make_config(
            fading=RicianParams(amplitude=1.0, sigma=1.0),
            noise_n0=8.0,
            snr_threshold_db=-10.0,
        )
        res = run_simulation(cfg)
        for r in res.records:
            assert r.attempts >= 1
            if r.delivered:
                assert r.latency_s > 0
            else:
                assert math.isnan(r.latency_s)

    def test_latency_floor(self):
        cfg = make_config(fading=AwgnParams(n0=3.0), snr_threshold_db=-8.0)
        floor = cfg.min_legs() * cfg.one_way_s()
        res = run_simulation(cfg)
        lat = [r.latency_s for r in res.records if r.delivered]
        assert min(lat) >= floor

    @pytest.mark.parametrize("lossy", [False, True])
    @pytest.mark.parametrize("t", [2, 2**19 - 1, 2**19, 2**20])
    def test_latency_floor_late_ticks(self, t, lossy):
        # the shipped config run for 2**20 s; a float clock adding travel to
        # send times near 2**19 s undershot the floor for most packets
        doc = cli.load_config_doc(str(SHIPPED / "default_simulate.json"))
        cfg = cli.build_config({**doc, "duration_s": 2.0**20})[0]
        if lossy:
            cfg = with_channel(replace(cfg, snr_threshold_db=-10.0), CHANNELS[2])
        records = run_tick(make_state(cfg), t)
        assert records.delivered.sum() > 250
        assert records.latency_s[records.delivered].min() >= cfg.min_legs() * cfg.one_way_s()

    def test_summary_order(self):
        s = summarize_rtt(run_simulation(make_config()).records)
        assert s.min_ms <= s.avg_ms <= s.max_ms

    def test_zero_rate_run_is_empty(self):
        cfg = make_config(packets_per_node_per_tick=0)
        res = run_simulation(cfg)
        assert len(res.records) == 0 and not res.records
        assert summarize_rtt(res.records).avg_ms is None
        reports = windowed_series(
            res.records, cfg.tick_s, cfg.base_hop.packet_length, span_s=cfg.duration_s
        )
        assert len(reports) == cfg.n_ticks()
        assert all(r.avg_latency_ms is None for r in reports)


class TestDeterminismAndIsolation:
    def test_identical_runs_identical_records(self):
        cfg = make_config(
            fading=RayleighParams(sigma=1.0),
            noise_n0=2.0,
            snr_threshold_db=-10.0,
        )
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert not a.records.delivered.all()  # lost packets compare too
        assert same_columns(a.records, b.records)

    def test_seed_changes_output(self):
        cfg = make_config()
        a = run_simulation(cfg)
        b = run_simulation(replace(cfg, seed=SEED + 1))
        assert [r.send_time_s for r in a.records] != [r.send_time_s for r in b.records]

    @pytest.mark.parametrize("qos_level", [0, 1, 2])
    @pytest.mark.parametrize("rate_jitter", [False, True])
    def test_adding_node_preserves_prior_outcomes(self, rate_jitter, qos_level):
        # records come in (node, packet) order within a tick, so the N-node
        # tick is a prefix of the (N+1)-node tick; latency is excluded
        # because all nodes share the server queue
        cfg = make_config(
            fading=RicianParams(amplitude=1.0, sigma=1.0),
            noise_n0=8.0,
            snr_threshold_db=-10.0,
            rate_jitter=rate_jitter,
            qos_level=qos_level,
        )
        small = make_state(cfg)
        big = make_state(replace(cfg, node_count=cfg.node_count + 1))

        def outcomes(state, t):
            return [(r.send_time_s, r.attempts, r.delivered) for r in run_tick(state, t)]

        for t in range(1, cfg.n_ticks() + 1):
            prior = outcomes(small, t)
            grown = outcomes(big, t)
            assert len(grown) > len(prior)
            assert grown[: len(prior)] == prior

    @given(cfg=tick_configs(), added=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_adding_nodes_preserves_prior_outcomes_on_every_config(self, cfg, added):
        # every channel, QoS level, jitter and growth setting: each stream is
        # laid out packet by packet, so the N-node tick is a prefix of the
        # tick with more nodes
        small = make_state(cfg)
        big = make_state(replace(cfg, node_count=cfg.node_count + added))

        def outcomes(state, t):
            return [(r.send_time_s, r.attempts, r.delivered) for r in run_tick(state, t)]

        for t in range(1, cfg.n_ticks() + 1):
            prior = outcomes(small, t)
            assert outcomes(big, t)[: len(prior)] == prior

    def test_interleaved_runs_match_runs_alone(self):
        # each state moves its own generator, so two runs never share draws
        cfgs = [make_config(rate_jitter=True), make_config(rate_jitter=True, seed=SEED + 1)]
        alone = [run_simulation(cfg).records for cfg in cfgs]
        states = [make_state(cfg) for cfg in cfgs]
        interleaved = [[], []]
        for t in range(1, cfgs[0].n_ticks() + 1):
            for i in (1, 0):
                interleaved[i].append(run_tick(states[i], t))
        for ticks, records in zip(interleaved, alone):
            assert same_columns(PacketColumns.concat(ticks), records)
        assert not np.array_equal(alone[0].send_time_s, alone[1].send_time_s)

    def test_runs_in_two_threads_match_runs_alone(self):
        # a generator shared between runs would mix one run's at() into
        # the other's draws once the threads switch often enough
        cfgs = [
            make_config(
                node_count=200, packets_per_node_per_tick=2, rate_jitter=True, seed=SEED + i
            )
            for i in range(2)
        ]
        alone = [run_simulation(cfg).records for cfg in cfgs]
        threaded = [None, None]

        def run(i):
            threaded[i] = run_simulation(cfgs[i]).records

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(same_columns(a, b) for a, b in zip(threaded, alone))

    def test_many_node_run_builds_no_seed_sequence(self, monkeypatch):
        # no substream builds a seed sequence: the run's one key comes from
        # one, and every substream is a counter under that key
        built = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        cfg = make_config(
            node_count=600,
            duration_s=2.0,
            packets_per_node_per_tick=1,
            rate_jitter=True,
            base_hop=make_hop(service=5000.0),
        )
        assert len(run_simulation(cfg).records) == 1200
        assert len(built) == 1


class TestRecordColumns:
    def test_one_tick_retains_at_most_64_bytes_per_packet(self):
        # five columns of 8 + 8 + 8 + 1 + 8 bytes; per-packet objects would
        # cost several times that
        cfg = make_config(
            node_count=4,
            duration_s=1.0,
            packets_per_node_per_tick=1500,
            base_hop=make_hop(service=10_000.0),
        )
        run_simulation(make_config())  # numpy.random imports its generator lazily
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = run_simulation(cfg)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(res.records) == 6000
        assert retained / len(res.records) <= 64

    @pytest.mark.parametrize("ticks", [150, 600])
    def test_a_run_holds_one_chunks_draws(self, ticks):
        # a run draws and resolves one chunk at a time: at its peak it holds
        # its columns twice (the chunks' and their concatenation) and one
        # chunk's draws and temporaries, ~1 MB whatever the duration; the
        # whole run as one chunk peaks 6.6 MB over at 150 ticks, 26 MB at 600
        doc = cli.load_config_doc(str(SHIPPED / "default_compare.json"))
        base, plan, _ = cli.build_config({**doc, "duration_s": float(ticks)})
        cfg = with_channel(base, plan.kinds[1])
        assert sim_engine._lossy(cfg)
        run_simulation(replace(cfg, duration_s=1.0))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = run_simulation(cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(res.records) == 300 * ticks
        column_bytes = sum(getattr(res.records, f).nbytes for f in sim_engine._COLUMNS)
        assert peak <= 2 * column_bytes + 3 * 2**20

    def test_an_idle_runs_peak_does_not_grow_with_its_duration(self, monkeypatch):
        # a chunk ends on packets, so an idle run would be one chunk holding
        # every tick's empty draws (~400 B a tick: 4x the peak at 4x the
        # ticks); a chunk holds at most _CHUNK_PACKETS ticks, lowered here so
        # that both runs take several chunks and stay short
        monkeypatch.setattr(sim_engine, "_CHUNK_PACKETS", 256)
        run_simulation(make_config())
        peaks = []
        for ticks in (1_000, 4_000):
            cfg = make_config(duration_s=float(ticks), packets_per_node_per_tick=0)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                res = run_simulation(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert len(res.records) == 0
        assert peaks[1] < 1.5 * peaks[0]

    def test_benchmark_statistics_read_the_columns(self):
        # perfbench reads records by iteration (model_stats) and truth test
        # (record_bytes); both must agree with the columns
        from perfbench import measure
        from perfbench.run import model_stats, record_bytes

        cfg = make_config(
            node_count=4,
            duration_s=2.0,
            packets_per_node_per_tick=500,
            base_hop=make_hop(service=5000.0),
            fading=RayleighParams(sigma=1.0),
            noise_n0=4.0,
            snr_threshold_db=-10.0,
            max_retries_per_leg=2,
        )
        res = run_simulation(cfg)
        rec = res.records
        lat_ms = (rec.latency_s[rec.delivered] * 1e3).tolist()
        assert 0 < len(lat_ms) < len(rec)
        assert model_stats([res], cfg) == {
            "model.delivered_ratio": len(lat_ms) / len(rec),
            "model.legs_per_packet": int(rec.attempts.sum()) / len(rec),
            "model.server_utilization": len(lat_ms) / (cfg.server_mu() * cfg.duration_s),
            "model.latency_ms_p50": measure.percentile(lat_ms, 0.5),
            "model.latency_ms_p99": measure.percentile(lat_ms, 0.99),
        }
        # record_bytes measures a one-tick run: the columns plus a few kB of
        # fixed objects (array headers, the interpreter's free lists)
        tick = run_simulation(replace(cfg, duration_s=cfg.tick_s)).records
        column_bytes = sum(getattr(tick, f).nbytes for f in sim_engine._COLUMNS) / len(tick)
        assert column_bytes <= record_bytes(cfg) <= column_bytes + 8


class TestServerFifo:
    def test_loaded_server_starts_in_arrival_order(self):
        # retries spread arrivals away from send order; at utilization >= 0.9
        # the queue is long, so any other admit order shows in the starts
        cfg = make_config(
            node_count=5,
            packets_per_node_per_tick=190,
            fading=AwgnParams(n0=0.1),
            snr_threshold_db=7.0,
        )
        state = make_state(cfg)
        one_way = cfg.one_way_s()
        tol = 4 * math.ulp(cfg.duration_s)
        delivered = retried = 0
        for t in range(1, cfg.n_ticks() + 1):
            recs = [r for r in run_tick(state, t) if r.delivered]
            recs.sort(key=lambda r: r.send_time_s + r.attempts * one_way)
            starts = np.array([r.send_time_s + r.latency_s for r in recs])
            assert np.all(np.diff(starts) >= -tol)
            delivered += len(recs)
            retried += sum(r.attempts > cfg.min_legs() for r in recs)
        assert delivered / (cfg.server_mu() * cfg.duration_s) >= 0.9
        assert retried > 0


@st.composite
def tied_ticks(draw) -> tuple[list[int], list[int]]:
    """A tick's (send offsets, services) in units, in (node, packet) order.
    Sends come from a pool of 1-3 values a whole number of legs apart, so
    many packets, whatever their leg counts, share an arrival unit."""
    one_way = make_config()._one_way_q
    pool = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    packets = draw(
        st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 2 * one_way)), max_size=40)
    )
    return [k * one_way for k, _ in packets], [s for _, s in packets]


# lossless, and lossy QoS 2 with up to 12 legs: packets retry, and some are lost
TIE_CONFIGS = [
    make_config(),
    make_config(
        qos_level=2,
        max_retries_per_leg=2,
        fading=RayleighParams(sigma=1.0),
        snr_threshold_db=0.0,
    ),
]


class TestServerOrderOnTiedArrivals:
    """Packets that arrive in the same time unit are served in (node,
    packet) order: every latency and the server's free_at are those of
    the sequential recursion over the stable (arrival, index) order."""

    @pytest.mark.parametrize("cfg", TIE_CONFIGS, ids=["lossless", "lossy"])
    @given(tick=tied_ticks(), backlog=st.integers(0, 2**24), seed=st.integers(0, 2**32 - 1))
    @example(tick=([], []), backlog=0, seed=0)
    @example(tick=([0], [5]), backlog=7, seed=0)
    @example(tick=([0] * 12, list(range(1, 13))), backlog=0, seed=1)
    @settings(max_examples=200, deadline=None)
    def test_latencies_follow_the_stable_arrival_order(self, cfg, tick, backlog, seed):
        send, service = (np.array(x, dtype=np.int64) for x in tick)
        n = len(send)
        z = leg_u = None
        if sim_engine._lossy(cfg):
            gen = np.random.default_rng(seed)
            z = gen.standard_normal((2, n))
            leg_u = gen.random((handshake_rows(cfg.qos_level, cfg.max_retries_per_leg), n))
        t = 2
        state = make_state(cfg)
        origin = round((t - 1) * cfg.tick_s * UNITS_PER_S)
        state.server.free_at = origin + backlog
        draws = _ChunkDraws(t, np.array([n]), send, z, leg_u, service)
        got = sim_engine._resolve(cfg, state.server, draws)

        legs = got.attempts.tolist()
        arrival = [s + k * cfg._one_way_q for s, k in zip(send.tolist(), legs)]
        queued = sorted(np.flatnonzero(got.delivered).tolist(), key=lambda i: (arrival[i], i))
        waits, free_at = lindley_waits(
            origin + backlog, [origin + arrival[i] for i in queued], service[queued].tolist()
        )
        want = np.zeros(n, dtype=np.int64)
        for i, wait in zip(queued, waits):
            want[i] = legs[i] * cfg._one_way_q + wait
        assert np.array_equal(got.latency_q, want)
        assert state.server.free_at == free_at


class TestQosMeansMatchAnalytic:
    """Engine leg counts against the capped-geometric closed forms."""

    BUDGET = 9  # max_retries_per_leg=8

    @staticmethod
    def _awgn_half_prob_config(**kw):
        # n0=1 and threshold 0 dB puts every leg exactly at p=0.5
        return make_config(
            node_count=5,
            duration_s=4.0,
            packets_per_node_per_tick=200,
            base_hop=make_hop(service=4000.0),
            fading=AwgnParams(n0=1.0),
            snr_threshold_db=0.0,
            **kw,
        )

    def test_qos2_mean_legs(self):
        p, b = 0.5, self.BUDGET
        e_leg = (1 - (1 - p) ** b) / p
        q = 1 - (1 - p) ** b
        expect = e_leg * (1 + q + q**2 + q**3)
        res = run_simulation(self._awgn_half_prob_config())
        legs = np.array([r.attempts for r in res.records])
        se = legs.std(ddof=1) / math.sqrt(len(legs))
        assert abs(legs.mean() - expect) < 3 * se + 1e-9

    def test_qos1_delivery_and_legs(self):
        p, b = 0.5, self.BUDGET
        res = run_simulation(self._awgn_half_prob_config(qos_level=1))
        delivered = np.array([r.delivered for r in res.records])
        expect_del = 1 - (1 - p) ** b
        se = math.sqrt(expect_del * (1 - expect_del) / len(delivered))
        assert abs(delivered.mean() - expect_del) < 3 * se + 1e-9
        legs = np.array([r.attempts for r in res.records])
        both = p * p
        expect_attempts = (1 - (1 - both) ** b) / both
        se_l = legs.std(ddof=1) / math.sqrt(len(legs))
        assert abs(legs.mean() - 2 * expect_attempts) < 3 * se_l + 1e-9

    def test_qos0_delivery(self):
        res = run_simulation(self._awgn_half_prob_config(qos_level=0))
        delivered = np.array([r.delivered for r in res.records])
        se = math.sqrt(0.25 / len(delivered))
        assert abs(delivered.mean() - 0.5) < 3 * se
        assert all(r.attempts == 1 for r in res.records)


class TestTrafficLoopback:
    """The loopback capacity profile: a perfect channel at a fixed rate
    (5 nodes x 60 packets per 1 s tick = 300 pps) in 5 s windows."""

    @staticmethod
    def windows(cfg):
        records = run_simulation(cfg).records
        return windowed_series(records, 5.0, cfg.base_hop.packet_length, span_s=cfg.duration_s)

    def test_constant_rate_fills_every_three_tick_window_alike(self):
        # 3.0 s is 30 ticks of 0.1 s, and 3.0 / 0.3 is just above 10 as
        # doubles: the run reports exactly 10 windows of 3 ticks, each with
        # the same count and throughput
        cfg = make_config(
            node_count=5, duration_s=3.0, tick_s=0.1, report_window_s=0.3,
            packets_per_node_per_tick=6, max_retries_per_leg=0,
        )
        reports = windowed_series(
            run_simulation(cfg).records, cfg.report_window_s, cfg.base_hop.packet_length,
            span_s=cfg.duration_s,
        )
        assert len(reports) == 10
        assert {(r.window_len_s, r.sent, r.lost) for r in reports} == {(0.3, 90, 0)}
        assert len({r.throughput_bps for r in reports}) == 1

    def test_default_profile_exact_windows(self):
        cfg = make_config(node_count=5, duration_s=60.0, packets_per_node_per_tick=60)
        reports = self.windows(cfg)
        assert len(reports) == 12
        for rep in reports:
            assert rep.sent == 1500
            assert rep.lost == 0

    def test_zero_rate(self):
        cfg = make_config(node_count=5, duration_s=10.0, packets_per_node_per_tick=0)
        reports = self.windows(cfg)
        assert len(reports) == 2
        assert all(r.sent == 0 for r in reports)

    def test_overload_rejected_before_running(self):
        cfg = make_config(
            node_count=5, packets_per_node_per_tick=60, base_hop=make_hop(service=200.0)
        )
        with pytest.raises(InstabilityError):
            make_state(cfg)
        with pytest.raises(InstabilityError):
            run_simulation(cfg)


class TestCompareFading:
    KINDS = [
        FadingSpec("none", None),
        FadingSpec("rayleigh", RayleighParams(sigma=1.0), noise_n0=2.540456),
        FadingSpec("rician", RicianParams(amplitude=1.0, sigma=1.0), noise_n0=8.832145),
        FadingSpec("awgn", AwgnParams(n0=7.761589)),
    ]

    @staticmethod
    def base(seed=SEED):
        return SimulationConfig(
            node_count=5,
            duration_s=10.0,
            base_hop=make_hop(proc=0.00019053615511625756),
            seed=seed,
            packets_per_node_per_tick=60,
            snr_threshold_db=-10.0,
        )

    def test_identical_kinds_identical_columns(self):
        kinds = [
            FadingSpec("a", RayleighParams(sigma=1.0), noise_n0=2.0),
            FadingSpec("b", RayleighParams(sigma=1.0), noise_n0=2.0),
        ]
        out = compare_fading(self.base(), kinds, [2.0, 6.0, 10.0])
        np.testing.assert_array_equal(out[:, 0], out[:, 1])

    def test_shipped_ordering_holds_spot(self):
        for seed in (1, 2, 3):
            m = compare_fading(self.base(seed), self.KINDS, [2.0, 6.0, 10.0])
            for row in m:
                assert row[0] < row[1] < row[2] < row[3]

    def test_none_column_constant_scale(self):
        col = compare_fading(self.base(), self.KINDS[:1], [2.0, 10.0])[:, 0]
        # perfect channel: 4 legs x one_way plus a small queue wait
        floor = 4 * self.base().one_way_s() * 1e3
        assert all(floor < v < floor + 2.0 for v in col)

    def test_idle_cells_are_nan(self):
        idle = replace(self.base(), packets_per_node_per_tick=0)
        assert np.isnan(compare_fading(idle, self.KINDS[:2], [2.0, 10.0])).all()

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            compare_fading(self.base(), [], [2.0])
        with pytest.raises(InvalidConfigError):
            compare_fading(self.base(), self.KINDS[:2], [])
        with pytest.raises(InvalidConfigError):
            compare_fading(self.base(), self.KINDS[:2], [4.0, 2.0])
        with pytest.raises(InvalidConfigError):
            compare_fading(self.base(), self.KINDS[:2], [2.0, 11.0])
        dup = [self.KINDS[0], FadingSpec("none", None)]
        with pytest.raises(InvalidConfigError):
            compare_fading(self.base(), dup, [2.0])



@st.composite
def kind_sets(draw) -> list[FadingSpec]:
    """A non-empty subset of CHANNELS in a random order."""
    return draw(st.lists(st.sampled_from(CHANNELS), min_size=1, unique_by=lambda s: s.label))


class CountingSubstreams(SubstreamGenerator):
    """Counts at() calls over every instance."""

    visits = 0

    def at(self, stream_id):
        CountingSubstreams.visits += 1
        return super().at(stream_id)


class TestSharedDraws:
    """compare_fading draws each tick once; every kind reads those draws and
    gets exactly what its own run_simulation gives."""

    @given(cfg=tick_configs(), kinds=kind_sets())
    @settings(max_examples=100, deadline=None)
    def test_columns_equal_standalone_runs_in_any_order(self, cfg, kinds):
        times = [cfg.duration_s * f for f in (0.3, 0.7, 1.0)]
        got = compare_fading(cfg, kinds, times)
        want = [
            mean_latency_so_far(run_simulation(with_channel(cfg, k)).records, times)
            for k in kinds
        ]
        assert np.array_equal(got, np.array(want, dtype=float).T, equal_nan=True)
        # a resolve step that wrote to the shared draws would move later columns
        flipped = compare_fading(cfg, kinds[::-1], times)
        assert np.array_equal(flipped, got[:, ::-1], equal_nan=True)

    @pytest.mark.parametrize("n_kinds", [1, 2, 4])
    @pytest.mark.parametrize("threshold", [None, 0.0])
    def test_rekeys_do_not_grow_with_kinds(self, monkeypatch, n_kinds, threshold):
        monkeypatch.setattr(sim_engine, "SubstreamGenerator", CountingSubstreams)
        monkeypatch.setattr(CountingSubstreams, "visits", 0)
        cfg = make_config(
            node_count=5, duration_s=3.0, rate_jitter=True, snr_threshold_db=threshold
        )
        compare_fading(cfg, CHANNELS[:n_kinds], [3.0])
        # jitter, sends and services, plus normals and leg uniforms when a kind is lossy
        lossy = threshold is not None and n_kinds > 1
        assert CountingSubstreams.visits == (5 if lossy else 3) * cfg.n_ticks()

    @pytest.mark.parametrize("threshold", [None, 0.0])
    def test_kinds_build_no_generator_of_their_own(self, monkeypatch, threshold):
        # the kinds resolve base's draws: one key and one generator per call
        built = []
        substreams = sim_engine.SubstreamGenerator

        def counting(key):
            built.append(key)
            return substreams(key)

        monkeypatch.setattr(sim_engine, "SubstreamGenerator", counting)
        cfg = make_config(rate_jitter=True, snr_threshold_db=threshold)
        compare_fading(cfg, CHANNELS, [cfg.duration_s])
        assert len(built) == 1

    LOSSY = dict(snr_threshold_db=0.0, rate_jitter=True, max_retries_per_leg=2)

    def test_any_channel_reads_lossy_draws_lossless_ones_lossless(self):
        cfg = make_config(**self.LOSSY)
        rng = make_state(cfg).rng
        lossy = list(sim_engine._draw_chunks(cfg, rng, lossy=True))
        lossless = list(sim_engine._draw_chunks(cfg, rng, lossy=False))
        for spec in CHANNELS:
            kind = replace(with_channel(cfg, spec), noise_n0=3.0)
            want = run_simulation(kind).records
            assert same_columns(run_simulation(kind, draws=lossy).records, want)
            if spec.fading is None:
                assert same_columns(run_simulation(kind, draws=lossless).records, want)

    def test_benchmark_captures_one_result_per_kind(self, tmp_path):
        # perfbench's model.* statistics read every SimulationResult that
        # run_simulation returns in an iteration; sharing the draws must
        # leave them what four standalone runs give
        from perfbench import run, tracing, workloads

        wl = workloads.generate("fading_compare", 401, tmp_path / "inputs")
        runner = run.Runner(wl, tmp_path / "outputs")
        tracer = tracing.Tracer()
        tracer.capture_results = True
        tracer.install()
        try:
            _seconds, _items, _digest, errors = runner.iteration()
        finally:
            tracer.uninstall()
        assert errors == []
        kinds = runner.compare_plan.kinds
        alone = [run_simulation(with_channel(runner.cfg, k)) for k in kinds]
        assert len(tracer.captured) == len(kinds)
        for got, want in zip(tracer.captured, alone):
            assert same_columns(got.records, want.records)
        assert run.model_stats(tracer.captured, runner.cfg) == run.model_stats(alone, runner.cfg)


class TestChunkInvariance:
    """However the chunk bound cuts a run, run_simulation and compare_fading
    equal the per-tick run_tick loop: one tick per chunk (bound 1), uneven
    chunks of several ticks (bound 7), or the whole run as one chunk."""

    @staticmethod
    def tick_loop(cfg):
        state = make_state(cfg)
        ticks = [run_tick(state, t) for t in range(1, cfg.n_ticks() + 1)]
        return PacketColumns.concat(ticks), state.server.free_at

    @staticmethod
    def recording_servers(mp) -> list:
        # every server the engine makes, so a run's free_at can be read after it
        servers = []

        class RecordingServer(CentralServer):
            def __init__(self):
                super().__init__()
                servers.append(self)

        mp.setattr(sim_engine, "CentralServer", RecordingServer)
        return servers

    @pytest.mark.parametrize("bound", [1, 7, 2**62])
    @given(cfg=tick_configs(), kinds=kind_sets())
    @settings(max_examples=60, deadline=None)
    def test_runs_equal_the_tick_loop(self, bound, cfg, kinds):
        self.check_runs(bound, cfg, kinds)

    def check_runs(self, bound, cfg, kinds):
        """run_simulation and compare_fading of cfg's kinds, chunked by bound,
        equal the tick loop: every column, every server's free_at."""
        times = [cfg.duration_s * f for f in (0.3, 0.7, 1.0)]
        want = [self.tick_loop(with_channel(cfg, k)) for k in kinds]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_engine, "_CHUNK_PACKETS", bound)
            servers = self.recording_servers(mp)
            got = [run_simulation(with_channel(cfg, k)).records for k in kinds]
            runs = [s.free_at for s in servers]
            servers.clear()
            compared = compare_fading(cfg, kinds, times)
            shared = [s.free_at for s in servers[1:]]  # servers[0] is base's, never used
        assert all(same_columns(records, ref) for records, (ref, _) in zip(got, want))
        assert runs == shared == [free_at for _, free_at in want]
        columns = [mean_latency_so_far(ref, times) for ref, _ in want]
        assert np.array_equal(compared, np.array(columns, dtype=float).T, equal_nan=True)

    @pytest.mark.parametrize("bound", [1, 7, 2**62])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_zero_delay_ties_across_ticks_equal_the_tick_loop(self, bound, seed):
        # a tick of 4 units and no one-way delay: a packet sent at the end of
        # tick t arrives in the unit tick t + 1 starts in, so arrivals tie
        # across the boundary, and services of about 2 units make the order
        # show in the waits; the tick-major order serves tick t's first
        cfg = make_config(
            node_count=1, packets_per_node_per_tick=1, tick_s=2.0**-30,
            duration_s=300 * 2.0**-30, seed=seed, base_hop=ZERO_DELAY_HOP,
        )
        assert cfg._one_way_q == 0 and cfg.tick_s * UNITS_PER_S == 4
        self.check_runs(bound, cfg, CHANNELS[:1])
        records = self.tick_loop(cfg)[0]
        arrivals = np.rint(records.send_time_s * UNITS_PER_S)  # exact at these sizes
        assert len(np.unique(arrivals)) < len(arrivals)  # one packet a tick: a tie across ticks

    @pytest.mark.parametrize("bound", [1, 7, 2**14, 2**62])
    def test_many_small_ticks_equal_the_tick_loop(self, bound):
        # 2,000 ticks of 10 ms with 15 packets each, the shape of a long run
        # at 1500 packets/s: the default bound puts over a thousand ticks in
        # one chunk
        cfg = make_config(
            node_count=15, packets_per_node_per_tick=1, tick_s=0.01, duration_s=20.0,
            max_retries_per_leg=0, base_hop=make_hop(service=5000.0),
        )
        assert cfg.n_ticks() == 2000
        self.check_runs(bound, cfg, CHANNELS[:1])

    @pytest.mark.parametrize("backlog", [0, 2**27])
    def test_chunk_near_the_last_tick_equals_its_ticks(self, backlog):
        # ticks 2**32 - 4 to 2**32 - 1 of 10 ms: float starts drift so far
        # that tick gaps are 42949664 or 42949696 units, not 42949672.96, and
        # with no one-way delay a late send of tick t arrives with or after
        # the start of tick t + 1; tick t's packets are still served first
        cfg = make_config(
            node_count=1, packets_per_node_per_tick=5, tick_s=0.01,
            duration_s=42949672.95, base_hop=ZERO_DELAY_HOP,
        )
        first = 2**32 - 4
        assert cfg.n_ticks() == 2**32 - 1
        starts = [round((t - 1) * cfg.tick_s * UNITS_PER_S) for t in range(first, first + 5)]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert min(gaps) < 42949673 < max(gaps)  # the latest send a tick can draw
        send = []
        for gap in gaps:  # past, at and before the next tick's start, then early
            send += [42949673, gap, gap - 1, 0, 3]
        service = np.random.default_rng(7).integers(0, 2**26, len(send))
        draws = _ChunkDraws(first, np.full(4, 5), np.array(send), None, None, service)
        self.check_chunk(cfg, draws, starts[0] + backlog)

    @pytest.mark.parametrize("packets", [3, 1400], ids=["packed", "argsort"])
    def test_tick_starts_whose_difference_is_no_float(self, packets):
        # tick 2 starts 2**52 + 1 units in and tick 4 at 3 * 2**52 + 4, so
        # their difference, 2**53 + 3, is no float; with 3 x 1400 packets on
        # ticks of 2**52 units the sort key leaves no room for the row index
        tick_s = 2.0**20 + 2.0**-32
        cfg = make_config(
            node_count=1, packets_per_node_per_tick=packets, tick_s=tick_s,
            duration_s=5 * tick_s, report_window_s=tick_s, base_hop=ZERO_DELAY_HOP,
        )
        starts = [round((t - 1) * tick_s * UNITS_PER_S) for t in (2, 4)]
        assert starts == [2**52 + 1, 3 * 2**52 + 4]
        gen = np.random.default_rng(packets)
        send = gen.integers(0, 2**52, 3 * packets)
        # about a tick of work a tick: a backlog, so every arrival shows in the waits
        service = gen.integers(0, 2**53 // packets, 3 * packets)
        draws = _ChunkDraws(2, np.full(3, packets), send, None, None, service)
        self.check_chunk(cfg, draws, starts[0])

    @staticmethod
    def check_chunk(cfg, draws, free_at):
        """A hand-built lossless chunk, resolved in one pass, equals its ticks
        resolved in turn (run_tick's one-tick chunks) and the sequential
        recursion on Python ints, each tick in stable arrival order."""
        one_pass, by_tick = CentralServer(free_at), CentralServer(free_at)
        got = sim_engine._resolve(cfg, one_pass, draws)
        ends = np.cumsum(draws.sizes).tolist()
        ticks = [
            sim_engine._resolve(cfg, by_tick, _ChunkDraws(
                draws.first + i, draws.sizes[i:i + 1], draws.send[a:b], None, None,
                draws.service[a:b],
            ))
            for i, (a, b) in enumerate(zip([0, *ends], ends))
        ]
        assert same_columns(got, PacketColumns.concat(ticks))
        assert one_pass.free_at == by_tick.free_at

        travel = cfg.min_legs() * cfg._one_way_q
        want = []
        for i, (a, b) in enumerate(zip([0, *ends], ends)):
            origin = round((draws.first + i - 1) * cfg.tick_s * UNITS_PER_S)
            arrival = (draws.send[a:b] + travel).tolist()
            queue = sorted(range(b - a), key=lambda j: (arrival[j], j))
            waits, free_at = lindley_waits(
                free_at, [origin + arrival[j] for j in queue], draws.service[a:b][queue].tolist()
            )
            tick = [0] * (b - a)
            for j, wait in zip(queue, waits):
                tick[j] = travel + wait
            want += tick
        assert got.latency_q.tolist() == want
        assert one_pass.free_at == free_at

    def test_one_admit_per_chunk(self):
        # the server takes each chunk in one call: a run's chunks, and every
        # kind's chunks in compare_fading; base's server never admits
        cfg = make_config(
            duration_s=12.0, packets_per_node_per_tick=3, rate_growth_per_tick=0.3,
            rate_jitter=True, fading=RayleighParams(sigma=1.0), snr_threshold_db=0.0,
            max_retries_per_leg=2,
        )
        calls = []
        admit = CentralServer.admit

        def counting(server, *args):
            calls.append(server)  # held, so no two servers share an id
            return admit(server, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_engine, "_CHUNK_PACKETS", 40)
            mp.setattr(CentralServer, "admit", counting)
            chunks = len(list(sim_engine._draw_chunks(cfg, make_state(cfg).rng, lossy=True)))
            run_simulation(cfg)
            runs = len(calls)
            calls.clear()
            compare_fading(cfg, CHANNELS, [cfg.duration_s])
        assert 1 < chunks < cfg.n_ticks()
        assert runs == chunks
        ids = [id(server) for server in calls]
        assert [ids.count(i) for i in dict.fromkeys(ids)] == [chunks] * len(CHANNELS)

    def test_lossy_draws_are_c_contiguous(self):
        # the channel and the handshake read z and leg_u row by row, so each
        # row must be contiguous: a one-tick chunk, chunks of several ticks,
        # and the draws compare_fading shares among its kinds
        cfg = make_config(
            fading=RayleighParams(sigma=1.0), snr_threshold_db=0.0, max_retries_per_leg=2
        )
        one_tick = next(sim_engine._draw_chunks(cfg, make_state(cfg).rng, True, range(1, 2)))
        shared = []

        def recording(config, *, draws=None):
            shared.extend(draws)
            return run_simulation(config, draws=draws)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_engine, "_CHUNK_PACKETS", 130)  # 60 packets a tick: 3 ticks a chunk
            chunks = list(sim_engine._draw_chunks(cfg, make_state(cfg).rng, lossy=True))
            mp.setattr(sim_engine, "run_simulation", recording)
            compare_fading(cfg, CHANNELS[2:], [cfg.duration_s])
        assert [len(c.sizes) for c in chunks] == [3, 2]
        assert len(shared) == 2 * len(chunks)
        for draws in [one_tick, *chunks, *shared]:
            assert draws.z.flags.c_contiguous and draws.leg_u.flags.c_contiguous

    @pytest.mark.parametrize("bound", [1, 40, 2**62])
    def test_long_growing_run_equals_the_tick_loop(self, bound):
        # 12 jittered ticks growing from 3 to 13 packets per node on a lossy
        # channel; bound 40 cuts them into chunks of 2 to 4 ticks
        cfg = make_config(
            duration_s=12.0,
            packets_per_node_per_tick=3,
            rate_growth_per_tick=0.3,
            rate_jitter=True,
            fading=RayleighParams(sigma=1.0),
            noise_n0=2.0,
            snr_threshold_db=0.0,
            max_retries_per_leg=2,
        )
        ref, ref_free_at = self.tick_loop(cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_engine, "_CHUNK_PACKETS", bound)
            chunks = list(sim_engine._draw_chunks(cfg, make_state(cfg).rng, lossy=True))
            servers = self.recording_servers(mp)
            records = run_simulation(cfg).records
        ticks = [len(c.sizes) for c in chunks]
        assert sum(ticks) == cfg.n_ticks()
        assert [c.first for c in chunks] == np.cumsum([1, *ticks[:-1]]).tolist()
        assert len(set(ticks)) > 1 if bound == 40 else len(set(ticks)) == 1
        assert same_columns(records, ref)
        assert [s.free_at for s in servers] == [ref_free_at]


class TestSpecifiedTrends:
    def test_monotone_degradation_sign_test(self):
        # raising the noise floor must not reduce latency; paired over 30 seeds
        kinds_lo = FadingSpec("lo", AwgnParams(n0=4.0))
        kinds_hi = FadingSpec("hi", AwgnParams(n0=8.0))
        wins = 0
        for seed in range(1, 31):
            base = SimulationConfig(
                node_count=3,
                duration_s=4.0,
                base_hop=make_hop(),
                seed=seed,
                packets_per_node_per_tick=30,
                snr_threshold_db=-8.0,
            )
            m = compare_fading(base, [kinds_lo, kinds_hi], [4.0])
            wins += m[0, 1] >= m[0, 0]
        # one-sided sign test at 0.05: need >= 20 of 30 increases
        assert wins >= 20

    def test_constant_load_near_saturation_mean_latency_rises(self):
        # expectation estimated by averaging per-tick curves over 30 seeds
        hop = HopConfig(
            distance=30.0,
            propagation_speed=3e8,
            packet_length=1000.0,
            link_rate=1e6,
            processing_delay=0.0,
            arrival_rate=27.0,
            service_rate=31.6,
            loss_prob=0.0,
            retx_base=0.0,
        )
        curves = []
        for seed in range(1, 31):
            cfg = SimulationConfig(
                node_count=5,
                duration_s=10.0,
                base_hop=hop,
                seed=seed,
                packets_per_node_per_tick=6,
                max_retries_per_leg=0,
            )
            res = run_simulation(cfg)
            reports = windowed_series(res.records, cfg.tick_s, hop.packet_length, span_s=10.0)
            curves.append([r.avg_latency_ms for r in reports])
        mean_curve = np.mean(np.array(curves, dtype=float), axis=0)
        slope = np.polyfit(np.arange(len(mean_curve)), mean_curve, 1)[0]
        assert slope >= 0
