"""Engine behavior: error model, conservation, determinism, isolation."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iiot_netsim.channel_models import AwgnParams, RayleighParams, RicianParams, channel_gain
from iiot_netsim.errors import InstabilityError, InvalidConfigError, InvalidParameterError
from iiot_netsim.rng import RngStream
from iiot_netsim.rtt_model import HopConfig
from iiot_netsim.sim_engine import (
    CentralServer,
    FadingSpec,
    SimulationConfig,
    _leg_success_prob,
    compare_fading,
    make_state,
    per_packet_error_probability,
    run_simulation,
    run_tick,
    traffic_loopback,
)

SEED = 20260817


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
        assert per_packet_error_probability(10 ** (-0.5), 1000, -5.0) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_ten_db_above_threshold(self):
        per = per_packet_error_probability(1.0, 1000, -10.0)
        assert per == pytest.approx(4.5397868702434395e-05, rel=1e-12)

    def test_infinite_snr(self):
        assert per_packet_error_probability(math.inf, 1000, 0.0) == 0.0

    def test_zero_snr_is_certain_loss(self):
        assert per_packet_error_probability(0.0, 1000, 0.0) == 1.0

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_decreasing_in_snr(self, a, b):
        lo, hi = sorted((a, b))
        p_lo = per_packet_error_probability(lo, 1000, 3.0)
        p_hi = per_packet_error_probability(hi, 1000, 3.0)
        assert p_hi <= p_lo

    def test_negative_snr_rejected(self):
        with pytest.raises(InvalidParameterError):
            per_packet_error_probability(-0.1, 1000, 0.0)

    def test_short_packet_rejected(self):
        with pytest.raises(InvalidParameterError):
            per_packet_error_probability(1.0, 0.5, 0.0)

    def test_vectorized(self):
        out = per_packet_error_probability(np.array([1.0, 10.0]), 1000, 0.0)
        assert out.shape == (2,)
        assert out[1] < out[0]


class TestChannelGain:
    @pytest.mark.parametrize(
        "fading,params",
        [
            ("rayleigh", RayleighParams(sigma=0.8)),
            ("rician", RicianParams(amplitude=1.5, sigma=0.6, phase=0.3)),
        ],
    )
    def test_simulator_snr_uses_channel_gain(self, fading, params):
        # the simulator's SNR for draws z is |channel_gain(z)|^2 / n0, term for term
        cfg = make_config(fading=fading, fading_params=params, noise_n0=0.7, snr_threshold_db=1.0)
        z = RngStream(SEED).child("snr").gen.standard_normal((2, 500))
        h = channel_gain(params, z)
        snr = (h.real**2 + h.imag**2) / 0.7
        expect = 1.0 - per_packet_error_probability(snr, cfg.base_hop.packet_length, 1.0)
        np.testing.assert_array_equal(_leg_success_prob(cfg, z), expect)


class TestConfigValidation:
    def test_rejects_bad_fading_kind(self):
        with pytest.raises(InvalidConfigError):
            make_config(fading="nakagami")

    def test_rejects_mismatched_params(self):
        with pytest.raises(InvalidConfigError):
            make_config(fading="rayleigh", fading_params=AwgnParams(n0=1.0))
        with pytest.raises(InvalidConfigError):
            make_config(fading="none", fading_params=RayleighParams(sigma=1.0))

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

    def test_rejects_negative_growth(self):
        with pytest.raises(InvalidConfigError):
            make_config(rate_growth_per_tick=-0.01)

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


class TestCentralServer:
    def test_fifo_wait_accounting(self):
        srv = CentralServer()
        assert srv.admit(arrival=0.0, service=2.0) == 0.0
        # second arrival at t=1 waits until t=2
        assert srv.admit(arrival=1.0, service=1.0) == pytest.approx(1.0)
        # once the backlog clears, a later arrival is served at once
        assert srv.admit(arrival=5.0, service=1.0) == 0.0


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
        rep = run_tick(state, 1)
        assert rep.sent == 85

    def test_perfect_channel_qos0_single_leg(self):
        cfg = make_config(qos_level=0)
        res = run_simulation(cfg)
        assert res.summary.lost == 0
        assert all(r.attempts == 1 for r in res.records)

    def test_rate_jitter_bounds(self):
        cfg = make_config(packets_per_node_per_tick=100, rate_jitter=True)
        state = make_state(cfg)
        for t in range(1, 6):
            rep = run_tick(state, t)
            assert 3 * 80 <= rep.sent <= 3 * 120

    def test_rate_growth_schedule(self):
        cfg = make_config(
            node_count=1,
            packets_per_node_per_tick=100,
            rate_growth_per_tick=0.1,
            base_hop=make_hop(service=2000.0),
        )
        assert [cfg.rate_at_tick(t) for t in (1, 2, 5)] == [100, 110, 140]
        state = make_state(cfg)
        assert run_tick(state, 2).sent == 110


class TestConservationAndInvariants:
    def test_delivered_plus_lost_equals_offered(self):
        cfg = make_config(
            fading="rayleigh",
            fading_params=RayleighParams(sigma=1.0),
            noise_n0=4.0,
            snr_threshold_db=-10.0,
            max_retries_per_leg=2,
        )
        res = run_simulation(cfg)
        per_tick_sum = sum(r.sent for r in res.tick_reports)
        assert per_tick_sum == res.summary.sent
        for rep in res.tick_reports:
            assert rep.lost == rep.sent - rep.delivered
        assert res.summary.delivered + res.summary.lost == res.summary.sent
        assert res.summary.lost > 0  # this config does lose packets

    def test_delivered_implies_positive_latency_and_attempts(self):
        cfg = make_config(
            fading="rician",
            fading_params=RicianParams(amplitude=1.0, sigma=1.0),
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
        cfg = make_config(
            fading="awgn", fading_params=AwgnParams(n0=3.0), snr_threshold_db=-8.0
        )
        floor = cfg.min_legs() * cfg.one_way_s()
        res = run_simulation(cfg)
        lat = [r.latency_s for r in res.records if r.delivered]
        assert min(lat) >= floor - 1e-15

    def test_summary_order(self):
        res = run_simulation(make_config())
        s = res.summary
        assert s.min_latency_s <= s.avg_latency_s <= s.max_latency_s

    def test_zero_rate_run_is_empty(self):
        res = run_simulation(make_config(packets_per_node_per_tick=0))
        assert res.summary.sent == 0
        assert res.summary.avg_latency_s is None
        assert all(r.avg_latency_ms is None for r in res.tick_reports)


class TestDeterminismAndIsolation:
    def test_identical_runs_identical_records(self):
        cfg = make_config(
            fading="rayleigh",
            fading_params=RayleighParams(sigma=1.0),
            noise_n0=2.0,
            snr_threshold_db=-10.0,
        )
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert [
            (r.node, r.tick, r.pkt, r.send_time_s, r.attempts, r.delivered, r.latency_s)
            for r in a.records
        ] == [
            (r.node, r.tick, r.pkt, r.send_time_s, r.attempts, r.delivered, r.latency_s)
            for r in b.records
        ]

    def test_seed_changes_output(self):
        cfg = make_config()
        a = run_simulation(cfg)
        b = run_simulation(replace(cfg, seed=SEED + 1))
        assert [r.send_time_s for r in a.records] != [r.send_time_s for r in b.records]

    def test_adding_node_preserves_prior_outcomes(self):
        # per-packet outcomes are keyed by (node, tick); latency is excluded
        # because all nodes share the server queue
        base = dict(
            fading="rician",
            fading_params=RicianParams(amplitude=1.0, sigma=1.0),
            noise_n0=8.0,
            snr_threshold_db=-10.0,
        )
        small = run_simulation(make_config(node_count=3, **base))
        big = run_simulation(make_config(node_count=4, **base))

        def outcomes(res, n_nodes):
            return {
                (r.node, r.tick, r.pkt): (r.send_time_s, r.attempts, r.delivered)
                for r in res.records
                if r.node <= n_nodes
            }

        assert outcomes(small, 3) == outcomes(big, 3)


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
            fading="awgn",
            fading_params=AwgnParams(n0=1.0),
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
    def test_default_profile_exact_windows(self):
        cfg = make_config(node_count=5, duration_s=60.0, packets_per_node_per_tick=60)
        reports = traffic_loopback(cfg, window=5.0)
        assert len(reports) == 12
        for rep in reports:
            assert rep.sent == 1500
            assert rep.lost == 0

    def test_zero_rate(self):
        cfg = make_config(node_count=5, duration_s=10.0)
        reports = traffic_loopback(cfg, window=5.0, aggregate_rate=0.0)
        assert len(reports) == 2
        assert all(r.sent == 0 for r in reports)

    def test_overload_rejected_before_running(self):
        cfg = make_config(node_count=5, base_hop=make_hop(service=200.0))
        with pytest.raises(InstabilityError):
            traffic_loopback(cfg, window=5.0)

    def test_indivisible_rate_rejected(self):
        cfg = make_config(node_count=7)
        with pytest.raises(InvalidConfigError):
            traffic_loopback(cfg, window=5.0)

    def test_ignores_fading_of_base_config(self):
        cfg = make_config(
            node_count=5,
            duration_s=10.0,
            fading="rayleigh",
            fading_params=RayleighParams(sigma=1.0),
            noise_n0=1.0,
            snr_threshold_db=5.0,
        )
        reports = traffic_loopback(cfg, window=5.0)
        assert all(r.lost == 0 for r in reports)


class TestCompareFading:
    KINDS = [
        FadingSpec("none", "none"),
        FadingSpec("rayleigh", "rayleigh", RayleighParams(sigma=1.0), noise_n0=2.540456),
        FadingSpec(
            "rician", "rician", RicianParams(amplitude=1.0, sigma=1.0), noise_n0=8.832145
        ),
        FadingSpec("awgn", "awgn", AwgnParams(n0=7.761589)),
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
            FadingSpec("a", "rayleigh", RayleighParams(sigma=1.0), noise_n0=2.0),
            FadingSpec("b", "rayleigh", RayleighParams(sigma=1.0), noise_n0=2.0),
        ]
        out = compare_fading(self.base(), kinds, [2.0, 6.0, 10.0])
        np.testing.assert_array_equal(out.latency_s[:, 0], out.latency_s[:, 1])

    def test_shipped_ordering_holds_spot(self):
        for seed in (1, 2, 3):
            m = compare_fading(self.base(seed), self.KINDS, [2.0, 6.0, 10.0]).latency_s
            for row in m:
                assert row[0] < row[1] < row[2] < row[3]

    def test_none_column_constant_scale(self):
        out = compare_fading(self.base(), self.KINDS[:1], [2.0, 10.0])
        col = out.latency_s[:, 0] * 1e3
        # perfect channel: 4 legs x one_way plus a small queue wait
        floor = 4 * self.base().one_way_s() * 1e3
        assert all(floor < v < floor + 2.0 for v in col)

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            compare_fading(self.base(), [], [2.0])
        with pytest.raises(InvalidConfigError):
            compare_fading(self.base(), self.KINDS[:2], [])
        with pytest.raises(InvalidConfigError):
            compare_fading(self.base(), self.KINDS[:2], [4.0, 2.0])
        with pytest.raises(InvalidConfigError):
            compare_fading(self.base(), self.KINDS[:2], [2.0, 11.0])
        dup = [self.KINDS[0], FadingSpec("none", "none")]
        with pytest.raises(InvalidConfigError):
            compare_fading(self.base(), dup, [2.0])


class TestSpecifiedTrends:
    def test_monotone_degradation_sign_test(self):
        # raising the noise floor must not reduce latency; paired over 30 seeds
        kinds_lo = FadingSpec("lo", "awgn", AwgnParams(n0=4.0))
        kinds_hi = FadingSpec("hi", "awgn", AwgnParams(n0=8.0))
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
            m = compare_fading(base, [kinds_lo, kinds_hi], [4.0]).latency_s
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
            curves.append([r.avg_latency_ms for r in res.tick_reports])
        mean_curve = np.mean(np.array(curves, dtype=float), axis=0)
        slope = np.polyfit(np.arange(len(mean_curve)), mean_curve, 1)[0]
        assert slope >= 0
