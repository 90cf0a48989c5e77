"""Acceptance gate: the nine shipped guarantees, one verdict line each.

Every test prints exactly one `criterion N: PASS/FAIL - ...` line straight
to the terminal (bypassing capture) and then asserts, so a full run shows
nine verdict lines regardless of pytest's capture mode.  Criteria with a
runtime budget time themselves and fail when over budget.
"""
import json
import math
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from iiot_netsim import cli
from iiot_netsim.channel_models import (
    AwgnParams,
    RayleighParams,
    RicianParams,
    rayleigh_cdf,
    sample_awgn_batch,
    sample_rayleigh_gain_batch,
    sample_rician_gain_batch,
)
from iiot_netsim.qos_state_machine import (
    QoSChainParams,
    handshake_legs,
    handshake_rows,
    reliability,
)
from iiot_netsim.queueing_model import (
    QueueParams,
    erlang_c_probability,
    mean_wait_in_queue,
    simulate_mmc,
)
from iiot_netsim.rng import RngStream
from iiot_netsim.rtt_model import HopConfig, compute_rtt
from iiot_netsim.sim_engine import compare_fading, run_simulation, traffic_loopback

SEED = 20260817
KS_SIGNIFICANCE = 0.01


def shipped(name: str) -> Path:
    return Path(str(resources.files("iiot_netsim") / "configs" / name))


def shipped_config(name: str, seed: int | None = None):
    doc = json.loads(shipped(name).read_text())
    cfg, plan, _ = cli.build_config(doc, seed_override=seed)
    return cfg, plan


def verdict(capsys, n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_channel_statistics(capsys):
    # Rayleigh/Rician envelope laws by KS at 1e5 samples; AWGN quadrature
    # variance within 1% at 1e6 samples; all under 30 s.
    t0 = time.perf_counter()
    root = RngStream(SEED)
    pvals = {}

    mags = np.abs(
        sample_rayleigh_gain_batch(RayleighParams(sigma=1.0), 10**5, root.child("ks", "rayleigh"))
    )
    pvals["rayleigh"] = stats.kstest(mags, lambda r: rayleigh_cdf(r, 1.0)).pvalue

    for k_factor in (0.5, 1.0, 5.0):
        amplitude = math.sqrt(2.0 * k_factor)  # sigma = 1
        mags = np.abs(
            sample_rician_gain_batch(
                RicianParams(amplitude=amplitude, sigma=1.0),
                10**5,
                root.child("ks", "rician", int(k_factor * 10)),
            )
        )
        pvals[f"rician K={k_factor}"] = stats.kstest(
            mags, stats.rice(amplitude, scale=1.0).cdf
        ).pvalue

    z = sample_awgn_batch(AwgnParams(n0=2.0), 10**6, root.child("ks", "awgn"))
    var_err = max(abs(float(np.var(z.real)) - 1.0), abs(float(np.var(z.imag)) - 1.0))

    elapsed = time.perf_counter() - t0
    ok = all(p >= KS_SIGNIFICANCE for p in pvals.values()) and var_err < 0.01 and elapsed < 30.0
    detail = (
        f"KS p min {min(pvals.values()):.3g} (need >= {KS_SIGNIFICANCE}), "
        f"awgn quadrature variance off by {var_err:.2%} (need < 1%), {elapsed:.1f}s < 30s"
    )
    verdict(capsys, 1, ok, detail)


def test_criterion_2_qos_reliability(capsys):
    t0 = time.perf_counter()
    # the handshake the simulator runs, at QoS 2 with no retries
    n = 10**6
    leg_u = RngStream(SEED).child("qos-mc").gen.random((handshake_rows(2, 0), n))
    delivered, _ = handshake_legs(2, np.full(n, 0.9), leg_u, 0)
    frac = float(np.mean(delivered))
    target = 0.9**4
    se = math.sqrt(target * (1.0 - target) / n)
    exact_one = reliability(QoSChainParams.uniform(1.0)) == 1.0
    exact_zero = reliability(QoSChainParams(0.3, 0.7, 0.9, 0.0)) == 0.0
    elapsed = time.perf_counter() - t0
    ok = abs(frac - target) <= 3.0 * se and exact_one and exact_zero and elapsed < 10.0
    detail = (
        f"MC {frac:.6f} vs {target:.6f} ({abs(frac - target) / se:.2f} SE, need <= 3), "
        f"exact cases {exact_one and exact_zero}, {elapsed:.1f}s < 10s"
    )
    verdict(capsys, 2, ok, detail)


def test_criterion_3_queueing_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for c in (1, 2, 4):
        for util in (0.3, 0.6, 0.9):
            p = QueueParams(lam=util * c, mu=1.0, servers=c)
            wq, frac = simulate_mmc(p, 10**6, RngStream(106).child("mmc-grid", c, int(util * 10)))
            worst = max(
                worst,
                abs(wq - mean_wait_in_queue(p)) / mean_wait_in_queue(p),
                abs(frac - erlang_c_probability(p)) / erlang_c_probability(p),
            )
    p1 = QueueParams(lam=0.9, mu=1.0, servers=1)
    closed_rel = abs(mean_wait_in_queue(p1) - 0.9 / (1.0 * (1.0 - 0.9))) / (0.9 / 0.1)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and closed_rel < 1e-12 and elapsed < 60.0
    detail = (
        f"grid worst relative error {worst:.4f} (need < 0.02), "
        f"c=1 closed form off by {closed_rel:.2e} (need < 1e-12), {elapsed:.1f}s < 60s"
    )
    verdict(capsys, 3, ok, detail)


def test_criterion_4_rtt_model(capsys):
    # 2*(1e-6 + 1e-3 + 0 + 2e-3) + 1e-3 = 7.002 ms
    ref = HopConfig(
        distance=300.0,
        propagation_speed=3e8,
        packet_length=1000.0,
        link_rate=1e6,
        hop_weight=1.0,
        processing_delay=0.0,
        arrival_rate=500.0,
        service_rate=1000.0,
        loss_prob=0.0,
        retx_base=1e-3,
    )
    hand_rel = abs(compute_rtt([ref]).total - 7.002e-3) / 7.002e-3

    gen = RngStream(SEED).child("rtt-additivity").gen
    worst_add = 0.0
    for _ in range(100):
        hops = []
        for _ in range(int(gen.integers(2, 7))):
            arrival = float(gen.uniform(1.0, 50.0))
            hops.append(
                HopConfig(
                    distance=float(gen.uniform(0.0, 1000.0)),
                    propagation_speed=float(gen.uniform(1e8, 3e8)),
                    packet_length=float(gen.uniform(100.0, 10000.0)),
                    link_rate=float(gen.uniform(1e5, 1e7)),
                    hop_weight=float(gen.uniform(0.1, 3.0)),
                    processing_delay=float(gen.uniform(0.0, 5e-3)),
                    arrival_rate=arrival,
                    service_rate=arrival + float(gen.uniform(1.0, 100.0)),
                    loss_prob=float(gen.uniform(0.0, 0.9)),
                    retx_base=float(gen.uniform(0.0, 2e-3)),
                )
            )
        cut = int(gen.integers(1, len(hops)))
        joint = compute_rtt(hops).total
        split = compute_rtt(hops[:cut]).total + compute_rtt(hops[cut:]).total
        worst_add = max(worst_add, abs(joint - split) / joint)

    ok = hand_rel < 1e-12 and worst_add < 1e-12
    detail = (
        f"hand example off by {hand_rel:.2e} (need < 1e-12), "
        f"worst additivity error {worst_add:.2e} over 100 random hop lists"
    )
    verdict(capsys, 4, ok, detail)


def test_criterion_5_loopback_capacity(capsys):
    t0 = time.perf_counter()
    cfg, _ = shipped_config("default_simulate.json")
    reports = traffic_loopback(replace(cfg, duration_s=60.0), window=5.0)
    counts = {r.sent for r in reports}
    lost = sum(r.lost for r in reports)
    elapsed = time.perf_counter() - t0
    ok = len(reports) == 12 and counts == {1500} and lost == 0 and elapsed < 5.0
    detail = (
        f"{len(reports)} windows of 5s, packet counts {sorted(counts)} (need exactly 1500), "
        f"lost {lost}, {elapsed:.1f}s < 5s"
    )
    verdict(capsys, 5, ok, detail)


def test_criterion_6_latency_envelope(capsys):
    avgs, mins, maxs = [], [], []
    for seed in range(1, 31):
        cfg, _ = shipped_config("default_simulate.json", seed=seed)
        s = run_simulation(cfg).summary
        avgs.append(s.avg_latency_s * 1e3)
        mins.append(s.min_latency_s * 1e3)
        maxs.append(s.max_latency_s * 1e3)
    ok = (
        all(10.0 <= a <= 14.0 for a in avgs)
        and min(mins) >= 3.0
        and max(maxs) <= 72.0
    )
    detail = (
        f"30 runs: avg in [{min(avgs):.2f},{max(avgs):.2f}] ms (need 12 +- 2), "
        f"min {min(mins):.2f} >= 3, max {max(maxs):.2f} <= 72"
    )
    verdict(capsys, 6, ok, detail)


def test_criterion_7_fading_ordering(capsys):
    ordered = 0
    for seed in range(1, 31):
        cfg, plan = shipped_config("default_compare.json", seed=seed)
        m = compare_fading(cfg, plan.kinds, plan.sample_times_s).latency_s
        ordered += bool(np.all(np.diff(m, axis=1) > 0.0))
    ok = ordered >= 29  # >= 95% of 30 runs
    detail = f"none < rayleigh < rician < awgn at every sample time in {ordered}/30 runs (need >= 29)"
    verdict(capsys, 7, ok, detail)


def test_criterion_8_rising_latency_trend(capsys):
    cfg0, _ = shipped_config("high_load_trend.json")
    utils = [
        cfg0.node_count * cfg0.rate_at_tick(t) / cfg0.tick_s / cfg0.server_mu()
        for t in range(1, cfg0.n_ticks() + 1)
    ]
    rising = 0
    for seed in range(1, 31):
        cfg, _ = shipped_config("high_load_trend.json", seed=seed)
        reports = run_simulation(cfg).tick_reports
        ys = [r.avg_latency_ms for r in reports]
        slope = float(np.polyfit(np.arange(len(ys)), ys, 1)[0])
        rising += slope >= 0.0
    ok = min(utils) >= 0.9 and rising >= 29
    detail = (
        f"server utilization [{min(utils):.4f},{max(utils):.4f}] (need >= 0.9), "
        f"latency slope >= 0 in {rising}/30 runs (need >= 29)"
    )
    verdict(capsys, 8, ok, detail)


def test_criterion_9_determinism(capsys, tmp_path):
    cfg_path = str(shipped("default_simulate.json"))
    a, b = tmp_path / "a", tmp_path / "b"
    rc_a = cli.main(["simulate", "--config", cfg_path, "--out", str(a)])
    rc_b = cli.main(["simulate", "--config", cfg_path, "--out", str(b)])
    identical = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("intervals.csv", "rtt_summary.csv")
    )

    cfg, _ = shipped_config("default_simulate.json")
    outcome = lambda r: (r.send_time_s, r.attempts, r.delivered)
    base = {(r.node, r.tick, r.pkt): outcome(r) for r in run_simulation(cfg).records}
    grown = run_simulation(replace(cfg, node_count=cfg.node_count + 1)).records
    kept = {(r.node, r.tick, r.pkt): outcome(r) for r in grown if r.node <= cfg.node_count}
    isolated = base == kept

    ok = rc_a == 0 and rc_b == 0 and identical and isolated
    detail = (
        f"repeat runs byte-identical: {identical}; "
        f"prior nodes untouched by adding a node: {isolated}"
    )
    verdict(capsys, 9, ok, detail)
