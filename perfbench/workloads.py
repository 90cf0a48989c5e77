"""Seeded workload generator.

Every workload is derived from one integer seed with Python's own
Mersenne Twister (``random.Random``), whose ``random()`` and
``getrandbits()`` sequences are stable across Python versions, so the
same seed always writes byte-identical files.  The program under test
receives only the files written here: one run-config JSON per workload
(what ``iiot-netsim`` reads) and, for ``model_validation``, a plan JSON
holding the arguments of the side-model calls.

Sizes are chosen so that one iteration takes roughly 0.1 s on a 2-core
host: a timed run of ``--seconds`` then collects the >= 100 samples the
p90 rule needs (see ``measure.min_samples``).
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("fanin_many_nodes", "burst_few_nodes", "fading_compare", "model_validation")

# fanin_many_nodes: many node-ticks, one packet each, so per-node-tick
# overhead (three RNG substreams per node-tick with jitter on) dominates.
FANIN_NODES = 600
FANIN_SERVICE_PPS = 10_000.0

# burst_few_nodes: few nodes, many packets per node-tick, a load ramp
# whose last tick loads the server to BURST_PEAK_UTILIZATION.
BURST_NODES = 4
BURST_TICKS = 3
BURST_START_PPN = 1000
BURST_PEAK_PPN = 1500
BURST_PEAK_UTILIZATION = 0.9

# fading_compare: four channel kinds over identical draws, lossy threshold,
# a short retry budget so some handshakes run out and packets are lost.
FADING_NODES = 15
FADING_PPN = 60
FADING_TICKS = 3
FADING_SERVICE_PPS = 2400.0
FADING_MAX_RETRIES = 2

# model_validation: one pass of the side models the simulator is checked against.
CHANNEL_SAMPLES = 40_000
QOS_MC_RUNS = 150_000
MMC_ARRIVALS = 40_000
MMC_SERVERS = 2
RTT_HOPS = 8
# Each kind takes the first candidate channel seed on which it passes
# validate-channel with its KS p-value in a fixed branch of scipy's
# (run.Runner._channel_seeds): KS_SERIES_KIND in the slow exact series,
# the others in the fast one.  About 1% of seeds give the series and a
# pass, so a thousand candidates all but always hold one.
KS_SERIES_KIND = "rayleigh"
VALIDATION_SEED_CANDIDATES = 1000


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload, already written to disk."""

    name: str
    command: str  # "simulate", "compare-fading" or "validate"
    config_path: Path
    config: dict
    plan: dict  # side-model arguments, plus offered_utilization_peak for every workload


def _u(r: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * r.random()


def _hop(r: random.Random, service_pps: float, arrival_pps: float) -> dict:
    return {
        "distance_m": _u(r, 10.0, 100.0),
        "propagation_speed_mps": 3.0e8,
        "packet_length_bits": 1000.0,
        "link_rate_bps": 1.0e6,
        "hop_weight": 1.0,
        "processing_delay_ms": _u(r, 0.1, 0.3),
        "arrival_rate_pps": arrival_pps,
        "service_rate_pps": service_pps,
        "loss_prob": 0.0,
        "retx_base_ms": 0.0,
    }


def _base(r: random.Random, **fields) -> dict:
    doc = {
        "seed": r.getrandbits(64),
        "tick_s": 1.0,
        "qos_level": 2,
        "max_retries_per_leg": 8,
        "fading": "none",
        "fading_params": None,
        "noise_n0": 1.0,
        "snr_threshold_db": None,
        "rate_jitter": False,
        "rate_growth_per_tick": 0.0,
        "report_window_s": 1.0,
    }
    doc.update(fields)
    return doc


def fanin_config(r: random.Random) -> tuple[dict, dict]:
    doc = _base(
        r,
        node_count=FANIN_NODES,
        duration_s=1.0,
        packets_per_node_per_tick=1,
        rate_jitter=True,
        base_hop=_hop(r, FANIN_SERVICE_PPS, _u(r, 50.0, 100.0)),
    )
    return doc, {}


def burst_config(r: random.Random) -> tuple[dict, dict]:
    peak_pps = BURST_NODES * BURST_PEAK_PPN
    doc = _base(
        r,
        node_count=BURST_NODES,
        duration_s=float(BURST_TICKS),
        packets_per_node_per_tick=BURST_START_PPN,
        max_retries_per_leg=0,
        rate_growth_per_tick=(BURST_PEAK_PPN / BURST_START_PPN - 1.0) / (BURST_TICKS - 1),
        base_hop=_hop(r, peak_pps / BURST_PEAK_UTILIZATION, _u(r, 50.0, 100.0)),
    )
    return doc, {}


def fading_config(r: random.Random) -> tuple[dict, dict]:
    # noise floors scattered around the calibrated values of the shipped
    # default_compare.json, so every kind loses some packets but most land
    doc = _base(
        r,
        node_count=FADING_NODES,
        duration_s=float(FADING_TICKS),
        packets_per_node_per_tick=FADING_PPN,
        max_retries_per_leg=FADING_MAX_RETRIES,
        snr_threshold_db=_u(r, -11.0, -9.0),
        base_hop=_hop(r, FADING_SERVICE_PPS, _u(r, 50.0, 100.0)),
        comparison={
            "sample_times_s": [float(t) for t in range(1, FADING_TICKS + 1)],
            "kinds": [
                {"label": "none", "fading": "none"},
                {
                    "label": "rayleigh",
                    "fading": "rayleigh",
                    "params": {"sigma": 1.0},
                    "noise_n0": _u(r, 2.0, 3.0),
                },
                {
                    "label": "rician",
                    "fading": "rician",
                    "params": {"amplitude": 1.0, "sigma": 1.0},
                    "noise_n0": _u(r, 7.0, 10.0),
                },
                {"label": "awgn", "fading": "awgn", "params": {"n0": _u(r, 6.0, 9.0)}},
            ],
        },
    )
    return doc, {}


def validation_config(r: random.Random) -> tuple[dict, dict]:
    """A small simulate config (used for set-up) plus the side-model plan."""
    hops = [_hop(r, _u(r, 500.0, 2000.0), _u(r, 50.0, 400.0)) for _ in range(RTT_HOPS)]
    for hop in hops:
        hop["loss_prob"] = _u(r, 0.0, 0.2)
        hop["retx_base_ms"] = _u(r, 0.0, 5.0)
    doc = _base(
        r, node_count=5, duration_s=1.0, packets_per_node_per_tick=60, base_hop=hops[0]
    )
    load = _u(r, 0.5, 0.7)  # per-server utilization of the M/M/c oracle
    mu = _u(r, 4.0, 6.0)
    plan = {
        "channel": [
            {"kind": "rayleigh", "sigma": _u(r, 0.5, 2.0)},
            {
                "kind": "rician",
                "amplitude": _u(r, 0.5, 2.0),
                "sigma": _u(r, 0.5, 2.0),
                "phase": _u(r, 0.0, math.pi),
            },
            {"kind": "awgn", "n0": _u(r, 0.5, 2.0)},
        ],
        "channel_samples": CHANNEL_SAMPLES,
        "channel_seed_candidates": [r.getrandbits(63) for _ in range(VALIDATION_SEED_CANDIDATES)],
        "ks_series_kind": KS_SERIES_KIND,
        "qos_legs": [_u(r, 0.6, 0.95) for _ in range(4)],
        "qos_runs": QOS_MC_RUNS,
        "qos_seed": r.getrandbits(63),
        "mmc": {"lam": load * MMC_SERVERS * mu, "mu": mu, "servers": MMC_SERVERS},
        "mmc_arrivals": MMC_ARRIVALS,
        "mmc_seed": r.getrandbits(63),
        "hops": hops,
    }
    return doc, plan


_BUILDERS = {
    "fanin_many_nodes": ("simulate", fanin_config),
    "burst_few_nodes": ("simulate", burst_config),
    "fading_compare": ("compare-fading", fading_config),
    "model_validation": ("validate", validation_config),
}


def workload_rng(name: str, seed: int) -> random.Random:
    """Independent generator per (workload, seed); string seeds hash stably."""
    return random.Random(f"{name}:{seed}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def generate(name: str, seed: int, out_dir: Path) -> Workload:
    """Write the workload's config (and plan) under out_dir and validate it.

    Raises ValueError when the generated config is rejected by
    ``cli.build_config`` or its peak offered rate reaches the server's
    ``service_rate_pps``; the program is never handed a config that
    would fail up front.
    """
    from iiot_netsim import cli
    from iiot_netsim.sim_engine import RATE_JITTER_SPAN

    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    command, build = _BUILDERS[name]
    doc, plan = build(workload_rng(name, seed))
    cfg, _plan, _snapshot = cli.build_config(doc)
    peak = cfg.offered_rate_max()
    if cfg.rate_jitter:  # jitter can scale a node-tick up to the span's upper end
        top = round(cfg.rate_at_tick(cfg.n_ticks()) * RATE_JITTER_SPAN[1])
        peak = cfg.node_count * top / cfg.tick_s
    if not peak < cfg.server_mu():
        raise ValueError(f"{name}: peak offered rate {peak} >= service rate {cfg.server_mu()}")
    plan = dict(plan, offered_utilization_peak=peak / cfg.server_mu())

    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / f"{name}.config.json"
    config_path.write_text(dumps(doc))
    (out_dir / f"{name}.plan.json").write_text(dumps(plan))
    return Workload(
        name=name,
        command=command,
        config_path=config_path,
        config=doc,
        plan=plan,
    )
