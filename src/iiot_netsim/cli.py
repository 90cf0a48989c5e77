"""Command-line interface: JSON run configs in, CSV artifacts out.

Subcommands map one-to-one onto the package's reproduction recipes:
simulate, compare-fading, validate-channel, qos-reliability, rtt, queue.
Every file-writing command drops a manifest.json next to its outputs;
the manifest's config snapshot plus seed reproduces the CSVs byte for
byte.  A command exits 0 on success; a failure prints a single
"error: ..." line to stderr and exits with the code its error type
carries (errors.NetsimError.exit_code; 2 for an OSError).

Units at this boundary are human-facing (milliseconds, dB); everything
internal is SI.  Seed precedence: --seed, then IIOT_NETSIM_SEED, then
the config file.

Only cmd_validate_channel imports scipy (scipy.stats), so the other
commands start without it.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channel_models import (
    AwgnParams,
    RayleighParams,
    RicianParams,
    rayleigh_cdf,
    rayleigh_pdf,
    rician_pdf,
    sample_awgn_batch,
    sample_rayleigh_gain_batch,
    sample_rician_gain_batch,
)
from .errors import InvalidConfigError, InvalidParameterError, NetsimError, StatisticalCheckError
from .qos_state_machine import QoSChainParams, reliability, reliability_monte_carlo
from .queueing_model import QueueParams, erlang_c_probability
from .reporting import (
    fading_comparison_table,
    intervals_to_csv,
    rtt_summary_to_csv,
    summarize_rtt,
    windowed_series,
)
from .rng import RngStream
from .rtt_model import HopConfig, compute_rtt
from .sim_engine import FadingSpec, SimulationConfig, compare_fading, run_simulation

SEED_ENV_VAR = "IIOT_NETSIM_SEED"
DEFAULT_SEED = 42
KS_SIGNIFICANCE = 0.01
MOMENT_SE_LIMIT = 5.0
PDF_BINS = 64

# hop key at the boundary -> (HopConfig field, factor to SI units)
_HOP_FIELDS = {
    "distance_m": ("distance", 1.0),
    "propagation_speed_mps": ("propagation_speed", 1.0),
    "packet_length_bits": ("packet_length", 1.0),
    "link_rate_bps": ("link_rate", 1.0),
    "hop_weight": ("hop_weight", 1.0),
    "processing_delay_ms": ("processing_delay", 1e-3),
    "arrival_rate_pps": ("arrival_rate", 1.0),
    "service_rate_pps": ("service_rate", 1.0),
    "loss_prob": ("loss_prob", 1.0),
    "retx_base_ms": ("retx_base", 1e-3),
}
HOPS_CSV_HEADER = ",".join(_HOP_FIELDS)
RTT_BREAKDOWN_HEADER = (
    "hop,propagation_ms,transmission_ms,processing_ms,queueing_ms,retransmission_ms,rtt_ms"
)
QUEUE_HEADER = "lambda,mu,c,erlang_c,Wq"
QOS_HEADER = "alpha,beta,gamma,delta,R_closed_form,R_monte_carlo,mc_standard_error,n_runs"
CHANNEL_PDF_HEADER = "r,pdf_analytic,pdf_empirical"

# every top-level config key and the JSON value it holds (a (type, None)
# pair also takes null): SimulationConfig's fields by annotation, but for
# the keys read by parse_hop, parse_fading_params and parse_comparison.
# Fields without a default are required; the dataclasses check ranges.
_FIELD_JSON_TYPES = {"int": int, "float": float, "float | None": (float, None), "bool": bool}
_BOUNDARY_KEYS = {"base_hop": dict, "fading": str, "fading_params": (dict, None),
                  "comparison": dict}
_SIM_FIELDS = dataclasses.fields(SimulationConfig)
_CONFIG_KEYS = {
    f.name: _FIELD_JSON_TYPES[f.type] for f in _SIM_FIELDS if f.name not in _BOUNDARY_KEYS
} | _BOUNDARY_KEYS
_REQUIRED_KEYS = frozenset(f.name for f in _SIM_FIELDS if f.default is dataclasses.MISSING)
_JSON_NAMES = {bool: "a boolean", str: "a string", dict: "a JSON object"}
# each fading kind's JSON name and the class of its params ("none" takes null)
FADING_PARAMS = {"none": None, "awgn": AwgnParams, "rayleigh": RayleighParams,
                 "rician": RicianParams}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _require_keys(obj: dict, required: frozenset, optional: frozenset, where: str) -> None:
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - required - optional)
    if unknown:
        raise InvalidConfigError(f"unknown key {unknown[0]!r} in {where}")
    missing = sorted(required - set(obj))
    if missing:
        raise InvalidConfigError(f"missing key {missing[0]!r} in {where}")


def _typed(value, kind, where: str):
    """value checked to hold JSON type kind, where a (type, None) pair also
    takes null; a number must be finite, and integral for int."""
    if isinstance(kind, tuple):
        if value is None:
            return None
        kind = kind[0]
    if kind in _JSON_NAMES:
        if not isinstance(value, kind):
            raise InvalidConfigError(f"{where} must be {_JSON_NAMES[kind]}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfigError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # inf, NaN, or an int no float can hold
        raise InvalidConfigError(f"{where} must be a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise InvalidConfigError(f"{where} must be an integer, got {value!r}")
    return kind(value)


def parse_hop(obj: dict) -> HopConfig:
    """Hop description with boundary units (meters, ms, pps) to HopConfig."""
    _require_keys(obj, frozenset(_HOP_FIELDS), frozenset(), "base_hop")
    return HopConfig(
        **{
            field: _typed(obj[key], float, f"base_hop.{key}") * to_si
            for key, (field, to_si) in _HOP_FIELDS.items()
        }
    )


def parse_fading_params(kind: str, obj, where: str):
    """fading_params of one kind to its parameter class (None for 'none');
    the class's fields name the keys, those without a default required."""
    if kind not in FADING_PARAMS:
        raise InvalidConfigError(f"unknown fading kind {kind!r} in {where}")
    cls = FADING_PARAMS[kind]
    if cls is None:
        if obj is not None:
            raise InvalidConfigError(f"{where} must be null when fading is 'none'")
        return None
    fields = dataclasses.fields(cls)
    required = frozenset(f.name for f in fields if f.default is dataclasses.MISSING)
    _require_keys(obj, required, frozenset(f.name for f in fields), where)
    return cls(**{k: _typed(v, float, f"{where}.{k}") for k, v in obj.items()})


@dataclasses.dataclass(frozen=True)
class ComparePlan:
    kinds: list[FadingSpec]
    sample_times_s: list[float]


def parse_comparison(obj: dict) -> ComparePlan:
    _require_keys(obj, frozenset({"sample_times_s", "kinds"}), frozenset(), "comparison")
    times = obj["sample_times_s"]
    if not isinstance(times, list):
        raise InvalidConfigError("comparison.sample_times_s must be a list of numbers")
    times = [_typed(t, float, f"comparison.sample_times_s[{i}]") for i, t in enumerate(times)]
    kinds_raw = obj["kinds"]
    if not isinstance(kinds_raw, list) or len(kinds_raw) < 2:
        raise InvalidConfigError("comparison requires at least 2 fading kinds")
    kinds = []
    for i, item in enumerate(kinds_raw):
        where = f"comparison.kinds[{i}]"
        _require_keys(
            item, frozenset({"label", "fading"}), frozenset({"params", "noise_n0"}), where
        )
        label = _typed(item["label"], str, f"{where}.label")
        fading = _typed(item["fading"], str, f"{where}.fading")
        params = parse_fading_params(fading, item.get("params"), f"{where}.params")
        noise = _typed(item["noise_n0"], float, f"{where}.noise_n0") if "noise_n0" in item else None
        kinds.append(FadingSpec(label=label, fading=params, noise_n0=noise))
    return ComparePlan(kinds=kinds, sample_times_s=times)


def load_config_doc(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InvalidConfigError(f"cannot read config {path}: {e.strerror or e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InvalidConfigError(f"config {path} must hold a JSON object")
    return doc


def build_config(doc: dict, seed_override: int | None = None) -> tuple[
    SimulationConfig, ComparePlan | None, dict
]:
    """Validate a config document; returns (config, compare plan, snapshot).

    The snapshot is the input document with the effective seed substituted,
    so writing it back to disk reproduces this exact run.
    """
    _require_keys(doc, _REQUIRED_KEYS, frozenset(_CONFIG_KEYS), "config")
    snapshot = dict(doc)
    if seed_override is not None:
        snapshot["seed"] = seed_override

    kwargs = {k: _typed(v, _CONFIG_KEYS[k], f"config.{k}") for k, v in snapshot.items()}
    comparison = kwargs.pop("comparison", None)
    kwargs["base_hop"] = parse_hop(kwargs["base_hop"])
    kwargs["fading"] = parse_fading_params(
        kwargs.get("fading", "none"), kwargs.pop("fading_params", None), "config.fading_params"
    )
    plan = parse_comparison(comparison) if comparison is not None else None
    return SimulationConfig(**kwargs), plan, snapshot


def resolve_seed(cli_seed: int | None, default: int | None = None) -> int | None:
    """--seed beats the environment; returns default when neither is set."""
    if cli_seed is not None:
        return cli_seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InvalidConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_manifest(
    out_dir: Path, command: str, seed: int, snapshot: dict, outputs: list[str], wall_s: float
) -> Path:
    manifest = {
        "tool": "iiot-netsim",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": snapshot,
        "outputs": outputs,
        "wall_clock_s": round(wall_s, 6),
    }
    path = out_dir / "manifest.json"
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    doc = load_config_doc(args.config)
    cfg, _plan, snapshot = build_config(doc, seed_override=resolve_seed(args.seed))
    if args.window is not None:
        cfg = dataclasses.replace(cfg, report_window_s=args.window)
        snapshot["report_window_s"] = args.window
    result = run_simulation(cfg)
    out = _out_dir(args)
    intervals = windowed_series(
        result.records, cfg.report_window_s, cfg.base_hop.packet_length, span_s=cfg.duration_s
    )
    _write_atomic(out / "intervals.csv", intervals_to_csv(intervals))
    summary = summarize_rtt(result.records)
    _write_atomic(out / "rtt_summary.csv", rtt_summary_to_csv(summary))
    write_manifest(
        out,
        "simulate",
        cfg.seed,
        snapshot,
        ["intervals.csv", "rtt_summary.csv"],
        time.perf_counter() - t0,
    )
    sent, delivered = len(result.records), summary.count
    avg = "" if summary.avg_ms is None else _fmt(summary.avg_ms)
    print(f"sent={sent} delivered={delivered} lost={sent - delivered} avg_latency_ms={avg}")
    return 0


def cmd_compare_fading(args) -> int:
    t0 = time.perf_counter()
    doc = load_config_doc(args.config)
    cfg, plan, snapshot = build_config(doc, seed_override=resolve_seed(args.seed))
    if plan is None:
        raise InvalidConfigError("compare-fading requires a 'comparison' section (>= 2 kinds)")
    matrix_ms = compare_fading(cfg, plan.kinds, plan.sample_times_s).tolist()
    out = _out_dir(args)
    labels = [k.label for k in plan.kinds]
    text, csv = fading_comparison_table(plan.sample_times_s, labels, matrix_ms)
    _write_atomic(out / "fading_table.csv", csv)
    write_manifest(
        out, "compare-fading", cfg.seed, snapshot, ["fading_table.csv"], time.perf_counter() - t0
    )
    print(text, end="")
    return 0


def _channel_samples(args, seed: int) -> tuple[np.ndarray, float, str]:
    """Draw complex channel samples; returns (samples, analytic sigma of
    their envelope, envelope law name)."""
    rng = RngStream(seed).child("validate-channel", args.kind)
    if args.kind == "awgn":
        z = sample_awgn_batch(AwgnParams(n0=args.n0), args.samples, rng)
        return z, math.sqrt(args.n0 / 2.0), "rayleigh"
    if args.kind == "rayleigh":
        z = sample_rayleigh_gain_batch(RayleighParams(sigma=args.sigma), args.samples, rng)
        return z, args.sigma, "rayleigh"
    params = RicianParams(amplitude=args.amplitude, sigma=args.sigma, phase=args.phase)
    return sample_rician_gain_batch(params, args.samples, rng), args.sigma, "rician"


def cmd_validate_channel(args) -> int:
    from scipy import stats

    t0 = time.perf_counter()
    if args.samples < 100:
        raise InvalidParameterError(f"--samples must be >= 100, got {args.samples}")
    seed = resolve_seed(args.seed, DEFAULT_SEED)
    z, sigma, law = _channel_samples(args, seed)
    failed = []  # every failed check, reported after the evidence is written
    if args.kind == "awgn":
        # per-quadrature variance must match n0/2; 5 SE band, SE ~ var*sqrt(2/n)
        half = args.n0 / 2.0
        tol = MOMENT_SE_LIMIT * half * math.sqrt(2.0 / args.samples)
        for name, quad in (("real", z.real), ("imag", z.imag)):
            v = float(np.var(quad))
            print(f"check quadrature-variance[{name}]: {v:.6g} expected {half:.6g} +- {tol:.3g}")
            if abs(v - half) > tol:
                failed.append(f"{name} quadrature variance {v:.6g} outside {half:.6g} +- {tol:.3g}")
    mags = np.abs(z)
    if args.reference_sigma is not None:
        sigma = args.reference_sigma  # negative control: test against a wrong scale

    if law == "rayleigh":
        cdf = lambda r: rayleigh_cdf(r, sigma)
        pdf = lambda r: rayleigh_pdf(r, sigma)
        mean_analytic = sigma * math.sqrt(math.pi / 2.0)
    else:
        ref = RicianParams(amplitude=args.amplitude, sigma=sigma, phase=args.phase)
        dist = stats.rice(args.amplitude / sigma, scale=sigma)
        cdf = dist.cdf
        pdf = lambda r: rician_pdf(r, ref)
        mean_analytic = float(dist.mean())

    # the CSV is written before the verdict so a failing run leaves evidence
    edges = np.linspace(0.0, float(mags.max()), PDF_BINS + 1)
    hist, _ = np.histogram(mags, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rows = [CHANNEL_PDF_HEADER]
    rows += [
        f"{_fmt(r)},{_fmt(float(pdf(r)))},{_fmt(h)}" for r, h in zip(centers, hist)
    ]
    out = _out_dir(args)
    _write_atomic(out / "channel_pdf.csv", "\n".join(rows) + "\n")
    params_used = {
        "kind": args.kind,
        "sigma": args.sigma,
        "amplitude": args.amplitude,
        "phase": args.phase,
        "n0": args.n0,
        "samples": args.samples,
        "reference_sigma": args.reference_sigma,
    }
    write_manifest(
        out, "validate-channel", seed, params_used, ["channel_pdf.csv"], time.perf_counter() - t0
    )

    ks = stats.kstest(mags, cdf)
    print(f"check ks[{law}]: statistic={ks.statistic:.6g} p={ks.pvalue:.6g}")
    se = float(np.std(mags, ddof=1)) / math.sqrt(len(mags))
    mean_hat = float(np.mean(mags))
    print(
        f"check mean: {mean_hat:.6g} expected {mean_analytic:.6g} "
        f"+- {MOMENT_SE_LIMIT * se:.3g}"
    )
    extra_ok = True
    if args.kind == "rician" and args.amplitude == 0.0 and args.reference_sigma is None:
        # A=0 degenerates to Rayleigh; check sampler agreement, not just the
        # law: the Rayleigh sampler reads the Rician run's own normals, so
        # the two samples differ only if the samplers do
        ray = np.abs(
            sample_rayleigh_gain_batch(
                RayleighParams(sigma=args.sigma),
                args.samples,
                RngStream(seed).child("validate-channel", args.kind),
            )
        )
        two = stats.ks_2samp(mags, ray)
        print(f"check ks-two-sample[vs rayleigh]: statistic={two.statistic:.6g} p={two.pvalue:.6g}")
        extra_ok = two.pvalue >= KS_SIGNIFICANCE

    if not (
        ks.pvalue >= KS_SIGNIFICANCE
        and abs(mean_hat - mean_analytic) <= MOMENT_SE_LIMIT * se
        and extra_ok
    ):
        failed.append(f"ks p={ks.pvalue:.3g}, mean {mean_hat:.6g} vs {mean_analytic:.6g}")
    if failed:
        raise StatisticalCheckError("statistical check failed: " + "; ".join(failed))
    print("pass")
    return 0


def cmd_qos_reliability(args) -> int:
    params = QoSChainParams(args.alpha, args.beta, args.gamma, args.delta)
    if args.samples < 1:
        raise InvalidParameterError(f"--samples must be >= 1, got {args.samples}")
    seed = resolve_seed(args.seed, DEFAULT_SEED)
    closed = reliability(params)
    mc = reliability_monte_carlo(params, args.samples, RngStream(seed).child("qos-reliability"))
    se = math.sqrt(max(mc * (1.0 - mc), 0.0) / args.samples)
    print(QOS_HEADER)
    print(
        f"{_fmt(args.alpha)},{_fmt(args.beta)},{_fmt(args.gamma)},{_fmt(args.delta)},"
        f"{_fmt(closed)},{_fmt(mc)},{_fmt(se)},{args.samples}"
    )
    return 0


def _parse_hops_csv(path: str) -> list[HopConfig]:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise InvalidConfigError(f"cannot read hops file {path}: {e.strerror or e}") from e
    if not lines or lines[0] != HOPS_CSV_HEADER:
        raise InvalidConfigError(f"hops file must start with header {HOPS_CSV_HEADER!r}")
    hops = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(_HOP_FIELDS):
            raise InvalidConfigError(f"hops file line {i}: expected {len(_HOP_FIELDS)} fields")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise InvalidConfigError(f"hops file line {i}: non-numeric field") from None
        hops.append(parse_hop(dict(zip(_HOP_FIELDS, values))))
    return hops


def cmd_rtt(args) -> int:
    hops = _parse_hops_csv(args.hops)
    breakdown = compute_rtt(hops)
    print(RTT_BREAKDOWN_HEADER)
    sums = [0.0] * 5
    for i, h in enumerate(breakdown.hops, start=1):
        terms = (h.propagation, h.transmission, h.processing, h.queueing, h.retransmission)
        sums = [a + b for a, b in zip(sums, terms)]
        contrib = 2.0 * (terms[0] + terms[1] + terms[2] + terms[3]) + h.retransmission
        cells = ",".join(_fmt(t * 1e3) for t in terms)
        print(f"{i},{cells},{_fmt(contrib * 1e3)}")
    cells = ",".join(_fmt(t * 1e3) for t in sums)
    print(f"total,{cells},{_fmt(breakdown.total * 1e3)}")
    return 0


def cmd_queue(args) -> int:
    params = QueueParams(lam=args.lam, mu=args.mu, servers=args.servers)
    erlang_c = erlang_c_probability(params)
    # mean_wait_in_queue's expression on the C(c, rho) just computed, which
    # costs O(rho) at large loads
    wq = erlang_c / (params.servers * params.mu - params.lam)
    print(QUEUE_HEADER)
    print(f"{_fmt(args.lam)},{_fmt(args.mu)},{args.servers},{_fmt(erlang_c)},{_fmt(wq)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="iiot-netsim",
        description="Deterministic sensor-network simulator and its validation recipes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"seed override (beats ${SEED_ENV_VAR} and the config file)",
        )

    p = sub.add_parser("simulate", help="run the network simulation, write interval/RTT CSVs")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--window", type=float, default=None, help="report window override, seconds")
    add_seed(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare-fading", help="average-latency-so-far table across fading kinds")
    p.add_argument("--config", required=True, help="JSON run configuration with 'comparison'")
    p.add_argument("--out", required=True, help="output directory")
    add_seed(p)
    p.set_defaults(func=cmd_compare_fading)

    p = sub.add_parser("validate-channel", help="statistical checks of one channel sampler")
    p.add_argument("--kind", required=True, choices=("awgn", "rayleigh", "rician"))
    p.add_argument("--sigma", type=float, default=1.0, help="per-quadrature std (fading kinds)")
    p.add_argument("--amplitude", type=float, default=1.0, help="line-of-sight amplitude (rician)")
    p.add_argument("--phase", type=float, default=0.0, help="line-of-sight phase, radians")
    p.add_argument("--n0", type=float, default=1.0, help="noise spectral density (awgn)")
    p.add_argument("--samples", type=int, default=100_000, help="number of draws")
    p.add_argument(
        "--reference-sigma",
        type=float,
        default=None,
        help="test against this (deliberately wrong) scale instead; negative control",
    )
    p.add_argument("--out", required=True, help="output directory")
    add_seed(p)
    p.set_defaults(func=cmd_validate_channel)

    p = sub.add_parser("qos-reliability", help="closed-form vs Monte-Carlo handshake reliability")
    p.add_argument("alpha", type=float)
    p.add_argument("beta", type=float)
    p.add_argument("gamma", type=float)
    p.add_argument("delta", type=float)
    p.add_argument("--samples", type=int, default=200_000, help="Monte-Carlo runs")
    add_seed(p)
    p.set_defaults(func=cmd_qos_reliability)

    p = sub.add_parser("rtt", help="round-trip-time breakdown over a hop list")
    p.add_argument("--hops", required=True, help=f"CSV with header {HOPS_CSV_HEADER}")
    p.set_defaults(func=cmd_rtt)

    p = sub.add_parser("queue", help="Erlang C waiting probability and mean queue wait")
    p.add_argument("--lam", type=float, required=True, help="arrival rate, 1/s")
    p.add_argument("--mu", type=float, required=True, help="per-server service rate, 1/s")
    p.add_argument("--servers", type=int, default=1, help="parallel servers")
    p.set_defaults(func=cmd_queue)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NetsimError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
