"""Command-line interface: JSON run configs in, CSV artifacts out.

Subcommands map one-to-one onto the package's reproduction recipes:
simulate, compare-fading, validate-channel, qos-reliability, rtt, queue.
Every file-writing command drops a manifest.json next to its outputs;
the manifest's config snapshot plus seed reproduces the CSVs byte for
byte.  Configs, hops files, outputs and stdout are UTF-8 whatever the
locale.  Each output is written to a temporary file beside it and
renamed over it, so the path holds the old file or the whole new one,
and a failed write or rename leaves no temporary file behind.  A
command exits 0 on success; a failure prints a single
"error: ..." line to stderr and exits with the code its error type
carries (errors.NetsimError.exit_code; 2 for an OSError or a
MemoryError, such as numpy's refusal of an oversized --samples).

Units at this boundary are human-facing (milliseconds, dB); everything
internal is SI.  Seed precedence: --seed, then IIOT_NETSIM_SEED, then
the config file.

Only cmd_validate_channel imports scipy (scipy.stats, and scipy.special
through rician_pdf and rician_mean), so the other commands, lossy
simulate and compare-fading runs included, start and run without it.
"""
from __future__ import annotations

import argparse
import codecs
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
    rician_mean,
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
    summarize_windows,
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
# scipy's Rician CDF, which the KS check needs, costs time linear in A/sigma:
# ~0.5 s per 100k samples at this ratio
RICIAN_MAX_LOS_RATIO = 100.0
# validate-channel's scales, the sampler's and the reference law's: inside
# these, r*r / (2 sigma^2) in the laws' densities and CDFs neither overflows
# nor loses its precision to subnormals
SCALE_MIN, SCALE_MAX = 1e-152, 1e152

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


def _read_utf8(path: str, what: str) -> str:
    """The file's text, decoded as UTF-8 whatever the locale."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise InvalidConfigError(f"cannot read {what} {path}: {e.strerror or e}") from e
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InvalidConfigError(f"{what} {path} is not UTF-8: {e}") from None


def load_config_doc(path: str) -> dict:
    text = _read_utf8(path, "config")
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
    """Write text to path as UTF-8 through path + ".tmp" and one rename,
    so the path holds the old file or the whole new one; a failure of
    the write or the rename removes the temporary file."""
    tmp = f"{os.fspath(path)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        try:
            view = memoryview(text.encode("utf-8"))
            while view:  # os.write may write fewer bytes than asked
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
    # one stat: on an existing directory, mkdir(exist_ok=True) raises
    # FileExistsError and catches it
    if not out.is_dir():
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
    summary = summarize_windows(intervals)  # the span holds every tick of the run
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


def cmd_validate_channel(args) -> int:
    """Check one sampler's gain magnitudes against one reference law.

    The law is Rician (--amplitude, --phase) for rician, else Rayleigh; its
    scale is the sampler's per-quadrature std (--sigma, or sqrt(n0/2) for
    awgn) unless --reference-sigma, a negative control, replaces it.  At
    --amplitude 0 the Rician sampler's gains are the Rayleigh sampler's, bit
    for bit.  The checks are one KS test and the mean, plus each quadrature's
    variance for awgn.  Every refusal comes before the draw, and the CSV and
    manifest before the verdict, so a failed check leaves its evidence.
    """
    t0 = time.perf_counter()
    if args.samples < 100:
        raise InvalidParameterError(f"--samples must be >= 100, got {args.samples}")
    seed = resolve_seed(args.seed, DEFAULT_SEED)
    if args.kind == "awgn":
        params, sample = AwgnParams(n0=args.n0), sample_awgn_batch
        scale_name, scale = "sqrt(n0 / 2)", math.sqrt(args.n0 / 2.0)
    else:
        scale_name, scale = "sigma", args.sigma
    law_sigma = scale if args.reference_sigma is None else args.reference_sigma
    if args.kind == "rician":  # the reference law before the sampler's params
        law = RicianParams(amplitude=args.amplitude, sigma=law_sigma, phase=args.phase)
        if law.amplitude > RICIAN_MAX_LOS_RATIO * law.sigma:
            raise InvalidParameterError(
                f"amplitude / sigma must be <= {RICIAN_MAX_LOS_RATIO:g} for the KS check, "
                f"got {law.amplitude / law.sigma:.6g}"
            )
        params, sample = dataclasses.replace(law, sigma=args.sigma), sample_rician_gain_batch
    elif args.kind == "rayleigh":
        params, sample = RayleighParams(sigma=args.sigma), sample_rayleigh_gain_batch
    for name, value in ((scale_name, scale), ("reference sigma", law_sigma)):
        if not SCALE_MIN <= value <= SCALE_MAX:
            raise InvalidParameterError(
                f"{name} must be in [{SCALE_MIN:g}, {SCALE_MAX:g}] for the checks, got {value:g}"
            )
    from scipy import stats

    z = sample(params, args.samples, RngStream(seed).child("validate-channel", args.kind))
    mags = np.abs(z)
    top = float(mags.max())
    # moments at unit scale: a power of two rescales them exactly, and no sum
    # of squares overflows at any --samples
    unit = math.ldexp(1.0, -math.frexp(top)[1])
    failed = []  # every failed check, reported after the evidence is written
    if args.kind == "awgn":
        # per-quadrature variance must match n0/2; 5 SE band, SE ~ var*sqrt(2/n)
        half = args.n0 / 2.0
        tol = MOMENT_SE_LIMIT * half * math.sqrt(2.0 / args.samples)
        for name, quad in (("real", z.real), ("imag", z.imag)):
            v = float(np.var(quad * unit)) / (unit * unit)
            print(f"check quadrature-variance[{name}]: {v:.6g} expected {half:.6g} +- {tol:.3g}")
            if abs(v - half) > tol:
                failed.append(f"{name} quadrature variance {v:.6g} outside {half:.6g} +- {tol:.3g}")
    if args.kind == "rician":
        law_name, cdf = "rician", stats.rice(law.amplitude / law.sigma, scale=law.sigma).cdf
        pdf, mean_analytic = functools.partial(rician_pdf, params=law), rician_mean(law)
    else:
        law_name, cdf = "rayleigh", functools.partial(rayleigh_cdf, sigma=law_sigma)
        pdf = functools.partial(rayleigh_pdf, sigma=law_sigma)
        mean_analytic = law_sigma * math.sqrt(math.pi / 2.0)

    edges = np.linspace(0.0, top, PDF_BINS + 1)
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
    print(f"check ks[{law_name}]: statistic={ks.statistic:.6g} p={ks.pvalue:.6g}")
    se = float(np.std(mags * unit, ddof=1)) / unit / math.sqrt(len(mags))
    mean_hat = float(np.mean(mags))
    print(
        f"check mean: {mean_hat:.6g} expected {mean_analytic:.6g} "
        f"+- {MOMENT_SE_LIMIT * se:.3g}"
    )
    if not (ks.pvalue >= KS_SIGNIFICANCE and abs(mean_hat - mean_analytic) <= MOMENT_SE_LIMIT * se):
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
    lines = _read_utf8(path, "hops file").splitlines()
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
    # costs O(rho) steps at large loads (up to MAX_ERLANG_LOAD Erlangs)
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


def _utf8_stdout() -> None:
    """Print UTF-8 whatever the locale: a config's labels reach stdout."""
    out = sys.stdout
    encoding = getattr(out, "encoding", None)  # None on a StringIO
    if encoding and codecs.lookup(encoding).name != "utf-8" and hasattr(out, "reconfigure"):
        out.reconfigure(encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _utf8_stdout()
    try:
        return args.func(args)
    except (NetsimError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return getattr(e, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
