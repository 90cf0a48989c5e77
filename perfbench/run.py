"""Benchmark of the iiot-netsim program, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client (this process) runs one workload: each iteration
is one user-level call, made only after the previous one returned.  The
program is imported from ``src/`` of the checkout; it receives only the
config files the seeded generator writes.  Every iteration's outputs
pass through the correctness gate (``gate.py``).

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` reports the per-layer metrics: iterations alternate
between untraced and traced with the outside-in tracer installed, so the
tracing overhead is the median difference within a pair.  The last line
of stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import os

# one process on a small host: keep BLAS/OpenMP pools from adding threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# the CLI lets this variable override config seeds; the generator owns them
os.environ.pop("IIOT_NETSIM_SEED", None)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(ROOT))
from perfbench import gate, measure, tracing, workloads  # noqa: E402

TAIL_P = 0.9
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
KS_SERIES_NDD = 2.2  # at and above this n * D**2 scipy's kstwo.sf takes its slow series
MAX_STRETCH = 3.0  # a run may outlast --seconds this many times to reach the p90 sample count

# times scaled to a nominal host speed (measure.normalized); README, "Host speed"
END_TO_END = {
    "items_per_s": "items/s",
    "iter_s_p50": "s",
    "iter_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# the same measurements before scaling, printed but not in the JSON result
REPORTED = {
    "host.items_per_s": "items/s",
    "host.iter_s_p50": "s",
    "host.iter_s_p90": "s",
    "host.reference_ms": "ms",
}
PER_LAYER = {
    "rng.streams": "count",
    "rng.init_s": "s",
    "rng.streams_per_packet": "ratio",
    "sim_engine.run_tick.self_s": "s",
    "sim_engine.ticks": "count",
    "sim_engine.records": "count",
    "sim_engine.record_bytes": "B",
    "sim_engine.server.admits": "count",
    "sim_engine.server.admit_s": "s",
    "sim_engine.per_eval.calls": "count",
    "sim_engine.per_eval_s": "s",
    "sim_engine.compare_fading.self_s": "s",
    "sim_engine.make_state_s": "s",
    "reporting.windowed_series_s": "s",
    "reporting.summarize_rtt_s": "s",
    "reporting.csv_s": "s",
    "reporting.records_scanned": "count",
    "cli.build_config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "rtt_model.compute_rtt.calls": "count",
    "channel_models.sample_s": "s",
    "channel_models.samples": "count",
    "qos_state_machine.mc_s": "s",
    "qos_state_machine.mc_runs": "count",
    "queueing_model.simulate_mmc_s": "s",
    "queueing_model.arrivals": "count",
    "model.delivered_ratio": "ratio",
    "model.legs_per_packet": "legs",
    "model.server_utilization": "ratio",
    "model.latency_ms_p50": "ms",
    "model.latency_ms_p99": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}
# per-layer metric -> (span name, field) summed per iteration
SPAN_METRICS = {
    "rng.streams": [("rng.RngStream.gen", "calls")],
    "rng.init_s": [("rng.RngStream.gen", "total_s")],
    "sim_engine.run_tick.self_s": [("sim_engine.run_tick", "self_s")],
    "sim_engine.ticks": [("sim_engine.run_tick", "calls")],
    "sim_engine.server.admits": [("sim_engine.CentralServer.admit", "calls")],
    "sim_engine.server.admit_s": [("sim_engine.CentralServer.admit", "total_s")],
    "sim_engine.per_eval.calls": [("sim_engine.per_packet_error_probability", "calls")],
    "sim_engine.per_eval_s": [("sim_engine.per_packet_error_probability", "total_s")],
    "sim_engine.compare_fading.self_s": [("sim_engine.compare_fading", "self_s")],
    "sim_engine.make_state_s": [("sim_engine.make_state", "total_s")],
    "reporting.windowed_series_s": [("reporting.windowed_series", "total_s")],
    "reporting.summarize_rtt_s": [("reporting.summarize_rtt", "total_s")],
    "reporting.csv_s": [
        ("reporting.intervals_to_csv", "total_s"),
        ("reporting.rtt_summary_to_csv", "total_s"),
        ("reporting.fading_comparison_table", "total_s"),
    ],
    "cli.build_config_s": [("cli.build_config", "total_s")],
    "cli.write_s": [("cli._write_atomic", "total_s")],
    "rtt_model.compute_rtt.calls": [("rtt_model.compute_rtt", "calls")],
    "channel_models.sample_s": [
        (f"channel_models.{f}", "total_s")
        for f in (
            "sample_awgn",
            "sample_awgn_batch",
            "sample_rayleigh_gain",
            "sample_rayleigh_gain_batch",
            "sample_rician_gain",
            "sample_rician_gain_batch",
        )
    ],
    "qos_state_machine.mc_s": [("qos_state_machine.reliability_monte_carlo", "total_s")],
    "queueing_model.simulate_mmc_s": [("queueing_model.simulate_mmc", "total_s")],
}
COUNTER_METRICS = (
    "sim_engine.records",
    "reporting.records_scanned",
    "cli.bytes_written",
    "channel_models.samples",
    "qos_state_machine.mc_runs",
    "queueing_model.arrivals",
)


class Runner:
    """Runs one iteration of a workload and checks what it produced."""

    def __init__(self, wl, work_dir: Path):
        from iiot_netsim import cli

        self.wl = wl
        self.work_dir = work_dir
        self.cfg, self.compare_plan, _ = cli.build_config(wl.config)
        self.defects = gate.Defects()
        self.reference_digest: str | None = None
        if wl.command == "validate":
            self.channel_seeds, self.channel_seeds_tried = self._channel_seeds()

    def _cli(self, argv: list[str]) -> tuple[float, int, str]:
        from iiot_netsim import cli

        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return time.perf_counter() - t0, rc, buf.getvalue()

    def _channel_argv(self, spec: dict, seed: int) -> list[str]:
        argv = ["validate-channel", "--kind", spec["kind"]]
        for key in ("sigma", "amplitude", "phase", "n0"):
            if key in spec:
                argv += [f"--{key}", repr(spec[key])]
        samples = str(self.wl.plan["channel_samples"])
        out = str(self.work_dir / spec["kind"])
        return argv + ["--samples", samples, "--seed", str(seed), "--out", out]

    def _channel_seeds(self) -> tuple[list[int], list[int]]:
        """One validate-channel seed per kind, and how many candidates each took.

        A kind's seed is the first candidate on which it passes with its
        KS p-value in a fixed branch of scipy's: the slow exact series
        (n * D**2 >= KS_SERIES_NDD, D the KS statistic, about 63 ms a call)
        for the plan's ``ks_series_kind``, the fast one (about 0.3 ms) for
        the others.  Every seed then measures both branches at the same
        cost, where one shared seed would take the slow one on some seeds
        and not on others."""
        plan = self.wl.plan
        n = plan["channel_samples"]
        seeds: list[int] = []
        tried: list[int] = []
        with contextlib.redirect_stderr(io.StringIO()):
            for spec in plan["channel"]:
                series = spec["kind"] == plan["ks_series_kind"]
                for k, seed in enumerate(plan["channel_seed_candidates"], 1):
                    _, rc, stdout = self._cli(self._channel_argv(spec, seed))
                    stat = re.search(r"check ks\[\w+\]: statistic=(\S+)", stdout)
                    if rc == 0 and stat and (n * float(stat[1]) ** 2 >= KS_SERIES_NDD) == series:
                        seeds.append(seed)
                        tried.append(k)
                        break
                else:
                    branch = "slow series" if series else "fast branch"
                    raise RuntimeError(
                        f"no candidate seed passes validate-channel {spec['kind']} "
                        f"with its KS p-value in the {branch}"
                    )
        return seeds, tried

    def iteration(self) -> tuple[float, int, str, list[str]]:
        """(host seconds of the user-level calls, items, digest, errors)."""
        if self.wl.command == "validate":
            return self._validation_pass()
        cmd = self.wl.command
        argv = [cmd, "--config", str(self.wl.config_path), "--out", str(self.work_dir)]
        seconds, rc, stdout = self._cli(argv)
        if rc != 0:
            return seconds, 0, "", [f"{cmd} exited {rc}"]
        if cmd == "simulate":
            errors, items = gate.check_simulate(
                self.work_dir, stdout, self.wl.config, self.cfg, self.defects
            )
            files = ["intervals.csv", "rtt_summary.csv", "manifest.json"]
        else:
            errors = gate.check_compare(
                self.work_dir, stdout, self.wl.config, self.cfg, self.compare_plan
            )
            cfg = self.cfg
            offered = sum(cfg.node_count * cfg.rate_at_tick(t) for t in range(1, cfg.n_ticks() + 1))
            items = offered * len(self.compare_plan.kinds)
            files = ["fading_table.csv", "manifest.json"]
        return seconds, items, gate.digest(self.work_dir, files, stdout), errors

    def _validation_pass(self) -> tuple[float, int, str, list[str]]:
        from iiot_netsim import cli, qos_state_machine, queueing_model, rng, rtt_model

        plan = self.wl.plan
        seconds = 0.0
        errors: list[str] = []
        h = hashlib.sha256()
        for spec, seed in zip(plan["channel"], self.channel_seeds):
            dt, rc, stdout = self._cli(self._channel_argv(spec, seed))
            seconds += dt
            out = self.work_dir / spec["kind"]
            if rc != 0:
                errors.append(f"validate-channel {spec['kind']} exited {rc}")
                continue
            errors += gate.check_validate_channel(out, stdout)
            h.update(gate.digest(out, ["channel_pdf.csv", "manifest.json"], stdout).encode())

        t0 = time.perf_counter()
        params = qos_state_machine.QoSChainParams(*plan["qos_legs"])
        mc = qos_state_machine.reliability_monte_carlo(
            params, plan["qos_runs"], rng.RngStream(plan["qos_seed"])
        )
        closed = qos_state_machine.reliability(params)
        queue = queueing_model.QueueParams(**plan["mmc"])
        wait, frac = queueing_model.simulate_mmc(
            queue, plan["mmc_arrivals"], rng.RngStream(plan["mmc_seed"])
        )
        wq = queueing_model.mean_wait_in_queue(queue)
        erlang = queueing_model.erlang_c_probability(queue)
        rtt = rtt_model.compute_rtt([cli.parse_hop(hop) for hop in plan["hops"]])
        seconds += time.perf_counter() - t0

        errors += gate.check_reliability(mc, closed, plan["qos_runs"])
        errors += gate.check_mmc(wait, frac, wq, erlang)
        errors += gate.check_rtt(rtt.total, plan["hops"])
        h.update(repr((mc, closed, wait, frac, wq, erlang, rtt.total)).encode())
        samples = len(plan["channel"]) * plan["channel_samples"]
        items = samples + plan["qos_runs"] + plan["mmc_arrivals"]
        return seconds, items, h.hexdigest(), errors


class Loop:
    """Runs iterations, checks each, and keeps the timings and failures."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.check_errors: list[str] = []  # run-level checks, outside any iteration

    def once(self) -> tuple[float, int] | None:
        """One checked iteration; None when it failed."""
        self.attempted += 1
        try:
            seconds, items, digest, errors = self.runner.iteration()
        except (Exception, SystemExit):  # any failure of the call counts against error_rate
            seconds, items, digest, errors = 0.0, 0, "", [traceback.format_exc(limit=3)]
        if not errors:
            if self.runner.reference_digest is None:
                self.runner.reference_digest = digest
            elif digest != self.runner.reference_digest:
                errors = [f"output digest {digest[:12]} differs from first iteration's"]
        if errors:
            self.failed += 1
            if self.failed == 1:
                print(f"error: iteration {self.attempted}: {errors[0]}", file=sys.stderr)
            return None
        return seconds, items

    def run(
        self, seconds: float, min_count: int = 0, max_seconds: float | None = None
    ) -> tuple[list[float], list[int], list[float]]:
        """Iterate for `seconds`, then on until `min_count` iterations
        passed, but never past `max_seconds` (default: `seconds`).

        A reference timing sits between any two iterations; the mean of
        the two around an iteration is the host speed it ran at."""
        times: list[float] = []
        items: list[int] = []
        refs: list[float] = []
        t_end = time.perf_counter() + seconds
        t_cap = time.perf_counter() + (seconds if max_seconds is None else max_seconds)
        before = measure.time_reference()
        while True:
            now = time.perf_counter()
            if (now >= t_end and len(times) >= min_count) or now >= t_cap:
                break
            result = self.once()
            after = measure.time_reference()
            if result is not None:
                times.append(result[0])
                items.append(result[1])
                refs.append((before + after) / 2)
            before = after
        return times, items, refs


def measure_setup(config_path: Path) -> float:
    """Wall time of one fresh process doing the program's set-up.

    This process has already imported the program, so bytecode caches
    exist and the fresh process times what a user's repeat run pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(config_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    # wait() with a timeout polls in steps of up to 50 ms, which would
    # quantize the timing; a watchdog kills a hung child instead
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"set-up process exited {rc}")
    return seconds


def record_bytes(cfg) -> float:
    """tracemalloc bytes retained per PacketRecord by a one-tick run."""
    from iiot_netsim import sim_engine

    probe = replace(cfg, duration_s=cfg.tick_s)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = sim_engine.run_simulation(probe)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(result.records) if result.records else 0.0


def model_stats(results, cfg) -> dict[str, float]:
    """Simulated statistics over every run_simulation result of one iteration."""
    records = [r for res in results for r in res.records]
    if not records:
        return {k: 0.0 for k in PER_LAYER if k.startswith("model.")}
    lat_ms = [r.latency_s * 1e3 for r in records if r.delivered]
    served_capacity = cfg.server_mu() * cfg.duration_s * len(results)
    return {
        "model.delivered_ratio": len(lat_ms) / len(records),
        "model.legs_per_packet": sum(r.attempts for r in records) / len(records),
        "model.server_utilization": len(lat_ms) / served_capacity,
        "model.latency_ms_p50": measure.percentile(lat_ms, 0.5) if lat_ms else 0.0,
        "model.latency_ms_p99": measure.percentile(lat_ms, 0.99) if lat_ms else 0.0,
    }


def run_end_to_end(wl, loop: Loop, seconds: float) -> dict[str, float]:
    """Timed iterations in SETUP_REPEATS segments, each after one fresh-process
    set-up, so the host's speed phases reach the set-up samples as they
    reach the iterations."""
    times: list[float] = []
    items: list[int] = []
    refs: list[float] = []
    setup: list[float] = []
    for k in range(SETUP_REPEATS):
        setup.append(measure_setup(wl.config_path))
        # checked, not timed: the first iteration fixes the reference digest,
        # and each one after a set-up process meets caches it evicted
        loop.once()
        if k < SETUP_REPEATS - 1:
            t, i, r = loop.run(seconds / SETUP_REPEATS)
        else:  # the last segment runs on until the p90 has its samples
            need = measure.min_samples(TAIL_P) - len(times)
            t, i, r = loop.run(seconds / SETUP_REPEATS, need, MAX_STRETCH * seconds)
        times += t
        items += i
        refs += r
    if not times:
        return {}
    norm = [measure.normalized(t, r) for t, r in zip(times, refs)]
    beyond = measure.samples_beyond(len(times), TAIL_P)
    print(f"samples {len(times)} timed iterations, {beyond} beyond p90; {len(setup)} set-ups")
    per_iteration = statistics.median(items)
    metrics = {}
    for prefix, iters in (("", norm), ("host.", times)):
        p50 = statistics.median(iters)
        metrics[prefix + "items_per_s"] = per_iteration / p50
        metrics[prefix + "iter_s_p50"] = p50
        try:
            metrics[prefix + "iter_s_p90"] = measure.tail_percentile(iters, TAIL_P)
        except ValueError as e:  # the run hit MAX_STRETCH first: no p90, not correct
            loop.check_errors.append(f"iter_s_p90: {e}")
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = measure.peak_rss_mib()
    metrics["host.reference_ms"] = statistics.median(refs) * 1e3
    return metrics


def run_traced(wl, loop: Loop, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced iterations in pairs.  The overhead is
    the median over pairs of traced minus untraced time, so host-speed
    drift over the run cancels within each pair."""
    loop.once()  # warm-up, untraced
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    overheads: list[float] = []
    t_end = time.perf_counter() + seconds
    t_cap = time.perf_counter() + MAX_STRETCH * seconds
    while (time.perf_counter() < t_end or len(traced) < 3) and time.perf_counter() < t_cap:
        plain = loop.once()
        if plain is not None:
            untraced.append(plain[0])
        # a failed iteration shares its id with the next one, which only
        # matters in a run already marked incorrect
        tracer.iteration_id = len(traced)
        tracer.capture_results = not traced
        tracer.install()
        try:
            result = loop.once()
        finally:
            tracer.uninstall()
        if result is not None:
            traced.append(result[0])
            if plain is not None:
                overheads.append(result[0] - plain[0])
    if not overheads:
        return {}
    tracer.write(OUT / wl.name / "spans.npz")
    print(f"samples {len(untraced)} untraced, {len(traced)} traced iterations, "
          f"{len(overheads)} pairs; {len(tracer.start)} spans written to "
          f"{OUT / wl.name / 'spans.npz'}")
    metrics = layer_metrics(tracer, list(range(len(traced))), loop)
    sim = wl.command != "validate"
    metrics["sim_engine.record_bytes"] = record_bytes(loop.runner.cfg) if sim else 0.0
    metrics.update(model_stats(tracer.captured, loop.runner.cfg))
    overhead = statistics.median(overheads)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / statistics.median(untraced)
    return metrics


def layer_metrics(tracer, ids: list[int], loop: Loop) -> dict[str, float]:
    """Per-layer times and counts: medians over the traced iterations."""
    spans = tracer.per_iteration(ids)
    metrics: dict[str, float] = {}
    for metric, parts in SPAN_METRICS.items():
        per_iter = [0.0] * len(ids)
        for span, field in parts:
            if span in spans:
                per_iter = [a + float(b) for a, b in zip(per_iter, spans[span][field])]
        metrics[metric] = statistics.median(per_iter)
    for name in COUNTER_METRICS:
        metrics[name] = statistics.median(tracer.counter(name, ids))
    records = metrics["sim_engine.records"]
    metrics["rng.streams_per_packet"] = metrics["rng.streams"] / records if records else 0.0

    # the same inputs must do the same work on every iteration; bytes
    # written are exempt, as the manifest embeds its own wall-clock time
    counts = {f"{name}.calls": list(v["calls"]) for name, v in spans.items()}
    for name in COUNTER_METRICS:
        if name != "cli.bytes_written":
            counts[name] = tracer.counter(name, ids)
    for name, per_iter in counts.items():
        if len(set(per_iter)) > 1:
            loop.check_errors.append(f"{name} differs between iterations: {sorted(set(per_iter))}")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "iiot_netsim" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'iiot_netsim'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import iiot_netsim

    if Path(iiot_netsim.__file__).resolve().parent != (SRC / "iiot_netsim").resolve():
        print(f"error: imported {iiot_netsim.__file__}, not the checkout's copy", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = OUT / args.workload
    wl = workloads.generate(args.workload, args.seed, work / "inputs")
    runner = Runner(wl, work / "outputs")
    loop = Loop(runner)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print(f"offered_utilization_peak {wl.plan['offered_utilization_peak']!r}")
    if wl.command == "validate":
        kinds = [spec["kind"] for spec in wl.plan["channel"]]
        tried = ", ".join(f"{k} {n}" for k, n in zip(kinds, runner.channel_seeds_tried))
        print(f"validate-channel candidates tried: {tried}; KS series on {wl.plan['ks_series_kind']}")

    if args.trace:
        values, units, reported = run_traced(wl, loop, args.seconds), PER_LAYER, {}
    else:
        values, units, reported = run_end_to_end(wl, loop, args.seconds), END_TO_END, REPORTED
    error_rate = loop.failed / loop.attempted
    for name, unit in {**units, **reported}.items():
        if name in values:
            print(f"metric {name} {values[name]!r} {unit}")
    print(f"metric error_rate {error_rate!r} ratio")
    print(f"sim_digest {runner.reference_digest}")
    for name, n in sorted(runner.defects.items()):
        print(f"known_defect {name} {n}")
    for message in loop.check_errors:
        print(f"error: {message}", file=sys.stderr)
    correct = loop.failed == 0 and not loop.check_errors and set(units) <= set(values)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
