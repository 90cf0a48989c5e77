"""Correctness gate: exact invariants on each iteration's outputs, and digests.

Each check returns a list of failure messages (empty when the outputs
hold) and adds to ``Defects`` the known rounding defects it sees.  A
known defect is counted and reported, never folded into a pass: only a
violation larger than the rounding bound stated at each check counts as
a failure.  The bounds follow from the program's arithmetic:

* latency is computed as ``(fl(send + travel) - send) + wait``, which
  can undershoot ``legs * one_way`` by half an ulp of the send-plus-travel
  time, so at most ``ulp(duration_s)`` seconds.
* an average is computed as ``sum / count``, which can land outside
  ``[min, max]`` for equal or nearly equal values.  Summing ``count``
  terms errs by less than ``(count - 1) * ulp(max)``, the division adds
  one ulp, and scaling seconds to ms (``summarize_rtt``) adds one more
  and can double an ulp, so at most ``2 * (count + 1) * ulp(max)``.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path


class Defects(Counter):
    """Occurrences of known rounding defects, by name."""


def digest(out_dir: Path, files: list[str], stdout: str) -> str:
    """sha256 over the command's stdout and output files.

    The manifest's ``wall_clock_s`` is a host timing, not simulated
    output, so it is dropped before hashing.
    """
    h = hashlib.sha256(stdout.encode("utf-8"))
    for name in files:
        data = (out_dir / name).read_bytes()
        if name == "manifest.json":
            doc = json.loads(data)
            doc.pop("wall_clock_s", None)
            data = json.dumps(doc, sort_keys=True).encode("utf-8")
        h.update(name.encode("utf-8") + b"\0" + data)
    return h.hexdigest()


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _ms(cell: str) -> float | None:
    return float(cell) if cell else None


def _check_manifest(out_dir: Path, command: str, doc: dict, outputs: list[str]) -> list[str]:
    m = json.loads((out_dir / "manifest.json").read_text())
    errors = []
    if m.get("command") != command:
        errors.append(f"manifest command {m.get('command')!r} != {command!r}")
    if m.get("outputs") != outputs:
        errors.append(f"manifest outputs {m.get('outputs')} != {outputs}")
    if command != "validate-channel" and (m.get("config") != doc or m.get("seed") != doc["seed"]):
        errors.append("manifest config snapshot differs from the generated config")
    return errors


def _ordered(lo, avg, hi, count: int, where: str, defects: Defects) -> list[str]:
    """min <= avg <= max, allowing only the rounding of sum / count."""
    if lo <= avg <= hi:
        return []
    slack = 2 * (count + 1) * math.ulp(hi)
    if lo - slack <= avg <= hi + slack:
        defects["reporting.avg_outside_min_max_by_rounding"] += 1
        return []
    return [f"{where}: avg {avg!r} outside [{lo!r}, {hi!r}]"]


def _floor(latency_ms: float, floor_s: float, duration_s: float, where: str, defects: Defects):
    """latency >= min_legs * one_way, allowing only the send-time rounding."""
    floor_ms = floor_s * 1e3
    if latency_ms >= floor_ms:
        return []
    if latency_ms >= (floor_s - math.ulp(duration_s)) * 1e3:
        defects["sim_engine.latency_below_floor_by_rounding"] += 1
        return []
    return [f"{where}: latency {latency_ms!r} ms below floor {floor_ms!r} ms"]


def check_simulate(
    out_dir: Path, stdout: str, doc: dict, cfg, defects: Defects
) -> tuple[list[str], int]:
    """Invariants of one ``simulate`` command; returns (errors, packets sent)."""
    errors = _check_manifest(out_dir, "simulate", doc, ["intervals.csv", "rtt_summary.csv"])
    fields = dict(part.split("=", 1) for part in stdout.split())
    sent, delivered, lost = (int(fields[k]) for k in ("sent", "delivered", "lost"))
    if sent != delivered + lost:
        errors.append(f"sent {sent} != delivered {delivered} + lost {lost}")

    windows = _rows((out_dir / "intervals.csv").read_text())
    n_windows = max(1, math.ceil(cfg.duration_s / cfg.report_window_s - 1e-12))
    if len(windows) != n_windows:
        errors.append(f"{len(windows)} windows, expected {n_windows}")
    floor_s = cfg.min_legs() * cfg.one_way_s()
    for key, total in (("sent", sent), ("delivered", delivered), ("lost", lost)):
        if sum(int(w[key]) for w in windows) != total:
            errors.append(f"window {key} counts do not sum to the run's {total}")
    for i, w in enumerate(windows):
        if int(w["sent"]) != int(w["delivered"]) + int(w["lost"]):
            errors.append(f"window {i}: sent != delivered + lost")
        lo, avg, hi = (_ms(w[k]) for k in ("min_latency_ms", "avg_latency_ms", "max_latency_ms"))
        if int(w["delivered"]) == 0:
            if (lo, avg, hi) != (None, None, None):
                errors.append(f"window {i}: latency reported with nothing delivered")
            continue
        errors += _ordered(lo, avg, hi, int(w["delivered"]), f"window {i}", defects)
        errors += _floor(lo, floor_s, cfg.duration_s, f"window {i}", defects)

    (summary,) = _rows((out_dir / "rtt_summary.csv").read_text())
    if int(summary["count"]) != delivered:
        errors.append(f"rtt_summary count {summary['count']} != delivered {delivered}")
    if delivered:
        lo, avg, hi = (_ms(summary[k]) for k in ("min_ms", "avg_ms", "max_ms"))
        errors += _ordered(lo, avg, hi, delivered, "rtt_summary", defects)
        errors += _floor(lo, floor_s, cfg.duration_s, "rtt_summary", defects)
        if min(_ms(w["min_latency_ms"]) for w in windows if w["min_latency_ms"]) != lo:
            errors.append("rtt_summary min differs from the smallest window min")
    return errors, sent


def check_compare(out_dir: Path, stdout: str, doc: dict, cfg, plan) -> list[str]:
    """Invariants of one ``compare-fading`` command."""
    errors = _check_manifest(out_dir, "compare-fading", doc, ["fading_table.csv"])
    labels = [k.label for k in plan.kinds]
    text = (out_dir / "fading_table.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["time_s"] + [f"{k}_ms" for k in labels]:
        errors.append(f"fading_table header {rows[0]}")
    if len(rows) != 1 + len(plan.sample_times_s):
        errors.append(f"fading_table has {len(rows) - 1} rows, expected {len(plan.sample_times_s)}")
    # the stdout table holds the same cells, aligned
    if [line.split() for line in stdout.splitlines()] != [
        [c for c in r if c] for r in rows
    ]:
        errors.append("stdout table differs from fading_table.csv")
    # cells are rounded to 0.1 ms, so the floor holds to within 0.05 ms
    floor_ms = cfg.min_legs() * cfg.one_way_s() * 1e3
    for r in rows[1:]:
        for label, cell in zip(labels, r[1:]):
            if not cell:
                errors.append(f"fading_table: empty cell for {label} at t={r[0]}")
            elif not float(cell) >= floor_ms - 0.05:
                errors.append(f"fading_table: {label} {cell} ms below floor {floor_ms:.4f} ms")
    return errors


def check_validate_channel(out_dir: Path, stdout: str) -> list[str]:
    """One ``validate-channel`` pass: verdict printed, PDF table complete."""
    errors = _check_manifest(out_dir, "validate-channel", {}, ["channel_pdf.csv"])
    if stdout.splitlines()[-1:] != ["pass"]:
        errors.append("validate-channel did not print 'pass'")
    rows = _rows((out_dir / "channel_pdf.csv").read_text())
    if len(rows) != 64 or not all(float(r["pdf_empirical"]) >= 0.0 for r in rows):
        errors.append("channel_pdf.csv is not a 64-bin nonnegative histogram")
    return errors


def check_reliability(mc: float, closed: float, runs: int) -> list[str]:
    """Monte-Carlo estimate within 5 standard errors of the closed form."""
    se = math.sqrt(closed * (1.0 - closed) / runs)
    if abs(mc - closed) > 5.0 * se:
        return [f"reliability MC {mc!r} vs closed form {closed!r} (5 SE = {5 * se:.3g})"]
    return []


def check_mmc(wait: float, frac: float, wq: float, erlang: float) -> list[str]:
    """Event-driven M/M/c oracle against Erlang C.

    Waits in a queue are strongly autocorrelated, so the tolerance is set
    wide (25% of W_q, 0.05 absolute on the waiting fraction); it catches
    a broken oracle, not sampling noise.
    """
    errors = []
    if abs(wait - wq) > 0.25 * wq:
        errors.append(f"simulate_mmc mean wait {wait!r} vs Erlang C {wq!r}")
    if abs(frac - erlang) > 0.05:
        errors.append(f"simulate_mmc waiting fraction {frac!r} vs Erlang C {erlang!r}")
    return errors


def rtt_reference(hops: list[dict]) -> float:
    """The RTT formula evaluated independently from boundary-unit hop dicts."""
    two_way = 0.0
    retx = 0.0
    for h in hops:
        two_way += (
            h["distance_m"] / h["propagation_speed_mps"]
            + h["packet_length_bits"] / h["link_rate_bps"] * h["hop_weight"]
            + h["processing_delay_ms"] * 1e-3
            + h["hop_weight"] / (h["service_rate_pps"] - h["arrival_rate_pps"])
        )
        retx += h["retx_base_ms"] * 1e-3 / (1.0 - h["loss_prob"])
    return 2.0 * two_way + retx


def check_rtt(total: float, hops: list[dict]) -> list[str]:
    ref = rtt_reference(hops)
    if not math.isclose(total, ref, rel_tol=1e-12):
        return [f"compute_rtt total {total!r} vs reference {ref!r}"]
    return []
