"""Aggregation of a run's packet columns into summary artifacts.

Consumes the struct-of-arrays that sim_engine.run_simulation returns
(sim_engine.PacketColumns: one array each of tick_start_s, send_time_s,
attempts, delivered and latency_s, row i describing one packet);
produces the round-trip summary, fixed-window interval series, and the
running mean latency behind the fading-comparison table, each summary
with a CSV mirror.  Latencies are reported in milliseconds.  Every sum
of latencies runs left to right in row order (np.cumsum is sequential),
unlike numpy's pairwise np.sum and CPython 3.12+'s compensated builtin
sum, so a mean is the same on every supported Python.  This is the only
module that summarizes records; the simulator returns them.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ShapeMismatchError

INTERVALS_HEADER = (
    "window_start_s,window_len_s,sent,delivered,lost,"
    "throughput_bps,avg_latency_ms,min_latency_ms,max_latency_ms"
)
RTT_SUMMARY_HEADER = "min_ms,max_ms,avg_ms,count"


@dataclass(frozen=True)
class IntervalReport:
    """Aggregates over one reporting window; latency fields None when idle."""

    window_start_s: float
    window_len_s: float
    sent: int
    delivered: int
    lost: int
    throughput_bps: float
    avg_latency_ms: float | None
    min_latency_ms: float | None
    max_latency_ms: float | None


@dataclass(frozen=True)
class RttSummary:
    min_ms: float | None
    max_ms: float | None
    avg_ms: float | None
    count: int


def latency_stats(values) -> tuple[float | None, float | None, float | None]:
    """(min, avg, max) of a float array or sequence; all None when empty.

    avg is the left-to-right sum over the count, clamped into [min, max],
    which it can round outside (three 0.1s average to 0.10000000000000002).
    """
    values = np.asarray(values, dtype=float)
    if not values.size:
        return None, None, None
    lo, hi = float(values.min()), float(values.max())
    return lo, min(max(float(np.cumsum(values)[-1]) / values.size, lo), hi), hi


def summarize_rtt(records) -> RttSummary:
    """Min/max/avg latency over delivered packets; empty input stays empty."""
    lat = records.latency_s[records.delivered]
    if not lat.size:
        return RttSummary(None, None, None, 0)
    lo, avg, hi = latency_stats(lat)
    return RttSummary(min_ms=lo * 1e3, max_ms=hi * 1e3, avg_ms=avg * 1e3, count=len(lat))


def mean_latency_so_far(records, times) -> list[float | None]:
    """Average latency in ms of the delivered packets sent at or before each
    time; None before the first delivery.

    Deliveries are ordered by (send_time_s, latency_s); each prefix's mean
    is the one latency_stats gives for it, as in summarize_rtt.
    """
    sends = records.send_time_s[records.delivered]
    lats = records.latency_s[records.delivered]
    # distinct sends have one sorting permutation, which the default (SIMD)
    # argsort finds; only equal sends need the latency as a second key.
    # numpy orders complex numbers by real part, then imaginary part, so
    # sends + i*lats sorts by (send, latency), faster than lexsort; rows
    # that tie on both keys hold equal latencies
    order = np.argsort(sends)
    ordered = sends[order]
    if (ordered[1:] == ordered[:-1]).any():  # a tie; ordered is the same either way
        order = np.argsort(sends + 1j * lats)
    sends, lats = ordered, lats[order]
    # every prefix's mean in one pass, clamped into the prefix's [min, max];
    # the leading nan stands for the empty prefix
    avg = np.cumsum(lats) / np.arange(1, lats.size + 1)
    avg = np.r_[np.nan, np.clip(avg, np.minimum.accumulate(lats), np.maximum.accumulate(lats))]
    k = np.searchsorted(sends, times, side="right")
    return [m if i else None for i, m in zip(k.tolist(), (avg[k] * 1e3).tolist())]


def windowed_series(
    records, window: float, bits_per_packet: float, span_s: float
) -> list[IntervalReport]:
    """Partition records by send tick into the fixed windows covering
    [0, span_s), including windows where no traffic was offered.

    A packet belongs to the window containing its tick start, so counts
    telescope exactly; within a window, rows keep their order.
    """
    if not window > 0:
        raise InvalidParameterError(f"window must be > 0, got {window}")
    n_windows = max(1, math.ceil(span_s / window - 1e-12))
    # nudge guards against fp drift when tick_start sits on a boundary
    idx = np.floor((records.tick_start_s + 1e-12) / window)
    order = np.argsort(idx, kind="stable")
    edges = np.searchsorted(idx[order], np.arange(n_windows + 1)).tolist()
    delivered = records.delivered[order]
    lat_ms = records.latency_s[order] * 1e3

    out = []
    for i in range(n_windows):
        rows = slice(edges[i], edges[i + 1])
        window_lat = lat_ms[rows][delivered[rows]]
        lo, avg, hi = latency_stats(window_lat)
        sent = rows.stop - rows.start
        out.append(
            IntervalReport(
                window_start_s=i * window,
                window_len_s=window,
                sent=sent,
                delivered=len(window_lat),
                lost=sent - len(window_lat),
                throughput_bps=len(window_lat) * bits_per_packet / window,
                avg_latency_ms=avg,
                min_latency_ms=lo,
                max_latency_ms=hi,
            )
        )
    return out


def _cell(value) -> str:
    # empty string for absent latency; never fabricate a 0
    if value is None:
        return ""
    return str(value)


def intervals_to_csv(reports: list[IntervalReport]) -> str:
    buf = io.StringIO()
    buf.write(INTERVALS_HEADER + "\n")
    for r in reports:
        buf.write(
            f"{r.window_start_s},{r.window_len_s},{r.sent},{r.delivered},{r.lost},"
            f"{r.throughput_bps},{_cell(r.avg_latency_ms)},"
            f"{_cell(r.min_latency_ms)},{_cell(r.max_latency_ms)}\n"
        )
    return buf.getvalue()


def rtt_summary_to_csv(summary: RttSummary) -> str:
    return (
        RTT_SUMMARY_HEADER + "\n"
        f"{_cell(summary.min_ms)},{_cell(summary.max_ms)},"
        f"{_cell(summary.avg_ms)},{summary.count}\n"
    )


def fading_comparison_table(
    times_s: list[float], kinds: list[str], latency_ms: list[list[float]]
) -> tuple[str, str]:
    """Render the comparison matrix (rows = times, cols = kinds).

    Returns (aligned text table, CSV mirror); cells are milliseconds with
    one decimal place.  Raises on empty or ragged input.
    """
    if not times_s or not kinds:
        raise ShapeMismatchError("comparison table needs at least one time and one kind")
    if len(latency_ms) != len(times_s):
        raise ShapeMismatchError(
            f"expected {len(times_s)} rows, got {len(latency_ms)}"
        )
    for row in latency_ms:
        if len(row) != len(kinds):
            raise ShapeMismatchError(
                f"ragged row: expected {len(kinds)} cells, got {len(row)}"
            )

    header = ["time_s"] + [f"{k}_ms" for k in kinds]
    rows = [
        [f"{t:g}"] + [f"{v:.1f}" if v is not None and math.isfinite(v) else "" for v in row]
        for t, row in zip(times_s, latency_ms)
    ]
    csv = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"

    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    text = "\n".join([fmt.format(*header)] + [fmt.format(*r) for r in rows]) + "\n"
    return text, csv
