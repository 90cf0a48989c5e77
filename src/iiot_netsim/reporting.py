"""Aggregation of per-packet records into summary artifacts.

Consumes packet records duck-typed on the attributes
(tick_start_s, delivered, latency_s); produces the round-trip summary,
fixed-window interval series, and the fading-comparison latency table,
each with a CSV mirror.  Latencies are reported in milliseconds.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

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
    """(min, avg, max) of a sequence; all None when it is empty.

    The mean sum/len can round outside [min, max] (three copies of 0.1
    average to 0.10000000000000002), so it is clamped back into range.
    """
    if not values:
        return None, None, None
    lo, hi = min(values), max(values)
    return lo, min(max(sum(values) / len(values), lo), hi), hi


def summarize_rtt(records) -> RttSummary:
    """Min/max/avg latency over delivered packets; empty input stays empty."""
    lat = [r.latency_s for r in records if r.delivered]
    if not lat:
        return RttSummary(None, None, None, 0)
    lo, avg, hi = latency_stats(lat)
    return RttSummary(min_ms=lo * 1e3, max_ms=hi * 1e3, avg_ms=avg * 1e3, count=len(lat))


def windowed_series(
    records, window: float, bits_per_packet: float, span_s: float | None = None
) -> list[IntervalReport]:
    """Partition records by send tick into consecutive fixed windows.

    A packet belongs to the window containing its tick start, so counts
    telescope exactly.  span_s, when given, forces the series to cover
    [0, span_s) even where no traffic was offered; otherwise the series
    ends at the last nonempty window (empty input gives an empty list).
    """
    if not window > 0:
        raise InvalidParameterError(f"window must be > 0, got {window}")
    buckets: dict[int, list] = {}
    for r in records:
        # nudge guards against fp drift when tick_start sits on a boundary
        idx = int(math.floor((r.tick_start_s + 1e-12) / window))
        buckets.setdefault(idx, []).append(r)
    if span_s is not None:
        n_windows = max(1, math.ceil(span_s / window - 1e-12))
    elif buckets:
        n_windows = max(buckets) + 1
    else:
        return []

    out = []
    for idx in range(n_windows):
        rows = buckets.get(idx, [])
        delivered = [r for r in rows if r.delivered]
        lat_ms = [r.latency_s * 1e3 for r in delivered]
        lo, avg, hi = latency_stats(lat_ms)
        out.append(
            IntervalReport(
                window_start_s=idx * window,
                window_len_s=window,
                sent=len(rows),
                delivered=len(delivered),
                lost=len(rows) - len(delivered),
                throughput_bps=len(delivered) * bits_per_packet / window,
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


def parse_intervals_csv(text: str) -> list[IntervalReport]:
    """Inverse of intervals_to_csv, field for field."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != INTERVALS_HEADER:
        raise InvalidParameterError("unrecognized intervals CSV header")
    out = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 9:
            raise InvalidParameterError(f"malformed intervals CSV row: {line!r}")
        out.append(
            IntervalReport(
                window_start_s=float(f[0]),
                window_len_s=float(f[1]),
                sent=int(f[2]),
                delivered=int(f[3]),
                lost=int(f[4]),
                throughput_bps=float(f[5]),
                avg_latency_ms=float(f[6]) if f[6] else None,
                min_latency_ms=float(f[7]) if f[7] else None,
                max_latency_ms=float(f[8]) if f[8] else None,
            )
        )
    return out


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
