"""Aggregation of a run's packet columns into summary artifacts.

Consumes the struct-of-arrays that sim_engine.run_simulation returns
(sim_engine.PacketColumns: the run's tick_s, and one array each of tick,
send_time_s, attempts, delivered and latency_q, row i describing one
packet); produces the round-trip summary, the interval series over
windows of whole ticks, and the running mean latency behind the
fading-comparison table, each summary with a CSV mirror.  Latencies are
reported in milliseconds.  Every reduction is exact on the integer
latencies: sums are Python ints, and each min, mean and max is one
correctly rounded division (_ms), so min <= avg <= max, and two
summaries of the same packets agree.  This is the only module that
summarizes records; the simulator returns them.
"""
from __future__ import annotations

import io
import math
import sys
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


_LIMB_BITS = 21  # three limbs hold a latency below 2**63 units
_LIMB_MASK = (1 << _LIMB_BITS) - 1


def _limb_shifts(top: int) -> range:
    """The shifts of the 21-bit limbs of values in [0, top]; a limb above
    top's highest bit is 0 in every value, so it is left out."""
    return range(0, max(top.bit_length(), 1), _LIMB_BITS)


def _sum(q: np.ndarray, top: int) -> int:
    """Exact sum of int64 q in [0, top], top < 2**63: its 21-bit limbs are
    summed apart in int64, exact for fewer than 2**42 terms, more than
    memory holds."""
    return sum(int(((q >> s) & _LIMB_MASK).sum()) << s for s in _limb_shifts(top))


def _ms(units: int, count: int = 1) -> float:
    """units / count in ms, rounded once: int / int is correctly rounded.
    A unit is 2**-32 s, sim_engine.UNITS_PER_S."""
    return units * 1000 / (count << 32)


def latency_stats(q: np.ndarray) -> tuple[float | None, float | None, float | None]:
    """(min, avg, max) in ms of int64 latencies in units; all None when empty.
    Each is its exact value correctly rounded, so min <= avg <= max."""
    if not q.size:
        return None, None, None
    hi = int(q.max())
    return _ms(int(q.min())), _ms(_sum(q, hi), q.size), _ms(hi)


def summarize_rtt(records) -> RttSummary:
    """Min/max/avg latency over delivered packets; empty input stays empty."""
    q = records.latency_q[records.delivered]
    lo, avg, hi = latency_stats(q)
    return RttSummary(min_ms=lo, max_ms=hi, avg_ms=avg, count=q.size)


def mean_latency_so_far(records, times, order=None) -> list[float | None]:
    """Average latency in ms of the delivered packets sent at or before each
    time; None before the first delivery.  Integer sums ignore order, so
    equal sends need no tie-break: a time counts all of them or none.

    order, if given, is np.argsort(records.send_time_s), which runs with
    the same sends can share."""
    if order is None:
        order = np.argsort(records.send_time_s)
    order = order[records.delivered[order]]  # the delivered rows in send order
    counts = np.searchsorted(records.send_time_s[order], times, side="right")
    # prefix k sums the first k latencies in send order, exactly: _sum's
    # limbs, each one cumsum after a leading 0, so a few passes serve every time
    lats = np.zeros(len(order) + 1, dtype=np.int64)
    np.take(records.latency_q, order, out=lats[1:], mode="clip")
    shifts = _limb_shifts(int(lats.max()))
    limbs = lats >> np.array(shifts)[:, None]
    limbs &= _LIMB_MASK
    prefix = limbs.cumsum(axis=1)[:, counts].T.tolist()
    sums = (sum(p << s for p, s in zip(row, shifts)) for row in prefix)
    return [_ms(total, k) if k else None for total, k in zip(sums, counts.tolist())]


def _whole_ticks(span: float, tick_s: float) -> int:
    """span / tick_s when it is within 1e-9 of a whole number >= 1, else 0:
    the rule for every span the program counts in ticks."""
    if not 0 < span <= sys.float_info.max:  # also an int past the float range
        return 0
    n = span / tick_s  # inf when a tiny tick_s overflows it
    if n == math.inf or abs(n - round(n)) > 1e-9 or round(n) < 1:
        return 0
    return round(n)


def windowed_series(
    records, window: float, bits_per_packet: float, span_s: float
) -> list[IntervalReport]:
    """Partition records by send tick into the fixed windows covering the
    span_s / tick_s ticks of a run, including windows where no traffic was
    offered.  window and span_s are whole numbers of ticks, k and n:
    window i holds ticks 1 + i*k to (i+1)*k, and the last ends at tick n,
    so it can be shorter than window and is as long as its ticks.

    records must be in tick order, as a run returns them.
    """
    k = _whole_ticks(window, records.tick_s)
    if not k:
        raise InvalidParameterError(
            f"window must be finite and >= tick_s, a whole number of ticks, got {window}"
        )
    n = _whole_ticks(span_s, records.tick_s)
    if not n:
        raise InvalidParameterError(f"span_s must be a whole number of ticks, got {span_s}")
    ends = [*range(0, n, k), n]  # the last tick of each window, after a 0
    edges = np.searchsorted(records.tick, ends, side="right").tolist()

    out = []
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        ticks = ends[i + 1] - ends[i]
        length = window if ticks == k else ticks * records.tick_s
        window_q = records.latency_q[a:b][records.delivered[a:b]]
        lo, avg, hi = latency_stats(window_q)
        n_ok = window_q.size
        out.append(IntervalReport(
            window_start_s=i * window, window_len_s=length,
            sent=b - a, delivered=n_ok, lost=b - a - n_ok,
            throughput_bps=n_ok * bits_per_packet / length,
            avg_latency_ms=avg, min_latency_ms=lo, max_latency_ms=hi,
        ))
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

    Returns (aligned text table, CSV mirror); a time label reads back as
    its float, and cells are milliseconds with one decimal place.  Raises
    on empty or ragged input.
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
        [repr(float(t)).removesuffix(".0")]  # reads back as t; 2.0 prints as 2
        + [f"{v:.1f}" if v is not None and math.isfinite(v) else "" for v in row]
        for t, row in zip(times_s, latency_ms)
    ]
    csv = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"

    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    text = "\n".join([fmt.format(*header)] + [fmt.format(*r) for r in rows]) + "\n"
    return text, csv
