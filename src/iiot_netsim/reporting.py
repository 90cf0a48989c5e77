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
summaries of the same packets agree.

One reduction serves both summaries: windowed_series reduces every
window in a fixed number of array passes over the packets (no Python
loop per window) and carries each window's exact latency sum, so the
run summary is the exact fold of the windows (summarize_windows), with
no second pass; summarize_rtt is the one-segment case of the same
reduction.  This is the only module that summarizes records; the
simulator returns them.
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
    """Aggregates over one reporting window; latency fields None when idle.

    latency_sum_q is the exact sum of the window's delivered latencies in
    units of 2**-32 s (0 when idle), so the run summary folds from the
    windows (summarize_windows); it is not a column of the CSV."""

    window_start_s: float
    window_len_s: float
    sent: int
    delivered: int
    lost: int
    throughput_bps: float
    avg_latency_ms: float | None
    min_latency_ms: float | None
    max_latency_ms: float | None
    latency_sum_q: int


@dataclass(frozen=True)
class RttSummary:
    min_ms: float | None
    max_ms: float | None
    avg_ms: float | None
    count: int


def _exact_sums(q: np.ndarray, top: int, count: int, reduce) -> list[int]:
    """reduce(limb).tolist() over the limbs of int64 q in [0, top], put
    back together as Python ints: the exact sums that reduce takes when
    it adds at most count values per sum.  A limb is w bits wide with
    count * 2**w <= 2**63, so no sum of limbs wraps int64; a limb above
    top's highest bit is 0 in every value, so it is left out, and when
    top fits one limb q is summed as it is."""
    width = 63 - max(count, 1).bit_length()
    if top.bit_length() <= width:
        return reduce(q).tolist()
    mask = (1 << width) - 1
    sums = None
    for s in range(0, top.bit_length(), width):
        part = reduce((q >> s) & mask).tolist()
        sums = part if sums is None else [t + (p << s) for t, p in zip(sums, part)]
    return sums


def _ms(units: int, count: int = 1) -> float:
    """units / count in ms, rounded once: int / int is correctly rounded.
    A unit is 2**-32 s, sim_engine.UNITS_PER_S."""
    return units * 1000 / (count << 32)


def _segments(records, edges: np.ndarray) -> tuple[list, list, list, list]:
    """(delivered, exact latency sum in units, min ms, max ms) of the
    records in each segment edges[i]:edges[i+1], edges ascending; min and
    max are None where nothing was delivered.  A fixed number of array
    passes serves every segment."""
    a, b = int(edges[0]), int(edges[-1])
    ok = records.delivered[a:b]
    if ok.all():  # nothing to gather
        q, ok_edges = records.latency_q[a:b], edges - a
    else:
        rows = np.flatnonzero(ok)
        q, ok_edges = records.latency_q[a:b][rows], np.searchsorted(rows, edges - a)
    counts = np.diff(ok_edges)
    m = len(counts)
    sums, lows, highs = [0] * m, [None] * m, [None] * m
    served = np.flatnonzero(counts)
    if served.size:
        # reduceat gives an empty segment its start element, so only served
        # segments reach it; each runs to the next served start, past the
        # empty ones between, and the last to the end of q
        starts = ok_edges[served]
        hi = np.maximum.reduceat(q, starts)
        lo = np.minimum.reduceat(q, starts).tolist()
        total = _exact_sums(
            q, int(hi.max()), int(counts.max()), lambda limb: np.add.reduceat(limb, starts)
        )
        for i, t, x, y in zip(served.tolist(), total, lo, hi.tolist()):
            sums[i], lows[i], highs[i] = t, _ms(x), _ms(y)
    return counts.tolist(), sums, lows, highs


def _summary(counts, sums, lows, highs) -> RttSummary:
    """The summary of segments' (delivered, sum, min, max): counts and
    exact sums add, and rounding keeps order, so the least rounded
    minimum is the rounded least latency, and likewise the maximum."""
    count = sum(counts)
    if not count:
        return RttSummary(min_ms=None, max_ms=None, avg_ms=None, count=0)
    return RttSummary(
        min_ms=min(x for x in lows if x is not None),
        max_ms=max(x for x in highs if x is not None),
        avg_ms=_ms(sum(sums), count),
        count=count,
    )


def summarize_rtt(records) -> RttSummary:
    """Min/max/avg latency over delivered packets; empty input stays empty.
    The one-segment case of windowed_series' reduction."""
    return _summary(*_segments(records, np.array([0, len(records)])))


def summarize_windows(windows: list[IntervalReport]) -> RttSummary:
    """The run summary folded from windowed_series' windows, with no pass
    over the packets: equal to summarize_rtt of the packets they hold."""
    return _summary(
        [w.delivered for w in windows],
        [w.latency_sum_q for w in windows],
        [w.min_latency_ms for w in windows],
        [w.max_latency_ms for w in windows],
    )


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
    # prefix k sums the first k latencies in send order, exactly: each
    # limb's cumsum after a leading 0, so a few passes serve every time
    lats = np.zeros(len(order) + 1, dtype=np.int64)
    np.take(records.latency_q, order, out=lats[1:], mode="clip")
    sums = _exact_sums(lats, int(lats.max()), lats.size, lambda limb: limb.cumsum()[counts])
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
    edges = np.searchsorted(records.tick, ends, side="right")
    counts, sums, lows, highs = _segments(records, edges)
    last = n - ends[-2]  # the last window's ticks
    lengths = [window] * (len(counts) - 1) + [window if last == k else last * records.tick_s]
    return [
        IntervalReport(
            window_start_s=i * window, window_len_s=length,
            sent=sent, delivered=n_ok, lost=sent - n_ok,
            throughput_bps=n_ok * bits_per_packet / length,
            avg_latency_ms=_ms(total, n_ok) if n_ok else None,
            min_latency_ms=lo, max_latency_ms=hi, latency_sum_q=total,
        )
        for i, (sent, n_ok, total, lo, hi, length) in enumerate(
            zip(np.diff(edges).tolist(), counts, sums, lows, highs, lengths)
        )
    ]


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
