"""Aggregation artifacts: RTT summary, interval series, comparison table."""
import bisect
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iiot_netsim.errors import InvalidParameterError, ShapeMismatchError
from iiot_netsim.reporting import (
    INTERVALS_HEADER,
    RTT_SUMMARY_HEADER,
    IntervalReport,
    RttSummary,
    fading_comparison_table,
    intervals_to_csv,
    latency_stats,
    mean_latency_so_far,
    rtt_summary_to_csv,
    summarize_rtt,
    windowed_series,
)
from iiot_netsim.sim_engine import PacketColumns, PacketRecord

COLUMN_DTYPES = (float, float, np.int64, bool, float)


def cols(rows) -> PacketColumns:
    """The columns of a list of PacketRecord rows, in row order."""
    fields = list(zip(*rows)) or [()] * len(COLUMN_DTYPES)
    return PacketColumns(*(np.array(f, dtype=d) for f, d in zip(fields, COLUMN_DTYPES)))


def delivered(t, ms, send=0.0):
    return PacketRecord(
        tick_start_s=t, send_time_s=send, attempts=1, delivered=True, latency_s=ms * 1e-3
    )


def lost(t, send=0.0):
    return PacketRecord(
        tick_start_s=t, send_time_s=send, attempts=9, delivered=False, latency_s=math.nan
    )


class TestLatencyStats:
    def test_mean_clamped_into_range(self):
        # sum/len of three 0.1s rounds to 0.10000000000000002, above the max
        assert sum([0.1] * 3) / 3 > 0.1
        assert latency_stats([0.1] * 3) == (0.1, 0.1, 0.1)
        assert latency_stats([]) == (None, None, None)
        assert latency_stats(np.array([])) == (None, None, None)

    def test_sum_runs_left_to_right(self):
        # 1.0 + 2**-53 rounds to 1.0 (ties to even) twice; a compensated sum,
        # as the builtin sum is since CPython 3.12, would give 1.0 + 2**-52
        assert latency_stats(np.array([1.0, 2**-53, 2**-53])) == (2**-53, 1.0 / 3, 1.0)


class TestSummarizeRtt:
    def test_repeated_value_keeps_order(self):
        # the Hypothesis counterexample of test_ordering_invariant at seed 7
        s = summarize_rtt(cols([delivered(0, 5609.0)] * 3))
        assert s.min_ms <= s.avg_ms <= s.max_ms

    def test_hand_example(self):
        s = summarize_rtt(cols([delivered(0, 3.0), delivered(0, 12.0), delivered(0, 72.0)]))
        assert s.min_ms == pytest.approx(3.0)
        assert s.max_ms == pytest.approx(72.0)
        assert s.avg_ms == pytest.approx(29.0)
        assert s.count == 3

    def test_single(self):
        s = summarize_rtt(cols([delivered(0, 7.5)]))
        assert s.min_ms == s.max_ms == s.avg_ms == pytest.approx(7.5)
        assert s.count == 1

    def test_empty(self):
        s = summarize_rtt(cols([]))
        assert s == summarize_rtt(cols([lost(0), lost(1)]))
        assert s.count == 0
        assert s.min_ms is None and s.max_ms is None and s.avg_ms is None

    def test_ignores_lost(self):
        s = summarize_rtt(cols([delivered(0, 10.0), lost(0)]))
        assert s.count == 1

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_ordering_invariant(self, vals):
        s = summarize_rtt(cols([delivered(0, v) for v in vals]))
        assert s.min_ms <= s.avg_ms <= s.max_ms


class TestWindowedSeries:
    def test_repeated_value_keeps_order(self):
        (w,) = windowed_series(cols([delivered(0, 0.1)] * 3), 1.0, 1000.0, span_s=1.0)
        assert w.min_latency_ms <= w.avg_latency_ms <= w.max_latency_ms

    def test_uniform_rate_fills_windows(self):
        # 300 packets per 1 s tick over 20 s -> every 5 s window holds 1500
        recs = [delivered(t, 5.0) for t in range(20) for _ in range(300)]
        out = windowed_series(cols(recs), 5.0, 1000.0, span_s=20.0)
        assert len(out) == 4
        assert all(w.sent == 1500 for w in out)

    def test_empty_input(self):
        out = windowed_series(cols([]), 5.0, 1000.0, span_s=10.0)
        assert [(w.window_start_s, w.sent, w.avg_latency_ms) for w in out] == [
            (0.0, 0, None),
            (5.0, 0, None),
        ]

    def test_throughput_arithmetic(self):
        recs = [delivered(0.0, 4.0)] * 10
        out = windowed_series(cols(recs), 5.0, 1000.0, span_s=5.0)
        assert out[0].throughput_bps == pytest.approx(2000.0)

    def test_totals_telescope(self):
        recs = [delivered(t * 0.5, 6.0) for t in range(40)] + [lost(3.0), lost(9.5)]
        out = windowed_series(cols(recs), 5.0, 1000.0, span_s=20.0)
        assert sum(w.sent for w in out) == len(recs)
        assert sum(w.lost for w in out) == 2
        for w in out:
            assert w.lost == w.sent - w.delivered

    def test_rewindowing_consistency(self):
        recs = [delivered(t * 0.25, 8.0) for t in range(80)]
        five = windowed_series(cols(recs), 5.0, 1000.0, span_s=20.0)
        ten = windowed_series(cols(recs), 10.0, 1000.0, span_s=20.0)
        assert len(five) == 4 and len(ten) == 2
        for i, w in enumerate(ten):
            assert w.sent == five[2 * i].sent + five[2 * i + 1].sent
            assert w.delivered == five[2 * i].delivered + five[2 * i + 1].delivered

    def test_span_pads_empty_windows(self):
        out = windowed_series(cols([delivered(1.0, 5.0)]), 5.0, 1000.0, span_s=20.0)
        assert len(out) == 4
        assert out[0].sent == 1 and all(w.sent == 0 for w in out[1:])
        assert out[1].avg_latency_ms is None

    def test_boundary_attribution(self):
        # a tick starting exactly at the boundary belongs to the later window
        out = windowed_series(cols([delivered(5.0, 2.0)]), 5.0, 1000.0, span_s=10.0)
        assert len(out) == 2
        assert out[0].sent == 0 and out[1].sent == 1

    def test_bad_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            windowed_series(cols([]), 0.0, 1000.0, span_s=5.0)


class TestMeanLatencySoFar:
    def test_hand_example(self):
        recs = [
            delivered(2.0, 30.0, send=2.5),
            lost(2.0, send=1.0),
            delivered(0.0, 10.0, send=0.5),
            delivered(1.0, 20.0, send=1.5),
        ]
        out = mean_latency_so_far(cols(recs), [0.1, 0.5, 2.0, 3.0])
        assert out[0] is None
        assert out[1:] == pytest.approx([10.0, 15.0, 20.0], rel=1e-12)

    def test_no_delivery_stays_none(self):
        assert mean_latency_so_far(cols([lost(0.0, send=0.5)]), [1.0, 2.0]) == [None, None]
        assert mean_latency_so_far(cols([]), [1.0]) == [None]

    def test_mean_clamped_into_range(self):
        # three latencies of 0.1 s: sum/len rounds above the max, latency_stats clamps it
        recs = [delivered(0.0, 100.0, send=0.5)] * 3
        assert sum(r.latency_s for r in recs) / 3 > recs[0].latency_s
        assert mean_latency_so_far(cols(recs), [1.0]) == [recs[0].latency_s * 1e3]


    def test_equal_sends_sum_in_latency_order(self):
        # at one send time the float sum depends on the order of the
        # latencies: 1.0 + 1e-16 + 1e-16 rounds to 1.0, 2e-16 + 1.0 does not
        tie = [1.0, 1e-16, 1e-16]
        in_order = sorted(tie)
        assert latency_stats(tie)[1] != latency_stats(in_order)[1]
        rows = [(0.2, 0.5)] + [(0.1, lat) for lat in tie]
        recs = [PacketRecord(0.0, send, 1, True, lat) for send, lat in rows]
        out = mean_latency_so_far(cols(recs), [0.1, 0.2])
        assert out == [
            latency_stats(in_order)[1] * 1e3,
            latency_stats(in_order + [0.5])[1] * 1e3,
        ]


class TestIntervalsCsv:
    def test_header_exact(self):
        assert intervals_to_csv([]).splitlines()[0] == INTERVALS_HEADER
        assert INTERVALS_HEADER == (
            "window_start_s,window_len_s,sent,delivered,lost,"
            "throughput_bps,avg_latency_ms,min_latency_ms,max_latency_ms"
        )

    @staticmethod
    def assert_written_exactly(reports):
        """Every field of every report is a cell that parses back to it
        exactly; an idle window's latencies are empty cells."""
        lines = intervals_to_csv(reports).splitlines()
        assert len(lines) == len(reports) + 1
        for report, line in zip(reports, lines[1:]):
            values = dataclasses.astuple(report)
            cells = line.split(",")
            assert len(cells) == len(values)
            for cell, value in zip(cells, values):
                if value is None:
                    assert cell == ""
                else:
                    assert type(value)(cell) == value

    def test_round_trip_field_for_field(self):
        recs = [delivered(t * 0.5, 5.0 + t) for t in range(12)] + [lost(2.0)]
        out = windowed_series(cols(recs), 3.0, 1500.0, span_s=6.0)
        assert all(r.avg_latency_ms is not None for r in out)
        self.assert_written_exactly(out)

    def test_empty_window_cells_are_empty_strings(self):
        out = windowed_series(cols([lost(0.0)]), 5.0, 1000.0, span_s=5.0)
        row = intervals_to_csv(out).splitlines()[1]
        assert row.endswith(",,,")
        self.assert_written_exactly(out)


class TestRttSummaryCsv:
    def test_header_and_values(self):
        s = summarize_rtt(cols([delivered(0, 3.0), delivered(0, 12.0), delivered(0, 72.0)]))
        text = rtt_summary_to_csv(s)
        lines = text.splitlines()
        assert lines[0] == RTT_SUMMARY_HEADER == "min_ms,max_ms,avg_ms,count"
        f = lines[1].split(",")
        assert float(f[0]) == pytest.approx(3.0)
        assert float(f[2]) == pytest.approx(29.0)
        assert f[3] == "3"

    def test_empty_summary_cells(self):
        assert rtt_summary_to_csv(summarize_rtt(cols([]))).splitlines()[1] == ",,,0"


class TestFadingComparisonTable:
    TIMES = [2.0, 4.0, 6.0, 8.0, 10.0]
    KINDS = ["none", "rayleigh", "rician", "awgn"]
    MATRIX = [
        [9.5, 11.0, 11.5, 12.5],
        [10.3, 11.8, 12.3, 13.4],
        [11.0, 12.5, 13.0, 14.2],
        [11.7, 13.2, 13.8, 15.1],
        [12.5, 14.0, 14.5, 16.0],
    ]

    def test_table_shape_and_header(self):
        text, csv = fading_comparison_table(self.TIMES, self.KINDS, self.MATRIX)
        lines = csv.splitlines()
        assert lines[0] == "time_s,none_ms,rayleigh_ms,rician_ms,awgn_ms"
        assert len(lines) == 6
        assert lines[1] == "2,9.5,11.0,11.5,12.5"
        # the plain-text table carries the same cells, aligned
        assert "12.5" in text.splitlines()[1]

    def test_one_decimal_rounding(self):
        _, csv = fading_comparison_table([1.0], ["x"], [[3.14159]])
        assert csv.splitlines()[1] == "1,3.1"

    def test_single_cell(self):
        text, csv = fading_comparison_table([2.0], ["none"], [[9.5]])
        assert csv == "time_s,none_ms\n2,9.5\n"
        assert text.splitlines()[0].split() == ["time_s", "none_ms"]

    def test_ragged_rejected(self):
        with pytest.raises(ShapeMismatchError):
            fading_comparison_table([1.0, 2.0], ["a"], [[1.0]])
        with pytest.raises(ShapeMismatchError):
            fading_comparison_table([1.0], ["a", "b"], [[1.0]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatchError):
            fading_comparison_table([], ["a"], [])
        with pytest.raises(ShapeMismatchError):
            fading_comparison_table([1.0], [], [[]])

    def test_nan_cell_renders_empty(self):
        _, csv = fading_comparison_table([1.0], ["a", "b"], [[math.nan, 2.0]])
        assert csv.splitlines()[1] == "1,,2.0"


# The list-based summaries as they were before records became columns: one
# Python object per packet, and each group's mean from an explicit
# left-to-right loop over Python floats, independent of latency_stats.
def ref_stats(values):
    if not values:
        return None, None, None
    total = 0.0
    for v in values:
        total += v
    lo, hi = min(values), max(values)
    return lo, min(max(total / len(values), lo), hi), hi


def ref_summarize_rtt(rows) -> RttSummary:
    lat = [r.latency_s for r in rows if r.delivered]
    if not lat:
        return RttSummary(None, None, None, 0)
    lo, avg, hi = ref_stats(lat)
    return RttSummary(min_ms=lo * 1e3, max_ms=hi * 1e3, avg_ms=avg * 1e3, count=len(lat))


def ref_mean_latency_so_far(rows, times):
    pairs = sorted((r.send_time_s, r.latency_s) for r in rows if r.delivered)
    sends = [s for s, _ in pairs]
    lats = [lat for _, lat in pairs]
    out = []
    for t in times:
        _lo, avg, _hi = ref_stats(lats[: bisect.bisect_right(sends, t)])
        out.append(None if avg is None else avg * 1e3)
    return out


def ref_windowed_series(rows, window, bits_per_packet, span_s):
    buckets = {}
    for r in rows:
        idx = int(math.floor((r.tick_start_s + 1e-12) / window))
        buckets.setdefault(idx, []).append(r)
    out = []
    for idx in range(max(1, math.ceil(span_s / window - 1e-12))):
        group = buckets.get(idx, [])
        ok = [r for r in group if r.delivered]
        lo, avg, hi = ref_stats([r.latency_s * 1e3 for r in ok])
        out.append(
            IntervalReport(
                window_start_s=idx * window,
                window_len_s=window,
                sent=len(group),
                delivered=len(ok),
                lost=len(group) - len(ok),
                throughput_bps=len(ok) * bits_per_packet / window,
                avg_latency_ms=avg,
                min_latency_ms=lo,
                max_latency_ms=hi,
            )
        )
    return out


@st.composite
def packet_rows(draw) -> list[PacketRecord]:
    """Up to 200 rows in no particular order.  Values come from small pools,
    so ticks, send times and latencies repeat; a tick can sit on or just
    below a window boundary, and any share of the packets can be lost."""
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ticks = rng.choice(np.r_[0.0, 2.5, 4.999999999999, 5.0, rng.uniform(0, 12, 4)], n)
    sends = rng.choice(np.r_[0.5, 2.0, rng.uniform(0, 12, max(1, n // 2))], n)
    lats = rng.choice(np.r_[0.1, 1e-3, rng.uniform(1e-6, 10, max(1, n // 3))], n)
    ok = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    return [
        PacketRecord(t, send, 1, d, lat if d else math.nan)
        for t, send, lat, d in zip(ticks.tolist(), sends.tolist(), lats.tolist(), ok.tolist())
    ]


class TestColumnsMatchListReference:
    """Bit-identity: every summary of the columns equals, with ==, the
    list-based summary of the same rows."""

    @given(
        rows=packet_rows(),
        window=st.sampled_from([0.3, 1.0, 2.5, 5.0]),
        span_s=st.sampled_from([1.0, 5.0, 10.0, 12.5]),
        times=st.lists(st.floats(min_value=0.0, max_value=13.0), max_size=6).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_summaries_equal_the_list_reference(self, rows, window, span_s, times):
        columns = cols(rows)
        assert summarize_rtt(columns) == ref_summarize_rtt(rows)
        assert windowed_series(columns, window, 1000.0, span_s) == ref_windowed_series(
            rows, window, 1000.0, span_s
        )
        assert mean_latency_so_far(columns, times) == ref_mean_latency_so_far(rows, times)

    def test_iteration_yields_the_rows(self):
        rows = [delivered(1.0, 3.0, send=1.2), lost(0.0, send=0.4), delivered(0.0, 3.0)]
        again = list(cols(rows))
        assert again[0] == rows[0] and again[2] == rows[2]
        assert again[1][:4] == rows[1][:4] and math.isnan(again[1].latency_s)
        assert [type(v) for v in again[0]] == [float, float, int, bool, float]
        assert len(cols(rows)) == 3 and not cols([])
