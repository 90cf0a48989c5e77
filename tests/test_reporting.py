"""Aggregation artifacts: RTT summary, interval series, comparison table."""
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iiot_netsim.errors import InvalidParameterError, ShapeMismatchError
from iiot_netsim.reporting import (
    INTERVALS_HEADER,
    RTT_SUMMARY_HEADER,
    fading_comparison_table,
    intervals_to_csv,
    latency_stats,
    parse_intervals_csv,
    rtt_summary_to_csv,
    summarize_rtt,
    windowed_series,
)


@dataclass
class Rec:
    tick_start_s: float
    delivered: bool
    latency_s: float


def delivered(t, ms):
    return Rec(tick_start_s=t, delivered=True, latency_s=ms * 1e-3)


def lost(t):
    return Rec(tick_start_s=t, delivered=False, latency_s=math.nan)


class TestLatencyStats:
    def test_mean_clamped_into_range(self):
        # sum/len of three 0.1s rounds to 0.10000000000000002, above the max
        assert sum([0.1] * 3) / 3 > 0.1
        assert latency_stats([0.1] * 3) == (0.1, 0.1, 0.1)
        assert latency_stats([]) == (None, None, None)


class TestSummarizeRtt:
    def test_repeated_value_keeps_order(self):
        # the Hypothesis counterexample of test_ordering_invariant at seed 7
        s = summarize_rtt([delivered(0, 5609.0)] * 3)
        assert s.min_ms <= s.avg_ms <= s.max_ms

    def test_hand_example(self):
        s = summarize_rtt([delivered(0, 3.0), delivered(0, 12.0), delivered(0, 72.0)])
        assert s.min_ms == pytest.approx(3.0)
        assert s.max_ms == pytest.approx(72.0)
        assert s.avg_ms == pytest.approx(29.0)
        assert s.count == 3

    def test_single(self):
        s = summarize_rtt([delivered(0, 7.5)])
        assert s.min_ms == s.max_ms == s.avg_ms == pytest.approx(7.5)
        assert s.count == 1

    def test_empty(self):
        s = summarize_rtt([])
        assert s == summarize_rtt([lost(0), lost(1)])
        assert s.count == 0
        assert s.min_ms is None and s.max_ms is None and s.avg_ms is None

    def test_ignores_lost(self):
        s = summarize_rtt([delivered(0, 10.0), lost(0)])
        assert s.count == 1

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_ordering_invariant(self, vals):
        s = summarize_rtt([delivered(0, v) for v in vals])
        assert s.min_ms <= s.avg_ms <= s.max_ms


class TestWindowedSeries:
    def test_repeated_value_keeps_order(self):
        (w,) = windowed_series([delivered(0, 0.1)] * 3, 1.0, 1000.0)
        assert w.min_latency_ms <= w.avg_latency_ms <= w.max_latency_ms

    def test_uniform_rate_fills_windows(self):
        # 300 packets per 1 s tick over 20 s -> every 5 s window holds 1500
        recs = [delivered(t, 5.0) for t in range(20) for _ in range(300)]
        out = windowed_series(recs, 5.0, 1000.0)
        assert len(out) == 4
        assert all(w.sent == 1500 for w in out)

    def test_empty_input(self):
        assert windowed_series([], 5.0, 1000.0) == []

    def test_throughput_arithmetic(self):
        recs = [delivered(0.0, 4.0)] * 10
        out = windowed_series(recs, 5.0, 1000.0)
        assert out[0].throughput_bps == pytest.approx(2000.0)

    def test_totals_telescope(self):
        recs = [delivered(t * 0.5, 6.0) for t in range(40)] + [lost(3.0), lost(9.5)]
        out = windowed_series(recs, 5.0, 1000.0)
        assert sum(w.sent for w in out) == len(recs)
        assert sum(w.lost for w in out) == 2
        for w in out:
            assert w.lost == w.sent - w.delivered

    def test_rewindowing_consistency(self):
        recs = [delivered(t * 0.25, 8.0) for t in range(80)]
        five = windowed_series(recs, 5.0, 1000.0)
        ten = windowed_series(recs, 10.0, 1000.0)
        assert len(five) == 4 and len(ten) == 2
        for i, w in enumerate(ten):
            assert w.sent == five[2 * i].sent + five[2 * i + 1].sent
            assert w.delivered == five[2 * i].delivered + five[2 * i + 1].delivered

    def test_span_pads_empty_windows(self):
        out = windowed_series([delivered(1.0, 5.0)], 5.0, 1000.0, span_s=20.0)
        assert len(out) == 4
        assert out[0].sent == 1 and all(w.sent == 0 for w in out[1:])
        assert out[1].avg_latency_ms is None

    def test_boundary_attribution(self):
        # a tick starting exactly at the boundary belongs to the later window
        out = windowed_series([delivered(5.0, 2.0)], 5.0, 1000.0)
        assert len(out) == 2
        assert out[0].sent == 0 and out[1].sent == 1

    def test_bad_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            windowed_series([], 0.0, 1000.0)


class TestIntervalsCsv:
    def test_header_exact(self):
        assert intervals_to_csv([]).splitlines()[0] == INTERVALS_HEADER
        assert INTERVALS_HEADER == (
            "window_start_s,window_len_s,sent,delivered,lost,"
            "throughput_bps,avg_latency_ms,min_latency_ms,max_latency_ms"
        )

    def test_round_trip_field_for_field(self):
        recs = [delivered(t * 0.5, 5.0 + t) for t in range(12)] + [lost(2.0)]
        out = windowed_series(recs, 3.0, 1500.0)
        again = parse_intervals_csv(intervals_to_csv(out))
        assert again == out

    def test_empty_window_cells_are_empty_strings(self):
        out = windowed_series([lost(0.0)], 5.0, 1000.0)
        row = intervals_to_csv(out).splitlines()[1]
        assert row.endswith(",,,")
        assert parse_intervals_csv(intervals_to_csv(out)) == out

    def test_rejects_foreign_header(self):
        with pytest.raises(InvalidParameterError):
            parse_intervals_csv("a,b,c\n1,2,3\n")

    def test_rejects_short_row(self):
        with pytest.raises(InvalidParameterError):
            parse_intervals_csv(INTERVALS_HEADER + "\n1,2,3\n")


class TestRttSummaryCsv:
    def test_header_and_values(self):
        s = summarize_rtt([delivered(0, 3.0), delivered(0, 12.0), delivered(0, 72.0)])
        text = rtt_summary_to_csv(s)
        lines = text.splitlines()
        assert lines[0] == RTT_SUMMARY_HEADER == "min_ms,max_ms,avg_ms,count"
        f = lines[1].split(",")
        assert float(f[0]) == pytest.approx(3.0)
        assert float(f[2]) == pytest.approx(29.0)
        assert f[3] == "3"

    def test_empty_summary_cells(self):
        assert rtt_summary_to_csv(summarize_rtt([])).splitlines()[1] == ",,,0"


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
