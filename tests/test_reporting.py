"""Aggregation artifacts: RTT summary, interval series, comparison table."""
import math
from fractions import Fraction

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
    mean_latency_so_far,
    rtt_summary_to_csv,
    summarize_rtt,
    summarize_windows,
    windowed_series,
)
from iiot_netsim.rtt_model import HopConfig
from iiot_netsim.sim_engine import (
    UNITS_PER_S,
    PacketColumns,
    PacketRecord,
    SimulationConfig,
    run_simulation,
)


def cols(rows, tick_s: float = 1.0) -> PacketColumns:
    """The columns of a list of (tick, send_time_s, attempts, delivered,
    latency) rows, in row order; a PacketRecord's latency_s becomes whole
    units, an int latency is taken as units."""
    tick, send, attempts, ok, lat = (list(c) for c in zip(*rows)) if rows else [[]] * 5
    q = [(x if isinstance(x, int) else round(x * UNITS_PER_S)) if d else 0 for x, d in zip(lat, ok)]
    return PacketColumns(
        tick_s,
        np.array(tick, dtype=np.int64),
        np.array(send, dtype=float),
        np.array(attempts, dtype=np.int64),
        np.array(ok, dtype=bool),
        np.array(q, dtype=np.int64),
    )


def units(ms: float) -> int:
    return round(ms * 1e-3 * UNITS_PER_S)


def delivered(tick, ms, send=0.0):
    """A delivered packet whose latency is ms rounded to whole units."""
    return PacketRecord(
        tick=tick, send_time_s=send, attempts=1, delivered=True, latency_s=units(ms) / UNITS_PER_S
    )


def lost(tick, send=0.0):
    return PacketRecord(
        tick=tick, send_time_s=send, attempts=9, delivered=False, latency_s=math.nan
    )


def q_ms(q: int, count: int = 1) -> float:
    """The float nearest q / count units in ms, checked against its neighbours."""
    exact = Fraction(q * 1000, count * UNITS_PER_S)
    x = float(exact)
    for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
        assert abs(Fraction(x) - exact) <= abs(Fraction(y) - exact)
    return x


def tick_one_stats(q: list[int]) -> tuple:
    """(min, avg, max) of delivered latencies q (units) sent in tick 1: the
    run summary's, checked equal to the one window's."""
    columns = cols([(1, 0.0, 1, True, x) for x in q])
    s = summarize_rtt(columns)
    (w,) = windowed_series(columns, 1.0, 1000.0, span_s=1.0)
    assert (w.min_latency_ms, w.avg_latency_ms, w.max_latency_ms) == (s.min_ms, s.avg_ms, s.max_ms)
    assert w.latency_sum_q == sum(q) and summarize_windows([w]) == s
    return s.min_ms, s.avg_ms, s.max_ms


class TestSummarizeRtt:
    def test_mean_of_equal_values_is_exact(self):
        # equal latencies average to themselves with no clamp, also where a
        # float holds no such value or an int64 sum of three wraps
        for q in [units(100.0), 2**53 + 1, 2**63 - 1]:
            assert tick_one_stats([q] * 3) == (q_ms(q),) * 3
        assert tick_one_stats([UNITS_PER_S]) == (1000.0,) * 3

    def test_mean_is_correctly_rounded(self):
        # a float sum drops the 1s of 2**53 + 1 + 1, and an int64 sum of
        # the others wraps; the exact sum does neither
        for q in [[2**53, 1, 1], [1, 2**53, 1], [2**62] * 3, [2**63 - 1] * 5 + [0]]:
            lo, avg, hi = tick_one_stats(q)
            assert (lo, avg, hi) == (q_ms(min(q)), q_ms(sum(q), len(q)), q_ms(max(q)))
            assert lo <= avg <= hi

    def test_repeated_value_keeps_order(self):
        # the Hypothesis counterexample of test_ordering_invariant at seed 7
        s = summarize_rtt(cols([delivered(1, 5609.0)] * 3))
        assert s.min_ms <= s.avg_ms <= s.max_ms

    def test_hand_example(self):
        s = summarize_rtt(cols([delivered(1, 3.0), delivered(1, 12.0), delivered(1, 72.0)]))
        assert s.min_ms == pytest.approx(3.0)
        assert s.max_ms == pytest.approx(72.0)
        assert s.avg_ms == pytest.approx(29.0)
        assert s.count == 3

    def test_single(self):
        s = summarize_rtt(cols([delivered(1, 7.5)]))
        assert s.min_ms == s.max_ms == s.avg_ms == pytest.approx(7.5)
        assert s.count == 1

    def test_empty(self):
        s = summarize_rtt(cols([]))
        assert s == summarize_rtt(cols([lost(1), lost(2)]))
        assert s.count == 0
        assert s.min_ms is None and s.max_ms is None and s.avg_ms is None

    def test_ignores_lost(self):
        s = summarize_rtt(cols([delivered(1, 10.0), lost(1)]))
        assert s.count == 1

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_ordering_invariant(self, vals):
        s = summarize_rtt(cols([delivered(1, v) for v in vals]))
        assert s.min_ms <= s.avg_ms <= s.max_ms


class TestWindowedSeries:
    def test_repeated_value_keeps_order(self):
        (w,) = windowed_series(cols([delivered(1, 0.1)] * 3), 1.0, 1000.0, span_s=1.0)
        assert w.min_latency_ms <= w.avg_latency_ms <= w.max_latency_ms

    def test_uniform_rate_fills_windows(self):
        # 300 packets per 1 s tick over 20 s -> every 5 s window holds 1500
        recs = [delivered(t, 5.0) for t in range(1, 21) for _ in range(300)]
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
        recs = [delivered(1, 4.0)] * 10
        out = windowed_series(cols(recs), 5.0, 1000.0, span_s=5.0)
        assert out[0].throughput_bps == pytest.approx(2000.0)

    def test_totals_telescope(self):
        # 0.5 s ticks; the lost packets are in ticks 7 and 20 (3.0 s and 9.5 s)
        recs = [delivered(t, 6.0) for t in range(1, 41)]
        recs[7:7] = [lost(7)]
        recs[21:21] = [lost(20)]
        out = windowed_series(cols(recs, tick_s=0.5), 5.0, 1000.0, span_s=20.0)
        assert sum(w.sent for w in out) == len(recs)
        assert sum(w.lost for w in out) == 2
        for w in out:
            assert w.lost == w.sent - w.delivered

    def test_rewindowing_consistency(self):
        recs = cols([delivered(t, 8.0) for t in range(1, 81)], tick_s=0.25)
        five = windowed_series(recs, 5.0, 1000.0, span_s=20.0)
        ten = windowed_series(recs, 10.0, 1000.0, span_s=20.0)
        assert len(five) == 4 and len(ten) == 2
        for i, w in enumerate(ten):
            assert w.sent == five[2 * i].sent + five[2 * i + 1].sent
            assert w.delivered == five[2 * i].delivered + five[2 * i + 1].delivered

    def test_span_pads_empty_windows(self):
        out = windowed_series(cols([delivered(2, 5.0)]), 5.0, 1000.0, span_s=20.0)
        assert len(out) == 4
        assert out[0].sent == 1 and all(w.sent == 0 for w in out[1:])
        assert out[1].avg_latency_ms is None

    def test_boundary_attribution(self):
        # a tick starting exactly at the boundary belongs to the later window
        out = windowed_series(cols([delivered(6, 2.0)]), 5.0, 1000.0, span_s=10.0)
        assert len(out) == 2
        assert out[0].sent == 0 and out[1].sent == 1

    def test_tick_binned_by_its_exact_start(self):
        # a window of 3 ticks of 0.1 s, as the double 1 ulp below or above
        # 0.3: tick 4 starts exactly 3 ticks in, so it opens the second
        # window whichever way the doubles round
        recs = cols([delivered(4, 2.0)], tick_s=0.1)
        for window in [0.3, 3 * 0.1]:
            assert 3 * Fraction(0.1) != Fraction(window)
            out = windowed_series(recs, window, 1000.0, span_s=0.6)
            assert [w.sent for w in out] == [0, 1]

    def test_partial_last_window(self):
        # 300 packets per 1 s tick over 10 s in 3 s windows: the last one
        # is 1 s long, and its throughput is over that second
        recs = [delivered(t, 5.0) for t in range(1, 11) for _ in range(300)]
        out = windowed_series(cols(recs), 3.0, 1000.0, span_s=10.0)
        assert [(w.window_start_s, w.window_len_s, w.sent) for w in out] == [
            (0.0, 3.0, 900), (3.0, 3.0, 900), (6.0, 3.0, 900), (9.0, 1.0, 300)
        ]
        assert {w.throughput_bps for w in out} == {300_000.0}

    def test_bad_window_rejected(self):
        for window in [0.0, -1.0, math.inf, math.nan]:
            with pytest.raises(InvalidParameterError):
                windowed_series(cols([]), window, 1000.0, span_s=5.0)

    @pytest.mark.parametrize("window", [0.5, 1e-7, 1e-300])
    def test_window_shorter_than_a_tick_rejected(self, window):
        # such a window only adds windows no tick starts in
        with pytest.raises(InvalidParameterError, match="window must be finite and >= tick_s"):
            windowed_series(cols([delivered(1, 2.0)]), window, 1000.0, span_s=1.0)

    @pytest.mark.parametrize("span_s", [0.0, -1.0, math.inf])
    def test_bad_span_rejected(self, span_s):
        with pytest.raises(InvalidParameterError, match="span_s"):
            windowed_series(cols([]), 1.0, 1000.0, span_s=span_s)

    @pytest.mark.parametrize(
        "tick_s,window,span_s,what",
        [
            # 2.5 ticks would count 3 ticks and 2 ticks in turn, each over 2.5 s
            (1.0, 2.5, 10.0, "window"),
            (1.0, 1.5, 10.0, "window"),
            (0.25, 0.625, 10.0, "window"),
            (1.0, 2.0, 12.5, "span_s"),
            (0.25, 0.5, 0.3, "span_s"),
            (1.0, 1.0, 10**400, "span_s"),  # an int past the float range
        ],
        ids=["2.5-ticks", "1.5-ticks", "2.5-quarter-ticks", "span-12.5", "span-0.3", "span-huge-int"],
    )
    def test_window_or_span_not_whole_ticks_rejected(self, tick_s, window, span_s, what):
        recs = cols([delivered(t, 2.0) for t in range(1, 11)], tick_s=tick_s)
        match = "window must be finite and >= tick_s" if what == "window" else "span_s"
        with pytest.raises(InvalidParameterError, match=match):
            windowed_series(recs, window, 1000.0, span_s=span_s)

    def test_ticks_past_the_span_are_not_counted(self):
        # 5 ticks of records, a span of 3: the last window holds tick 3 only
        recs = cols([delivered(t, 2.0) for t in range(1, 6)])
        out = windowed_series(recs, 2.0, 1000.0, span_s=3.0)
        assert [(w.window_len_s, w.sent) for w in out] == [(2.0, 2), (1.0, 1)]


class TestMeanLatencySoFar:
    def test_hand_example(self):
        recs = [
            delivered(3, 30.0, send=2.5),
            lost(3, send=1.0),
            delivered(1, 10.0, send=0.5),
            delivered(2, 20.0, send=1.5),
        ]
        out = mean_latency_so_far(cols(recs), [0.1, 0.5, 2.0, 3.0])
        assert out[0] is None
        ten, twenty, thirty = units(10.0), units(20.0), units(30.0)
        assert out[1:] == [q_ms(ten), q_ms(ten + twenty, 2), q_ms(ten + twenty + thirty, 3)]

    def test_no_delivery_stays_none(self):
        assert mean_latency_so_far(cols([lost(1, send=0.5)]), [1.0, 2.0]) == [None, None]
        assert mean_latency_so_far(cols([]), [1.0]) == [None]

    def test_mean_of_equal_values_is_exact(self):
        recs = [delivered(1, 100.0, send=0.5)] * 3
        assert mean_latency_so_far(cols(recs), [1.0]) == [q_ms(units(100.0))]

    def test_equal_sends_count_together_in_any_order(self):
        # an integer sum does not depend on the order of its terms, and a
        # sample time counts every packet of an equal-send group or none
        tie = [2**32, 2**32 + 1, 1, 1]
        want = [None, q_ms(sum(tie), 4), q_ms(sum(tie) + 7, 5)]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
            rows = [(1, 0.2, 1, True, 7)] + [(1, 0.1, 1, True, tie[i]) for i in order]
            assert mean_latency_so_far(cols(rows), [0.05, 0.1, 0.2]) == want


class TestIntervalsCsv:
    def test_header_exact(self):
        assert intervals_to_csv([]).splitlines()[0] == INTERVALS_HEADER
        assert INTERVALS_HEADER == (
            "window_start_s,window_len_s,sent,delivered,lost,"
            "throughput_bps,avg_latency_ms,min_latency_ms,max_latency_ms"
        )

    @staticmethod
    def assert_written_exactly(reports):
        """Every field of every report that the header names is a cell that
        parses back to it exactly; an idle window's latencies are empty
        cells."""
        lines = intervals_to_csv(reports).splitlines()
        assert len(lines) == len(reports) + 1
        for report, line in zip(reports, lines[1:]):
            values = [getattr(report, name) for name in INTERVALS_HEADER.split(",")]
            cells = line.split(",")
            assert len(cells) == len(values)
            for cell, value in zip(cells, values):
                if value is None:
                    assert cell == ""
                else:
                    assert type(value)(cell) == value

    def test_round_trip_field_for_field(self):
        recs = [delivered(t, 4.0 + t) for t in range(1, 13)]
        recs[5:5] = [lost(5)]
        out = windowed_series(cols(recs, tick_s=0.5), 3.0, 1500.0, span_s=6.0)
        assert all(r.avg_latency_ms is not None for r in out)
        self.assert_written_exactly(out)

    def test_empty_window_cells_are_empty_strings(self):
        out = windowed_series(cols([lost(1)]), 5.0, 1000.0, span_s=5.0)
        row = intervals_to_csv(out).splitlines()[1]
        assert row.endswith(",,,")
        self.assert_written_exactly(out)


class TestRttSummaryCsv:
    def test_header_and_values(self):
        s = summarize_rtt(cols([delivered(1, 3.0), delivered(1, 12.0), delivered(1, 72.0)]))
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

    def test_time_labels_read_back_as_their_floats(self):
        times = [0.1234567, 2.0, 2.5, 1e6, 1e6 + 1, 1e16]
        _, csv = fading_comparison_table(times, ["a"], [[1.0]] * len(times))
        labels = [line.split(",")[0] for line in csv.splitlines()[1:]]
        assert labels == ["0.1234567", "2", "2.5", "1000000", "1000001", "1e+16"]
        assert [float(label) for label in labels] == times
        # the shipped and benchmark sample times keep their labels
        _, csv = fading_comparison_table([1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0], ["a"], [[1.0]] * 7)
        assert [line.split(",")[0] for line in csv.splitlines()[1:]] == [
            "1", "2", "3", "4", "6", "8", "10"
        ]


# Exact references over plain rows (tick, send_time_s, attempts, delivered,
# latency units): Python-int sums, windows as tick ranges, and each value
# the float nearest the exact one (q_ms), independent of the limb sums.
def ref_stats(qs):
    if not qs:
        return None, None, None
    return q_ms(min(qs)), q_ms(sum(qs), len(qs)), q_ms(max(qs))


def ref_summarize_rtt(rows) -> RttSummary:
    qs = [r[4] for r in rows if r[3]]
    lo, avg, hi = ref_stats(qs)
    return RttSummary(min_ms=lo, max_ms=hi, avg_ms=avg, count=len(qs))


def ref_mean_latency_so_far(rows, times):
    return [ref_stats([r[4] for r in rows if r[3] and r[1] <= t])[1] for t in times]


def ref_windowed_series(rows, tick_s, window, bits_per_packet, span_s):
    # window and span_s are k and n whole ticks: window i holds ticks
    # 1 + i*k to (i+1)*k, and the last ends at tick n
    k, n = round(window / tick_s), round(span_s / tick_s)
    out = []
    for i, first in enumerate(range(1, n + 1, k)):
        ticks = range(first, min(first + k, n + 1))
        group = [r for r in rows if r[0] in ticks]
        ok = [r[4] for r in group if r[3]]
        length = window if len(ticks) == k else len(ticks) * tick_s
        lo, avg, hi = ref_stats(ok)
        out.append(
            IntervalReport(
                window_start_s=i * window,
                window_len_s=length,
                sent=len(group),
                delivered=len(ok),
                lost=len(group) - len(ok),
                throughput_bps=len(ok) * bits_per_packet / length,
                avg_latency_ms=avg,
                min_latency_ms=lo,
                max_latency_ms=hi,
                latency_sum_q=sum(ok),
            )
        )
    return out


def assert_matches_reference(rows, tick_s, window, span_s, times):
    """Every summary of cols(rows) equals its exact reference, and every
    min <= avg <= max holds with no tolerance."""
    columns = cols(rows, tick_s)
    summary = summarize_rtt(columns)
    assert summary == ref_summarize_rtt(rows)
    windows = windowed_series(columns, window, 1000.0, span_s)
    assert windows == ref_windowed_series(rows, tick_s, window, 1000.0, span_s)
    # the windows fold to the summary of the rows in the span, with no pass
    # over the packets
    in_span = [r for r in rows if r[0] <= round(span_s / tick_s)]
    folded = summarize_windows(windows)
    assert folded == summarize_rtt(cols(in_span, tick_s)) == ref_summarize_rtt(in_span)
    assert mean_latency_so_far(columns, times) == ref_mean_latency_so_far(rows, times)
    # a send order handed in, as compare_fading shares one among its kinds;
    # here equal sends come last row first
    shared = np.lexsort((-np.arange(len(columns)), columns.send_time_s))
    assert mean_latency_so_far(columns, times, shared) == ref_mean_latency_so_far(rows, times)
    for lo, avg, hi in [(summary.min_ms, summary.avg_ms, summary.max_ms)] + [
        (w.min_latency_ms, w.avg_latency_ms, w.max_latency_ms) for w in windows
    ]:
        assert lo is avg is hi is None or lo <= avg <= hi


@st.composite
def packet_rows(draw) -> list[tuple]:
    """Up to 200 rows in tick order.  Values come from small pools, so
    ticks, send times and latencies repeat, and equal sends come in any
    order; latencies reach 2**63 - 1 units, so an int64 sum can wrap, and
    any share of the packets can be lost."""
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ticks = np.sort(rng.integers(1, 13, n))
    sends = rng.choice(np.r_[0.5, 2.0, rng.uniform(0, 12, max(1, n // 2))], n)
    pool = [1, 2**32, 5 * 10**7, 2**53 + 1, 2**62, 2**63 - 1, *rng.integers(0, 2**63, 4)]
    lats = rng.choice(np.array(pool, dtype=np.int64), n)
    ok = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    return [
        (t, send, 1, d, lat if d else 0)
        for t, send, lat, d in zip(ticks.tolist(), sends.tolist(), lats.tolist(), ok.tolist())
    ]


class TestColumnsMatchListReference:
    """Every summary of the columns equals, with ==, the exact summary of
    the same rows."""

    @given(
        rows=packet_rows(),
        tick_s=st.sampled_from([0.1, 0.25, 1.0]),
        window_ticks=st.sampled_from([1, 2, 3, 10]),
        # rows reach tick 12, so a span can end before, on or after the last
        span_ticks=st.sampled_from([1, 3, 10, 12, 13, 50]),
        # 0.5 and 2.0 are in every send pool, so a time can sit on a tie
        times=st.lists(st.sampled_from([0.5, 2.0]) | st.floats(0.0, 13.0), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_summaries_equal_the_list_reference(
        self, rows, tick_s, window_ticks, span_ticks, times
    ):
        window, span_s = window_ticks * tick_s, span_ticks * tick_s
        assert_matches_reference(rows, tick_s, window, span_s, times)

    def test_run_whose_int64_sum_wraps(self):
        # each latency is about 2**28 s, 2**60 units: eight sum past 2**63
        hop = HopConfig(
            distance=30.0, propagation_speed=3e8, packet_length=1000.0, link_rate=1e6,
            processing_delay=2.0**28, arrival_rate=60.0, service_rate=1000.0,
        )
        cfg = SimulationConfig(
            node_count=1, duration_s=2.0**30, tick_s=2.0**30, report_window_s=2.0**30,
            base_hop=hop, seed=7, qos_level=0, packets_per_node_per_tick=8,
        )
        records = run_simulation(cfg).records
        q = records.latency_q.tolist()
        assert len(q) == 8 and records.delivered.all()
        assert sum(q) >= 2**63 and int(records.latency_q.sum()) != sum(q)
        rows = [(t, send, 1, True, lat) for t, send, lat in zip(
            records.tick.tolist(), records.send_time_s.tolist(), q
        )]
        times = [2.0**29, 2.0**30]
        assert_matches_reference(rows, cfg.tick_s, cfg.report_window_s, cfg.duration_s, times)

    def test_iteration_yields_the_rows(self):
        rows = [delivered(1, 3.0, send=1.2), lost(1, send=0.4), delivered(2, 3.0)]
        again = list(cols(rows))
        assert again[0] == rows[0] and again[2] == rows[2]
        assert again[1][:4] == rows[1][:4] and math.isnan(again[1].latency_s)
        assert [type(v) for v in again[0]] == [int, float, int, bool, float]
        assert len(cols(rows)) == 3 and not cols([])
