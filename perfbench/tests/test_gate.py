import math

from perfbench import gate


def test_rounding_level_violations_are_recorded_not_failed():
    d = gate.Defects()
    floor_s = 0.004
    under = (floor_s - math.ulp(floor_s)) * 1e3  # below the floor by an ulp
    assert gate._floor(under, floor_s, 3.0, "w", d) == []
    assert d["sim_engine.latency_below_floor_by_rounding"] == 1


def test_average_past_max_by_rounding_is_recorded_not_failed():
    d = gate.Defects()
    assert gate._ordered(1.0, 2.0, 2.0, 3, "w", d) == []
    assert not d
    # sum / len of three equal values can round one ulp above them
    assert gate._ordered(2.0, math.nextafter(2.0, 3.0), 2.0, 3, "w", d) == []
    assert gate._ordered(2.0, math.nextafter(2.0, 1.0), 2.0, 3, "w", d) == []
    assert d["reporting.avg_outside_min_max_by_rounding"] == 2


def test_larger_violations_fail():
    d = gate.Defects()
    assert gate._floor(3.9, 0.004, 3.0, "w", d)
    assert gate._ordered(1.0, 2.1, 2.0, 3, "w", d)
    # past the rounding bound of a three-value mean
    assert gate._ordered(1.0, 2.0 + 9 * math.ulp(2.0), 2.0, 3, "w", d)
    assert not d


def test_rtt_reference_matches_the_formula():
    hop = {
        "distance_m": 300.0, "propagation_speed_mps": 3.0e8, "packet_length_bits": 1000.0,
        "link_rate_bps": 1.0e6, "hop_weight": 2.0, "processing_delay_ms": 1.0,
        "arrival_rate_pps": 50.0, "service_rate_pps": 150.0, "loss_prob": 0.5,
        "retx_base_ms": 2.0,
    }
    one_way = 1e-6 + 2e-3 + 1e-3 + 2.0 / 100.0
    assert math.isclose(gate.rtt_reference([hop]), 2 * one_way + 4e-3, rel_tol=1e-12)
