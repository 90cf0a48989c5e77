import math

import pytest

from perfbench import measure


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert measure.min_samples(0.9) == 100
    assert measure.samples_beyond(100, 0.9) == 10
    assert measure.samples_beyond(99, 0.9) == 9
    assert measure.min_samples(0.5) == 20
    assert measure.min_samples(0.99) == 1000


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert measure.percentile(values, 0.9) == 90
    assert measure.percentile(values, 0.5) == 50
    assert measure.percentile([3.0], 0.9) == 3.0
    # exactly samples_beyond values lie above the reported percentile
    p90 = measure.percentile(values, 0.9)
    assert sum(v > p90 for v in values) == measure.samples_beyond(100, 0.9)


def test_tail_percentile_refuses_too_few_samples_beyond():
    values = [float(v) for v in range(100)]
    assert measure.tail_percentile(values, 0.9) == measure.percentile(values, 0.9)
    with pytest.raises(ValueError, match="9 beyond"):
        measure.tail_percentile(values[:99], 0.9)


def test_rejects_degenerate_input():
    with pytest.raises(ValueError):
        measure.samples_beyond(10, 1.0)
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


def test_normalized_scales_to_the_nominal_reference_speed():
    nominal = measure.REFERENCE_NOMINAL_S
    assert measure.normalized(0.2, nominal) == 0.2
    # a host twice as slow as nominal halves the scaled time
    assert math.isclose(measure.normalized(0.2, 2 * nominal), 0.1)
    assert measure.time_reference() > 0.0
