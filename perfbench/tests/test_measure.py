"""The tail-percentile picker and the spread statistic."""

import pytest

import measure


def test_picks_p99_when_ten_samples_lie_beyond_it():
    samples = list(range(1, 2001))
    pct, value, beyond = measure.tail_percentile(samples)
    assert (pct, value, beyond) == (99, 1980, 20)


def test_steps_down_the_ladder_until_ten_samples_lie_beyond():
    samples = list(range(1, 151))
    # p99 leaves 1 sample beyond, p95 leaves 7, p90 leaves 15.
    assert measure.tail_percentile(samples) == (90, 135, 15)


@pytest.mark.parametrize("count", [100, 137, 199, 200, 999, 1000, 5000])
def test_reported_count_is_never_below_ten(count):
    samples = [float(i) for i in range(count)]
    pct, value, beyond = measure.tail_percentile(samples)
    assert beyond >= measure.MIN_BEYOND
    assert sum(1 for s in samples if s > value) == beyond
    assert pct in measure.TAIL_LADDER


def test_too_few_samples_fall_back_to_the_maximum():
    assert measure.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0, 0)


def test_empty_sample_is_an_error():
    with pytest.raises(ValueError):
        measure.tail_percentile([])


def test_relative_spread_is_quartile_distance_over_median():
    values = [90, 95, 100, 105, 110]
    q1, q3 = 92.5, 107.5  # statistics.quantiles(n=4), exclusive method
    assert measure.relative_spread(values) == pytest.approx((q3 - q1) / 100)


def test_pooled_tail_keeps_the_percentile_one_group_supports():
    groups = [list(range(1, 151)), list(range(151, 301))]
    # One group of 150 supports p90 (15 beyond); the pool of 300 would
    # support p95, but the run's figure must not depend on its group count.
    pct, value, beyond = measure.pooled_tail(groups)
    assert pct == 90
    assert (value, beyond) == measure.nearest_rank(list(range(1, 301)), 90)
    assert beyond == 30


def test_pooled_tail_of_tiny_groups_is_the_pooled_maximum():
    assert measure.pooled_tail([[3.0, 1.0], [7.0, 2.0]]) == (100, 7.0, 0)
