import pytest

from e2e import stats


def test_percentile_is_a_sample_by_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 100.0]
    assert stats.percentile(values, 50.0) == 3.0
    assert stats.percentile(values, 80.0) == 4.0
    assert stats.percentile(values, 81.0) == 100.0
    assert stats.percentile(values, 100.0) == 100.0
    assert stats.percentile([7.0], 95.0) == 7.0


def test_percentile_never_interpolates_between_modes():
    # 19 fast operations and one slow: p95 is the 19th, p96 the slow one
    values = [1.0] * 19 + [1000.0]
    assert stats.percentile(values, 95.0) == 1.0
    assert stats.percentile(values, 96.0) == 1000.0


@pytest.mark.parametrize("n, q, beyond, carried", [
    (1000, 99.0, 10, True),
    (999, 99.0, 9, False),
    (200, 95.0, 10, True),
    (199, 95.0, 9, False),
    (20, 50.0, 10, True),
    (19, 50.0, 9, False),
])
def test_ten_samples_beyond_rule(n, q, beyond, carried):
    assert stats.samples_beyond(n, q) == beyond
    assert stats.reportable(n, q) is carried


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4): q1 = 11.75, q3 = 17.25, median 14.5
    assert stats.spread(values) == pytest.approx(5.5 / 14.5)
    assert stats.spread([3.0]) == 0.0


def test_geomean_weighs_every_value_equally():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
