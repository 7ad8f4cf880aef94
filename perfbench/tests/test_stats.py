from perfbench import stats


def test_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile([7.0], 99.0) == 7.0


def test_highest_percentile_keeps_ten_samples_beyond():
    assert stats.highest_percentile(9) is None
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(100) == 90.0
    assert stats.highest_percentile(999) == 95.0
    assert stats.highest_percentile(1000) == 99.0
    assert stats.highest_percentile(9999) == 99.0
    assert stats.highest_percentile(10000) == 99.9


def test_samples_needed_is_the_threshold():
    for p in stats.PERCENTILES:
        n = stats.samples_needed(p)
        assert stats.beyond(n, p) >= stats.MIN_BEYOND
        assert stats.beyond(n - 1, p) < stats.MIN_BEYOND
    assert stats.samples_needed(99.0) == 1000
