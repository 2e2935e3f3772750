import pytest

from moebench.stats import MIN_BEYOND, tail


@pytest.mark.parametrize("n", [21, 30, 57, 200])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    value, percentile, beyond = tail(values)
    assert beyond == MIN_BEYOND == sum(v > value for v in values)
    assert value == n - MIN_BEYOND
    assert percentile == pytest.approx(100.0 * (n - MIN_BEYOND) / n)


@pytest.mark.parametrize("n", [1, 2, 9, 20])
def test_tail_of_few_samples_is_upper_median(n):
    values = [float(v) for v in range(n)]
    value, _, beyond = tail(values)
    assert value == values[n // 2]
    assert beyond == n - 1 - n // 2 < MIN_BEYOND


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        tail([])
