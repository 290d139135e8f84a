"""The percentile helpers behind every reported timing."""

import pytest
from measure import percentile, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (1, None),
        (10, None),
        (19, None),  # the median would have only 9 samples beyond it
        (20, 50.0),
        (49, 50.0),
        (50, 80.0),  # 10 epochs beyond p80: the stream's 50-epoch run
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
        (150_000, 99.99),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(20, 3000, 7):
        p = tail_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > percentile(values, p))
        assert beyond >= 10


def test_nearest_rank_percentile():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 80) == 4
    assert percentile(values, 100) == 5
    assert percentile(values, 0) == 1
    with pytest.raises(ValueError):
        percentile([], 50)
