"""The percentile rule and the small statistics the benchmark prints."""

import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (19, None),       # the median would have 9.5 samples beyond it
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),       # 10 beyond p75
        (30, 50.0),       # the chaos grid: 30 cells
        (45, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_percentile(count) == expected


@pytest.mark.parametrize(
    "samples, gaps, plan",
    [(7, 1, [7]), (7, 2, [4, 3]), (7, 3, [3, 2, 2]), (7, 6, [2, 1, 1, 1, 1, 1])],
)
def test_cold_starts_are_spread_over_the_run(samples, gaps, plan):
    assert stats.spread_plan(samples, gaps) == plan


def test_trial_median_is_taken_per_pass():
    # Three direct/brokered pairs: the plain median, (1.4 + 3.0) / 2,
    # hangs on the slowest direct and the fastest brokered trial; the
    # per-pass medians are 2.0, 2.1 and 2.7.
    walls = [1.0, 3.0, 1.0, 3.2, 1.4, 4.0]
    assert stats.median_of_pass_medians(walls, [0, 2, 4, 6]) == pytest.approx(2.1)
    assert stats.median_of_pass_medians([5.0, 1.0, 2.0], [0, 3]) == 2.0
    # A pass that ran no trial (it raised first) has no median.
    assert stats.median_of_pass_medians([1.0, 3.0], [0, 0, 2]) == 2.0
