import numpy as np
import pytest

from stats import beyond, covered, percentile, self_time, summary


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = list(np.random.default_rng(3).lognormal(0.5, 0.8, size=997))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_of_small_samples():
    assert percentile([5.0], 90) == 5.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile([3.0, 1.0, 2.0], 100) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_sample_counts():
    assert beyond(1000, 99) == 10
    assert beyond(1000, 90) == 100
    assert beyond(50, 99) == 0
    stats = summary([float(v) for v in range(1, 1001)])
    assert stats["n"] == 1000
    assert stats["max"] == 1000.0
    assert stats["p50"] == 500.5
    assert stats["beyond_p99"] == 10


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    # children reaching outside the parent count only inside it
    assert covered([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == 3.0
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_of_a_span_tree():
    # parent [0, 10]: children [1, 4] and [3, 6] overlap (a worker thread),
    # grandchildren do not count against the parent.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert self_time(1.0, 4.0, [(2.0, 2.5)]) == 2.5
    assert self_time(0.0, 1.0, []) == 1.0
