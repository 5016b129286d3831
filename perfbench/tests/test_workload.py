import json

import numpy as np

import workload
from workload import WORKLOADS, schedule, schedule_hash, window_bounds


def test_windows_are_those_of_sliding_window_splits():
    from repro.data.split import sliding_window_splits
    from repro.data.synthetic import generate_clickstream

    log = generate_clickstream(num_sessions=1500, num_items=100, days=30, seed=3)
    first, last = log.time_range()
    splits = sliding_window_splits(
        log, workload.NUM_WINDOWS, workload.TRAIN_DAYS, workload.TEST_DAYS
    )
    assert len(splits) == workload.NUM_WINDOWS
    for window, split in enumerate(splits):
        window_start, test_start, window_end = window_bounds(first, last, window)
        clicks = log.filter(lambda c: window_start <= c.timestamp < window_end)
        train, test = clicks.split_at(test_start)
        assert list(train) == list(split.train)
        assert list(test) == list(split.test)


def test_schedule_is_a_pure_function_of_its_inputs():
    sessions = np.array([5, 6, 5, 7, 6], dtype=np.int64)
    items = np.array([10, 11, 12, 13, 14], dtype=np.int64)
    wl = WORKLOADS["full-longtail"]
    first = schedule(wl, sessions, items, 1, 3, "m")
    again = schedule(wl, sessions, items, 1, 3, "m")
    assert first == again
    assert schedule_hash(first) == schedule_hash(again)
    assert schedule_hash(schedule(wl, sessions, items, 0, 3, "m")) != schedule_hash(first)
    assert [r.due for r in first] == [0.0, 1 / wl.rate_rps, 2 / wl.rate_rps]
    body = json.loads(first[0].body)
    assert body == {
        "session_id": "m6",
        "item_id": 11,
        "consent": True,
        "variant": "full",
        "count": 21,
        "request_id": "m0",
    }


def test_longtail_keeps_only_long_sessions():
    sessions = np.array([1] * 8 + [2] * 3 + [3] * 9, dtype=np.int64)
    inputs = workload.Inputs(0, None, sessions, sessions * 10, {})
    kept, _ = workload.workload_clicks(inputs, WORKLOADS["full-longtail"])
    assert set(kept.tolist()) == {1, 3}
    everything, _ = workload.workload_clicks(inputs, WORKLOADS["hist-live"])
    assert len(everything) == len(sessions)
