import json
import math

import numpy as np
import pytest

from loadgen import Result
from oracle import Oracle, check, session_view
from workload import WORKLOADS, schedule


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    from repro.data.synthetic import generate_clickstream
    from repro.index.builder import IndexBuilder
    from repro.index.serialization import save_index

    log = generate_clickstream(num_sessions=400, num_items=60, days=5, seed=11)
    path = tmp_path_factory.mktemp("index") / "index.vmis"
    save_index(IndexBuilder(max_sessions_per_item=500).build(list(log)), path)
    return path


def _served(index_path, workload, count=60):
    """Requests plus the answers a correct columnar pod would give."""
    from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
    from repro.index.serialization import load_index

    model = VMISKNNColumnar(
        ColumnarSessionIndex.from_session_index(load_index(index_path)),
        m=500,
        k=100,
        exclude_current_items=True,
    )
    rng = np.random.default_rng(5)
    requests = schedule(
        workload, rng.integers(0, 8, size=count), rng.integers(0, 60, size=count), 0, count, "m"
    )
    histories, results = {}, []
    for request in requests:
        history = histories.setdefault(request.session_key, [])
        history.append(request.item_id)
        view = session_view(history, workload.variant)
        items = model.recommend(view, how_many=42)[:21]
        body = {
            "items": [{"item_id": s.item_id, "score": s.score} for s in items],
            "stage": "primary",
        }
        results.append(Result(request.seq, 0.0, status=200, body=json.dumps(body).encode()))
    return requests, results


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_columnar_answers_match_the_heap_oracle(index_path, name):
    workload = WORKLOADS[name]
    requests, results = _served(index_path, workload)
    report = check(requests, results, Oracle(index_path))
    assert report.checked == len(requests)
    assert report.mismatches == 0


def test_a_planted_wrong_score_fails_the_check(index_path):
    workload = WORKLOADS["full-longtail"]
    requests, results = _served(index_path, workload)
    planted = next(i for i, r in enumerate(results) if json.loads(r.body)["items"])
    body = json.loads(results[planted].body)
    body["items"][0]["score"] = math.nextafter(body["items"][0]["score"], math.inf)
    results[planted].body = json.dumps(body).encode()

    report = check(requests, results, Oracle(index_path))
    assert report.mismatches == 1
    assert len(report.examples) == 1


def test_fallback_answers_and_lost_sessions_are_not_checked(index_path):
    workload = WORKLOADS["hist-live"]
    requests, results = _served(index_path, workload)
    body = json.loads(results[0].body)
    body["stage"] = "static-rules"
    body["items"] = [{"item_id": 1, "score": 0.5}]
    results[0].body = json.dumps(body).encode()
    failed_key = requests[1].session_key
    results[1].status = 0
    report = check(requests, results, Oracle(index_path))
    later = sum(1 for r in requests[2:] if r.session_key == failed_key)
    assert report.mismatches == 0
    assert report.unchecked == later
    assert report.checked == len(requests) - 2 - later


def test_session_views():
    assert session_view([1, 2, 3], "serenade-hist") == [2, 3]
    assert session_view([1, 2, 3], "full") == [1, 2, 3]
    with pytest.raises(ValueError):
        session_view([1, 2, 3], "depersonalised")
