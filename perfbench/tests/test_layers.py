import pytest

import layers
from layers import Trace, gc_metrics, layer_metrics
from loadgen import Result

POD = "serving.server.RecommendationServer.handle"


def _span(span_id, parent, rid, name, start, end, note=None):
    return [span_id, parent, rid, name, start, end, note]


def _request_spans(rid, base, first_id, hit, note):
    """One request's span tree, times in seconds from ``base``."""
    i = first_id
    spans = [
        _span(i, None, rid, layers.SERVICE, base + 0.0, base + 1.0),
        _span(i + 1, i, rid, layers.CLUSTER, base + 0.1, base + 0.9),
        _span(i + 2, i + 1, rid, POD, base + 0.2, base + 0.85),
        _span(i + 3, i + 2, rid, layers.UPDATE, base + 0.21, base + 0.25),
        _span(i + 4, i + 3, rid, layers.APPEND, base + 0.22, base + 0.24),
        _span(i + 5, i + 2, rid, layers.RESILIENT, base + 0.3, base + 0.8, note),
        # the primary stage runs on a worker thread, inside the resilient call
        _span(i + 6, i + 5, rid, layers.ENGINE, base + 0.35, base + 0.75),
        _span(i + 8, i + 2, rid, layers.RULES, base + 0.81, base + 0.82),
    ]
    if not hit:
        spans.append(_span(i + 7, i + 6, rid, layers.SCORER, base + 0.4, base + 0.7))
    return spans


def test_layer_metrics_from_a_synthetic_span_tree():
    raw = _request_spans("m0", 0.0, 1, hit=False, note=["primary", False])
    raw += _request_spans("m1", 10.0, 20, hit=True, note=["static-rules", True])
    # a warm-up request and a span without a request must be ignored
    raw += _request_spans("w0", 20.0, 40, hit=True, note=["primary", False])
    raw.append(_span(99, None, None, "setup.load_index", -5.0, -3.5))
    results = [
        Result(0, due=-0.2, sent=-0.1, done=1.2, status=200),
        Result(1, due=9.9, sent=9.9, done=11.0, status=200),
    ]
    trace = Trace(raw, gc_events=[])
    metrics = layer_metrics(trace, results, ["m0", "m1"])

    # transport: round trip minus the service span (1300-1000, 1100-1000 ms)
    assert metrics["serving.http.transport_ms.p50"] == pytest.approx(200.0)
    assert metrics["serving.http.service_self_ms.p50"] == pytest.approx(200.0)
    assert metrics["serving.app.handle_self_ms.p50"] == pytest.approx(150.0)
    assert metrics["serving.server.update_session_ms.p50"] == pytest.approx(40.0)
    assert metrics["serving.session_store.append_click_per_request"] == 1.0
    # resilient call minus the primary stage call it waited for
    assert metrics["serving.resilience.stage_hop_ms.p50"] == pytest.approx(100.0)
    assert metrics["serving.resilience.stage_share.primary"] == 0.5
    assert metrics["serving.resilience.stage_share.static-rules"] == 0.5
    assert metrics["serving.resilience.stage_share.fallback"] == 0.0
    assert metrics["serving.resilience.deadline_timeouts"] == 1
    assert metrics["core.batch.cache_hit_ratio"] == 0.5
    # miss: 400 - 300 ms of scoring; hit: the whole 400 ms lookup
    assert metrics["core.batch.lookup_self_ms.p50"] == pytest.approx(250.0)
    assert metrics["core.colindex.recommend_ms.p50"] == pytest.approx(300.0)
    assert metrics["core.colindex.calls_per_request"] == 0.5
    assert metrics["serving.rules.apply_ms.p50"] == pytest.approx(10.0)
    assert trace.setup_seconds("setup.load_index") == 1.5
    # every named metric is produced except those the caller adds
    added_by_caller = {n for n in layers.UNITS if n.split(".")[0] in ("setup", "loadgen", "trace")}
    assert set(metrics) == set(layers.UNITS) - added_by_caller


def test_gc_metrics_count_collections_inside_the_window():
    results = [
        Result(0, due=0.0, sent=0.0, done=1.0, status=200),
        Result(1, due=2.0, sent=2.5, done=3.0, status=200),
        Result(2, due=4.0, sent=4.0, done=5.0, status=200),
    ]
    events = [
        (2, -1.0, -0.5),  # before the window: ignored
        (0, 0.5, 0.6),  # inside request 0
        (2, 2.1, 2.4),  # while request 1 was held, before it was sent
        (2, 3.5, 3.55),  # between requests
        (1, 4.9, 5.0),  # at the end of request 2
    ]
    metrics = gc_metrics(events, results)
    assert metrics["runtime.gc.gen2_collections"] == 2
    assert metrics["runtime.gc.pause_ms_max"] == pytest.approx(300.0)
    assert metrics["runtime.gc.pause_ms_total"] == pytest.approx(100 + 300 + 50 + 100)
    assert metrics["runtime.gc.requests_in_pause"] == 2
