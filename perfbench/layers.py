"""Per-layer metrics from a traced run's spans and the client's timings."""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass

from stats import percentile, self_time

SERVICE = "serving.http.SerenadeService.recommend"
CLUSTER = "serving.app.ServingCluster.handle"
UPDATE = "serving.server.RecommendationServer.update_session"
APPEND = "serving.session_store.SessionStore.append_click"
RESILIENT = "serving.resilience.ResilientRecommender.recommend"
ENGINE = "core.batch.BatchPredictionEngine.recommend"
SCORER = "core.colindex.VMISKNNColumnar.recommend"
RULES = "serving.rules.BusinessRules.apply"
#: the fallback stages a pod's chain can answer from.
STAGES = ("primary", "fallback", "static-rules")

#: every per-layer metric, with its unit.
UNITS = {
    "serving.http.transport_ms.p50": "ms",
    "serving.http.transport_ms.p90": "ms",
    "serving.http.service_self_ms.p50": "ms",
    "serving.app.handle_self_ms.p50": "ms",
    "serving.server.update_session_ms.p50": "ms",
    "serving.server.update_session_ms.p90": "ms",
    "serving.session_store.append_click_per_request": "count",
    "serving.resilience.stage_hop_ms.p50": "ms",
    **{f"serving.resilience.stage_share.{stage}": "ratio" for stage in STAGES},
    "serving.resilience.deadline_timeouts": "count",
    "core.batch.cache_hit_ratio": "ratio",
    "core.batch.lookup_self_ms.p50": "ms",
    "core.colindex.recommend_ms.p50": "ms",
    "core.colindex.recommend_ms.p90": "ms",
    "core.colindex.calls_per_request": "count",
    "serving.rules.apply_ms.p50": "ms",
    "runtime.gc.gen2_collections": "count",
    "runtime.gc.pause_ms_max": "ms",
    "runtime.gc.pause_ms_total": "ms",
    "runtime.gc.requests_in_pause": "count",
    "setup.load_index_s": "s",
    "setup.with_index_s": "s",
    "setup.bind_s": "s",
    "setup.interpreter_s": "s",
    "loadgen.lateness_ms.p99": "ms",
    "loadgen.lateness_ms.max": "ms",
    "loadgen.connections_max": "count",
    "trace.overhead_p50_ms": "ms",
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    request_id: str | None
    name: str
    start: float
    end: float
    note: object = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Trace:
    """Spans indexed by request and by parent."""

    def __init__(self, raw_spans: list, gc_events: list) -> None:
        self.spans = [Span(*raw) for raw in raw_spans]
        self.gc_events = [tuple(event) for event in gc_events]
        self.children: dict[int, list[Span]] = defaultdict(list)
        self.by_request: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                self.children[span.parent].append(span)
            if span.request_id is not None:
                self.by_request[span.request_id].append(span)

    def self_ms(self, span: Span) -> float:
        intervals = [(c.start, c.end) for c in self.children[span.span_id]]
        return self_time(span.start, span.end, intervals) * 1e3

    def setup_seconds(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)


def _p(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def layer_metrics(trace: Trace, results, request_ids: list[str]) -> dict[str, float]:
    """Per-layer metrics over the measured requests (``results`` parallel
    to ``request_ids``); setup, load generator and overhead metrics are
    added by the caller."""
    named: dict[str, list[Span]] = defaultdict(list)
    transport, service_self = [], []
    for rid, result in zip(request_ids, results):
        spans = trace.by_request.get(rid, [])
        for span in spans:
            named[span.name].append(span)
        roots = [s for s in spans if s.name == SERVICE]
        if result.status == 200 and len(roots) == 1:
            transport.append(result.round_trip_ms - roots[0].ms)
            service_self.append(trace.self_ms(roots[0]))
    requests = len(request_ids)
    engine_calls = named[ENGINE]
    misses = {s.parent for s in named[SCORER]}
    hits = sum(1 for s in engine_calls if s.span_id not in misses)
    outcomes = [s.note for s in named[RESILIENT] if s.note is not None]
    metrics = {
        "serving.http.transport_ms.p50": _p(transport, 50),
        "serving.http.transport_ms.p90": _p(transport, 90),
        "serving.http.service_self_ms.p50": _p(service_self, 50),
        "serving.app.handle_self_ms.p50": _p([trace.self_ms(s) for s in named[CLUSTER]], 50),
        "serving.server.update_session_ms.p50": _p([s.ms for s in named[UPDATE]], 50),
        "serving.server.update_session_ms.p90": _p([s.ms for s in named[UPDATE]], 90),
        "serving.session_store.append_click_per_request": len(named[APPEND]) / requests,
        "serving.resilience.stage_hop_ms.p50": _p(
            [trace.self_ms(s) for s in named[RESILIENT]], 50
        ),
        "serving.resilience.deadline_timeouts": sum(1 for _, late in outcomes if late),
        "core.batch.cache_hit_ratio": hits / len(engine_calls) if engine_calls else 0.0,
        "core.batch.lookup_self_ms.p50": _p([trace.self_ms(s) for s in engine_calls], 50),
        "core.colindex.recommend_ms.p50": _p([s.ms for s in named[SCORER]], 50),
        "core.colindex.recommend_ms.p90": _p([s.ms for s in named[SCORER]], 90),
        "core.colindex.calls_per_request": len(named[SCORER]) / requests,
        "serving.rules.apply_ms.p50": _p([s.ms for s in named[RULES]], 50),
    }
    for stage in STAGES:
        served = sum(1 for name, _ in outcomes if name == stage)
        metrics[f"serving.resilience.stage_share.{stage}"] = served / requests
    metrics.update(gc_metrics(trace.gc_events, results))
    return metrics


def gc_metrics(gc_events, results) -> dict[str, float]:
    """Collections inside the measured window and the requests they hit."""
    window_start = min(r.due for r in results)
    window_end = max(r.done for r in results)
    pauses = [
        (generation, start, end)
        for generation, start, end in gc_events
        if start >= window_start and end <= window_end
    ]
    # Collections never overlap, so the last one to start before a request
    # ended is the only candidate that can still be running after it began.
    starts = sorted(start for _, start, _ in pauses)
    end_of = {start: end for _, start, end in pauses}
    in_pause = 0
    for result in results:
        last = bisect.bisect_left(starts, result.done) - 1
        if last >= 0 and end_of[starts[last]] > result.sent:
            in_pause += 1
    durations = [(end - start) * 1e3 for _, start, end in pauses]
    return {
        "runtime.gc.gen2_collections": sum(1 for g, _, _ in pauses if g == 2),
        "runtime.gc.pause_ms_max": max(durations, default=0.0),
        "runtime.gc.pause_ms_total": sum(durations),
        "runtime.gc.requests_in_pause": in_pause,
    }
