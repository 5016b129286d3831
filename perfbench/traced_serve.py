"""Traced launcher: ``repro serve`` with spans around each layer's calls.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_serve.py --trace-out spans.json INDEX --port 0

Everything after ``--trace-out PATH`` is passed to the ``serve`` command of
``repro.cli.main.main``, the entry point the untraced run starts through
``python3 -m repro serve``. Before calling it, the launcher replaces the
public functions listed in :func:`install` with wrappers that record a
span (name, start, end, parent span, request id) and installs a
``gc.callbacks`` hook; the repository's source is not modified.

A request's id is the ``request_id`` field of its JSON body (the server
ignores unknown fields). Every span under ``SerenadeService.recommend``
inherits it through a context variable, including the primary stage call
that ``FallbackChain`` runs on its worker thread: the launcher makes
``ThreadPoolExecutor.submit`` run each task in a copy of the submitter's
context. Spans stay in memory and are written as JSON when ``serve``
returns after SIGINT.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

#: finished spans: (span id, parent span id, request id, name, start, end, note)
SPANS: list[tuple] = []
#: garbage collections: (generation, start, end)
GC_EVENTS: list[tuple[int, float, float]] = []
_ids = itertools.count(1)
_current: contextvars.ContextVar[tuple[int | None, str | None]] = (
    contextvars.ContextVar("perfbench_span", default=(None, None))
)


def traced(name, fn, request_id=None, note=None):
    """Wrap ``fn`` so each call records a span named ``name``.

    ``request_id(args)`` starts a new request; ``note(args, result)``
    attaches a small JSON value to the span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent, rid = _current.get()
        if request_id is not None:
            rid = request_id(args)
        span_id = next(_ids)
        token = _current.set((span_id, rid))
        start = time.monotonic()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic()
            _current.reset(token)
            SPANS.append(
                (
                    span_id,
                    parent,
                    rid,
                    name,
                    start,
                    end,
                    None if note is None else note(args, result),
                )
            )

    return wrapper


def _payload_request_id(args) -> str | None:
    payload = args[1]
    return payload.get("request_id") if isinstance(payload, dict) else None


def _outcome_note(args, _result):
    outcome = args[0].last_outcome()
    return None if outcome is None else [outcome.stage, outcome.deadline_exceeded]


def install() -> None:
    """Wrap the layer boundaries and hook the garbage collector."""
    # ``repro.cli`` re-exports ``main``, which shadows the module attribute.
    cli = importlib.import_module("repro.cli.main")
    from repro.core.batch import BatchPredictionEngine
    from repro.core.colindex import VMISKNNColumnar
    from repro.serving.app import ServingCluster
    from repro.serving.http import SerenadeHTTPServer, SerenadeService
    from repro.serving.resilience import ResilientRecommender
    from repro.serving.rules import BusinessRules
    from repro.serving.server import RecommendationServer
    from repro.serving.session_store import SessionStore

    layer_calls = [
        (SerenadeService, "recommend", "serving.http.SerenadeService.recommend",
         {"request_id": _payload_request_id}),
        (ServingCluster, "handle", "serving.app.ServingCluster.handle", {}),
        (RecommendationServer, "handle", "serving.server.RecommendationServer.handle", {}),
        (RecommendationServer, "update_session",
         "serving.server.RecommendationServer.update_session", {}),
        (SessionStore, "append_click", "serving.session_store.SessionStore.append_click", {}),
        (ResilientRecommender, "recommend",
         "serving.resilience.ResilientRecommender.recommend", {"note": _outcome_note}),
        (BatchPredictionEngine, "recommend", "core.batch.BatchPredictionEngine.recommend", {}),
        (VMISKNNColumnar, "recommend", "core.colindex.VMISKNNColumnar.recommend", {}),
        (BusinessRules, "apply", "serving.rules.BusinessRules.apply", {}),
        (SerenadeHTTPServer, "__init__", "setup.bind", {}),
        (SerenadeHTTPServer, "start", "setup.bind", {}),
    ]
    for owner, attribute, name, options in layer_calls:
        setattr(owner, attribute, traced(name, getattr(owner, attribute), **options))
    ServingCluster.with_index = classmethod(
        traced("setup.with_index", ServingCluster.with_index.__func__)
    )
    cli.load_index = traced("setup.load_index", cli.load_index)

    submit = ThreadPoolExecutor.submit

    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit_in_context

    started = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            started[0] = time.monotonic()
        else:
            GC_EVENTS.append((info["generation"], started[0], time.monotonic()))

    gc.callbacks.append(on_gc)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, serve_args = argv[1], argv[2:]
    install()
    from repro.cli.main import main as repro_main

    status = repro_main(["serve", *serve_args])
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": SPANS, "gc": GC_EVENTS}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
