"""Checks served answers against the heap VMIS-kNN differential oracle.

The benchmark tracks every session's history itself, from the requests it
sent, and derives the view the pod's model saw: the last two items for
``serenade-hist`` and the whole (capped) history for ``full``. A
``primary`` answer must then equal the
first ``count`` items of ``VMISKNN(m=500, k=100,
exclude_current_items=True).recommend(view, 2 * count)`` — the pod
over-fetches twice the slot and the (empty) business rules truncate — in
item ids and in scores, bit for bit after the JSON round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

#: mirrors repro.serving.session_store.SessionStore's default history cap.
SESSION_MAX_ITEMS = 100
OVERFETCH_FACTOR = 2


def session_view(history: Sequence[int], variant: str) -> list[int]:
    """The part of a consenting session's history a variant shows the model."""
    if variant == "serenade-hist":
        return list(history[-2:])
    if variant == "full":
        return list(history)
    raise ValueError(f"no oracle view for variant {variant!r}")


@dataclass
class OracleReport:
    checked: int = 0
    mismatches: int = 0
    #: answers not checked because an earlier request of the session failed.
    unchecked: int = 0
    examples: list[str] = field(default_factory=list)


class Oracle:
    """Memoised heap-path answers over one index artifact."""

    def __init__(self, index_path: Path, m: int = 500, k: int = 100) -> None:
        from repro.core.vmis import VMISKNN
        from repro.index.serialization import load_index

        self.model = VMISKNN(
            load_index(index_path), m=m, k=k, exclude_current_items=True
        )
        self._memo: dict[tuple[tuple[int, ...], int], list[tuple[int, float]]] = {}

    def expected(self, view: Sequence[int], count: int) -> list[tuple[int, float]]:
        key = (tuple(view), count)
        answer = self._memo.get(key)
        if answer is None:
            ranked = self.model.recommend(list(view), how_many=count * OVERFETCH_FACTOR)
            answer = [(s.item_id, s.score) for s in ranked[:count]]
            self._memo[key] = answer
        return answer


def check(requests, results, oracle) -> OracleReport:
    """Compare every ``primary`` 200 answer in ``results`` to the oracle.

    ``requests`` and ``results`` are parallel lists in send order. A session
    with a failed request is no longer tracked (its server-side history is
    unknown); its later answers are counted as unchecked.
    """
    report = OracleReport()
    histories: dict[str, list[int]] = {}
    lost: set[str] = set()
    for request, result in zip(requests, results):
        payload = json.loads(request.body)
        key, item = payload["session_id"], payload["item_id"]
        if key in lost:
            report.unchecked += 1
            continue
        if result.status != 200:
            lost.add(key)
            continue
        history = histories.setdefault(key, [])
        history.append(item)
        del history[:-SESSION_MAX_ITEMS]
        body = json.loads(result.body)
        if body.get("stage") != "primary":
            continue
        view = session_view(history, payload["variant"])
        want = oracle.expected(view, payload["count"])
        got = [(entry["item_id"], entry["score"]) for entry in body["items"]]
        report.checked += 1
        if got != want:
            report.mismatches += 1
            if len(report.examples) < 3:
                report.examples.append(
                    f"{payload['request_id']} view={view}: got {got[:3]}... "
                    f"want {want[:3]}..."
                )
    return report
