"""Benchmark inputs: click log, index artifact and request schedules.

Everything here is a pure function of the ``--seed``:

* The base click log is the ``ecom-1m-sim`` profile at scale 1.0 (about
  1.37M clicks in 214k sessions over 30 days), generated once per
  checkout with the fixed generator seed :data:`BASE_SEED`. Generating it
  takes about a minute, so it is cached as arrays.
* The seed picks one of :data:`NUM_WINDOWS` sliding windows over that log,
  laid out exactly as ``repro.data.split.sliding_window_splits(log,
  NUM_WINDOWS, TRAIN_DAYS)`` lays them out (the paper's §5.1.1 protocol:
  historical days as training data, the following day held out). The
  window's training sessions are built into a ``.vmis`` index with
  ``m = 500``, the same calls ``repro build-index --m 500`` makes.
* The held-out day keeps only items seen in training and sessions that
  still have two or more clicks (``TrainTestSplit.test_sequences``), in
  timestamp order. Each workload turns it into a request schedule.

Seeds that agree modulo :data:`NUM_WINDOWS` share their inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROFILE = "ecom-1m-sim"
SCALE = 1.0
BASE_SEED = 2022
NUM_WINDOWS = 10
TRAIN_DAYS = 20.0
TEST_DAYS = 1.0
INDEX_M = 500
SECONDS_PER_DAY = 86_400
#: items per response, the frontend's slot size.
COUNT = 21


@dataclass(frozen=True)
class Workload:
    """One traffic mix replayed against the server."""

    name: str
    variant: str
    min_session_clicks: int
    rate_rps: float
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "hist-live",
            "serenade-hist",
            2,
            400.0,
            "production path: every held-out click, session writes, "
            "2-item view, some cache hits",
        ),
        Workload(
            "full-longtail",
            "full",
            8,
            300.0,
            "long sessions, full view: the scorer and session store do "
            "the most work, few cache hits",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The cached inputs of one window."""

    window: int
    index_path: Path
    #: held-out clicks in timestamp order: session ids and item ids.
    sessions: np.ndarray
    items: np.ndarray
    hashes: dict[str, str]


@dataclass(frozen=True)
class Request:
    """One scheduled POST /v1/recommend."""

    seq: int
    due: float  # seconds after the phase starts
    session_key: str
    item_id: int
    body: bytes


def _sha256_arrays(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
    return digest.hexdigest()


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _atomic_save_npz(path: Path, **arrays: np.ndarray) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)


def _base_log(cache_dir: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The base click log as (session, item, timestamp) arrays, log order."""
    path = cache_dir / f"base-{PROFILE}-{SCALE:g}-{BASE_SEED}.npz"
    if not path.exists():
        from repro.data import load_dataset

        log = load_dataset(PROFILE, scale=SCALE, seed=BASE_SEED)
        table = np.array(
            [(c.session_id, c.item_id, c.timestamp) for c in log], dtype=np.int64
        )
        _atomic_save_npz(
            path, sessions=table[:, 0], items=table[:, 1], timestamps=table[:, 2]
        )
    with np.load(path) as data:
        return data["sessions"], data["items"], data["timestamps"]


def window_bounds(first: int, last: int, window: int) -> tuple[int, int, int]:
    """(window_start, test_start, window_end) of one sliding window.

    The arithmetic of ``repro.data.split.sliding_window_splits``.
    """
    window_span = int((TRAIN_DAYS + TEST_DAYS) * SECONDS_PER_DAY)
    stride = (last - first - window_span) // (NUM_WINDOWS - 1)
    window_start = first + window * stride
    test_start = window_start + int(TRAIN_DAYS * SECONDS_PER_DAY)
    window_end = test_start + int(TEST_DAYS * SECONDS_PER_DAY)
    return window_start, test_start, window_end


def _build_window(cache_dir: Path, window: int, out_dir: Path) -> None:
    from repro.core.types import Click
    from repro.data.clicklog import ClickLog
    from repro.data.split import TrainTestSplit
    from repro.index.builder import IndexBuilder
    from repro.index.serialization import save_index

    sessions, items, timestamps = _base_log(cache_dir)
    window_start, test_start, window_end = window_bounds(
        int(timestamps[0]), int(timestamps[-1]), window
    )
    keep = (timestamps >= window_start) & (timestamps < window_end)
    log = ClickLog(
        Click(s, i, t)
        for s, i, t in zip(
            sessions[keep].tolist(), items[keep].tolist(), timestamps[keep].tolist()
        )
    )
    train, test = log.split_at(test_start)
    split = TrainTestSplit(train=train, test=test)
    sequences = split.test_sequences()
    known = {c.item_id for c in train}
    held = np.array(
        [
            c.as_tuple()
            for c in test
            if c.session_id in sequences and c.item_id in known
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    assert len(held) == sum(len(seq) for seq in sequences.values())

    index = IndexBuilder(max_sessions_per_item=INDEX_M).build(list(train))
    tmp_dir = out_dir.with_name(out_dir.name + f".tmp{os.getpid()}")
    tmp_dir.mkdir(parents=True, exist_ok=True)
    save_index(index, tmp_dir / "index.vmis")
    _atomic_save_npz(
        tmp_dir / "heldout.npz",
        sessions=held[:, 0],
        items=held[:, 1],
        timestamps=held[:, 2],
    )
    hashes = {
        "clicks_sha256": _sha256_arrays(
            sessions[keep], items[keep], timestamps[keep]
        ),
        "index_sha256": _sha256_file(tmp_dir / "index.vmis"),
        "heldout_sha256": _sha256_arrays(held[:, 0], held[:, 1], held[:, 2]),
    }
    (tmp_dir / "meta.json").write_text(json.dumps(hashes, sort_keys=True))
    os.replace(tmp_dir, out_dir)


def load_inputs(cache_dir: Path, seed: int) -> Inputs:
    """The inputs for ``seed``, building and caching them on first use."""
    window = seed % NUM_WINDOWS
    out_dir = cache_dir / f"window-{PROFILE}-{BASE_SEED}-{window}"
    if not (out_dir / "meta.json").exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        _build_window(cache_dir, window, out_dir)
    hashes = json.loads((out_dir / "meta.json").read_text())
    if _sha256_file(out_dir / "index.vmis") != hashes["index_sha256"]:
        raise RuntimeError(f"cached index in {out_dir} does not match its hash")
    with np.load(out_dir / "heldout.npz") as data:
        sessions, items = data["sessions"], data["items"]
    return Inputs(window, out_dir / "index.vmis", sessions, items, hashes)


def workload_clicks(inputs: Inputs, workload: Workload) -> tuple[np.ndarray, np.ndarray]:
    """(session ids, item ids) of the workload's held-out clicks, in order."""
    sessions, items = inputs.sessions, inputs.items
    if workload.min_session_clicks > 2:
        ids, counts = np.unique(sessions, return_counts=True)
        long_ids = ids[counts >= workload.min_session_clicks]
        keep = np.isin(sessions, long_ids)
        sessions, items = sessions[keep], items[keep]
    return sessions, items


def schedule(
    workload: Workload,
    sessions: np.ndarray,
    items: np.ndarray,
    start: int,
    count: int,
    key_prefix: str,
) -> list[Request]:
    """``count`` requests from position ``start`` at the workload's rate."""
    requests = []
    for seq, position in enumerate(range(start, start + count)):
        session_key = f"{key_prefix}{int(sessions[position])}"
        item_id = int(items[position])
        body = json.dumps(
            {
                "session_id": session_key,
                "item_id": item_id,
                "consent": True,
                "variant": workload.variant,
                "count": COUNT,
                "request_id": f"{key_prefix}{seq}",
            },
            separators=(",", ":"),
        ).encode()
        requests.append(Request(seq, seq / workload.rate_rps, session_key, item_id, body))
    return requests


def schedule_hash(requests: list[Request]) -> str:
    digest = hashlib.sha256()
    for request in requests:
        digest.update(f"{request.due!r}\t".encode() + request.body + b"\n")
    return digest.hexdigest()
