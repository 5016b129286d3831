#!/usr/bin/env python3
"""Served-path benchmark: open-loop HTTP replay of a held-out day.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hist-live --seed 1 --seconds 10 --trace 0

It builds (or reuses, from ``.bench_build/perfbench``) the seed's inputs —
see :mod:`workload` — and starts ``python3 -m repro serve INDEX`` with its
defaults (columnar engine, 2 pods, result cache of 1024, guardrails with a
50 ms SLA) as a separate process on its own CPUs. It replays a warm-up
slice of the held-out day under other session keys, then the measured
slice, in an open loop at the workload's fixed rate (see :mod:`loadgen`),
and stops the server. The measured slice runs as :data:`WINDOWS`
back-to-back windows: ``latency_p50_ms``, ``latency_p90_ms`` and
``capacity_rps`` are the medians of the windows' figures; the shares count
every request. ``setup_s`` is the median start-up time of
:data:`SETUP_STARTS` servers. Every answer is checked: HTTP 200, and each
``primary`` answer equal to the heap VMIS-kNN oracle (see :mod:`oracle`).

``--trace 0`` prints the end-to-end metrics (:data:`END_TO_END`).
``--trace 1`` measures the same slice twice, untraced and against
``perfbench/traced_serve.py``, which records spans around each layer's
public functions, and prints the per-layer metrics (:data:`layers.UNITS`)
of the traced run.

Diagnostics go to standard output before the last line, which is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from loadgen import LoadGenerator  # noqa: E402
from procs import cpu_split, start_server  # noqa: E402
from stats import percentile, summary  # noqa: E402
from workload import (  # noqa: E402
    NUM_WINDOWS,
    WORKLOADS,
    load_inputs,
    schedule,
    schedule_hash,
    workload_clicks,
)

SLA_MS = 50.0
#: warm-up requests before each measured phase. They carry every server
#: past its first full garbage collection after loading the index (at
#: about request 700-1100), a one-off start-up cost.
WARMUP_REQUESTS = 1500
#: server starts per untraced run; setup_s is their median.
SETUP_STARTS = 3
#: the measured phase runs as this many back-to-back windows on one server;
#: latency percentiles and capacity are medians over the windows, so a few
#: seconds in which the host stalls this VM do not set a run's figures.
WINDOWS = 5
#: the end-to-end metrics, with their units.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "sla_attainment": "ratio",
    "primary_share": "ratio",
    "ok_share": "ratio",
    "capacity_rps": "1/s",
    "server_rss_mb": "MiB",
    "setup_s": "s",
}


def log(message: str) -> None:
    print(message, flush=True)


def environment(root: Path) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a checkout without .git; src_sha256 still pins the code
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def steal_seconds(cpus: set[int]) -> float:
    """CPU time the hypervisor gave to other guests, summed over ``cpus``."""
    total = 0
    for line in Path("/proc/stat").read_text().splitlines():
        name, *fields = line.split()
        if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cpus:
            total += int(fields[7])
    return total / os.sysconf("SC_CLK_TCK")


def check_pins(seed: int, hashes: dict) -> list[str]:
    """Generated clicks of pinned windows must not drift (e.g. via repro.data)."""
    pins = json.loads((HERE / "pins.json").read_text())
    pinned = pins.get(str(seed % NUM_WINDOWS), {})
    return [
        f"{name}: {hashes.get(name)} != pinned {value}"
        for name, value in pinned.items()
        if hashes.get(name) != value
    ]


@dataclasses.dataclass
class Window:
    """One of the back-to-back slices of a measured phase."""

    results: list
    cpu_seconds: float

    def figures(self) -> tuple[float, float, float]:
        """(p50 ms, p90 ms, requests served per server CPU second)."""
        ok = [r.latency_ms for r in self.results if r.status == 200]
        return percentile(ok, 50), percentile(ok, 90), len(ok) / self.cpu_seconds


@dataclasses.dataclass
class Measurement:
    """One server process under load: its start-up and measured requests."""

    windows: list[Window]
    setup_s: float
    rss_mib: float
    connections_max: int
    trace: dict | None = None

    @property
    def results(self) -> list:
        return [r for window in self.windows for r in window.results]

    def describe(self, label: str) -> None:
        results = self.results
        ok = [r for r in results if r.status == 200]
        for name, values in (
            ("latency_ms", [r.latency_ms for r in ok]),
            ("lateness_ms", [r.lateness_ms for r in results]),
        ):
            stats = summary(values) if values else {}
            log(f"{label} {name}: " + json.dumps({k: round(v, 4) for k, v in stats.items()}))
        figures = [w.figures() for w in self.windows]
        errors = sorted({r.error or str(r.status) for r in results if r.status != 200})
        log(
            f"{label} requests={len(results)} ok={len(ok)} "
            f"window_p50_ms={[round(f[0], 3) for f in figures]} "
            f"window_p90_ms={[round(f[1], 3) for f in figures]} "
            f"window_capacity_rps={[round(f[2]) for f in figures]} "
            f"setup_s={self.setup_s:.4f} connections_max={self.connections_max} "
            f"reused={sum(r.reused_connection for r in results)} errors={errors[:3]}"
        )

    def end_to_end(self) -> dict[str, float]:
        results = self.results
        ok = [r for r in results if r.status == 200]
        primary = sum(1 for r in ok if json.loads(r.body).get("stage") == "primary")
        p50s, p90s, capacities = zip(*(w.figures() for w in self.windows))
        return {
            "latency_p50_ms": statistics.median(p50s),
            "latency_p90_ms": statistics.median(p90s),
            "sla_attainment": sum(1 for r in ok if r.latency_ms <= SLA_MS) / len(results),
            "primary_share": primary / len(results),
            "ok_share": len(ok) / len(results),
            "capacity_rps": statistics.median(capacities),
            "server_rss_mb": self.rss_mib,
        }


def measure(argv, src, cpus, log_path, warmup, requests, max_connections) -> Measurement:
    """Start a server, warm it up, replay ``requests`` in :data:`WINDOWS`
    back-to-back windows and stop it."""
    server = start_server(argv, src, cpus, log_path)
    try:
        LoadGenerator("127.0.0.1", server.port, max_connections).run(
            warmup, time.monotonic() + 0.01
        )
        generator = LoadGenerator("127.0.0.1", server.port, max_connections)
        windows = []
        edges = [round(len(requests) * k / WINDOWS) for k in range(WINDOWS + 1)]
        for first, end in zip(edges, edges[1:]):
            offset = requests[first].due
            part = [dataclasses.replace(r, due=r.due - offset) for r in requests[first:end]]
            cpu_before = server.cpu_seconds()
            results = generator.run(part, time.monotonic() + 0.001)
            windows.append(Window(results, server.cpu_seconds() - cpu_before))
        rss_mib = server.peak_rss_mib()
    finally:
        status = server.stop()
    if status != 0:
        raise RuntimeError(f"server exited with {status}; see {log_path}")
    return Measurement(windows, server.setup_s, rss_mib, generator.connections_max)


def well_formed(body: dict) -> bool:
    items = body.get("items")
    return (
        isinstance(items, list)
        and len(items) <= 21
        and all(isinstance(i.get("item_id"), int) for i in items)
        and isinstance(body.get("stage"), str)
    )


def per_layer(untraced: Measurement, traced: Measurement, requests) -> dict[str, float]:
    from layers import Trace, layer_metrics

    trace = Trace(traced.trace["spans"], traced.trace["gc"])
    request_ids = [json.loads(q.body)["request_id"] for q in requests]
    metrics = layer_metrics(trace, traced.results, request_ids)
    load_index = trace.setup_seconds("setup.load_index")
    with_index = trace.setup_seconds("setup.with_index")
    bind = trace.setup_seconds("setup.bind")
    lateness = [r.lateness_ms for r in untraced.results]
    metrics.update(
        {
            "setup.load_index_s": load_index,
            "setup.with_index_s": with_index,
            "setup.bind_s": bind,
            "setup.interpreter_s": traced.setup_s - load_index - with_index - bind,
            "loadgen.lateness_ms.p99": percentile(lateness, 99),
            "loadgen.lateness_ms.max": max(lateness),
            "loadgen.connections_max": untraced.connections_max,
            "trace.overhead_p50_ms": traced.end_to_end()["latency_p50_ms"]
            - untraced.end_to_end()["latency_p50_ms"],
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the server is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "cli" / "main.py").is_file():
        print(
            f"error: {root} is not a checkout of the repository (no src/repro); "
            "run from its root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    from oracle import Oracle, check

    workload = WORKLOADS[args.workload]
    load_cpus, server_cpus = cpu_split()
    os.sched_setaffinity(0, load_cpus)
    max_connections = os.cpu_count() or 1
    work_dir = root / ".bench_build" / "perfbench"
    work_dir.mkdir(parents=True, exist_ok=True)

    log("env: " + json.dumps(environment(root), sort_keys=True))
    started = time.monotonic()
    inputs = load_inputs(work_dir, args.seed)
    sessions, items = workload_clicks(inputs, workload)
    n_measured = round(workload.rate_rps * args.seconds)
    n_warmup = WARMUP_REQUESTS
    if n_measured + n_warmup > len(sessions):
        print(
            f"error: {args.seconds} s at {workload.rate_rps} rps needs "
            f"{n_measured + n_warmup} clicks; the held-out day has {len(sessions)}",
            file=sys.stderr,
        )
        return 2
    measured = schedule(workload, sessions, items, 0, n_measured, "m")
    warmup = schedule(workload, sessions, items, len(sessions) - n_warmup, n_warmup, "w")
    hashes = dict(inputs.hashes, schedule_sha256=schedule_hash(measured))
    log(
        "inputs: "
        + json.dumps(
            dict(hashes, seed=args.seed, window=inputs.window, workload=workload.name),
            sort_keys=True,
        )
    )
    log(f"inputs ready in {time.monotonic() - started:.1f} s")
    drift = check_pins(args.seed, inputs.hashes)
    if drift:
        print(
            "error: inputs differ from perfbench/pins.json: " + "; ".join(drift),
            file=sys.stderr,
        )
        return 3

    serve_args = [str(inputs.index_path), "--port", "0"]
    untraced_argv = ["-m", "repro", "serve", *serve_args]
    steal_before = steal_seconds(load_cpus | server_cpus)
    setups = []
    if not args.trace:
        for _ in range(SETUP_STARTS - 1):
            server = start_server(untraced_argv, src, server_cpus, work_dir / "serve.log")
            setups.append(server.setup_s)
            server.stop()
    runs = [
        measure(
            untraced_argv, src, server_cpus, work_dir / "serve.log",
            warmup, measured, max_connections,
        )
    ]
    setups.append(runs[0].setup_s)
    if args.trace:
        spans_path = work_dir / "spans.json"
        traced_argv = [str(HERE / "traced_serve.py"), "--trace-out", str(spans_path), *serve_args]
        runs.append(
            measure(
                traced_argv, src, server_cpus, work_dir / "serve-traced.log",
                warmup, measured, max_connections,
            )
        )
        runs[1].trace = json.loads(spans_path.read_text())
    log(f"steal_s: {steal_seconds(load_cpus | server_cpus) - steal_before:.2f}")
    log("setup_s: " + json.dumps([round(v, 4) for v in setups]))
    for label, measurement in zip(("untraced", "traced"), runs):
        measurement.describe(label)

    oracle_started = time.monotonic()
    oracle = Oracle(inputs.index_path)
    checked = mismatches = malformed = 0
    for measurement in runs:
        report = check(measured, measurement.results, oracle)
        checked += report.checked
        mismatches += report.mismatches
        malformed += sum(
            1
            for r in measurement.results
            if r.status == 200 and not well_formed(json.loads(r.body))
        )
        for example in report.examples:
            log(f"oracle mismatch: {example}")
    log(
        f"oracle: checked={checked} mismatches={mismatches} malformed={malformed} "
        f"({time.monotonic() - oracle_started:.1f} s)"
    )
    correct = checked > 0 and mismatches == 0 and malformed == 0

    e2e = dict(runs[0].end_to_end(), setup_s=statistics.median(setups))
    log("end_to_end: " + json.dumps(e2e))
    if args.trace:
        from layers import UNITS

        metrics, units = per_layer(runs[0], runs[1], measured), UNITS
    else:
        metrics, units = e2e, END_TO_END
    results = [r for measurement in runs for r in measurement.results]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(results),
                "failed": sum(1 for r in results if r.status != 200),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
