import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from loadgen import LoadGenerator, _parse_response
from procs import cpu_split
from stats import percentile
from workload import WORKLOADS, schedule

STUB = Path(__file__).with_name("stub_server.py")


@pytest.fixture(params=[False, True], ids=["http1.0-close", "http1.1-keepalive"])
def stub(request):
    """A stub server on the server CPUs; the test runs on the load CPU."""
    load_cpus, server_cpus = cpu_split()
    argv = [sys.executable, str(STUB)] + (["--keep-alive"] if request.param else [])
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, server_cpus),
    )
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, load_cpus)
    try:
        port = int(proc.stdout.readline())
        yield port, request.param
    finally:
        os.sched_setaffinity(0, affinity)
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def _requests(workload, count, sessions=200):
    rng = np.random.default_rng(7)
    session_ids = rng.integers(0, sessions, size=count)
    items = rng.integers(0, 1000, size=count)
    return schedule(workload, session_ids, items, 0, count, "t")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_holds_rate_with_few_connections(stub, name):
    port, keep_alive = stub
    workload = WORKLOADS[name]
    requests = _requests(workload, int(workload.rate_rps))  # one second
    generator = LoadGenerator("127.0.0.1", port, os.cpu_count() or 1)
    start = time.monotonic() + 0.01
    results = generator.run(requests, start)

    assert [r.status for r in results] == [200] * len(requests)
    assert 1 <= generator.connections_max <= (os.cpu_count() or 1)
    # A stall of the stub (or the host) delays the next few sends whatever
    # the generator does, so its own timing shows in the bulk, not the tail.
    lateness = [r.lateness_ms for r in results]
    assert percentile(lateness, 50) < 1.0
    assert percentile(lateness, 90) < 5.0
    elapsed = max(r.done for r in results) - start
    assert len(results) / elapsed > 0.95 * workload.rate_rps
    reused = sum(r.reused_connection for r in results)
    if keep_alive:
        assert reused > len(results) // 2
        assert generator.connections_opened <= generator.max_connections
    else:
        assert reused == 0
        assert generator.connections_opened == len(results)


def test_never_two_requests_of_one_session_in_flight(stub):
    port, _ = stub
    workload = WORKLOADS["hist-live"]
    # Three sessions at 400 rps: most requests find their session busy.
    requests = _requests(workload, 200, sessions=3)
    results = LoadGenerator("127.0.0.1", port, 2).run(requests, time.monotonic())
    by_session = {}
    for request, result in zip(requests, results):
        assert result.status == 200
        by_session.setdefault(request.session_key, []).append(result)
    for session_results in by_session.values():
        # Sent in schedule order, each after the previous one returned.
        for earlier, later in zip(session_results, session_results[1:]):
            assert later.sent >= earlier.done


def test_failed_connection_is_reported_not_raised():
    with __import__("socket").socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    requests = _requests(WORKLOADS["hist-live"], 3)
    results = LoadGenerator("127.0.0.1", port, 1).run(requests, time.monotonic())
    assert all(r.status == 0 and r.error for r in results)


def test_parse_response_waits_for_the_whole_body():
    head = b"HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\n"
    assert _parse_response(bytearray(head + b"ab")) is None
    assert _parse_response(bytearray(head + b"abcd")) == (200, b"abcd", False)
    keep = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
    assert _parse_response(bytearray(keep)) == (200, b"", True)
    close = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    assert _parse_response(bytearray(close)) == (200, b"", False)
