"""Start, probe and stop the ``repro serve`` process under test."""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
_PORT_LINE = re.compile(r"http://127\.0\.0\.1:(\d+) ")


def cpu_split() -> tuple[set[int], set[int]]:
    """(load generator CPUs, server CPUs): one CPU for the load, the rest
    for the server; both share the only CPU of a one-CPU machine."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) == 1:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


def _child_setup(cpus: set[int]) -> None:
    os.sched_setaffinity(0, cpus)
    # A shell starts background jobs with SIGINT ignored, and the ignore
    # survives exec; restore it so the server's shutdown handler runs.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@dataclass
class ServerProcess:
    """A running server and what its start-up measured."""

    proc: subprocess.Popen
    port: int
    spawned: float
    ready: float = 0.0

    @property
    def setup_s(self) -> float:
        """From spawning the process to its first HTTP 200 on /healthz."""
        return self.ready - self.spawned

    def cpu_seconds(self) -> float:
        """User plus system CPU time of every thread so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        # fields[0] is the state (field 3); utime and stime are fields 14, 15.
        utime, stime = int(fields[11]), int(fields[12])
        return (utime + stime) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        assert match is not None
        return int(match.group(1)) / 1024.0

    def get_json(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} -> {response.status}")
            return body
        finally:
            conn.close()

    def stop(self) -> int:
        """Interrupt the server (it shuts down on SIGINT) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


def start_server(
    argv: list[str],
    src_dir: Path,
    cpus: set[int],
    log_path: Path,
) -> ServerProcess:
    """Spawn ``python3 <argv>`` (which must serve on ``--port 0``) and wait
    until /healthz answers 200."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(src_dir),
        PYTHONHASHSEED="0",
        PYTHONUNBUFFERED="1",
    )
    log = open(log_path, "wb")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=log,
        env=env,
        preexec_fn=lambda: _child_setup(cpus),
    )
    log.close()
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline().decode("utf-8", "replace")
        match = _PORT_LINE.search(line)
        if match is None:
            raise RuntimeError(
                f"server did not report its port (stdout {line!r}); see {log_path}"
            )
        server = ServerProcess(proc, int(match.group(1)), spawned)
        deadline = spawned + STARTUP_TIMEOUT_S
        while True:
            try:
                server.get_json("/healthz")
                break
            except (OSError, RuntimeError):
                if time.monotonic() > deadline or proc.poll() is not None:
                    raise
                time.sleep(0.001)
        server.ready = time.monotonic()
        return server
    except BaseException:
        proc.kill()
        proc.wait()
        raise
