"""Open-loop HTTP/1.1 load generator: one thread, a few connections.

Each request is due at a fixed offset from the phase start and is sent at
that time whether or not earlier requests have returned (open loop), with
two exceptions that only ever delay a send:

* at most ``max_connections`` requests are in flight; a due request waits
  for a free connection;
* two requests of one session are never in flight at once; a request whose
  session is busy is held until the earlier one has returned.

Latency is timed from the due time to the end of the response, so any wait
the generator imposes counts against the server-side budget; how late each
send was is reported as lateness. Connections are reused when the server
keeps them open (HTTP/1.1 without ``Connection: close``) and closed
otherwise.

The loop uses ``select`` rather than ``epoll`` because its timeout has
microsecond resolution; epoll rounds up to whole milliseconds, which would
make every send up to 1 ms late at these rates.
"""

from __future__ import annotations

import errno
import heapq
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from workload import Request

#: how long to wait for any one response before declaring it failed.
RESPONSE_TIMEOUT_S = 10.0
PATH = "/v1/recommend"


@dataclass
class Result:
    """What happened to one scheduled request (times are ``time.monotonic``)."""

    seq: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    reused_connection: bool = False
    error: str = ""

    @property
    def latency_ms(self) -> float:
        """From the scheduled send time to the end of the response."""
        return (self.done - self.due) * 1e3

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1e3

    @property
    def round_trip_ms(self) -> float:
        return (self.done - self.sent) * 1e3


@dataclass
class _Conn:
    sock: socket.socket | None = None
    request: Request | None = None
    result: Result | None = None
    out: bytes = b""
    inbuf: bytearray = field(default_factory=bytearray)
    reused: bool = False
    retried: bool = False


def _parse_response(buf: bytearray) -> tuple[int, bytes, bool] | None:
    """(status, body, keep_alive) once ``buf`` holds a whole response."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    head = bytes(buf[:head_end]).decode("latin-1").split("\r\n")
    version, status = head[0].split(" ", 2)[:2]
    headers = {}
    for line in head[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip().lower()
    length = int(headers.get("content-length", "-1"))
    if length < 0 or len(buf) < head_end + 4 + length:
        return None
    body = bytes(buf[head_end + 4 : head_end + 4 + length])
    connection = headers.get("connection", "")
    keep_alive = (
        connection != "close"
        if version == "HTTP/1.1"
        else connection == "keep-alive"
    )
    return int(status), body, keep_alive


class LoadGenerator:
    """Replays schedules of POSTs against one ``host:port``."""

    def __init__(self, host: str, port: int, max_connections: int) -> None:
        if max_connections < 1:
            raise ValueError("need at least one connection")
        self.host, self.port = host, port
        self.max_connections = max_connections
        self.connections_opened = 0
        self.connections_max = 0

    def _wire(self, request: Request) -> bytes:
        return (
            f"POST {PATH} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(request.body)}\r\n\r\n"
        ).encode("latin-1") + request.body

    def run(self, requests: Sequence[Request], start: float) -> list[Result]:
        """Send every request, ``request.due`` seconds after ``start``."""
        results = [Result(r.seq, start + r.due) for r in requests]
        selector = selectors.SelectSelector()
        conns = [_Conn() for _ in range(self.max_connections)]
        free: deque[_Conn] = deque(conns)
        ready: list[tuple[float, int, int]] = []  # (due, seq, position)
        held: dict[str, deque[int]] = {}
        busy_sessions: set[str] = set()
        position_of_next = 0
        remaining = len(requests)
        in_flight = 0

        def release(conn: _Conn, keep: bool) -> None:
            nonlocal remaining, in_flight
            request = conn.request
            assert request is not None
            conn.request, conn.result, conn.out = None, None, b""
            conn.inbuf.clear()
            if conn.sock is not None:
                selector.unregister(conn.sock)
                if not keep:
                    conn.sock.close()
                    conn.sock = None
            free.append(conn)
            remaining -= 1
            in_flight -= 1
            waiting = held.get(request.session_key)
            if waiting:
                position = waiting.popleft()
                heapq.heappush(ready, (requests[position].due, requests[position].seq, position))
            else:
                held.pop(request.session_key, None)
                busy_sessions.discard(request.session_key)

        def fail(conn: _Conn, reason: str) -> None:
            assert conn.result is not None
            conn.result.error = reason
            conn.result.done = time.monotonic()
            release(conn, keep=False)

        def connect(conn: _Conn) -> None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            code = sock.connect_ex((self.host, self.port))
            if code not in (0, errno.EINPROGRESS):
                sock.close()
                raise OSError(code, errno.errorcode.get(code, "connect failed"))
            conn.sock = sock
            conn.reused = False
            self.connections_opened += 1

        def start_send(conn: _Conn, position: int) -> None:
            nonlocal in_flight
            request = requests[position]
            result = results[position]
            conn.request, conn.result = request, result
            conn.out = self._wire(request)
            conn.retried = False
            result.sent = time.monotonic()
            in_flight += 1
            self.connections_max = max(self.connections_max, in_flight)
            try:
                if conn.sock is None:
                    connect(conn)
                else:
                    conn.reused = True
            except OSError as error:
                fail(conn, f"connect: {error}")
                return
            result.reused_connection = conn.reused
            selector.register(conn.sock, selectors.EVENT_WRITE, conn)

        def on_event(conn: _Conn, mask: int) -> None:
            sock = conn.sock
            assert sock is not None and conn.result is not None
            if mask & selectors.EVENT_WRITE:
                try:
                    sent = sock.send(conn.out)
                except (BlockingIOError, InterruptedError):
                    return
                except OSError as error:
                    retry_or_fail(conn, f"send: {error}")
                    return
                conn.out = conn.out[sent:]
                if not conn.out:
                    selector.modify(sock, selectors.EVENT_READ, conn)
                return
            try:
                chunk = sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as error:
                retry_or_fail(conn, f"recv: {error}")
                return
            if not chunk:
                retry_or_fail(conn, "connection closed before a full response")
                return
            conn.inbuf += chunk
            parsed = _parse_response(conn.inbuf)
            if parsed is None:
                return
            status, body, keep_alive = parsed
            result = conn.result
            result.done = time.monotonic()
            result.status, result.body = status, body
            release(conn, keep=keep_alive)

        def retry_or_fail(conn: _Conn, reason: str) -> None:
            # A kept-alive connection the server closed while idle fails on
            # first use; resend once on a fresh connection.
            if conn.reused and not conn.retried and not conn.inbuf:
                assert conn.sock is not None and conn.request is not None
                selector.unregister(conn.sock)
                conn.sock.close()
                conn.sock = None
                conn.out = self._wire(conn.request)
                try:
                    connect(conn)
                except OSError as error:
                    fail(conn, f"reconnect: {error}")
                    return
                conn.retried = True
                selector.register(conn.sock, selectors.EVENT_WRITE, conn)
                return
            fail(conn, reason)

        try:
            while remaining:
                now = time.monotonic()
                while (
                    position_of_next < len(requests)
                    and results[position_of_next].due <= now
                ):
                    request = requests[position_of_next]
                    if request.session_key in busy_sessions:
                        held.setdefault(request.session_key, deque()).append(
                            position_of_next
                        )
                    else:
                        busy_sessions.add(request.session_key)
                        heapq.heappush(
                            ready, (request.due, request.seq, position_of_next)
                        )
                    position_of_next += 1
                while ready and free:
                    _, _, position = heapq.heappop(ready)
                    start_send(free.popleft(), position)
                # Sleep until the next request is due, unless due requests
                # are already waiting for a connection to come free.
                if position_of_next < len(requests) and not ready:
                    timeout = max(0.0, results[position_of_next].due - time.monotonic())
                else:
                    timeout = 0.05
                if in_flight:
                    events = selector.select(timeout)
                    for key, mask in events:
                        on_event(key.data, mask)
                    self._expire(conns, fail)
                elif timeout > 0:
                    time.sleep(timeout)
        finally:
            for conn in conns:
                if conn.sock is not None:
                    conn.sock.close()
            selector.close()
        return results

    @staticmethod
    def _expire(conns: list[_Conn], fail) -> None:
        now = time.monotonic()
        for conn in conns:
            if conn.result is not None and now - conn.result.sent > RESPONSE_TIMEOUT_S:
                fail(conn, "timeout")
