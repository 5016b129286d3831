"""A stand-in for ``repro serve``: answers every POST with a fixed body.

``python3 stub_server.py [--keep-alive]`` prints its port and serves until
interrupted; with ``--keep-alive`` it speaks HTTP/1.1 and keeps
connections open, otherwise it answers HTTP/1.0 and closes them, as the
real server does.
"""

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BODY = json.dumps({"items": [], "stage": "primary"}).encode()


class Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)


def main() -> None:
    if "--keep-alive" in sys.argv:
        Handler.protocol_version = "HTTP/1.1"
        Handler.disable_nagle_algorithm = True
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.server_close()


if __name__ == "__main__":
    main()
