"""A tiny scriptable HTTP server for exercising the remote clients."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubServer:
    """Serves canned JSON. ``respond(path, body, hit_count) -> (status, payload)``;
    a ``bytes`` payload is sent as it is, so replies that are not JSON can be served too.

    Records every request as (path, body, headers). Use as a context manager;
    ``url`` points at the listening socket.
    """

    def __init__(self, respond):
        self.respond = respond
        self.requests: list[tuple[str, dict | None, dict]] = []
        self._hits = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length)
                body = json.loads(raw) if raw else None
                with stub._lock:
                    stub._hits += 1
                    hits = stub._hits
                    stub.requests.append((self.path, body, dict(self.headers)))
                status, payload = stub.respond(self.path, body, hits)
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
