"""Minimal HTTP front end over an engine, on the standard library only.

Routes:

    POST /edits   append facts; body is one payload object or {"facts": [...]}
    POST /query   answer a query; body {"query": ..., "alpha"?, "k"?, "mode"?,
                  "trace"?}
    GET  /health  liveness and version

Every request gets a status and, on failure, {"error": reason}: 400 for a
request the server rejects, 502 when the model endpoint fails, and 500 for
anything else, which is also logged with its traceback.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import __version__
from .engine import Engine
from .errors import BackendError, CapabilityError, FactPatchError, PipelineError, ValidationError
from .memory import payload_from_dict

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 10 * 1024 * 1024


class _Rejected(Exception):
    """A request the server refuses: the route answers 400 with this message."""


class ApiServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], engine: Engine) -> None:
        super().__init__(address, ApiHandler)
        self.engine = engine


class ApiHandler(BaseHTTPRequestHandler):
    server: ApiServer
    protocol_version = "HTTP/1.1"
    # Writes are buffered and flushed once per request, so a reply leaves in one
    # send; TCP_NODELAY keeps a larger reply's last piece off the delayed ACK too.
    wbufsize = 1 << 16
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s - %s", self.address_string(), format % args)

    def handle_expect_100(self) -> bool:
        # The client holds the body back until this interim reply arrives.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> object:
        """The parsed JSON body, which may be any JSON value, ``null`` included."""
        try:
            length = int(self.headers.get("Content-Length") or "")
        except ValueError:
            raise _Rejected("Content-Length header is required") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _Rejected(f"body must be 0..{MAX_BODY_BYTES} bytes")
        try:
            return json.loads(self.rfile.read(length))
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise _Rejected(f"invalid JSON: {exc}") from None

    def do_GET(self) -> None:
        self._route({"/health": self._handle_health})

    def do_POST(self) -> None:
        self._route({"/edits": self._handle_edits, "/query": self._handle_query})

    def _route(self, routes: dict) -> None:
        handle = routes.get(self.path)
        if handle is None:
            self._send_error(404, f"unknown path {self.path}")
            return
        try:
            handle()
        except _Rejected as exc:
            self._send_error(400, str(exc))
        except Exception as exc:
            logger.exception("%s %s failed", self.command, self.path)
            self._send_error(500, f"internal error: {exc}")

    def _handle_health(self) -> None:
        self._send_json(200, {"status": "ok", "version": __version__})

    def _handle_edits(self) -> None:
        body = self._read_body()
        if isinstance(body, dict) and "facts" in body:
            payloads = body["facts"]
        elif isinstance(body, dict):
            payloads = [body]
        else:
            raise _Rejected("body must be a fact object or {\"facts\": [...]}")
        if not isinstance(payloads, list) or not payloads:
            raise _Rejected("facts must be a non-empty list")
        try:  # every fact is checked before the first is persisted
            prepared = [payload_from_dict(p) for p in payloads]
        except (FactPatchError, TypeError, AttributeError) as exc:
            raise _Rejected(str(exc)) from exc
        added = [self.server.engine.add_fact(**payload).to_dict() for payload in prepared]
        self._send_json(200, {"added": added})

    def _handle_query(self) -> None:
        body = self._read_body()
        if not isinstance(body, dict) or not isinstance(body.get("query"), str):
            raise _Rejected("body must be an object with a string \"query\"")
        overrides = {}
        for key, kinds in (("alpha", (int, float)), ("k", (int,)), ("mode", (str,))):
            if key in body:
                if not isinstance(body[key], kinds) or isinstance(body[key], bool):
                    raise _Rejected(f"{key} has the wrong type")
                overrides[key] = body[key]
        try:
            text, trace = self.server.engine.answer(body["query"], **overrides)
        except ValidationError as exc:
            raise _Rejected(str(exc)) from exc
        except PipelineError as exc:
            if not isinstance(exc.cause, (BackendError, CapabilityError)):
                raise
            self._send_error(502, str(exc))
            return
        reply = {
            "answer": text,
            "fallback_used": trace.fallback_used,
            "selected_fact_ids": list(trace.selected_fact_ids),
        }
        if body.get("trace"):
            reply["trace"] = trace.to_dict()
        self._send_json(200, reply)


def make_server(engine: Engine, host: str = "127.0.0.1", port: int = 0) -> ApiServer:
    """Bind and return the server; port 0 picks a free port. Call
    serve_forever() (or poke it from a thread in tests) to start handling."""
    return ApiServer((host, port), engine)
