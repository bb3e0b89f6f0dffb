"""Loopback completion endpoint for the remote-lm workload.

Run as its own process:

    python3 perfbench/stub_lm.py SPEC.json

It prints ``listening on http://127.0.0.1:PORT`` once bound, then serves
until SIGINT or SIGTERM. It imports nothing from ``factpatch``: the table
model below is written from the toy spec format alone.

Model. A prompt's last non-empty line is the query line; the rule whose
subject is a word of that line and one of whose keywords occurs in it gives
the answer table. An earlier line that names the subject and a vocabulary
token asserts that token (the last one on the line; the first such line
wins), and the table is blended ``(1 - beta) * table + beta * asserted``.
A query line that already ends with a vocabulary token is a continuation
and gets the stop token ``"\\n"``. Tokens carry a leading space, the way
completion endpoints report them.

Protocol (the subset ``factpatch.lm.RemoteLM`` uses):

    POST any path, {"prompt", "max_tokens", "logprobs"}
        -> choices[0].logprobs.top_logprobs = [{token: logprob, ...}],
           at most 20 entries, natural log.
    POST with "echo": true
        -> choices[0].logprobs.tokens, the prompt split into " word" tokens.
    GET /health -> {"status": "ok"}
    GET /stats  -> request counts by kind and the stub's own service time.

Each response is written in one send on a TCP_NODELAY socket, so the stub
adds no delayed-ACK stall of its own.
"""

from __future__ import annotations

import json
import math
import re
import signal
import socket
import statistics
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

TOP_N = 20
STOP = "\n"
_WORD = re.compile(r"[A-Za-z0-9]+")


class TableModel:
    def __init__(self, spec: dict):
        self.beta = float(spec["beta"])
        self.vocab = {t.lower(): t for t in spec["vocabulary"]}
        self.rules: dict[str, list[tuple[tuple[str, ...], dict[str, float]]]] = {}
        for rule in spec["rules"]:
            if "*" in rule["answers"]:
                raise ValueError("the stub serves top-n tables only (no '*' residual)")
            keywords = tuple(k.lower() for k in rule["keywords"])
            self.rules.setdefault(rule["subject"].lower(), []).append((keywords, rule["answers"]))

    def _match(self, line: str):
        lowered = line.lower()
        for word in _WORD.findall(lowered):
            for keywords, table in self.rules.get(word, ()):
                if any(k in lowered for k in keywords):
                    return word, table
        return None, None

    def _asserted(self, lines: list[str], subject: str) -> str | None:
        for line in lines:
            lowered = line.lower()
            if subject not in lowered:
                continue
            found = [self.vocab[w] for w in _WORD.findall(lowered) if w in self.vocab]
            if found:
                return found[-1]
        return None

    def top_logprobs(self, prompt: str) -> tuple[str, dict[str, float]]:
        """(request kind, top log-probabilities keyed by space-led token)."""
        lines = [line for line in prompt.split("\n") if line.strip()]
        tail = lines[-1].rstrip()
        words = _WORD.findall(tail)
        if words and words[-1].lower() in self.vocab and tail.endswith(words[-1]):
            return "continue", {STOP: 0.0}
        subject, table = self._match(tail)
        if table is None:
            share = math.log(1.0 / len(self.vocab))
            tokens = sorted(self.vocab.values())[:TOP_N]
            return "unmatched", {" " + t: share for t in tokens}
        probs = dict(table)
        asserted = self._asserted(lines[:-1], subject)
        if asserted is not None and self.beta > 0:
            probs = {t: (1.0 - self.beta) * p for t, p in probs.items()}
            probs[asserted] = probs.get(asserted, 0.0) + self.beta
        ranked = sorted(((t, p) for t, p in probs.items() if p > 0), key=lambda tp: (-tp[1], tp[0]))
        return "distribution", {" " + t: math.log(p) for t, p in ranked[:TOP_N]}


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.counts: dict[str, int] = {}
        self.service_s: list[float] = []

    def record(self, kind: str, seconds: float) -> None:
        with self.lock:
            self.counts[kind] = self.counts.get(kind, 0) + 1
            self.service_s.append(seconds)

    def snapshot(self) -> dict:
        with self.lock:
            times = list(self.service_s)
            counts = dict(self.counts)
        return {
            "counts": counts,
            "requests": len(times),
            "service_p50_ms": statistics.median(times) * 1e3 if times else 0.0,
        }


def make_handler(model: TableModel, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, *args) -> None:
            pass

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self) -> None:
            if self.path == "/health":
                self._reply(200, {"status": "ok"})
            elif self.path == "/stats":
                self._reply(200, stats.snapshot())
            else:
                self._reply(404, {"error": "unknown path"})

        def do_POST(self) -> None:
            started = time.perf_counter()
            length = int(self.headers.get("Content-Length") or 0)
            try:
                body = json.loads(self.rfile.read(length))
                prompt = body["prompt"]
            except (ValueError, KeyError, TypeError):
                self._reply(400, {"error": "body must be JSON with a prompt"})
                return
            if body.get("echo"):
                kind = "echo"
                tokens = [" " + w for w in prompt.split()]
                choice = {"text": prompt, "logprobs": {"tokens": tokens, "top_logprobs": None}}
            else:
                kind, top = model.top_logprobs(prompt)
                first = next(iter(top))
                choice = {"text": first, "logprobs": {"tokens": [first], "top_logprobs": [top]}}
            # Recorded before the reply goes out, so a client that reads
            # /stats right after its answer sees this request counted.
            stats.record(kind, time.perf_counter() - started)
            self._reply(200, {"choices": [choice]})

    return Handler


def main(argv: list[str]) -> int:
    with open(argv[1], "r", encoding="utf-8") as handle:
        model = TableModel(json.load(handle))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(model, Stats()))
    server.daemon_threads = True

    def stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    host, port = server.server_address[:2]
    print(f"listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
