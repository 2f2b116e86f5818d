"""Loopback chat-completions endpoints for tests of the remote provider.

Each endpoint is a real ``http.server.ThreadingHTTPServer`` on
``127.0.0.1`` at a free port, served from a daemon thread, so the provider
under test runs its whole transport: sockets, keep-alive, timeouts and
status lines. The server counts the connections it accepts and keeps the
target, headers and body of every request.

``FakeEndpoint`` answers the repair prompts of a dataset from a candidate
cache after a fixed latency, and injects faults keyed by request content,
so the same requests fail in any arrival order and at any concurrency.
``ScriptedEndpoint`` answers with a list of replies in turn.

Replies sleep with the ``time.sleep`` this module bound at import, so a
test that replaces ``time.sleep`` to record the provider's backoff does not
also skip the server's latency.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
from collections import Counter
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic, sleep

from trace_repair.datasets import load_dataset
from trace_repair.orchestrator import _STYLE_LINES, style_for_attempt


@dataclass
class Reply:
    status: int = 200
    body: bytes = b""
    headers: dict = field(default_factory=dict)
    delay_s: float = 0.0
    # When set, these bytes are sent in place of a reply and the
    # connection is closed.
    raw: bytes | None = None


# Close the connection without sending a reply.
DROP = Reply(raw=b"")


def response(
    status: int = 200, payload=None, body: bytes | None = None, headers=None, delay_s: float = 0.0
) -> Reply:
    """A reply with a JSON ``payload`` or a raw ``body``, sent after ``delay_s``."""
    data = body if body is not None else json.dumps(payload).encode("utf-8")
    return Reply(status, data, dict(headers or {}), delay_s)


def completion(content: str, delay_s: float = 0.0) -> Reply:
    message = {"role": "assistant", "content": content}
    return response(payload={"choices": [{"index": 0, "message": message}]}, delay_s=delay_s)


def closed_port() -> int:
    """A loopback port that nothing listens on, so a connection is refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def clear_proxies(monkeypatch) -> None:
    """Unset every ``*_proxy`` variable, so requests to the loopback go direct."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; without TCP_NODELAY the second
    # waits for the client's delayed ACK of the first.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.endpoint._opened(self.connection)

    def finish(self):
        try:
            super().finish()
        finally:
            self.server.endpoint._finished(self.connection)

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        reply = self.server.endpoint._answer(self.path, dict(self.headers), body)
        if reply.raw is not None:
            self.wfile.write(reply.raw)
            self.close_connection = True
            return
        sleep(reply.delay_s)
        self.send_response(reply.status)
        for name, value in reply.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply.body)))
        if reply.status != 200:
            # As bench/stub.py does: an error reply ends its connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(reply.body)

    # A proxy's tunnel request is answered like any other.
    do_CONNECT = do_POST

    def log_message(self, *args):
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def server_bind(self):
        # HTTPServer.server_bind would look the host name up.
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]

    def handle_error(self, request, client_address):
        # A client that gave up on a slow reply leaves a broken pipe here.
        pass


class LoopbackServer:
    """A chat-completions server on ``127.0.0.1``; subclasses define ``reply``.

    Use it as a context manager: the server runs inside the ``with``.
    """

    def __init__(self):
        self.connections = 0
        self.received: list[tuple[str, dict, bytes]] = []
        self._open: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    def reply(self, target: str, headers: dict, body: bytes) -> Reply:
        raise NotImplementedError

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}/v1"

    def __enter__(self):
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.endpoint = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._server.shutdown()
        self.drop_connections()
        self._server.server_close()
        self._thread.join(timeout=5)

    def drop_connections(self, timeout: float = 5.0) -> None:
        """Close every open connection from the server side and wait until
        their handlers have finished."""
        with self._lock:
            sockets = list(self._open)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        deadline = monotonic() + timeout
        while self._open and monotonic() < deadline:
            sleep(0.005)

    def _opened(self, sock: socket.socket) -> None:
        with self._lock:
            self.connections += 1
            self._open.add(sock)

    def _finished(self, sock: socket.socket) -> None:
        with self._lock:
            self._open.discard(sock)

    def _answer(self, target: str, headers: dict, body: bytes) -> Reply:
        with self._lock:
            self.received.append((target, headers, body))
        return self.reply(target, headers, body)


class ScriptedEndpoint(LoopbackServer):
    """Answers the n-th request with the n-th reply of ``script``."""

    def __init__(self, script=()):
        super().__init__()
        self.script = list(script)

    def reply(self, target, headers, body):
        with self._lock:
            return self.script[len(self.received) - 1]


class FakeEndpoint(LoopbackServer):
    """Serves the cache's outputs for the prompts of a dataset.

    Faults: each key in ``transient`` gets one 503 with ``Retry-After: 0`` on
    its first request; every request of a key in ``failing``, or of an
    example at dataset position ``down_from`` or later, gets that 503; with
    ``malformed`` every reply is a 200 whose body is not JSON. ``requests``
    counts the requests of each key.
    """

    def __init__(self, dataset_path, cache_path, latency_s: float = 0.0):
        super().__init__()
        records = load_dataset(dataset_path)
        self.example_by_problem = {record.problem_text: record.example_id for record in records}
        self.position = {record.example_id: index for index, record in enumerate(records)}
        self.replies = {}
        with open(cache_path, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                key = (row["example_id"], row["attempt_index"])
                self.replies[(*key, False)] = row["raw_output"]
                if row.get("retry_output") is not None:
                    self.replies[(*key, True)] = row["retry_output"]
        self.latency_s = latency_s
        self.transient: set[tuple] = set()
        self.failing: set[tuple] = set()
        self.down_from: int | None = None
        self.malformed = False
        self.requests: Counter = Counter()
        self.faults = 0

    def key(self, payload: dict) -> tuple[str, int, bool]:
        """(example id, attempt index, is format retry) of one request."""
        text = payload["messages"][-1]["content"]
        problem = next(
            line[len("Problem: ") :] for line in text.splitlines() if line.startswith("Problem: ")
        )
        attempt = next(
            index for index in range(3) if _STYLE_LINES[style_for_attempt(index)] in text
        )
        return self.example_by_problem[problem], attempt, "\nMalformed output: " in text

    def reply(self, target, headers, body):
        key = self.key(json.loads(body))
        with self._lock:
            self.requests[key] += 1
            first = self.requests[key] == 1
        down = self.down_from is not None and self.position[key[0]] >= self.down_from
        if down or key in self.failing or (first and key in self.transient):
            with self._lock:
                self.faults += 1
            return response(
                503, {"error": "overloaded"}, headers={"Retry-After": "0"}, delay_s=self.latency_s
            )
        if self.malformed:
            return response(body=b"<html>gateway</html>", delay_s=self.latency_s)
        return completion(self.replies[key], delay_s=self.latency_s)

    def install(self, monkeypatch) -> None:
        """Point the remote provider's environment at this endpoint."""
        clear_proxies(monkeypatch)
        monkeypatch.setenv("LLM_REPAIR_BASE_URL", self.base_url)
        monkeypatch.setenv("LLM_REPAIR_MODEL", "fake")
