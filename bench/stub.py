"""Local chat-completions stub for the remote_stub workload.

Serves ``POST /v1/chat/completions`` on 127.0.0.1 only, from one asyncio
thread. Each reply waits a fixed latency in ``asyncio.sleep``, so the stub
spends no CPU on it. The reply is looked up by the problem text, the
attempt style and whether the request is a format retry, all read from the
request body.

A fixed set of request keys gets one ``503`` with ``Retry-After: 0`` on its
first occurrence since the last counter reset. The set depends on content
alone, so the same requests fail in any arrival order and under any
concurrency.

HTTP/1.1 keep-alive is supported, so a client that reuses its connection
shows it in the connection counter. At most ``nproc`` connections are
served at once; a new connection beyond that closes an idle one, or waits
until one closes. An idle connection therefore never delays another client.

``GET /stats`` returns the request, connection and fault counters;
``GET /stats?reset=1`` also resets them and the first-occurrence record.

Run ``python3 bench/stub.py --config stub.json`` with the file that
``bench/workloads.py`` writes for remote_stub. The stub prints its port on
the first line of stdout and exits when its stdin closes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from collections import Counter
from pathlib import Path

CHAT_PATH = "/v1/chat/completions"
MAX_BODY_BYTES = 1 << 24

# Markers of the three attempt styles, in attempt order, and of a format
# retry, as they appear in the repair prompt.
STYLE_MARKERS = ("diagnostic hint", "strict formatting", "Solve from the original problem")
RETRY_MARKER = "\nMalformed output: "

REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 503: "Service Unavailable"}


def request_key(body: dict) -> tuple[str, int, bool]:
    """(problem text, attempt index, is format retry) of one chat request."""
    text = body["messages"][-1]["content"]
    problem = style = None
    for line in text.splitlines():
        if problem is None and line.startswith("Problem: "):
            problem = line[len("Problem: ") :]
        elif style is None and line.startswith("- Attempt style: "):
            style = next((index for index, marker in enumerate(STYLE_MARKERS) if marker in line), None)
    if problem is None or style is None:
        raise ValueError("request has no problem or attempt style line")
    return problem, style, RETRY_MARKER in text


class StubState:
    """Reply table, fault set and counters."""

    def __init__(self, replies: list, faults: list, latency_s: float):
        self.replies = {(problem, attempt, retry): text for problem, attempt, retry, text in replies}
        self.faults = {(problem, attempt, retry) for problem, attempt, retry in faults}
        self.latency_s = latency_s
        self._reset()

    def _reset(self) -> None:
        self.seen: Counter = Counter()
        self.requests = self.connections = self.faulted = 0

    def admit(self, key: tuple, new_connection: bool) -> bool:
        """Count one request; True when it must fail with a 503."""
        self.requests += 1
        self.connections += new_connection
        self.seen[key] += 1
        fault = key in self.faults and self.seen[key] == 1
        self.faulted += fault
        return fault

    def stats(self, reset: bool) -> dict:
        out = {"requests": self.requests, "connections": self.connections, "faults": self.faulted}
        if reset:
            self._reset()
        return out


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, dict, bytes] | None:
    """(method, path, headers, body) of the next request; None at end of stream."""
    line = await reader.readline()
    if not line.strip():
        return None
    method, path, _ = line.decode("latin-1").split(" ", 2)
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    if length > MAX_BODY_BYTES:
        raise ValueError("request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class StubServer:
    def __init__(self, state: StubState, max_connections: int):
        self.state = state
        self.max_connections = max_connections
        self.open = 0
        self.idle: list[asyncio.StreamWriter] = []
        self.capacity = asyncio.Condition()

    def _reply(self, method: str, path: str, body: bytes, new_connection: bool):
        """(status, payload, extra headers, delay) for one request."""
        if method == "GET" and path.startswith("/stats"):
            return 200, self.state.stats(reset="reset=1" in path), {}, 0.0
        if method != "POST" or path != CHAT_PATH:
            return 404, {"error": "unknown path"}, {}, 0.0
        try:
            key = request_key(json.loads(body))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return 400, {"error": str(exc)}, {}, 0.0
        delay = self.state.latency_s
        if self.state.admit(key, new_connection):
            return 503, {"error": "overloaded"}, {"Retry-After": "0"}, delay
        reply = self.state.replies.get(key)
        if reply is None:
            return 404, {"error": "no reply for this request"}, {}, delay
        message = {"role": "assistant", "content": reply}
        return 200, {"choices": [{"index": 0, "message": message}]}, {}, delay

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        counted = False
        while True:
            self.idle.append(writer)
            try:
                request = await _read_request(reader)
            finally:
                self.idle.remove(writer)
            if request is None:
                return
            method, path, headers, body = request
            status, payload, extra, delay = self._reply(method, path, body, not counted)
            counted = counted or path == CHAT_PATH
            await asyncio.sleep(delay)
            close = status != 200 or headers.get("connection", "").lower() == "close"
            data = json.dumps(payload).encode("utf-8")
            head = [f"HTTP/1.1 {status} {REASONS[status]}", "Content-Type: application/json", f"Content-Length: {len(data)}"]
            head += [f"{name}: {value}" for name, value in extra.items()]
            if close:
                head.append("Connection: close")
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + data)
            await writer.drain()
            if close:
                return

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        async with self.capacity:
            while self.open >= self.max_connections:
                if self.idle:
                    self.idle[0].close()
                await self.capacity.wait()
            self.open += 1
        try:
            await self._serve(reader, writer)
        except (OSError, ValueError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            async with self.capacity:
                self.open -= 1
                self.capacity.notify()

    async def start(self) -> asyncio.AbstractServer:
        return await asyncio.start_server(self.handle, "127.0.0.1", 0)


def load_state(path: Path) -> StubState:
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    return StubState(config["replies"], config["faults"], config["latency_s"])


async def _main(state: StubState) -> None:
    server = await StubServer(state, len(os.sched_getaffinity(0))).start()
    print(server.sockets[0].getsockname()[1], flush=True)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    await stdin.read()
    server.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="local chat-completions stub")
    parser.add_argument("--config", type=Path, required=True)
    args = parser.parse_args(argv)
    asyncio.run(_main(load_state(args.config)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
