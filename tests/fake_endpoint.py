"""An in-process chat-completions endpoint for tests of the remote provider.

``response`` builds a real ``requests.Response``. ``FakeEndpoint`` stands in
for ``requests.Session.post``: it answers the repair prompts of a dataset
from a candidate cache after a fixed ``time.sleep`` latency, and injects
faults keyed by request content, so the same requests fail in any arrival
order and at any concurrency.
"""

from __future__ import annotations

import http
import json
import threading
import time
from collections import Counter

import requests

from trace_repair.datasets import load_dataset
from trace_repair.orchestrator import _STYLE_LINES, style_for_attempt

BASE_URL = "http://127.0.0.1:9/v1"


def response(
    status: int = 200, payload=None, body: bytes | None = None, headers=None, url: str = ""
) -> requests.Response:
    """A ``requests.Response`` with a JSON ``payload`` or a raw ``body``."""
    reply = requests.Response()
    reply.status_code = status
    reply.reason = http.HTTPStatus(status).phrase
    reply.url = url
    reply.headers.update(headers or {})
    reply._content = body if body is not None else json.dumps(payload).encode("utf-8")
    return reply


def completion(content: str, url: str = "") -> requests.Response:
    message = {"role": "assistant", "content": content}
    return response(payload={"choices": [{"index": 0, "message": message}]}, url=url)


class FakeEndpoint:
    """Serves the cache's outputs for the prompts of a dataset.

    Faults: each key in ``transient`` gets one 503 with ``Retry-After: 0`` on
    its first request; every request of a key in ``failing``, or of an
    example at dataset position ``down_from`` or later, gets that 503; with
    ``malformed`` every reply is a 200 whose body is not JSON.
    """

    def __init__(self, dataset_path, cache_path, latency_s: float = 0.0):
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
        self._lock = threading.Lock()

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

    def post(self, url, json=None, headers=None, timeout=None) -> requests.Response:
        key = self.key(json)
        with self._lock:
            self.requests[key] += 1
            first = self.requests[key] == 1
        time.sleep(self.latency_s)
        down = self.down_from is not None and self.position[key[0]] >= self.down_from
        if down or key in self.failing or (first and key in self.transient):
            return response(503, {"error": "overloaded"}, headers={"Retry-After": "0"}, url=url)
        if self.malformed:
            return response(body=b"<html>gateway</html>", url=url)
        return completion(self.replies[key], url=url)

    def install(self, monkeypatch) -> None:
        """Serve every ``requests.Session.post`` from this endpoint."""
        monkeypatch.setenv("LLM_REPAIR_BASE_URL", BASE_URL)
        monkeypatch.setenv("LLM_REPAIR_MODEL", "fake")
        monkeypatch.setattr(
            requests.Session, "post", lambda session, url, **kwargs: self.post(url, **kwargs)
        )
