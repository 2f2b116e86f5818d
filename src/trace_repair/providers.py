"""Candidate providers: deterministic replay and a generic remote client.

The replay provider serves recorded outputs keyed by (example id, attempt
index). It refuses a cache with an incomplete or duplicate row and fails
loudly on a cache miss or on a row recorded under another prompt, which
keeps experiment replays honest. The remote provider talks to any
chat-completions style endpoint with temperature 0 and the configured
token budgets; connection reuse, retries and backoff live here, outside
the policy logic. A reply without candidate text is a
``ProviderResponseError``, which the orchestrator records as a parse
failure, not as a transport failure.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

from .orchestrator import (
    SYSTEM_TEXT,
    PromptSpec,
    ProviderResponseError,
    ProviderTransportError,
)

log = logging.getLogger(__name__)

ENV_BASE_URL = "LLM_REPAIR_BASE_URL"
ENV_MODEL = "LLM_REPAIR_MODEL"
ENV_API_KEY = "LLM_REPAIR_API_KEY"


class ReplayCacheMiss(RuntimeError):
    """A replay lookup had no recorded output. Always fatal."""


@dataclass(frozen=True)
class ReplayEntry:
    raw_output: str
    retry_output: str | None = None
    prompt_hash: str | None = None


class ReplayProvider:
    """Serves recorded candidate outputs for deterministic reruns.

    A lookup is an in-process dict read, so a run serves its examples one
    at a time: threads would only contend for the interpreter.
    """

    identity = "replay"
    concurrency = 1

    def __init__(self, entries: Mapping[tuple[str, int], ReplayEntry]):
        self._entries = dict(entries)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ReplayProvider":
        """Load a candidate cache file (one JSON record per line).

        A line that is not a JSON object, a row without ``example_id``,
        ``attempt_index`` or ``raw_output``, an ``attempt_index`` that is
        neither an integer nor a string ``int()`` reads (a float or a boolean
        is refused), or a second row for the same attempt aborts with a
        ``ValueError`` that names the line.
        """
        entries: dict[tuple[str, int], ReplayEntry] = {}
        with open(path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{line_number}"
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{where}: not JSON ({exc})") from None
                if not isinstance(payload, dict):
                    raise ValueError(
                        f"{where}: row is a JSON {type(payload).__name__}, not an object"
                    )
                try:
                    example_id = payload["example_id"]
                    index = payload["attempt_index"]
                    raw_output = payload["raw_output"]
                except KeyError as exc:
                    raise ValueError(f"{where}: missing field {exc}") from None
                # int() would read 1.5 and true as attempt 1, so only an
                # integer, or a string that int() reads, names an attempt.
                if isinstance(index, str):
                    try:
                        index = int(index)
                    except ValueError:
                        pass
                if type(index) is not int:
                    raise ValueError(f"{where}: attempt_index {index!r} is not an integer")
                key = (example_id, index)
                if key in entries:
                    raise ValueError(
                        f"{where}: duplicate row for example {key[0]!r} "
                        f"attempt {key[1]}"
                    )
                entries[key] = ReplayEntry(
                    raw_output, payload.get("retry_output"), payload.get("prompt_hash")
                )
        return cls(entries)

    def generate(self, prompt: PromptSpec, max_tokens: int, temperature: float) -> str:
        key = (prompt.example_id, prompt.attempt_index)
        entry = self._entries.get(key)
        if entry is None:
            raise ReplayCacheMiss(
                f"no cached output for example {prompt.example_id!r} "
                f"attempt {prompt.attempt_index}"
            )
        if entry.prompt_hash and entry.prompt_hash != (
            prompt.base_hash or replace(prompt, retry_of=None).prompt_hash()
        ):
            raise ReplayCacheMiss(
                f"cached output for example {prompt.example_id!r} attempt "
                f"{prompt.attempt_index} was recorded under another prompt"
            )
        if prompt.is_retry:
            if entry.retry_output is None:
                raise ReplayCacheMiss(
                    f"no cached retry output for example {prompt.example_id!r} "
                    f"attempt {prompt.attempt_index}"
                )
            return entry.retry_output
        return entry.raw_output

    def close(self) -> None:
        """Nothing to release."""


class RemoteProvider:
    """JSON chat-completion client for a generic OpenAI-style endpoint.

    Up to ``concurrency`` requests may be in flight at once; they share one
    session, whose pool keeps at most that many connections open and
    reuses them. Only transient failures are retried: connection errors,
    timeouts, 408, 429 and 5xx, after the delay the server names in
    ``Retry-After`` (seconds) or else a full-jitter backoff. Any other
    error status fails the request at once.
    """

    # A run serves this many examples at once unless told otherwise.
    DEFAULT_CONCURRENCY = 2

    def __init__(
        self,
        base_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        timeout: float = 120.0,
        max_tries: int = 3,
        concurrency: int = DEFAULT_CONCURRENCY,
    ):
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL, "")).rstrip("/")
        self.model = model or os.environ.get(ENV_MODEL, "")
        self.api_key = api_key or os.environ.get(ENV_API_KEY, "")
        self.timeout = timeout
        self.max_tries = max_tries
        if not self.base_url or not self.model:
            raise ValueError(
                f"remote provider needs {ENV_BASE_URL} and {ENV_MODEL} "
                "(or explicit base_url/model)"
            )
        if concurrency < 1:
            raise ValueError(f"concurrency must be at least 1, not {concurrency}")
        self.concurrency = concurrency
        self.identity = f"remote:{self.model}"
        self._jitter = random.Random()
        self._session = None
        self._session_lock = threading.Lock()

    def session(self):
        """The provider's ``requests.Session``, made on first use."""
        with self._session_lock:
            if self._session is None:
                import requests

                session = requests.Session()
                adapter = requests.adapters.HTTPAdapter(
                    pool_connections=1, pool_maxsize=self.concurrency, pool_block=True
                )
                session.mount("http://", adapter)
                session.mount("https://", adapter)
                self._session = session
            return self._session

    def close(self) -> None:
        """Close the pooled connections; a later request opens new ones."""
        with self._session_lock:
            session, self._session = self._session, None
        if session is not None:
            session.close()

    def backoff(self, attempt: int) -> float:
        """Full-jitter delay before retry ``attempt + 1``, in seconds."""
        return self._jitter.uniform(0.0, 2.0**attempt)

    def generate(self, prompt: PromptSpec, max_tokens: int, temperature: float) -> str:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": SYSTEM_TEXT},
                {"role": "user", "content": prompt.user_text()},
            ],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        session = self.session()
        last_error: Exception | None = None
        for attempt in range(self.max_tries):
            delay = None
            try:
                response = session.post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers=headers,
                    timeout=self.timeout,
                )
            except OSError as exc:  # requests' exceptions are OSErrors too
                if not _transient(exc):
                    raise ProviderTransportError(str(exc)) from exc
                last_error = exc
            else:
                if response.status_code < 400:
                    return _completion_text(response)
                last_error = _status_error(response)
                if not _retryable_status(response.status_code):
                    raise ProviderTransportError(str(last_error))
                delay = _retry_after(response.headers.get("Retry-After"))
            if attempt + 1 < self.max_tries:
                if delay is None:
                    delay = self.backoff(attempt)
                log.warning("provider call failed (%s); retrying in %.2fs", last_error, delay)
                time.sleep(delay)
        raise ProviderTransportError(str(last_error))


def _transient(exc: OSError) -> bool:
    """A socket error, connection error or timeout; not a bad URL or the like."""
    import requests

    if not isinstance(exc, requests.RequestException):
        return True
    return isinstance(
        exc, (requests.ConnectionError, requests.Timeout, requests.exceptions.ChunkedEncodingError)
    )


def _retryable_status(status: int) -> bool:
    return status in (408, 429) or 500 <= status < 600


def _status_error(response) -> Exception:
    """The ``requests.HTTPError`` of an error reply, with requests' own message."""
    import requests

    try:
        response.raise_for_status()
    except requests.HTTPError as exc:
        return exc
    return requests.HTTPError(f"HTTP {response.status_code}", response=response)


def _retry_after(value: str | None) -> float | None:
    """Seconds named by a ``Retry-After`` header; None when absent or not a number."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return max(0.0, seconds) if math.isfinite(seconds) else None


def _completion_text(response) -> str:
    """``choices[0].message.content`` of a reply, or ``ProviderResponseError``."""
    try:
        content = response.json()["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError) as exc:
        raise ProviderResponseError(
            f"malformed response body ({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(content, str):
        raise ProviderResponseError(
            f"malformed response body (content is {type(content).__name__})"
        )
    return content
