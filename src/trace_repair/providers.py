"""Candidate providers: deterministic replay and a generic remote client.

The replay provider serves recorded outputs and errors keyed by (example
id, attempt index), the id read as text. It refuses a cache row that is
incomplete, mistyped or a duplicate, naming ``path:line``, and fails loudly
on a row recorded under another prompt and on a miss, which a cache with a
fallback provider, such as a resume's checkpoint, sends there instead; such
a cache also refuses an unpinned row. The remote provider talks to any
chat-completions style endpoint over the standard library's ``http.client``,
with temperature 0 and the configured token budgets; connection reuse,
retries and backoff live here, outside the policy logic. A reply without
candidate text is a ``ProviderResponseError``, which the orchestrator
records as a parse failure, not as a transport failure.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Mapping
from urllib.parse import SplitResult, unquote, urlsplit

from .datasets import ID_TYPES, DatasetError, json_fields, read_jsonl
from .orchestrator import (
    SYSTEM_TEXT,
    PromptSpec,
    ProviderResponseError,
    ProviderTransportError,
    raise_recorded_error,
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
    # The attempt's recorded error; a provider error is raised again at the call it names.
    error: str | None = None


class ReplayProvider:
    """Serves recorded candidate outputs for deterministic reruns.

    A lookup is an in-process dict read, so a run serves its examples one
    at a time: threads would only contend for the interpreter. A miss goes
    to the ``fallback`` provider, if any, whose concurrency and identity the run takes.
    """

    identity = "replay"
    concurrency = 1

    def __init__(self, entries: Mapping[tuple[str, int], ReplayEntry], fallback=None):
        self.entries = dict(entries)
        self._fallback = fallback
        if fallback is not None:
            self.identity, self.concurrency = fallback.identity, fallback.concurrency

    @classmethod
    def from_jsonl(cls, path: str | Path, fallback=None) -> "ReplayProvider":
        """Load a candidate cache file (one JSON record per line), in front of ``fallback``.

        A line that is not a JSON object, a row without ``example_id``,
        ``attempt_index`` or a string ``raw_output``, an ``attempt_index``
        that is neither an integer nor a string ``int()`` reads, a
        ``retry_output``, ``prompt_hash`` or ``error`` that is neither a
        string nor null, an ``example_id`` that is neither a string nor a
        number, or a second row for the same attempt aborts with a
        ``DatasetError`` that names the line. Ids are read as text, so ``7``
        and ``"7"`` name the same example, as in the dataset.

        With a ``fallback`` the cache serves in front of a live provider, so
        a row without a ``prompt_hash``, or with a null or empty one, is
        refused too: it would be served under any mode or config.
        """
        entries: dict[tuple[str, int], ReplayEntry] = {}
        for where, row in read_jsonl(path, ("example_id", "attempt_index", "raw_output")):
            example_id = str(json_fields(where, row, {"example_id": ID_TYPES})[0])
            index = row["attempt_index"]
            # int() would read 1.5 and true as attempt 1, so only an
            # integer, or a string that int() reads, names an attempt.
            if isinstance(index, str):
                try:
                    index = int(index)
                except ValueError:
                    pass
            if type(index) is not int:
                raise DatasetError(f"{where}: attempt_index {index!r} is not an integer")
            optional = (row.get(name) for name in ("retry_output", "prompt_hash", "error"))
            entry = ReplayEntry(row["raw_output"], *optional)
            for name, value in vars(entry).items():
                if not (isinstance(value, str) or value is None and name != "raw_output"):
                    raise DatasetError(f"{where}: {name} {value!r} is not a string")
            if fallback is not None and not json_fields(where, row, {"prompt_hash": (str,)})[0]:
                raise DatasetError(f"{where}: 'prompt_hash' is empty")
            key = (example_id, index)
            if key in entries:
                raise DatasetError(f"{where}: duplicate row for example {key[0]!r} attempt {index}")
            entries[key] = entry
        return cls(entries, fallback)

    def generate(self, prompt: PromptSpec, max_tokens: int, temperature: float) -> str:
        key = (prompt.example_id, prompt.attempt_index)
        entry = self.entries.get(key)
        if entry is None and self._fallback is not None:
            return self._fallback.generate(prompt, max_tokens, temperature)
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
        raise_recorded_error(entry.error, prompt.is_retry)
        if prompt.is_retry:
            if entry.retry_output is None:
                raise ReplayCacheMiss(
                    f"no cached retry output for example {prompt.example_id!r} "
                    f"attempt {prompt.attempt_index}"
                )
            return entry.retry_output
        return entry.raw_output

    def close(self) -> None:
        """Close the fallback provider, if any."""
        if self._fallback is not None:
            self._fallback.close()


class RemoteProvider:
    """JSON chat-completion client for a generic OpenAI-style endpoint.

    A run calls ``generate`` from up to ``concurrency`` threads at once.
    Each thread keeps one keep-alive connection, so a run holds at most that
    many; a connection the server has closed is reopened on its next use.
    Only transient failures are retried: connection errors, timeouts,
    broken replies, 408, 429 and 5xx, after the delay the server names in
    ``Retry-After`` (seconds) or else a full-jitter backoff. Any other error
    status fails the request at once.

    HTTPS verifies with the default ``ssl`` context, and the environment's
    ``http_proxy``/``https_proxy``/``no_proxy`` are read once, when the
    provider is built.
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
        if concurrency < 1:
            raise ValueError(f"concurrency must be at least 1, not {concurrency}")
        if not self.base_url or not self.model:
            raise ValueError(
                f"remote provider needs {ENV_BASE_URL} and {ENV_MODEL} "
                "(or explicit base_url/model)"
            )
        self.concurrency = concurrency
        self.identity = f"remote:{self.model}"
        self.url = f"{self.base_url}/chat/completions"
        endpoint = _http_url(self.base_url, "base_url")
        self._connect, absolute_form, self._headers = _route(endpoint, timeout)
        self._target = self.url if absolute_form else f"{endpoint.path}/chat/completions"
        self._headers["Content-Type"] = "application/json"
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        self._jitter = random.Random()
        self._local = threading.local()
        self._connections: list = []
        self._lock = threading.Lock()

    def connection(self):
        """This thread's keep-alive connection, made on first use.

        An idle connection the server has since closed reads as readable;
        it is closed here, so the next request opens a new socket without
        spending a try.
        """
        with self._lock:
            connection = getattr(self._local, "connection", None)
            if connection is None:
                connection = self._local.connection = self._connect()
                self._connections.append(connection)
        if connection.sock is not None and _readable(connection.sock):
            connection.close()
        return connection

    def close(self) -> None:
        """Close every thread's connection; a later request opens a new one."""
        with self._lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for connection in connections:
            connection.close()

    def backoff(self, attempt: int) -> float:
        """Full-jitter delay before retry ``attempt + 1``, in seconds."""
        return self._jitter.uniform(0.0, 2.0**attempt)

    def post(self, body: bytes) -> tuple[int, str, str | None, bytes]:
        """(status, reason, Retry-After, body) of one POST of ``body``.

        The reply is read to its end so the connection can carry the next
        request; a failure part way closes the connection instead.
        """
        connection = self.connection()
        try:
            connection.request("POST", self._target, body, self._headers)
            response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()
            raise
        return response.status, response.reason, response.getheader("Retry-After"), data

    def generate(self, prompt: PromptSpec, max_tokens: int, temperature: float) -> str:
        from http.client import HTTPException

        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": SYSTEM_TEXT},
                {"role": "user", "content": prompt.user_text()},
            ],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        last_error: Exception | str | None = None
        for attempt in range(self.max_tries):
            delay = None
            try:
                status, reason, retry_after, data = self.post(body)
            except (OSError, HTTPException) as exc:
                last_error = exc
            else:
                if status < 300:
                    return _completion_text(data)
                last_error = _status_error(status, reason, self.url)
                if not _retryable_status(status):
                    raise ProviderTransportError(last_error)
                delay = _retry_after(retry_after)
            if attempt + 1 < self.max_tries:
                if delay is None:
                    delay = self.backoff(attempt)
                log.warning("provider call failed (%s); retrying in %.2fs", last_error, delay)
                time.sleep(delay)
        raise ProviderTransportError(str(last_error))


def _http_url(url: str, name: str) -> SplitResult:
    """``url`` split, or a ``ValueError`` when it is not http(s) with a host and port."""
    parts = urlsplit(url)
    try:
        parts.port
    except ValueError as exc:
        raise ValueError(f"{name} {url!r}: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"{name} {url!r} is not an http:// or https:// URL with a host")
    return parts


def _route(endpoint: SplitResult, timeout: float) -> tuple[Callable, bool, dict]:
    """How to reach ``endpoint``: (a maker of one unopened connection, whether
    the request target is the absolute URL, headers every request carries).

    Through a proxy from the environment, an http request goes to the proxy
    in absolute form and an https request through a ``CONNECT`` tunnel.
    """
    import http.client
    from urllib.request import getproxies, proxy_bypass

    https = endpoint.scheme == "https"
    host, port = endpoint.hostname, endpoint.port or (443 if https else 80)
    if https:
        import ssl

        kind = partial(http.client.HTTPSConnection, context=ssl.create_default_context())
    else:
        kind = http.client.HTTPConnection
    proxy_url = getproxies().get(endpoint.scheme)
    if not proxy_url or proxy_bypass(endpoint.netloc.rpartition("@")[2]):
        return partial(kind, host, port, timeout=timeout), False, {}
    proxy = _http_url(proxy_url if "://" in proxy_url else f"http://{proxy_url}", "proxy")
    if proxy.scheme != "http":
        raise ValueError(f"proxy {proxy_url!r}: only http:// proxies are supported")
    proxy_headers = {}
    if proxy.username is not None:
        from base64 import b64encode

        credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
        proxy_headers["Proxy-Authorization"] = "Basic " + b64encode(credentials.encode()).decode()
    address = (proxy.hostname, proxy.port or 80)
    if not https:
        return partial(kind, *address, timeout=timeout), True, proxy_headers

    def tunnel():
        connection = kind(*address, timeout=timeout)
        connection.set_tunnel(host, port, headers=proxy_headers)
        return connection

    return tunnel, False, {}


def _readable(sock) -> bool:
    """Whether an idle socket has something to read: the server closed it."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _retryable_status(status: int) -> bool:
    return status in (408, 429) or 500 <= status < 600


def _status_error(status: int, reason: str, url: str) -> str:
    """The message of an error reply, worded as candidates.jsonl has recorded it."""
    if 400 <= status < 500:
        return f"{status} Client Error: {reason} for url: {url}"
    if 500 <= status < 600:
        return f"{status} Server Error: {reason} for url: {url}"
    return f"HTTP {status}"


def _retry_after(value: str | None) -> float | None:
    """Seconds named by a ``Retry-After`` header; None when absent or not a number."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return max(0.0, seconds) if math.isfinite(seconds) else None


def _completion_text(body: bytes) -> str:
    """``choices[0].message.content`` of a reply body, or ``ProviderResponseError``."""
    try:
        content = json.loads(body)["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError) as exc:
        raise ProviderResponseError(
            f"malformed response body ({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(content, str):
        raise ProviderResponseError(
            f"malformed response body (content is {type(content).__name__})"
        )
    return content
