"""Candidate providers: deterministic replay and a generic remote client.

The replay provider serves recorded outputs keyed by (example id, attempt
index) and fails loudly on a cache miss or on a row recorded under
another prompt, which keeps experiment replays honest. The remote
provider talks to any chat-completions style endpoint with temperature 0
and the configured token budgets; rate limiting and backoff live here,
outside the policy logic.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

from .orchestrator import PromptSpec, ProviderTransportError, SYSTEM_TEXT

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
    """Serves recorded candidate outputs for deterministic reruns."""

    identity = "replay"

    def __init__(self, entries: Mapping[tuple[str, int], ReplayEntry]):
        self._entries = dict(entries)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ReplayProvider":
        """Load a candidate cache file (one JSON record per line)."""
        entries: dict[tuple[str, int], ReplayEntry] = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                key = (payload["example_id"], int(payload["attempt_index"]))
                entries[key] = ReplayEntry(
                    raw_output=payload["raw_output"],
                    retry_output=payload.get("retry_output"),
                    prompt_hash=payload.get("prompt_hash"),
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
        if entry.prompt_hash and entry.prompt_hash != replace(prompt, retry_of=None).prompt_hash():
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


class RemoteProvider:
    """JSON chat-completion client for a generic OpenAI-style endpoint."""

    def __init__(
        self,
        base_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        timeout: float = 120.0,
        max_tries: int = 3,
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
        self.identity = f"remote:{self.model}"

    def generate(self, prompt: PromptSpec, max_tokens: int, temperature: float) -> str:
        import requests

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

        last_error: Exception | None = None
        for attempt in range(self.max_tries):
            try:
                response = requests.post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers=headers,
                    timeout=self.timeout,
                )
                response.raise_for_status()
                body = response.json()
                return body["choices"][0]["message"]["content"]
            except Exception as exc:  # noqa: BLE001 - every failure is retryable transport
                last_error = exc
                if attempt + 1 < self.max_tries:
                    delay = 2.0**attempt
                    log.warning("provider call failed (%s); retrying in %.0fs", exc, delay)
                    time.sleep(delay)
        raise ProviderTransportError(str(last_error))
