import json
import random
import re
import sys
import threading

import pytest
import requests

from fake_endpoint import completion, response
from trace_repair.orchestrator import ProviderResponseError, ProviderTransportError, PromptSpec
from trace_repair.providers import (
    RemoteProvider,
    ReplayCacheMiss,
    ReplayEntry,
    ReplayProvider,
)

SPEC = PromptSpec(
    example_id="ex1",
    attempt_index=0,
    problem_text="2 + 2?",
    initial_reasoning="2 + 2 = 5\nFinal Answer: 5",
    diagnostic_hint="incorrect arithmetic",
    semantic_error="none",
    meta_error="arithmetic_error",
)


class TestReplayProvider:
    def test_round_trip_through_jsonl(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            json.dumps(
                {
                    "example_id": "ex1",
                    "attempt_index": 0,
                    "raw_output": "bad",
                    "retry_output": "good",
                }
            )
            + "\n"
        )
        provider = ReplayProvider.from_jsonl(path)
        assert provider.generate(SPEC, 768, 0.0) == "bad"
        import dataclasses

        retry = dataclasses.replace(SPEC, retry_of="bad")
        assert provider.generate(retry, 512, 0.0) == "good"

    def test_miss_is_fatal(self):
        provider = ReplayProvider({})
        with pytest.raises(ReplayCacheMiss):
            provider.generate(SPEC, 768, 0.0)

    def test_missing_retry_output_is_fatal(self):
        import dataclasses

        provider = ReplayProvider({("ex1", 0): ReplayEntry("only raw")})
        retry = dataclasses.replace(SPEC, retry_of="only raw")
        with pytest.raises(ReplayCacheMiss):
            provider.generate(retry, 512, 0.0)

    @pytest.mark.parametrize(
        "second_row, message",
        [
            ({"example_id": "ex1", "attempt_index": 0, "raw_output": "other"}, "duplicate row"),
            ({"example_id": "ex1", "attempt_index": "0", "raw_output": "other"}, "duplicate row"),
            ({"attempt_index": 1, "raw_output": "x"}, "missing field 'example_id'"),
            ({"example_id": "ex1", "raw_output": "x"}, "missing field 'attempt_index'"),
            ({"example_id": "ex1", "attempt_index": 1}, "missing field 'raw_output'"),
        ],
    )
    def test_malformed_or_ambiguous_cache_is_refused(self, tmp_path, second_row, message):
        path = tmp_path / "cache.jsonl"
        first = {"example_id": "ex1", "attempt_index": 0, "raw_output": "first"}
        path.write_text(f"{json.dumps(first)}\n\n{json.dumps(second_row)}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
            ReplayProvider.from_jsonl(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "not JSON (Expecting value"),
            ("[1, 2]", "row is a JSON list, not an object"),
            ('"text"', "row is a JSON str, not an object"),
            (
                '{"example_id": "ex1", "attempt_index": "first", "raw_output": "x"}',
                "attempt_index 'first' is not an integer",
            ),
            (
                '{"example_id": "ex1", "attempt_index": null, "raw_output": "x"}',
                "attempt_index None is not an integer",
            ),
            (
                '{"example_id": "ex1", "attempt_index": 1.5, "raw_output": "x"}',
                "attempt_index 1.5 is not an integer",
            ),
            (
                '{"example_id": "ex1", "attempt_index": true, "raw_output": "x"}',
                "attempt_index True is not an integer",
            ),
        ],
    )
    def test_unreadable_row_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "cache.jsonl"
        first = {"example_id": "ex1", "attempt_index": 0, "raw_output": "first"}
        path.write_text(f"{json.dumps(first)}\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            ReplayProvider.from_jsonl(path)

    def test_retry_is_checked_against_its_base_prompt(self):
        import dataclasses

        provider = ReplayProvider({("ex1", 0): ReplayEntry("bad", "good", SPEC.prompt_hash())})
        assert provider.generate(dataclasses.replace(SPEC, retry_of="bad"), 512, 0.0) == "good"
        other = dataclasses.replace(SPEC, problem_text="3 + 3?", retry_of="bad")
        with pytest.raises(ReplayCacheMiss, match="another prompt"):
            provider.generate(other, 512, 0.0)


class _FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            raise RuntimeError(f"HTTP {self.status_code}")

    def json(self):
        return self._payload


class TestRemoteProvider:
    def test_requires_endpoint_config(self, monkeypatch):
        monkeypatch.delenv("LLM_REPAIR_BASE_URL", raising=False)
        monkeypatch.delenv("LLM_REPAIR_MODEL", raising=False)
        with pytest.raises(ValueError):
            RemoteProvider()

    def test_request_payload(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, payload=json, headers=headers, timeout=timeout)
            return _FakeResponse(
                {"choices": [{"message": {"content": '{"steps": [], "final_answer": "4"}'}}]}
            )

        provider = RemoteProvider(base_url="http://llm.local/v1", model="solver", api_key="k")
        monkeypatch.setattr(provider.session(), "post", fake_post)
        output = provider.generate(SPEC, 768, 0.0)
        assert output == '{"steps": [], "final_answer": "4"}'
        assert seen["url"] == "http://llm.local/v1/chat/completions"
        assert seen["payload"]["temperature"] == 0.0
        assert seen["payload"]["max_tokens"] == 768
        assert seen["payload"]["model"] == "solver"
        assert seen["payload"]["messages"][0]["role"] == "system"
        assert "Return only valid JSON" in seen["payload"]["messages"][0]["content"]
        assert seen["headers"]["Authorization"] == "Bearer k"
        assert seen["timeout"] == 120.0

    def test_retries_then_fails_loudly(self, monkeypatch):
        calls = []

        def flaky_post(url, **kwargs):
            calls.append(url)
            raise OSError("connection refused")

        provider = RemoteProvider(base_url="http://llm.local/v1", model="solver")
        monkeypatch.setattr(provider.session(), "post", flaky_post)
        monkeypatch.setattr("time.sleep", lambda seconds: None)
        with pytest.raises(ProviderTransportError):
            provider.generate(SPEC, 768, 0.0)
        assert len(calls) == 3


URL = "http://llm.local/v1"


class TestRemoteRetries:
    """Which failures are retried, and after how long."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr("time.sleep", slept.append)
        return slept

    def _serve(self, monkeypatch, replies, **kwargs):
        """A provider whose session answers with ``replies`` in turn; returns (provider, calls)."""
        provider = RemoteProvider(base_url=URL, model="solver", **kwargs)
        calls = []

        def post(url, **_):
            reply = replies[len(calls)]
            calls.append(url)
            if isinstance(reply, Exception):
                raise reply
            reply.url = url
            return reply

        monkeypatch.setattr(provider.session(), "post", post)
        return provider, calls

    def test_503_retry_after_zero_retries_at_once(self, monkeypatch, sleeps):
        provider, calls = self._serve(
            monkeypatch, [response(503, {}, headers={"Retry-After": "0"}), completion("ok")]
        )
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert len(calls) == 2
        assert sleeps == [0.0]

    def test_429_sleeps_as_long_as_retry_after_says(self, monkeypatch, sleeps):
        provider, calls = self._serve(
            monkeypatch, [response(429, {}, headers={"Retry-After": "2"}), completion("ok")]
        )
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert sleeps == [2.0]

    @pytest.mark.parametrize("status", [408, 500, 502, 504])
    def test_timeouts_and_server_errors_are_retried(self, monkeypatch, sleeps, status):
        provider, calls = self._serve(monkeypatch, [response(status, {}), completion("ok")])
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert len(calls) == 2 and len(sleeps) == 1

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_other_client_errors_fail_at_once(self, monkeypatch, sleeps, status):
        provider, calls = self._serve(monkeypatch, [response(status, {"error": "no"})] * 3)
        with pytest.raises(ProviderTransportError, match=f"^{status} Client Error"):
            provider.generate(SPEC, 768, 0.0)
        assert len(calls) == 1
        assert sleeps == []

    @pytest.mark.parametrize(
        "error", [requests.ConnectionError("refused"), requests.Timeout("read timed out")]
    )
    def test_connection_errors_and_timeouts_are_retried(self, monkeypatch, sleeps, error):
        provider, calls = self._serve(monkeypatch, [error] * 3)
        with pytest.raises(ProviderTransportError, match=str(error)):
            provider.generate(SPEC, 768, 0.0)
        assert len(calls) == 3 and len(sleeps) == 2

    def test_a_bad_url_is_not_retried(self, monkeypatch, sleeps):
        provider, calls = self._serve(monkeypatch, [requests.exceptions.InvalidURL("no host")] * 3)
        with pytest.raises(ProviderTransportError, match="no host"):
            provider.generate(SPEC, 768, 0.0)
        assert len(calls) == 1 and sleeps == []

    def test_exhausted_retries_keep_the_status_message(self, monkeypatch, sleeps):
        provider, calls = self._serve(
            monkeypatch, [response(503, {}, headers={"Retry-After": "0"})] * 3
        )
        with pytest.raises(ProviderTransportError) as raised:
            provider.generate(SPEC, 768, 0.0)
        assert str(raised.value) == (
            f"503 Server Error: Service Unavailable for url: {URL}/chat/completions"
        )
        assert len(calls) == 3 and sleeps == [0.0, 0.0]

    def test_backoff_without_retry_after_is_full_jitter(self, monkeypatch, sleeps):
        state = random.getstate()
        provider, calls = self._serve(monkeypatch, [response(503, {})] * 3)
        with pytest.raises(ProviderTransportError):
            provider.generate(SPEC, 768, 0.0)
        assert len(sleeps) == 2
        assert 0.0 <= sleeps[0] <= 1.0 and 0.0 <= sleeps[1] <= 2.0
        for attempt in range(4):
            delays = [provider.backoff(attempt) for _ in range(200)]
            assert all(0.0 <= delay <= 2.0**attempt for delay in delays)
            assert max(delays) > 0.5 * 2.0**attempt
        assert random.getstate() == state

    @pytest.mark.parametrize("value", ["soon", "nan", "Wed, 21 Oct 2015 07:28:00 GMT"])
    def test_unreadable_retry_after_falls_back_to_jitter(self, monkeypatch, sleeps, value):
        provider, calls = self._serve(
            monkeypatch, [response(503, {}, headers={"Retry-After": value}), completion("ok")]
        )
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert 0.0 <= sleeps[0] <= 1.0

    @pytest.mark.parametrize(
        "reply",
        [
            response(body=b"<html>bad gateway</html>"),
            response(payload={"choices": []}),
            response(payload={"choices": [{"message": {"content": None}}]}),
        ],
    )
    def test_malformed_body_is_a_response_error_without_retry(self, monkeypatch, sleeps, reply):
        provider, calls = self._serve(monkeypatch, [reply] * 3)
        with pytest.raises(ProviderResponseError, match="^malformed response body"):
            provider.generate(SPEC, 768, 0.0)
        assert len(calls) == 1 and sleeps == []


class TestRemoteSession:
    def test_one_pooled_session_until_closed(self):
        provider = RemoteProvider(base_url=URL, model="solver", concurrency=3)
        session = provider.session()
        assert provider.session() is session
        adapter = session.get_adapter(URL)
        assert adapter._pool_maxsize == 3 and adapter._pool_block
        provider.close()
        assert provider.session() is not session
        provider.close()

    def test_threads_share_one_session(self):
        providers = [RemoteProvider(base_url=URL, model="solver", concurrency=4) for _ in range(20)]
        sessions = [[] for _ in providers]
        barrier = threading.Barrier(8)

        def take():
            for provider, seen in zip(providers, sessions):
                barrier.wait(timeout=10)
                seen.append(provider.session())

        threads = [threading.Thread(target=take) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for provider, seen in zip(providers, sessions):
            assert len(seen) == 8 and all(session is seen[0] for session in seen)
            provider.close()

    def test_default_concurrency_and_its_floor(self):
        assert RemoteProvider(base_url=URL, model="solver").concurrency == 2
        with pytest.raises(ValueError):
            RemoteProvider(base_url=URL, model="solver", concurrency=0)
