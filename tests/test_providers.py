import errno
import json
import os
import random
import re
import sys
import threading

import pytest

from fake_endpoint import (
    DROP,
    Reply,
    ScriptedEndpoint,
    clear_proxies,
    closed_port,
    completion,
    response,
)
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
            (
                '{"example_id": "ex1", "attempt_index": 1, "raw_output": null}',
                "raw_output None is not a string",
            ),
            (
                '{"example_id": "ex1", "attempt_index": 1, "raw_output": 5}',
                "raw_output 5 is not a string",
            ),
            (
                '{"example_id": "ex1", "attempt_index": 1, "raw_output": "x", "retry_output": 5}',
                "retry_output 5 is not a string",
            ),
            (
                '{"example_id": "ex1", "attempt_index": 1, "raw_output": "x", "prompt_hash": []}',
                "prompt_hash [] is not a string",
            ),
            (
                '{"example_id": {"k": 1}, "attempt_index": 1, "raw_output": "x"}',
                "'example_id' is a JSON dict, not a string or an int or a float",
            ),
            (
                '{"example_id": ["ex1"], "attempt_index": 1, "raw_output": "x"}',
                "'example_id' is a JSON list, not a string or an int or a float",
            ),
            (
                '{"example_id": null, "attempt_index": 1, "raw_output": "x"}',
                "'example_id' is a JSON NoneType, not a string or an int or a float",
            ),
            (
                '{"example_id": true, "attempt_index": 1, "raw_output": "x"}',
                "'example_id' is a JSON bool, not a string or an int or a float",
            ),
        ],
    )
    def test_unreadable_row_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "cache.jsonl"
        first = {"example_id": "ex1", "attempt_index": 0, "raw_output": "first"}
        path.write_text(f"{json.dumps(first)}\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            ReplayProvider.from_jsonl(path)

    @pytest.mark.parametrize(
        "pin, message",
        [
            ({}, "missing field 'prompt_hash'"),
            ({"prompt_hash": None}, "'prompt_hash' is a JSON NoneType, not a string"),
            ({"prompt_hash": ""}, "'prompt_hash' is empty"),
        ],
    )
    def test_a_cache_in_front_of_a_provider_refuses_an_unpinned_row_at_its_line(
        self, tmp_path, pin, message
    ):
        """Served in front of a live provider, an unpinned row would answer
        any prompt; the reader names the first such row in its one pass,
        before a bad line further on. Without a fallback it is accepted."""
        path = tmp_path / "cache.jsonl"
        pinned = {"example_id": "ex1", "attempt_index": 0, "raw_output": "x", "prompt_hash": "ab"}
        unpinned = {"example_id": "ex1", "attempt_index": 1, "raw_output": "y"}
        path.write_text(f"{json.dumps(pinned)}\n{json.dumps({**unpinned, **pin})}\n")
        entry = ReplayProvider.from_jsonl(path).entries[("ex1", 1)]
        assert entry.prompt_hash == pin.get("prompt_hash")
        with open(path, "a") as handle:
            handle.write("not json\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            ReplayProvider.from_jsonl(path, fallback=ReplayProvider({}))

    def test_an_integer_and_a_text_id_name_the_same_example(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        rows = [
            {"example_id": 7, "attempt_index": 0, "raw_output": "int"},
            {"example_id": "7", "attempt_index": 0, "raw_output": "text"},
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: duplicate row for example '7'")):
            ReplayProvider.from_jsonl(path)
        path.write_text(json.dumps(rows[0]) + "\n")
        assert ReplayProvider.from_jsonl(path).entries == {("7", 0): ReplayEntry("int")}

    def test_retry_is_checked_against_its_base_prompt(self, remote):
        import dataclasses

        provider = ReplayProvider({("ex1", 0): ReplayEntry("bad", "good", SPEC.prompt_hash())})
        assert provider.generate(dataclasses.replace(SPEC, retry_of="bad"), 512, 0.0) == "good"
        other = dataclasses.replace(SPEC, problem_text="3 + 3?", retry_of="bad")
        with pytest.raises(ReplayCacheMiss, match="another prompt"):
            provider.generate(other, 512, 0.0)

    @pytest.mark.parametrize(
        "error, first, retry",
        [
            ("transport: 503 Server Error", ProviderTransportError, None),
            ("parse_failure: malformed response body", ProviderResponseError, None),
            ("transport on retry: timed out", None, ProviderTransportError),
            ("parse_failure on retry: malformed response body", None, ProviderResponseError),
            ("parse_failure", None, None),
        ],
    )
    def test_a_recorded_error_is_raised_again_at_its_call(self, error, first, retry):
        import dataclasses

        from trace_repair.orchestrator import _generate

        provider = ReplayProvider({("ex1", 0): ReplayEntry("bad", "worse", error=error)})
        retry_spec = dataclasses.replace(SPEC, retry_of="bad")
        for spec, expected, output in ((SPEC, first, "bad"), (retry_spec, retry, "worse")):
            if expected is None:
                assert provider.generate(spec, 512, 0.0) == output
            else:
                with pytest.raises(expected):
                    provider.generate(spec, 512, 0.0)
                # The attempt records the same string again.
                assert _generate(provider, spec, 512, 0.0) == (None, error)

    def test_a_fallback_serves_the_misses(self):
        closed = []

        class Fallback:
            identity, concurrency = "remote:fake", 4

            def generate(self, prompt, max_tokens, temperature):
                return f"asked for attempt {prompt.attempt_index}"

            def close(self):
                closed.append(True)

        import dataclasses

        layer = ReplayProvider({("ex1", 0): ReplayEntry("recorded")}, fallback=Fallback())
        assert (layer.identity, layer.concurrency) == ("remote:fake", 4)
        assert layer.generate(SPEC, 512, 0.0) == "recorded"
        assert layer.generate(dataclasses.replace(SPEC, attempt_index=1), 512, 0.0) == (
            "asked for attempt 1"
        )
        layer.close()
        assert closed == [True]
        assert (ReplayProvider.identity, ReplayProvider.concurrency) == ("replay", 1)


COMPLETION = '{"steps": [], "final_answer": "4"}'
URL = "http://llm.local/v1"


@pytest.fixture
def endpoint(monkeypatch):
    clear_proxies(monkeypatch)
    with ScriptedEndpoint() as served:
        yield served


@pytest.fixture
def remote(endpoint):
    """Builds providers for the endpoint, closed when the test ends."""
    made = []

    def make(**kwargs):
        kwargs.setdefault("base_url", endpoint.base_url)
        made.append(RemoteProvider(model="solver", **kwargs))
        return made[-1]

    yield make
    for provider in made:
        provider.close()


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    return slept


class TestRemoteProvider:
    def test_requires_endpoint_config(self, monkeypatch):
        monkeypatch.delenv("LLM_REPAIR_BASE_URL", raising=False)
        monkeypatch.delenv("LLM_REPAIR_MODEL", raising=False)
        with pytest.raises(ValueError):
            RemoteProvider()

    def test_request_payload(self, remote, endpoint):
        endpoint.script = [completion(COMPLETION)]
        provider = remote(api_key="k")
        output = provider.generate(SPEC, 768, 0.0)
        assert output == COMPLETION
        [(target, headers, body)] = endpoint.received
        payload = json.loads(body)
        assert target == "/v1/chat/completions"
        assert provider.url == f"{endpoint.base_url}/chat/completions"
        assert payload["temperature"] == 0.0
        assert payload["max_tokens"] == 768
        assert payload["model"] == "solver"
        assert payload["messages"][0]["role"] == "system"
        assert "Return only valid JSON" in payload["messages"][0]["content"]
        assert headers["Authorization"] == "Bearer k"
        assert headers["Content-Type"] == "application/json"
        assert provider.connection().timeout == 120.0

    def test_retries_then_fails_loudly(self, remote, endpoint, sleeps):
        # The server closes each connection without a reply.
        endpoint.script = [DROP] * 3
        provider = remote()
        with pytest.raises(ProviderTransportError, match="closed connection without response"):
            provider.generate(SPEC, 768, 0.0)
        assert len(endpoint.received) == 3
        assert len(sleeps) == 2

    @pytest.mark.parametrize(
        "base_url", ["llm.local/v1", "ftp://llm.local/v1", "http:///v1", "http://llm.local:port/v1"]
    )
    def test_a_base_url_without_http_scheme_host_or_port_is_refused_at_start(self, base_url):
        with pytest.raises(ValueError, match="^base_url"):
            RemoteProvider(base_url=base_url, model="solver")


class TestRemoteRetries:
    """Which failures are retried, and after how long."""

    @pytest.fixture
    def serve(self, endpoint, remote):
        def serve(replies, **kwargs):
            """A provider that the endpoint answers with ``replies`` in turn;
            returns (provider, the requests the endpoint received)."""
            endpoint.script = replies
            return remote(**kwargs), endpoint.received

        return serve

    def test_503_retry_after_zero_retries_at_once(self, serve, sleeps):
        provider, calls = serve(
            [response(503, {}, headers={"Retry-After": "0"}), completion("ok")]
        )
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert len(calls) == 2
        assert sleeps == [0.0]

    def test_429_sleeps_as_long_as_retry_after_says(self, serve, sleeps):
        provider, calls = serve(
            [response(429, {}, headers={"Retry-After": "2"}), completion("ok")]
        )
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert sleeps == [2.0]

    @pytest.mark.parametrize("status", [408, 500, 502, 504])
    def test_timeouts_and_server_errors_are_retried(self, serve, sleeps, status):
        provider, calls = serve([response(status, {}), completion("ok")])
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert len(calls) == 2 and len(sleeps) == 1

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_other_client_errors_fail_at_once(self, serve, sleeps, status):
        provider, calls = serve([response(status, {"error": "no"})] * 3)
        with pytest.raises(ProviderTransportError, match=f"^{status} Client Error"):
            provider.generate(SPEC, 768, 0.0)
        assert len(calls) == 1
        assert sleeps == []

    def test_a_redirect_fails_at_once(self, serve, sleeps):
        moved = {"Location": "https://llm.local/v1/chat/completions"}
        provider, calls = serve([response(301, body=b"<html>Moved</html>", headers=moved)] * 3)
        with pytest.raises(ProviderTransportError, match="^HTTP 301$"):
            provider.generate(SPEC, 768, 0.0)
        assert len(calls) == 1 and sleeps == []

    @pytest.mark.parametrize(
        "error",
        [
            ConnectionRefusedError(errno.ECONNREFUSED, os.strerror(errno.ECONNREFUSED)),
            TimeoutError("timed out"),
        ],
    )
    def test_connection_errors_and_timeouts_are_retried(self, serve, remote, sleeps, error):
        if isinstance(error, ConnectionRefusedError):
            provider = remote(base_url=f"http://127.0.0.1:{closed_port()}/v1")
            calls = []
            post = provider.post
            provider.post = lambda body: calls.append(body) or post(body)
        else:
            # Each reply comes after the provider's read timeout.
            provider, calls = serve([completion("late", delay_s=1.0)] * 3, timeout=0.1)
        with pytest.raises(ProviderTransportError, match=f"^{re.escape(str(error))}$"):
            provider.generate(SPEC, 768, 0.0)
        assert len(calls) == 3 and len(sleeps) == 2

    @pytest.mark.parametrize(
        "raw",
        [
            b"garbage\r\n\r\n",
            b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"choices"',
        ],
        ids=["bad status line", "cut-short body"],
    )
    def test_broken_replies_are_retried(self, serve, endpoint, sleeps, raw):
        provider, calls = serve([Reply(raw=raw), completion("ok")])
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert len(calls) == 2 and len(sleeps) == 1
        assert endpoint.connections == 2

    def test_a_bad_url_is_not_retried(self, serve, endpoint, sleeps):
        # It is refused when the provider is built, before any request.
        with pytest.raises(ValueError, match="is not an http:// or https:// URL with a host"):
            serve([completion("ok")] * 3, base_url="127.0.0.1/v1")
        assert endpoint.received == [] and sleeps == []

    def test_exhausted_retries_keep_the_status_message(self, serve, endpoint, sleeps):
        provider, calls = serve(
            [response(503, {}, headers={"Retry-After": "0"})] * 3
        )
        with pytest.raises(ProviderTransportError) as raised:
            provider.generate(SPEC, 768, 0.0)
        assert str(raised.value) == (
            f"503 Server Error: Service Unavailable for url: {endpoint.base_url}/chat/completions"
        )
        assert len(calls) == 3 and sleeps == [0.0, 0.0]

    def test_backoff_without_retry_after_is_full_jitter(self, serve, sleeps):
        state = random.getstate()
        provider, calls = serve([response(503, {})] * 3)
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
    def test_unreadable_retry_after_falls_back_to_jitter(self, serve, sleeps, value):
        provider, calls = serve(
            [response(503, {}, headers={"Retry-After": value}), completion("ok")]
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
    def test_malformed_body_is_a_response_error_without_retry(self, serve, sleeps, reply):
        provider, calls = serve([reply] * 3)
        with pytest.raises(ProviderResponseError, match="^malformed response body"):
            provider.generate(SPEC, 768, 0.0)
        assert len(calls) == 1 and sleeps == []


class TestRemoteSession:
    """One provider's connections, counted at the server."""

    def test_threads_share_at_most_k_connections_reused_across_calls(self, remote, endpoint):
        endpoint.script = [completion("ok", delay_s=0.005)] * 24
        provider = remote(concurrency=8)
        barrier = threading.Barrier(8)
        outputs, held = [], []

        def work():
            barrier.wait(timeout=10)
            outputs.extend(provider.generate(SPEC, 768, 0.0) for _ in range(3))
            held.append(provider.connection())

        threads = [threading.Thread(target=work) for _ in range(8)]
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
        assert outputs == ["ok"] * 24
        assert len(endpoint.received) == 24 and endpoint.connections == 8
        assert len({id(connection) for connection in held}) == 8
        provider.close()
        assert all(connection.sock is None for connection in held)

    def test_new_connections_after_close(self, remote, endpoint):
        endpoint.script = [completion("ok")] * 3
        provider = remote()
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert endpoint.connections == 1
        first = provider.connection()
        provider.close()
        assert first.sock is None
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert provider.connection() is not first
        assert len(endpoint.received) == 3 and endpoint.connections == 2

    def test_a_connection_dropped_while_idle_is_reopened_without_a_retry(
        self, remote, endpoint, sleeps
    ):
        endpoint.script = [completion("first"), completion("second")]
        provider = remote()
        assert provider.generate(SPEC, 768, 0.0) == "first"
        endpoint.drop_connections()
        assert provider.generate(SPEC, 768, 0.0) == "second"
        assert len(endpoint.received) == 2 and endpoint.connections == 2
        assert sleeps == []

    def test_a_connection_the_server_closed_after_an_error_is_reopened(
        self, remote, endpoint, sleeps
    ):
        endpoint.script = [response(503, {}, headers={"Retry-After": "0"}), completion("ok")] * 2
        provider = remote()
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert len(endpoint.received) == 4 and endpoint.connections == 3
        assert sleeps == [0.0, 0.0]

    def test_http_goes_through_the_environment_proxy_in_absolute_form(
        self, remote, endpoint, monkeypatch
    ):
        endpoint.script = [completion("ok")]
        monkeypatch.setenv("http_proxy", endpoint.base_url.removesuffix("/v1"))
        provider = remote(base_url="http://llm.invalid:8080/v1")
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        [(target, headers, _)] = endpoint.received
        assert target == "http://llm.invalid:8080/v1/chat/completions"
        assert headers["Host"] == "llm.invalid:8080"

    def test_https_goes_through_the_environment_proxy_in_a_tunnel(
        self, remote, endpoint, monkeypatch, sleeps
    ):
        endpoint.script = [response(407, {})] * 3
        proxy = endpoint.base_url.removesuffix("/v1").replace("//", "//user:pa%20ss@")
        monkeypatch.setenv("https_proxy", proxy)
        provider = remote(base_url="https://llm.invalid/v1")
        with pytest.raises(
            ProviderTransportError, match="^Tunnel connection failed: 407 Proxy Authentication"
        ):
            provider.generate(SPEC, 768, 0.0)
        assert [target for target, _, _ in endpoint.received] == ["llm.invalid:443"] * 3
        # base64 of "user:pa ss"
        assert endpoint.received[0][1]["Proxy-Authorization"] == "Basic dXNlcjpwYSBzcw=="
        assert len(sleeps) == 2

    def test_no_proxy_sends_the_request_direct(self, remote, endpoint, monkeypatch):
        endpoint.script = [completion("ok")]
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{closed_port()}")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        provider = remote()
        assert provider.generate(SPEC, 768, 0.0) == "ok"
        assert [target for target, _, _ in endpoint.received] == ["/v1/chat/completions"]

    def test_default_concurrency_and_its_floor(self):
        assert RemoteProvider(base_url=URL, model="solver").concurrency == 2
        with pytest.raises(ValueError):
            RemoteProvider(base_url=URL, model="solver", concurrency=0)

