"""Examples in flight through the remote provider: same bytes, less waiting.

The synthetic dataset is served by a loopback HTTP endpoint with a fixed
latency and content-keyed faults, through ``RemoteProvider`` and its
connections, at one, four and eight examples in flight.
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from fake_endpoint import FakeEndpoint
from synthetic_run import EXPECTED_ATTEMPTS, GROUP_SAFE_FIX, GROUP_UNSAFE, write_synthetic_run
from trace_repair.pipeline import (
    MODE_GUARDED,
    MODE_REPLAY,
    POOL_WINDOW,
    PROGRESS_FILE,
    ProviderOutageError,
    RunManifest,
    _in_order,
    run_pipeline,
)
from trace_repair.providers import ReplayProvider

ARTIFACTS = ("predictions", "candidates", "risk_log", "risk_summary", "report_json", "report_text")
LATENCY_S = 0.03
# The fifth example that calls the provider; the first twenty are never triggered.
FIFTH_REPAIRED = 24


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    directory = tmp_path_factory.mktemp("synthetic")
    return write_synthetic_run(directory)


@pytest.fixture
def endpoint(synthetic, monkeypatch):
    with FakeEndpoint(*synthetic, latency_s=LATENCY_S) as served:
        # A 503 with Retry-After: 0 on the first request of these, and a
        # request that fails on every try, so a transport error is recorded.
        served.transient = {
            (GROUP_SAFE_FIX[1], 0, False),
            (GROUP_UNSAFE[2], 1, False),
            (GROUP_UNSAFE[4], 2, False),
        }
        served.failing = {(GROUP_UNSAFE[0], 0, False)}
        served.install(monkeypatch)
        yield served


def _run(synthetic, output_dir: Path, concurrency: int, **kwargs):
    manifest = RunManifest(
        mode=MODE_GUARDED,
        dataset_path=Path(synthetic[0]),
        output_dir=output_dir,
        provider="remote",
        concurrency=concurrency,
        **kwargs,
    )
    start = time.perf_counter()
    result = run_pipeline(manifest)
    return result, time.perf_counter() - start


def _bytes(result, output_dir: Path) -> dict:
    out = {key: result.paths[key].read_bytes() for key in ARTIFACTS}
    out["progress"] = (output_dir / PROGRESS_FILE).read_bytes()
    return out


def _attempts(lines: list[bytes]) -> set[tuple[str, int]]:
    """(example id, attempt index) of each checkpoint line."""
    return {(row["example_id"], row["attempt_index"]) for row in map(json.loads, lines)}


def test_artifacts_match_and_wait_overlaps(synthetic, endpoint, tmp_path):
    serial, serial_s = _run(synthetic, tmp_path / "k1", 1)
    endpoint.requests.clear()
    connections, faults = endpoint.connections, endpoint.faults
    pooled, pooled_s = _run(synthetic, tmp_path / "k4", 4)
    # One connection per pool thread, plus one after each 503, which closes its own.
    assert endpoint.connections - connections <= 4 + endpoint.faults - faults
    assert _bytes(pooled, tmp_path / "k4") == _bytes(serial, tmp_path / "k1")
    candidates = serial.paths["candidates"].read_text()
    assert candidates.count('"error": "transport: 503 Server Error') == 1
    assert pooled_s <= 0.5 * serial_s, (serial_s, pooled_s)


def test_more_workers_than_cores_with_frequent_switches(synthetic, endpoint, tmp_path):
    endpoint.latency_s = 0.0
    serial, _ = _run(synthetic, tmp_path / "k1", 1)
    endpoint.requests.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled, _ = _run(synthetic, tmp_path / "k8", 8)
    finally:
        sys.setswitchinterval(interval)
    assert _bytes(pooled, tmp_path / "k8") == _bytes(serial, tmp_path / "k1")


def test_outage_aborts_at_the_same_example_and_resumes(synthetic, endpoint, tmp_path):
    endpoint.down_from = FIFTH_REPAIRED
    progress = {}
    for concurrency in (1, 4):
        endpoint.requests.clear()
        with pytest.raises(ProviderOutageError):
            _run(synthetic, tmp_path / f"k{concurrency}", concurrency)
        progress[concurrency] = (tmp_path / f"k{concurrency}" / PROGRESS_FILE).read_bytes()
    assert progress[4] == progress[1]
    # The attempts of the four examples repaired before the fifth, each accepted at once.
    assert _attempts(progress[1].splitlines()) == {
        (f"ex{index:03d}", 0) for index in range(20, FIFTH_REPAIRED)
    }

    endpoint.down_from = None
    resumed, _ = _run(synthetic, tmp_path / "k4", 4, resume=True)
    fresh, _ = _run(synthetic, tmp_path / "fresh", 4)
    assert _bytes(resumed, tmp_path / "k4") == _bytes(fresh, tmp_path / "fresh")


def test_an_outage_keeps_the_previous_artifacts(synthetic, endpoint, tmp_path):
    endpoint.latency_s = 0.0
    output_dir = tmp_path / "run"
    first, _ = _run(synthetic, output_dir, 4)
    before = {key: first.paths[key].read_bytes() for key in ARTIFACTS}
    endpoint.down_from = FIFTH_REPAIRED
    with pytest.raises(ProviderOutageError):
        _run(synthetic, output_dir, 4)
    assert {key: first.paths[key].read_bytes() for key in ARTIFACTS} == before
    assert not list(output_dir.glob("*.tmp"))


def test_resume_after_a_cut_at_every_line_asks_only_for_what_it_lacks(
    synthetic, endpoint, tmp_path
):
    """A resume serves each checkpointed attempt's outputs and recorded errors
    itself, so it matches the uninterrupted run even once the faults are gone,
    and asks the endpoint only for the attempts the checkpoint lacks."""
    endpoint.latency_s = 0.0
    fresh, _ = _run(synthetic, tmp_path / "fresh", 4)
    expected = _bytes(fresh, tmp_path / "fresh")
    lines = expected["progress"].splitlines(keepends=True)
    assert len(lines) == EXPECTED_ATTEMPTS
    (failing,) = endpoint.failing
    failed_line = next(i for i, line in enumerate(lines) if f'"{failing[0]}"'.encode() in line)
    endpoint.transient = set()
    attempts = _attempts(lines)
    for cut in range(len(lines) + 1):
        # The recorded transport error replays from the checkpoint; an example
        # not yet checkpointed meets the same fault again.
        endpoint.failing = set() if cut > failed_line else {failing}
        endpoint.requests.clear()
        output_dir = tmp_path / f"cut{cut}"
        output_dir.mkdir()
        (output_dir / PROGRESS_FILE).write_bytes(b"".join(lines[:cut]))
        resumed, _ = _run(synthetic, output_dir, 4, resume=True)
        assert _bytes(resumed, output_dir) == expected, cut
        asked = {key[:2] for key in endpoint.requests}
        assert asked == attempts - _attempts(lines[:cut]), cut


def test_a_recorded_transport_error_replays_from_the_cache(synthetic, endpoint, tmp_path):
    serial, _ = _run(synthetic, tmp_path / "k1", 1)
    candidates = serial.paths["candidates"]
    assert '"error": "transport: 503 Server Error' in candidates.read_text()
    replayed = run_pipeline(
        RunManifest(
            mode=MODE_REPLAY,
            dataset_path=Path(synthetic[0]),
            output_dir=tmp_path / "replay",
            cache_path=candidates,
        )
    )
    assert _bytes(replayed, tmp_path / "replay") == _bytes(serial, tmp_path / "k1")


def test_malformed_body_is_one_parse_failure_not_an_outage(synthetic, endpoint, tmp_path):
    endpoint.malformed = True
    endpoint.latency_s = 0.0
    endpoint.transient = endpoint.failing = set()
    # Every attempt of thirty examples in a row fails, and the run completes.
    result, _ = _run(synthetic, tmp_path / "out", 2)
    rows = result.paths["candidates"].read_text().splitlines()
    assert len(rows) == 30 * 3
    assert all('"error": "parse_failure: malformed response body' in row for row in rows)
    assert sum(endpoint.requests.values()) == len(rows)
    assert set(endpoint.requests.values()) == {1}


def test_a_free_thread_takes_the_next_item_while_the_head_waits():
    # Item 0 can finish only once item 2 has started, which needs the
    # thread that finished item 1 to move on past the waiting head.
    item_2_started = threading.Event()

    def process(item):
        if item == 2:
            item_2_started.set()
        if item == 0:
            assert item_2_started.wait(timeout=5), "item 2 waited for item 0"
        return item

    assert list(_in_order(process, range(4), 2)) == [0, 1, 2, 3]


def test_the_pool_is_given_a_bounded_window_of_items():
    # Item 0 waits until an item past the window has started, or a second;
    # a pool given every item at once starts that item and lets it through.
    started = []
    past_window = threading.Event()

    def process(item):
        started.append(item)
        if item == POOL_WINDOW:
            past_window.set()
        if item == 0:
            past_window.wait(timeout=1)
        return item

    outcomes = _in_order(process, range(10 * POOL_WINDOW), 2)
    try:
        assert next(outcomes) == 0
        assert len(started) <= POOL_WINDOW
    finally:
        outcomes.close()
    assert len(started) <= POOL_WINDOW


def test_replay_runs_inline(synthetic, tmp_path, monkeypatch):
    threads_before = threading.active_count()
    seen = set()
    generate = ReplayProvider.generate

    def recording(self, *args, **kwargs):
        seen.add((threading.current_thread() is threading.main_thread(), threading.active_count()))
        return generate(self, *args, **kwargs)

    monkeypatch.setattr(ReplayProvider, "generate", recording)
    dataset_path, cache_path = synthetic
    run_pipeline(
        RunManifest(
            mode=MODE_REPLAY,
            dataset_path=Path(dataset_path),
            output_dir=tmp_path / "out",
            cache_path=Path(cache_path),
        )
    )
    assert seen == {(True, threads_before)}


def test_import_loads_no_pool_and_no_http_client():
    import trace_repair

    code = (
        "import sys, trace_repair; "
        "print(sorted(m for m in ('concurrent.futures', 'http.client') if m in sys.modules))"
    )
    src = str(Path(trace_repair.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.stdout.strip() == "[]"


def test_concurrency_is_for_the_remote_provider_only(synthetic, tmp_path):
    dataset_path, cache_path = synthetic
    manifest = RunManifest(
        mode=MODE_REPLAY,
        dataset_path=Path(dataset_path),
        output_dir=tmp_path / "out",
        cache_path=Path(cache_path),
        concurrency=2,
    )
    with pytest.raises(ValueError, match="concurrency"):
        run_pipeline(manifest)
