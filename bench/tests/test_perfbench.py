"""Tests of the benchmark's own parts: generator, output check, stub, tracer."""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import check  # noqa: E402
import stub  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(tmp_path, workload):
    first = _files_after(workloads.write_workload, workload, 7, tmp_path / "a")
    again = _files_after(workloads.write_workload, workload, 7, tmp_path / "b")
    other = _files_after(workloads.write_workload, workload, 8, tmp_path / "c")
    assert first == again
    assert first["dataset.jsonl"] != other["dataset.jsonl"]
    texts = [json.loads(line)["problem_text"] for line in first["dataset.jsonl"].splitlines()]
    assert len(texts) == len(set(texts))


def _files_after(write, workload, seed, out):
    write(workload, seed, out)
    return _files(out)


def _small_run(tmp_path: Path, count: int = 24) -> tuple[dict, dict[str, bytes]]:
    """The first ``count`` repair_bestof3 examples, run through the pipeline."""
    from trace_repair.pipeline import MODE_REPLAY, RunManifest, run_pipeline

    inputs = tmp_path / "inputs"
    workloads.write_workload("repair_bestof3", 3, inputs)
    expected = json.loads((inputs / "expected.json").read_text())
    expected["examples"] = expected["examples"][:count]
    expected["spec"]["report"] = workloads.expected_report(expected["examples"])
    expected["spec"]["risk_summary"] = workloads.expected_risk_summary(expected["examples"])
    keep = {row["example_id"] for row in expected["examples"]}
    lines = (inputs / "dataset.jsonl").read_text().splitlines()
    (inputs / "dataset.jsonl").write_text(
        "".join(line + "\n" for line in lines if json.loads(line)["example_id"] in keep)
    )
    out = tmp_path / "out"
    run_pipeline(
        RunManifest(
            mode=MODE_REPLAY,
            dataset_path=inputs / "dataset.jsonl",
            output_dir=out,
            cache_path=inputs / "cache.jsonl",
        )
    )
    return expected, check.read_artifacts(out)


def test_output_check_passes_a_correct_run_and_catches_tampering(tmp_path):
    expected, artifacts = _small_run(tmp_path)
    ids = {row["example_id"] for row in expected["examples"]}
    failed, problems = check.check_expectations(artifacts, expected)
    assert failed == set() and problems == []
    assert check.diff_reference(artifacts, dict(artifacts), ids) == set()

    lines = artifacts["predictions.jsonl"].decode().splitlines()
    row = json.loads(lines[5])
    row["final_answer"] = row["final_answer"] + "1"
    lines[5] = json.dumps(row)
    tampered = dict(artifacts, **{"predictions.jsonl": ("\n".join(lines) + "\n").encode()})
    failed, problems = check.check_expectations(tampered, expected)
    assert failed == {row["example_id"]}
    assert check.diff_reference(tampered, artifacts, ids) == {row["example_id"]}

    report = json.loads(artifacts["report.json"])
    report["accepted"] += 1
    tampered = dict(artifacts, **{"report.json": (json.dumps(report) + "\n").encode()})
    assert check.check_expectations(tampered, expected)[0] == ids
    assert check.diff_reference(tampered, artifacts, ids) == ids

    summary = json.loads(artifacts["risk_summary.json"])
    summary["noop_rejections"] += 1
    tampered = dict(artifacts, **{"risk_summary.json": (json.dumps(summary) + "\n").encode()})
    assert check.check_expectations(tampered, expected)[0] == ids


def test_check_runs_counts_runs_that_differ_from_the_reference(tmp_path):
    expected, artifacts = _small_run(tmp_path)
    runs = []
    for index in range(3):
        run_dir = tmp_path / f"run{index}"
        run_dir.mkdir()
        for name, data in artifacts.items():
            (run_dir / name).write_bytes(data)
        runs.append(run_dir)
    assert check.check_runs(expected, runs) == (0, [])
    (runs[2] / "report.txt").write_text("tampered\n")
    failed, problems = check.check_runs(expected, runs)
    assert failed == len(expected["examples"]) and len(problems) == 1


def test_golden_check_reports_an_artifact_that_differs(monkeypatch):
    want = {name: f"{index:064x}" for index, name in enumerate(check.ARTIFACTS)}
    monkeypatch.setattr(check, "golden_digests", lambda workload: want)
    assert check.golden_problems("long_trace", dict(want)) == []
    problems = check.golden_problems("long_trace", dict(want, **{"report.txt": "0" * 64}))
    assert len(problems) == 1 and "report.txt" in problems[0]


def _post(url: str, problem: str, style: int, retry: bool) -> int:
    style_line = ["Use the diagnostic hint.", "Prioritize strict formatting.", "Solve from the original problem."][style]
    content = f"Rules:\n- Attempt style: {style_line}\n\nProblem: {problem}"
    if retry:
        content += "\n\nMalformed output: oops"
    body = json.dumps({"messages": [{"role": "user", "content": content}]}).encode()
    request = urllib.request.Request(f"{url}/v1/chat/completions", data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


def _serve_in_thread(state: stub.StubState, max_connections: int) -> tuple[int, Callable[[], None]]:
    """Serve from a background thread; returns (port, stop)."""
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    holder: dict = {}

    async def main() -> None:
        holder["server"] = await stub.StubServer(state, max_connections).start()
        holder["stop"] = asyncio.Event()
        ready.set()
        await holder["stop"].wait()
        holder["server"].close()

    thread = threading.Thread(target=loop.run_until_complete, args=(main(),), daemon=True)
    thread.start()
    ready.wait(timeout=10)

    def stop() -> None:
        loop.call_soon_threadsafe(holder["stop"].set)
        thread.join(timeout=10)
        loop.close()

    return holder["server"].sockets[0].getsockname()[1], stop


def _stats(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/stats?reset=1", timeout=10) as response:
        return json.load(response)


def test_stub_fault_set_does_not_depend_on_request_order():
    keys = [(f"Problem {index}", index % 3, bool(index % 2)) for index in range(12)]
    faults = keys[1::4]
    state = stub.StubState([[*key, "reply"] for key in keys], [list(key) for key in faults], 0.0)
    port, stop = _serve_in_thread(state, 2)
    url = f"http://127.0.0.1:{port}"
    try:
        failed_runs = []
        for order_seed in (1, 2):
            order = list(keys)
            random.Random(order_seed).shuffle(order)
            statuses = {key: _post(url, *key) for key in order}
            failed_runs.append({key for key, status in statuses.items() if status == 503})
            assert all(_post(url, *key) == 200 for key in faults)
            stats = _stats(url)
            assert stats["requests"] == len(keys) + len(faults)
            assert stats["faults"] == len(faults)
        assert failed_runs[0] == failed_runs[1] == set(faults)
    finally:
        stop()


def test_tracer_wraps_every_lookup_site_and_restores_them():
    from trace_repair import diagnostics, orchestrator, pipeline, risk_graph

    original = diagnostics.diagnose
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.diagnose is orchestrator.diagnose is diagnostics.diagnose
        assert pipeline.diagnose is not original
        assert diagnostics.check_equations is risk_graph.check_equations
        diagnostics.diagnose("Ann has 3 apples and buys 4 more.", "3 + 4 = 7\nFinal Answer: 7")
    finally:
        tracer.uninstall()
    assert pipeline.diagnose is orchestrator.diagnose is original
    by_id = {span.span_id: span for span in tracer.spans}
    (root,) = [span for span in tracer.spans if span.name == "diagnostics.diagnose"]
    assert root.parent_id is None and root.note == 2
    children = [span for span in tracer.spans if span.parent_id == root.span_id]
    assert {span.name for span in children} >= {"equations.check_equations", "risk_graph.semantic_graph_check"}
    assert root.self_s == pytest.approx(root.duration - sum(span.duration for span in children))
    assert all(by_id[span.parent_id].start <= span.start for span in tracer.spans if span.parent_id)


def test_at_reference_scales_cpu_time_and_keeps_waiting_time():
    slow = 2 * calibrate.REFERENCE_S
    assert calibrate.at_reference(2.0, 2.0, slow) == pytest.approx(1.0)
    assert calibrate.at_reference(5.0, 0.5, slow) == pytest.approx(4.75)
    assert calibrate.at_reference(1.0, 1.0, calibrate.REFERENCE_S) == pytest.approx(1.0)
    assert calibrate.gauge(passes=1) > 0
