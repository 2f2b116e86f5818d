"""Runs one generated workload through trace-repair and measures it.

Started by ``bench/run.py`` in a fresh interpreter, so that its peak
resident memory is the workload's own. The worker only runs the pipeline:
it reads the workload's ``spec.json``, never the expectations, and leaves
each run's output directory for ``bench/run.py`` to check after it exits.
The first run is an untimed reference run, which also fills caches and
lazy imports; ``--once`` stops after it.

Untraced mode times ``run_pipeline`` calls until ``--seconds`` have passed,
and gauges the machine's speed (``bench/calibrate.py``) around each of them.
Traced mode alternates untraced runs with runs driven through ``cli.main``
under the span tracer, and derives the per-layer metrics from the spans.
It prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import urllib.request
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from trace_repair import cli  # noqa: E402
from trace_repair.pipeline import MODE_GUARDED, MODE_REPLAY, RunManifest, run_pipeline  # noqa: E402
from trace_repair.providers import ReplayProvider  # noqa: E402
import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_REPS = 3

# What each workload is built to exercise, checked on the traced run.
INTENDED_MIX = {
    "preserve_short": ("policy.triggered_share", "<", 0.5),
    "repair_bestof3": ("orchestrator.attempts_per_triggered_example", ">=", 2.5),
    "long_trace": ("risk_graph.semantic_graph_check.wall_share", ">", 0.5),
    "remote_stub": ("providers.wait_share", ">", 0.5),
}

# ``ReplayProvider.generate`` calls; the remote workload counts requests at the stub.
REPLAY_CALLS = [0]


def _count_replay_calls() -> None:
    generate = ReplayProvider.generate

    @functools.wraps(generate)
    def counted(self, *args, **kwargs):
        REPLAY_CALLS[0] += 1
        return generate(self, *args, **kwargs)

    ReplayProvider.generate = counted


def _stub_stats(url: str | None) -> dict:
    if url is None:
        return {"requests": 0, "connections": 0, "faults": 0}
    with urllib.request.urlopen(f"{url}/stats?reset=1", timeout=10) as response:
        return json.load(response)


class Workload:
    """One generated workload and the output directories of its runs."""

    def __init__(self, inputs: Path, work: Path):
        with open(inputs / "spec.json", encoding="utf-8") as handle:
            self.spec = json.load(handle)
        self.inputs = inputs
        self.work = work
        self.remote = self.spec["provider"] == "remote"
        self.mode = MODE_GUARDED if self.remote else MODE_REPLAY
        self.run_dirs: list[Path] = []
        self.raised = 0
        self.problems: list[str] = []
        self.cpu_seconds: list[float] = []
        self._reps = 0

    def _out(self) -> Path:
        self._reps += 1
        return self.work / f"run{self._reps}"

    def _manifest(self, out: Path):
        return RunManifest(
            mode=self.mode,
            dataset_path=self.inputs / "dataset.jsonl",
            output_dir=out,
            provider=self.spec["provider"],
            cache_path=None if self.remote else self.inputs / "cache.jsonl",
        )

    def cli_argv(self, out: Path) -> list[str]:
        argv = ["run", "--provider", "remote"] if self.remote else ["replay", "--cache", str(self.inputs / "cache.jsonl")]
        return argv + ["--dataset", str(self.inputs / "dataset.jsonl"), "--output-dir", str(out)]

    def run(self, traced_cli=None) -> float | None:
        """One full run; returns its wall time, or None when it raised."""
        out = self._out()
        manifest = self._manifest(out)
        gc.collect()  # so that no run pays for garbage left by the one before
        try:
            if traced_cli is None:
                start, cpu = time.perf_counter(), time.process_time()
                run_pipeline(manifest)
                elapsed = time.perf_counter() - start
                self.cpu_seconds.append(time.process_time() - cpu)
            else:
                elapsed = traced_cli(self.cli_argv(out))
        except Exception:  # noqa: BLE001 - a failing run is reported, not fatal
            self.raised += 1
            if len(self.problems) < 20:
                self.problems.append(traceback.format_exc(limit=3))
            return None
        self.run_dirs.append(out)
        return elapsed


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1000.0


def _length_exponent(points: list[tuple[int, float]]) -> float:
    """Slope of log(ms per call) against log(trace lines)."""
    points = [(lines, seconds) for lines, seconds in points if lines and seconds > 0]
    if len({lines for lines, _ in points}) < 2:
        return 0.0
    xs = [math.log(lines) for lines, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    return statistics.linear_regression(xs, ys).slope


def layer_metrics(spans, examples: int, reps: int, stub: dict, latency_s: float, untraced: list[float], artifact_bytes: int) -> dict:
    """Per-layer metrics from the spans of ``reps`` traced runs."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    per_example = examples * reps

    def calls(name: str) -> int:
        return len(by_name[name])

    def total(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def self_ms_per_example(name: str) -> float:
        return sum(span.self_s for span in by_name[name]) * 1000.0 / per_example

    def ms_per_call(name: str) -> float:
        return total(name) * 1000.0 / calls(name) if calls(name) else 0.0

    def durations(name: str) -> list[float]:
        return [span.duration for span in by_name[name]]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    wall = total("pipeline.run_pipeline")
    generate = by_name["providers.generate"]
    retries = sum(1 for span in generate if span.note)
    graphs = by_name["risk_graph.build_relation_graph"]
    triggers = by_name["policy.trigger"]
    verdicts = by_name["policy.accept_policy"]
    repairs = by_name["orchestrator.repair_example"]
    curve_points = [(span.note, span.duration) for span in by_name["risk_graph.semantic_graph_check"]]
    traced_median = _median(durations("pipeline.run_pipeline"))

    values = {
        "equations.check_equations.calls_per_diagnose": (
            share(calls("equations.check_equations"), calls("diagnostics.diagnose")),
            "calls",
        ),
        "equations.check_equations.self_ms_per_example": (self_ms_per_example("equations.check_equations"), "ms/example"),
        "answers.extract_answer.calls_per_example": (calls("answers.extract_answer") / per_example, "calls/example"),
        "answers.extract_answer.self_ms_per_example": (self_ms_per_example("answers.extract_answer"), "ms/example"),
        "diagnostics.diagnose.calls_per_example": (calls("diagnostics.diagnose") / per_example, "calls/example"),
        "diagnostics.diagnose.ms_p50": (_percentile_ms(durations("diagnostics.diagnose"), 0.5), "ms"),
        "diagnostics.diagnose.ms_p99": (_percentile_ms(durations("diagnostics.diagnose"), 0.99), "ms"),
        "diagnostics.diagnose.self_ms_per_example": (self_ms_per_example("diagnostics.diagnose"), "ms/example"),
        "diagnostics.constraint_coverage.self_ms_per_example": (
            self_ms_per_example("diagnostics.constraint_coverage"),
            "ms/example",
        ),
        "risk_graph.semantic_graph_check.ms_p50": (
            _percentile_ms(durations("risk_graph.semantic_graph_check"), 0.5),
            "ms",
        ),
        "risk_graph.semantic_graph_check.ms_p99": (
            _percentile_ms(durations("risk_graph.semantic_graph_check"), 0.99),
            "ms",
        ),
        "risk_graph.semantic_graph_check.wall_share": (share(total("risk_graph.semantic_graph_check"), wall), "share"),
        "risk_graph.extract_quantities.self_ms_per_example": (
            self_ms_per_example("risk_graph.extract_quantities"),
            "ms/example",
        ),
        "risk_graph.build_relation_graph.self_ms_per_example": (
            self_ms_per_example("risk_graph.build_relation_graph"),
            "ms/example",
        ),
        "risk_graph.build_relation_graph.calls_per_example": (
            calls("risk_graph.build_relation_graph") / per_example,
            "calls/example",
        ),
        "risk_graph.edges_per_graph": (share(sum(span.note or 0 for span in graphs), len(graphs)), "edges"),
        "risk_graph.length_exponent": (_length_exponent(curve_points), "exponent"),
        "policy.trigger.us_per_call": (ms_per_call("policy.trigger") * 1000.0, "us"),
        "policy.triggered_share": (share(sum(1 for span in triggers if span.note), len(triggers)), "share"),
        "policy.is_clean.us_per_call": (ms_per_call("policy.is_clean") * 1000.0, "us"),
        "policy.accept_policy.us_per_call": (ms_per_call("policy.accept_policy") * 1000.0, "us"),
        "policy.accepted_share": (
            share(sum(1 for span in verdicts if span.note), calls("policy.is_clean")),
            "share",
        ),
        "orchestrator.repair_example.self_ms_per_call": (
            share(sum(span.self_s for span in repairs) * 1000.0, len(repairs)),
            "ms/call",
        ),
        "orchestrator.parse_candidate.us_per_call": (ms_per_call("orchestrator.parse_candidate") * 1000.0, "us"),
        "orchestrator.format_retry_share": (share(retries, len(generate) - retries), "share"),
        "orchestrator.attempts_per_triggered_example": (
            share(sum(span.note or 0 for span in repairs), len(repairs)),
            "attempts/example",
        ),
        "providers.generate.ms_p50": (_percentile_ms(durations("providers.generate"), 0.5), "ms"),
        "providers.generate.ms_p99": (_percentile_ms(durations("providers.generate"), 0.99), "ms"),
        "providers.wait_share": (share(total("providers.generate"), wall), "share"),
        "providers.connections_per_call": (share(stub["connections"], len(generate)), "conns/call"),
        "providers.requests_per_call": (share(stub["requests"], len(generate)), "requests/call"),
        "providers.overhead_ms_per_call": (
            share((total("providers.generate") - latency_s * stub["requests"]) * 1000.0, len(generate)),
            "ms/call",
        ),
        "providers.replay_load_ms": (ms_per_call("providers.replay_load"), "ms"),
        "datasets.load_dataset.ms": (ms_per_call("datasets.load_dataset"), "ms"),
        "pipeline.run_pipeline.self_ms_per_example": (self_ms_per_example("pipeline.run_pipeline"), "ms/example"),
        "pipeline.artifact_bytes": (artifact_bytes, "bytes"),
        "reporting.compute_report.ms": (ms_per_call("reporting.compute_report"), "ms"),
        "reporting.render_report.ms": (ms_per_call("reporting.render_report"), "ms"),
        "cli.main.self_ms_per_call": (share(sum(span.self_s for span in by_name["cli.main"]) * 1000.0, calls("cli.main")), "ms/call"),
        "trace.overhead_share": (share(traced_median, _median(untraced)) - 1.0 if untraced else 0.0, "share"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def length_curve(spans) -> dict:
    """Median ms of diagnose and semantic_graph_check by trace line count."""
    grouped = defaultdict(lambda: defaultdict(list))
    for span in spans:
        if span.name in ("diagnostics.diagnose", "risk_graph.semantic_graph_check") and span.note:
            grouped[span.note][span.name.split(".")[1]].append(span.duration * 1000.0)
    return {
        str(lines): {name: round(statistics.median(values), 3) for name, values in sorted(series.items())}
        for lines, series in sorted(grouped.items(), key=lambda item: int(item[0]))
    }


def mix_check(workload: str, metrics: dict) -> dict:
    name, relation, bound = INTENDED_MIX[workload]
    value = metrics[name]["value"]
    holds = {"<": value < bound, ">": value > bound, ">=": value >= bound}[relation]
    return {"metric": name, "value": value, "intended": f"{relation} {bound}", "holds": holds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stub-url")
    parser.add_argument("--spans", type=Path, help="where the traced mode writes its last run's spans")
    parser.add_argument("--once", action="store_true", help="make only the reference run")
    args = parser.parse_args(argv)

    if args.stub_url:
        os.environ["LLM_REPAIR_BASE_URL"] = f"{args.stub_url}/v1"
        os.environ["LLM_REPAIR_MODEL"] = "stub"
    _count_replay_calls()
    workload = Workload(args.inputs, args.work)
    examples = workload.spec["examples"]

    workload.run()  # reference run: fills caches and lazy imports
    result = {"examples": examples}
    if not args.once:
        result.update(_measure(workload, args))
    result.update(
        run_dirs=[str(path) for path in workload.run_dirs],
        raised=workload.raised,
        problems=workload.problems,
    )
    print(json.dumps(result))
    return 0


def _measure(workload: Workload, args) -> dict:
    workload.cpu_seconds.clear()
    _stub_stats(args.stub_url)

    untraced: list[float] = []
    traced: list[float] = []
    tracers: list[Tracer] = []
    untraced_stub = {"requests": 0, "connections": 0, "faults": 0}
    stub_totals = {"requests": 0, "connections": 0, "faults": 0}
    reference_dir = workload.run_dirs[0] if workload.run_dirs else None

    def traced_cli(argv: list[str]) -> float:
        tracer = Tracer()
        tracers.append(tracer)
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        finally:
            tracer.uninstall()
        return sum(span.duration for span in tracer.spans if span.name == "pipeline.run_pipeline")

    deadline = time.perf_counter() + args.seconds
    replay_calls = 0
    reference_seconds: list[float] = []
    gauges: list[float] = []
    before = calibrate.gauge()
    for iteration in itertools.count(1):
        started = time.perf_counter()
        calls_before = REPLAY_CALLS[0]
        elapsed = workload.run()
        after = calibrate.gauge()
        if elapsed is not None:
            untraced.append(elapsed)
            # The machine's speed around this repetition.
            gauges.append((before + after) / 2)
            reference_seconds.append(calibrate.at_reference(elapsed, workload.cpu_seconds[-1], gauges[-1]))
        before = after
        replay_calls += REPLAY_CALLS[0] - calls_before
        for key, value in _stub_stats(args.stub_url).items():
            untraced_stub[key] += value
        if args.trace:
            elapsed = workload.run(traced_cli)
            if elapsed is not None:
                traced.append(elapsed)
            for key, value in _stub_stats(args.stub_url).items():
                stub_totals[key] += value
            before = calibrate.gauge()
        # Stop at the repetition boundary nearest the deadline.
        now = time.perf_counter()
        if now + (now - started) / 2 >= deadline and iteration >= MIN_REPS:
            break

    if workload.remote:
        generate_calls = untraced_stub["requests"] - untraced_stub["faults"]
    else:
        generate_calls = replay_calls
    result = {
        "rep_seconds": untraced,
        "rep_cpu_seconds": workload.cpu_seconds,
        "rep_gauge_seconds": gauges,
        "rep_reference_seconds": reference_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "generate_calls": generate_calls,
        "untraced_runs": iteration,
    }
    if args.trace:
        spans = [span for tracer in tracers for span in tracer.spans]
        artifact_bytes = sum(path.stat().st_size for path in reference_dir.iterdir()) if reference_dir else 0
        metrics = layer_metrics(
            spans,
            workload.spec["examples"],
            max(1, len(traced)),
            stub_totals,
            workload.spec.get("stub_latency_s", 0.0),
            untraced,
            artifact_bytes,
        )
        result["layer_metrics"] = metrics
        result["traced_rep_seconds"] = traced
        result["length_curve"] = length_curve(spans)
        result["mix_check"] = mix_check(workload.spec["workload"], metrics)
        if tracers and args.spans:
            tracers[-1].write(args.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
