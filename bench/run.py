"""Offline benchmark for trace-repair.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's seeded inputs, starts the chat-completions
stub for ``remote_stub``, and hands the inputs to ``bench/worker.py`` in a
fresh interpreter. Once the worker has exited, every run it made is checked
(``bench/check.py``): the first against the generator's expectations, the
others against the first run's bytes. Before that, one run of the same
workload at the golden seed must reproduce the artifact digests committed in
``bench/reference_digests.json``; ``--write-reference`` records them anew
after an intended change of the artifacts. Its last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
A fuller record, with the machine, the Python version, the seed, the code
version and the artifact digests, goes to
``bench/results/BENCH_<workload>_seed<N>_trace<T>.json``.

Workloads (see ``bench/workloads.py``):

The trigger, fault and rejection shares below are assumptions chosen so that
each workload stresses its layer, not measured traffic.

- ``preserve_short``: 1000 short examples, 12% triggered. Measures the first
  diagnosis plus the pipeline's bookkeeping and artifact writing.
- ``repair_bestof3``: 300 examples, all triggered, most candidates rejected,
  so most examples use all three attempts. Measures candidate parsing,
  cleanliness, candidate diagnosis and acceptance.
- ``long_trace``: eight cached traces of 25 to 400 lines, mostly kept.
  Measures how the risk graph scales with trace length.
- ``remote_stub``: 30 triggered examples served by a local chat-completions
  stub with a fixed latency and a few 503 replies. Measures time spent
  waiting on the provider.

End-to-end metrics: ``examples_per_s`` (examples over the wall time of one
``run_pipeline`` call, median over the run's repetitions), ``setup_s``
(fresh interpreter to ``import trace_repair`` and a first ``diagnose``,
median of several), both with their CPU time scaled to the reference
machine speed by the gauge of ``bench/calibrate.py`` taken around each
sample, so that the host's drifting speed does not read as a change of the
program (the record keeps the times as measured), ``peak_rss_mb`` (of the worker process, which holds no
benchmark data), ``provider_calls_per_example`` (``ReplayProvider.generate``
calls, or requests the stub answered without a fault, over the timed runs)
and ``ok_op_share`` (share of example runs whose artifacts are correct,
golden-seed run included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import check  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
SETUP_CODE = (
    "import sys, time\n"
    "start, cpu = time.perf_counter(), time.process_time()\n"
    "sys.path.insert(0, 'src')\n"
    "import trace_repair\n"
    "trace_repair.diagnose('Ann has 3 apples and buys 4 more.', '3 + 4 = 7\\nFinal Answer: 7')\n"
    "print(time.perf_counter() - start, time.process_time() - cpu)\n"
)
# A run must end within 180 s; the worker gets what is left after set-up.
RUN_LIMIT_S = 170.0
MAX_PROBLEMS = 20


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version()}


def _code_version() -> dict:
    """The git commit when there is one, and a digest of the source tree."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "trace_repair").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"git_commit": commit or "unknown", "source_sha256": digest.hexdigest()}


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter to a first diagnose, several times.

    Returns the samples as measured and scaled to the reference machine
    speed by the gauge taken around each.
    """
    samples, at_reference = [], []
    before = calibrate.gauge()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        after = calibrate.gauge()
        wall, cpu = (float(field) for field in done.stdout.strip().splitlines()[-1].split())
        samples.append(wall)
        at_reference.append(calibrate.at_reference(wall, cpu, (before + after) / 2))
        before = after
    return samples, at_reference


@contextmanager
def stub_server(config: Path):
    """Start the stub in its own process; yields its base URL."""
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "stub.py"), "--config", str(config)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(process.stdout.readline())
        yield f"http://127.0.0.1:{port}"
    finally:
        process.stdin.close()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


def run_worker(inputs: Path, work: Path, seconds: int, trace: int, stub_url: str | None, spans: Path, budget: float, once: bool) -> dict:
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--inputs", str(inputs),
        "--work", str(work),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if stub_url:
        command += ["--stub-url", stub_url]
    if trace:
        command += ["--spans", str(spans)]
    if once:
        command.append("--once")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=budget)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Outcome:
    """Failure counts of one workload's runs, checked after the worker exited."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, worker: dict, failed: int, problems: list[str]) -> None:
        examples = worker["examples"]
        self.attempted += examples * (len(worker["run_dirs"]) + worker["raised"])
        self.failed += examples * worker["raised"] + failed
        self.problems = (self.problems + worker["problems"] + problems)[:MAX_PROBLEMS]


def run_workload(workload: str, seed: int, work: Path, budget: float, **worker_args) -> tuple[dict, dict, int, list[str]]:
    """Generate, run and check one workload.

    Returns the spec, the worker's result, and the failed example runs with
    the reasons.
    """
    spec = workloads.write_workload(workload, seed, work / "inputs")
    with stub_server(work / "inputs" / "stub.json") if spec["provider"] == "remote" else nullcontext() as url:
        worker = run_worker(work / "inputs", work, stub_url=url, budget=budget, **worker_args)
    with open(work / "inputs" / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    failed, problems = check.check_runs(expected, [Path(path) for path in worker["run_dirs"]])
    return spec, worker, failed, problems


def golden_check(workload: str, work: Path, budget: float, outcome: Outcome, write: bool) -> dict[str, str]:
    """Run ``workload`` once at the golden seed and compare its digests with the committed ones."""
    _, worker, failed, problems = run_workload(
        workload, check.GOLDEN_SEED, work, budget, seconds=0, trace=0, spans=work / "spans", once=True
    )
    found = check.digests(Path(worker["run_dirs"][0])) if worker["run_dirs"] else {}
    if write and found and not failed:
        check.write_golden_digests(workload, found)
    mismatches = check.golden_problems(workload, found)
    if mismatches:
        # A digest names no example, so every example of the golden run fails.
        failed = worker["examples"] * len(worker["run_dirs"])
    outcome.add(worker, failed, problems + mismatches)
    return found


def end_to_end(worker: dict, setup: list[float], outcome: Outcome) -> dict:
    examples = worker["examples"]
    rates = [examples / seconds for seconds in worker["rep_reference_seconds"]]
    values = {
        "examples_per_s": (statistics.median(rates) if rates else 0.0, "examples/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        "provider_calls_per_example": (
            worker["generate_calls"] / (examples * worker["untraced_runs"]),
            "calls/example",
        ),
        "ok_op_share": (1.0 - outcome.failed / outcome.attempted, "share"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="trace-repair offline benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help=f"store the golden-seed digests in {check.REFERENCE_FILE.name} when that run meets the expectations",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trace_repair" / "__init__.py").is_file():
        print(f"error: no trace_repair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = BENCH / "_work" / f"{tag}_{os.getpid()}"
    results = BENCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        setup, setup_at_reference = measure_setup() if args.trace == 0 else ([], [])
        golden = golden_check(
            args.workload, work / "golden", RUN_LIMIT_S - (time.perf_counter() - started), outcome, args.write_reference
        )
        spans = results / f"spans_{tag}.jsonl"
        spec, worker, failed, problems = run_workload(
            args.workload,
            args.seed,
            work / "run",
            RUN_LIMIT_S - (time.perf_counter() - started),
            seconds=args.seconds,
            trace=args.trace,
            spans=spans,
            once=False,
        )
        outcome.add(worker, failed, problems)
        print(f"workload {args.workload} seed {args.seed}: {json.dumps(spec['self_check'])}", file=sys.stderr)
        digests = check.digests(Path(worker["run_dirs"][0])) if worker["run_dirs"] else {}
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = worker["layer_metrics"] if args.trace else end_to_end(worker, setup_at_reference, outcome)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "code": _code_version(),
        "self_check": spec["self_check"],
        "setup_samples_s": setup,
        "setup_reference_samples_s": setup_at_reference,
        **{key: value for key, value in worker.items() if key not in ("layer_metrics", "run_dirs", "problems")},
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "digests": digests,
        "golden_digests": golden,
        "metrics": metrics,
    }
    with open(results / f"BENCH_{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if "length_curve" in worker:
        curve = ", ".join(f"{lines}: {ms['diagnose']:.1f}" for lines, ms in worker["length_curve"].items() if "diagnose" in ms)
        print(f"diagnose ms by trace lines: {curve}", file=sys.stderr)
    if "mix_check" in worker and not worker["mix_check"]["holds"]:
        print(f"note: intended mix not met: {json.dumps(worker['mix_check'])}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
