"""End-to-end runs: diagnose, trigger, repair or preserve, evaluate, write.

Every run writes the same artifact set into its output directory:

    predictions.jsonl   one line per example (answers + transition)
    candidates.jsonl    one line per generation attempt (the replay cache)
    risk_log.jsonl      initial risk categories + candidate acceptance pattern
    risk_summary.json   acceptance-decision pattern counts
    report.json         the structured run report
    report.txt          the same report as a plain table
    progress.jsonl      the checkpoint: candidates.jsonl rows, appended as examples finish

Guarded repair and the direct-regeneration baselines share one
per-example path; a mode only picks which examples are repaired and the
repair_example arguments. Examples run in example-id order, and each
example's rows are written to the artifacts' temp files as it finishes, so
a run holds no finished example. The report is counted alongside. Every
output set (the six artifacts, ``report``'s pair, the ``filter`` and
``sample`` files) goes through ``datasets.write_artifacts``, which renames
the set into place only once all of it is written. The checkpoint is a
replay cache: a resume reruns every example through it, in front of the
run's provider, so its output is byte-identical to an uninterrupted
run's, and appends only the attempts the checkpoint lacks.

``report`` reads predictions.jsonl and candidates.jsonl side by side, in
the example-id order a run writes them, and holds no row past its
example. Report rows are typed (``Prediction``, ``CandidateRecord``): a
bad line, a missing field, a nested value that is not the object or list
it should be, or a row out of id order stops the report naming
``path:line``.

A remote provider keeps up to its ``concurrency`` examples in flight at
once: each pool thread takes the next pending example as soon as its last
one is done, from at most ``POOL_WINDOW`` examples submitted at a time.
Results are still taken in example-id order, so progress.jsonl, the resume
checkpoint and the outage abort read as in a serial run.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .answers import ReasoningTrace
from .datasets import (
    DatasetError,
    DatasetRecord,
    filter_numeric,
    json_fields,
    json_types,
    jsonl_line,
    load_dataset,
    read_jsonl,
    sample_subset,
    write_artifacts,
)
from .diagnostics import diagnose
from .orchestrator import CandidateRecord, repair_example
from .policy import PolicyConfig, trigger
from .providers import RemoteProvider, ReplayProvider
from .reporting import ReportTally, RunReport, compute_report, render_report
from .risk_graph import risk_categories

log = logging.getLogger(__name__)

MODE_GUARDED = "guarded"
# Replay is guarded repair served from a candidate cache; the provider is
# the only difference, so it is a name, not a mode.
MODE_REPLAY = MODE_GUARDED
MODE_SOLVE_ALL = "solve_all"
MODE_SOLVE_TRIGGERED = "solve_triggered"
MODE_DIRECT_BESTOF3_GATED = "direct_bestof3_gated"

# repair_example arguments for each mode. The direct-regeneration
# baselines drop the initial trace and diagnostic hint from the prompt;
# solve_all and solve_triggered accept every parsed output of one attempt,
# while the gated best-of-3 baseline keeps all gates.
MODE_REPAIR_ARGS = {
    MODE_GUARDED: {"include_initial": True, "accept_all": False},
    MODE_SOLVE_ALL: {"include_initial": False, "accept_all": True},
    MODE_SOLVE_TRIGGERED: {"include_initial": False, "accept_all": True},
    MODE_DIRECT_BESTOF3_GATED: {"include_initial": False, "accept_all": False},
}

BASELINE_MODES = (MODE_SOLVE_ALL, MODE_SOLVE_TRIGGERED, MODE_DIRECT_BESTOF3_GATED)
RUN_MODES = (MODE_GUARDED, *BASELINE_MODES)
# Where a run's candidates come from: a candidate cache, or a live endpoint.
PROVIDERS = ("replay", "remote")

# Consecutive examples whose generations all fail at the transport level
# before the run is declared dead and aborted for a later resume.
OUTAGE_EXAMPLE_LIMIT = 3


class ProviderOutageError(RuntimeError):
    """Sustained provider failure; the run checkpoint allows a resume."""

PREDICTIONS_FILE = "predictions.jsonl"
CANDIDATES_FILE = "candidates.jsonl"
RISK_LOG_FILE = "risk_log.jsonl"
RISK_SUMMARY_FILE = "risk_summary.json"
REPORT_JSON_FILE = "report.json"
REPORT_TEXT_FILE = "report.txt"
PROGRESS_FILE = "progress.jsonl"

# The run's artifacts by PipelineResult.paths key; progress.jsonl is not one.
ARTIFACT_FILES = {
    "predictions": PREDICTIONS_FILE,
    "candidates": CANDIDATES_FILE,
    "risk_log": RISK_LOG_FILE,
    "risk_summary": RISK_SUMMARY_FILE,
    "report_json": REPORT_JSON_FILE,
    "report_text": REPORT_TEXT_FILE,
}


@dataclass(frozen=True)
class Prediction:
    example_id: str
    initial_answer: str | None
    final_answer: str | None
    gold_answer: str
    triggered: bool
    trigger_reasons: list[str]
    accepted: bool
    accepted_attempt: int | None
    final_trace: str

    def __post_init__(self) -> None:
        """Refuse the first two fields that contradict each other: the trigger
        flag is set exactly when it has reasons, the acceptance flag exactly
        when it has an attempt, and an unaccepted example keeps its initial
        answer."""
        if self.triggered != bool(self.trigger_reasons):
            pair = "triggered", "trigger_reasons"
        elif self.accepted != (self.accepted_attempt is not None):
            pair = "accepted", "accepted_attempt"
        elif not self.accepted and self.final_answer != self.initial_answer:
            pair = "final_answer", "initial_answer"
        else:
            return
        raise ValueError(f"Prediction {self.example_id!r}: {pair[0]!r} does not match {pair[1]!r}")

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_json_dict(cls, where: str, row) -> "Prediction":
        values = json_fields(where, row, json_types(cls))
        try:
            return cls(*values)
        except ValueError as exc:
            # The row is named by its line, not by its example.
            fault = str(exc).removeprefix(f"Prediction {values[0]!r}: ")
            raise DatasetError(f"{where}: {fault}") from None


@dataclass
class RunManifest:
    mode: str
    dataset_path: Path
    output_dir: Path
    config: PolicyConfig = field(default_factory=PolicyConfig)
    provider: str = "replay"
    cache_path: Path | None = None
    resume: bool = False
    harm_budget: float | None = None
    # Examples in flight at once with the remote provider; None takes its default.
    concurrency: int | None = None

    def validate(self) -> None:
        if self.provider not in PROVIDERS:
            raise ValueError(f"unknown provider {self.provider!r}; expected one of {PROVIDERS}")
        if self.mode not in RUN_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {RUN_MODES}")
        if self.provider == "replay" and self.cache_path is None:
            raise ValueError("replay provider requires a candidate cache path")
        if self.cache_path is not None and self.provider != "replay":
            raise ValueError("a candidate cache applies only to the replay provider")
        if self.concurrency is not None and self.provider != "remote":
            raise ValueError("concurrency applies only to the remote provider")
        _check_harm_budget(self.harm_budget)


def _check_harm_budget(harm_budget: float | None) -> None:
    """Refuse a harm budget that is not a share: NaN would read as within
    budget, and infinity cannot be rendered in the report."""
    if harm_budget is not None and not 0.0 <= harm_budget <= 1.0:
        raise ValueError(f"harm budget must be a share in [0, 1], not {harm_budget!r}")


@dataclass
class PipelineResult:
    report: RunReport
    paths: dict[str, Path]


def _build_provider(manifest: RunManifest):
    if manifest.provider == "replay":
        return ReplayProvider.from_jsonl(manifest.cache_path)
    if manifest.concurrency is None:
        return RemoteProvider()
    return RemoteProvider(concurrency=manifest.concurrency)


def _process_example(
    record: DatasetRecord, manifest: RunManifest, provider
) -> tuple[Prediction, tuple[CandidateRecord, ...], dict]:
    """Run one example end to end: its predictions.jsonl row, its
    candidates.jsonl rows and its risk_log.jsonl row's header, to which the
    run adds the candidates' patterns as the report counts them. An example
    is repaired when the trigger fires, or in solve_all always, so the
    baselines re-solve exactly the examples guarded repair targets."""
    cfg = manifest.config
    r0 = ReasoningTrace.from_text(record.cached_initial_trace or "")
    diag0 = diagnose(record.problem_text, r0)
    decision = trigger(diag0.meta, diag0.graph, r0, cfg)

    final, records, accepted_index = r0, (), None
    if decision.triggered or manifest.mode == MODE_SOLVE_ALL:
        outcome = repair_example(
            record.example_id,
            record.problem_text,
            r0,
            diag0,
            decision,
            provider,
            cfg,
            **MODE_REPAIR_ARGS[manifest.mode],
        )
        final, records, accepted_index = outcome.final_trace, outcome.records, outcome.accepted_index

    prediction = Prediction(
        example_id=record.example_id,
        initial_answer=r0.answer.canonical,
        final_answer=final.answer.canonical,
        gold_answer=record.gold_answer,
        triggered=decision.triggered,
        trigger_reasons=sorted(decision.reasons),
        accepted=accepted_index is not None,
        accepted_attempt=accepted_index,
        final_trace=final.text,
    )
    risk = {
        "example_id": record.example_id,
        "initial_risks": risk_categories(diag0.graph),
        "initial_score": diag0.graph.score,
        "initial_diagnosis": diag0.graph.diagnosis,
        "meta_category": diag0.meta.category,
        "triggered": decision.triggered,
        "accepted_attempt": accepted_index,
    }
    return prediction, records, risk


def _read_checkpoint(path: Path, provider) -> ReplayProvider:
    """The checkpoint as a replay cache in front of ``provider``.

    A last line without its newline is what a kill mid-append leaves: it is
    cut off, so its attempt runs again and the next append starts a line of
    its own. The cut maps the file, so none of it is held while the replay
    reader reads it in one pass, refusing a bad line anywhere else.
    """
    with open(path, "r+b") as handle:
        size = os.fstat(handle.fileno()).st_size
        whole = 0
        if size:
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as data:
                whole = data.rfind(b"\n") + 1
        if whole < size:
            log.warning("%s: dropping a torn last line of %d bytes", path, size - whole)
            handle.truncate(whole)
    return ReplayProvider.from_jsonl(path, fallback=provider)


def _write_report(files: dict, report: RunReport) -> None:
    """Write report.json and report.txt to their handles, by PipelineResult.paths key."""
    files["report_json"].write(jsonl_line(report.to_json_dict()))
    files["report_text"].write(render_report(report))


# Items submitted to the pool at once. ``Executor.map`` submits all it is
# given before it yields, so a whole dataset would hold one future per example.
POOL_WINDOW = 256


def _in_order(process, items, concurrency: int):
    """Yield ``process(item)`` for each item in order, with up to ``concurrency`` calls in flight.

    At 1 this is a plain ``map``: no thread starts. Above 1 the items go to
    a pool of ``concurrency`` threads in slices of ``POOL_WINDOW``, so a
    thread that finishes takes the next item of its slice at once,
    whichever item is still running at the head, and the next slice is
    submitted once the last is taken. Closing the generator cancels the
    calls that have not started and waits for the others; their results,
    and any error they raise, are dropped, since a serial run that stopped
    at the same item would not have made those calls.
    """
    if concurrency == 1:
        yield from map(process, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(concurrency) as pool:
        for start in range(0, len(items), POOL_WINDOW):
            yield from pool.map(process, items[start : start + POOL_WINDOW])


def filter_dataset(
    dataset_path: Path,
    output_dir: Path,
    sample_size: int | None = None,
    seed: int | None = None,
) -> tuple[dict[str, Path], dict]:
    """Keep the numeric-answer records, optionally sample them; returns (paths, counts).

    The files are written as one set, after the sample is drawn, so a
    refused sample writes none of them."""
    if sample_size is not None and seed is None:
        raise ValueError("sampling requires a seed")
    dataset = load_dataset(dataset_path)
    result = filter_numeric(dataset)
    counts = {
        "pool": len(dataset),
        "kept": len(result.kept),
        "rejected": result.counts(),
        "rejected_ids": result.rejected_ids,
    }
    paths = {
        "numeric_pool": output_dir / "numeric_pool.jsonl",
        "filter_counts": output_dir / "filter_counts.json",
    }
    subset = None if sample_size is None else sample_subset(result.kept, sample_size, seed)
    if subset is not None:
        paths.update(
            sample=output_dir / f"sample_seed{seed}.jsonl",
            sample_ids=output_dir / f"sample_seed{seed}_ids.txt",
        )
    output_dir.mkdir(parents=True, exist_ok=True)
    with write_artifacts(paths) as files:
        files["numeric_pool"].writelines(jsonl_line(record.to_json_dict()) for record in result.kept)
        files["filter_counts"].write(json.dumps(counts, ensure_ascii=False, indent=2) + "\n")
        if subset is not None:
            files["sample"].writelines(jsonl_line(record.to_json_dict()) for record in subset)
            files["sample_ids"].writelines(record.example_id + "\n" for record in subset)
    return paths, counts


def _in_id_order(rows, parse):
    """``(where, parse(where, row))`` for each of ``rows``, refusing at its
    line a row whose example id is below the one before it."""
    previous = ""
    for where, row in rows:
        item = parse(where, row)
        if item.example_id < previous:
            raise DatasetError(
                f"{where}: example {item.example_id!r} is out of example-id order, after {previous!r}"
            )
        previous = item.example_id
        yield where, item


def recompute_report(
    predictions_path: Path, output_dir: Path, harm_budget: float | None = None
) -> PipelineResult:
    """Recompute report.json/.txt from a run's saved predictions, without a provider.

    A run's report is counted from both of its row files, so the run's
    candidates.jsonl must sit beside the predictions file; without it the
    report stops with ``FileNotFoundError`` naming the path, before anything
    is written. Each prediction is counted as it is read, with its example's
    candidates. A row out of id order, a second prediction of an example or
    a second candidate of an attempt is refused naming its line; a candidate
    of an example with no prediction, or an accepted attempt with no
    candidate, is refused naming both files.
    """
    _check_harm_budget(harm_budget)
    candidates_path = predictions_path.parent / CANDIDATES_FILE
    tally = ReportTally()
    candidates = _in_id_order(read_jsonl(candidates_path), CandidateRecord.from_json_dict)
    pending = next(candidates, None)
    mismatch = f"{candidates_path} is not the run of {predictions_path}: example"
    previous = None
    for where, prediction in _in_id_order(read_jsonl(predictions_path), Prediction.from_json_dict):
        example_id = prediction.example_id
        if example_id == previous:
            raise DatasetError(f"{where}: duplicate row for example {example_id!r}")
        previous = example_id
        attempts = {}
        while pending is not None and pending[1].example_id <= example_id:
            record_where, record = pending
            if record.example_id < example_id:
                raise DatasetError(f"{mismatch} {record.example_id!r} has no prediction")
            if record.attempt_index in attempts:
                raise DatasetError(
                    f"{record_where}: duplicate row for example {example_id!r} "
                    f"attempt {record.attempt_index!r}"
                )
            attempts[record.attempt_index] = record
            pending = next(candidates, None)
        if prediction.accepted and prediction.accepted_attempt not in attempts:
            raise DatasetError(f"{mismatch} {example_id!r} has no candidate at its accepted attempt")
        tally.add(prediction, attempts.values())
    if pending is not None:
        raise DatasetError(f"{mismatch} {pending[1].example_id!r} has no prediction")
    report = compute_report(tally, harm_budget=harm_budget)
    output_dir.mkdir(parents=True, exist_ok=True)
    paths = {key: output_dir / ARTIFACT_FILES[key] for key in ("report_json", "report_text")}
    with write_artifacts(paths) as files:
        _write_report(files, report)
    return PipelineResult(report=report, paths=paths)


def run_pipeline(manifest: RunManifest) -> PipelineResult:
    """Run guarded repair or a direct-regeneration baseline over a dataset."""
    manifest.validate()
    # Before the dataset is read; a remote provider opens no socket until its first request.
    provider = _build_provider(manifest)
    # In the order the artifacts list the examples, so each is written as it is taken.
    dataset = sorted(load_dataset(manifest.dataset_path), key=lambda record: record.example_id)

    output = manifest.output_dir
    output.mkdir(parents=True, exist_ok=True)
    progress_path = output / PROGRESS_FILE

    checkpointed = {}
    if manifest.resume and progress_path.exists():
        # Every example runs again; the checkpoint serves what it recorded.
        provider = _read_checkpoint(progress_path, provider)
        checkpointed = provider.entries
        unknown = {example_id for example_id, _ in checkpointed} - {r.example_id for r in dataset}
        if unknown:
            raise ValueError(
                f"{progress_path} holds {len(unknown)} example ids that are not in "
                f"{manifest.dataset_path}, e.g. {min(unknown)!r}; resume only "
                f"with the dataset the run started on"
            )
        log.info("resuming: %d attempts already recorded", len(checkpointed))

    process = partial(_process_example, manifest=manifest, provider=provider)
    paths = {key: output / name for key, name in ARTIFACT_FILES.items()}
    tally = ReportTally()
    outage_streak = 0
    with (
        closing(provider),
        open(progress_path, "a" if manifest.resume else "w", encoding="utf-8") as progress,
        write_artifacts(paths) as files,
        closing(_in_order(process, dataset, provider.concurrency)) as outcomes,
    ):
        for prediction, records, risk in outcomes:
            lines = [jsonl_line(record.to_json_dict()) for record in records]
            files["predictions"].write(jsonl_line(prediction.to_json_dict()))
            files["candidates"].write("".join(lines))
            # Each pattern is built once, so risk_summary.json sums these rows.
            patterns = tally.add(prediction, records)
            files["risk_log"].write(jsonl_line({**risk, "candidates": patterns}))
            if records and all(record.transport_failed for record in records):
                # Keep the example out of the durable checkpoint so a resume
                # regenerates it once the provider is back.
                outage_streak += 1
                if outage_streak >= OUTAGE_EXAMPLE_LIMIT:
                    raise ProviderOutageError(
                        f"{outage_streak} consecutive examples lost every "
                        f"generation to transport failures; resume with "
                        f"--resume once the provider recovers"
                    )
                continue
            outage_streak = 0
            lacking = [
                line
                for record, line in zip(records, lines)
                if (record.example_id, record.attempt_index) not in checkpointed
            ]
            progress.write("".join(lacking))
            progress.flush()
        # Inside the block, so a report that fails leaves the previous artifacts.
        report = compute_report(tally, harm_budget=manifest.harm_budget)
        files["risk_summary"].write(jsonl_line(tally.risk_summary()))
        _write_report(files, report)
    return PipelineResult(report=report, paths=paths)
