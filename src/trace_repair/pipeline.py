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
example's rows are written to the artifacts' temp files as it finishes;
the report is counted alongside, and the six artifacts are renamed into
place together once the run and its report have succeeded, so a run holds
no finished example. The checkpoint is a replay cache: a resume reruns
every example through it, in front of the run's provider, so its output
is byte-identical to an uninterrupted run's, and appends only the
attempts the checkpoint lacks. Report rows are typed
(``Prediction``, ``CandidateRecord``): a bad line, a missing field, or a
nested value that is not the object or list it should be stops the report
naming ``path:line`` and the dotted field.

A remote provider keeps up to its ``concurrency`` examples in flight at
once: each pool thread takes the next pending example as soon as its last
one is done. Results are still taken in example-id order, so progress.jsonl,
the resume checkpoint and the outage abort read as in a serial run.
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
    read_lines,
    sample_subset,
    write_artifact,
    write_dataset,
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
# Modes that may take the trigger set of a prior guarded run.
TRIGGERED_ID_MODES = (MODE_SOLVE_TRIGGERED, MODE_DIRECT_BESTOF3_GATED)

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

    @staticmethod
    def _contradiction(
        triggered, trigger_reasons, accepted, accepted_attempt, final_answer, initial_answer, **_
    ) -> tuple[str, str] | None:
        """The first two of a prediction's fields that contradict each other,
        or None.

        The trigger flag is set exactly when it has reasons, the acceptance
        flag exactly when it has an attempt, and an unaccepted example keeps
        its initial answer.
        """
        if triggered != bool(trigger_reasons):
            return "triggered", "trigger_reasons"
        if accepted != (accepted_attempt is not None):
            return "accepted", "accepted_attempt"
        if not accepted and final_answer != initial_answer:
            return "final_answer", "initial_answer"
        return None

    def __post_init__(self) -> None:
        pair = self._contradiction(**vars(self))
        if pair:
            raise ValueError(f"Prediction {self.example_id!r}: {pair[0]!r} does not match {pair[1]!r}")

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_json_dict(cls, where: str, row) -> "Prediction":
        values = json_fields(where, row, json_types(cls))
        pair = cls._contradiction(**row)
        if pair:
            raise DatasetError(f"{where}: {pair[0]!r} does not match {pair[1]!r}")
        return cls(*values)


@dataclass(frozen=True)
class ExampleResult:
    """One example's outcome: its predictions.jsonl row, its candidates.jsonl
    rows and its risk_log.jsonl row. The run writes them as it takes the
    example and keeps none of it."""

    prediction: Prediction
    records: tuple[CandidateRecord, ...]
    risk: dict


@dataclass
class RunManifest:
    mode: str
    dataset_path: Path
    output_dir: Path
    config: PolicyConfig = field(default_factory=PolicyConfig)
    provider: str = "replay"
    cache_path: Path | None = None
    triggered_ids_path: Path | None = None
    resume: bool = False
    harm_budget: float | None = None
    # Examples in flight at once with the remote provider; None takes its default.
    concurrency: int | None = None

    def validate(self) -> None:
        if self.mode not in RUN_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {RUN_MODES}")
        if self.triggered_ids_path is not None and self.mode not in TRIGGERED_ID_MODES:
            raise ValueError(
                f"a triggered-ids file applies only to {TRIGGERED_ID_MODES}, not {self.mode!r}"
            )
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
    if manifest.provider == "remote" and manifest.concurrency is None:
        return RemoteProvider()
    if manifest.provider == "remote":
        return RemoteProvider(concurrency=manifest.concurrency)
    raise ValueError(f"unknown provider {manifest.provider!r}")


def _load_triggered_ids(path: Path | None, dataset_ids: set[str]) -> set[str] | None:
    if path is None:
        return None
    ids = {line.strip() for _, line in read_lines(path)}
    unknown = ids - dataset_ids
    if unknown:
        raise ValueError(
            f"{path} names {len(unknown)} example ids that are not in the dataset, "
            f"e.g. {min(unknown)!r}"
        )
    return ids


def _risk_log_entry(
    record: DatasetRecord,
    diag0,
    triggered: bool,
    records: tuple[CandidateRecord, ...] | list[CandidateRecord],
    accepted_index: int | None,
) -> dict:
    return {
        "example_id": record.example_id,
        "initial_risks": risk_categories(diag0.graph),
        "initial_score": diag0.graph.score,
        "initial_diagnosis": diag0.graph.diagnosis,
        "meta_category": diag0.meta.category,
        "triggered": triggered,
        "accepted_attempt": accepted_index,
        "candidates": [_risk_pattern(item) for item in records],
    }


def _risk_pattern(item: CandidateRecord) -> dict:
    """One candidate's acceptance pattern, as its example's risk_log.jsonl row holds it."""
    return {
        "attempt_index": item.attempt_index,
        "clean": item.clean,
        "graph_clean": item.graph_clean,
        "answer_changed": item.answer_changed,
        "accepted": bool(item.verdict and item.verdict.accepted),
        "rejection_reasons": list(item.verdict.rejection_reasons) if item.verdict else [],
    }


def _process_example(
    record: DatasetRecord,
    manifest: RunManifest,
    provider,
    triggered_ids: set[str] | None,
) -> ExampleResult:
    """Run one example end to end."""
    cfg = manifest.config
    r0 = ReasoningTrace.from_text(record.cached_initial_trace or "")
    diag0 = diagnose(record.problem_text, r0)
    decision = trigger(diag0.meta, diag0.graph, r0, cfg)

    final, records, accepted_index = r0, (), None
    if manifest.mode == MODE_SOLVE_ALL:
        targeted = True
    elif triggered_ids is not None:
        targeted = record.example_id in triggered_ids
    else:
        targeted = decision.triggered
    if targeted:
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
    risk = _risk_log_entry(record, diag0, decision.triggered, records, accepted_index)
    return ExampleResult(prediction, records, risk)


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


def _report_texts(report: RunReport) -> dict[str, str]:
    """report.json and report.txt of ``report``, by PipelineResult.paths key."""
    return {"report_json": jsonl_line(report.to_json_dict()), "report_text": render_report(report)}


def _in_order(process, items, concurrency: int):
    """Yield ``process(item)`` for each item in order, with up to ``concurrency`` calls in flight.

    At 1 this is a plain ``map``: no thread starts. Above 1 every item is
    submitted to a pool of ``concurrency`` threads, so a thread that
    finishes takes the next item at once, whichever item is still running
    at the head. Closing the generator cancels the calls that have not
    started and waits for the others; their results, and any error they
    raise, are dropped, since a serial run that stopped at the same item
    would not have made those calls.
    """
    if concurrency == 1:
        yield from map(process, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(concurrency) as pool:
        yield from pool.map(process, items)


def _run_examples(manifest: RunManifest) -> PipelineResult:
    # In the order the artifacts list the examples, so each is written as it is taken.
    dataset = sorted(load_dataset(manifest.dataset_path), key=lambda record: record.example_id)
    dataset_ids = {record.example_id for record in dataset}
    provider = _build_provider(manifest)
    triggered_ids = _load_triggered_ids(manifest.triggered_ids_path, dataset_ids)

    output = manifest.output_dir
    output.mkdir(parents=True, exist_ok=True)
    progress_path = output / PROGRESS_FILE

    checkpointed = {}
    if manifest.resume and progress_path.exists():
        # Every example runs again; the checkpoint serves what it recorded.
        provider = _read_checkpoint(progress_path, provider)
        checkpointed = provider.entries
        unknown = {example_id for example_id, _ in checkpointed} - dataset_ids
        if unknown:
            raise ValueError(
                f"{progress_path} holds {len(unknown)} example ids that are not in "
                f"{manifest.dataset_path}, e.g. {min(unknown)!r}; resume only "
                f"with the dataset the run started on"
            )
        log.info("resuming: %d attempts already recorded", len(checkpointed))

    process = partial(
        _process_example, manifest=manifest, provider=provider, triggered_ids=triggered_ids
    )
    paths = {key: output / name for key, name in ARTIFACT_FILES.items()}
    temps = {key: path.with_name(path.name + ".tmp") for key, path in paths.items()}
    tally = ReportTally()
    outage_streak = 0
    try:
        with (
            closing(provider),
            open(progress_path, "a" if manifest.resume else "w", encoding="utf-8") as progress,
            open(temps["predictions"], "w", encoding="utf-8") as predictions,
            open(temps["candidates"], "w", encoding="utf-8") as candidates,
            open(temps["risk_log"], "w", encoding="utf-8") as risk_log,
            closing(_in_order(process, dataset, provider.concurrency)) as outcomes,
        ):
            for result in outcomes:
                row, records = result.prediction, result.records
                lines = [jsonl_line(record.to_json_dict()) for record in records]
                predictions.write(jsonl_line(row.to_json_dict()))
                candidates.write("".join(lines))
                risk_log.write(jsonl_line(result.risk))
                tally.add(row, records)
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
        report = compute_report(tally, harm_budget=manifest.harm_budget)
        texts = {"risk_summary": jsonl_line(tally.risk_summary()), **_report_texts(report)}
        for key, text in texts.items():
            temps[key].write_text(text, encoding="utf-8")
        for key, path in paths.items():
            os.replace(temps[key], path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
    return PipelineResult(report=report, paths=paths)


def filter_dataset(
    dataset_path: Path,
    output_dir: Path,
    sample_size: int | None = None,
    seed: int | None = None,
) -> tuple[dict[str, Path], dict]:
    """Keep the numeric-answer records, optionally sample them; returns (paths, counts)."""
    if sample_size is not None and seed is None:
        raise ValueError("sampling requires a seed")
    dataset = load_dataset(dataset_path)
    output_dir.mkdir(parents=True, exist_ok=True)
    result = filter_numeric(dataset)

    paths = {
        "numeric_pool": output_dir / "numeric_pool.jsonl",
        "filter_counts": output_dir / "filter_counts.json",
    }
    write_dataset(result.kept, paths["numeric_pool"])
    counts = {
        "pool": len(dataset),
        "kept": len(result.kept),
        "rejected": result.counts(),
        "rejected_ids": result.rejected_ids,
    }
    write_artifact(paths["filter_counts"], [json.dumps(counts, ensure_ascii=False, indent=2), "\n"])

    if sample_size is not None:
        subset = sample_subset(result.kept, sample_size, seed)
        paths["sample"] = output_dir / f"sample_seed{seed}.jsonl"
        paths["sample_ids"] = output_dir / f"sample_seed{seed}_ids.txt"
        write_dataset(subset, paths["sample"])
        write_artifact(paths["sample_ids"], [record.example_id + "\n" for record in subset])
    return paths, counts


def recompute_report(
    predictions_path: Path, output_dir: Path, harm_budget: float | None = None
) -> PipelineResult:
    """Recompute report.json/.txt from a run's saved predictions, without a provider.

    The candidate-flow block needs the run's candidates.jsonl, read first,
    by example, from beside the predictions file when it is there. Each
    prediction is then counted as it is read, with its candidates, so no
    prediction is held. A second prediction of an example, or a second
    candidate of an attempt, is refused naming its line; a candidate of an
    example with no prediction, or an accepted attempt with no candidate,
    is refused naming both files.
    """
    _check_harm_budget(harm_budget)
    candidates_path = predictions_path.parent / CANDIDATES_FILE
    tally = ReportTally(with_flow=candidates_path.exists())
    records_by_id: dict[str, dict[int, CandidateRecord]] = {}
    if tally.with_flow:
        for where, row in read_jsonl(candidates_path):
            record = CandidateRecord.from_json_dict(where, row)
            attempts = records_by_id.setdefault(record.example_id, {})
            if record.attempt_index in attempts:
                raise DatasetError(
                    f"{where}: duplicate row for example {record.example_id!r} "
                    f"attempt {record.attempt_index!r}"
                )
            attempts[record.attempt_index] = record
    seen: set[str] = set()
    missing = None
    for where, row in read_jsonl(predictions_path):
        prediction = Prediction.from_json_dict(where, row)
        example_id = prediction.example_id
        if example_id in seen:
            raise DatasetError(f"{where}: duplicate row for example {example_id!r}")
        seen.add(example_id)
        attempts = records_by_id.pop(example_id, {})
        if tally.with_flow and prediction.accepted and prediction.accepted_attempt not in attempts:
            missing = example_id if missing is None else missing
        tally.add(prediction, attempts.values())
    if records_by_id or missing is not None:
        fault = (
            f"example {min(records_by_id)!r} has no prediction"
            if records_by_id
            else f"example {missing!r} has no candidate at its accepted attempt"
        )
        raise DatasetError(f"{candidates_path} is not the run of {predictions_path}: {fault}")
    report = compute_report(tally, harm_budget=harm_budget)
    output_dir.mkdir(parents=True, exist_ok=True)
    paths = {key: output_dir / ARTIFACT_FILES[key] for key in ("report_json", "report_text")}
    for key, text in _report_texts(report).items():
        write_artifact(paths[key], [text])
    return PipelineResult(report=report, paths=paths)


def run_pipeline(manifest: RunManifest) -> PipelineResult:
    """Run guarded repair or a direct-regeneration baseline over a dataset."""
    manifest.validate()
    return _run_examples(manifest)
