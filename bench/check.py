"""Output check for the benchmark's runs.

A run is correct when its deterministic artifacts agree with the
generator's expectations (``expected.json``) and, for every repetition
after the first, are byte-identical to the first. Separately, a run of each
workload at ``GOLDEN_SEED`` must reproduce the artifact digests committed in
``reference_digests.json``, which pins every artifact field the generator
cannot derive. Each check returns the ids of the examples it failed, which
feed the failure counts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"
GOLDEN_SEED = 0

ARTIFACTS = (
    "predictions.jsonl",
    "candidates.jsonl",
    "risk_log.jsonl",
    "risk_summary.json",
    "report.json",
    "report.txt",
)
PER_EXAMPLE = ("predictions.jsonl", "candidates.jsonl", "risk_log.jsonl")
REPORT_COUNTS = ("total", "fixed", "broken", "accepted", "attempts")
PREDICTION_FIELDS = (
    "initial_answer",
    "final_answer",
    "gold_answer",
    "triggered",
    "trigger_reasons",
    "accepted_attempt",
    "final_trace",
)


def read_artifacts(out_dir: Path) -> dict[str, bytes]:
    """Bytes of every deterministic artifact; a missing file reads as empty."""
    artifacts = {}
    for name in ARTIFACTS:
        path = out_dir / name
        artifacts[name] = path.read_bytes() if path.exists() else b""
    return artifacts


def _rows(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines() if line.strip()]


def _by_example(data: bytes) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for row in _rows(data):
        grouped.setdefault(row["example_id"], []).append(row)
    return grouped


def _attempt_problems(expected: dict, row: dict, risk: dict | None) -> list[str]:
    problems = []
    for key in ("raw_output", "retry_output", "retried", "parsed", "error", "answer_changed"):
        if row.get(key) != expected[key]:
            problems.append(f"{key} is {row.get(key)!r}, expected {expected[key]!r}")
    verdict = row.get("verdict") or {}
    reasons = verdict.get("rejection_reasons", [])
    if bool(verdict.get("accepted")) != expected["accepted"]:
        problems.append(f"accepted is {verdict.get('accepted')!r}, expected {expected['accepted']!r}")
    kind = expected["kind"]
    if kind == "noop" and reasons != ["no_op"]:
        problems.append(f"no-op candidate rejected for {reasons}")
    if kind == "unclean" and reasons != ["unclean"]:
        problems.append(f"unclean candidate rejected for {reasons}")
    if kind == "unsafe" and (not reasons or {"no_op", "unclean"} & set(reasons)):
        problems.append(f"unsafe candidate rejected for {reasons}")
    if risk is not None and risk.get("accepted") != expected["accepted"]:
        problems.append("risk log disagrees on acceptance")
    return problems


def _example_problems(expected: dict, prediction: dict | None, candidates: list, risk: dict | None) -> list[str]:
    if prediction is None:
        return ["no prediction"]
    problems = [
        f"{key} is {prediction.get(key)!r}, expected {expected[key]!r}"
        for key in PREDICTION_FIELDS
        if prediction.get(key) != expected[key]
    ]
    if prediction.get("accepted") != (expected["accepted_attempt"] is not None):
        problems.append("accepted flag disagrees with accepted_attempt")
    attempts = expected["attempts"]
    if len(candidates) != len(attempts):
        problems.append(f"{len(candidates)} candidate rows, expected {len(attempts)}")
        return problems
    if risk is None:
        return problems + ["no risk log row"]
    if risk.get("triggered") != expected["triggered"]:
        problems.append("risk log disagrees on trigger")
    if risk.get("accepted_attempt") != expected["accepted_attempt"]:
        problems.append("risk log disagrees on accepted attempt")
    risk_candidates = risk.get("candidates", [])
    for index, (want, row) in enumerate(zip(attempts, candidates)):
        if row.get("attempt_index") != index:
            problems.append(f"attempt {index}: attempt_index is {row.get('attempt_index')!r}")
        item = risk_candidates[index] if index < len(risk_candidates) else None
        problems.extend(f"attempt {index}: {text}" for text in _attempt_problems(want, row, item))
    return problems


def check_expectations(artifacts: dict[str, bytes], expected: dict) -> tuple[set[str], list[str]]:
    """Examples whose artifacts disagree with the generator, and why.

    A wrong report count fails every example, since the report describes
    the whole run.
    """
    examples = expected["examples"]
    all_ids = {row["example_id"] for row in examples}
    try:
        predictions = {eid: rows[0] for eid, rows in _by_example(artifacts["predictions.jsonl"]).items()}
        candidates = _by_example(artifacts["candidates.jsonl"])
        risks = {eid: rows[0] for eid, rows in _by_example(artifacts["risk_log.jsonl"]).items()}
        report = json.loads(artifacts["report.json"] or b"{}")
        summary = json.loads(artifacts["risk_summary.json"] or b"{}")
    except (ValueError, KeyError) as exc:
        return all_ids, [f"unreadable artifacts: {exc}"]

    failed: set[str] = set()
    problems: list[str] = []
    for row in examples:
        eid = row["example_id"]
        found = _example_problems(row, predictions.get(eid), candidates.get(eid, []), risks.get(eid))
        if found:
            failed.add(eid)
            problems.extend(f"{eid}: {text}" for text in found)
    unexpected = set(predictions) - all_ids
    if unexpected:
        problems.append(f"unexpected example ids: {sorted(unexpected)[:5]}")
    want = expected["spec"]["report"]
    wrong = [f"report {key} is {report.get(key)!r}, expected {want[key]!r}" for key in REPORT_COUNTS if report.get(key) != want[key]]
    want = expected["spec"]["risk_summary"]
    wrong += [
        f"risk summary {key} is {summary.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if summary.get(key) != value
    ]
    if wrong or unexpected:
        problems.extend(wrong)
        failed = set(all_ids)
    return failed, problems


def diff_reference(artifacts: dict[str, bytes], reference: dict[str, bytes], all_ids: set[str]) -> set[str]:
    """Examples whose artifact rows differ from the reference run's bytes."""
    if artifacts == reference:
        return set()
    failed: set[str] = set()
    for name in ARTIFACTS:
        if artifacts[name] == reference[name]:
            continue
        if name not in PER_EXAMPLE:
            return set(all_ids)
        try:
            ours, theirs = _by_example(artifacts[name]), _by_example(reference[name])
        except (ValueError, KeyError):
            return set(all_ids)
        differing = {eid for eid in all_ids if ours.get(eid) != theirs.get(eid)}
        # The same rows in another order or layout still break byte identity.
        failed |= differing or all_ids
    return failed


def transport_failures(artifacts: dict[str, bytes]) -> set[str]:
    """Examples with a generation that ended in a transport error."""
    try:
        rows = _rows(artifacts["candidates.jsonl"])
    except ValueError:
        return set()
    return {row["example_id"] for row in rows if (row.get("error") or "").startswith("transport")}


def check_runs(expected: dict, run_dirs: list[Path]) -> tuple[int, list[str]]:
    """Check a workload's completed runs; the first is the reference.

    Returns the number of example runs that failed, and why. The reference
    is checked against the expectations and every later run against the
    reference's bytes. Examples wrong in the reference stay wrong in every
    run that matches it.
    """
    if not run_dirs:
        return 0, []
    all_ids = {row["example_id"] for row in expected["examples"]}
    reference = read_artifacts(run_dirs[0])
    wrong, problems = check_expectations(reference, expected)
    wrong |= transport_failures(reference)
    failed = len(wrong)
    for run_dir in run_dirs[1:]:
        artifacts = read_artifacts(run_dir)
        differing = diff_reference(artifacts, reference, all_ids) | transport_failures(artifacts)
        failed += len(differing | wrong)
        if differing:
            problems.append(f"{run_dir.name}: {len(differing)} examples differ from the reference run")
    return failed, problems


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in read_artifacts(out_dir).items()}


def golden_digests(workload: str) -> dict[str, str]:
    """The committed artifact digests of ``workload`` at ``GOLDEN_SEED``."""
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        reference = json.load(handle)
    if reference["seed"] != GOLDEN_SEED:
        raise ValueError(f"{REFERENCE_FILE.name} holds seed {reference['seed']}, expected {GOLDEN_SEED}")
    return reference["workloads"].get(workload, {})


def write_golden_digests(workload: str, found: dict[str, str]) -> None:
    reference = {"seed": GOLDEN_SEED, "workloads": {}}
    if REFERENCE_FILE.exists():
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            reference = json.load(handle)
    reference["workloads"][workload] = found
    with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")


def golden_problems(workload: str, found: dict[str, str]) -> list[str]:
    """Artifacts whose digest differs from the committed one."""
    want = golden_digests(workload)
    if not want:
        return [f"no committed digests for {workload} in {REFERENCE_FILE.name}"]
    return [
        f"golden seed {GOLDEN_SEED}: {name} differs from {REFERENCE_FILE.name}"
        for name in ARTIFACTS
        if found.get(name) != want.get(name)
    ]
