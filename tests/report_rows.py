"""Consistent predictions.jsonl and candidates.jsonl rows for report tests,
the ``ReportTally`` that counts them, as ``run`` and ``report`` do, and a
recount of a run's report and risk summary from its row files."""

import json

from trace_repair.answers import answers_equivalent, normalize_answer
from trace_repair.orchestrator import CandidateRecord, ParsedCandidate
from trace_repair.pipeline import Prediction
from trace_repair.reporting import ReportTally


def prediction(example_id, initial, final, gold="7", triggered=False, accepted_attempt=None):
    """A predictions.jsonl row: a triggered row has a trigger reason and an
    accepted row its accepted attempt. An unaccepted row must keep its
    initial answer; ``Prediction`` raises ``ValueError`` otherwise."""
    return Prediction(
        example_id=example_id,
        initial_answer=initial,
        final_answer=final,
        gold_answer=gold,
        triggered=triggered,
        trigger_reasons=["low_meta_score"] if triggered else [],
        accepted=accepted_attempt is not None,
        accepted_attempt=accepted_attempt,
        final_trace=f"Final Answer: {final}",
    )


def candidate(example_id, attempt, answer=None):
    """A candidates.jsonl row; without an answer its output did not parse."""
    return CandidateRecord(
        example_id=example_id,
        attempt_index=attempt,
        prompt_hash="",
        raw_output="",
        parsed=ParsedCandidate(steps=("s",), final_answer=answer) if answer else None,
    )


def tally_of(predictions, records=()):
    """A ``ReportTally`` fed each prediction with its example's records."""
    tally = ReportTally()
    by_id = {}
    for record in records:
        by_id.setdefault(record.example_id, []).append(record)
    for row in predictions:
        tally.add(row, by_id.get(row.example_id, ()))
    return tally


def assert_recounts(paths, gold_answers) -> dict:
    """Check a run's report.json against a recount of its predictions.jsonl
    with ``gold_answers`` (by example id), and its risk_summary.json against
    the column sums of risk_log.jsonl's candidate patterns; return report.json."""
    gold = {example_id: normalize_answer(answer) for example_id, answer in gold_answers.items()}
    rows = [json.loads(line) for line in open(paths["predictions"], encoding="utf-8")]
    initially, finally_ = (
        [answers_equivalent(normalize_answer(str(row[key])), gold[row["example_id"]]) for row in rows]
        for key in ("initial_answer", "final_answer")
    )
    report = json.loads(paths["report_json"].read_text(encoding="utf-8"))
    assert report["fixed"] == sum(not before and after for before, after in zip(initially, finally_))
    assert report["broken"] == sum(before and not after for before, after in zip(initially, finally_))
    assert report["accepted"] == sum(row["accepted"] for row in rows)
    assert report["final_accuracy"] == 100.0 * sum(finally_) / len(rows)

    patterns = [
        pattern
        for row in map(json.loads, open(paths["risk_log"], encoding="utf-8"))
        for pattern in row["candidates"]
    ]
    changing = [pattern for pattern in patterns if pattern["answer_changed"]]
    summary = json.loads(paths["risk_summary"].read_text(encoding="utf-8"))
    # Acceptance has one source: the accepted attempts are the accepted patterns.
    assert summary["accepted_patterns"] == report["accepted"]
    assert summary == {
        "patterns_inspected": len(patterns),
        "accepted_patterns": sum(pattern["accepted"] for pattern in patterns),
        "rejected_patterns": sum(not pattern["accepted"] for pattern in patterns),
        "noop_rejections": sum("no_op" in pattern["rejection_reasons"] for pattern in patterns),
        "answer_changing_candidates": len(changing),
        "answer_changing_accepted": sum(pattern["accepted"] for pattern in changing),
        "answer_changing_rejected": sum(not pattern["accepted"] for pattern in changing),
        "accepted_answer_changing_graph_clean": sum(
            pattern["accepted"] and pattern["graph_clean"] is True for pattern in changing
        ),
        "candidate_graph_clean_patterns": sum(pattern["graph_clean"] is True for pattern in patterns),
        "candidate_graph_risk_patterns": sum(pattern["graph_clean"] is False for pattern in patterns),
    }
    return report
