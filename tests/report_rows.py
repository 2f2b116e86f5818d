"""Consistent predictions.jsonl and candidates.jsonl rows for report tests,
and the ``ReportTally`` that counts them, as ``run`` and ``report`` do."""

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
