"""Every aggregate the pipeline reports, counted from a run's rows.

Gold answers enter the system only here. Transition accounting, harm
rate, accepted precision, the exact paired sign test, the rule-of-three
bound, the candidate-flow decomposition, and multi-run aggregation all
live in this module. Every report is counted by one ``ReportTally``, fed
one example at a time from its predictions.jsonl row and its
candidates.jsonl rows, so a run's report holds counts, not its examples.
Fixed, broken and accepted are read off its accepted-transition table. Two
identities compare predictions with candidates: a candidate is accepted
exactly at its prediction's accepted attempt, and RejC >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Iterable, Sequence

from .answers import AnswerValue, answers_equivalent, normalize_answer
from .orchestrator import CandidateRecord
from .policy import REJECT_NO_OP

TRANSITION_CC = "C->C"
TRANSITION_CW = "C->W"
TRANSITION_WC = "W->C"
TRANSITION_WW = "W->W"

TRANSITIONS = (TRANSITION_WC, TRANSITION_CW, TRANSITION_WW, TRANSITION_CC)


class ReportIdentityError(ValueError):
    """A flow or accounting identity failed: predictions and candidates disagree."""


@dataclass(frozen=True)
class RunReport:
    total: int = 0
    initial_accuracy: float = 0.0
    final_accuracy: float = 0.0
    delta: float = 0.0
    fixed: int = 0
    broken: int = 0
    harm_rate: float = 0.0
    accepted: int = 0
    attempts: int = 0
    accepted_precision: float | None = None
    error_repair_rate: float | None = None
    sign_test_p: float | None = None
    rule_of_three_bound: float | None = None
    candidate_flow: dict = field(default_factory=dict)
    outcome_counts: dict = field(default_factory=dict)
    harm_budget: float | None = None
    harm_budget_exceeded: bool | None = None

    def to_json_dict(self) -> dict:
        """The report's fields as one JSON row; its two dicts are shared, not copied."""
        return dict(vars(self))


def round2(value: float) -> float:
    """Two-decimal rounding, half away from zero, as rendered in tables."""
    return float(Decimal(str(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def fmt2(value: float | None) -> str:
    if value is None:
        return "--"
    return f"{round2(value):.2f}"


def sign_test(fixed: int, broken: int) -> float:
    """Two-sided exact binomial sign test over the changed examples.

    p = 2 * sum_{k <= min(f, b)} C(n, k) / 2^n, capped at 1, with
    n = f + b. Exact rational arithmetic, converted to float at the end.
    """
    if fixed < 0 or broken < 0:
        raise ValueError("counts must be nonnegative")
    n = fixed + broken
    if n < 1:
        raise ValueError("sign test needs at least one changed example")
    k = min(fixed, broken)
    tail = sum(math.comb(n, i) for i in range(k + 1))
    p = Fraction(2 * tail, 2**n)
    return float(min(p, Fraction(1)))


def rule_of_three(zero_harm_total: int) -> float:
    """Approximate 95% upper bound (percent) when zero events are observed."""
    if zero_harm_total < 1:
        raise ValueError("total must be at least 1")
    return 300.0 / zero_harm_total


_TRANSITION_OF = {
    (True, True): TRANSITION_CC,
    (True, False): TRANSITION_CW,
    (False, True): TRANSITION_WC,
    (False, False): TRANSITION_WW,
}


def candidate_pattern(record: CandidateRecord, accepted: bool) -> dict:
    """One candidate's acceptance pattern, as its example's risk_log.jsonl row holds it."""
    verdict = record.verdict
    return {
        "attempt_index": record.attempt_index,
        "clean": record.clean,
        "graph_clean": record.graph_clean,
        "answer_changed": record.answer_changed,
        "accepted": accepted,
        "rejection_reasons": list(verdict.rejection_reasons) if verdict else [],
    }


class ReportTally:
    """Every count a run's report and risk summary read, fed one example at a time.

    ``add`` is the one way an example is counted, from its predictions.jsonl
    row and its candidates.jsonl rows, whether a run has just made them or
    ``report`` reads them back. It holds counts and one memo of normalized
    answers, so each distinct answer string is normalized once per report
    and nothing else grows with the number of examples. Every report has
    both row files, so every report has its candidate-flow block.

    Each example is counted once. ``Prediction`` refuses an unaccepted
    example whose final answer is not its initial one, so only the accepted
    examples, counted by transition in ``outcome_counts``, change
    correctness: ``compute_report`` reads fixed, broken and accepted there.
    A candidate's pattern is accepted exactly when it is the prediction's
    accepted attempt, so the baselines' accept-all attempts, which have no
    verdict, count as accepted patterns too.
    """

    def __init__(self) -> None:
        self._values: dict[str, AnswerValue] = {}
        self.total = self.initially_correct = 0
        self.outcome_counts = dict.fromkeys(TRANSITIONS, 0)
        self.triggered_wrong = self.corrected = 0
        self.attempts = self.accepted_patterns = self.noop_rejections = 0
        self.changing = self.changing_accepted = self.changing_accepted_graph_clean = 0
        self.graph_clean = self.graph_risky = 0

    def value(self, answer: str | None) -> AnswerValue:
        """``answer`` normalized once per distinct string; a JSON null reads as ``"None"``."""
        text = str(answer)
        found = self._values.get(text)
        if found is None:
            found = self._values[text] = normalize_answer(text)
        return found

    def correct(self, answer: str | None, gold: AnswerValue) -> bool:
        return answers_equivalent(self.value(answer), gold)

    def add(self, prediction, records: Iterable[CandidateRecord]) -> list[dict]:
        """Count one example from its predictions.jsonl row (its initial, final
        and gold answers and its triggered and accepted flags) and its
        candidates.jsonl rows: each candidate's acceptance pattern, and whether
        any candidate's parsed answer matches gold. Returns the patterns, in
        the order of ``records``. A verdict that disagrees with the
        prediction's accepted attempt raises ``ReportIdentityError``."""
        gold = self.value(prediction.gold_answer)
        matched = False
        patterns = []
        for record in records:
            accepted = record.attempt_index == prediction.accepted_attempt
            if record.verdict is not None and record.verdict.accepted != accepted:
                raise ReportIdentityError(
                    f"report identity failed: example {prediction.example_id!r} attempt "
                    f"{record.attempt_index} has verdict accepted={not accepted}, but the "
                    f"prediction's accepted attempt is {prediction.accepted_attempt}"
                )
            pattern = candidate_pattern(record, accepted)
            patterns.append(pattern)
            self.attempts += 1
            if accepted:
                self.accepted_patterns += 1
            if REJECT_NO_OP in pattern["rejection_reasons"]:
                self.noop_rejections += 1
            if pattern["answer_changed"]:
                self.changing += 1
                if accepted:
                    self.changing_accepted += 1
                    if pattern["graph_clean"]:
                        self.changing_accepted_graph_clean += 1
            if pattern["graph_clean"] is True:
                self.graph_clean += 1
            elif pattern["graph_clean"] is False:
                self.graph_risky += 1
            if record.parsed is not None:
                matched = self.correct(record.parsed.final_answer, gold) or matched
        initially_correct = self.correct(prediction.initial_answer, gold)
        self.total += 1
        if initially_correct:
            self.initially_correct += 1
        else:
            if prediction.triggered:
                self.triggered_wrong += 1
            if matched:
                self.corrected += 1
        if prediction.accepted:
            finally_correct = self.correct(prediction.final_answer, gold)
            self.outcome_counts[_TRANSITION_OF[initially_correct, finally_correct]] += 1
        return patterns

    def risk_summary(self) -> dict:
        """Acceptance-decision pattern counts of the candidate records."""
        return {
            "patterns_inspected": self.attempts,
            "accepted_patterns": self.accepted_patterns,
            "rejected_patterns": self.attempts - self.accepted_patterns,
            "noop_rejections": self.noop_rejections,
            "answer_changing_candidates": self.changing,
            "answer_changing_accepted": self.changing_accepted,
            "answer_changing_rejected": self.changing - self.changing_accepted,
            "accepted_answer_changing_graph_clean": self.changing_accepted_graph_clean,
            "candidate_graph_clean_patterns": self.graph_clean,
            "candidate_graph_risk_patterns": self.graph_risky,
        }


def compute_report(tally: ReportTally, harm_budget: float | None = None) -> RunReport:
    """The report of the examples ``tally`` has counted, annotated with ``harm_budget``.

    ``run``, ``baseline`` and ``report`` each feed a ``ReportTally`` one
    example at a time and finish here. Every count is read off the tally's
    accepted-transition table; the cross-file identity RejC >= 0 is
    checked with an explicit raise, so it also runs under -O.
    """
    total = tally.total
    if total == 0:
        raise ValueError("cannot report on an empty run")
    outcomes = tally.outcome_counts
    fixed, broken = outcomes[TRANSITION_WC], outcomes[TRANSITION_CW]
    accepted = sum(outcomes.values())
    initial_accuracy = 100.0 * tally.initially_correct / total
    final_accuracy = 100.0 * (tally.initially_correct + fixed - broken) / total
    init_wrong = total - tally.initially_correct

    corr_c = tally.corrected
    if corr_c < fixed:
        raise ReportIdentityError(
            "report identity failed: RejC >= 0 (accepted fixes without a gold-matching candidate)"
        )
    flow = {
        "InitW": init_wrong,
        "TrigW": tally.triggered_wrong,
        "CorrC": corr_c,
        "AccC": fixed,
        "RejC": corr_c - fixed,
        "NoC": init_wrong - corr_c,
        "FinalW": init_wrong - fixed,
        "Brk": broken,
    }
    return RunReport(
        total=total,
        initial_accuracy=initial_accuracy,
        final_accuracy=final_accuracy,
        delta=final_accuracy - initial_accuracy,
        fixed=fixed,
        broken=broken,
        harm_rate=100.0 * broken / total,
        accepted=accepted,
        attempts=tally.attempts,
        accepted_precision=100.0 * fixed / accepted if accepted else None,
        error_repair_rate=100.0 * fixed / init_wrong if init_wrong else None,
        sign_test_p=sign_test(fixed, broken) if fixed + broken >= 1 else None,
        rule_of_three_bound=rule_of_three(total) if broken == 0 else None,
        candidate_flow=flow,
        outcome_counts=dict(outcomes),
        harm_budget=harm_budget,
        # The budget is a share, as broken / total is; harm_rate is a percentage.
        harm_budget_exceeded=(broken / total > harm_budget) if harm_budget is not None else None,
    )


@dataclass(frozen=True)
class FieldStats:
    mean: float
    std: float
    minimum: float
    maximum: float


AGGREGATE_FIELDS = (
    "initial_accuracy",
    "final_accuracy",
    "delta",
    "fixed",
    "broken",
    "accepted",
)


def aggregate_runs(reports: Sequence[RunReport]) -> dict[str, FieldStats]:
    """Mean, population standard deviation, and range across runs."""
    if len(reports) < 2:
        raise ValueError("aggregation needs at least two runs")
    stats: dict[str, FieldStats] = {}
    for name in AGGREGATE_FIELDS:
        values = [float(getattr(report, name)) for report in reports]
        mean = sum(values) / len(values)
        variance = sum((value - mean) ** 2 for value in values) / len(values)
        stats[name] = FieldStats(
            mean=mean,
            std=math.sqrt(variance),
            minimum=min(values),
            maximum=max(values),
        )
    return stats


def _fmt_p(value: float | None) -> str:
    """A sign-test p-value: too small for two decimals, so in exponent form."""
    return "--" if value is None else f"{value:.3e}"


# Each number render_report lists, in order: its summary column (None for
# none), its listing label, its RunReport field and its formatter.
REPORT_FIELDS = (
    (None, "examples", "total", str),
    ("Initial", "initial accuracy", "initial_accuracy", fmt2),
    ("Final", "final accuracy", "final_accuracy", fmt2),
    ("Delta", "delta", "delta", fmt2),
    ("Fixed", "fixed (W->C)", "fixed", str),
    ("Broken", "broken (C->W)", "broken", str),
    ("Harm", "harm rate", "harm_rate", fmt2),
    ("Accepted", "accepted", "accepted", str),
    ("Attempts", "attempts", "attempts", str),
    ("Prec.", "accepted precision", "accepted_precision", fmt2),
    (None, "error repair rate", "error_repair_rate", fmt2),
    (None, "sign test p", "sign_test_p", _fmt_p),
    (None, "rule of three bound", "rule_of_three_bound", fmt2),
)


def render_report(report: RunReport) -> str:
    """Human-readable report: one summary row plus the detailed listing."""
    values = [
        (column, label, fmt(getattr(report, name))) for column, label, name, fmt in REPORT_FIELDS
    ]
    summary = [(column, value) for column, _, value in values if column]
    lines = [
        "".join(f"{column:>10}" for column, _ in summary),
        "".join(f"{value:>10}" for _, value in summary),
        "",
        *(f"{label:<20}{value:>10}" for _, label, value in values),
    ]
    for label, counts in (
        ("candidate flow", report.candidate_flow),
        ("accepted outcomes", report.outcome_counts),
    ):
        lines.append(f"{label:<20}" + " ".join(f"{key}={count}" for key, count in counts.items()))
    if report.harm_budget is not None:
        status = "EXCEEDED" if report.harm_budget_exceeded else "within budget"
        # In percent, as the harm rate above it.
        lines.append(f"{'harm budget':<20}{fmt2(100.0 * report.harm_budget):>10} ({status})")
    return "\n".join(lines) + "\n"
