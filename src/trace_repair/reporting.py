"""Transition labeling and every aggregate the pipeline reports.

Gold answers enter the system only here. Transition accounting, harm
rate, accepted precision, the exact paired sign test, the rule-of-three
bound, the candidate-flow decomposition, and multi-run aggregation all
live in this module, with the flow identities checked on every report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .answers import AnswerValue, answers_equivalent, normalize_answer
from .orchestrator import CandidateRecord

TRANSITION_CC = "C->C"
TRANSITION_CW = "C->W"
TRANSITION_WC = "W->C"
TRANSITION_WW = "W->W"

TRANSITIONS = (TRANSITION_WC, TRANSITION_CW, TRANSITION_WW, TRANSITION_CC)


class ReportIdentityError(ValueError):
    """A flow or accounting identity failed: labels and records disagree."""


def _check_identity(holds: bool, identity: str) -> None:
    # An explicit raise, not an assert, so the check also runs under -O.
    if not holds:
        raise ReportIdentityError(f"report identity failed: {identity}")


@dataclass(frozen=True)
class TransitionLabel:
    example_id: str
    initially_correct: bool
    finally_correct: bool
    triggered: bool
    accepted: bool

    @property
    def transition(self) -> str:
        first = "C" if self.initially_correct else "W"
        second = "C" if self.finally_correct else "W"
        return f"{first}->{second}"


def _answer_values() -> Callable[[AnswerValue | str], AnswerValue]:
    """A lookup that normalizes each distinct answer string once and passes
    an ``AnswerValue`` through; each report step keeps its own."""
    memo: dict[str, AnswerValue] = {}

    def value(answer: AnswerValue | str) -> AnswerValue:
        if isinstance(answer, AnswerValue):
            return answer
        text = str(answer)
        found = memo.get(text)
        if found is None:
            found = memo[text] = normalize_answer(text)
        return found

    return value


def label_transitions(
    initial_answers: Sequence[AnswerValue | str],
    final_answers: Sequence[AnswerValue | str],
    gold_answers: Sequence[AnswerValue | str],
    example_ids: Sequence[str] | None = None,
    triggered: Sequence[bool] | None = None,
    accepted: Sequence[bool] | None = None,
) -> list[TransitionLabel]:
    """Label each example's correctness transition against gold."""
    count = len(gold_answers)
    if len(initial_answers) != count or len(final_answers) != count:
        raise ValueError("initial, final, and gold sequences must align")
    if example_ids is None:
        example_ids = [str(index) for index in range(count)]
    value = _answer_values()
    labels = []
    for index in range(count):
        gold = value(gold_answers[index])
        initially = answers_equivalent(value(initial_answers[index]), gold)
        finally_ = answers_equivalent(value(final_answers[index]), gold)
        labels.append(
            TransitionLabel(
                example_id=example_ids[index],
                initially_correct=initially,
                finally_correct=finally_,
                triggered=bool(triggered[index]) if triggered is not None else False,
                accepted=bool(accepted[index]) if accepted is not None else False,
            )
        )
    return labels


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
    candidate_flow: dict | None = None
    outcome_counts: dict = field(default_factory=dict)
    harm_budget: float | None = None
    harm_budget_exceeded: bool | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


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


def _candidate_matches_gold(
    record: CandidateRecord, gold: AnswerValue, value: Callable[[str], AnswerValue]
) -> bool:
    if record.parsed is None:
        return False
    return answers_equivalent(value(record.parsed.final_answer), gold)


def compute_report(
    labels: Sequence[TransitionLabel],
    records: Iterable[CandidateRecord] | None = None,
    gold_by_id: Mapping[str, AnswerValue | str] | None = None,
    harm_budget: float | None = None,
) -> RunReport:
    """Aggregate one run's labels and candidate records into a report.

    The candidate-flow decomposition needs the records plus gold answers;
    when records are omitted (report-only recomputations without a
    candidate log) the flow block is left out.
    """
    total = len(labels)
    if total == 0:
        raise ValueError("cannot report on an empty run")

    initially_correct = sum(1 for label in labels if label.initially_correct)
    finally_correct = sum(1 for label in labels if label.finally_correct)
    fixed = sum(1 for label in labels if label.transition == TRANSITION_WC)
    broken = sum(1 for label in labels if label.transition == TRANSITION_CW)
    accepted_labels = [label for label in labels if label.accepted]
    accepted = len(accepted_labels)

    outcome_counts = {transition: 0 for transition in TRANSITIONS}
    for label in accepted_labels:
        outcome_counts[label.transition] += 1

    initial_accuracy = 100.0 * initially_correct / total
    final_accuracy = 100.0 * finally_correct / total
    harm_rate = 100.0 * broken / total

    fixed_accepted = outcome_counts[TRANSITION_WC]
    accepted_precision = 100.0 * fixed_accepted / accepted if accepted else None

    init_wrong = total - initially_correct
    error_repair_rate = 100.0 * fixed / init_wrong if init_wrong else None

    sign_p = sign_test(fixed, broken) if fixed + broken >= 1 else None
    bound = rule_of_three(total) if broken == 0 else None

    attempts, flow = 0, None
    if records is not None:
        record_list = list(records)
        attempts = len(record_list)
        value = _answer_values()
        gold_map = {key: value(gold) for key, gold in (gold_by_id or {}).items()}
        matches_by_example: dict[str, bool] = {}
        for record in record_list:
            gold = gold_map.get(record.example_id)
            if gold is None:
                continue
            if _candidate_matches_gold(record, gold, value):
                matches_by_example[record.example_id] = True

        trig_w = sum(1 for label in labels if not label.initially_correct and label.triggered)
        corr_c = sum(
            1
            for label in labels
            if not label.initially_correct and matches_by_example.get(label.example_id, False)
        )
        flow = {
            "InitW": init_wrong,
            "TrigW": trig_w,
            "CorrC": corr_c,
            "AccC": fixed,
            "RejC": corr_c - fixed,
            "NoC": init_wrong - corr_c,
            "FinalW": init_wrong - fixed,
            "Brk": broken,
        }
        # Flow identities hold on every run by construction; recheck the
        # cross-source ones that depend on record/label consistency.
        _check_identity(flow["RejC"] == flow["CorrC"] - flow["AccC"], "RejC = CorrC - AccC")
        _check_identity(flow["NoC"] == flow["InitW"] - flow["CorrC"], "NoC = InitW - CorrC")
        _check_identity(flow["FinalW"] == flow["InitW"] - fixed, "FinalW = InitW - fixed")
        _check_identity(
            flow["RejC"] >= 0, "RejC >= 0 (accepted fixes without a gold-matching candidate)"
        )

    # Accounting identity in exact counts.
    _check_identity(
        finally_correct == initially_correct + fixed - broken,
        "final correct = initial correct + fixed - broken",
    )
    _check_identity(
        accepted == sum(outcome_counts.values()), "accepted = sum of accepted outcomes"
    )
    return RunReport(
        total=total,
        initial_accuracy=initial_accuracy,
        final_accuracy=final_accuracy,
        delta=final_accuracy - initial_accuracy,
        fixed=fixed,
        broken=broken,
        harm_rate=harm_rate,
        accepted=accepted,
        attempts=attempts,
        accepted_precision=accepted_precision,
        error_repair_rate=error_repair_rate,
        sign_test_p=sign_p,
        rule_of_three_bound=bound,
        candidate_flow=flow,
        outcome_counts=outcome_counts,
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


def render_report(report: RunReport) -> str:
    """Human-readable report: one summary row plus the detailed listing."""
    columns = (
        ("Initial", fmt2(report.initial_accuracy)),
        ("Final", fmt2(report.final_accuracy)),
        ("Delta", fmt2(report.delta)),
        ("Fixed", str(report.fixed)),
        ("Broken", str(report.broken)),
        ("Harm", fmt2(report.harm_rate)),
        ("Accepted", str(report.accepted)),
        ("Attempts", str(report.attempts)),
        ("Prec.", fmt2(report.accepted_precision)),
    )
    header = "".join(f"{name:>10}" for name, _ in columns)
    row = "".join(f"{value:>10}" for _, value in columns)
    lines = [
        header,
        row,
        "",
        f"examples            {report.total:>10d}",
        f"initial accuracy    {fmt2(report.initial_accuracy):>10}",
        f"final accuracy      {fmt2(report.final_accuracy):>10}",
        f"delta               {fmt2(report.delta):>10}",
        f"fixed (W->C)        {report.fixed:>10d}",
        f"broken (C->W)       {report.broken:>10d}",
        f"harm rate           {fmt2(report.harm_rate):>10}",
        f"accepted            {report.accepted:>10d}",
        f"attempts            {report.attempts:>10d}",
        f"accepted precision  {fmt2(report.accepted_precision):>10}",
        f"error repair rate   {fmt2(report.error_repair_rate):>10}",
    ]
    if report.sign_test_p is not None:
        lines.append(f"sign test p         {report.sign_test_p:>10.3e}")
    else:
        lines.append("sign test p                 --")
    lines.append(
        f"rule of three bound {fmt2(report.rule_of_three_bound):>10}"
    )
    if report.candidate_flow:
        flow = report.candidate_flow
        lines.append(
            "candidate flow      "
            + " ".join(f"{key}={flow[key]}" for key in
                       ("InitW", "TrigW", "CorrC", "AccC", "RejC", "NoC", "FinalW", "Brk"))
        )
    if report.outcome_counts:
        lines.append(
            "accepted outcomes   "
            + " ".join(f"{key}={report.outcome_counts[key]}" for key in TRANSITIONS)
        )
    if report.harm_budget is not None:
        status = "EXCEEDED" if report.harm_budget_exceeded else "within budget"
        # In percent, as the harm rate above it.
        lines.append(f"harm budget         {fmt2(100.0 * report.harm_budget):>10} ({status})")
    return "\n".join(lines) + "\n"
