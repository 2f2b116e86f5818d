import math
import os
import random
import subprocess
import sys
from pathlib import Path

from dataclasses import asdict, replace

import pytest

import trace_repair
from report_rows import candidate, prediction, tally_of
from trace_repair.datasets import jsonl_line
from trace_repair.policy import AcceptanceVerdict
from trace_repair.reporting import (
    ReportIdentityError,
    ReportTally,
    RunReport,
    aggregate_runs,
    compute_report,
    fmt2,
    render_report,
    round2,
    rule_of_three,
    sign_test,
)


def _impossible_flow():
    """An accepted W->C fix whose only candidate misses gold, so RejC = -1."""
    return tally_of(
        [prediction("a", "5", "7", triggered=True, accepted_attempt=0)], [candidate("a", 0, "5")]
    )


def _accepted_candidates(rows):
    """Each accepted row's candidate at its accepted attempt, answering its
    final answer, so every accepted fix has a gold-matching candidate."""
    return [candidate(row.example_id, row.accepted_attempt, row.final_answer) for row in rows if row.accepted]


class TestTransitions:
    def test_transitions(self):
        rows = [
            prediction("a", "5", "7", triggered=True, accepted_attempt=0),
            prediction("b", "7", "7.0", triggered=True, accepted_attempt=1),
            prediction("c", "9", "8", triggered=True, accepted_attempt=0),
            prediction("d", "7", "5", triggered=True, accepted_attempt=2),
            prediction("e", "4", "4", gold="4"),
        ]
        report = compute_report(tally_of(rows, _accepted_candidates(rows)))
        assert report.outcome_counts == {"W->C": 1, "C->W": 1, "W->W": 1, "C->C": 1}
        assert (report.accepted, report.fixed, report.broken) == (4, 1, 1)

    def test_gold_equivalence_used(self):
        row = prediction("a", "1,000", "1000.0", "1000", accepted_attempt=0)
        report = compute_report(tally_of([row]))
        assert report.initial_accuracy == report.final_accuracy == 100.0
        assert report.outcome_counts["C->C"] == 1


class TestSignTest:
    def test_symmetry(self):
        assert sign_test(5, 2) == sign_test(2, 5)

    def test_one_one(self):
        assert sign_test(1, 1) == 1.0

    def test_zero_broken_closed_form(self):
        for fixed in range(1, 40):
            assert sign_test(fixed, 0) == pytest.approx(2 * 0.5**fixed, rel=1e-12)

    def test_requires_a_changed_example(self):
        with pytest.raises(ValueError):
            sign_test(0, 0)


class TestRuleOfThree:
    def test_values(self):
        assert round2(rule_of_three(1319)) == 0.23
        assert round2(rule_of_three(1000)) == 0.30
        assert rule_of_three(3) == 100.0

    def test_requires_positive_total(self):
        with pytest.raises(ValueError):
            rule_of_three(0)


class TestComputeReport:
    def test_small_run(self):
        rows = [
            prediction("a", "5", "7", triggered=True, accepted_attempt=0),
            prediction("b", "7", "7"),
            prediction("c", "9", "9", triggered=True),
        ]
        records = [candidate("a", 0, "7"), candidate("c", 0, "1"), candidate("c", 1, "2")]
        report = compute_report(tally_of(rows, records))
        assert report.total == 3
        assert report.fixed == 1
        assert report.broken == 0
        assert report.accepted == 1
        assert report.attempts == 3
        assert report.accepted_precision == 100.0
        assert report.candidate_flow == {
            "InitW": 2,
            "TrigW": 2,
            "CorrC": 1,
            "AccC": 1,
            "RejC": 0,
            "NoC": 1,
            "FinalW": 1,
            "Brk": 0,
        }

    def test_json_row_is_the_deep_copys_row(self):
        """The report's shallow JSON dict writes the line a deep copy writes."""
        rows = [
            prediction("a", "5", "7", triggered=True, accepted_attempt=0),
            prediction("b", "7", "5", accepted_attempt=0),
            prediction("c", "9", "9", triggered=True),
        ]
        records = [candidate("a", 0, "7"), candidate("b", 0, "5"), candidate("c", 0, "1")]
        report = compute_report(tally_of(rows, records), harm_budget=0.5)
        assert report.candidate_flow and report.outcome_counts
        row = report.to_json_dict()
        assert jsonl_line(row) == jsonl_line(asdict(report))

    def test_accounting_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 40)
            rows = []
            for index in range(n):
                initial = "7" if rng.random() < 0.6 else "5"
                accepted = rng.random() < 0.3
                flipped = "5" if initial == "7" else "7"
                final = flipped if accepted and rng.random() < 0.7 else initial
                rows.append(
                    prediction(
                        str(index),
                        initial,
                        final,
                        triggered=accepted or rng.random() < 0.4,
                        accepted_attempt=0 if accepted else None,
                    )
                )
            report = compute_report(tally_of(rows, _accepted_candidates(rows)))
            initial_count = round(report.initial_accuracy * report.total / 100)
            final_count = round(report.final_accuracy * report.total / 100)
            assert final_count == initial_count + report.fixed - report.broken

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            compute_report(ReportTally())

    def test_harm_budget_annotation(self):
        tally = tally_of([prediction("a", "7", "5", accepted_attempt=0)])
        report = compute_report(tally, harm_budget=0.5)
        assert report.harm_budget_exceeded is True

    @pytest.mark.parametrize("broken, status", [(1, "within budget"), (2, "within budget"), (3, "EXCEEDED")])
    def test_harm_budget_is_a_share_of_the_examples(self, broken, status):
        # 0.5%, 1% and 1.5% of 200 examples broken, against a budget of 0.01.
        rows = [prediction(str(index), "7", "5", accepted_attempt=0) for index in range(broken)]
        rows += [prediction(str(index), "7", "7") for index in range(broken, 200)]
        report = compute_report(tally_of(rows), harm_budget=0.01)
        assert report.harm_budget_exceeded is (status == "EXCEEDED")
        # Printed in percent, as the harm rate is.
        assert f"harm budget         {'1.00':>10} ({status})" in render_report(report)

    @pytest.mark.parametrize(
        "accepted_attempt, verdicts",
        [(None, {1: True}), (0, {0: True, 1: True}), (1, {0: False, 1: False})],
        ids=["accepting-verdict-unaccepted-example", "accepting-verdict-off-attempt", "rejected-accepted-attempt"],
    )
    def test_a_verdict_must_agree_with_the_accepted_attempt(self, accepted_attempt, verdicts):
        final = "7" if accepted_attempt is not None else "5"
        row = prediction("a", "5", final, triggered=True, accepted_attempt=accepted_attempt)
        records = [
            replace(candidate("a", attempt, "7"), verdict=AcceptanceVerdict(accepted, "p", ()))
            for attempt, accepted in verdicts.items()
        ]
        with pytest.raises(ReportIdentityError, match="'a' attempt 1 has verdict accepted="):
            tally_of([row], records)

    def test_an_accepted_attempt_without_a_verdict_is_an_accepted_pattern(self):
        """solve_all and solve_triggered accept a parsed attempt without a verdict."""
        row = prediction("a", "5", "7", triggered=True, accepted_attempt=0)
        tally = tally_of([row], [candidate("a", 0, "7")])
        assert tally.risk_summary()["accepted_patterns"] == 1

    def test_impossible_flow_raises(self):
        with pytest.raises(ReportIdentityError, match="RejC >= 0"):
            compute_report(_impossible_flow())

    def test_impossible_flow_raises_under_optimize(self):
        # python -O strips assert statements; the identity check must survive it.
        script = (
            "from test_reporting import _impossible_flow\n"
            "from trace_repair.reporting import ReportIdentityError, compute_report\n"
            "try:\n"
            "    compute_report(_impossible_flow())\n"
            "except ReportIdentityError as exc:\n"
            "    print(exc)\n"
        )
        paths = [Path(trace_repair.__file__).resolve().parents[1], Path(__file__).resolve().parent]
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "RejC >= 0" in result.stdout


class TestAggregate:
    def test_population_std(self):
        reports = [RunReport(delta=value) for value in (9.20, 8.50, 8.70, 9.80)]
        stats = aggregate_runs(reports)
        assert round2(stats["delta"].mean) == 9.05
        assert round2(stats["delta"].std) == 0.50
        assert stats["delta"].minimum == 8.50
        assert stats["delta"].maximum == 9.80

    def test_identical_runs_have_zero_std(self):
        reports = [RunReport(final_accuracy=90.0, fixed=3)] * 3
        stats = aggregate_runs(reports)
        assert stats["final_accuracy"].std == 0.0
        assert stats["fixed"].std == 0.0

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            aggregate_runs([RunReport()])


class TestRendering:
    def test_round_half_up(self):
        assert fmt2(96.885) == "96.89"
        assert fmt2(0.225) == "0.23"
        assert fmt2(None) == "--"
        assert round2(1.005) == 1.01

    def test_render_contains_key_lines(self):
        rows = [prediction("0", "5", "7", triggered=True, accepted_attempt=0)]
        report = compute_report(tally_of(rows, [candidate("0", 0, "7")]))
        text = render_report(report)
        assert "final accuracy" in text
        assert "candidate flow" in text
        assert "accepted outcomes" in text
        assert not math.isnan(report.final_accuracy)
