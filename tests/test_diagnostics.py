from fractions import Fraction

import pytest

from trace_repair.answers import ReasoningTrace
from trace_repair.diagnostics import (
    CATEGORY_ARITHMETIC_ERROR,
    CATEGORY_CLEAN,
    CATEGORY_GENERATION_FAILURE,
    CATEGORY_LOGICAL_CONTRADICTION,
    CATEGORY_LOW_SYMBOLIC_COVERAGE,
    CATEGORY_MISSING_CONSTRAINT,
    constraint_coverage,
    diagnose,
    meta_diagnose,
)
from trace_repair.equations import check_equations
from trace_repair.risk_graph import analyse_problem


def _meta(problem, trace_text):
    trace = ReasoningTrace.from_text(trace_text)
    checks = check_equations(trace_text)
    coverage = diagnose(problem, trace_text).meta.constraint_coverage
    return meta_diagnose(trace, checks, coverage)


class TestCoverage:
    def test_all_quantities_used(self):
        assert diagnose("3 bags, 4 candies", "3 * 4 = 12").meta.constraint_coverage == 1.0

    def test_half_used(self):
        assert diagnose("3 bags, 4 candies", "the answer is 4").meta.constraint_coverage == 0.5

    def test_no_numbers_in_problem(self):
        assert diagnose("a problem with no numbers", "anything 5").meta.constraint_coverage == 1.0

    def test_equation_operands_count(self):
        # 12 appears only as an operand of the sub-equation.
        assert diagnose("12 eggs and 5 hens", "12 - 5 = 7").meta.constraint_coverage == 1.0

    def test_distinct_mention_counting(self):
        # Repeated problem quantities count once.
        assert diagnose("3 cats and 3 dogs and 8 birds", "3 + 8 = 11").meta.constraint_coverage == 1.0

    def test_value_based_matching(self):
        assert diagnose("3.50 per kg", "the price is 7/2").meta.constraint_coverage == 1.0


class TestMetaDiagnose:
    def test_empty_is_generation_failure_with_zero_score(self):
        meta = _meta("2 and 3", "")
        assert meta.category == CATEGORY_GENERATION_FAILURE
        assert meta.meta_score == 0.0

    def test_answerless_is_generation_failure(self):
        meta = _meta("2 and 3", "thinking about it but never answering")
        assert meta.category == CATEGORY_GENERATION_FAILURE

    def test_false_equation_is_arithmetic_error(self):
        meta = _meta("2 and 3", "2 + 3 = 6\nFinal Answer: 6")
        assert meta.category == CATEGORY_ARITHMETIC_ERROR

    def test_contradiction(self):
        trace = "2 + 3 = 5\nTotal pens = 5\n4 + 4 = 8\nTotal pens = 8\nFinal Answer: 8"
        meta = _meta("2 pens, 3 pens, 4 pens", trace)
        assert meta.category == CATEGORY_LOGICAL_CONTRADICTION

    def test_missing_constraint_weighted_score(self):
        problem = "He has 2 red, 3 blue, 4 green, 5 yellow, 6 black marbles."
        trace = "2 + 3 = 5\n5 + 4 = 9\n9 + 5 = 14\nFinal Answer: 14"
        meta = _meta(problem, trace)
        assert meta.category == CATEGORY_MISSING_CONSTRAINT
        assert meta.constraint_coverage == pytest.approx(0.8)
        # 0.5 * 1.0 + 0.3 * 0.8 + 0.2 * 1.0
        assert meta.meta_score == pytest.approx(0.94)

    def test_low_symbolic_coverage(self):
        meta = _meta("no digits in this problem", "it is obviously\nFinal Answer: 4")
        assert meta.category == CATEGORY_LOW_SYMBOLIC_COVERAGE
        assert meta.equation_verification_rate == 0.0

    def test_clean_requires_verified_equation(self):
        meta = _meta("2 and 3", "2 + 3 = 5\nFinal Answer: 5")
        assert meta.category == CATEGORY_CLEAN
        assert meta.meta_score == pytest.approx(1.0)

    def test_format_score_unmarked(self):
        meta = _meta("2 and 3", "2 + 3 = 5 so it is 5")
        assert meta.format_score == 0.5

    def test_format_score_duplicate_answer_lines(self):
        meta = _meta("2 and 3", "2 + 3 = 5\nFinal Answer: 5\nFinal Answer: 5")
        assert meta.format_score == 0.0

    def test_monotone_in_components(self):
        problem = "2 red, 3 blue, 9 green"
        low = _meta(problem, "2 + 3 = 6\nFinal Answer: 6")
        high = _meta(problem, "2 + 3 = 5\nFinal Answer: 5")
        assert high.meta_score >= low.meta_score

    def test_determinism(self):
        problem = "5 and 6"
        trace = "5 + 6 = 11\nFinal Answer: 11"
        assert _meta(problem, trace) == _meta(problem, trace)


class TestDiagnoseBundle:
    def test_bundle_fields(self):
        report = diagnose("3 bags and 4 candies", "3 * 4 = 12\nFinal Answer: 12")
        assert report.meta.constraint_coverage == 1.0
        assert report.meta.category == CATEGORY_CLEAN
        assert report.graph.diagnosis == "ok"
        assert report.missing_quantities == ()

    def test_missing_quantities_listed(self):
        report = diagnose("3 bags, 4 candies, 99 ribbons", "3 * 4 = 12\nFinal Answer: 12")
        assert report.missing_quantities == ("99",)


class TestAnalysedOnce:
    PROBLEM = "Tom has 3 bags with 4 candies each. He gives away 2 more than Ann. How many are left?"

    def test_one_equation_scan_per_diagnose(self, count_calls):
        calls = count_calls("equations", "check_equations")
        diagnose(self.PROBLEM, "3 * 4 = 12\n12 - 2 = 10\nFinal Answer: 10")
        assert len(calls) == 1

    def test_candidate_diagnosis_reuses_the_problem_analysis(self, count_calls):
        candidate = "3 * 4 = 12\n12 - 5 = 7\nFinal Answer: 7"
        diag0 = diagnose(self.PROBLEM, "3 + 4 = 7\nFinal Answer: 7")
        expected = diagnose(self.PROBLEM, candidate)
        graphs = count_calls("risk_graph", "build_relation_graph")
        assert diagnose(diag0.problem, candidate) == expected
        assert graphs == []

    def test_each_text_is_tokenised_once(self, count_calls):
        trace = "3 + 4 = 7\nFinal Answer: 7"
        tokenised = count_calls("risk_graph", "_tokenize")
        diagnose(self.PROBLEM, trace)
        assert [args[0] for args in tokenised] == [self.PROBLEM, trace]

    def test_candidate_text_is_tokenised_once(self, count_calls):
        diag0 = diagnose(self.PROBLEM, "3 + 4 = 7\nFinal Answer: 7")
        tokenised = count_calls("risk_graph", "_tokenize")
        candidate = "3 * 4 = 12\n12 - 2 = 10\nFinal Answer: 10"
        diagnose(diag0.problem, candidate)
        assert [args[0] for args in tokenised] == [candidate]

    def test_candidate_diagnosis_reads_no_problem_text(self, count_calls):
        diag0 = diagnose(self.PROBLEM, "3 + 4 = 7\nFinal Answer: 7")
        questions = count_calls("risk_graph", "_question_part")
        diagnose(diag0.problem, "3 * 4 = 12\n12 - 2 = 10\nFinal Answer: 10")
        assert questions == []

    def test_one_mention_scan_per_candidate_diagnosis(self, count_calls):
        diag0 = diagnose(self.PROBLEM, "3 + 4 = 7\nFinal Answer: 7")
        scans = count_calls("equations", "numeric_mentions")
        candidate = "3 * 4 = 12\n12 - 2 = 10\nFinal Answer: 10"
        diagnose(diag0.problem, candidate)
        assert [args[0] for args in scans] == [candidate]

    def test_coverage_is_the_used_share(self):
        problem, trace = "3 bags, 4 candies, 99 ribbons", "3 * 4 = 12\nFinal Answer: 12"
        coverage = diagnose(problem, trace).meta.constraint_coverage
        missing, share = constraint_coverage(
            analyse_problem(problem).mentions, trace, check_equations(trace)
        )
        assert coverage == share == 2 / 3
        assert missing == [Fraction(99)]
