import dataclasses
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_repair.answers import ReasoningTrace
from trace_repair.diagnostics import (
    CATEGORY_ARITHMETIC_ERROR,
    CATEGORY_CLEAN,
    CATEGORY_GENERATION_FAILURE,
    CATEGORY_LOGICAL_CONTRADICTION,
    CATEGORY_LOW_SYMBOLIC_COVERAGE,
    CATEGORY_MISSING_CONSTRAINT,
    MetaDiagnosis,
    constraint_coverage,
    diagnose,
    meta_diagnose,
)
from trace_repair.equations import (
    check_equations,
    naming_statements,
    numeric_mentions,
    operand_index,
    parse_number,
)
from trace_repair.risk_graph import analyse_problem, extract_quantities, semantic_graph_check

# Python 3.10 has no digit limit; its runs still test long numbers.
SYS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LIMIT = SYS_LIMIT or 4300


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

    def test_no_mention_scan_when_every_problem_number_is_an_operand(self, count_calls):
        diag0 = diagnose(self.PROBLEM, "3 + 4 = 7\nFinal Answer: 7")
        scans = count_calls("equations", "numeric_mentions")
        candidate = "3 * 4 = 12\n12 - 2 = 10\nFinal Answer: 10"
        diagnose(diag0.problem, candidate)
        assert scans == []

    def test_one_mention_scan_of_a_candidate_that_leaves_a_number_unused(self, count_calls):
        diag0 = diagnose(self.PROBLEM, "3 + 4 = 7\nFinal Answer: 7")
        scans = count_calls("equations", "numeric_mentions")
        candidate = "3 * 4 = 12\nHe gives away 2.\nFinal Answer: 10"
        assert diagnose(diag0.problem, candidate).missing_quantities == ()
        assert [args[0] for args in scans] == [candidate]

    def test_coverage_is_the_used_share(self):
        problem, trace = "3 bags, 4 candies, 99 ribbons", "3 * 4 = 12\nFinal Answer: 12"
        coverage = diagnose(problem, trace).meta.constraint_coverage
        missing, share = constraint_coverage(
            analyse_problem(problem).mentions, trace, check_equations(trace)
        )
        assert coverage == share == 2 / 3
        assert missing == [Fraction(99)]

    def test_each_number_is_parsed_once_per_text(self):
        # Every number here is a plain integer, so a text's distinct number
        # tokens are its distinct digit runs. The trace is built first, as
        # the pipeline does, so only the diagnosis is counted.
        problem = (
            "Tom has 3 bags with 4 candies each. Ann has 2 times more bags. "
            "How many candies are left?"
        )
        trace = ReasoningTrace.from_text(
            "3 * 4 = 12\n12 - 2 = 10\nCandies left = 10\nFinal Answer: 10"
        )
        parse_number.cache_clear()
        diagnose(problem, trace)
        misses = parse_number.cache_info().misses
        assert misses <= len(_digit_runs(problem) | _digit_runs(trace.text))
        diagnose(problem, trace)
        assert parse_number.cache_info().misses == misses

    def test_candidate_diagnosis_parses_only_candidate_numbers(self):
        diag0 = diagnose(self.PROBLEM, "3 + 4 = 7\nFinal Answer: 7")
        candidate = ReasoningTrace.from_text("3 * 4 = 12\n12 - 5 = 7\nFinal Answer: 7")
        parse_number.cache_clear()
        diagnose(diag0.problem, candidate)
        misses = parse_number.cache_info().misses
        assert misses <= len(_digit_runs(candidate.text))
        # "2" is the problem's alone, so the candidate's diagnosis never read it.
        assert "2" in _digit_runs(self.PROBLEM) - _digit_runs(candidate.text)
        parse_number("2")
        assert parse_number.cache_info().misses == misses + 1


def _digit_runs(text):
    return set(re.findall(r"\d+", text))


class TestParsedTokens:
    def test_a_cached_none_stays_none(self):
        parse_number.cache_clear()
        for token in ("1/0", "1/0"):
            assert parse_number(token) is None
        info = parse_number.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.skipif(not SYS_LIMIT, reason="no int-to-string digit limit")
    def test_a_token_over_the_limit_is_not_kept(self):
        parse_number.cache_clear()
        for token in ("9" * LIMIT, "9" * LIMIT, "9" * 10 * LIMIT, "1," * LIMIT):
            assert parse_number(token) is None
        assert parse_number.cache_info().currsize == 0
        # Under the limit once its commas go: kept by its digits.
        assert parse_number("1" + ",1" * (LIMIT // 2)) == int("1" * (LIMIT // 2 + 1))
        assert parse_number.cache_info().currsize == 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                (
                    "1" * (LIMIT - 1),
                    "1" * LIMIT,
                    "$" + "2" * (LIMIT - 1),
                    "3 * 4 = 12",
                    "12 - 5 = 7",
                    "2 + 2 = 5",
                    "1/2 = 0.5",
                    "x-3+4=1",
                    "1,2345",
                    "$3.50",
                    "lcm(4, 6) = 12",
                    "Total pens = 5",
                    "Total pens = 6",
                    "each",
                    "3 more than",
                    "two times more",
                    "Tom gave",
                    "Final Answer: 7",
                    "\n",
                )
            ),
            max_size=12,
        ).map(" ".join),
        st.lists(
            st.sampled_from(("1" * (LIMIT - 1), "1" * LIMIT, "3", "4", "12", "0.5", "bags", "=", "+")),
            max_size=8,
        ).map(" ".join),
    )
    def test_every_scan_reads_the_same_on_a_cold_and_a_warm_cache(self, text, problem):
        """Each scan gives the same result with the cache cleared before it and
        once a diagnosis has filled the cache."""
        analysis = analyse_problem(problem)
        checks = check_equations(text)
        trace = ReasoningTrace.from_text(text)
        scans = (
            lambda: analyse_problem(problem),
            lambda: check_equations(text),
            lambda: numeric_mentions(text),
            lambda: extract_quantities(text),
            lambda: naming_statements(text),
            lambda: ReasoningTrace.from_text(text),
            lambda: constraint_coverage(analysis.mentions, text, checks),
            lambda: semantic_graph_check(analysis, trace, checks),
            lambda: diagnose(problem, text),
        )
        cold = []
        for scan in scans:
            parse_number.cache_clear()
            cold.append(scan())
        diagnose(problem, text)
        assert [scan() for scan in scans] == cold
        # The shared forms diagnose() uses read as the stand-alone ones.
        assert diagnose(problem, text).graph == semantic_graph_check(problem, text)
        assert semantic_graph_check(analysis, trace, checks) == semantic_graph_check(problem, text)

    def test_threads_diagnose_as_a_serial_run_does(self):
        rng = random.Random(20261019)
        pairs = []
        for _ in range(40):
            a, b = rng.randint(1, 999), rng.randint(1, 999)
            claimed = a * b + rng.choice((0, 0, 1))
            problem = f"Tom has {a} bags with {b} candies each and {rng.randint(1, 99)} more than Ann."
            trace = f"{a} * {b} = {claimed}\nTotal candies = {claimed}\nFinal Answer: {claimed}"
            pairs.append((problem, trace))
        parse_number.cache_clear()
        serial = [diagnose(problem, trace) for problem, trace in pairs]
        parse_number.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda pair: diagnose(*pair), pairs * 4, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 4


_COVERAGE_WORDS = (
    "3", "4", "5", "12", "1000", "1,000", "$5", "$1,000", "0.5", "1/2", "-3", "1/0", "twelve",
    "3 + 4 = 7", "1,000 - 5 = 995", "$5 * 2 = 10", "12 / 4 = 3", "lcm(4, 6) = 12", "Tom", ".",
)
_coverage_texts = st.lists(
    st.sampled_from(_COVERAGE_WORDS) | st.text(alphabet="0123456789$,./+-= ", max_size=8),
    max_size=12,
).map(" ".join)


class TestCoverageOracle:
    @settings(max_examples=300, deadline=None)
    @given(_coverage_texts, _coverage_texts)
    def test_coverage_matches_scanning_every_trace(self, problem, trace):
        mentions = analyse_problem(problem).mentions
        checks = check_equations(trace)
        index = operand_index(checks)
        missing = sorted(mentions - (numeric_mentions(trace) | set(index)))
        share = (len(mentions) - len(missing)) / len(mentions) if mentions else 1.0
        assert constraint_coverage(mentions, trace, checks, index) == (missing, share)
        assert constraint_coverage(mentions, trace, checks) == (missing, share)


# MetaDiagnosis as a frozen dataclass with the same name and fields: the
# oracle for its repr, equality and hash, which the diagnose digest reads.
FrozenMeta = dataclasses.make_dataclass(
    "MetaDiagnosis", list(MetaDiagnosis.__annotations__.items()), frozen=True
)
_shares = st.floats(0.0, 1.0)
_meta_fields = st.tuples(
    st.sampled_from((
        CATEGORY_CLEAN, CATEGORY_GENERATION_FAILURE, CATEGORY_ARITHMETIC_ERROR,
        CATEGORY_LOGICAL_CONTRADICTION, CATEGORY_MISSING_CONSTRAINT, CATEGORY_LOW_SYMBOLIC_COVERAGE,
    )),
    _shares, _shares, _shares, st.sampled_from((0.0, 0.5, 1.0)),
)


class TestMetaDiagnosisAsFrozenDataclass:
    @settings(max_examples=200, deadline=None)
    @given(_meta_fields, _meta_fields)
    def test_repr_equality_and_hash_match(self, fields, other):
        meta, frozen = MetaDiagnosis(*fields), FrozenMeta(*fields)
        assert repr(meta) == repr(frozen)
        assert hash(meta) == hash(frozen)
        assert meta == MetaDiagnosis(*fields)
        assert (meta == MetaDiagnosis(*other)) == (frozen == FrozenMeta(*other))

    def test_fields_cannot_be_set(self):
        meta = diagnose("Ann has 3 apples.", "3 + 4 = 7\nFinal Answer: 7").meta
        with pytest.raises(AttributeError):
            meta.meta_score = 1.0
