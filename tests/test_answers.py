import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_repair.answers import (
    KIND_DECIMAL,
    KIND_FRACTION,
    KIND_INTEGER,
    KIND_NONE,
    KIND_RATIO_OR_TIME,
    KIND_YES_NO,
    ReasoningTrace,
    answers_equivalent,
    extract_answer,
    normalize_answer,
)


class TestNormalize:
    @pytest.mark.parametrize(
        "raw, canonical, kind",
        [
            ("12.0", "12", KIND_INTEGER),
            ("4/6", "2/3", KIND_FRACTION),
            ("$3.50 (dollars)", "3.5", KIND_DECIMAL),
            ("1,059,955", "1059955", KIND_INTEGER),
            ("007", "7", KIND_INTEGER),
            ("+42", "42", KIND_INTEGER),
            ("-12.50", "-12.5", KIND_DECIMAL),
            (".5", "0.5", KIND_DECIMAL),
            ("12.", "12", KIND_INTEGER),
            ("4/2", "2", KIND_INTEGER),
            ("-4/6", "-2/3", KIND_FRACTION),
            ("2:3", "2:3", KIND_RATIO_OR_TIME),
            ("12.0:50", "12:50", KIND_RATIO_OR_TIME),
            ("Yes.", "yes", KIND_YES_NO),
            ("NO", "no", KIND_YES_NO),
            ("", "", KIND_NONE),
            ("   ", "", KIND_NONE),
            ("50%", "50", KIND_INTEGER),
            ("0.0", "0", KIND_INTEGER),
            ("-0.0", "0", KIND_INTEGER),
        ],
    )
    def test_examples(self, raw, canonical, kind):
        value = normalize_answer(raw)
        assert value.canonical == canonical
        assert value.kind == kind

    def test_unparseable_keeps_trimmed_lowercase_copy(self):
        value = normalize_answer("  None Of The Above ")
        assert value.kind == KIND_NONE
        assert value.canonical == "none of the above"

    def test_zero_denominator_is_not_a_fraction(self):
        value = normalize_answer("5/0")
        assert value.kind == KIND_NONE

    @pytest.mark.parametrize(
        "raw",
        [
            "1" * 5000,
            "-" + "1" * 5000,
            "1" * 5000 + ".5",
            "1," + ",".join(["111"] * 1700),
            "1" * 5000 + "/3",
            "3/" + "1" * 5000,
            "1" * 5000 + ":2",
            "2:" + "1" * 5000,
        ],
        ids=["integer", "negative", "decimal", "comma", "numerator", "denominator", "ratio", "ratio_right"],
    )
    def test_digit_run_too_long_for_int_is_no_answer(self, raw):
        assert normalize_answer(raw).kind == KIND_NONE
        trace = ReasoningTrace.from_text(f"step\nFinal Answer: {raw}")
        assert not trace.has_answer

    @pytest.mark.parametrize(
        "raw",
        ["12.0", "4/6", "$3.50 (dollars)", "1,059,955", "2:3", "yes", "hello there", ".5"],
    )
    def test_idempotent(self, raw):
        once = normalize_answer(raw)
        twice = normalize_answer(once.canonical)
        assert twice.canonical == once.canonical

    @given(st.integers(min_value=-(10**12), max_value=10**12))
    def test_integers_roundtrip(self, number):
        value = normalize_answer(str(number))
        assert value.kind == KIND_INTEGER
        assert value.canonical == str(number)

    @given(
        st.fractions(
            min_value=-1000, max_value=1000, max_denominator=999
        )
    )
    @settings(max_examples=200)
    def test_fraction_idempotence(self, fraction):
        raw = f"{fraction.numerator}/{fraction.denominator}"
        once = normalize_answer(raw)
        assert normalize_answer(once.canonical).canonical == once.canonical


class TestExtract:
    def test_marked_integer(self):
        result = extract_answer("So x=7. Final Answer: 42")
        assert result.value.canonical == "42"

    def test_comma_number_without_marker(self):
        result = extract_answer("the total is 1,059,955")
        assert result.value.canonical == "1059955"

    def test_empty(self):
        result = extract_answer("")
        assert result.value.kind == KIND_NONE

    def test_marker_variants(self):
        assert extract_answer("the final answer is 9").value.canonical == "9"
        assert extract_answer("Answer: 3/4").value.canonical == "3/4"

    def test_last_marker_wins(self):
        result = extract_answer("Answer: 5\nsome more work\nFinal Answer: 8")
        assert result.value.canonical == "8"

    def test_no_fallback_before_marker(self):
        # A marker with nothing after it never falls back to earlier text.
        result = extract_answer("we get 7 and 9. Final Answer: nothing numeric")
        assert result.value.kind == KIND_NONE

    def test_last_token_fallback(self):
        assert extract_answer("2 then 5 then 11").value.canonical == "11"

    def test_answer_line_count(self):
        text = "Answer: 5\nscratch\nFinal Answer: 5\nfinal answer is 5"
        assert extract_answer(text).answer_line_count == 3

    def test_yes_no_answers(self):
        assert extract_answer("Final Answer: Yes").value.kind == KIND_YES_NO

    def test_determinism(self):
        text = "18 - 6 = 12\nFinal Answer: 12"
        assert extract_answer(text) == extract_answer(text)


class TestEquivalence:
    @pytest.mark.parametrize(
        "left, right, expected",
        [
            ("1059955", "1,059,955", True),
            ("2/3", "4/6", True),
            ("12", "13", False),
            ("12", "12.0", True),
            ("3.5", "7/2", True),
            ("yes", "YES", True),
            ("yes", "no", False),
            ("2:3", "4:6", True),
            ("12:50", "6:25", True),
            ("2:3", "3:2", False),
            ("2:3", "2/3", False),
            ("", "", True),
        ],
    )
    def test_pairs(self, left, right, expected):
        a = normalize_answer(left)
        b = normalize_answer(right)
        assert answers_equivalent(a, b) is expected
        assert answers_equivalent(b, a) is expected

    @given(
        st.one_of(
            st.integers(min_value=-10**6, max_value=10**6).map(str),
            st.fractions(min_value=-100, max_value=100, max_denominator=99).map(
                lambda f: f"{f.numerator}/{f.denominator}"
            ),
            st.sampled_from(["yes", "no", "2:3", "0.25", "1,250"]),
        )
    )
    @settings(max_examples=300)
    def test_reflexive(self, raw):
        value = normalize_answer(raw)
        assert answers_equivalent(value, value)

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=300)
    def test_transitive_over_scaled_fractions(self, fraction, k1, k2):
        a = normalize_answer(f"{fraction.numerator}/{fraction.denominator}")
        b = normalize_answer(f"{fraction.numerator * k1}/{fraction.denominator * k1}")
        c = normalize_answer(f"{fraction.numerator * k2}/{fraction.denominator * k2}")
        assert answers_equivalent(a, b)
        assert answers_equivalent(b, c)
        assert answers_equivalent(a, c)


class TestReasoningTrace:
    def test_basic_fields(self):
        trace = ReasoningTrace.from_text("3 + 4 = 7\nFinal Answer: 7")
        assert trace.answer.canonical == "7"
        assert trace.has_answer
        assert not trace.is_empty

    def test_empty_trace(self):
        trace = ReasoningTrace.from_text("   \n ")
        assert trace.is_empty
        assert not trace.has_answer
