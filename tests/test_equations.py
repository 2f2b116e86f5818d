import dataclasses
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_repair.equations import (
    OP_ADD,
    OP_DIV,
    OP_GCD,
    OP_LCM,
    OP_MUL,
    OP_SUB,
    EquationCheck,
    _IS_NAMING_GATE,
    _IS_NAMING_RE,
    _LCM_GCD_GATE,
    _LCM_GCD_RE,
    _verify,
    check_equations,
    naming_conflicts,
    naming_statements,
    parse_number,
    verified_results,
)

_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestParseNumber:
    """Plain ASCII digit runs take ``int()``; every value is a ``Fraction``."""

    @pytest.mark.parametrize(
        "token",
        ["0", "7", "007", "000", "1234", "1,200", "1,234,567.25", "-5", "+7", "-007",
         "3.50", "0.5", ".5", "12.", "3/4", "-6/8", "٣", "١٢"],
    )
    def test_agrees_with_fraction_of_the_text(self, token):
        value = parse_number(token)
        assert type(value) is Fraction
        assert value == Fraction(token.replace(",", ""))

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789", min_size=1, max_size=40))
    def test_ascii_digit_runs(self, digits):
        value = parse_number(digits)
        assert type(value) is Fraction
        assert value == Fraction(digits)

    @pytest.mark.parametrize("token", ["²", "①", "3²", "", "1/0", "abc"])
    def test_refuses_what_the_parent_refuses(self, token):
        assert parse_number(token) is None

    @pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python has no int digit limit")
    def test_digit_limit(self):
        assert parse_number("9" * (_DIGIT_LIMIT - 1)) == Fraction(10 ** (_DIGIT_LIMIT - 1) - 1)
        assert parse_number("9" * _DIGIT_LIMIT) is None
        assert parse_number("1," + "0" * (_DIGIT_LIMIT - 2)) == 10 ** (_DIGIT_LIMIT - 2)


class TestCheckEquations:
    @pytest.mark.parametrize(
        "text, operator, verified",
        [
            ("276 / 12 = 23", OP_DIV, True),
            ("LCM(6, 5) = 30", OP_LCM, True),
            ("gcd(12, 8) = 4", OP_GCD, True),
            ("2 + 2 = 5", OP_ADD, False),
            ("10 - 4 = 6", OP_SUB, True),
            ("3 x 4 = 12", OP_MUL, True),
            ("6 × 7 = 42", OP_MUL, True),
            ("10 ÷ 4 = 2.5", OP_DIV, True),
            ("1 / 3 = 1/3", OP_DIV, True),
            ("7 / 0 = 0", OP_DIV, False),
            ("1,000 + 59 = 1,059", OP_ADD, True),
            ("1/2 + 1/3 = 5/6", OP_ADD, True),
            ("-5 + 3 = -2", OP_ADD, True),
        ],
    )
    def test_single_equation(self, text, operator, verified):
        checks = check_equations(text)
        assert len(checks) == 1
        assert checks[0].operator == operator
        assert checks[0].verified is verified

    def test_no_matches(self):
        assert check_equations("no math here at all") == []

    def test_positions_and_order(self):
        checks = check_equations("first 1 + 1 = 2 then 3 * 3 = 9")
        assert len(checks) == 2
        assert checks[0].position < checks[1].position
        assert [check.operator for check in checks] == [OP_ADD, OP_MUL]

    @pytest.mark.parametrize(
        "text, operators",
        [
            ("2+2=5 then gcd(8,12)=3", [OP_ADD, OP_GCD]),
            ("gcd(8,12)=3 then 2+2=5", [OP_GCD, OP_ADD]),
        ],
    )
    def test_mixed_checks_come_in_position_order(self, text, operators):
        assert [check.operator for check in check_equations(text)] == operators

    @pytest.mark.parametrize(
        "text, lhs_text",
        [
            ("2 + 2 = 5", "2 + 2"),
            ("lcm(4, 6) = 12", "lcm(4, 6)"),
            # One character past the second operand, not up to the bracket.
            ("lcm(4, 6 ) = 11", "lcm(4, 6 "),
        ],
    )
    def test_lhs_text(self, text, lhs_text):
        (check,) = check_equations(text)
        assert check.lhs_text == lhs_text

    def test_exact_rational_division(self):
        # a / b = reduced fraction verifies exactly, no tolerance.
        checks = check_equations("7 / 14 = 1/2")
        assert checks[0].verified

    def test_multiline(self):
        checks = check_equations("12 + 30 =\n42")
        assert len(checks) == 1
        assert checks[0].verified

    def test_verified_results(self):
        checks = check_equations("2 + 3 = 5 and 2 + 2 = 5")
        assert verified_results(checks) == {Fraction(5)}

    @given(
        st.integers(min_value=-999, max_value=999),
        st.integers(min_value=-999, max_value=999),
        st.sampled_from(["+", "-", "*"]),
    )
    @settings(max_examples=200)
    def test_constructed_equations_verify(self, a, b, symbol):
        result = {"+": a + b, "-": a - b, "*": a * b}[symbol]
        checks = check_equations(f"{a} {symbol} {b} = {result}")
        assert any(check.verified and check.claimed_result == result for check in checks)
        off = check_equations(f"{a} {symbol} {b} = {result + 1}")
        assert any(not check.verified for check in off)

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
    @settings(max_examples=100)
    def test_division_to_reduced_fraction(self, a, b):
        reduced = Fraction(a, b)
        text = f"{a} / {b} = {reduced.numerator}/{reduced.denominator}"
        checks = check_equations(text)
        assert any(check.verified for check in checks)


def _reference_result(operator, a, b):
    """``a operator b`` by ``Fraction`` arithmetic; None where it is undefined."""
    if operator in (OP_LCM, OP_GCD):
        if a.denominator != 1 or b.denominator != 1:
            return None
        return Fraction((math.lcm if operator == OP_LCM else math.gcd)(int(a), int(b)))
    if operator == OP_DIV:
        return a / b if b else None
    return {OP_ADD: a + b, OP_SUB: a - b, OP_MUL: a * b}[operator]


_OPERANDS = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-60, max_value=60).map(Fraction),
    st.fractions(min_value=-60, max_value=60, max_denominator=24),
)


class TestVerify:
    """Cross-multiplication agrees with ``Fraction`` arithmetic."""

    @given(
        st.sampled_from([OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_LCM, OP_GCD]),
        _OPERANDS,
        _OPERANDS,
        _OPERANDS,
        st.booleans(),
    )
    @settings(max_examples=1000)
    def test_matches_fraction_arithmetic(self, operator, a, b, other, exact):
        result = _reference_result(operator, a, b)
        claimed = result if exact and result is not None else other
        assert _verify(operator, a, b, claimed) is (result == claimed)

    @pytest.mark.parametrize("operator", [OP_ADD, OP_SUB, OP_MUL, OP_DIV])
    def test_negative_and_fractional_operands(self, operator):
        a, b = Fraction(-3, 4), Fraction(5, -6)
        result = _reference_result(operator, a, b)
        assert _verify(operator, a, b, result)
        assert not _verify(operator, a, b, -result)

    def test_zero_divisor_never_verifies(self):
        assert not _verify(OP_DIV, Fraction(0), Fraction(0), Fraction(0))
        assert not _verify(OP_DIV, Fraction(3), Fraction(0), Fraction(0))


class TestNamingStatements:
    def test_basic(self):
        found = naming_statements("Number of trays = 23. Time saved = 64.")
        assert [(s.name, s.value) for s in found] == [
            ("number of trays", Fraction(23)),
            ("time saved", Fraction(64)),
        ]

    def test_gcd_is_form(self):
        found = naming_statements("So the greatest common divisor is 15.")
        assert found and found[0].value == Fraction(15)

    def test_arithmetic_is_not_a_naming_statement(self):
        assert naming_statements("Total = 3 + 4 = 7") == []

    def test_leading_filler_trimmed(self):
        found = naming_statements("and then Total cost = 12")
        assert found[0].name == "total cost"

    def test_conflicts(self):
        text = "Total apples = 7. Total apples = 8.\nFinal Answer: 8"
        conflicts = naming_conflicts(text)
        assert conflicts == [("total apples", (Fraction(7), Fraction(8)))]

    def test_consistent_names_do_not_conflict(self):
        assert naming_conflicts("Total = 7. Total = 7.") == []


# Pieces of lcm/gcd equations and "the ... common ... is" statements, in
# every case, with non-ASCII letters that case-fold near the keyword letters.
_GATE_PIECES = (
    "lcm", "LCM", "Lcm", "gcd", "GCD", "gCd", "common", "COMMON", "Common", "the ", "The ",
    "greatest ", "least ", "divisor ", "multiple ", "is ", "(", ")", ",", " = ", " ", "4",
    "12", "-3", "\u0130", "\u0131", "\u212a", "\u017f", "\u0261", "\u217c", "\u216c",
    "\u0421", "\u041c", "\u03bf", "\u1d0d", "\uff4c", "\u00f1", "\u0144",
)
_ALL_CHARACTERS = "".join(map(chr, range(sys.maxunicode + 1)))
# Each case-insensitive scan with its gate.
_GATES = {"lcm_gcd": (_LCM_GCD_RE, _LCM_GCD_GATE), "is_naming": (_IS_NAMING_RE, _IS_NAMING_GATE)}
_SPACE = st.sampled_from(("", " ", "  ", "\t", "\u00a0", "\u2003"))
_INTEGER = st.sampled_from(("4", "12", "-3", "+6", "\u0663"))
_NUMBER = _INTEGER | st.sampled_from(("1,200", "2.5", "3/4"))


def _recased(words):
    """Each of ``words`` with every letter in a drawn case."""
    return st.sampled_from(words).flatmap(
        lambda word: st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
            lambda upper: "".join(c.upper() if up else c for c, up in zip(word, upper))
        )
    )


def _joined(*parts):
    return st.tuples(st.text(max_size=4), st.just(" "), *parts, st.text(max_size=4)).map("".join)


# Texts the two scans match, with drawn case, spacing and surrounding text,
# and texts of loose pieces that mostly do not match.
_GATE_TEXTS = {
    "lcm_gcd": _joined(
        _recased(("lcm", "gcd")), _SPACE, st.just("("), _SPACE, _INTEGER, _SPACE, st.just(","),
        _SPACE, _INTEGER, _SPACE, st.just(")"), _SPACE, st.just("="), _SPACE, _NUMBER,
    ),
    "is_naming": _joined(
        _recased(("the",)), st.just(" "),
        _recased(("greatest common divisor", "least  common\tmultiple")), st.just(" "),
        _recased(("is",)), st.just(" "), _NUMBER,
    ),
}
_LOOSE_TEXT = st.lists(st.sampled_from(_GATE_PIECES) | st.text(max_size=3)).map("".join)


class TestKeywordGates:
    """A case-insensitive scan runs only on a text its gate admits, and the
    gate admits every text the scan matches."""

    @pytest.mark.parametrize("letter", sorted(set("lcmgdcommon")))
    def test_a_keyword_letter_matches_only_its_two_ascii_cases(self, letter):
        assert set(re.findall(letter, _ALL_CHARACTERS, re.IGNORECASE)) == {letter, letter.upper()}

    @pytest.mark.parametrize("name", sorted(_GATES))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_the_gate_admits_every_text_the_scan_matches(self, name, data):
        pattern, gate = _GATES[name]
        matching = data.draw(_GATE_TEXTS[name])
        assert pattern.search(matching) and gate.search(matching)
        loose = data.draw(_LOOSE_TEXT)
        assert pattern.search(loose) is None or gate.search(loose)


# EquationCheck as a frozen dataclass with the same name and fields: the
# oracle for its repr, equality and hash, which artifacts and digests read.
FrozenCheck = dataclasses.make_dataclass(
    "EquationCheck", list(EquationCheck.__annotations__.items()), frozen=True
)
_fractions = st.fractions(max_denominator=50)
_check_fields = st.tuples(
    st.text(max_size=12),
    st.tuples(_fractions, _fractions),
    st.sampled_from((OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_LCM, OP_GCD)),
    _fractions,
    st.booleans(),
    st.integers(0, 10**6),
)


class TestEquationCheckAsFrozenDataclass:
    @settings(max_examples=200, deadline=None)
    @given(_check_fields, _check_fields)
    def test_repr_equality_and_hash_match(self, fields, other):
        check, frozen = EquationCheck(*fields), FrozenCheck(*fields)
        assert repr(check) == repr(frozen)
        assert hash(check) == hash(frozen)
        assert check == EquationCheck(*fields)
        assert (check == EquationCheck(*other)) == (frozen == FrozenCheck(*other))
        assert [getattr(check, name) for name in check._fields] == list(fields)

    def test_fields_cannot_be_set(self):
        check = check_equations("3 + 4 = 7")[0]
        with pytest.raises(AttributeError):
            check.verified = False
        operands = (Fraction(3), Fraction(4))
        assert check == EquationCheck("3 + 4", operands, OP_ADD, Fraction(7), True, 0)
