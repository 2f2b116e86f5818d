"""Arithmetic equation scanning and exact verification.

Finds every "A op B = C" claim plus LCM/GCD forms in a trace and checks
them with exact rational arithmetic; no floating tolerance anywhere.
Also scans the restricted derivational naming statements ("Number of
trays = 23", "the greatest common divisor is 15") that the support and
contradiction checks consume.

Owns the number grammar (``_NUM``) and ``parse_number``, the one place in
the package where digit text becomes a value. A number as long as
Python's int-to-string digit limit is unparseable, so every value the
diagnostics hold can be printed in a hint or an artifact. It keeps the
values it has parsed, so a token that several scans read is parsed once.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

OP_ADD = "add"
OP_SUB = "sub"
OP_MUL = "mul"
OP_DIV = "div"
OP_LCM = "lcm"
OP_GCD = "gcd"

# An equation's operator, keyed by its lowered symbol or lcm/gcd name.
_OPERATORS = {
    "+": OP_ADD,
    "-": OP_SUB,
    "*": OP_MUL,
    "x": OP_MUL,
    "×": OP_MUL,
    "/": OP_DIV,
    "÷": OP_DIV,
    "lcm": OP_LCM,
    "gcd": OP_GCD,
}

# A number's first character may not follow a word character or another
# number's separator, so no number starts inside "1,059" or "x2".
_NUMBER_START = r"(?<![\w.,/:])"
_NUM = r"(?:\d+/\d+|\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+\.\d*|\.\d+|\d+)"
_SIGNED_NUM = rf"[-+]?{_NUM}"

_EQUATION_RE = re.compile(
    r"(?<![\d.,/:])"
    rf"(?P<a>{_SIGNED_NUM})"
    r"\s*(?P<op>[+\-*/xX×÷])\s*"
    rf"(?P<b>{_SIGNED_NUM})"
    r"\s*=\s*"
    rf"(?P<c>{_SIGNED_NUM})",
)

_LCM_GCD_RE = re.compile(
    r"\b(?P<op>lcm|gcd)\s*\(\s*(?P<a>[-+]?\d+)\s*,\s*(?P<b>[-+]?\d+)\s*\)\s*=\s*"
    rf"(?P<c>{_SIGNED_NUM})",
    re.IGNORECASE,
)

# "<noun phrase> = number", not followed by more arithmetic. The phrase may
# not contain digits, so the tail of "3 + 4 = 7" never matches.
_NAMING_RE = re.compile(
    rf"\b(?P<name>[A-Za-z][A-Za-z' ]{{0,60}}?)\s*=\s*(?P<value>{_SIGNED_NUM})"
    r"(?!\s*[+\-*/xX×÷=]\s*[\d(])(?![\d.,:/])"
)

_IS_NAMING_RE = re.compile(
    rf"\bthe\s+(?:greatest\s+common\s+divisor|least\s+common\s+multiple)\s+is\s+(?P<value>{_SIGNED_NUM})",
    re.IGNORECASE,
)

# Gates of the two scans above, which sre cannot start at a case-insensitive
# prefix. Under IGNORECASE each keyword letter matches only its two ASCII
# cases, so every text a scan matches holds "lcm" or "gcd", or "common", in
# letters these classes admit; the lcm/gcd gate admits "lcd" and "gcm" too.
_LCM_GCD_GATE = re.compile("[LlGg][Cc][MmDd]")
_IS_NAMING_GATE = re.compile("[Cc][Oo][Mm][Mm][Oo][Nn]")

# Numeric mentions counted for coverage: digit-based forms only. Number
# words belong to the risk-graph mention extractor, not to coverage.
_MENTION_RE = re.compile(rf"{_NUMBER_START}[-+]?{_NUM}")

# Python's int-to-string digit limit; 0, or no such function, means none.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_PARSED_TOKENS = 4096  # distinct tokens whose values parse_number keeps


class EquationCheck(NamedTuple):
    """One scanned equation and whether it holds: an immutable named tuple
    whose ``repr`` names each field, compared and hashed by field values."""

    lhs_text: str
    operands: tuple[Fraction, ...]
    operator: str
    claimed_result: Fraction
    verified: bool
    position: int


def parse_number(token: str) -> Fraction | None:
    """Exact rational value of a numeric token; None if unparseable.

    This is the one place where digit text becomes a value. A token is a
    number as ``_NUM`` matches it, with an optional sign. One as long as
    Python's int-to-string digit limit is unparseable, so every value
    returned for such a token can be printed.

    The limit is read on every call and a token at or over it is refused
    before a thread-safe ``lru_cache`` that keeps the values of the
    ``_PARSED_TOKENS`` tokens read last, None included; so no kept token is
    that long, and no kept value depends on the limit (the package never
    calls ``sys.set_int_max_str_digits``). The memo pays off only on a
    token read again, by another scan or in another text.
    """
    text = token.replace(",", "")
    limit = _digit_limit()
    if limit and len(text) >= limit:
        return None
    return _parse_digits(text)


@functools.lru_cache(maxsize=_PARSED_TOKENS)
def _parse_digits(text: str) -> Fraction | None:
    """``parse_number``'s value of a comma-free token under the digit limit."""
    # Most tokens are plain integers, which int() reads several times faster
    # than Fraction's string parser; isdigit() alone would admit "²".
    if text.isascii() and text.isdigit():
        return Fraction(int(text))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


parse_number.cache_info = _parse_digits.cache_info
parse_number.cache_clear = _parse_digits.cache_clear


def numeric_mentions(text: str) -> set[Fraction]:
    """Distinct normalized numeric mentions in a text."""
    mentions = {parse_number(token) for token in set(_MENTION_RE.findall(text))}
    mentions.discard(None)
    return mentions


OperandIndex = dict[Fraction, list[EquationCheck]]


def operand_index(checks: list[EquationCheck]) -> OperandIndex:
    """Each operand value of ``checks`` with the checks that use it, in check
    order; every operand is hashed once."""
    index: OperandIndex = {}
    for check in checks:
        for operand in check.operands:
            index.setdefault(operand, []).append(check)
    return index


def _verify(operator: str, a: Fraction, b: Fraction, claimed: Fraction) -> bool:
    """Whether ``a operator b`` equals ``claimed``, exactly.

    The four arithmetic operators compare cross-multiplied numerators and
    denominators, so no intermediate ``Fraction`` is built or reduced.
    Every denominator is positive, and a divisor's numerator is not zero,
    so each cross-multiplication multiplies both sides by a nonzero number.
    """
    if operator in (OP_LCM, OP_GCD):
        if a.denominator != 1 or b.denominator != 1:
            return False
        fn = math.lcm if operator == OP_LCM else math.gcd
        return Fraction(fn(int(a), int(b))) == claimed
    p, q = a.numerator, a.denominator
    r, s = b.numerator, b.denominator
    t, u = claimed.numerator, claimed.denominator
    if operator == OP_ADD:
        return (p * s + r * q) * u == t * q * s
    if operator == OP_SUB:
        return (p * s - r * q) * u == t * q * s
    if operator == OP_MUL:
        return p * r * u == t * q * s
    if operator == OP_DIV:
        # p/q ÷ r/s is p*s / (q*r), with r != 0.
        return r != 0 and p * s * u == t * q * r
    raise ValueError(f"unknown operator {operator!r}")


def check_equations(trace_text: str) -> list[EquationCheck]:
    """Scan a trace for binary arithmetic and LCM/GCD equations.

    Every match is verified exactly; division by zero never verifies.
    Zero matches is a valid empty result. Each scan yields its matches in
    text order, so the checks are sorted by position only when the lcm/gcd
    scan ran too.
    """
    checks: list[EquationCheck] = []
    add, parse, verify, operators = checks.append, parse_number, _verify, _OPERATORS
    # An lcm/gcd left-hand side keeps one character past its second operand.
    lcm_gcd = ((_LCM_GCD_RE, 1),) if _LCM_GCD_GATE.search(trace_text) else ()
    for pattern, lhs_overhang in ((_EQUATION_RE, 0), *lcm_gcd):
        for match in pattern.finditer(trace_text):
            a_text, b_text, c_text, symbol = match.group("a", "b", "c", "op")
            a, b, c = parse(a_text), parse(b_text), parse(c_text)
            if a is None or b is None or c is None:
                continue
            operator = operators[symbol.lower()]
            start = match.start()
            lhs = trace_text[start : match.end("b") + lhs_overhang]
            add(EquationCheck(lhs, (a, b), operator, c, verify(operator, a, b, c), start))

    if lcm_gcd:
        checks.sort(key=lambda check: check.position)
    return checks


class NamingStatement(NamedTuple):
    name: str
    value: Fraction
    position: int


# Leading filler that is not part of the derived-quantity name itself.
_NAME_FILLER = frozenset({
    "the", "a", "an", "and", "or", "so", "then", "but", "now", "also",
    "later", "next", "finally", "therefore", "thus", "hence", "we", "he",
    "she", "they", "it", "is", "get", "gives", "giving",
})


def _trim_name(raw: str) -> str:
    words = raw.lower().split()
    while len(words) > 1 and words[0] in _NAME_FILLER:
        words.pop(0)
    return " ".join(words)


def naming_statements(text: str) -> list[NamingStatement]:
    """Derivational naming statements, keyed by the lowercase phrase."""
    statements: list[NamingStatement] = []
    for match in _NAMING_RE.finditer(text):
        value = parse_number(match.group("value"))
        if value is None:
            continue
        name = _trim_name(match.group("name"))
        if not name:
            continue
        statements.append(NamingStatement(name=name, value=value, position=match.start()))
    if _IS_NAMING_GATE.search(text):
        for match in _IS_NAMING_RE.finditer(text):
            value = parse_number(match.group("value"))
            if value is None:
                continue
            name = " ".join(match.group(0)[: match.start("value") - match.start()].lower().split())
            statements.append(NamingStatement(name=name, value=value, position=match.start()))
    statements.sort(key=lambda statement: statement.position)
    return statements


def naming_conflicts(text: str) -> list[tuple[str, tuple[Fraction, ...]]]:
    """Names asserted with two or more distinct values."""
    by_name: dict[str, list[Fraction]] = {}
    for statement in naming_statements(text):
        by_name.setdefault(statement.name, []).append(statement.value)
    conflicts = []
    for name, named in by_name.items():
        distinct = sorted(set(named))
        if len(distinct) > 1:
            conflicts.append((name, tuple(distinct)))
    return conflicts


def verified_results(checks: list[EquationCheck]) -> set[Fraction]:
    return {check.claimed_result for check in checks if check.verified}
