"""Final-answer extraction and canonical answer normalization.

Supported answer forms: integers, decimals, comma-grouped numbers,
fractions, colon-formed ratio/time strings, and yes/no words. Every
comparison in the pipeline goes through the canonical value produced
here, so the rules are deliberately strict and order-independent.

Answer tokens use the equation scanner's number grammar plus ratios, and
every digit string becomes a value through ``equations.parse_number``; a
number it refuses (one as long as Python's digit limit) is no answer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .equations import _NUM, _NUMBER_START, parse_number

KIND_INTEGER = "integer"
KIND_DECIMAL = "decimal"
KIND_FRACTION = "fraction"
KIND_RATIO_OR_TIME = "ratio_or_time"
KIND_YES_NO = "yes_no"
KIND_NONE = "none"

NUMERIC_KINDS = frozenset({KIND_INTEGER, KIND_DECIMAL, KIND_FRACTION})

_RATIO_PART = r"\d+(?:\.\d+)?:\d+(?:\.\d+)?"

# Answer-like tokens: a ratio or a number, or a yes/no word. A ratio's first
# digit run ends in ":" or ".", so trying it first never takes a fraction.
ANSWER_TOKEN_RE = re.compile(
    rf"{_NUMBER_START}(?:[-+]?(?:{_RATIO_PART}|{_NUM})|(?:yes|no)\b)",
    re.IGNORECASE,
)

# Explicit final-answer markers. Nothing beyond these three phrases counts.
MARKER_RE = re.compile(r"final\s+answer\s*(?:is\b|:)|answer\s*:", re.IGNORECASE)
_MARKER_LINE_RE = re.compile(rf"^\s*(?:{MARKER_RE.pattern})", re.IGNORECASE)

_RATIO_RE = re.compile(r"^[-+]?\d+(?:\.\d+)?\s*:\s*[-+]?\d+(?:\.\d+)?$")
_FRACTION_RE = re.compile(r"^([-+]?\d+)\s*/\s*(\d+)$")
_COMMA_RE = re.compile(r"^[-+]?\d{1,3}(?:,\d{3})+(?:\.\d+)?$")
_PLAIN_NUMBER_RE = re.compile(r"^[-+]?(?:\d+(?:\.\d*)?|\.\d+)$")

_PAREN_RE = re.compile(r"\([^)]*\)")
_CURRENCY_CHARS = "$€£"
_TRAIL_PUNCT = ".,;:!?'\"*"
_LEAD_PUNCT = ",;:!?'\"*"  # no dot: keep bare-decimal answers like ".5"


class AnswerValue(NamedTuple):
    """A candidate answer in raw and canonical form."""

    raw_text: str
    canonical: str
    kind: str


class ExtractionResult(NamedTuple):
    value: AnswerValue
    answer_line_count: int


NO_ANSWER = AnswerValue(raw_text="", canonical="", kind=KIND_NONE)


def _canonical_number(text: str) -> str | None:
    """Minimal canonical form for a plain integer or decimal string.

    None for anything else, and for a number ``parse_number`` refuses.
    """
    number = parse_number(text) if _PLAIN_NUMBER_RE.match(text) else None
    if number is None:
        return None
    value = str(abs(number.numerator) // number.denominator)
    frac_part = text.partition(".")[2].rstrip("0")
    if frac_part:
        value = f"{value}.{frac_part}"
    return "-" + value if number.numerator < 0 else value


def normalize_answer(raw: str) -> AnswerValue:
    """Normalize an answer string into a canonical comparable value.

    Strips unit parentheses, currency symbols, and surrounding punctuation,
    removes thousands separators, collapses integral decimals ("12.0" to
    "12"), reduces fractions to lowest terms, and classifies the result.
    Unparseable input keeps a trimmed lowercase copy with kind "none".
    """
    text = _PAREN_RE.sub(" ", raw)
    for ch in _CURRENCY_CHARS:
        text = text.replace(ch, "")
    if "%" in text:
        # Imported here: a first diagnose loads no logging.
        import logging

        logging.getLogger(__name__).debug("percent sign stripped during normalization: %r", raw)
        text = text.replace("%", "")
    text = text.strip().rstrip(_TRAIL_PUNCT).lstrip(_LEAD_PUNCT).strip()

    if not text:
        return AnswerValue(raw_text=raw, canonical="", kind=KIND_NONE)

    lowered = text.lower()
    if lowered in ("yes", "no"):
        return AnswerValue(raw_text=raw, canonical=lowered, kind=KIND_YES_NO)

    if _RATIO_RE.match(text):
        left, _, right = text.partition(":")
        left_c = _canonical_number(left.strip())
        right_c = _canonical_number(right.strip())
        if left_c is not None and right_c is not None:
            return AnswerValue(raw_text=raw, canonical=f"{left_c}:{right_c}", kind=KIND_RATIO_OR_TIME)

    frac_match = _FRACTION_RE.match(text)
    if frac_match:
        reduced = parse_number(f"{frac_match.group(1)}/{frac_match.group(2)}")
        if reduced is not None:
            if reduced.denominator == 1:
                return AnswerValue(raw_text=raw, canonical=str(reduced.numerator), kind=KIND_INTEGER)
            return AnswerValue(
                raw_text=raw,
                canonical=f"{reduced.numerator}/{reduced.denominator}",
                kind=KIND_FRACTION,
            )

    if _COMMA_RE.match(text):
        text = text.replace(",", "")

    canonical = _canonical_number(text)
    if canonical is not None:
        kind = KIND_INTEGER if "." not in canonical else KIND_DECIMAL
        return AnswerValue(raw_text=raw, canonical=canonical, kind=kind)

    return AnswerValue(raw_text=raw, canonical=raw.strip().lower(), kind=KIND_NONE)


def extract_answer(trace_text: str) -> ExtractionResult:
    """Extract the final answer from free-form trace text.

    When an explicit marker is present the answer is the last answer-like
    token after the last marker; text before the marker is never consulted.
    Without a marker the last answer-like token anywhere wins. Absence of
    an answer is a valid result, not an error.
    """
    markers = list(MARKER_RE.finditer(trace_text))
    search_start = markers[-1].end() if markers else 0
    region = trace_text[search_start:]
    tokens = list(ANSWER_TOKEN_RE.finditer(region))

    if tokens:
        value = normalize_answer(tokens[-1].group(0))
    else:
        value = NO_ANSWER

    answer_line_count = sum(
        1 for line in trace_text.splitlines() if _MARKER_LINE_RE.match(line)
    )
    return ExtractionResult(value=value, answer_line_count=answer_line_count)


def as_fraction(value: AnswerValue) -> Fraction | None:
    """Exact rational value for numeric kinds, None otherwise."""
    if value.kind not in NUMERIC_KINDS:
        return None
    return parse_number(value.canonical)


def _ratio_components(value: AnswerValue) -> tuple[Fraction, Fraction] | None:
    left, _, right = value.canonical.partition(":")
    left_value, right_value = parse_number(left), parse_number(right)
    if left_value is None or right_value is None:
        return None
    return left_value, right_value


def answers_equivalent(a: AnswerValue, b: AnswerValue) -> bool:
    """True when two normalized answers denote the same value.

    Canonical string equality is checked first, then exact numeric
    equality, then component-wise reduced-ratio equality for two
    colon-formed values. Symmetric and reflexive by construction.
    """
    if a.canonical == b.canonical and a.kind == b.kind:
        return True
    fa = as_fraction(a)
    fb = as_fraction(b)
    if fa is not None and fb is not None:
        return fa == fb
    if a.kind == KIND_RATIO_OR_TIME and b.kind == KIND_RATIO_OR_TIME:
        ra = _ratio_components(a)
        rb = _ratio_components(b)
        if ra is None or rb is None:
            return False
        return ra[0] * rb[1] == ra[1] * rb[0]
    return False


class ReasoningTrace(NamedTuple):
    """A problem's cached or candidate solution text plus its final answer.

    As a tuple it has length 2; ``len(trace.text)`` is the text's length.
    """

    text: str
    extraction: ExtractionResult

    @classmethod
    def from_text(cls, text: str) -> "ReasoningTrace":
        return cls(text=text, extraction=extract_answer(text))

    @property
    def answer(self) -> AnswerValue:
        return self.extraction.value

    @property
    def has_answer(self) -> bool:
        return self.extraction.value.kind != KIND_NONE

    @property
    def is_empty(self) -> bool:
        return not self.text.strip()
