"""Hostile trace and reply text degrades; it never raises.

Digit runs at Python's int-to-string digit limit, decimals whose parts fit
the limit but whose value does not, separators, operator chains, repeated
answer lines, Unicode digits and very long texts all go through every
entry point that reads model or cache text.
"""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_repair.answers import ReasoningTrace
from trace_repair.diagnostics import diagnose
from trace_repair.orchestrator import parse_candidate, render_hint
from trace_repair.policy import PolicyConfig, accept_policy, is_clean, trigger

CFG = PolicyConfig()
# Python 3.10 has no digit limit; its runs still test long numbers.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _run(n):
    return "1" * n


PIECES = (
    _run(LIMIT - 1),
    _run(LIMIT),
    _run(LIMIT + 1),
    "9" * (LIMIT - 1) + "/7",
    "3/" + _run(LIMIT),
    "1" * 4000 + "." + "1" * 4000,
    "1,000,000",
    ",",
    "1," + "000," * 1500 + "000",
    "1 = 1 = 1 = 2",
    "1/2/3/0/4",
    "1.2.3.4.",
    "1 + 1 + 1",
    "3 * 4 = 12",
    "12 - 5 = 7",
    "lcm(4, 6) = 12",
    "Total pens = 5",
    "Final Answer: 7",
    "Final Answer: ",
    "Final Answer: " + _run(LIMIT + 1),
    "Final Answer: " + "1" * 4000 + "." + "1" * 4000,
    "٣ + ٤ = ٧",
    "१२ * ३ = ३६",
    "０１２",
    "𝟘.𝟙",
    "3 times more than",
    "each",
    "split equally among",
    "How many more?",
    "$",
    "-",
    ".",
    "\n",
    " ",
)

hostile_text = st.lists(
    st.one_of(st.sampled_from(PIECES), st.text(alphabet="0123456789.,/:=+-*x ", max_size=20)),
    max_size=12,
).map(" ".join)


def _exercise(problem: str, initial_text: str, candidate_text: str) -> None:
    initial = ReasoningTrace.from_text(initial_text)
    candidate = ReasoningTrace.from_text(candidate_text)
    diag0 = diagnose(problem, initial)
    render_hint(diag0)
    decision = trigger(diag0.meta, diag0.graph, initial, CFG)
    diag_c = diagnose(diag0.problem, candidate)
    is_clean(candidate, CFG, len(initial_text))
    accept_policy(initial, candidate, diag0, diag_c, decision, CFG)
    answer = candidate.answer.raw_text or candidate_text[-50:]
    parse_candidate(json.dumps({"steps": [candidate_text], "final_answer": answer}))
    parse_candidate(candidate_text)


@settings(max_examples=150, deadline=None)
@given(hostile_text, hostile_text, hostile_text)
def test_hostile_text_never_raises(problem, initial_text, candidate_text):
    _exercise(problem, initial_text, candidate_text)


@pytest.mark.parametrize(
    "chunk",
    ["1.", "1,", "1/", "= 1 ", "Final Answer: 1\n", "٣", _run(LIMIT + 1) + " "],
    ids=["dot", "comma", "slash", "equals", "answer-lines", "unicode", "over-limit"],
)
def test_100k_character_texts(chunk):
    text = (chunk * (100_000 // len(chunk) + 1))[:100_000]
    _exercise(text, text, text)
