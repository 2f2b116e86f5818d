"""The diagnosis layer's output, pinned by four digests over seeded samples.

``diagnose`` and ``render_hint`` run on 2,000 random problem/trace pairs
drawn from a vocabulary of numbers, number words, rate, comparison, change,
split and total words, "N times more" phrases, arithmetic lines and naming
lines. The sample holds every risk category, both quantity-binding
severities and every meta category, so a change to any check's result
changes the digest. A second digest pins 40 traces of 50 to 400 lines,
the shape on which the trace side of the risk graph costs most; a third and
a fourth pin the shapes on which its fast paths and skipped scans turn. A
refactor of the diagnosis layer must keep all four.
"""

import hashlib
import math
import operator
import random
from fractions import Fraction

from trace_repair.diagnostics import (
    CATEGORY_ARITHMETIC_ERROR,
    CATEGORY_CLEAN,
    CATEGORY_GENERATION_FAILURE,
    CATEGORY_LOGICAL_CONTRADICTION,
    CATEGORY_LOW_SYMBOLIC_COVERAGE,
    CATEGORY_MISSING_CONSTRAINT,
    diagnose,
)
from trace_repair.equations import OP_GCD, OP_LCM
from trace_repair.orchestrator import render_hint
from trace_repair.risk_graph import (
    EDGE_COMPARISON,
    RISK_CATEGORIES,
    RISK_COMPARISON,
    RISK_QUANTITY_BINDING,
    SEVERITY_HIGH,
    SEVERITY_WARNING,
    risk_categories,
)

SEED = 20261018
PAIRS = 2000
DIGEST = "f6c4395b80cc98aaf16b6e6cf63eeb9d58243d325a93a2839f38fa9f3f0d31c6"

NAMES = ("Tom", "Sam", "Ann", "Lee")
UNITS = ("apples", "bags", "candies", "pens", "kids", "dollars")
NUMBERS = ("2", "3", "4", "5", "7", "10", "12", "3.5", "1/2", "$4", "three", "twelve")
CHANGE = ("gave", "lost", "spent", "removed", "bought", "received", "added")
RATE = ("each", "per", "every")
COMPARE = ("more", "fewer", "less")
MEANINGS = (
    "total", "together", "altogether", "left", "remaining", "difference", "sum",
    "split", "equally", "among", "shared", "evenly",
)
APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
OPERATORS = tuple(APPLY)


def _problem(rng):
    pick = rng.choice
    templates = (
        lambda: f"{pick(NAMES)} has {pick(NUMBERS)} {pick(UNITS)}.",
        lambda: f"Had {pick(NUMBERS)} {pick(UNITS)} and {pick(CHANGE)} "
        f"{pick(NUMBERS)} {pick(UNITS)}.",
        lambda: f"{pick(NUMBERS)} {pick(UNITS)} with {pick(NUMBERS)} {pick(UNITS)} {pick(RATE)}.",
        lambda: f"{pick(NAMES)} has {pick(NUMBERS)} {pick(COMPARE)} than "
        f"{pick(NAMES)}'s {pick(NUMBERS)}.",
        lambda: f"{pick(NAMES)} has {pick(('3', 'two', 'four', 'many'))} times more "
        f"{pick(UNITS)} than the {pick(NUMBERS)} {pick(NAMES)} has.",
        lambda: f"{pick(NUMBERS)} {pick(UNITS)} are split equally among {pick(NUMBERS)} kids.",
        lambda: " ".join(rng.choices(NUMBERS + CHANGE + RATE + COMPARE + MEANINGS + UNITS, k=6))
        + pick((".", "!", "")),
    )
    sentences = [pick(templates)() for _ in range(rng.randint(1, 4))]
    sentences.append(
        pick((
            "How many are there in total?",
            "How many more does he have?",
            "How many are left?",
            "What is the difference?",
            "How many does each kid get?",
            "",
        ))
    )
    return " ".join(sentences)


def _numbers_of(text):
    return [word.strip(".!?$") for word in text.split() if word.strip(".!?$")[:1].isdigit()]


def _trace(rng, problem):
    pick = rng.choice
    pool = _numbers_of(problem) or ["3"]
    lines = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.55:
            a, b = pick(pool), pick(pool + ["2", "3", "10"])
            op = pick(OPERATORS)
            left, right = Fraction(a), Fraction(b)
            value = APPLY[op](left, right) if right or op != "/" else Fraction(0)
            if rng.random() < 0.2:
                result = str(rng.randint(1, 40))
            elif value.denominator == 1:
                result = str(value.numerator)
            else:
                result = f"{float(value):.2f}"
            lines.append(f"{a} {op} {b} = {result}")
        elif kind < 0.7:
            lines.append(f"Total = {pick(('7', '8'))}")
        elif kind < 0.85:
            lines.append(f"{pick(NAMES)} has {pick(pool)} {pick(UNITS)}.")
        else:
            lines.append(
                f"That is {pick(pool)} {pick(COMPARE + CHANGE + RATE)} than {pick(pool)} "
                f"{pick(UNITS)}."
            )
    ending = rng.random()
    if ending < 0.8:
        lines.append(f"Final Answer: {pick(pool + ['7', '12'])}")
    elif ending < 0.9:
        lines.append(f"Final Answer: {pick(pool)}\nFinal Answer: {pick(pool)}")
    elif ending < 0.95:
        lines = []
    return "\n".join(lines)


def sample(seed=SEED, count=PAIRS):
    """Yield ``(problem, trace, report)`` for ``count`` seeded random pairs."""
    rng = random.Random(seed)
    for _ in range(count):
        problem = _problem(rng)
        trace = _trace(rng, problem)
        yield problem, trace, diagnose(problem, trace)


def digest(reports):
    sha = hashlib.sha256()
    for report in reports:
        sha.update(
            repr((
                report.checks,
                report.meta,
                report.graph,
                report.missing_quantities,
                render_hint(report),
            )).encode()
        )
    return sha.hexdigest()


def test_sample_holds_every_category_and_matches_the_recorded_digest():
    reports = [report for _, _, report in sample()]
    risks = {risk.category for report in reports for risk in report.graph.risks}
    assert risks == set(RISK_CATEGORIES)
    severities = {
        risk.severity
        for report in reports
        for risk in report.graph.risks
        if risk.category == RISK_QUANTITY_BINDING
    }
    assert severities == {SEVERITY_HIGH, SEVERITY_WARNING}
    assert {report.meta.category for report in reports} == {
        CATEGORY_CLEAN,
        CATEGORY_GENERATION_FAILURE,
        CATEGORY_ARITHMETIC_ERROR,
        CATEGORY_LOGICAL_CONTRADICTION,
        CATEGORY_MISSING_CONSTRAINT,
        CATEGORY_LOW_SYMBOLIC_COVERAGE,
    }
    assert digest(reports) == DIGEST


# Long traces: the shape the risk graph's trace side costs most on. Each
# trace repeats the problem's numbers many times, with money tokens, entity
# words, comparison markers, change verbs, decimals, fractions, negative
# operands and zero divisors among its lines.
LONG_SEED = 20261019
LONG_PAIRS = 40
LONG_LINES = (50, 400)
LONG_DIGEST = "1dcdbb4e2ea4d79b2c2a94b0715cdef7f2bdbd4a8a9cf443cb8fdac215215162"
EXTRA_OPERANDS = ("-2", "-3.5", "0.25", "3/4", "2", "0", "-1/2", "1,200")


def _result_text(rng, value):
    if value.denominator == 1:
        return str(value.numerator)
    return rng.choice((f"{float(value):.2f}", f"{value.numerator}/{value.denominator}"))


def _long_trace(rng, problem):
    pick = rng.choice
    pool = _numbers_of(problem) or ["3"]
    # Half the traces have no arithmetic slip, so not every one is an
    # arithmetic error.
    slips = pick((0.0, 0.02))
    lines = []
    for _ in range(rng.randint(*LONG_LINES)):
        kind = rng.random()
        if kind < 0.4:
            a, b = pick(pool + list(EXTRA_OPERANDS)), pick(pool + list(EXTRA_OPERANDS))
            op = pick(OPERATORS)
            left, right = Fraction(a.replace(",", "")), Fraction(b.replace(",", ""))
            if op == "/" and not right:
                value = Fraction(rng.randint(0, 3))
            else:
                value = APPLY[op](left, right)
            if rng.random() < slips:
                value += rng.randint(1, 5)
            lines.append(f"{a} {op} {b} = {_result_text(rng, value)}")
        elif kind < 0.5:
            lines.append(f"{pick(NAMES)} pays ${pick(pool)} for {pick(pool)} {pick(UNITS)}.")
        elif kind < 0.62:
            lines.append(
                f"So {pick(NAMES)} has {pick(pool)} {pick(UNITS)} and {pick(NAMES)}'s "
                f"{pick(UNITS)} are {pick(pool)}."
            )
        elif kind < 0.72:
            lines.append(
                f"That is {pick(pool)} {pick(COMPARE)} than the {pick(pool)} {pick(UNITS)}."
            )
        elif kind < 0.82:
            lines.append(
                f"Then {pick(NAMES)} {pick(CHANGE)} {pick(pool)} {pick(UNITS)} "
                f"{pick(RATE)} {pick(('day', 'week', 'kid'))}."
            )
        elif kind < 0.9:
            lines.append(f"{pick(('Total', 'Cost', 'Left'))} {pick(UNITS)} = {pick(pool)}")
        else:
            lines.append(
                " ".join(rng.choices(NUMBERS + CHANGE + RATE + COMPARE + MEANINGS + UNITS, k=8))
                + pick((".", "!", ""))
            )
    lines.append(f"Final Answer: {pick(pool + ['7', '12'])}")
    return "\n".join(lines)


def long_sample(seed=LONG_SEED, count=LONG_PAIRS):
    """Yield ``(problem, trace, report)`` for ``count`` seeded long traces."""
    rng = random.Random(seed)
    for _ in range(count):
        problem = _problem(rng)
        trace = _long_trace(rng, problem)
        yield problem, trace, diagnose(problem, trace)


def test_long_trace_sample_matches_the_recorded_digest():
    pairs = list(long_sample())
    lengths = [trace.count("\n") + 1 for _, trace, _ in pairs]
    assert min(lengths) >= LONG_LINES[0] and max(lengths) <= LONG_LINES[1] + 1
    risks = {risk.category for _, _, report in pairs for risk in report.graph.risks}
    assert RISK_QUANTITY_BINDING in risks
    assert digest(report for _, _, report in pairs) == LONG_DIGEST


# Window edges: the shapes the trace side's fast paths take. Each trace is
# an arithmetic chain over the problem's numbers. A unit or entity word
# stands 4 to 7 tokens before or after a bound number, on both sides of the
# five-token window's edge. Among the chain lines are money tokens,
# lcm/gcd lines in mixed case, "the greatest common divisor is" lines and
# decimals before sentence breaks. Half the traces hold no lcm, gcd or
# "common" at all.
EDGE_SEED = 20261020
EDGE_PAIRS = 30
EDGE_LINES = (25, 400)
EDGE_DIGEST = "963ab42e40997d2241ed669f9f4f8c02c33ec759140f00e98015ffb83fa6f2ff"
FILLER = ("so", "then", "it", "is", "the", "and", "of", "we", "now", "that")
KEYWORD_LINES = (
    "LCM({a}, {b}) = {lcm}",
    "Gcd ({a}, {b}) = {gcd}",
    "lcm( {a} ,{b} ) = {gcd}",
    "The Greatest Common Divisor is {gcd}.",
    "the least common multiple is {lcm}",
    "THE GREATEST COMMON DIVISOR IS {b}!",
    "a common {a} and lcm {b}",
)


def _edge_line(rng, bound):
    """A bound number with a unit or entity word 4 to 7 tokens from it."""
    number = rng.choice(bound)
    word = rng.choice(UNITS + NAMES)
    gap = " ".join(rng.choices(FILLER, k=rng.randint(4, 7) - 1))
    if rng.random() < 0.5:
        return f"{number} {gap} {word}"
    return f"{rng.choice(FILLER)} {word} {gap} {number}"


def _edge_trace(rng, problem, keywords):
    pick = rng.choice
    pool = [number for number in _numbers_of(problem) if "/" not in number] or ["3"]
    total = Fraction(pick(pool))
    lines = []
    for _ in range(rng.randint(*EDGE_LINES)):
        kind = rng.random()
        if kind < 0.45:
            step = pick(pool)
            result = total + Fraction(step)
            lines.append(f"{_result_text(rng, total)} + {step} = {_result_text(rng, result)}")
            total = result
        elif kind < 0.6:
            a, b, op = pick(pool), pick(pool), pick(("-", "*", "/"))
            value = APPLY[op](Fraction(a), Fraction(b))
            lines.append(f"{a} {op} {b} = {_result_text(rng, value)}")
        elif kind < 0.75:
            lines.append(_edge_line(rng, pool))
        elif kind < 0.82:
            lines.append(f"It costs ${pick(pool)} {pick(('in all', 'so far', 'each'))}")
        elif kind < 0.9 and keywords:
            a, b = rng.randint(2, 30), rng.randint(2, 30)
            lines.append(
                pick(KEYWORD_LINES).format(a=a, b=b, lcm=math.lcm(a, b), gcd=math.gcd(a, b))
            )
        else:
            decimal = pick((f"{rng.randint(1, 99)}.{rng.randint(0, 99)}", f"{rng.randint(1, 99)}."))
            lines.append(f"So it is {decimal}{pick(('.', '!', '?', ''))} {pick(pool)}")
    lines.append(f"Final Answer: {_result_text(rng, total)}")
    return "\n".join(lines)


def edge_sample(seed=EDGE_SEED, count=EDGE_PAIRS):
    """Yield ``(problem, trace, report)`` for ``count`` seeded window-edge traces."""
    rng = random.Random(seed)
    for index in range(count):
        problem = _problem(rng)
        trace = _edge_trace(rng, problem, keywords=index % 2 == 0)
        yield problem, trace, diagnose(problem, trace)


def test_window_edge_sample_matches_the_recorded_digest():
    pairs = list(edge_sample())
    lengths = [trace.count("\n") + 1 for _, trace, _ in pairs]
    assert min(lengths) >= EDGE_LINES[0] and max(lengths) <= EDGE_LINES[1] + 1
    reports = [report for _, _, report in pairs]
    severities = {
        risk.severity
        for report in reports
        for risk in report.graph.risks
        if risk.category == RISK_QUANTITY_BINDING
    }
    assert severities == {SEVERITY_HIGH, SEVERITY_WARNING}
    operators = {check.operator for report in reports for check in report.checks}
    assert {OP_LCM, OP_GCD} <= operators
    assert CATEGORY_LOGICAL_CONTRADICTION in {report.meta.category for report in reports}
    assert digest(reports) == EDGE_DIGEST


# Skipped-work paths: the shapes on which the trace side may skip a scan.
# Each problem writes its numbers as digits, as "1,000" or "$5" and as
# number words. It may state "more than" comparisons, one with an
# unparseable "1/0" in its window, and it puts capitalised words at
# sentence starts, after ".", "!" and "?", and as "Tom's". Each trace uses
# some problem numbers as operands, mentions others in their problem form
# or another and leaves the rest out. It states a comparison or not, and it
# may open with lcm/gcd lines before its ordinary equations.
PATH_SEED = 20261022
PATH_PAIRS = 600
PATH_DIGEST = "45e3245d5b89e94adb43ac470b9387db00bd7af74fd158bf06e2560f931e2806"
PATH_VALUES = (3, 4, 5, 7, 12, 25, 40, 1000, 2500, 12000)
NUMBER_WORD_FORMS = ("three", "twelve", "dozen", "five", "forty")


def _written(rng, value):
    """``value`` as plain digits, with thousands commas, or as money."""
    return rng.choice((str(value), f"{value:,}", f"${value:,}", f"${value}"))


def _path_problem(rng):
    pick = rng.choice
    values = rng.sample(PATH_VALUES, rng.randint(1, 4))
    sentences = []
    for value in values:
        number, name, unit = _written(rng, value), pick(NAMES), pick(UNITS)
        sentences.append(
            pick((
                f"{name} has {number} {unit}.",
                f"Wow! {name}'s {unit} cost {number}.",
                f"Did {name} buy {number} {unit}? {pick(NAMES)} did.",
                f"{name} has {number} {pick(COMPARE)} than {pick(NAMES)}.",
                f"{name} has 1/0 {pick(COMPARE)} than the {number} {unit}!",
            ))
        )
    if rng.random() < 0.5:
        sentences.append(f"{pick(NAMES)} sees {pick(NUMBER_WORD_FORMS)} {pick(UNITS)}.")
    sentences.append(pick(("How many are there in total?", "How many are left?", "")))
    return " ".join(sentences), values


def _path_trace(rng, values):
    pick = rng.choice
    lines = []
    if rng.random() < 0.4:
        a, b = rng.randint(2, 30), rng.randint(2, 30)
        lines.append(pick(("LCM({a}, {b}) = {lcm}", "gcd ({a}, {b}) = {gcd}")).format(
            a=a, b=b, lcm=math.lcm(a, b), gcd=math.gcd(a, b)
        ))
    total = 0
    for value in values:
        use = rng.random()
        if use < 0.5:
            left = total or pick(PATH_VALUES)
            lines.append(f"{_written(rng, left)} + {_written(rng, value)} = {left + value}")
            total = left + value
        elif use < 0.8:
            lines.append(
                pick((
                    f"{pick(NAMES)} has {_written(rng, value)} {pick(UNITS)}.",
                    f"So {pick(NAMES)}'s {pick(UNITS)}! It is {_written(rng, value)} now?",
                ))
            )
    if rng.random() < 0.5:
        lines.append(
            pick((
                f"That is {pick(values)} {pick(COMPARE)} than {pick(NAMES)}.",
                f"That is 1/0 {pick(COMPARE)} than it.",
                f"{pick(NUMBER_WORD_FORMS)} {pick(COMPARE)} than before.",
            ))
        )
    lines.append(f"Final Answer: {total or pick(values)}")
    return "\n".join(lines)


def path_sample(seed=PATH_SEED, count=PATH_PAIRS):
    """Yield ``(problem, trace, report)`` for ``count`` seeded skipped-work pairs."""
    rng = random.Random(seed)
    for _ in range(count):
        problem, values = _path_problem(rng)
        trace = _path_trace(rng, values)
        yield problem, trace, diagnose(problem, trace)


def test_skipped_work_sample_matches_the_recorded_digest():
    pairs = list(path_sample())
    reports = [report for _, _, report in pairs]
    operands = [
        {value for check in report.checks for value in check.operands} for report in reports
    ]
    # Some diagnoses have every problem number as an operand and some do
    # not; of those, some leave a number out and some mention them all.
    assert any(report.problem.mentions <= used for report, used in zip(reports, operands))
    assert any(report.missing_quantities for report in reports)
    assert any(
        not report.missing_quantities and not report.problem.mentions <= used
        for report, used in zip(reports, operands)
    )
    compared = [
        report
        for report in reports
        if any(edge.kind == EDGE_COMPARISON for edge in report.problem.graph.edges)
    ]
    flagged = [RISK_COMPARISON in risk_categories(report.graph) for report in compared]
    assert any(flagged) and not all(flagged)
    assert {OP_LCM, OP_GCD} <= {check.operator for report in reports for check in report.checks}
    risks = {risk.category for report in reports for risk in report.graph.risks}
    assert RISK_QUANTITY_BINDING in risks
    assert digest(reports) == PATH_DIGEST
