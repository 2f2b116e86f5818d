"""How the trace side of ``diagnose`` scales with trace length, without timing.

Each trace is a seeded running sum of 50 to 400 lines over a problem's
quantities, as in the benchmark's long_trace workload: every line repeats
a number the problem binds to a unit, and no line holds a unit or entity
word. The guard counts work, not time, so a slow host cannot fail it and a
fast one cannot hide a regression:

- no binding window is read on the trace side, since no window could bind;
- the trace's numeric mentions are not scanned, since every problem number
  is an operand, nor its comparisons, since the problem states none; only
  its capitalised tokens are read for an entity word;
- ``Fraction.__hash__`` calls grow at most linearly with the trace;
- a text without "lcm", "gcd" or "common" gets no case-insensitive scan;
- the longest trace's distinct numbers fit ``parse_number``'s cache.
"""

import math
import random
from fractions import Fraction

import pytest

from trace_repair import equations
from trace_repair.diagnostics import diagnose
from trace_repair.risk_graph import analyse_problem

SEED = 20261021
LENGTHS = (50, 100, 200, 400)


def _chain(rng, lines):
    """A problem and a unit-free running-sum trace of ``lines`` lines."""
    days = lines - 3
    start, step = rng.randint(10, 99), rng.randint(2, 30)
    problem = (
        f"Omar has {start} cookies. Then Omar adds {step} cookies a day for {days} days. "
        f"How many cookies does Omar have after {days} days?"
    )
    steps, total = [], start
    for _ in range(days):
        steps.append(f"{total} + {step} = {total + step}")
        total += step
    steps += [f"{step} * {days} = {step * days}", f"{start} + {step * days} = {total}"]
    return problem, "\n".join(steps + [f"Final Answer: {total}"])


@pytest.fixture(scope="module")
def chains():
    rng = random.Random(SEED)
    return [(lines, *_chain(rng, lines)) for lines in LENGTHS]


def test_no_binding_window_is_read_on_the_trace_side(chains, count_calls):
    for _, problem, trace in chains:
        analysis = analyse_problem(problem)
        assert analysis.bindings
        windows = count_calls("risk_graph", "_unit_and_entity")
        diagnose(analysis, trace)
        assert windows == [], len(windows)


# "Final" and "Answer" are each trace's only capitalised tokens.
@pytest.mark.parametrize(
    ("module", "function", "most"),
    [
        ("equations", "numeric_mentions", 0),
        ("risk_graph", "_comparison_deltas", 0),
        ("risk_graph", "_entity_word", 2),
    ],
)
def test_the_trace_side_skips_work_no_check_reads(chains, count_calls, module, function, most):
    for _, problem, trace in chains:
        analysis = analyse_problem(problem)
        calls = count_calls(module, function)
        assert diagnose(analysis, trace).meta.category == "clean"
        assert len(calls) <= most, len(calls)


def test_value_hashes_grow_at_most_linearly(chains, monkeypatch):
    hashes = [0]
    original = Fraction.__hash__

    def counting(self):
        hashes[0] += 1
        return original(self)

    points = []
    for lines, problem, trace in chains:
        analysis = analyse_problem(problem)
        hashes[0] = 0
        monkeypatch.setattr(Fraction, "__hash__", counting)
        diagnose(analysis, trace)
        monkeypatch.setattr(Fraction, "__hash__", original)
        points.append((math.log(lines), math.log(hashes[0])))
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )
    assert slope <= 1.1, points


def test_a_text_without_the_keywords_gets_no_case_insensitive_scan(chains, monkeypatch):
    scans = []

    class Counting:
        def __init__(self, pattern):
            self.pattern = pattern

        def __getattr__(self, name):
            scans.append(name)
            return getattr(self.pattern, name)

    for name in ("_LCM_GCD_RE", "_IS_NAMING_RE"):
        monkeypatch.setattr(equations, name, Counting(getattr(equations, name)))
    for _, problem, trace in chains:
        report = diagnose(problem, trace)
        # Every equation verifies, so the naming statements are read too.
        assert report.meta.category == "clean"
    assert scans == []


def test_the_longest_trace_fits_the_parsed_token_cache(chains):
    lines, problem, trace = chains[-1]
    assert lines == 400
    equations.parse_number.cache_clear()
    diagnose(problem, trace)
    assert equations.parse_number.cache_info().misses < equations._PARSED_TOKENS
