"""Deterministic trace diagnostics: coverage, meta score, and the bundle.

The meta score is a convex combination on [0, 1]:

    meta = 0.5 * equation_verification_rate
         + 0.3 * constraint_coverage
         + 0.2 * format_score

with generation failures forced to zero. The weights live here as module
constants so alternate tunings stay in one place.

Every scan of a trace (the equation scan, the coverage mentions, the
naming statements and the risk graph's quantities) reads its numbers
through ``equations.parse_number``, which keeps the values it has parsed,
so each distinct number token is parsed once however many scans read it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .answers import ReasoningTrace
from .equations import (
    EquationCheck,
    OperandIndex,
    check_equations,
    naming_conflicts,
    numeric_mentions,
    operand_index,
)
from .risk_graph import GraphReport, ProblemAnalysis, analyse_problem, semantic_graph_check

CATEGORY_CLEAN = "clean"
CATEGORY_GENERATION_FAILURE = "generation_failure"
CATEGORY_ARITHMETIC_ERROR = "arithmetic_error"
CATEGORY_LOGICAL_CONTRADICTION = "logical_contradiction"
CATEGORY_MISSING_CONSTRAINT = "missing_constraint"
CATEGORY_LOW_SYMBOLIC_COVERAGE = "low_symbolic_coverage"

WEIGHT_EQUATIONS = 0.5
WEIGHT_COVERAGE = 0.3
WEIGHT_FORMAT = 0.2


class MetaDiagnosis(NamedTuple):
    category: str
    meta_score: float
    equation_verification_rate: float
    constraint_coverage: float
    format_score: float


def constraint_coverage(
    mentions: frozenset[Fraction],
    trace_text: str,
    checks: list[EquationCheck],
    index: OperandIndex | None = None,
) -> tuple[list[Fraction], float]:
    """The problem's mentions the trace never uses, sorted, and the share it uses.

    A mention counts as used when it is an operand of any scanned equation,
    a key of the checks' ``index``, or appears literally in the trace. The
    trace's mentions are scanned only when some mention is no operand. An
    empty constraint set is fully covered by definition.
    """
    # A set's difference with a dict reads the set's stored hashes.
    unmatched = mentions.difference(operand_index(checks) if index is None else index)
    missing = sorted(unmatched - numeric_mentions(trace_text)) if unmatched else []
    count = len(mentions)
    return missing, (count - len(missing)) / count if count else 1.0


def _format_score(trace: ReasoningTrace) -> float:
    if not trace.has_answer:
        return 0.0
    if trace.extraction.answer_line_count == 1:
        return 1.0
    if trace.extraction.answer_line_count == 0:
        return 0.5
    return 0.0


def meta_diagnose(
    trace: ReasoningTrace,
    checks: list[EquationCheck],
    coverage: float,
) -> MetaDiagnosis:
    """Assign the meta category and score for one trace.

    Category priority: generation_failure > arithmetic_error >
    logical_contradiction > missing_constraint > low_symbolic_coverage >
    clean. A clean verdict requires at least one verified equation, full
    coverage, and an extractable answer.
    """
    has_answer = trace.has_answer and not trace.is_empty

    # One walk over the checks gives both the rate and whether any failed.
    verified = sum(check.verified for check in checks)
    rate = verified / len(checks) if checks else 0.0
    format_score = _format_score(trace)

    if not has_answer:
        return MetaDiagnosis(CATEGORY_GENERATION_FAILURE, 0.0, rate, coverage, 0.0)

    if verified < len(checks):
        category = CATEGORY_ARITHMETIC_ERROR
    elif naming_conflicts(trace.text):
        category = CATEGORY_LOGICAL_CONTRADICTION
    elif coverage < 1.0:
        category = CATEGORY_MISSING_CONSTRAINT
    elif not checks:
        category = CATEGORY_LOW_SYMBOLIC_COVERAGE
    else:
        category = CATEGORY_CLEAN

    score = WEIGHT_EQUATIONS * rate + WEIGHT_COVERAGE * coverage + WEIGHT_FORMAT * format_score
    score = min(1.0, max(0.0, score))
    return MetaDiagnosis(category, score, rate, coverage, format_score)


class DiagnosisReport(NamedTuple):
    """The full deterministic diagnostic bundle for one trace."""

    checks: tuple[EquationCheck, ...]
    meta: MetaDiagnosis
    graph: GraphReport
    missing_quantities: tuple[str, ...]
    problem: ProblemAnalysis


def diagnose(problem: ProblemAnalysis | str, trace: ReasoningTrace | str) -> DiagnosisReport:
    """Run every deterministic diagnostic for one (problem, trace) pair.

    Pass ``diag0.problem`` to diagnose another trace for the same problem
    without analysing the problem again. The trace's checks are indexed by
    operand value once, for coverage and the risk graph alike.
    """
    if isinstance(problem, str):
        problem = analyse_problem(problem)
    if isinstance(trace, str):
        trace = ReasoningTrace.from_text(trace)
    checks = check_equations(trace.text)
    index = operand_index(checks)
    missing, coverage = constraint_coverage(problem.mentions, trace.text, checks, index)
    meta = meta_diagnose(trace, checks, coverage)
    graph = semantic_graph_check(problem, trace, checks, index)
    return DiagnosisReport(tuple(checks), meta, graph, tuple(map(str, missing)), problem)
