"""Trigger and guarded-acceptance policy.

Pure decision functions over immutable diagnostics. The default action is
always to preserve the cached trace; an answer-changing candidate replaces
it only when one of the acceptance paths matches and every enabled guard
passes. No learned verifier or model judge anywhere.

``SOURCES`` names the environment variable and CLI flag of each
``PolicyConfig`` field; ``ENV_KEYS`` and the CLI's config flags come from it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Mapping, NamedTuple, Sequence

from .answers import ReasoningTrace, answers_equivalent, as_fraction
from .diagnostics import (
    CATEGORY_ARITHMETIC_ERROR,
    CATEGORY_CLEAN,
    CATEGORY_GENERATION_FAILURE,
    CATEGORY_LOGICAL_CONTRADICTION,
    CATEGORY_LOW_SYMBOLIC_COVERAGE,
    CATEGORY_MISSING_CONSTRAINT,
    DiagnosisReport,
)
from .equations import EquationCheck, verified_results
from .risk_graph import (
    DIAGNOSIS_GENERATION_FAILURE,
    GraphReport,
    graph_clean,
    graph_guard,
    has_high_risk,
)

# Trigger reasons
REASON_EMPTY_TRACE = "empty_trace"
REASON_META_GENERATION_FAILURE = "meta_generation_failure"
REASON_META_ARITHMETIC_ERROR = "meta_arithmetic_error"
REASON_META_LOGICAL_CONTRADICTION = "meta_logical_contradiction"
REASON_GRAPH_GENERATION_FAILURE = "graph_generation_failure"
REASON_HIGH_RISK_SEMANTIC = "high_risk_semantic"
REASON_MISSING_CONSTRAINT_LOW_SCORE = "missing_constraint_low_score"
REASON_LOW_META_SCORE = "low_meta_score"

# Acceptance paths, in evaluation order
PATH_NONE = "none"
PATH_HIGH_RISK_SEMANTIC_REPAIR = "high_risk_semantic_repair"
PATH_EMPTY_GENERATION_RESCUE = "empty_generation_rescue"
PATH_VERY_LOW_CONFIDENCE_RESCUE = "very_low_confidence_rescue"
PATH_CLEAN_SEMANTIC_IMPROVEMENT = "clean_semantic_improvement"
PATH_RELAXED_SUPPORT = "relaxed_support"
PATH_WEAK_REASONER_RELAXED = "weak_reasoner_relaxed"

# Rejection reasons
REJECT_NO_OP = "no_op"
REJECT_UNCLEAN = "unclean"
REJECT_GRAPH_GUARD = "graph_guard"
REJECT_UNSUPPORTED_ANSWER = "unsupported_answer"
REJECT_RESIDUAL_RISK = "residual_risk"
REJECT_POLICY_NONE_MATCHED = "policy_none_matched"

# Meta-discussion phrases that disqualify a repair candidate outright.
CLEANLINESS_BLOCKLIST = (
    "previous reasoning",
    "the diagnosis says",
    "provided hint",
    "this is ambiguous",
    "the prompt",
    "as instructed",
)

EXCESS_LENGTH_FLOOR = 1200
EXCESS_LENGTH_FACTOR = 4

_EPS = 1e-9

# What each kind of config field takes, for the error that refuses a value.
_KINDS = {bool: "a bool", int: "an integer", float: "a finite number"}
# Counts and token budgets: at 0 a triggered example would be kept without
# one repair call, or every call asked for nothing.
_AT_LEAST_ONE = ("n_candidates", "repair_max_tokens", "retry_max_tokens")


@dataclass(frozen=True)
class PolicyConfig:
    """All thresholds, budgets, and ablation switches in one place.

    Defaults are the main configuration; the ablation booleans and the
    rescue/improvement margins are deliberately configuration, not code.
    """

    n_candidates: int = 3
    graph_min_score: float = 0.60
    graph_drop_tolerance: float = 0.05
    meta_trigger_threshold: float = 0.65
    missing_constraint_trigger_threshold: float = 0.90
    min_repair_chars: int = 20
    enable_graph_guard: bool = True
    disable_equation_support: bool = False
    relax_missing_constraint: bool = False
    weak_reasoner_mode: bool = False
    repair_max_tokens: int = 768
    retry_max_tokens: int = 512
    temperature: float = 0.0
    rescue_initial_meta_max: float = 0.40
    rescue_candidate_meta_min: float = 0.80
    improvement_margin: float = 0.10

    def __post_init__(self) -> None:
        """Refuse a value of the wrong kind, naming its field.

        A boolean field takes only a bool, an integer field only an int and
        a float field only a finite number: a NaN threshold compares false
        with every score and so would switch its guard off. The candidate
        count and both token budgets must be at least 1.
        """
        for field in fields(self):
            value = getattr(self, field.name)
            kind = type(field.default)
            if kind is bool:
                valid = isinstance(value, bool)
            elif isinstance(value, bool):
                valid = False
            elif kind is int:
                valid = isinstance(value, int)
            else:
                valid = isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
            if not valid:
                raise ValueError(f"config field {field.name} takes {_KINDS[kind]}, not {value!r}")
        for name in _AT_LEAST_ONE:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"config field {name} must be at least 1, not {value!r}")

    def with_overrides(self, **kwargs) -> "PolicyConfig":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}


# Each field's environment variable and CLI flag (None: no flag), in the
# README's row order; a field missing here is set only through --config. The
# CLI adds disable_equation_support's inverted --[no-]equation-support itself.
SOURCES: dict[str, tuple[str, str | None]] = {
    "n_candidates": ("LLM_REPAIR_NUM_CANDIDATES", "--n-candidates"),
    "graph_min_score": ("GRAPH_ACCEPT_MIN_SCORE", "--graph-min-score"),
    "graph_drop_tolerance": ("GRAPH_SCORE_DROP_TOLERANCE", "--graph-drop-tolerance"),
    "meta_trigger_threshold": ("MEDIUM_TRIGGER_META_SCORE", "--meta-trigger-threshold"),
    "missing_constraint_trigger_threshold": (
        "MISSING_CONSTRAINT_TRIGGER_SCORE",
        "--missing-constraint-trigger-threshold",
    ),
    "min_repair_chars": ("MIN_REPAIR_LENGTH", "--min-repair-chars"),
    "enable_graph_guard": ("ENABLE_GRAPH_GUARD", "--graph-guard"),
    "disable_equation_support": ("DISABLE_EQUATION_SUPPORT_GUARD", None),
    "relax_missing_constraint": ("RELAX_MISSING_CONSTRAINT_ACCEPT", "--relax-missing-constraint"),
    "weak_reasoner_mode": ("WEAK_REASONER_MODE", "--weak-reasoner-mode"),
    "repair_max_tokens": ("REPAIR_MAX_TOKENS", None),
    "retry_max_tokens": ("FORMAT_RETRY_MAX_TOKENS", None),
    "temperature": ("REPAIR_TEMPERATURE", None),
}

# Environment variable names for every tunable, each to its field.
ENV_KEYS: dict[str, str] = {env: name for name, (env, _) in SOURCES.items()}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parsed(kind: type, value: object) -> object:
    """``kind(value)``, or ``value`` unchanged when it does not convert, so
    that the config refuses it by its field's name."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        return value


def config_from_mapping(values: Mapping[str, object], base: PolicyConfig | None = None) -> PolicyConfig:
    """Build a config from a plain mapping of field names to values."""
    config = base or PolicyConfig()
    known = {field.name for field in fields(PolicyConfig)}
    overrides = {}
    for key, value in values.items():
        if key not in known:
            raise ValueError(f"unknown config key: {key}")
        current = getattr(config, key)
        if isinstance(current, bool) and isinstance(value, str):
            lowered = value.strip().lower()
            if lowered not in _BOOL_TRUE | _BOOL_FALSE:
                raise ValueError(f"invalid boolean for {key}: {value!r}")
            value = lowered in _BOOL_TRUE
        elif isinstance(current, int) and isinstance(value, str):
            value = _parsed(int, value)
        elif isinstance(current, int) and isinstance(value, float) and value.is_integer():
            # A whole float such as 3.0 is the integer 3; any other float is
            # refused by the config, not truncated.
            value = int(value)
        elif isinstance(current, float) and not isinstance(value, (bool, float)):
            value = _parsed(float, value)
        overrides[key] = value
    return config.with_overrides(**overrides)


def config_from_env(
    environ: Mapping[str, str] | None = None, base: PolicyConfig | None = None
) -> PolicyConfig:
    """Apply environment-variable overrides on top of a base config."""
    environ = os.environ if environ is None else environ
    values = {name: environ[key] for key, name in ENV_KEYS.items() if key in environ}
    return config_from_mapping(values, base)


@dataclass(frozen=True)
class TriggerDecision:
    triggered: bool
    reasons: frozenset[str]


def trigger(
    meta, graph: GraphReport, trace: ReasoningTrace, cfg: PolicyConfig
) -> TriggerDecision:
    """Decide whether repair compute is spent on this trace.

    Clauses, in order: empty trace; meta category in {generation_failure,
    arithmetic_error, logical_contradiction}; graph generation failure;
    any high-risk graph signal; missing_constraint with meta score below
    the missing-constraint threshold; otherwise meta score below the
    medium threshold. The missing_constraint clause is terminal: a trace
    in that category never falls through to the final score clause.
    """
    reasons: set[str] = set()
    if trace.is_empty:
        reasons.add(REASON_EMPTY_TRACE)
    if meta.category == CATEGORY_GENERATION_FAILURE:
        reasons.add(REASON_META_GENERATION_FAILURE)
    elif meta.category == CATEGORY_ARITHMETIC_ERROR:
        reasons.add(REASON_META_ARITHMETIC_ERROR)
    elif meta.category == CATEGORY_LOGICAL_CONTRADICTION:
        reasons.add(REASON_META_LOGICAL_CONTRADICTION)
    if graph.diagnosis == DIAGNOSIS_GENERATION_FAILURE:
        reasons.add(REASON_GRAPH_GENERATION_FAILURE)
    if has_high_risk(graph):
        reasons.add(REASON_HIGH_RISK_SEMANTIC)
    if meta.category == CATEGORY_MISSING_CONSTRAINT:
        if meta.meta_score < cfg.missing_constraint_trigger_threshold:
            reasons.add(REASON_MISSING_CONSTRAINT_LOW_SCORE)
    elif meta.meta_score < cfg.meta_trigger_threshold:
        reasons.add(REASON_LOW_META_SCORE)
    return TriggerDecision(triggered=bool(reasons), reasons=frozenset(reasons))


class Cleanliness(NamedTuple):
    ok: bool
    reason: str | None


def is_clean(
    candidate: ReasoningTrace | str, cfg: PolicyConfig, initial_length: int = 0
) -> Cleanliness:
    """Output-cleanliness gate for a repair candidate.

    Requires a non-trivial length, a parseable answer, exactly one
    final-answer line, a bounded length relative to the initial trace,
    and no meta-discussion phrasing.
    """
    if isinstance(candidate, str):
        candidate = ReasoningTrace.from_text(candidate)
    text = candidate.text
    if not text.strip():
        return Cleanliness(False, "empty")
    if len(text) < cfg.min_repair_chars:
        return Cleanliness(False, "too_short")
    if not candidate.has_answer:
        return Cleanliness(False, "no_answer")
    if candidate.extraction.answer_line_count != 1:
        return Cleanliness(False, "answer_line_count")
    cap = max(EXCESS_LENGTH_FLOOR, EXCESS_LENGTH_FACTOR * initial_length)
    if len(text) > cap:
        return Cleanliness(False, "too_long")
    lowered = text.lower()
    for phrase in CLEANLINESS_BLOCKLIST:
        if phrase in lowered:
            return Cleanliness(False, "meta_discussion")
    return Cleanliness(True, None)


def equation_supported(candidate: ReasoningTrace, checks: Sequence[EquationCheck]) -> bool:
    """True when the final answer is the result of a verified derivation.

    Only verified arithmetic/LCM/GCD results count; a naming statement
    such as "Time saved = 64" supports nothing on its own, because it may
    simply copy a quantity without deriving it.
    """
    final_value = as_fraction(candidate.answer)
    if final_value is None:
        return False
    return final_value in verified_results(checks)


@dataclass(frozen=True)
class AcceptanceVerdict:
    accepted: bool
    path: str
    rejection_reasons: tuple[str, ...]

    @staticmethod
    def rejected(*reasons: str) -> "AcceptanceVerdict":
        return AcceptanceVerdict(accepted=False, path=PATH_NONE, rejection_reasons=reasons)


def _match_path(
    initial: ReasoningTrace,
    supported: bool,
    diag0: DiagnosisReport,
    diag_c: DiagnosisReport,
    trigger_reasons: frozenset[str],
    cfg: PolicyConfig,
) -> str | None:
    candidate_graph_clean = graph_clean(diag_c.graph)
    improvable = {CATEGORY_CLEAN, CATEGORY_LOW_SYMBOLIC_COVERAGE}

    if REASON_HIGH_RISK_SEMANTIC in trigger_reasons and candidate_graph_clean:
        return PATH_HIGH_RISK_SEMANTIC_REPAIR
    if initial.is_empty or not initial.has_answer:
        return PATH_EMPTY_GENERATION_RESCUE
    if (
        diag0.meta.meta_score < cfg.rescue_initial_meta_max
        and diag_c.meta.meta_score >= cfg.rescue_candidate_meta_min - _EPS
    ):
        return PATH_VERY_LOW_CONFIDENCE_RESCUE
    if (
        diag_c.meta.category in improvable
        and diag_c.meta.meta_score >= diag0.meta.meta_score + cfg.improvement_margin - _EPS
        and candidate_graph_clean
    ):
        return PATH_CLEAN_SEMANTIC_IMPROVEMENT
    relaxed_categories = set(improvable)
    if cfg.relax_missing_constraint:
        relaxed_categories.add(CATEGORY_MISSING_CONSTRAINT)
    if (
        diag_c.meta.category in relaxed_categories
        and candidate_graph_clean
        and diag_c.graph.score >= cfg.graph_min_score - _EPS
        and supported
    ):
        return PATH_RELAXED_SUPPORT
    if (
        cfg.weak_reasoner_mode
        and diag_c.meta.category in improvable
        and candidate_graph_clean
        and diag_c.meta.meta_score >= diag0.meta.meta_score - _EPS
    ):
        return PATH_WEAK_REASONER_RELAXED
    return None


def accept_policy(
    initial: ReasoningTrace,
    candidate: ReasoningTrace,
    diag0: DiagnosisReport,
    diag_c: DiagnosisReport,
    trigger_decision: TriggerDecision,
    cfg: PolicyConfig,
) -> AcceptanceVerdict:
    """Full guarded acceptance decision for one clean candidate.

    No-op repairs are rejected unconditionally first. The acceptance
    paths are evaluated in a fixed order; whichever matches must still
    pass the graph guard and the equation-support guard unless the
    corresponding ablation switch disables them.
    """
    if answers_equivalent(initial.answer, candidate.answer):
        return AcceptanceVerdict.rejected(REJECT_NO_OP)

    # Decided once for the path and the guard; true under the ablation.
    supported = cfg.disable_equation_support or equation_supported(candidate, diag_c.checks)
    path = _match_path(initial, supported, diag0, diag_c, trigger_decision.reasons, cfg)
    if path is None:
        if has_high_risk(diag_c.graph):
            return AcceptanceVerdict.rejected(REJECT_RESIDUAL_RISK)
        return AcceptanceVerdict.rejected(REJECT_POLICY_NONE_MATCHED)

    failures: list[str] = []
    if cfg.enable_graph_guard and not graph_guard(
        diag0.graph, diag_c.graph, cfg.graph_min_score, cfg.graph_drop_tolerance
    ):
        failures.append(REJECT_GRAPH_GUARD)
    if not supported:
        failures.append(REJECT_UNSUPPORTED_ANSWER)
    if failures:
        return AcceptanceVerdict.rejected(*failures)
    return AcceptanceVerdict(accepted=True, path=path, rejection_reasons=())
