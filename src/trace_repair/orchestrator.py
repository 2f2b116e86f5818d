"""Best-of-N candidate generation and guarded selection loop.

For each triggered example the orchestrator builds the prompt once;
attempt i differs only in its index, which selects style i mod 3. It asks
the provider for up to N JSON candidates, applies at most one format retry
per attempt, and runs cleanliness, re-diagnosis, and the acceptance
policy. The first accepted candidate wins; otherwise the cached trace is
preserved unchanged.

Each distinct candidate text is parsed and diagnosed once per example. The
example's memo starts with the cached trace and its diagnosis, so a
candidate that copies the cached trace reuses ``diag0``, and one that
repeats an earlier attempt reuses that attempt's parse and diagnosis. The
guards themselves run on every attempt.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Protocol

from .answers import NUMERIC_KINDS, ReasoningTrace, answers_equivalent, normalize_answer
from .datasets import json_fields, json_types
from .diagnostics import CATEGORY_CLEAN, DiagnosisReport, diagnose
from .policy import (
    REJECT_UNCLEAN,
    AcceptanceVerdict,
    PolicyConfig,
    TriggerDecision,
    accept_policy,
    is_clean,
)
from .risk_graph import graph_clean, risk_categories

log = logging.getLogger(__name__)

STYLE_HINT_GUIDED = "hint_guided"
STYLE_STRICT_CONCISE = "strict_concise"
STYLE_SOLVE_FRESH = "solve_fresh"

_STYLE_CYCLE = (STYLE_HINT_GUIDED, STYLE_STRICT_CONCISE, STYLE_SOLVE_FRESH)

_STYLE_LINES = {
    STYLE_HINT_GUIDED: (
        "Use the diagnostic hint as guidance when helpful; change the answer "
        "only if the previous answer is not supported by the problem."
    ),
    STYLE_STRICT_CONCISE: (
        "Prioritize strict formatting and concise arithmetic; preserve the "
        "original answer if it is defensible."
    ),
    STYLE_SOLVE_FRESH: (
        "Solve from the original problem in at most four compact steps, "
        "treating the initial reasoning only as a warning signal."
    ),
}

SCHEMA_TEXT = '{\n  "steps": ["short arithmetic step"],\n  "final_answer": "number"\n}'

SYSTEM_TEXT = "Return only valid JSON. No markdown."

RETRY_INSTRUCTION = (
    "The previous output was malformed. Rewrite only the malformed output as "
    "a valid JSON object matching the schema, without prose outside JSON."
)


class ProviderTransportError(RuntimeError):
    """Transport-level failure talking to a candidate provider."""


class ProviderResponseError(RuntimeError):
    """The provider answered, but its reply holds no candidate text.

    Recorded as a parse failure of the attempt: the provider is up, so it
    neither is retried nor counts toward an outage.
    """


@dataclass(frozen=True)
class PromptSpec:
    """One repair prompt; a format retry adds the malformed output.

    ``base_hash`` is ``prompt_hash()`` of the prompt without its retry part,
    when the repair loop has already computed it for the attempt's record;
    a replay provider checks it against the cache instead of hashing again.
    """

    example_id: str
    attempt_index: int
    problem_text: str
    initial_reasoning: str
    diagnostic_hint: str
    semantic_error: str
    meta_error: str
    retry_of: str | None = None
    base_hash: str | None = field(default=None, compare=False, repr=False)

    @property
    def style(self) -> str:
        return style_for_attempt(self.attempt_index)

    @property
    def is_retry(self) -> bool:
        return self.retry_of is not None

    def user_text(self) -> str:
        lines = [
            "Schema:",
            SCHEMA_TEXT,
            "",
            "Rules:",
            "- Use at most 4 steps.",
            "- Prefer arithmetic equations.",
            "- final_answer is number-only.",
            "- Use but do not mention the hint.",
            f"- Attempt style: {_STYLE_LINES[self.style]}",
            "",
            f"Problem: {self.problem_text}",
        ]
        for label, value in (
            ("Initial", self.initial_reasoning),
            ("Hint", self.diagnostic_hint),
            ("Semantic error", self.semantic_error),
            ("Meta error", self.meta_error),
        ):
            if value:
                lines.append(f"{label}: {value}")
        if self.retry_of is not None:
            lines.extend(["", RETRY_INSTRUCTION, "", f"Malformed output: {self.retry_of}"])
        return "\n".join(lines)

    def render(self) -> str:
        return f"System: {SYSTEM_TEXT}\n\n{self.user_text()}"

    def prompt_hash(self) -> str:
        return hashlib.sha256(self.render().encode("utf-8")).hexdigest()


class CandidateProvider(Protocol):
    """Behavioral contract for candidate generators."""

    identity: str

    def generate(self, prompt: PromptSpec, max_tokens: int, temperature: float) -> str:
        ...


def style_for_attempt(attempt_index: int) -> str:
    return _STYLE_CYCLE[attempt_index % len(_STYLE_CYCLE)]


def render_hint(diag0: DiagnosisReport) -> str:
    """Deterministic diagnostic hint text built from the initial diagnosis."""
    parts: list[str] = []
    bad = [check for check in diag0.checks if not check.verified]
    if bad:
        shown = "; ".join(f"{check.lhs_text} = {check.claimed_result}" for check in bad[:3])
        parts.append(f"incorrect arithmetic: {shown}")
    if diag0.missing_quantities:
        parts.append(
            "unused problem quantities: " + ", ".join(diag0.missing_quantities[:5])
        )
    high = [risk.category for risk in diag0.graph.risks if risk.severity == "high"]
    if high:
        parts.append("semantic risks: " + ", ".join(sorted(set(high))))
    if diag0.meta.category != CATEGORY_CLEAN:
        parts.append(f"diagnosis: {diag0.meta.category}")
    return "; ".join(parts) if parts else "none"


def build_prompt(
    example_id: str,
    problem_text: str,
    initial_text: str,
    diag0: DiagnosisReport,
    attempt_index: int,
    include_initial: bool = True,
) -> PromptSpec:
    """Fill the fixed prompt skeleton for one repair attempt.

    Direct-regeneration baselines set include_initial=False, which drops
    the initial trace and every diagnostic field from the prompt.
    """
    if include_initial:
        initial = initial_text if initial_text.strip() else "(empty)"
        hint = render_hint(diag0)
        semantic = ", ".join(sorted(set(risk_categories(diag0.graph)))) or "none"
        meta = diag0.meta.category
    else:
        initial = hint = semantic = meta = ""
    return PromptSpec(example_id, attempt_index, problem_text, initial, hint, semantic, meta)


@dataclass(frozen=True)
class ParsedCandidate:
    steps: tuple[str, ...]
    final_answer: str

    def trace_text(self) -> str:
        return "\n".join(self.steps + (f"Final Answer: {self.final_answer}",))


def _strip_fences(raw: str) -> str:
    text = raw.strip()
    if not text.startswith("```"):
        return text
    first_break = text.find("\n")
    if first_break < 0:
        return text
    text = text[first_break + 1 :]
    if text.rstrip().endswith("```"):
        text = text.rstrip()[: -3]
    return text.strip()


def parse_candidate(raw: str) -> ParsedCandidate | None:
    """Parse one provider output against the strict candidate schema.

    Markdown fences are stripped first; anything else that deviates from
    {"steps": [str, ...], "final_answer": "<number>"} is a parse failure,
    which makes the attempt eligible for the single format retry.
    """
    try:
        payload = json.loads(_strip_fences(raw))
    except (json.JSONDecodeError, ValueError):
        return None
    if not isinstance(payload, dict) or set(payload.keys()) != {"steps", "final_answer"}:
        return None
    steps = payload["steps"]
    final_answer = payload["final_answer"]
    if not isinstance(steps, list) or not all(isinstance(step, str) for step in steps):
        return None
    if not isinstance(final_answer, str):
        return None
    if normalize_answer(final_answer).kind not in NUMERIC_KINDS:
        return None
    return ParsedCandidate(steps=tuple(steps), final_answer=final_answer)


@dataclass(frozen=True)
class CandidateRecord:
    example_id: str
    attempt_index: int
    prompt_hash: str
    raw_output: str
    retry_output: str | None = None
    parsed: ParsedCandidate | None = None
    retried: bool = False
    clean: bool = False
    clean_reason: str | None = None
    graph_clean: bool | None = None
    answer_changed: bool | None = None
    verdict: AcceptanceVerdict | None = None
    error: str | None = None

    @property
    def transport_failed(self) -> bool:
        """The attempt lost its call or its format retry to a transport failure."""
        return self.error is not None and self.error.startswith("transport")

    def to_json_dict(self) -> dict:
        parsed, verdict = self.parsed, self.verdict
        return {
            **vars(self),
            "parsed": parsed and {"steps": list(parsed.steps), "final_answer": parsed.final_answer},
            "verdict": verdict
            and {**vars(verdict), "rejection_reasons": list(verdict.rejection_reasons)},
        }

    @classmethod
    def from_json_dict(cls, where: str, row) -> "CandidateRecord":
        record = cls(*json_fields(where, row, json_types(cls)))
        parsed, verdict = record.parsed, record.verdict
        if parsed is not None:
            steps, answer = json_fields(where, parsed, json_types(ParsedCandidate), "parsed")
            parsed = ParsedCandidate(tuple(steps), answer)
        if verdict is not None:
            accepted, path, reasons = json_fields(
                where, verdict, json_types(AcceptanceVerdict), "verdict"
            )
            verdict = AcceptanceVerdict(accepted, path, tuple(reasons))
        return replace(record, parsed=parsed, verdict=verdict)


@dataclass(frozen=True)
class RepairOutcome:
    final_trace: ReasoningTrace
    records: tuple[CandidateRecord, ...]
    accepted_index: int | None

    @property
    def accepted(self) -> bool:
        return self.accepted_index is not None


# The prefix ``_generate`` records for each provider error.
_RECORDED_ERRORS = {"transport": ProviderTransportError, "parse_failure": ProviderResponseError}


def _generate(
    provider: CandidateProvider, spec: PromptSpec, max_tokens: int, temperature: float
) -> tuple[str | None, str | None]:
    """One provider call: its output, or else the error the attempt records."""
    suffix = " on retry" if spec.is_retry else ""
    try:
        return provider.generate(spec, max_tokens, temperature), None
    except ProviderTransportError as exc:
        return None, f"transport{suffix}: {exc}"
    except ProviderResponseError as exc:
        return None, f"parse_failure{suffix}: {exc}"


def raise_recorded_error(error: str | None, is_retry: bool) -> None:
    """Raise the provider error that ``_generate`` recorded as ``error`` for
    this call, its prefix stripped, so the attempt records the same string
    again; a record of another call, or of no provider error, raises nothing."""
    kind, named, message = (error or "").partition(" on retry: " if is_retry else ": ")
    if named and kind in _RECORDED_ERRORS:
        raise _RECORDED_ERRORS[kind](message)


def _attempt(
    spec: PromptSpec,
    r0: ReasoningTrace,
    diag0: DiagnosisReport,
    trigger_decision: TriggerDecision,
    provider: CandidateProvider,
    cfg: PolicyConfig,
    accept_all: bool,
    seen: dict[str, tuple[ReasoningTrace, DiagnosisReport | None]],
) -> tuple[CandidateRecord, ReasoningTrace | None]:
    """Generate, retry the format at most once and apply the guards.

    ``seen`` is the example's memo: each text met so far, with its parsed
    trace and, once a clean attempt has needed it, its diagnosis. Returns
    the attempt's record and, when it is accepted, the candidate.
    """
    spec = replace(spec, base_hash=spec.prompt_hash())
    record = partial(CandidateRecord, spec.example_id, spec.attempt_index, spec.base_hash)
    raw, error = _generate(provider, spec, cfg.repair_max_tokens, cfg.temperature)
    if raw is None:
        return record(raw_output="", error=error), None
    record = partial(record, raw_output=raw)
    parsed = parse_candidate(raw)
    if parsed is None:
        retry_spec = replace(spec, retry_of=raw)
        retry_raw, error = _generate(provider, retry_spec, cfg.retry_max_tokens, cfg.temperature)
        record = partial(record, retry_output=retry_raw, retried=True)
        parsed = None if retry_raw is None else parse_candidate(retry_raw)
        if parsed is None:
            return record(error=error or "parse_failure"), None
    text = parsed.trace_text()
    if text not in seen:
        seen[text] = ReasoningTrace.from_text(text), None
    candidate, diag_c = seen[text]
    record = partial(
        record, parsed=parsed, answer_changed=not answers_equivalent(r0.answer, candidate.answer)
    )
    if accept_all:
        return record(clean=True), candidate
    clean = is_clean(candidate, cfg, initial_length=len(r0.text))
    record = partial(record, clean=clean.ok, clean_reason=clean.reason)
    if not clean.ok:
        return record(verdict=AcceptanceVerdict.rejected(REJECT_UNCLEAN)), None
    if diag_c is None:
        diag_c = diagnose(diag0.problem, candidate)
        seen[text] = candidate, diag_c
    verdict = accept_policy(r0, candidate, diag0, diag_c, trigger_decision, cfg)
    accepted = candidate if verdict.accepted else None
    return record(graph_clean=graph_clean(diag_c.graph), verdict=verdict), accepted


def repair_example(
    example_id: str,
    problem_text: str,
    r0: ReasoningTrace,
    diag0: DiagnosisReport,
    trigger_decision: TriggerDecision,
    provider: CandidateProvider,
    cfg: PolicyConfig,
    include_initial: bool = True,
    accept_all: bool = False,
) -> RepairOutcome:
    """Guarded best-of-N selection loop for one triggered example.

    A transport failure on one attempt records a generation failure and
    moves on; a fully failed example preserves the cached trace. No
    further attempts are generated once a candidate is accepted.
    ``accept_all`` makes one attempt, which any parsed output passes.
    """
    attempts = 1 if accept_all else cfg.n_candidates
    spec = build_prompt(example_id, problem_text, r0.text, diag0, 0, include_initial)
    records: list[CandidateRecord] = []
    seen = {r0.text: (r0, diag0)}
    for attempt_index in range(attempts):
        attempt = replace(spec, attempt_index=attempt_index)
        record, accepted = _attempt(
            attempt, r0, diag0, trigger_decision, provider, cfg, accept_all, seen
        )
        records.append(record)
        if accepted is not None:
            return RepairOutcome(accepted, tuple(records), attempt_index)
    return RepairOutcome(r0, tuple(records), None)
