"""Harm-aware selective replacement for cached math reasoning traces.

Deterministic diagnostics decide when repair is attempted, a bounded
best-of-N generator proposes candidates, deterministic guards decide
whether replacing the cached answer is safer than preserving it, and the
evaluation layer reports fixed/broken transitions with all derived
statistics.

Each exported name loads its module on first use, so the guard layer
(``answers``, ``equations``, ``risk_graph``, ``diagnostics``, ``policy``)
loads without the run layer. A name is looked up in its module on every
read and never stored here: whatever replaces a module's function (a
tracer, a mock) is seen through the package too, and gone once removed.
"""

import importlib

__version__ = "0.1.0"

# Each module's exported names.
_EXPORTS = {
    "answers": (
        "AnswerValue",
        "ExtractionResult",
        "ReasoningTrace",
        "answers_equivalent",
        "extract_answer",
        "normalize_answer",
    ),
    "datasets": (
        "DatasetError",
        "DatasetRecord",
        "FilterResult",
        "filter_numeric",
        "load_dataset",
        "sample_subset",
        "write_dataset",
    ),
    "diagnostics": ("DiagnosisReport", "MetaDiagnosis", "constraint_coverage", "diagnose", "meta_diagnose"),
    "equations": ("EquationCheck", "check_equations", "naming_statements"),
    "orchestrator": (
        "CandidateProvider",
        "CandidateRecord",
        "ParsedCandidate",
        "PromptSpec",
        "ProviderResponseError",
        "ProviderTransportError",
        "RepairOutcome",
        "build_prompt",
        "parse_candidate",
        "repair_example",
    ),
    "pipeline": ("PipelineResult", "RunManifest", "filter_dataset", "recompute_report", "run_pipeline"),
    "policy": (
        "AcceptanceVerdict",
        "PolicyConfig",
        "TriggerDecision",
        "accept_policy",
        "config_from_env",
        "config_from_mapping",
        "equation_supported",
        "is_clean",
        "trigger",
    ),
    "providers": ("RemoteProvider", "ReplayCacheMiss", "ReplayProvider"),
    "reporting": (
        "FieldStats",
        "ReportIdentityError",
        "RunReport",
        "aggregate_runs",
        "compute_report",
        "render_report",
        "rule_of_three",
        "sign_test",
    ),
    "risk_graph": (
        "GraphReport",
        "QuantityNode",
        "RelationEdge",
        "RiskSignal",
        "build_relation_graph",
        "extract_quantities",
        "graph_guard",
        "semantic_graph_check",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    module = _OWNERS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _OWNERS.keys())
