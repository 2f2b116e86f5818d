"""Harm-aware selective replacement for cached math reasoning traces.

Deterministic diagnostics decide when repair is attempted, a bounded
best-of-N generator proposes candidates, deterministic guards decide
whether replacing the cached answer is safer than preserving it, and the
evaluation layer reports fixed/broken transitions with all derived
statistics.
"""

from .answers import (
    AnswerValue,
    ExtractionResult,
    ReasoningTrace,
    answers_equivalent,
    extract_answer,
    normalize_answer,
)
from .datasets import (
    DatasetError,
    DatasetRecord,
    FilterResult,
    filter_numeric,
    load_dataset,
    sample_subset,
    write_dataset,
)
from .diagnostics import (
    DiagnosisReport,
    MetaDiagnosis,
    constraint_coverage,
    diagnose,
    meta_diagnose,
)
from .equations import EquationCheck, check_equations, naming_statements
from .orchestrator import (
    CandidateProvider,
    CandidateRecord,
    ParsedCandidate,
    PromptSpec,
    ProviderResponseError,
    ProviderTransportError,
    RepairOutcome,
    build_prompt,
    parse_candidate,
    repair_example,
)
from .pipeline import (
    PipelineResult,
    RunManifest,
    filter_dataset,
    recompute_report,
    run_pipeline,
)
from .policy import (
    AcceptanceVerdict,
    PolicyConfig,
    TriggerDecision,
    accept_policy,
    config_from_env,
    config_from_mapping,
    equation_supported,
    is_clean,
    trigger,
)
from .providers import RemoteProvider, ReplayCacheMiss, ReplayProvider
from .reporting import (
    FieldStats,
    ReportIdentityError,
    RunReport,
    TransitionLabel,
    aggregate_runs,
    compute_report,
    label_transitions,
    render_report,
    rule_of_three,
    sign_test,
)
from .risk_graph import (
    GraphReport,
    QuantityNode,
    RelationEdge,
    RiskSignal,
    build_relation_graph,
    extract_quantities,
    graph_guard,
    semantic_graph_check,
)

__version__ = "0.1.0"

__all__ = [
    "AnswerValue",
    "ExtractionResult",
    "ReasoningTrace",
    "answers_equivalent",
    "extract_answer",
    "normalize_answer",
    "DatasetError",
    "DatasetRecord",
    "FilterResult",
    "filter_numeric",
    "load_dataset",
    "sample_subset",
    "write_dataset",
    "DiagnosisReport",
    "MetaDiagnosis",
    "constraint_coverage",
    "diagnose",
    "meta_diagnose",
    "EquationCheck",
    "check_equations",
    "naming_statements",
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
    "PipelineResult",
    "RunManifest",
    "filter_dataset",
    "recompute_report",
    "run_pipeline",
    "AcceptanceVerdict",
    "PolicyConfig",
    "TriggerDecision",
    "accept_policy",
    "config_from_env",
    "config_from_mapping",
    "equation_supported",
    "is_clean",
    "trigger",
    "RemoteProvider",
    "ReplayCacheMiss",
    "ReplayProvider",
    "FieldStats",
    "ReportIdentityError",
    "RunReport",
    "TransitionLabel",
    "aggregate_runs",
    "compute_report",
    "label_transitions",
    "render_report",
    "rule_of_three",
    "sign_test",
    "GraphReport",
    "QuantityNode",
    "RelationEdge",
    "RiskSignal",
    "build_relation_graph",
    "extract_quantities",
    "graph_guard",
    "semantic_graph_check",
]
