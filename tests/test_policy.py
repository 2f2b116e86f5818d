import pytest

from trace_repair.answers import ReasoningTrace
from trace_repair.diagnostics import (
    CATEGORY_ARITHMETIC_ERROR,
    CATEGORY_CLEAN,
    CATEGORY_GENERATION_FAILURE,
    CATEGORY_LOGICAL_CONTRADICTION,
    CATEGORY_LOW_SYMBOLIC_COVERAGE,
    CATEGORY_MISSING_CONSTRAINT,
    MetaDiagnosis,
    diagnose,
)
from trace_repair.equations import check_equations, verified_results
from trace_repair.policy import (
    ENV_KEYS,
    PATH_CLEAN_SEMANTIC_IMPROVEMENT,
    PATH_EMPTY_GENERATION_RESCUE,
    PATH_HIGH_RISK_SEMANTIC_REPAIR,
    PATH_RELAXED_SUPPORT,
    PATH_VERY_LOW_CONFIDENCE_RESCUE,
    PATH_WEAK_REASONER_RELAXED,
    REASON_EMPTY_TRACE,
    REASON_HIGH_RISK_SEMANTIC,
    REASON_LOW_META_SCORE,
    REASON_MISSING_CONSTRAINT_LOW_SCORE,
    REJECT_GRAPH_GUARD,
    REJECT_NO_OP,
    REJECT_UNSUPPORTED_ANSWER,
    PolicyConfig,
    TriggerDecision,
    accept_policy,
    config_from_env,
    config_from_mapping,
    equation_supported,
    is_clean,
    trigger,
)
from trace_repair.risk_graph import (
    DIAGNOSIS_GENERATION_FAILURE,
    DIAGNOSIS_OK,
    GraphReport,
    RiskSignal,
    SEVERITY_HIGH,
)

CFG = PolicyConfig()


def _graph(score=1.0, high=False, diagnosis=DIAGNOSIS_OK):
    risks = ()
    if high:
        risks = (
            RiskSignal(
                category="per_entity_rate_missing", severity=SEVERITY_HIGH, evidence=()
            ),
        )
    return GraphReport(
        risks=risks,
        score=score,
        diagnosis=diagnosis,
    )


def _meta(category, score):
    return MetaDiagnosis(
        category=category,
        meta_score=score,
        equation_verification_rate=1.0,
        constraint_coverage=1.0,
        format_score=1.0,
    )


_TRACE = ReasoningTrace.from_text("some work\nFinal Answer: 5")
_EMPTY = ReasoningTrace.from_text("")


class TestConfig:
    def test_defaults_match_main_configuration(self):
        assert CFG.n_candidates == 3
        assert CFG.graph_min_score == 0.60
        assert CFG.graph_drop_tolerance == 0.05
        assert CFG.meta_trigger_threshold == 0.65
        assert CFG.missing_constraint_trigger_threshold == 0.90
        assert CFG.min_repair_chars == 20
        assert CFG.enable_graph_guard
        assert not CFG.disable_equation_support
        assert not CFG.relax_missing_constraint
        assert CFG.repair_max_tokens == 768
        assert CFG.retry_max_tokens == 512
        assert CFG.temperature == 0.0

    def test_env_overrides(self):
        env = {
            "LLM_REPAIR_NUM_CANDIDATES": "5",
            "ENABLE_GRAPH_GUARD": "false",
            "DISABLE_EQUATION_SUPPORT_GUARD": "true",
            "RELAX_MISSING_CONSTRAINT_ACCEPT": "true",
            "GRAPH_ACCEPT_MIN_SCORE": "0.7",
        }
        cfg = config_from_env(env)
        assert cfg.n_candidates == 5
        assert not cfg.enable_graph_guard
        assert cfg.disable_equation_support
        assert cfg.relax_missing_constraint
        assert cfg.graph_min_score == 0.7

    def test_every_env_key_maps_to_a_field(self):
        cfg = PolicyConfig()
        for field_name in ENV_KEYS.values():
            assert hasattr(cfg, field_name)

    def test_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            config_from_mapping({"not_a_field": 1})

    def test_mapping_rejects_the_removed_graph_threshold(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping({"trigger_graph_threshold": 0.8})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("graph_min_score", float("nan")),
            ("graph_drop_tolerance", float("nan")),
            ("temperature", float("inf")),
            ("graph_min_score", True),
            ("n_candidates", 2.7),
            ("n_candidates", 3.0),
            ("n_candidates", True),
            ("enable_graph_guard", 1),
            ("enable_graph_guard", "false"),
        ],
    )
    def test_a_value_of_the_wrong_kind_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"config field {field} takes"):
            PolicyConfig(**{field: value})
        with pytest.raises(ValueError, match=f"config field {field} takes"):
            PolicyConfig().with_overrides(**{field: value})

    @pytest.mark.parametrize("field", ["n_candidates", "repair_max_tokens", "retry_max_tokens"])
    def test_a_count_or_budget_below_one_is_refused(self, field):
        for value in (0, -2):
            with pytest.raises(ValueError, match=f"config field {field} must be at least 1"):
                PolicyConfig(**{field: value})
            with pytest.raises(ValueError, match=f"config field {field} must be at least 1"):
                config_from_mapping({field: value})
        assert getattr(PolicyConfig(**{field: 1}), field) == 1

    @pytest.mark.parametrize(
        "values, field",
        [
            ({"n_candidates": 2.7}, "n_candidates"),
            ({"graph_min_score": "nan"}, "graph_min_score"),
            ({"graph_drop_tolerance": float("nan")}, "graph_drop_tolerance"),
            ({"enable_graph_guard": 1}, "enable_graph_guard"),
            ({"n_candidates": "2.7"}, "n_candidates"),
            ({"graph_min_score": "high"}, "graph_min_score"),
            ({"temperature": None}, "temperature"),
        ],
    )
    def test_mapping_refuses_rather_than_truncates(self, values, field):
        with pytest.raises(ValueError, match=f"config field {field} takes"):
            config_from_mapping(values)

    def test_mapping_reads_a_whole_float_as_an_integer(self):
        assert config_from_mapping({"n_candidates": 2.0}).n_candidates == 2

    def test_env_refuses_nan_thresholds(self):
        env = {"GRAPH_ACCEPT_MIN_SCORE": "nan", "GRAPH_SCORE_DROP_TOLERANCE": "nan"}
        with pytest.raises(ValueError, match="config field graph_min_score takes"):
            config_from_env(env)

    def test_env_rejects_a_bad_boolean(self):
        with pytest.raises(ValueError, match="invalid boolean for enable_graph_guard"):
            config_from_env({"ENABLE_GRAPH_GUARD": "maybe"})


class TestTrigger:
    def test_empty_trace(self):
        decision = trigger(_meta(CATEGORY_CLEAN, 1.0), _graph(), _EMPTY, CFG)
        assert decision.triggered
        assert REASON_EMPTY_TRACE in decision.reasons

    def test_meta_error_categories(self):
        for category in (
            CATEGORY_GENERATION_FAILURE,
            CATEGORY_ARITHMETIC_ERROR,
            CATEGORY_LOGICAL_CONTRADICTION,
        ):
            assert trigger(_meta(category, 1.0), _graph(), _TRACE, CFG).triggered

    def test_graph_generation_failure(self):
        graph = _graph(score=0.0, diagnosis=DIAGNOSIS_GENERATION_FAILURE)
        assert trigger(_meta(CATEGORY_CLEAN, 1.0), graph, _TRACE, CFG).triggered

    def test_high_risk_semantic(self):
        decision = trigger(_meta(CATEGORY_CLEAN, 1.0), _graph(high=True), _TRACE, CFG)
        assert decision.triggered
        assert REASON_HIGH_RISK_SEMANTIC in decision.reasons

    def test_missing_constraint_thresholds(self):
        meta_low = _meta(CATEGORY_MISSING_CONSTRAINT, 0.85)
        meta_high = _meta(CATEGORY_MISSING_CONSTRAINT, 0.92)
        assert trigger(meta_low, _graph(), _TRACE, CFG).reasons == {
            REASON_MISSING_CONSTRAINT_LOW_SCORE
        }
        assert not trigger(meta_high, _graph(), _TRACE, CFG).triggered

    def test_missing_constraint_never_uses_low_meta_clause(self):
        meta = _meta(CATEGORY_MISSING_CONSTRAINT, 0.30)
        decision = trigger(meta, _graph(), _TRACE, CFG)
        assert REASON_LOW_META_SCORE not in decision.reasons

    def test_low_meta_score(self):
        decision = trigger(_meta(CATEGORY_CLEAN, 0.64), _graph(), _TRACE, CFG)
        assert decision.triggered
        assert REASON_LOW_META_SCORE in decision.reasons
        assert not trigger(_meta(CATEGORY_CLEAN, 0.65), _graph(), _TRACE, CFG).triggered

    def test_triggered_iff_reasons(self):
        decision = trigger(_meta(CATEGORY_CLEAN, 0.9), _graph(), _TRACE, CFG)
        assert not decision.triggered
        assert decision.reasons == frozenset()


class TestIsClean:
    def test_blocklist_phrase(self):
        text = "the diagnosis says this is wrong\nFinal Answer: 5"
        assert is_clean(text, CFG).reason == "meta_discussion"

    def test_below_minimum_length(self):
        assert is_clean("Answer: 4", CFG).reason == "too_short"

    def test_two_final_answer_lines(self):
        text = "Final Answer: 5\nFinal Answer: 5"
        assert is_clean(text, CFG).reason == "answer_line_count"

    def test_no_parseable_answer(self):
        assert is_clean("just words, nothing numeric here", CFG).reason == "no_answer"

    def test_excessive_length_cap(self):
        text = ("step " * 400) + "\nFinal Answer: 5"
        assert is_clean(text, CFG, initial_length=100).reason == "too_long"
        assert is_clean(text, CFG, initial_length=1000).ok

    def test_good_candidate(self):
        assert is_clean("14 + 8 = 22\nFinal Answer: 22", CFG).ok


class TestEquationSupported:
    @pytest.mark.parametrize(
        "text, supported",
        [
            ("276 / 12 = 23\nFinal Answer: 23", True),
            ("LCM(6, 5) = 30\nFinal Answer: 30", True),
            ("Time saved = 64\nFinal Answer: 64", False),
            ("3*4=12\nNumber of trays = 12\nFinal Answer: 12", True),
            ("2 + 2 = 5\nFinal Answer: 5", False),
            ("no derivation at all\nFinal Answer: 9", False),
        ],
    )
    def test_cases(self, text, supported):
        trace = ReasoningTrace.from_text(text)
        assert equation_supported(trace, check_equations(text)) is supported


_PROBLEM = "Liam has 14 stickers and buys 8 more stickers. How many stickers in total?"


def _setup(initial_text, candidate_text, cfg=CFG):
    r0 = ReasoningTrace.from_text(initial_text)
    diag0 = diagnose(_PROBLEM, r0)
    decision = trigger(diag0.meta, diag0.graph, r0, cfg)
    candidate = ReasoningTrace.from_text(candidate_text)
    diag_c = diagnose(_PROBLEM, candidate)
    return r0, candidate, diag0, diag_c, decision


class TestAcceptPolicy:
    def test_no_op_rejected_first(self):
        r0, cand, diag0, diag_c, decision = _setup(
            "14 + 8 = 23\nFinal Answer: 23", "14 + 8 = 23\nFinal Answer: 23"
        )
        verdict = accept_policy(r0, cand, diag0, diag_c, decision, CFG)
        assert not verdict.accepted
        assert verdict.rejection_reasons == (REJECT_NO_OP,)

    def test_no_op_rejected_under_every_ablation(self):
        r0, cand, diag0, diag_c, decision = _setup(
            "14 + 8 = 23\nFinal Answer: 23", "different path\n14 + 8 = 23\nFinal Answer: 23"
        )
        for cfg in (
            CFG,
            CFG.with_overrides(enable_graph_guard=False),
            CFG.with_overrides(disable_equation_support=True),
            CFG.with_overrides(relax_missing_constraint=True, weak_reasoner_mode=True),
        ):
            verdict = accept_policy(r0, cand, diag0, diag_c, decision, cfg)
            assert verdict.rejection_reasons == (REJECT_NO_OP,)

    def test_clean_semantic_improvement_accepts_fix(self):
        r0, cand, diag0, diag_c, decision = _setup(
            "14 + 8 = 23\nFinal Answer: 23", "14 + 8 = 22\nFinal Answer: 22"
        )
        verdict = accept_policy(r0, cand, diag0, diag_c, decision, CFG)
        assert verdict.accepted
        assert verdict.path == PATH_CLEAN_SEMANTIC_IMPROVEMENT

    def test_unsupported_answer_rejected(self):
        # Candidate is meta-clean (verified equation, full coverage) but the
        # final answer is a bare naming statement, not a derived result.
        r0, cand, diag0, diag_c, decision = _setup(
            "14 + 8 = 23\nFinal Answer: 23",
            "14 + 8 = 22\nTotal stickers = 30\nFinal Answer: 30",
        )
        verdict = accept_policy(r0, cand, diag0, diag_c, decision, CFG)
        assert not verdict.accepted
        assert REJECT_UNSUPPORTED_ANSWER in verdict.rejection_reasons

    def test_equation_support_ablation_flips_it(self):
        r0, cand, diag0, diag_c, decision = _setup(
            "14 + 8 = 23\nFinal Answer: 23",
            "14 + 8 = 22\nTotal stickers = 30\nFinal Answer: 30",
        )
        cfg = CFG.with_overrides(disable_equation_support=True)
        verdict = accept_policy(r0, cand, diag0, diag_c, decision, cfg)
        assert verdict.accepted

    def test_empty_generation_rescue(self):
        r0, cand, diag0, diag_c, decision = _setup(
            "", "14 + 8 = 22\nFinal Answer: 22"
        )
        verdict = accept_policy(r0, cand, diag0, diag_c, decision, CFG)
        assert verdict.accepted
        assert verdict.path == PATH_EMPTY_GENERATION_RESCUE

    def test_high_risk_semantic_repair_path(self):
        problem = "3 bags with 4 candies each. How many candies in all?"
        r0 = ReasoningTrace.from_text("I think the answer is 7.\nFinal Answer: 7")
        diag0 = diagnose(problem, r0)
        decision = trigger(diag0.meta, diag0.graph, r0, CFG)
        assert REASON_HIGH_RISK_SEMANTIC in decision.reasons
        cand = ReasoningTrace.from_text("3 * 4 = 12\nFinal Answer: 12")
        diag_c = diagnose(problem, cand)
        verdict = accept_policy(r0, cand, diag0, diag_c, decision, CFG)
        assert verdict.accepted
        assert verdict.path == PATH_HIGH_RISK_SEMANTIC_REPAIR

    def test_graph_guard_rejection(self):
        problem = "Had 10 apples and gave away 3 apples. How many are left?"
        r0 = ReasoningTrace.from_text("10 - 3 = 8\nFinal Answer: 8")
        diag0 = diagnose(problem, r0)
        decision = trigger(diag0.meta, diag0.graph, r0, CFG)
        # Candidate misreads the change event: verified equation, wrong move.
        cand = ReasoningTrace.from_text("10 + 3 = 13\nFinal Answer: 13")
        diag_c = diagnose(problem, cand)
        verdict = accept_policy(r0, cand, diag0, diag_c, decision, CFG)
        assert not verdict.accepted

    def test_missing_constraint_candidate_needs_relaxation(self):
        problem = (
            "Noah packs 3 boxes with 4 pens each, plus 5 erasers and 11 rulers. "
            "How many pens does Noah pack in all?"
        )
        r0 = ReasoningTrace.from_text("3 * 4 = 12\nFinal Answer: 12")
        diag0 = diagnose(problem, r0)
        decision = trigger(diag0.meta, diag0.graph, r0, CFG)
        assert decision.triggered
        cand = ReasoningTrace.from_text("3 * 4 = 12\n12 + 5 = 17\nFinal Answer: 17")
        diag_c = diagnose(problem, cand)
        assert diag_c.meta.category == CATEGORY_MISSING_CONSTRAINT
        strict = accept_policy(r0, cand, diag0, diag_c, decision, CFG)
        relaxed = accept_policy(
            r0, cand, diag0, diag_c, decision, CFG.with_overrides(relax_missing_constraint=True)
        )
        assert not strict.accepted
        assert relaxed.accepted
        assert relaxed.path == PATH_RELAXED_SUPPORT

    def test_very_low_confidence_rescue(self):
        r0, cand, diag0, diag_c, decision = _setup(
            "I guess it could be 9 or so\nodd text 9",
            "14 + 8 = 22\nFinal Answer: 22",
        )
        assert diag0.meta.meta_score < 0.40
        verdict = accept_policy(r0, cand, diag0, diag_c, decision, CFG)
        assert verdict.accepted
        assert verdict.path == PATH_VERY_LOW_CONFIDENCE_RESCUE

    def test_weak_reasoner_relaxed_path(self):
        r0, cand, diag0, diag_c, decision = _setup(
            "14 + 8 = 23\nFinal Answer: 23", "14 + 8 = 22\nFinal Answer: 22"
        )
        # A candidate whose graph score sits below the acceptance minimum is
        # out of reach for the relaxed-support path; only the weak-reasoner
        # path (with the graph guard ablated) can take it.
        diag_c = diag_c._replace(graph=_graph(score=0.55))
        cfg = CFG.with_overrides(
            improvement_margin=2.0, rescue_initial_meta_max=0.0, enable_graph_guard=False
        )
        assert not accept_policy(r0, cand, diag0, diag_c, decision, cfg).accepted
        weak = cfg.with_overrides(weak_reasoner_mode=True)
        verdict = accept_policy(r0, cand, diag0, diag_c, decision, weak)
        assert verdict.accepted
        assert verdict.path == PATH_WEAK_REASONER_RELAXED

    def test_accepted_implies_graph_clean_under_main_config(self):
        problem = "Had 10 apples and gave away 3 apples. How many are left?"
        r0 = ReasoningTrace.from_text("10 - 3 = 8\nFinal Answer: 8")
        diag0 = diagnose(problem, r0)
        decision = trigger(diag0.meta, diag0.graph, r0, CFG)
        for candidate_text in (
            "10 + 3 = 13\nFinal Answer: 13",
            "10 - 3 = 7\nFinal Answer: 7",
        ):
            cand = ReasoningTrace.from_text(candidate_text)
            diag_c = diagnose(problem, cand)
            verdict = accept_policy(r0, cand, diag0, diag_c, decision, CFG)
            if verdict.accepted:
                assert not any(risk.severity == SEVERITY_HIGH for risk in diag_c.graph.risks)

    def test_equation_support_is_decided_once_per_verdict(self, monkeypatch):
        import trace_repair.policy as policy

        problem = "Tom has 3 apples and 4 pears."
        r0 = ReasoningTrace.from_text("3 + 4 = 7\nFinal Answer: 7")
        cand = ReasoningTrace.from_text("3 * 4 = 12\nFinal Answer: 12")
        diag0, diag_c = diagnose(problem, r0), diagnose(problem, cand)
        decision = trigger(diag0.meta, diag0.graph, r0, CFG)
        calls = []

        def counted(checks):
            calls.append(checks)
            return verified_results(checks)

        monkeypatch.setattr(policy, "verified_results", counted)
        verdict = accept_policy(r0, cand, diag0, diag_c, decision, CFG)
        assert verdict.accepted
        assert verdict.path == PATH_RELAXED_SUPPORT
        assert len(calls) == 1
