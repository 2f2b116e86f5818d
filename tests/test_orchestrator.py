import dataclasses
import json

import pytest

from trace_repair.answers import ReasoningTrace
from trace_repair.datasets import DatasetRecord, read_jsonl, write_dataset
from trace_repair.diagnostics import diagnose
from trace_repair.orchestrator import (
    CandidateRecord,
    PromptSpec,
    ProviderResponseError,
    ProviderTransportError,
    STYLE_HINT_GUIDED,
    STYLE_SOLVE_FRESH,
    STYLE_STRICT_CONCISE,
    build_prompt,
    parse_candidate,
    repair_example,
    style_for_attempt,
)
from trace_repair.pipeline import (
    MODE_DIRECT_BESTOF3_GATED,
    MODE_GUARDED,
    MODE_SOLVE_ALL,
    MODE_SOLVE_TRIGGERED,
    RunManifest,
    run_pipeline,
)
from trace_repair.policy import PolicyConfig, trigger
from trace_repair.providers import ReplayCacheMiss, ReplayEntry, ReplayProvider

CFG = PolicyConfig()
PROBLEM = "Liam has 14 stickers and buys 8 more stickers. How many stickers in total?"
WRONG_INITIAL = "14 + 8 = 23\nFinal Answer: 23"
GOOD = json.dumps({"steps": ["14 + 8 = 22"], "final_answer": "22"})
NOOP = json.dumps({"steps": ["14 + 8 = 23"], "final_answer": "23"})
MALFORMED = "Sure! Here is my corrected attempt: the total is 22."
# A no-op whose text is not the cached trace's.
RESTATED_NOOP = json.dumps({"steps": ["Liam has 14 + 8 = 23 stickers"], "final_answer": "23"})


def _context(initial_text=WRONG_INITIAL):
    r0 = ReasoningTrace.from_text(initial_text)
    diag0 = diagnose(PROBLEM, r0)
    decision = trigger(diag0.meta, diag0.graph, r0, CFG)
    return r0, diag0, decision


class TestPrompts:
    def test_style_cycling(self):
        assert style_for_attempt(0) == STYLE_HINT_GUIDED
        assert style_for_attempt(1) == STYLE_STRICT_CONCISE
        assert style_for_attempt(2) == STYLE_SOLVE_FRESH
        assert style_for_attempt(3) == STYLE_HINT_GUIDED

    def test_skeleton_content(self):
        r0, diag0, _ = _context()
        spec = build_prompt("ex1", PROBLEM, r0.text, diag0, 0)
        rendered = spec.render()
        assert rendered.startswith("System: Return only valid JSON. No markdown.")
        assert '"steps"' in rendered and '"final_answer"' in rendered
        assert "Use at most 4 steps." in rendered
        assert "final_answer is number-only." in rendered
        assert f"Problem: {PROBLEM}" in rendered
        assert "Initial: 14 + 8 = 23" in rendered
        assert "Hint: " in rendered
        assert "Meta error: arithmetic_error" in rendered

    def test_solve_fresh_mentions_warning_signal(self):
        r0, diag0, _ = _context()
        spec = build_prompt("ex1", PROBLEM, r0.text, diag0, 2)
        assert "warning signal" in spec.render()
        assert "at most four compact steps" in spec.render()

    def test_direct_mode_omits_initial_and_hint(self):
        r0, diag0, _ = _context()
        spec = build_prompt("ex1", PROBLEM, r0.text, diag0, 0, include_initial=False)
        rendered = spec.render()
        assert "Initial:" not in rendered
        assert "Hint:" not in rendered
        assert "Semantic error:" not in rendered
        assert "Meta error:" not in rendered

    def test_retry_prompt_embeds_malformed_output(self):
        r0, diag0, _ = _context()
        spec = build_prompt("ex1", PROBLEM, r0.text, diag0, 0)
        retry = dataclasses.replace(spec, retry_of=MALFORMED)
        assert MALFORMED in retry.render()
        assert "Rewrite only the malformed output" in retry.render()
        assert retry.prompt_hash() != spec.prompt_hash()

    def test_hint_shows_false_claim(self):
        r0, diag0, _ = _context()
        spec = build_prompt("ex1", PROBLEM, r0.text, diag0, 0)
        assert "14 + 8 = 23" in spec.diagnostic_hint


class TestParseCandidate:
    def test_valid(self):
        parsed = parse_candidate(GOOD)
        assert parsed.final_answer == "22"
        assert parsed.trace_text() == "14 + 8 = 22\nFinal Answer: 22"

    def test_fenced(self):
        assert parse_candidate(f"```json\n{GOOD}\n```") is not None
        assert parse_candidate(f"```\n{GOOD}\n```") is not None

    @pytest.mark.parametrize(
        "raw",
        [
            '{"answer": 12}',
            '{"steps": "not a list", "final_answer": "12"}',
            '{"steps": [1, 2], "final_answer": "12"}',
            '{"steps": ["x"], "final_answer": 12}',
            '{"steps": ["x"], "final_answer": "12 apples"}',
            '{"steps": ["x"], "final_answer": "12", "extra": true}',
            "not json at all",
            "",
        ],
    )
    def test_failures(self, raw):
        assert parse_candidate(raw) is None

    def test_final_answer_too_long_for_int_is_a_failure(self):
        raw = json.dumps({"steps": ["x"], "final_answer": "1" * 5000})
        assert parse_candidate(raw) is None


class TestRepairExample:
    def test_first_accepted_wins_and_short_circuits(self):
        r0, diag0, decision = _context()
        # Only attempts 0 and 1 exist in the cache; consulting attempt 2
        # would raise a loud cache miss.
        provider = ReplayProvider(
            {
                ("ex1", 0): ReplayEntry(NOOP),
                ("ex1", 1): ReplayEntry(GOOD),
            }
        )
        outcome = repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)
        assert outcome.accepted_index == 1
        assert outcome.final_trace.answer.canonical == "22"
        assert [record.attempt_index for record in outcome.records] == [0, 1]

    def test_all_rejected_preserves_initial(self):
        r0, diag0, decision = _context()
        provider = ReplayProvider(
            {("ex1", attempt): ReplayEntry(NOOP) for attempt in range(3)}
        )
        outcome = repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)
        assert not outcome.accepted
        assert outcome.final_trace is r0
        assert len(outcome.records) == 3

    def test_malformed_then_retry(self):
        r0, diag0, decision = _context()
        provider = ReplayProvider({("ex1", 0): ReplayEntry(MALFORMED, retry_output=GOOD)})
        outcome = repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)
        assert outcome.accepted_index == 0
        assert outcome.records[0].retried
        assert outcome.records[0].retry_output == GOOD

    def test_retry_budget_is_one(self):
        r0, diag0, decision = _context()
        provider = ReplayProvider(
            {
                ("ex1", 0): ReplayEntry(MALFORMED, retry_output=MALFORMED),
                ("ex1", 1): ReplayEntry(GOOD),
            }
        )
        outcome = repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)
        assert outcome.records[0].retried
        assert outcome.records[0].parsed is None
        assert outcome.accepted_index == 1

    def test_cache_miss_is_loud(self):
        r0, diag0, decision = _context()
        provider = ReplayProvider({})
        with pytest.raises(ReplayCacheMiss):
            repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)

    def test_transport_failure_continues(self):
        r0, diag0, decision = _context()

        class FlakyProvider:
            identity = "flaky"

            def generate(self, prompt, max_tokens, temperature):
                if prompt.attempt_index == 0:
                    raise ProviderTransportError("connection reset")
                return GOOD

        outcome = repair_example("ex1", PROBLEM, r0, diag0, decision, FlakyProvider(), CFG)
        assert outcome.records[0].error is not None
        assert outcome.accepted_index == 1

    def test_reply_without_candidate_text_is_a_parse_failure(self):
        r0, diag0, decision = _context()
        calls = []

        class GarbledProvider:
            identity = "garbled"

            def generate(self, prompt, max_tokens, temperature):
                calls.append((prompt.attempt_index, prompt.is_retry))
                if prompt.attempt_index == 0:
                    raise ProviderResponseError("malformed response body")
                if prompt.is_retry:
                    raise ProviderResponseError("no choices")
                return MALFORMED if prompt.attempt_index == 1 else GOOD

        provider = GarbledProvider()
        outcome = repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)
        assert calls == [(0, False), (1, False), (1, True), (2, False)]
        assert outcome.records[0].error == "parse_failure: malformed response body"
        assert not outcome.records[0].retried
        assert outcome.records[1].error == "parse_failure on retry: no choices"
        assert outcome.accepted_index == 2

    def test_call_budget(self):
        r0, diag0, decision = _context()
        calls = []

        class CountingProvider:
            identity = "counting"

            def generate(self, prompt, max_tokens, temperature):
                calls.append((prompt.attempt_index, prompt.is_retry, max_tokens))
                return MALFORMED

        outcome = repair_example(
            "ex1", PROBLEM, r0, diag0, decision, CountingProvider(), CFG
        )
        assert not outcome.accepted
        # N generations at 768 tokens plus at most one 512-token retry each.
        assert len(calls) == 2 * CFG.n_candidates
        assert {tokens for _, is_retry, tokens in calls if is_retry} == {512}
        assert {tokens for _, is_retry, tokens in calls if not is_retry} == {768}

    def test_replay_determinism(self):
        r0, diag0, decision = _context()
        provider = ReplayProvider(
            {
                ("ex1", 0): ReplayEntry(NOOP),
                ("ex1", 1): ReplayEntry(MALFORMED, retry_output=GOOD),
            }
        )
        first = repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)
        second = repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)
        assert [r.to_json_dict() for r in first.records] == [
            r.to_json_dict() for r in second.records
        ]
        assert first.final_trace.text == second.final_trace.text


def _dataset():
    return [
        DatasetRecord("a", PROBLEM, "22", WRONG_INITIAL),
        DatasetRecord(
            "b",
            "Maya has 11 marbles and buys 6 more marbles. How many marbles in total?",
            "17",
            "11 + 6 = 17\nFinal Answer: 17",
        ),
    ]


def _run_baseline(tmp_path, mode, cache):
    """Run a baseline through the pipeline; returns (finals by id, records)."""
    dataset_path = tmp_path / "dataset.jsonl"
    write_dataset(_dataset(), dataset_path)
    cache_path = tmp_path / "cache.jsonl"
    cache_path.write_text(
        "".join(
            json.dumps(
                {
                    "example_id": example_id,
                    "attempt_index": attempt,
                    "raw_output": entry.raw_output,
                    "retry_output": entry.retry_output,
                }
            )
            + "\n"
            for (example_id, attempt), entry in cache.items()
        )
    )
    result = run_pipeline(
        RunManifest(
            mode=mode,
            dataset_path=dataset_path,
            output_dir=tmp_path / "out",
            cache_path=cache_path,
        )
    )
    finals = {
        row["example_id"]: ReasoningTrace.from_text(row["final_trace"])
        for row in map(json.loads, open(result.paths["predictions"]))
    }
    records = [
        CandidateRecord.from_json_dict(where, row)
        for where, row in read_jsonl(result.paths["candidates"])
    ]
    return finals, records


class TestBaselines:
    def test_solve_all_calls_every_example(self, tmp_path):
        cache = {
            ("a", 0): ReplayEntry(GOOD),
            ("b", 0): ReplayEntry(json.dumps({"steps": ["11 + 6 = 17"], "final_answer": "17"})),
        }
        finals, records = _run_baseline(tmp_path, MODE_SOLVE_ALL, cache)
        assert len(records) == 2
        assert finals["a"].answer.canonical == "22"
        assert finals["b"].answer.canonical == "17"

    def test_solve_triggered_only_touches_triggered(self, tmp_path):
        cache = {("a", 0): ReplayEntry(GOOD)}
        finals, records = _run_baseline(tmp_path, MODE_SOLVE_TRIGGERED, cache)
        # Example b is clean and never triggered; no cache entry needed.
        assert len(records) == 1
        assert finals["b"].text == _dataset()[1].cached_initial_trace

    def test_solve_all_accepts_unconditionally(self, tmp_path):
        # Even a no-op regeneration replaces the trace in solve_all.
        cache = {
            ("a", 0): ReplayEntry(NOOP),
            ("b", 0): ReplayEntry(json.dumps({"steps": ["11 + 6 = 17"], "final_answer": "17"})),
        }
        finals, _ = _run_baseline(tmp_path, MODE_SOLVE_ALL, cache)
        assert finals["a"].answer.canonical == "23"

    def test_direct_gated_applies_gates(self, tmp_path):
        unsupported = json.dumps({"steps": ["it is clear"], "final_answer": "99"})
        cache = {
            ("a", 0): ReplayEntry(unsupported),
            ("a", 1): ReplayEntry(unsupported),
            ("a", 2): ReplayEntry(unsupported),
        }
        finals, records = _run_baseline(tmp_path, MODE_DIRECT_BESTOF3_GATED, cache)
        assert finals["a"].answer.canonical == "23"  # preserved
        assert len(records) == 3

    def test_direct_gated_accepts_supported_fix(self, tmp_path):
        cache = {("a", 0): ReplayEntry(GOOD)}
        finals, records = _run_baseline(tmp_path, MODE_DIRECT_BESTOF3_GATED, cache)
        assert finals["a"].answer.canonical == "22"
        assert len(records) == 1

    def test_solve_all_keeps_trace_when_output_never_parses(self, tmp_path):
        # An output that stays malformed after the retry has no answer to
        # substitute; the cached trace survives even in accept-all mode.
        cache = {
            ("a", 0): ReplayEntry(MALFORMED, retry_output=MALFORMED),
            ("b", 0): ReplayEntry(json.dumps({"steps": ["11 + 6 = 17"], "final_answer": "17"})),
        }
        finals, records = _run_baseline(tmp_path, MODE_SOLVE_ALL, cache)
        assert finals["a"].text == WRONG_INITIAL
        assert len(records) == 2
        assert records[0].retried


def test_each_distinct_text_is_parsed_once_per_example(count_calls):
    """A text met again in the example is not parsed again, and a copy of
    the cached trace is not parsed at all."""
    r0, diag0, decision = _context()
    provider = ReplayProvider(
        {
            ("ex1", 0): ReplayEntry(NOOP),
            ("ex1", 1): ReplayEntry(RESTATED_NOOP),
            ("ex1", 2): ReplayEntry(RESTATED_NOOP),
            ("ex1", 3): ReplayEntry(GOOD),
        }
    )
    extractions = count_calls("answers", "extract_answer")
    outcome = repair_example(
        "ex1", PROBLEM, r0, diag0, decision, provider, dataclasses.replace(CFG, n_candidates=4)
    )
    assert outcome.accepted_index == 3
    texts = [record.parsed.trace_text() for record in outcome.records]
    assert texts[0] == r0.text and texts[1] == texts[2]
    assert [args[0] for args in extractions] == [texts[1], texts[3]]


# An answer-changing candidate that passes cleanliness but keeps a high
# semantic risk, so no acceptance path takes it.
UNSAFE = json.dumps({"steps": ["14 - 8 = 6"], "final_answer": "6"})
UNSAFE_ROW = {
    "example_id": "ex1",
    "raw_output": UNSAFE,
    "retry_output": None,
    "parsed": {"steps": ["14 - 8 = 6"], "final_answer": "6"},
    "retried": False,
    "clean": True,
    "clean_reason": None,
    "graph_clean": False,
    "answer_changed": True,
    "verdict": {"accepted": False, "path": "none", "rejection_reasons": ["residual_risk"]},
    "error": None,
}
# Pinned from a loop that diagnosed every attempt afresh: reusing a
# diagnosis must not change a field of a record.
COPY_THEN_UNSAFE_TWICE = [
    {
        **UNSAFE_ROW,
        "attempt_index": 0,
        "prompt_hash": "ed4eadecfd9b8a8604aa21f0bd11a7b6af4f6c694cf6c7db44d8d77efe8ae33e",
        "raw_output": NOOP,
        "parsed": {"steps": ["14 + 8 = 23"], "final_answer": "23"},
        "graph_clean": True,
        "answer_changed": False,
        "verdict": {"accepted": False, "path": "none", "rejection_reasons": ["no_op"]},
    },
    {
        **UNSAFE_ROW,
        "attempt_index": 1,
        "prompt_hash": "bb719dc7bc2ac5a826fa3a8f5b347f21f1ecfb55971cfde05c7ef75a5c244953",
    },
    {
        **UNSAFE_ROW,
        "attempt_index": 2,
        "prompt_hash": "3c787485fc84d066392b05505433e346532ce3b8ca19aebe6f0e96ca575bca2a",
    },
]


def test_a_copy_of_the_cached_trace_and_a_repeat_are_diagnosed_once_in_all(count_calls):
    """The cached trace's own text reuses the first diagnosis, and a repeated
    candidate its first attempt's: one parse and one diagnosis for three
    attempts, and the same records as a diagnosis per attempt gave."""
    r0, diag0, decision = _context()
    assert parse_candidate(NOOP).trace_text() == r0.text
    provider = ReplayProvider(
        {("ex1", 0): ReplayEntry(NOOP), ("ex1", 1): ReplayEntry(UNSAFE), ("ex1", 2): ReplayEntry(UNSAFE)}
    )
    diagnoses = count_calls("diagnostics", "diagnose")
    extractions = count_calls("answers", "extract_answer")
    outcome = repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)
    assert len(diagnoses) == 1 and len(extractions) == 1
    assert diagnoses[0][1].text == extractions[0][0] == "14 - 8 = 6\nFinal Answer: 6"
    assert outcome.accepted_index is None and outcome.final_trace is r0
    assert [record.to_json_dict() for record in outcome.records] == COPY_THEN_UNSAFE_TWICE


TRANSPORT = ProviderTransportError("connection reset")
NO_TEXT = ProviderResponseError("no choices")
ACCEPTED_GOOD = {
    "raw_output": MALFORMED,
    "retry_output": GOOD,
    "parsed": {"steps": ["14 + 8 = 22"], "final_answer": "22"},
    "retried": True,
    "clean": True,
    "graph_clean": True,
    "answer_changed": True,
    "verdict": {"accepted": True, "path": "clean_semantic_improvement", "rejection_reasons": []},
}


@pytest.mark.parametrize(
    "first, retry, fields",
    [
        (TRANSPORT, None, {"error": "transport: connection reset"}),
        (
            MALFORMED,
            TRANSPORT,
            {"raw_output": MALFORMED, "retried": True, "error": "transport on retry: connection reset"},
        ),
        (NO_TEXT, None, {"error": "parse_failure: no choices"}),
        (
            MALFORMED,
            NO_TEXT,
            {"raw_output": MALFORMED, "retried": True, "error": "parse_failure on retry: no choices"},
        ),
        (
            MALFORMED,
            MALFORMED,
            {
                "raw_output": MALFORMED,
                "retry_output": MALFORMED,
                "retried": True,
                "error": "parse_failure",
            },
        ),
        (MALFORMED, GOOD, ACCEPTED_GOOD),
    ],
    ids=[
        "transport",
        "transport_on_retry",
        "no_text",
        "no_text_on_retry",
        "malformed_twice",
        "malformed_then_valid",
    ],
)
def test_every_shape_an_attempt_can_end_in(first, retry, fields):
    r0, diag0, decision = _context()
    calls = []

    class ScriptedProvider:
        identity = "scripted"

        def generate(self, prompt, max_tokens, temperature):
            calls.append(prompt.is_retry)
            reply = retry if prompt.is_retry else first
            if isinstance(reply, Exception):
                raise reply
            return reply

    outcome = repair_example(
        "ex1", PROBLEM, r0, diag0, decision, ScriptedProvider(), dataclasses.replace(CFG, n_candidates=1)
    )
    row = {
        "example_id": "ex1",
        "attempt_index": 0,
        "prompt_hash": build_prompt("ex1", PROBLEM, r0.text, diag0, 0).prompt_hash(),
        "raw_output": "",
        "retry_output": None,
        "parsed": None,
        "retried": False,
        "clean": False,
        "clean_reason": None,
        "graph_clean": None,
        "answer_changed": None,
        "verdict": None,
        "error": None,
    }
    row.update(fields)
    assert [record.to_json_dict() for record in outcome.records] == [row]
    assert calls == ([False, True] if row["retried"] else [False])
    assert outcome.accepted_index == (0 if row["verdict"] else None)


def test_prompt_is_built_once_per_example(count_calls):
    r0, diag0, decision = _context()
    hints = count_calls("orchestrator", "render_hint")
    categories = count_calls("orchestrator", "risk_categories")
    provider = ReplayProvider({("ex1", attempt): ReplayEntry(NOOP) for attempt in range(3)})
    outcome = repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)
    assert hints == [(diag0,)]
    assert categories == [(diag0.graph,)]
    assert [record.prompt_hash for record in outcome.records] == [
        build_prompt("ex1", PROBLEM, r0.text, diag0, attempt).prompt_hash() for attempt in range(3)
    ]


def test_each_attempt_hashes_its_prompt_once(monkeypatch):
    """Three attempts that each need the format retry hash three prompts,
    and the replay cache still checks both calls of every attempt."""
    r0, diag0, decision = _context()
    hashes = [
        build_prompt("ex1", PROBLEM, r0.text, diag0, attempt).prompt_hash() for attempt in range(3)
    ]
    original = PromptSpec.prompt_hash
    calls = []

    def counting(self):
        calls.append(self.attempt_index)
        return original(self)

    monkeypatch.setattr(PromptSpec, "prompt_hash", counting)
    provider = ReplayProvider(
        {("ex1", attempt): ReplayEntry(MALFORMED, NOOP, hashes[attempt]) for attempt in range(3)}
    )
    outcome = repair_example("ex1", PROBLEM, r0, diag0, decision, provider, CFG)
    assert calls == [0, 1, 2]
    assert [record.prompt_hash for record in outcome.records] == hashes
    assert all(record.retried and record.parsed for record in outcome.records)

    stale = ReplayProvider({("ex1", 0): ReplayEntry(MALFORMED, NOOP, "0" * 64)})
    with pytest.raises(ReplayCacheMiss, match="another prompt"):
        repair_example("ex1", PROBLEM, r0, diag0, decision, stale, dataclasses.replace(CFG, n_candidates=1))


def test_a_text_two_examples_share_is_diagnosed_against_each_problem(tmp_path):
    """The memo is the example's: the one candidate text is graph-clean and
    accepted against one problem and left with a residual risk against the
    other, and each example's rows are its rows in a run of its own."""
    subtraction = DatasetRecord(
        "a",
        "Liam has 14 stickers and gives away 8 stickers. How many stickers are left?",
        "6",
        "14 - 8 = 5\nFinal Answer: 5",
    )
    addition = DatasetRecord("b", PROBLEM, "22", WRONG_INITIAL)
    cache = [("a", 0, UNSAFE)] + [("b", attempt, UNSAFE) for attempt in range(3)]

    def rows(directory, records):
        directory.mkdir()
        write_dataset(records, directory / "dataset.jsonl")
        ids = {record.example_id for record in records}
        (directory / "cache.jsonl").write_text(
            "".join(
                json.dumps({"example_id": example_id, "attempt_index": attempt, "raw_output": raw}) + "\n"
                for example_id, attempt, raw in cache
                if example_id in ids
            )
        )
        manifest = RunManifest(
            mode=MODE_GUARDED,
            dataset_path=directory / "dataset.jsonl",
            output_dir=directory / "out",
            cache_path=directory / "cache.jsonl",
        )
        paths = run_pipeline(manifest).paths
        by_example = {}
        for key in ("predictions", "candidates", "risk_log"):
            for line in paths[key].read_text(encoding="utf-8").splitlines():
                by_example.setdefault(json.loads(line)["example_id"], {}).setdefault(key, []).append(line)
        return by_example

    joint = rows(tmp_path / "joint", [subtraction, addition])
    assert joint == {**rows(tmp_path / "a", [subtraction]), **rows(tmp_path / "b", [addition])}
    graph_cleans = {
        example_id: [json.loads(line)["graph_clean"] for line in example["candidates"]]
        for example_id, example in joint.items()
    }
    assert graph_cleans == {"a": [True], "b": [False, False, False]}
