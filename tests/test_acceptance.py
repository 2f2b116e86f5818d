"""Acceptance suite: the release gate for this package.

Each test covers one numbered criterion and prints a single PASS line on
success (run with ``pytest tests/test_acceptance.py -v -s``). Expected
values are either fixed reference statistics, independently recomputed
oracles, or exhaustive enumerations.
"""

import itertools
import json
import random

import pytest

from report_rows import candidate, prediction, tally_of
from synthetic_run import (
    EXPECTED_ACCEPTED,
    EXPECTED_ATTEMPTS,
    GROUP_NOOP,
    GROUP_RETRY,
    GROUP_SAFE_FIX,
    GROUP_UNSAFE,
    write_synthetic_run,
)
from trace_repair.answers import ReasoningTrace, answers_equivalent, normalize_answer
from trace_repair.datasets import DatasetRecord, filter_numeric
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
from trace_repair.equations import check_equations
from trace_repair.pipeline import MODE_REPLAY, RunManifest, run_pipeline
from trace_repair.policy import (
    PolicyConfig,
    TriggerDecision,
    accept_policy,
    equation_supported,
    is_clean,
    trigger,
)
from trace_repair.reporting import (
    RunReport,
    aggregate_runs,
    compute_report,
    round2,
    rule_of_three,
    sign_test,
)
from trace_repair.risk_graph import (
    DIAGNOSIS_GENERATION_FAILURE,
    DIAGNOSIS_OK,
    GraphReport,
    RiskSignal,
    SEVERITY_HIGH,
    has_high_risk,
)

CFG = PolicyConfig()


def _ok(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS  ({detail})")


def test_criterion_1_metric_oracle():
    """total=1319, initially correct=1261, F=17, B=0, accepted=20."""
    rows = []
    records = []

    def add(example_id, initial, final, triggered, accepted_attempt=None):
        rows.append(prediction(example_id, initial, final, "7", triggered, accepted_attempt))

    index = 0

    def next_id():
        nonlocal index
        example_id = f"g{index:04d}"
        index += 1
        return example_id

    # 20 acceptances split as 13 at attempt 0 and 7 at attempt 2, so the
    # record count lands on the reference 1498 attempts.
    fixed_ids = [next_id() for _ in range(17)]
    for position, example_id in enumerate(fixed_ids):
        last = 0 if position < 13 else 2
        add(example_id, "5", "7", True, last)
        for attempt in range(last):
            records.append(candidate(example_id, attempt, "5"))
        records.append(candidate(example_id, last, "7"))
    # 3 accepted wrong-to-wrong modifications, accepted at attempt 2.
    for _ in range(3):
        example_id = next_id()
        add(example_id, "5", "6", True, 2)
        records.extend(candidate(example_id, attempt, "5") for attempt in range(2))
        records.append(candidate(example_id, 2, "6"))
    # 8 triggered-wrong with a correct-but-rejected candidate.
    for _ in range(8):
        example_id = next_id()
        add(example_id, "5", "5", True)
        records.extend(
            [candidate(example_id, 0, "7"), candidate(example_id, 1, "5"), candidate(example_id, 2)]
        )
    # 15 triggered-wrong with no correct candidate.
    for _ in range(15):
        example_id = next_id()
        add(example_id, "5", "5", True)
        records.extend(candidate(example_id, attempt, "5") for attempt in range(3))
    # 15 wrong, never triggered.
    for _ in range(15):
        add(next_id(), "5", "5", False)
    # 465 correct triggered (508 total triggered), all candidates rejected.
    for _ in range(465):
        example_id = next_id()
        add(example_id, "7", "7", True)
        records.extend(candidate(example_id, attempt, "7") for attempt in range(3))
    # Remaining correct untouched examples.
    while index < 1319:
        add(next_id(), "7", "7", False)

    report = compute_report(tally_of(rows, records))
    assert report.total == 1319
    assert report.fixed == 17
    assert report.broken == 0
    assert report.accepted == 20
    assert report.attempts == 1498
    assert round2(report.initial_accuracy) == 95.60
    assert round2(report.final_accuracy) == 96.89
    assert round2(report.delta) == 1.29
    assert round2(report.accepted_precision) == 85.00
    assert round2(report.harm_rate) == 0.00
    assert round2(report.error_repair_rate) == 29.31
    assert report.candidate_flow == {
        "InitW": 58,
        "TrigW": 43,
        "CorrC": 25,
        "AccC": 17,
        "RejC": 8,
        "NoC": 33,
        "FinalW": 41,
        "Brk": 0,
    }
    _ok("criterion 1", "final 96.89, delta +1.29, precision 85.00, harm 0.00")


def test_criterion_2_sign_test_exactness():
    p17 = sign_test(17, 0)
    p92 = sign_test(92, 0)
    assert abs(p17 - 1.53e-5) / 1.53e-5 < 0.01
    assert abs(p92 - 4.04e-28) / 4.04e-28 < 0.01
    _ok("criterion 2", f"sign_test(17,0)={p17:.3e}, sign_test(92,0)={p92:.3e}")


def test_criterion_3_rule_of_three():
    assert round2(rule_of_three(1319)) == 0.23
    assert round2(rule_of_three(1000)) == 0.30
    _ok("criterion 3", "1319 -> 0.23%, 1000 -> 0.30%")


def test_criterion_4_flow_identities_randomized():
    rng = random.Random(20240811)
    runs = 1000
    for _ in range(runs):
        n = rng.randint(1, 50)
        rows = []
        # (example_id, initially correct, finally correct, triggered), as drawn.
        labels = []
        records = []
        for index in range(n):
            example_id = f"e{index}"
            initially = rng.random() < 0.6
            triggered = rng.random() < 0.5 or not initially
            accepted = triggered and rng.random() < 0.3
            initial = "7" if initially else "5"
            if accepted:
                candidate_ok = rng.random() < 0.7
                finally_ = candidate_ok
                answer = "7" if candidate_ok else "6"
                records.append(candidate(example_id, 0, answer))
            else:
                finally_ = initially
                answer = initial
                if triggered and rng.random() < 0.5:
                    reply = "7" if rng.random() < 0.4 else "5"
                    for attempt in range(rng.randint(1, 3)):
                        records.append(candidate(example_id, attempt, reply))
            rows.append(
                prediction(example_id, initial, answer, "7", triggered, 0 if accepted else None)
            )
            labels.append((example_id, initially, finally_, triggered))

        report = compute_report(tally_of(rows, records))
        flow = report.candidate_flow

        # Independent brute-force recount.
        gold_match = set()
        for record in records:
            if record.parsed and answers_equivalent(
                normalize_answer(record.parsed.final_answer), normalize_answer("7")
            ):
                gold_match.add(record.example_id)
        init_w = [label for label in labels if not label[1]]
        brute = {
            "InitW": len(init_w),
            "TrigW": sum(1 for _, _, _, triggered in init_w if triggered),
            "CorrC": sum(1 for example_id, *_ in init_w if example_id in gold_match),
            "AccC": sum(1 for _, _, finally_, _ in init_w if finally_),
            "FinalW": sum(1 for _, _, finally_, _ in init_w if not finally_),
            "Brk": sum(1 for _, initially, finally_, _ in labels if initially and not finally_),
        }
        brute["RejC"] = brute["CorrC"] - brute["AccC"]
        brute["NoC"] = brute["InitW"] - brute["CorrC"]
        assert flow == brute
        assert flow["RejC"] == flow["CorrC"] - flow["AccC"]
        assert flow["NoC"] == flow["InitW"] - flow["CorrC"]
        assert flow["FinalW"] == flow["InitW"] - report.fixed
    _ok("criterion 4", f"{runs} randomized runs, flow identities + brute-force recount")


# --- criterion 5: generated candidate scenarios ---------------------------

_PROBLEMS = (
    "Liam has 14 stickers and buys 8 more stickers. How many stickers in total?",
    "Noah packs 3 boxes with 4 pens each, plus 5 erasers and 11 rulers. "
    "How many pens does Noah pack in all?",
    "Had 10 apples and gave away 3 apples. How many apples are left?",
)

_INITIALS = (
    "14 + 8 = 23\nFinal Answer: 23",
    "14 + 8 = 22\nFinal Answer: 22",
    "3 * 4 = 12\nFinal Answer: 12",
    "I think the answer is 7.\nFinal Answer: 7",
    "",
    "10 - 3 = 8\nFinal Answer: 8",
)

_STEP_BLOCKS = (
    "14 + 8 = 22",
    "14 + 8 = 23",
    "3 * 4 = 12",
    "10 - 3 = 7",
    "10 + 3 = 13",
    "2 + 2 = 5",
    "Time saved = 64",
    "the diagnosis says this is wrong",
    "",
)

_ANSWERS = ("22", "23", "12", "13", "7", "64", "5", "9")


def _build_candidate(rng: random.Random) -> str:
    steps = [block for block in rng.sample(_STEP_BLOCKS, k=rng.randint(1, 3)) if block]
    answer = rng.choice(_ANSWERS)
    lines = steps + [f"Final Answer: {answer}"]
    if rng.random() < 0.05:
        lines.append(f"Final Answer: {answer}")
    return "\n".join(lines)


def test_criterion_5_guard_safety_properties():
    rng = random.Random(97)
    configs = {
        "main": CFG,
        "no_graph_guard": CFG.with_overrides(enable_graph_guard=False),
        "no_equation_support": CFG.with_overrides(disable_equation_support=True),
        "relax_missing_constraint": CFG.with_overrides(relax_missing_constraint=True),
        "weak_reasoner": CFG.with_overrides(weak_reasoner_mode=True),
    }

    initial_cache = {}
    for problem in _PROBLEMS:
        for initial_text in _INITIALS:
            r0 = ReasoningTrace.from_text(initial_text)
            diag0 = diagnose(problem, r0)
            decision = trigger(diag0.meta, diag0.graph, r0, CFG)
            initial_cache[(problem, initial_text)] = (r0, diag0, decision)
    candidate_cache = {}

    total = 10_000
    accepted_counts = dict.fromkeys(configs, 0)
    for _ in range(total):
        problem = rng.choice(_PROBLEMS)
        initial_text = rng.choice(_INITIALS)
        r0, diag0, decision = initial_cache[(problem, initial_text)]
        candidate_text = _build_candidate(rng)
        key = (problem, candidate_text)
        if key not in candidate_cache:
            candidate = ReasoningTrace.from_text(candidate_text)
            candidate_cache[key] = (candidate, diagnose(problem, candidate))
        candidate, diag_c = candidate_cache[key]

        clean = is_clean(candidate_text, CFG, initial_length=len(initial_text))
        verdicts = {}
        for name, cfg in configs.items():
            if not clean.ok:
                verdicts[name] = False
                continue
            verdict = accept_policy(r0, candidate, diag0, diag_c, decision, cfg)
            verdicts[name] = verdict.accepted
            accepted_counts[name] += verdict.accepted

            # (a) no accepted no-op, under every configuration.
            if verdict.accepted:
                assert not answers_equivalent(r0.answer, candidate.answer)
        # (b) accepted implies graph-clean under the main configuration.
        if verdicts["main"]:
            assert not has_high_risk(diag_c.graph)
        # (c) enabling a guard only ever shrinks the accepted set.
        assert verdicts["main"] <= verdicts["no_graph_guard"]
        assert verdicts["main"] <= verdicts["no_equation_support"]
        assert verdicts["main"] <= verdicts["relax_missing_constraint"]
        assert verdicts["main"] <= verdicts["weak_reasoner"]

    assert accepted_counts["main"] > 0, "generator never produced an acceptable repair"
    assert accepted_counts["no_equation_support"] > accepted_counts["main"]
    _ok(
        "criterion 5",
        f"{total} candidates; accepted per config: "
        + ", ".join(f"{name}={count}" for name, count in accepted_counts.items()),
    )


def test_weak_reasoner_mode_changes_no_acceptance_under_the_graph_guard():
    """Pins today's behaviour, not a requirement. The weak path is tried only
    once relaxed support has failed on the graph score or on support, and the
    graph guard and the support guard then refuse on those same conditions,
    so under the guard weak mode accepts nothing more. With the guard off it
    does."""
    rng = random.Random(5)
    # A verdict depends only on the texts, so each distinct draw is decided once.
    drawn = set()
    for _ in range(40_000):
        problem, initial_text = rng.choice(_PROBLEMS), rng.choice(_INITIALS)
        drawn.add((problem, initial_text, _build_candidate(rng)))
    diagnosed = {}

    def diagnosed_trace(problem, text):
        if (problem, text) not in diagnosed:
            trace = ReasoningTrace.from_text(text)
            diagnosed[problem, text] = (trace, diagnose(problem, trace))
        return diagnosed[problem, text]

    # (graph guard on, config without weak mode, the same with it), for
    # every setting of the other two switches.
    pairs = []
    for guard, unsupported, relaxed in itertools.product((True, False), repeat=3):
        cfg = CFG.with_overrides(
            enable_graph_guard=guard,
            disable_equation_support=unsupported,
            relax_missing_constraint=relaxed,
        )
        pairs.append((guard, cfg, cfg.with_overrides(weak_reasoner_mode=True)))

    flips = {True: 0, False: 0}
    for problem, initial_text, candidate_text in sorted(drawn):
        if not is_clean(candidate_text, CFG, initial_length=len(initial_text)).ok:
            continue
        r0, diag0 = diagnosed_trace(problem, initial_text)
        candidate, diag_c = diagnosed_trace(problem, candidate_text)
        decision = trigger(diag0.meta, diag0.graph, r0, CFG)
        for guard, cfg, weak in pairs:
            verdicts = [
                accept_policy(r0, candidate, diag0, diag_c, decision, config).accepted
                for config in (cfg, weak)
            ]
            flips[guard] += verdicts[0] != verdicts[1]
    assert flips[True] == 0
    assert flips[False] > 0
    _ok("weak reasoner", f"{len(drawn)} distinct draws; flipped: {flips[True]} guarded, {flips[False]} not")


def test_criterion_6_equation_support_fixtures():
    cases = {
        "276 / 12 = 23\nFinal Answer: 23": True,
        "LCM(6, 5) = 30\nFinal Answer: 30": True,
        "Time saved = 64\nFinal Answer: 64": False,
    }
    for text, expected in cases.items():
        trace = ReasoningTrace.from_text(text)
        assert equation_supported(trace, check_equations(text)) is expected
    _ok("criterion 6", "276/12=23 supported, LCM(6,5)=30 supported, bare naming rejected")


def test_criterion_7_trigger_table():
    def independent_trigger(empty, category, score, graph_failed, graph_high):
        if empty:
            return True
        if category in (
            CATEGORY_GENERATION_FAILURE,
            CATEGORY_ARITHMETIC_ERROR,
            CATEGORY_LOGICAL_CONTRADICTION,
        ):
            return True
        if graph_failed:
            return True
        if graph_high:
            return True
        if category == CATEGORY_MISSING_CONSTRAINT:
            return score < 0.90
        return score < 0.65

    categories = (
        CATEGORY_CLEAN,
        CATEGORY_GENERATION_FAILURE,
        CATEGORY_ARITHMETIC_ERROR,
        CATEGORY_LOGICAL_CONTRADICTION,
        CATEGORY_MISSING_CONSTRAINT,
        CATEGORY_LOW_SYMBOLIC_COVERAGE,
    )
    scores = [round(0.05 * step, 2) for step in range(21)]
    checked = 0
    for category, score, empty, graph_failed, graph_high in itertools.product(
        categories, scores, (False, True), (False, True), (False, True)
    ):
        meta = MetaDiagnosis(
            category=category,
            meta_score=score,
            equation_verification_rate=1.0,
            constraint_coverage=1.0,
            format_score=1.0,
        )
        risks = (
            (RiskSignal("per_entity_rate_missing", SEVERITY_HIGH, ()),)
            if graph_high
            else ()
        )
        graph = GraphReport(
            risks=risks,
            score=0.0 if graph_failed else 1.0,
            diagnosis=DIAGNOSIS_GENERATION_FAILURE if graph_failed else DIAGNOSIS_OK,
        )
        trace = ReasoningTrace.from_text("" if empty else "work\nFinal Answer: 5")
        decision = trigger(meta, graph, trace, CFG)
        expected = independent_trigger(empty, category, score, graph_failed, graph_high)
        assert decision.triggered == expected, (category, score, empty, graph_failed, graph_high)
        checked += 1
    assert checked == 6 * 21 * 2 * 2 * 2
    _ok("criterion 7", f"{checked} trigger combinations match the independent clauses")


def test_criterion_8_normalization_suite():
    pairs = [("1,059,955", "1059955"), ("12", "12.0"), ("2/3", "4/6")]
    for left, right in pairs:
        assert answers_equivalent(normalize_answer(left), normalize_answer(right))

    rng = random.Random(1234)
    cases = 0
    while cases < 500:
        base = rng.randint(-10**6, 10**6)
        form = rng.choice(("int", "decimal", "comma", "fraction"))
        if form == "int":
            variants = [str(base), f"{base}.0", f"+{base}" if base >= 0 else str(base)]
        elif form == "decimal":
            variants = [f"{base}.25", f"{base}.250"]
        elif form == "comma":
            variants = [str(abs(base) + 1000), format(abs(base) + 1000, ",")]
        else:
            denominator = rng.randint(1, 99)
            scale = rng.randint(1, 9)
            variants = [
                f"{base}/{denominator}",
                f"{base * scale}/{denominator * scale}",
            ]
        values = [normalize_answer(variant) for variant in variants]
        for value in values:
            # Idempotence of the canonical form.
            assert normalize_answer(value.canonical).canonical == value.canonical
            # Reflexivity.
            assert answers_equivalent(value, value)
        first, second = values[0], values[1]
        # Symmetry + transitivity through the shared canonical value.
        assert answers_equivalent(first, second)
        assert answers_equivalent(second, first)
        third = normalize_answer(first.canonical)
        assert answers_equivalent(first, third) and answers_equivalent(second, third)
        cases += 1
    _ok("criterion 8", "3 reference pairs + 500 generated property cases")


def test_criterion_9_replay_determinism(tmp_path):
    dataset_path, cache_path = write_synthetic_run(tmp_path)

    def run(name):
        manifest = RunManifest(
            mode=MODE_REPLAY,
            dataset_path=tmp_path / "synthetic_dataset.jsonl",
            output_dir=tmp_path / name,
            cache_path=tmp_path / "synthetic_cache.jsonl",
        )
        return run_pipeline(manifest)

    first = run("one")
    second = run("two")
    for key in ("predictions", "candidates", "risk_log", "report_json", "report_text"):
        assert first.paths[key].read_bytes() == second.paths[key].read_bytes()

    report = first.report
    assert report.total == 50
    assert report.accepted == EXPECTED_ACCEPTED
    assert report.broken == 0
    assert report.attempts == EXPECTED_ATTEMPTS

    predictions = {
        row["example_id"]: row for row in map(json.loads, open(first.paths["predictions"]))
    }
    for example_id in GROUP_SAFE_FIX:
        assert predictions[example_id]["accepted"], "safe fix not accepted"
    for example_id in GROUP_UNSAFE:
        assert not predictions[example_id]["accepted"], "unsafe changer accepted"
    retried = {
        row["example_id"]
        for row in map(json.loads, open(first.paths["candidates"]))
        if row["retried"]
    }
    assert retried == set(GROUP_RETRY[:4]), "format-retry path not exercised"
    _ok(
        "criterion 9",
        f"byte-identical artifacts; {report.accepted} safe fixes in, "
        f"{len(GROUP_UNSAFE)} unsafe changers out, {len(retried)} retries",
    )


def test_criterion_10_filter_arithmetic():
    pool = []
    for index in range(95):
        pool.append(
            DatasetRecord(f"q{index}", "Which color is the 3 ball?", "red", None)
        )
    for index in range(58):
        gold = "2:3" if index % 2 else "not a number"
        pool.append(DatasetRecord(f"a{index}", "How many? 1 or 2.", gold, None))
    for index in range(5):
        pool.append(
            DatasetRecord(f"y{index}", "Does he have enough? He has 5.", "yes", None)
        )
    for index in range(2147):
        gold = ("7", "7/2", "3.5")[index % 3]
        pool.append(DatasetRecord(f"n{index}", "How many things? 3 and 4.", gold, None))

    assert len(pool) == 2305
    result = filter_numeric(pool)
    counts = result.counts()
    assert len(result.kept) == 2147
    assert counts == {
        "non_numeric_question_type": 95,
        "ambiguous_answer_format": 58,
        "yes_no_answer": 5,
    }
    assert len(result.kept) + sum(counts.values()) == len(pool)

    # Identity holds on arbitrary pools, not just the reference mix.
    rng = random.Random(3)
    small = rng.sample(pool, 400)
    small_result = filter_numeric(small)
    assert len(small_result.kept) + sum(small_result.counts().values()) == 400
    _ok("criterion 10", "2305 = 2147 kept + 95 + 58 + 5; partition identity holds")


def test_criterion_11_aggregation():
    seed_runs = [
        RunReport(initial_accuracy=78.40, final_accuracy=87.60, delta=9.20, fixed=92, broken=0, accepted=95),
        RunReport(initial_accuracy=79.50, final_accuracy=88.00, delta=8.50, fixed=87, broken=2, accepted=91),
        RunReport(initial_accuracy=79.90, final_accuracy=88.60, delta=8.70, fixed=91, broken=4, accepted=97),
        RunReport(initial_accuracy=78.80, final_accuracy=88.60, delta=9.80, fixed=104, broken=6, accepted=113),
    ]
    stats = aggregate_runs(seed_runs)
    assert round2(stats["delta"].mean) == 9.05
    assert round2(stats["delta"].std) == 0.50
    assert round2(stats["fixed"].mean) == 93.50
    assert round2(stats["fixed"].std) == 6.34
    assert round2(stats["accepted"].std) == 8.37

    rerun_finals = [
        RunReport(final_accuracy=96.89, fixed=17, broken=0, accepted=20),
        RunReport(final_accuracy=97.04, fixed=19, broken=0, accepted=22),
        RunReport(final_accuracy=96.51, fixed=13, broken=1, accepted=18),
        RunReport(final_accuracy=96.36, fixed=12, broken=2, accepted=18),
    ]
    rerun_stats = aggregate_runs(rerun_finals)
    assert round2(rerun_stats["final_accuracy"].mean) == 96.70
    assert round2(rerun_stats["final_accuracy"].std) == 0.28
    assert round2(rerun_stats["fixed"].std) == 2.86
    _ok("criterion 11", "seed deltas mean 9.05/std 0.50; rerun finals mean 96.70/std 0.28")
