"""Synthetic 50-example dataset and scripted candidate cache.

Covers the interesting pipeline paths: clean untouched traces, wrong
traces with safe fixes, correct-but-triggered traces with unsafe
answer-changing candidates, no-op candidates, malformed outputs that
need the format retry, and empty cached traces.

Group layout (by example index):
    00-19  clean correct, never triggered          C->C
    20-29  wrong arithmetic, safe fix accepted     W->C
    30-34  correct, triggered, unsafe changers     C->C (all rejected)
    35-39  wrong, no-op candidates only            W->W (all rejected)
    40-44  wrong, malformed then retried fix       W->C (40-43 retry, 44 fenced)
    45-49  empty cached trace, rescue accepted     W->C
"""

from __future__ import annotations

import json

from trace_repair.datasets import DatasetRecord

GROUP_CLEAN = [f"ex{i:03d}" for i in range(0, 20)]
GROUP_SAFE_FIX = [f"ex{i:03d}" for i in range(20, 30)]
GROUP_UNSAFE = [f"ex{i:03d}" for i in range(30, 35)]
GROUP_NOOP = [f"ex{i:03d}" for i in range(35, 40)]
GROUP_RETRY = [f"ex{i:03d}" for i in range(40, 45)]
GROUP_EMPTY = [f"ex{i:03d}" for i in range(45, 50)]

EXPECTED_ACCEPTED = len(GROUP_SAFE_FIX) + len(GROUP_RETRY) + len(GROUP_EMPTY)
EXPECTED_FIXED = EXPECTED_ACCEPTED
EXPECTED_ATTEMPTS = (
    len(GROUP_SAFE_FIX)  # accepted at attempt 0
    + 3 * len(GROUP_UNSAFE)
    + 3 * len(GROUP_NOOP)
    + len(GROUP_RETRY)
    + len(GROUP_EMPTY)
)


def _candidate(steps: list[str], answer: int) -> str:
    return json.dumps({"steps": steps, "final_answer": str(answer)})


def _addition_problem(name: str, a: int, b: int, thing: str) -> str:
    return (
        f"{name} has {a} {thing} and buys {b} more {thing}. "
        f"How many {thing} does {name} have in total?"
    )


def build_synthetic_run() -> tuple[list[DatasetRecord], list[dict]]:
    """Returns (dataset records, candidate cache rows)."""
    records: list[DatasetRecord] = []
    cache: list[dict] = []

    def add_cache(example_id: str, attempt: int, raw: str, retry: str | None = None) -> None:
        row = {"example_id": example_id, "attempt_index": attempt, "raw_output": raw}
        if retry is not None:
            row["retry_output"] = retry
        cache.append(row)

    for position, example_id in enumerate(GROUP_CLEAN):
        a, b = 11 + position, 6 + position
        records.append(
            DatasetRecord(
                example_id=example_id,
                problem_text=_addition_problem("Maya", a, b, "marbles"),
                gold_answer=str(a + b),
                cached_initial_trace=f"{a} + {b} = {a + b}\nFinal Answer: {a + b}",
            )
        )

    for position, example_id in enumerate(GROUP_SAFE_FIX):
        a, b = 14 + position, 8 + position
        wrong = a + b + 1
        records.append(
            DatasetRecord(
                example_id=example_id,
                problem_text=_addition_problem("Liam", a, b, "stickers"),
                gold_answer=str(a + b),
                cached_initial_trace=f"{a} + {b} = {wrong}\nFinal Answer: {wrong}",
            )
        )
        add_cache(example_id, 0, _candidate([f"{a} + {b} = {a + b}"], a + b))

    for position, example_id in enumerate(GROUP_UNSAFE):
        a, b, d, e = 3, 4, 5 + position, 11 + 2 * position
        gold = a * b
        records.append(
            DatasetRecord(
                example_id=example_id,
                problem_text=(
                    f"Noah packs {a} boxes with {b} pens each, plus {d} erasers "
                    f"and {e} rulers. How many pens does Noah pack in all?"
                ),
                gold_answer=str(gold),
                cached_initial_trace=f"{a} * {b} = {gold}\nFinal Answer: {gold}",
            )
        )
        # Answer-changing candidates built from the distractor quantities;
        # none is an acceptable repair of an already-correct trace.
        add_cache(example_id, 0, _candidate([f"{d} + {e} = {d + e}"], d + e))
        add_cache(example_id, 1, _candidate([f"{e} - {d} = {e - d}"], e - d))
        add_cache(example_id, 2, _candidate([f"{a} + {b} = {a + b}"], a + b))

    for position, example_id in enumerate(GROUP_NOOP):
        a, b = 21 + position, 9 + position
        wrong = a + b + 2
        records.append(
            DatasetRecord(
                example_id=example_id,
                problem_text=_addition_problem("Ava", a, b, "coins"),
                gold_answer=str(a + b),
                cached_initial_trace=f"{a} + {b} = {wrong}\nFinal Answer: {wrong}",
            )
        )
        for attempt in range(3):
            add_cache(example_id, attempt, _candidate([f"{a} + {b} = {wrong}"], wrong))

    for position, example_id in enumerate(GROUP_RETRY):
        a, b = 31 + position, 12 + position
        wrong = a + b + 3
        records.append(
            DatasetRecord(
                example_id=example_id,
                problem_text=_addition_problem("Emma", a, b, "cards"),
                gold_answer=str(a + b),
                cached_initial_trace=f"{a} + {b} = {wrong}\nFinal Answer: {wrong}",
            )
        )
        fix = _candidate([f"{a} + {b} = {a + b}"], a + b)
        if position < 4:
            add_cache(example_id, 0, f"Sure! The corrected total is {a + b}.", retry=fix)
        else:
            add_cache(example_id, 0, f"```json\n{fix}\n```")

    for position, example_id in enumerate(GROUP_EMPTY):
        a, b = 41 + position, 17 + position
        records.append(
            DatasetRecord(
                example_id=example_id,
                problem_text=_addition_problem("Omar", a, b, "books"),
                gold_answer=str(a + b),
                cached_initial_trace="" if position % 2 else None,
            )
        )
        add_cache(example_id, 0, _candidate([f"{a} + {b} = {a + b}"], a + b))

    return records, cache


# One triggered example per ablation switch, whose attempt-0 verdict that
# switch decides (build_switch_groups). Attempts 1 and 2 are too short to pass
# is_clean under any switch.
SWITCH_GRAPH_GUARD = "sw_graph_guard"
SWITCH_EQUATION_SUPPORT = "sw_equation_support"
SWITCH_RELAX_MISSING_CONSTRAINT = "sw_relax_missing_constraint"
SWITCH_WEAK_REASONER = "sw_weak_reasoner"


def build_switch_groups() -> tuple[list[DatasetRecord], list[dict]]:
    """Returns (dataset records, candidate cache rows) of the four switch examples:

    - graph guard: an empty trace rescued by a candidate with a
      per_entity_rate_missing risk, accepted only with the guard off;
    - equation support: an empty trace rescued by a candidate with no
      equation, accepted only under disable_equation_support;
    - relax missing constraint: a supported candidate that leaves a
      quantity unused, accepted on relaxed_support only under the switch;
    - weak reasoner: a graph-clean candidate at score 0.40, accepted on
      weak_reasoner_relaxed only in weak mode with the graph guard off.
    """
    marbles = _addition_problem("Maya", 11, 6, "marbles")
    examples = [
        (
            SWITCH_GRAPH_GUARD,
            "Maya buys 3 boxes with 4 pens each. How many pens does Maya have in total?",
            "12",
            "",
            _candidate(["3 + 4 = 7"], 7),
        ),
        (
            SWITCH_EQUATION_SUPPORT,
            marbles,
            "17",
            "",
            _candidate(["Maya ends up with 17 marbles."], 17),
        ),
        (
            SWITCH_RELAX_MISSING_CONSTRAINT,
            marbles.replace(" How", " She keeps them in 2 bags. How"),
            "17",
            "11 + 6 = 18\n2 + 2 = 4\nFinal Answer: 18",
            _candidate(["11 + 6 = 17"], 17),
        ),
        (
            SWITCH_WEAK_REASONER,
            "Tom has 12 apples. Sam has 5 more than Tom. How many more does Sam have?",
            "5",
            "12 + 4 = 16\nTotal = 16\nTotal = 17\n5 * 1 = 5\nFinal Answer: 16",
            _candidate(["The 12 kites and 5 kites.", "5 * 1 = 5", "12 + 6 = 18"], 18),
        ),
    ]
    records, cache = [], []
    for example_id, problem, gold, trace, first in examples:
        records.append(DatasetRecord(example_id, problem, gold, trace))
        for attempt, raw in enumerate([first, _candidate([], 1), _candidate([], 1)]):
            cache.append({"example_id": example_id, "attempt_index": attempt, "raw_output": raw})
    return records, cache


def solve_all_attempts() -> list[dict]:
    """Cache rows for the clean examples, which only solve_all regenerates:
    one attempt each, with a wrong answer."""
    wrong = _candidate(["2 + 2 = 4"], 4)
    return [{"example_id": example_id, "attempt_index": 0, "raw_output": wrong} for example_id in GROUP_CLEAN]


def write_synthetic_run(directory) -> tuple[str, str]:
    """Write dataset and cache files; returns their paths."""
    from trace_repair.datasets import write_dataset

    records, cache = build_synthetic_run()
    dataset_path = str(directory / "synthetic_dataset.jsonl")
    cache_path = str(directory / "synthetic_cache.jsonl")
    write_dataset(records, dataset_path)
    with open(cache_path, "w", encoding="utf-8") as handle:
        for row in cache:
            handle.write(json.dumps(row) + "\n")
    return dataset_path, cache_path
