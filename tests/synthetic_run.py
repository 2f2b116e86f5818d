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
