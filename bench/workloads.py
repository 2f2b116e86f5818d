"""Seeded input generator for the trace-repair benchmark.

Each workload is a dataset JSONL file, a replay cache (or, for the remote
workload, a reply table for the local chat-completions stub), a
``spec.json`` file with the workload's size and provider, and an
``expected.json`` file that states what a correct run must produce: every
example's trigger decision and final answer, every candidate's outcome, the
report counts and the risk summary counts. The expectations come from how each example was built,
not from running trace-repair, so the output check is independent of the
code under test.

Every problem text is unique. The templates cover each risk check the
program implements: ``each``/``per`` rates, ``N times more``, change verbs,
``more than``, equal splits, number words, fractions and comma numbers.
The share of each example kind is a fixed quota, so two seeds differ in
names and numbers but not in the amount of work.

Run ``python3 bench/workloads.py --workload NAME --seed N --out DIR`` to
write one workload and print its self-check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("preserve_short", "repair_bestof3", "long_trace", "remote_stub")

# The workload mixes below (preserve_short's 12% triggered, remote_stub's 2%
# 503 replies, repair_bestof3's 40% distractor and 5% empty traces, and the
# candidate sequences) are assumptions chosen so that each workload stresses
# its layer. Neither the paper nor the repository measures real traffic, so
# they are not drawn from it.

# Chat-completions stub: fixed reply latency and the share of requests that
# get one 503 with ``Retry-After: 0`` before they succeed.
STUB_LATENCY_S = 0.02
STUB_FAULT_SHARE = 0.02

# Cached trace lengths of long_trace, in lines. Fixed so that every seed
# does the same amount of work.
LONG_TRACE_LINES = (25, 40, 60, 90, 130, 190, 280, 400)

NAMES = (
    "Maya", "Liam", "Noah", "Emma", "Omar", "Lena", "Ravi", "Sofia",
    "Jonas", "Priya", "Mateo", "Chloe", "Kenji", "Zara", "Felix", "Ines",
)
THINGS = (
    "marbles", "stickers", "pencils", "apples", "cards", "shells",
    "stamps", "beads", "coins", "books", "cookies", "buttons",
)
CONTAINERS = (("box", "boxes"), ("bag", "bags"), ("pack", "packs"), ("crate", "crates"), ("jar", "jars"))
GOODS = (("pen", "pens"), ("mug", "mugs"), ("lamp", "lamps"), ("kite", "kites"), ("scarf", "scarves"), ("plate", "plates"))
WORDS = {2: "two", 3: "three", 4: "four", 5: "five", 6: "six", 7: "seven", 8: "eight", 9: "nine"}

# Example kinds: how the cached trace relates to the gold answer.
CLEAN = "clean"  # correct and clean: never triggered
SEMANTIC = "semantic"  # verified arithmetic, wrong operation: high-risk trigger
ARITH = "arith"  # one arithmetic slip: arithmetic-error trigger
DISTRACTOR = "distractor"  # correct but ignores quantities: missing-constraint trigger
EMPTY = "empty"  # empty cached trace: generation-failure trigger

# Candidate kinds served by the provider.
FIX = "fix"  # correct steps and answer: accepted
NOOP = "noop"  # same answer as the cached trace: rejected as no_op
UNSAFE = "unsafe"  # answer-changing, unverified equation: rejected by a guard
UNCLEAN = "unclean"  # meta-discussion phrase: rejected as unclean
MALFORMED = "malformed"  # "malformed+KIND": malformed output, then KIND on the format retry


@dataclass
class Problem:
    text: str
    gold: int
    steps: list[str]  # a correct derivation, one equation per line
    numbers: tuple[int, int]  # two problem quantities for wrong candidates
    wrong_steps: list[str] | None = None  # a wrong-operation derivation


@dataclass
class Example:
    example_id: str
    problem: Problem
    kind: str
    trace: str | None
    initial_answer: str  # canonical form of the cached trace's answer
    attempts: list[str] = field(default_factory=list)


def _answer_of(steps: list[str]) -> str:
    return steps[-1].rsplit("= ", 1)[1]


def _trace(steps: list[str]) -> str:
    return "\n".join(steps + [f"Final Answer: {_answer_of(steps)}"])


def _canonical(answer: str) -> str:
    return str(int(answer.replace(",", "")))


# -- problem families ------------------------------------------------------


def _rate(rng: random.Random) -> Problem:
    name = rng.choice(NAMES)
    thing = rng.choice(THINGS)
    single, plural = rng.choice(CONTAINERS)
    a, b = rng.randint(3, 15), rng.randint(3, 24)
    return Problem(
        text=f"{name} buys {a} {plural} of {thing}. Each {single} holds {b} {thing}. "
        f"How many {thing} does {name} buy?",
        gold=a * b,
        steps=[f"{a} * {b} = {a * b}"],
        numbers=(a, b),
        wrong_steps=[f"{a} + {b} = {a + b}"],
    )


def _times_more(rng: random.Random) -> Problem:
    first, second = rng.sample(NAMES, 2)
    thing = rng.choice(THINGS)
    a, k = rng.randint(3, 20), rng.randint(2, 9)
    multiplier = WORDS[k] if rng.random() < 0.5 else str(k)
    return Problem(
        text=f"{first} has {a} {thing}. {second} has {multiplier} times more {thing} than "
        f"{first}. How many {thing} does {second} have?",
        gold=a * k,
        steps=[f"{a} * {k} = {a * k}"],
        numbers=(a, k),
        wrong_steps=[f"{a} + {k} = {a + k}"],
    )


def _lost(rng: random.Random) -> Problem:
    name = rng.choice(NAMES)
    thing = rng.choice(THINGS)
    a = rng.randint(20, 60)
    b = rng.randint(3, a - 5)
    return Problem(
        text=f"{name} had {a} {thing} and lost {b} of them. "
        f"How many {thing} does {name} have left?",
        gold=a - b,
        steps=[f"{a} - {b} = {a - b}"],
        numbers=(a, b),
        wrong_steps=[f"{a} + {b} = {a + b}"],
    )


def _more_than(rng: random.Random) -> Problem:
    first, second = rng.sample(NAMES, 2)
    thing = rng.choice(THINGS)
    a, b = rng.randint(5, 40), rng.randint(2, 15)
    return Problem(
        text=f"{first} has {a} {thing}. {second} has {b} more than {first}. "
        f"How many {thing} does {second} have?",
        gold=a + b,
        steps=[f"{a} + {b} = {a + b}"],
        numbers=(a, b),
    )


def _split(rng: random.Random) -> Problem:
    name = rng.choice(NAMES)
    thing = rng.choice(THINGS)
    k, q = rng.randint(2, 9), rng.randint(3, 12)
    a = k * q
    return Problem(
        text=f"{name} has {a} {thing} and shares them equally among {WORDS[k]} friends. "
        f"How many {thing} does each friend get?",
        gold=q,
        steps=[f"{a} / {k} = {q}"],
        numbers=(a, k),
        wrong_steps=[f"{a} - {k} = {a - k}"],
    )


def _fraction(rng: random.Random) -> Problem:
    name = rng.choice(NAMES)
    thing = rng.choice(THINGS)
    q, m = rng.randint(2, 5), rng.randint(3, 12)
    a = q * m
    return Problem(
        text=f"{name} has {a} {thing} and gives away 1/{q} of them. "
        f"How many {thing} does {name} give away?",
        gold=m,
        steps=[f"{a} * 1/{q} = {m}"],
        numbers=(a, q),
    )


def _comma(rng: random.Random) -> Problem:
    thing = rng.choice(THINGS)
    a, d = rng.randint(1001, 9999), rng.randint(3, 9)
    return Problem(
        text=f"A factory makes {a:,} {thing} per day. How many {thing} does it make in {d} days?",
        gold=a * d,
        steps=[f"{a:,} * {d} = {a * d:,}"],
        numbers=(a, d),
        wrong_steps=[f"{a:,} + {d} = {a + d:,}"],
    )


def _shop(rng: random.Random, items: int) -> Problem:
    name = rng.choice(NAMES)
    goods = rng.sample(GOODS, items)
    counts = [rng.randint(2, 9) for _ in goods]
    prices = [rng.randint(2, 15) for _ in goods]
    parts = [
        f"{count} {plural} at {price} dollars per {single}"
        for (single, plural), count, price in zip(goods, counts, prices)
    ]
    listing = ", ".join(parts[:-1]) + f" and {parts[-1]}"
    costs = [count * price for count, price in zip(counts, prices)]
    steps = [f"{count} * {price} = {cost}" for count, price, cost in zip(counts, prices, costs)]
    running = costs[0]
    for cost in costs[1:]:
        steps.append(f"{running} + {cost} = {running + cost}")
        running += cost
    return Problem(
        text=f"{name} buys {listing}. How much does {name} spend in total?",
        gold=running,
        steps=steps,
        numbers=(counts[0], prices[0]),
    )


def _chain(rng: random.Random) -> Problem:
    name = rng.choice(NAMES)
    thing = rng.choice(THINGS)
    a, b = rng.randint(10, 40), rng.randint(3, 15)
    c = rng.randint(3, a + b - 3)
    return Problem(
        text=f"{name} has {a} {thing}. {name} buys {b} more {thing} and then gives away {c}. "
        f"How many {thing} does {name} have now?",
        gold=a + b - c,
        steps=[f"{a} + {b} = {a + b}", f"{a + b} - {c} = {a + b - c}"],
        numbers=(a, b),
    )


def _distractor(rng: random.Random) -> Problem:
    name = rng.choice(NAMES)
    thing, other1, other2 = rng.sample(THINGS, 3)
    _, plural = rng.choice(CONTAINERS)
    a, b = rng.randint(3, 12), rng.randint(3, 12)
    # The distractors must not equal the product, which the trace mentions.
    d, e = rng.choice([v for v in range(13, 31) if v != a * b]), rng.choice([v for v in range(31, 61) if v != a * b])
    return Problem(
        text=f"{name} packs {a} {plural} with {b} {thing} each, plus {d} {other1} and {e} {other2}. "
        f"How many {thing} does {name} pack in all?",
        gold=a * b,
        steps=[f"{a} * {b} = {a * b}"],
        numbers=(d, e),
    )


def _long(rng: random.Random, lines: int) -> Problem:
    """A running sum over ``lines - 3`` days, checked by one product."""
    name = rng.choice(NAMES)
    thing = rng.choice(THINGS)
    days = lines - 3
    a, b = rng.randint(10, 99), rng.randint(2, 30)
    steps = []
    total = a
    for _ in range(days):
        steps.append(f"{total} + {b} = {total + b}")
        total += b
    steps.append(f"{b} * {days} = {b * days}")
    steps.append(f"{a} + {b * days} = {total}")
    return Problem(
        text=f"{name} has {a} {thing}. Then {name} adds {b} {thing} a day for {days} days. "
        f"How many {thing} does {name} have after {days} days?",
        gold=total,
        steps=steps,
        numbers=(a, b),
    )


SHORT_FAMILIES = {
    "rate": _rate,
    "times_more": _times_more,
    "lost": _lost,
    "more_than": _more_than,
    "split": _split,
    "fraction": _fraction,
    "comma": _comma,
    "shop2": lambda rng: _shop(rng, 2),
    "shop3": lambda rng: _shop(rng, 3),
    "chain": _chain,
}
SEMANTIC_FAMILIES = ("rate", "times_more", "lost", "split", "comma")


# -- traces and candidates -------------------------------------------------


def _slip(steps: list[str], rng: random.Random) -> list[str]:
    """Make the last equation claim a wrong result."""
    lhs, claimed = steps[-1].rsplit("= ", 1)
    wrong = int(claimed.replace(",", "")) + rng.randint(1, 9)
    return steps[:-1] + [f"{lhs}= {wrong:,}" if "," in claimed else f"{lhs}= {wrong}"]


def _long_slip(problem: Problem, rng: random.Random) -> list[str]:
    """One wrong running-sum step; later steps carry the error forward."""
    sums = problem.steps[:-2]
    position = rng.randrange(len(sums) // 4, 3 * len(sums) // 4)
    out = sums[:position]
    total = int(sums[position].split(" + ")[0])
    step = int(sums[position].split(" + ")[1].split(" =")[0])
    total_wrong = total + step + rng.randint(1, 9)
    out.append(f"{total} + {step} = {total_wrong}")
    for _ in sums[position + 1 :]:
        out.append(f"{total_wrong} + {step} = {total_wrong + step}")
        total_wrong += step
    return out + [problem.steps[-2]]


def _candidate_steps(kind: str, example: Example) -> tuple[list[str], str]:
    problem = example.problem
    x, y = problem.numbers
    if kind == FIX:
        steps = problem.steps
        if len(steps) > 6:
            steps = steps[-2:]
        return steps, str(problem.gold)
    if kind == NOOP:
        return [example.trace.splitlines()[-2]], example.initial_answer
    if kind == UNCLEAN:
        return [f"As instructed, {x} + {y} = {x + y}"], str(x + y)
    if kind == UNSAFE:
        wrong = x + y + 1
        while str(wrong) in (example.initial_answer, str(problem.gold)):
            wrong += 1
        return [f"{x} + {y} = {wrong}"], str(wrong)
    raise ValueError(f"unknown candidate kind {kind!r}")


def _expected_attempt(example: Example, attempt: int, kind: str) -> dict:
    """What the provider serves for one attempt, and how it must be judged."""
    malformed, _, base = kind.rpartition("+")
    steps, answer = _candidate_steps(base, example)
    served = json.dumps({"steps": steps, "final_answer": answer})
    if malformed:
        raw, retry = f"Sure! For attempt {attempt + 1} the answer is {example.problem.gold}.", served
    else:
        raw, retry = served, None
    return {
        "kind": base,
        "raw_output": raw,
        "retry_output": retry,
        "retried": retry is not None,
        "parsed": {"steps": steps, "final_answer": answer},
        "error": None,
        "accepted": base == FIX,
        "answer_changed": _canonical(answer) != example.initial_answer,
    }


def _trigger_reasons(example: Example) -> list[str]:
    if example.kind == CLEAN:
        return []
    if example.kind == SEMANTIC:
        return ["high_risk_semantic"]
    if example.kind == DISTRACTOR:
        return ["missing_constraint_low_score"]
    if example.kind == EMPTY:
        return ["empty_trace", "graph_generation_failure", "low_meta_score", "meta_generation_failure"]
    # One wrong equation out of n: the meta score 0.5 * (n - 1) / n + 0.5
    # falls below the 0.65 trigger threshold only when n == 1.
    equations = sum(1 for line in example.trace.splitlines() if " = " in line)
    return ["low_meta_score", "meta_arithmetic_error"] if equations == 1 else ["meta_arithmetic_error"]


def _expected_example(example: Example) -> dict:
    attempts = [_expected_attempt(example, index, kind) for index, kind in enumerate(example.attempts)]
    accepted = next((index for index, item in enumerate(attempts) if item["accepted"]), None)
    if accepted is not None:
        parsed = attempts[accepted]["parsed"]
        final_trace = "\n".join(parsed["steps"] + [f"Final Answer: {parsed['final_answer']}"])
        final_answer = _canonical(parsed["final_answer"])
    else:
        final_trace = example.trace or ""
        final_answer = example.initial_answer
    return {
        "example_id": example.example_id,
        "kind": example.kind,
        "steps": len((example.trace or "").splitlines()),
        "initial_answer": example.initial_answer,
        "final_answer": final_answer,
        "gold_answer": str(example.problem.gold),
        "triggered": example.kind != CLEAN,
        "trigger_reasons": _trigger_reasons(example),
        "accepted_attempt": accepted,
        "final_trace": final_trace,
        "attempts": attempts,
    }


# -- workload mixes ---------------------------------------------------------


# Candidate sequences, one entry per attempt.
ACCEPT_FIRST = (FIX,)
ACCEPT_SECOND = (NOOP, FIX)
ACCEPT_THIRD = (UNCLEAN, f"{MALFORMED}+{NOOP}", FIX)
REJECT_ALL = (NOOP, f"{MALFORMED}+{UNSAFE}", UNSAFE)
REJECT_ALL_CORRECT = (UNSAFE, f"{MALFORMED}+{NOOP}", UNCLEAN)
EMPTY_RESCUE = (UNCLEAN, UNSAFE, FIX)
PRESERVE_REJECT = (NOOP, f"{MALFORMED}+{UNSAFE}", UNCLEAN)


@dataclass(frozen=True)
class Slot:
    kind: str
    family: str
    attempts: tuple[str, ...] = ()
    lines: int = 0


def _quota(total: int, shares: list[tuple[object, int]]) -> list:
    """Exactly ``total`` items in the given proportions, evenly interleaved."""
    weight = sum(share for _, share in shares)
    counts = [total * share // weight for _, share in shares]
    for index in range(total - sum(counts)):
        counts[index % len(counts)] += 1
    ranked = [
        ((rank + 0.5) / count, position, item)
        for position, ((item, _), count) in enumerate(zip(shares, counts))
        for rank in range(count)
    ]
    ranked.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in ranked]


def _triggered_slots(count: int, kinds: list, sequences: list) -> list[Slot]:
    families = {SEMANTIC: itertools.cycle(SEMANTIC_FAMILIES), ARITH: itertools.cycle(SHORT_FAMILIES)}
    return [
        Slot(kind, next(families[kind]), sequence)
        for kind, sequence in zip(_quota(count, kinds), _quota(count, sequences))
    ]


def _mix(workload: str) -> list[Slot]:
    if workload == "preserve_short":
        # 12% triggered, half of them repaired at the first attempt (assumed).
        families = itertools.cycle(SHORT_FAMILIES)
        slots = [Slot(CLEAN, next(families)) for _ in range(880)]
        return slots + _triggered_slots(
            120,
            [(SEMANTIC, 1), (ARITH, 1)],
            [(ACCEPT_FIRST, 2), (ACCEPT_SECOND, 1), (PRESERVE_REJECT, 1)],
        )
    if workload in ("repair_bestof3", "remote_stub"):
        # Every example triggers; most candidates are rejected, so most
        # examples use all three attempts.
        total = 300 if workload == "repair_bestof3" else 30
        distractors = total * 2 // 5
        empties = total // 20
        families = itertools.cycle(SHORT_FAMILIES)
        slots = [Slot(DISTRACTOR, "distractor", REJECT_ALL_CORRECT) for _ in range(distractors)]
        slots += [Slot(EMPTY, next(families), EMPTY_RESCUE) for _ in range(empties)]
        return slots + _triggered_slots(
            total - distractors - empties,
            [(SEMANTIC, 5), (ARITH, 6)],
            [(REJECT_ALL, 12), (ACCEPT_THIRD, 5), (ACCEPT_FIRST, 3)],
        )
    if workload == "long_trace":
        # One example in eight has a slip and is repaired; the rest are kept.
        return [
            Slot(ARITH, "long", ACCEPT_SECOND, lines) if lines == 60 else Slot(CLEAN, "long", (), lines)
            for lines in LONG_TRACE_LINES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _make_problem(slot: Slot, rng: random.Random) -> Problem:
    if slot.family == "long":
        return _long(rng, slot.lines)
    if slot.family == "distractor":
        return _distractor(rng)
    return SHORT_FAMILIES[slot.family](rng)


def build_examples(workload: str, seed: int) -> list[Example]:
    rng = random.Random(f"{workload}:{seed}")
    slots = _mix(workload)
    rng.shuffle(slots)
    examples = []
    seen: set[str] = set()
    for index, slot in enumerate(slots):
        problem = _make_problem(slot, rng)
        while problem.text in seen:
            problem = _make_problem(slot, rng)
        seen.add(problem.text)
        if slot.kind == EMPTY:
            trace = None if index % 2 else ""
        elif slot.kind == SEMANTIC:
            trace = _trace(problem.wrong_steps)
        elif slot.kind == ARITH:
            trace = _trace(_long_slip(problem, rng) if slot.family == "long" else _slip(problem.steps, rng))
        else:
            trace = _trace(problem.steps)
        initial = _canonical(trace.rsplit("Final Answer: ", 1)[1]) if trace else ""
        examples.append(
            Example(
                example_id=f"ex{index:05d}",
                problem=problem,
                kind=slot.kind,
                trace=trace,
                initial_answer=initial,
                attempts=list(slot.attempts),
            )
        )
    return examples


def expected_report(expected: list[dict]) -> dict:
    fixed = sum(
        1 for row in expected if row["final_answer"] == row["gold_answer"] != row["initial_answer"]
    )
    broken = sum(
        1 for row in expected if row["initial_answer"] == row["gold_answer"] != row["final_answer"]
    )
    return {
        "total": len(expected),
        "fixed": fixed,
        "broken": broken,
        "accepted": sum(1 for row in expected if row["accepted_attempt"] is not None),
        "attempts": sum(len(row["attempts"]) for row in expected),
    }


def expected_risk_summary(expected: list[dict]) -> dict:
    """The ``risk_summary.json`` counts that follow from the candidate kinds."""
    attempts = [attempt for row in expected for attempt in row["attempts"]]
    accepted = sum(attempt["accepted"] for attempt in attempts)
    changing = [attempt for attempt in attempts if attempt["answer_changed"]]
    changing_accepted = sum(attempt["accepted"] for attempt in changing)
    return {
        "patterns_inspected": len(attempts),
        "accepted_patterns": accepted,
        "rejected_patterns": len(attempts) - accepted,
        "noop_rejections": sum(attempt["kind"] == NOOP for attempt in attempts),
        "answer_changing_candidates": len(changing),
        "answer_changing_accepted": changing_accepted,
        "answer_changing_rejected": len(changing) - changing_accepted,
    }


def self_check(workload: str, expected: list[dict], faults: int) -> dict:
    """The intended mix, computed from the generated expectations."""
    triggered = [row for row in expected if row["triggered"]]
    attempts = [attempt for row in triggered for attempt in row["attempts"]]
    requests = sum(1 + attempt["retried"] for row in expected for attempt in row["attempts"])
    steps = sorted(row["steps"] for row in expected)
    check = {
        "examples": len(expected),
        "trigger_share": len(triggered) / len(expected),
        "attempts_per_triggered_example": len(attempts) / len(triggered) if triggered else 0.0,
        "format_retry_share": sum(a["retried"] for a in attempts) / len(attempts) if attempts else 0.0,
        "provider_calls_per_example": requests / len(expected),
        "trace_lines_min_median_max": [steps[0], statistics.median(steps), steps[-1]],
    }
    if workload == "remote_stub":
        check["stub_faults"] = faults
        check["stub_wait_s_per_run"] = (requests + faults) * STUB_LATENCY_S
    return check


def _jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def write_workload(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files into ``out``; returns its spec."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out.mkdir(parents=True, exist_ok=True)
    examples = build_examples(workload, seed)
    expected = [_expected_example(example) for example in examples]

    dataset = []
    for example in examples:
        row = {
            "example_id": example.example_id,
            "problem_text": example.problem.text,
            "gold_answer": str(example.problem.gold),
        }
        if example.trace is not None:
            row["cached_initial_trace"] = example.trace
        dataset.append(row)
    _jsonl(out / "dataset.jsonl", dataset)

    spec = {"workload": workload, "seed": seed, "examples": len(examples)}
    faults: list = []
    if workload == "remote_stub":
        served = [
            [example.problem.text, index, retry, attempt["retry_output"] if retry else attempt["raw_output"]]
            for example, row in zip(examples, expected)
            for index, attempt in enumerate(row["attempts"])
            for retry in ((False, True) if attempt["retried"] else (False,))
        ]
        count = max(1, round(STUB_FAULT_SHARE * len(served)))
        faults = [key[:3] for key in random.Random(f"faults:{seed}").sample(served, count)]
        with open(out / "stub.json", "w", encoding="utf-8") as handle:
            json.dump({"latency_s": STUB_LATENCY_S, "replies": served, "faults": faults}, handle, sort_keys=True)
        spec.update(provider="remote", stub_latency_s=STUB_LATENCY_S)
    else:
        cache = [
            {
                "example_id": row["example_id"],
                "attempt_index": index,
                "raw_output": attempt["raw_output"],
                "retry_output": attempt["retry_output"],
            }
            for row in expected
            for index, attempt in enumerate(row["attempts"])
        ]
        _jsonl(out / "cache.jsonl", cache)
        spec.update(provider="replay")
    spec["report"] = expected_report(expected)
    spec["risk_summary"] = expected_risk_summary(expected)
    spec["self_check"] = self_check(workload, expected, len(faults))
    with open(out / "spec.json", "w", encoding="utf-8") as handle:
        json.dump(spec, handle, sort_keys=True)
    with open(out / "expected.json", "w", encoding="utf-8") as handle:
        json.dump({"spec": spec, "examples": expected}, handle, ensure_ascii=False, sort_keys=True)
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = write_workload(args.workload, args.seed, args.out)
    json.dump(spec, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
