"""A fixed pure-Python workload that gauges how fast the machine runs right now.

On a shared host the speed of identical runs drifts by more than a quarter
over minutes, because other tenants load the same cores. ``bench/worker.py``
times this gauge between the repetitions it measures, and ``bench/run.py``
scales the measured throughput by the gauge, so that a figure reads as it
would on a machine where one gauge takes ``REFERENCE_S``.

The gauge uses none of trace-repair's code, so a change to the program does
not move it. It mixes the kinds of work the program does: regex tokenising,
integer and fraction arithmetic, string building, dict and list graphs, and
sorting.
"""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction

# Seconds of one gauge pass on an Intel Xeon (2 vCPU) under Python 3.11,
# about its median there.
REFERENCE_S = 0.03
PASSES = 3

_TOKEN = re.compile(r"\d[\d,]*(?:\.\d+)?(?:/\d+)?|[A-Za-z]+|[=+*/-]")
_WORDS = ("each", "per", "times", "more", "than", "half", "twice", "buys", "sells", "gives", "total", "left")


def _texts() -> list[str]:
    rng = random.Random(20240601)
    lines = []
    for _ in range(24):
        words = []
        for _ in range(18):
            roll = rng.random()
            if roll < 0.3:
                words.append(f"{rng.randint(1, 1500):,}")
            elif roll < 0.4:
                words.append(f"{rng.randint(1, 9)}/{rng.randint(2, 9)}")
            else:
                words.append(rng.choice(_WORDS))
        lines.append(" ".join(words))
    return lines


_TEXTS = _texts()


def _work() -> int:
    nodes = []
    for row, text in enumerate(_TEXTS):
        for column, token in enumerate(_TOKEN.findall(text)):
            if token[0].isdigit():
                value = Fraction(token.replace(",", "")) if "/" in token else int(token.replace(",", ""))
                nodes.append((row, column, value, token))
    edges: dict[tuple[int, int], list[str]] = {}
    for left in nodes:
        for right in nodes:
            if left[0] != right[0] and (left[2] == right[2] or left[2] * 2 == right[2]):
                edges.setdefault((left[0], right[0]), []).append(f"{left[3]}->{right[3]}")
    ranked = sorted(edges.items(), key=lambda item: (-len(item[1]), item[0]))
    total = 0
    for number in range(6000):
        total += (number * number) % 7
    return total + sum(len(", ".join(labels)) for _, labels in ranked)


def gauge(passes: int = PASSES) -> float:
    """Mean seconds one pass of the fixed workload takes now."""
    start = time.perf_counter()
    for _ in range(passes):
        _work()
    return (time.perf_counter() - start) / passes


def at_reference(wall_s: float, cpu_s: float, gauge_s: float) -> float:
    """``wall_s`` with its CPU part scaled to a machine whose gauge reads ``REFERENCE_S``.

    Time spent waiting, on the provider for instance, is left as it is.
    """
    cpu_s = min(cpu_s, wall_s)
    return wall_s - cpu_s + cpu_s * REFERENCE_S / gauge_s
