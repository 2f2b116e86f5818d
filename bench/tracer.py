"""Span tracer that wraps trace-repair's public functions from outside.

``from .x import y`` binds ``y`` into every importing module, so wrapping a
function at its definition alone misses most calls. ``Tracer.install``
finds every module attribute of the package that is the traced function
and replaces each with one wrapper; ``uninstall`` puts the originals back.

Spans are kept in memory: name, start, end, the id of the enclosing span
and the span's self time (its duration minus the time its child spans
cover). A few spans also keep a small note read from the call's arguments
or result, such as a trace's line count or a graph's edge count.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    self_s: float
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _text_lines(text) -> int:
    text = getattr(text, "text", text) or ""
    return sum(1 for line in text.splitlines() if line.strip())


# (module, function, span name, note taken from (args, result)).
FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("datasets", "load_dataset", "datasets.load_dataset", None),
    ("answers", "extract_answer", "answers.extract_answer", None),
    ("equations", "check_equations", "equations.check_equations", None),
    ("diagnostics", "diagnose", "diagnostics.diagnose", lambda args, result: _text_lines(args[1])),
    ("diagnostics", "constraint_coverage", "diagnostics.constraint_coverage", None),
    (
        "risk_graph",
        "semantic_graph_check",
        "risk_graph.semantic_graph_check",
        lambda args, result: _text_lines(args[1]),
    ),
    ("risk_graph", "extract_quantities", "risk_graph.extract_quantities", None),
    (
        "risk_graph",
        "build_relation_graph",
        "risk_graph.build_relation_graph",
        lambda args, result: len(result.edges),
    ),
    ("policy", "trigger", "policy.trigger", lambda args, result: result.triggered),
    ("policy", "is_clean", "policy.is_clean", None),
    ("policy", "accept_policy", "policy.accept_policy", lambda args, result: result.accepted),
    ("orchestrator", "repair_example", "orchestrator.repair_example", lambda args, result: len(result.records)),
    ("orchestrator", "parse_candidate", "orchestrator.parse_candidate", None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("reporting", "compute_report", "reporting.compute_report", None),
    ("reporting", "render_report", "reporting.render_report", None),
    ("cli", "main", "cli.main", None),
)

# (module, class, method, span name, note, is classmethod).
METHODS = (
    (
        "providers",
        "ReplayProvider",
        "generate",
        "providers.generate",
        lambda args, result: args[1].is_retry,
        False,
    ),
    (
        "providers",
        "RemoteProvider",
        "generate",
        "providers.generate",
        lambda args, result: args[1].is_retry,
        False,
    ),
    ("providers", "ReplayProvider", "from_jsonl", "providers.replay_load", None, True),
)


PACKAGE = "trace_repair"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """A wrapper of ``fn`` that records one span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
            span = Span(frame[0], parent[0] if parent else None, name, start, end, end - start - frame[1])
            if note is not None:
                try:
                    span.note = note(args, result)
                except (AttributeError, IndexError, TypeError):
                    span.note = None
            tracer.spans.append(span)
            return result

        return traced

    def _modules(self) -> list:
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Wrap every lookup site of the traced functions and methods."""
        for module_name, *_ in FUNCTIONS + METHODS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = self._modules()
        for module_name, function, span_name, note in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], function)
            wrapper = self.wrap(span_name, original, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for module_name, class_name, method, span_name, note, is_classmethod in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], class_name)
            original = cls.__dict__[method]
            if is_classmethod:
                wrapper = classmethod(self.wrap(span_name, original.__func__, note))
            else:
                wrapper = self.wrap(span_name, original, note)
            self._patches.append((cls, method, original))
            setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines, times in microseconds."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "parent": span.parent_id,
                            "name": span.name,
                            "start_us": round(span.start * 1e6, 1),
                            "end_us": round(span.end * 1e6, 1),
                            "self_us": round(span.self_s * 1e6, 1),
                            "note": span.note,
                        }
                    )
                    + "\n"
                )
