"""JSONL input and output, dataset loading, numeric filtering, and sampling.

``read_jsonl`` reads every JSONL input, ``jsonl_line`` encodes every JSONL
row written, and ``write_artifacts`` commits every output file, as a set.
Datasets are UTF-8 JSONL files with one record per line:

    {"example_id": ..., "problem_text": ..., "gold_answer": ...,
     "cached_initial_trace": ...}

``problem_text`` is a string, ``cached_initial_trace`` a string or null or
absent, and ``example_id`` and ``gold_answer`` are strings or numbers, read
as text.

The sampler is pinned so sampled id lists can be reproduced in any
language: a Fisher-Yates shuffle driven by 32-bit MT19937 draws (CPython's
``random.Random(seed).getrandbits(32)``, i.e. the reference mt19937
``genrand_uint32`` stream seeded via ``init_by_array`` over the seed's
little-endian 32-bit words) with rejection sampling to avoid modulo bias.
The first ``size`` shuffled indices are kept and returned in pool order.
"""

from __future__ import annotations

import json
import os
import random
import re
import types
import typing
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .answers import (
    KIND_NONE,
    KIND_RATIO_OR_TIME,
    KIND_YES_NO,
    NUMERIC_KINDS,
    normalize_answer,
)

REJECT_QUESTION_TYPE = "non_numeric_question_type"
REJECT_AMBIGUOUS_FORMAT = "ambiguous_answer_format"
REJECT_YES_NO = "yes_no_answer"

REJECTION_CATEGORIES = (REJECT_QUESTION_TYPE, REJECT_AMBIGUOUS_FORMAT, REJECT_YES_NO)

# An id or gold answer may be a JSON number; it is read as text.
ID_TYPES = (str, int, float)
_REQUIRED_FIELDS = {"example_id": ID_TYPES, "problem_text": (str,), "gold_answer": ID_TYPES}

_CATEGORICAL_QUESTION_RE = re.compile(
    r"\b(?:which|who|whom|whose)\b|\bwhat\s+(?:kind|type|color|colour|shape|name)\b",
    re.IGNORECASE,
)
_NUMERIC_ASK_RE = re.compile(
    r"\bhow\s+(?:many|much|long|far|old|tall|heavy|fast)\b"
    r"|\bwhat\s+(?:number|fraction|percent(?:age)?)\b"
    r"|\btotal\b|\bsum\b|\bdifference\b|\baverage\b",
    re.IGNORECASE,
)


class DatasetError(ValueError):
    """A malformed or inconsistent input file, named with ``path:line``. Always fatal."""


@dataclass(frozen=True)
class DatasetRecord:
    example_id: str
    problem_text: str
    gold_answer: str
    cached_initial_trace: str | None = None

    def to_json_dict(self) -> dict:
        payload = {
            "example_id": self.example_id,
            "problem_text": self.problem_text,
            "gold_answer": self.gold_answer,
        }
        if self.cached_initial_trace is not None:
            payload["cached_initial_trace"] = self.cached_initial_trace
        return payload


# The JSON value type of each field annotation; any other is a nested
# dataclass, read from an object.
_JSON_TYPES = {
    bool: bool, int: int, str: str, list: list, tuple: list, types.NoneType: types.NoneType
}
_JSON_NAMES = {
    bool: "a bool", int: "an int", float: "a float", str: "a string", list: "a list",
    dict: "an object",
}


@cache
def json_types(cls) -> dict[str, tuple[type, ...]]:
    """Each field of the dataclass ``cls`` with the JSON value types its annotation admits."""
    hints = typing.get_type_hints(cls)
    admitted = {}
    for item in fields(cls):
        hint = hints[item.name]
        union = hint.__args__ if isinstance(hint, types.UnionType) else (hint,)
        admitted[item.name] = tuple(_JSON_TYPES.get(typing.get_origin(t) or t, dict) for t in union)
    return admitted


def json_fields(
    where: str, value, names: Sequence[str] | Mapping[str, tuple[type, ...]], name: str = ""
) -> list:
    """The values of ``names`` in ``value``, the JSON object at dotted ``name`` ("" for the row).

    ``names`` may map each field to the JSON value types it admits, as
    ``json_types`` does; a bool is not an int. A ``value`` that is not an
    object, a missing field, or a field of a type it does not admit raises a
    ``DatasetError`` naming ``where`` and the field."""
    if not isinstance(value, dict):
        what = repr(name) if name else "row"
        raise DatasetError(f"{where}: {what} is a JSON {type(value).__name__}, not an object")
    admitted = names if isinstance(names, Mapping) else {}
    for field_name in names:
        dotted = f"{name}.{field_name}" if name else field_name
        if field_name not in value:
            raise DatasetError(f"{where}: missing field {dotted!r}")
        kind = type(value[field_name])
        if field_name in admitted and kind not in admitted[field_name]:
            expected = " or ".join(_JSON_NAMES[t] for t in admitted[field_name] if t in _JSON_NAMES)
            raise DatasetError(f"{where}: {dotted!r} is a JSON {kind.__name__}, not {expected}")
    return [value[field_name] for field_name in names]


def read_jsonl(
    path: str | Path, required: Sequence[str] | Mapping[str, tuple[type, ...]] = ()
) -> Iterator[tuple[str, dict]]:
    """Yield ``(where, row)``, ``where`` being ``path:line``, for each line that is not blank.

    A line that is not UTF-8 or not JSON, a row that is not an object, or a
    row without one of the ``required`` fields, or with one of a type it
    does not admit (as ``json_fields`` reads them), raises a
    ``DatasetError`` that names it.
    """
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            where = f"{path}:{number}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetError(f"{where}: not UTF-8 ({exc})") from None
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{where}: not JSON ({exc})") from None
            json_fields(where, row, required)
            yield where, row


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """Parse a JSONL dataset file, preserving file order.

    A malformed line, a field of a type the module docstring does not admit,
    or a duplicate example id aborts with the offending line number.
    """
    records: list[DatasetRecord] = []
    seen: set[str] = set()
    for where, row in read_jsonl(path, _REQUIRED_FIELDS):
        example_id = str(row["example_id"])
        if example_id in seen:
            raise DatasetError(f"{where}: duplicate example_id {example_id!r}")
        seen.add(example_id)
        trace = row.get("cached_initial_trace")
        if trace is not None:
            json_fields(where, row, {"cached_initial_trace": (str,)})
        records.append(
            DatasetRecord(
                example_id=example_id,
                problem_text=row["problem_text"],
                gold_answer=str(row["gold_answer"]),
                cached_initial_trace=trace,
            )
        )
    return records


@contextmanager
def write_artifacts(paths: Mapping[str, str | Path]) -> Iterator[dict[str, TextIO]]:
    """Open a ``.tmp`` file beside each of ``paths`` and yield the handles by key.

    When the block ends, each is renamed into place, in the order of
    ``paths``; if the block raises, or a temp file cannot be opened, all
    are deleted and no file of the set changes. A crash between two renames
    can still mix a set; ROADMAP item 8's ``run.json`` would close that gap."""
    with ExitStack() as temps:
        with ExitStack() as handles:
            files = {}
            for key, path in paths.items():
                temp = Path(f"{path}.tmp")
                files[key] = handles.enter_context(open(temp, "w", encoding="utf-8"))
                temps.callback(temp.unlink, missing_ok=True)
            yield files
        for key, path in paths.items():
            os.replace(files[key].name, path)


# ``json.dumps`` with a keyword argument builds an encoder per call; this one
# writes the same text.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def jsonl_line(row: dict) -> str:
    """One JSONL row as written to every artifact, newline included."""
    return _encode(row) + "\n"


def write_dataset(records: Iterable[DatasetRecord], path: str | Path) -> None:
    with write_artifacts({"dataset": path}) as files:
        files["dataset"].writelines(jsonl_line(record.to_json_dict()) for record in records)


@dataclass
class FilterResult:
    kept: list[DatasetRecord]
    rejected_ids: dict[str, list[str]] = field(
        default_factory=lambda: {category: [] for category in REJECTION_CATEGORIES}
    )

    def counts(self) -> dict[str, int]:
        return {category: len(ids) for category, ids in self.rejected_ids.items()}

    @property
    def total(self) -> int:
        return len(self.kept) + sum(len(ids) for ids in self.rejected_ids.values())


def filter_numeric(pool: Sequence[DatasetRecord]) -> FilterResult:
    """Keep only examples whose normalized answers are plain numbers.

    Rejection order: likely categorical question types first (a which/who
    style question without a numeric ask), then yes/no answers, then
    colon-formed or otherwise ambiguous answer formats. Every record lands
    in exactly one bucket, so kept + rejections = pool size.
    """
    result = FilterResult(kept=[])
    for record in pool:
        if _CATEGORICAL_QUESTION_RE.search(record.problem_text) and not _NUMERIC_ASK_RE.search(
            record.problem_text
        ):
            result.rejected_ids[REJECT_QUESTION_TYPE].append(record.example_id)
            continue
        value = normalize_answer(record.gold_answer)
        if value.kind in NUMERIC_KINDS:
            result.kept.append(record)
        elif value.kind == KIND_YES_NO:
            result.rejected_ids[REJECT_YES_NO].append(record.example_id)
        else:
            # ratio/time strings may denote either ratios or clock times,
            # and anything unparseable is equally ambiguous.
            assert value.kind in (KIND_RATIO_OR_TIME, KIND_NONE)
            result.rejected_ids[REJECT_AMBIGUOUS_FORMAT].append(record.example_id)
    return result


def _randbelow(rng: random.Random, n: int) -> int:
    # Rejection sampling over raw 32-bit draws keeps the procedure
    # reproducible from the documented MT19937 stream alone.
    span = (1 << 32) // n * n
    while True:
        draw = rng.getrandbits(32)
        if draw < span:
            return draw % n


def sample_subset(
    pool: Sequence[DatasetRecord], size: int, seed: int
) -> list[DatasetRecord]:
    """Uniform sample without replacement; deterministic in (pool, seed).

    See the module docstring for the pinned shuffle procedure. The subset
    is returned in pool order.
    """
    if size < 0 or size > len(pool):
        raise ValueError(f"sample size {size} out of range for pool of {len(pool)}")
    rng = random.Random(seed)
    indices = list(range(len(pool)))
    for position in range(len(indices) - 1, 0, -1):
        other = _randbelow(rng, position + 1)
        indices[position], indices[other] = indices[other], indices[position]
    chosen = sorted(indices[:size])
    return [pool[index] for index in chosen]
