"""Resume property of a replay run (one request in flight).

A run killed at any point leaves its checkpoint, progress.jsonl, cut at
some byte: between two rows, or inside one. Resuming from that cut must
write the uninterrupted run's six artifacts and checkpoint, byte for byte.
Every example runs again on the resume, each with a fresh memo of its
candidate texts, and the checkpoint serves the outputs it recorded.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthetic_run import build_synthetic_run
from trace_repair.datasets import write_dataset
from trace_repair.pipeline import (
    ARTIFACT_FILES,
    MODE_GUARDED,
    MODE_SOLVE_TRIGGERED,
    PROGRESS_FILE,
    RunManifest,
    run_pipeline,
)

MODES = (MODE_GUARDED, MODE_SOLVE_TRIGGERED)
FILES = (*ARTIFACT_FILES.values(), PROGRESS_FILE)


def _run(inputs: Path, output_dir: Path, mode: str, resume: bool = False) -> dict[str, bytes]:
    manifest = RunManifest(
        mode=mode,
        dataset_path=inputs / "dataset.jsonl",
        output_dir=output_dir,
        cache_path=inputs / "cache.jsonl",
        resume=resume,
    )
    run_pipeline(manifest)
    return {name: (output_dir / name).read_bytes() for name in FILES}


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The synthetic inputs' directory, and each mode's uninterrupted run."""
    inputs = tmp_path_factory.mktemp("inputs")
    records, cache = build_synthetic_run()
    write_dataset(records, inputs / "dataset.jsonl")
    (inputs / "cache.jsonl").write_text("".join(json.dumps(row) + "\n" for row in cache), encoding="utf-8")
    return inputs, {mode: _run(inputs, inputs / mode, mode) for mode in MODES}


@settings(max_examples=50, derandomize=True, deadline=None)
@given(mode=st.sampled_from(MODES), data=st.data())
def test_a_checkpoint_cut_at_any_byte_resumes_to_the_uninterrupted_bytes(fresh, mode, data):
    inputs, runs = fresh
    progress = runs[mode][PROGRESS_FILE]
    cut = data.draw(st.integers(min_value=0, max_value=len(progress)), label="cut")
    with tempfile.TemporaryDirectory() as scratch:
        crashed = Path(scratch)
        (crashed / PROGRESS_FILE).write_bytes(progress[:cut])
        resumed = _run(inputs, crashed, mode, resume=True)
    for name in FILES:
        assert resumed[name] == runs[mode][name], (name, cut)
