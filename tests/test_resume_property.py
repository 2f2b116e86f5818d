"""Resume property of a run, with one request in flight and with four.

A run killed at any point leaves its checkpoint, progress.jsonl, cut at
some byte: between two rows, or inside one. Resuming from that cut must
write the uninterrupted run's six artifacts and checkpoint, byte for byte.
Every example runs again on the resume, each with a fresh memo of its
candidate texts, and the checkpoint serves the outputs it recorded.

At one request in flight the run replays the synthetic cache. At four, the
remote provider asks a loopback endpoint that serves the same cache, and
the resume must ask it only for the attempts the cut checkpoint lacks.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fake_endpoint import FakeEndpoint
from synthetic_run import GROUP_UNSAFE, build_synthetic_run, write_synthetic_run
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


def _remote_run(dataset_path: Path, output_dir: Path, resume: bool = False) -> dict[str, bytes]:
    """Guarded repair through the remote provider, four examples in flight."""
    manifest = RunManifest(
        mode=MODE_GUARDED,
        dataset_path=dataset_path,
        output_dir=output_dir,
        provider="remote",
        concurrency=4,
        resume=resume,
    )
    run_pipeline(manifest)
    return {name: (output_dir / name).read_bytes() for name in FILES}


def _attempts(lines: list[bytes]) -> set[tuple[str, int]]:
    """(example id, attempt index) of each checkpoint line."""
    return {(row["example_id"], row["attempt_index"]) for row in map(json.loads, lines)}


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


# Every request of this attempt fails, so the run records a transport error.
FAILING = (GROUP_UNSAFE[0], 0, False)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """The synthetic set on a loopback endpoint, and its uninterrupted run at k = 4."""
    inputs = tmp_path_factory.mktemp("served")
    dataset_path, cache_path = write_synthetic_run(inputs)
    with FakeEndpoint(dataset_path, cache_path) as endpoint, pytest.MonkeyPatch.context() as patch:
        endpoint.install(patch)
        endpoint.failing = {FAILING}
        yield endpoint, Path(dataset_path), _remote_run(Path(dataset_path), inputs / "fresh")


@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_checkpoint_cut_at_any_byte_resumes_at_four_in_flight(served, data):
    endpoint, dataset_path, fresh = served
    progress = fresh[PROGRESS_FILE]
    cut = data.draw(st.integers(min_value=0, max_value=len(progress)), label="cut")
    # A resume keeps the whole rows before the cut and drops a torn last one.
    kept = [line for line in progress[:cut].splitlines(keepends=True) if line.endswith(b"\n")]
    # A recorded transport error replays from the checkpoint; an attempt not
    # yet checkpointed meets the same fault again.
    endpoint.failing = set() if FAILING[:2] in _attempts(kept) else {FAILING}
    endpoint.requests.clear()
    with tempfile.TemporaryDirectory() as scratch:
        crashed = Path(scratch)
        (crashed / PROGRESS_FILE).write_bytes(progress[:cut])
        resumed = _remote_run(dataset_path, crashed, resume=True)
    for name in FILES:
        assert resumed[name] == fresh[name], (name, cut)
    asked = {key[:2] for key in endpoint.requests}
    assert asked == _attempts(progress.splitlines()) - _attempts(kept), cut
