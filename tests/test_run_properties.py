"""Properties of a replay run over any subset of the synthetic run's examples.

For guarded repair and the solve_triggered baseline, over subsets drawn
from ``synthetic_run``'s groups:

- order: the dataset's and the cache's line order do not change the six
  artifacts;
- locality: each example's rows are its rows in the full run, whatever
  else the run holds;
- report: ``report`` over the run's two row files writes the run's own
  report.json and report.txt.

For every mode, with the four ablation switches drawn as well, over
subsets that may include ``build_switch_groups``' examples:

- accounting: report.json and risk_summary.json are recounts of the rows,
  and the accepted patterns are the accepted examples.

For guarded repair and the direct_bestof3_gated baseline, with the switches
drawn:

- switch verdicts: each switch example is accepted, at attempt 0 and on its
  path, exactly when its rule says so.

The synthetic cache serves every switched run: no switch changes the
trigger, and each only loosens acceptance, so a run stops at or before the
attempt the default run accepts.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthetic_run import (
    GROUP_CLEAN,
    GROUP_EMPTY,
    GROUP_NOOP,
    GROUP_RETRY,
    GROUP_SAFE_FIX,
    GROUP_UNSAFE,
    SWITCH_EQUATION_SUPPORT,
    SWITCH_GRAPH_GUARD,
    SWITCH_RELAX_MISSING_CONSTRAINT,
    SWITCH_WEAK_REASONER,
    build_switch_groups,
    build_synthetic_run,
    solve_all_attempts,
)
from report_rows import assert_recounts
from trace_repair.datasets import write_dataset
from trace_repair.pipeline import (
    ARTIFACT_FILES,
    MODE_DIRECT_BESTOF3_GATED,
    MODE_GUARDED,
    MODE_SOLVE_ALL,
    MODE_SOLVE_TRIGGERED,
    RUN_MODES,
    RunManifest,
    recompute_report,
    run_pipeline,
)
from trace_repair.policy import PolicyConfig

GROUPS = (GROUP_CLEAN, GROUP_SAFE_FIX, GROUP_UNSAFE, GROUP_NOOP, GROUP_RETRY, GROUP_EMPTY)
MODES = (MODE_GUARDED, MODE_SOLVE_TRIGGERED)
RECORDS, CACHE = build_synthetic_run()
SWITCH_RECORDS, SWITCH_CACHE = build_switch_groups()
SWITCH_GROUP = [record.example_id for record in SWITCH_RECORDS]
GOLD = {record.example_id: record.gold_answer for record in RECORDS + SWITCH_RECORDS}
# Each is the default's opposite when drawn true: a loosened guard or path.
SWITCHES = {
    "enable_graph_guard": False,
    "disable_equation_support": True,
    "relax_missing_constraint": True,
    "weak_reasoner_mode": True,
}
# The files whose rows are keyed by example, one row or one row per attempt.
ROW_FILES = ("predictions", "candidates", "risk_log")

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None)


@st.composite
def subsets(draw, groups=GROUPS):
    """Example ids: a non-empty subset of each of a non-empty set of ``groups``."""
    drawn = draw(st.sets(st.sampled_from(range(len(groups))), min_size=1))
    ids = set()
    for group in sorted(drawn):
        ids |= draw(st.sets(st.sampled_from(groups[group]), min_size=1))
    return ids


def _run(
    directory: Path,
    mode: str,
    ids,
    shuffle: random.Random | None = None,
    config: PolicyConfig = PolicyConfig(),
) -> dict[str, Path]:
    """Replay the synthetic examples in ``ids`` under ``mode`` and ``config``;
    ``shuffle`` reorders the dataset's and the cache's lines first."""
    records = [record for record in RECORDS + SWITCH_RECORDS if record.example_id in ids]
    rows = CACHE + SWITCH_CACHE + (solve_all_attempts() if mode == MODE_SOLVE_ALL else [])
    cache = [row for row in rows if row["example_id"] in ids]
    if shuffle is not None:
        shuffle.shuffle(records)
        shuffle.shuffle(cache)
    directory.mkdir(parents=True)
    dataset_path, cache_path = directory / "dataset.jsonl", directory / "cache.jsonl"
    write_dataset(records, dataset_path)
    cache_path.write_text("".join(json.dumps(row) + "\n" for row in cache), encoding="utf-8")
    manifest = RunManifest(
        mode=mode,
        dataset_path=dataset_path,
        output_dir=directory / "out",
        config=config,
        cache_path=cache_path,
    )
    return run_pipeline(manifest).paths


def _rows_by_example(paths: dict[str, Path]) -> dict[str, dict[str, list[str]]]:
    """Each example's lines of each row file, by file key."""
    rows: dict[str, dict[str, list[str]]] = {}
    for key in ROW_FILES:
        for line in paths[key].read_text(encoding="utf-8").splitlines():
            rows.setdefault(json.loads(line)["example_id"], {}).setdefault(key, []).append(line)
    return rows


@pytest.fixture(scope="module")
def full_rows(tmp_path_factory):
    """The full synthetic run's rows by example, for each mode."""
    base = tmp_path_factory.mktemp("full")
    ids = {record.example_id for record in RECORDS}
    return {mode: _rows_by_example(_run(base / mode, mode, ids)) for mode in MODES}


@PROPERTY
@given(mode=st.sampled_from(MODES), ids=subsets(), shuffle=st.randoms(use_true_random=False))
def test_order_of_the_input_lines_does_not_change_the_artifacts(mode, ids, shuffle):
    with tempfile.TemporaryDirectory() as scratch:
        ordered = _run(Path(scratch) / "ordered", mode, ids)
        shuffled = _run(Path(scratch) / "shuffled", mode, ids, shuffle)
        for key in ARTIFACT_FILES:
            assert shuffled[key].read_bytes() == ordered[key].read_bytes(), key


@PROPERTY
@given(mode=st.sampled_from(MODES), ids=subsets())
def test_each_example_has_the_rows_it_has_in_the_full_run(full_rows, mode, ids):
    with tempfile.TemporaryDirectory() as scratch:
        rows = _rows_by_example(_run(Path(scratch) / "run", mode, ids))
    assert set(rows) == ids
    for example_id, example_rows in rows.items():
        assert example_rows == full_rows[mode][example_id], example_id


@PROPERTY
@given(mode=st.sampled_from(MODES), ids=subsets())
def test_report_rewrites_the_runs_own_report(mode, ids):
    with tempfile.TemporaryDirectory() as scratch:
        run = _run(Path(scratch) / "run", mode, ids)
        report = recompute_report(run["predictions"], Path(scratch) / "report").paths
        for key in report:
            assert report[key].read_bytes() == run[key].read_bytes(), key


@PROPERTY
@given(
    mode=st.sampled_from(RUN_MODES),
    ids=subsets((*GROUPS, SWITCH_GROUP)),
    switched=st.sets(st.sampled_from(sorted(SWITCHES))),
)
def test_the_counts_are_recounts_of_the_rows_under_any_switches(mode, ids, switched):
    config = PolicyConfig(**{name: SWITCHES[name] for name in switched})
    with tempfile.TemporaryDirectory() as scratch:
        assert_recounts(_run(Path(scratch) / "run", mode, ids, config=config), GOLD)


def _switch_verdicts(config: PolicyConfig) -> dict[str, str]:
    """The path on which each switch example is accepted under ``config``,
    for those its rule accepts."""
    rules = {
        SWITCH_GRAPH_GUARD: ("empty_generation_rescue", not config.enable_graph_guard),
        SWITCH_EQUATION_SUPPORT: ("empty_generation_rescue", config.disable_equation_support),
        SWITCH_RELAX_MISSING_CONSTRAINT: ("relaxed_support", config.relax_missing_constraint),
        SWITCH_WEAK_REASONER: (
            "weak_reasoner_relaxed",
            config.weak_reasoner_mode and not config.enable_graph_guard,
        ),
    }
    return {example_id: path for example_id, (path, accepted) in rules.items() if accepted}


@PROPERTY
@given(
    mode=st.sampled_from((MODE_GUARDED, MODE_DIRECT_BESTOF3_GATED)),
    switched=st.sets(st.sampled_from(sorted(SWITCHES))),
)
def test_each_switch_decides_its_own_examples_verdict(mode, switched):
    config = PolicyConfig(**{name: SWITCHES[name] for name in switched})
    with tempfile.TemporaryDirectory() as scratch:
        paths = _run(Path(scratch) / "run", mode, set(SWITCH_GROUP), config=config)
        predictions, candidates = (
            [json.loads(line) for line in paths[key].read_text().splitlines()]
            for key in ("predictions", "candidates")
        )
    verdicts = _switch_verdicts(config)
    attempts = {row["example_id"]: row["accepted_attempt"] for row in predictions if row["accepted"]}
    assert attempts == dict.fromkeys(verdicts, 0)
    paths_taken = {
        row["example_id"]: row["verdict"]["path"] for row in candidates if row["verdict"]["accepted"]
    }
    assert paths_taken == verdicts
