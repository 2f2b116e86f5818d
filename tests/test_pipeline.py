import json
import re
import shutil
from pathlib import Path

import pytest

from synthetic_run import (
    EXPECTED_ACCEPTED,
    EXPECTED_ATTEMPTS,
    GROUP_CLEAN,
    GROUP_EMPTY,
    GROUP_NOOP,
    GROUP_RETRY,
    GROUP_SAFE_FIX,
    GROUP_UNSAFE,
    build_synthetic_run,
    solve_all_attempts,
    write_synthetic_run,
)
from report_rows import assert_recounts
from trace_repair.cli import main
from trace_repair import pipeline
from trace_repair.pipeline import (
    MODE_DIRECT_BESTOF3_GATED,
    MODE_GUARDED,
    MODE_REPLAY,
    MODE_SOLVE_ALL,
    MODE_SOLVE_TRIGGERED,
    PROGRESS_FILE,
    RUN_MODES,
    RunManifest,
    filter_dataset,
    recompute_report,
    run_pipeline,
)
from trace_repair.datasets import DatasetError, DatasetRecord, write_dataset
from trace_repair.providers import ReplayCacheMiss, ReplayProvider


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    directory = tmp_path_factory.mktemp("synthetic")
    dataset_path, cache_path = write_synthetic_run(directory)
    return directory, dataset_path, cache_path


_DELETE = object()


def _edit_field(row, dotted, value):
    """Set the field ``dotted`` of ``row``, such as ``candidates[0].parsed.steps``,
    to ``value``, or delete it when ``value`` is ``_DELETE``."""
    keys = re.findall(r"[^.\[\]]+", dotted)
    *parents, last = [int(key) if key.isdigit() else key for key in keys]
    for key in parents:
        row = row[key]
    if value is _DELETE:
        del row[last]
    else:
        row[last] = value


def _field_case(*where, value=_DELETE, expected=None):
    """A test case: ``where`` (an artifact key, if any, then a dotted field), the
    value that replaces the field, ``_DELETE`` to drop it, and the error naming it."""
    dotted = where[-1]
    if value is _DELETE:
        return pytest.param(*where, value, f"missing field '{dotted}'", id="-".join(where))
    kind = type(value).__name__
    error = f"'{dotted}' is a JSON {kind}, not {expected}"
    return pytest.param(*where, value, error, id="-".join(where) + f"={kind}")


_PREDICTION_FIELDS = (
    "example_id", "initial_answer", "final_answer", "gold_answer", "triggered",
    "trigger_reasons", "accepted", "accepted_attempt", "final_trace",
)
_CANDIDATE_FIELDS = (
    "example_id", "attempt_index", "prompt_hash", "raw_output", "retry_output", "parsed",
    "retried", "clean", "clean_reason", "graph_clean", "answer_changed", "verdict", "error",
    "parsed.steps", "parsed.final_answer", "verdict.accepted", "verdict.path",
    "verdict.rejection_reasons",
)
# Scalar fields of a mistyped JSON type, as a dotted field under a row, the
# value put there and the type the field's dataclass admits. A bool is not
# an int, and null is admitted only where the dataclass allows None.
_SCALAR_FAULTS = (
    ("{prediction}accepted", "false", "a bool"),
    ("{prediction}triggered", 1, "a bool"),
    ("{prediction}accepted_attempt", True, "an int"),
    ("{prediction}accepted_attempt", "0", "an int"),
    ("{prediction}gold_answer", None, "a string"),
    ("{prediction}final_answer", 12, "a string"),
    ("{candidate}attempt_index", 0.0, "an int"),
    ("{candidate}attempt_index", False, "an int"),
    ("{candidate}prompt_hash", None, "a string"),
    ("{candidate}clean", "true", "a bool"),
    ("{candidate}graph_clean", 0, "a bool"),
    ("{candidate}error", [], "a string"),
    ("{candidate}parsed.final_answer", 12, "a string"),
    ("{candidate}parsed.final_answer", None, "a string"),
    ("{candidate}verdict.accepted", "false", "a bool"),
    ("{candidate}verdict.path", None, "a string"),
)
# Each case edits the checkpoint row of GROUP_SAFE_FIX[0]'s first attempt,
# which the replay cache reader refuses, naming its line.
_PROGRESS_ROW_FAULTS = [
    *(_field_case(name) for name in ("example_id", "attempt_index", "raw_output", "prompt_hash")),
    # A replay cache may leave an attempt unpinned; the checkpoint may not.
    _field_case("prompt_hash", value=None, expected="a string"),
    pytest.param("prompt_hash", "", "'prompt_hash' is empty", id="prompt_hash=''"),
    *(
        pytest.param(name, value, f"{name} {value!r} is not {expected}", id=f"{name}={value!r}")
        for name, value, expected in (
            ("attempt_index", 0.5, "an integer"),
            ("attempt_index", False, "an integer"),
            ("attempt_index", "first", "an integer"),
            ("raw_output", None, "a string"),
            ("retry_output", 5, "a string"),
            ("prompt_hash", [], "a string"),
            ("error", {}, "a string"),
            ("attempt_index", None, "an integer"),
            ("attempt_index", "1.0", "an integer"),
            ("raw_output", 5, "a string"),
            ("error", [], "a string"),
        )
    ),
]
_RISK_FIELDS = (
    "example_id", "initial_risks", "initial_score", "initial_diagnosis", "meta_category",
    "triggered", "accepted_attempt", "candidates",
)


def _copy_edit(dotted, value=_DELETE, case=None):
    """A test case: a dotted field of a checkpoint row's prediction or risk
    copy, and the value that replaces it, ``_DELETE`` to drop it."""
    if case is None:
        case = dotted if value is _DELETE else f"{dotted}={type(value).__name__}"
    return pytest.param(dotted, value, id=case)


# Each case edits the copies of its example's prediction and risk row that the
# first checkpoint row of GROUP_SAFE_FIX[0] carries beside its candidate
# fields: a missing or mistyped field, or one that contradicts another field
# or the example's candidates. No field of the copies is read on a resume.
_OLDER_ROW_COPY_EDITS = [
    _copy_edit("prediction"),
    _copy_edit("risk"),
    *(_copy_edit(f"prediction.{name}") for name in _PREDICTION_FIELDS),
    *(_copy_edit(f"risk.{name}") for name in _RISK_FIELDS),
    _copy_edit("prediction", []),
    _copy_edit("risk", "ex020"),
    *(
        _copy_edit(name.format(prediction="prediction."), value)
        for name, value, expected in _SCALAR_FAULTS
        if name.startswith("{prediction}")
    ),
    _copy_edit("risk.candidates", [], "risk.candidates-emptied"),
    _copy_edit("risk.candidates[0].accepted", 1, "risk.candidates-accepted=int"),
    _copy_edit("risk.candidates[0].rejection_reasons", ["no_op"], "risk.candidates-reasons"),
    *(
        _copy_edit(name, value, f"{name}={json.dumps(value)}")
        for name, value in (
            ("prediction.triggered", False),
            ("prediction.trigger_reasons", []),
            ("prediction.accepted", False),
            ("prediction.accepted_attempt", None),
            ("risk.example_id", "zzz"),
            ("risk.triggered", False),
            ("risk.accepted_attempt", 2),
            ("risk.accepted_attempt", False),
        )
    ),
]
# Fields of a checkpoint's rows that a resume derives again from the recorded
# outputs, and the edit made to every row that holds the field; ``_DELETE``
# drops it. Nothing reads these fields, so not even their types are checked.
_DERIVED_CANDIDATE_EDITS = [
    pytest.param("parsed", lambda value: None, id="parsed=null"),
    pytest.param("parsed", lambda value: "1 + 2 = 3", id="parsed=str"),
    pytest.param("parsed.steps", lambda value: [], id="parsed.steps=[]"),
    pytest.param("parsed.final_answer", lambda value: value + "0", id="parsed.final_answer"),
    pytest.param("verdict", lambda value: None, id="verdict=null"),
    pytest.param("verdict", lambda value: _DELETE, id="verdict-dropped"),
    pytest.param("verdict.accepted", lambda value: not value, id="verdict.accepted"),
    pytest.param("verdict.path", lambda value: "edited", id="verdict.path"),
    pytest.param(
        "verdict.rejection_reasons",
        lambda value: [] if value else ["no_op"],
        id="verdict.rejection_reasons",
    ),
    pytest.param("retried", lambda value: not value, id="retried"),
    pytest.param("clean", lambda value: not value, id="clean"),
    pytest.param("clean", lambda value: "yes", id="clean=str"),
    pytest.param("clean_reason", lambda value: "edited", id="clean_reason"),
    pytest.param("graph_clean", lambda value: value is not True, id="graph_clean"),
    pytest.param("answer_changed", lambda value: value is not True, id="answer_changed"),
    pytest.param("answer_changed", lambda value: _DELETE, id="answer_changed-dropped"),
    *(
        pytest.param(name, lambda value: _DELETE, id=f"{name}-dropped")
        for name in (
            "parsed", "parsed.steps", "parsed.final_answer", "verdict.accepted",
            "verdict.path", "verdict.rejection_reasons", "retried", "clean",
            "clean_reason", "graph_clean",
        )
    ),
    *(
        pytest.param(name, lambda value, new=new: new, id=f"{name}={type(new).__name__}")
        for name, new in (
            ("parsed", []),
            ("parsed.steps", "1 + 2 = 3"),
            ("parsed.final_answer", 12),
            ("verdict", 1),
            ("verdict.accepted", "false"),
            ("verdict.rejection_reasons", "no_op"),
            ("graph_clean", 0),
        )
    ),
    pytest.param("parsed.final_answer", lambda value: None, id="parsed.final_answer=null"),
    pytest.param("verdict.path", lambda value: None, id="verdict.path=null"),
]
# Each case edits line 3 of predictions.jsonl or candidates.jsonl; that
# candidate holds a parsed output and a verdict.
_REPORT_ROW_FAULTS = [
    *(_field_case("predictions", name) for name in _PREDICTION_FIELDS),
    *(_field_case("candidates", name) for name in _CANDIDATE_FIELDS),
    _field_case("candidates", "parsed", value="3", expected="an object"),
    _field_case("candidates", "verdict", value=[], expected="an object"),
    _field_case("candidates", "parsed.steps", value={}, expected="a list"),
    _field_case("candidates", "verdict.rejection_reasons", value="no_op", expected="a list"),
    *(
        _field_case(
            "predictions" if name.startswith("{prediction}") else "candidates",
            name.format(prediction="", candidate=""),
            value=value,
            expected=expected,
        )
        for name, value, expected in _SCALAR_FAULTS
    ),
    # Line 3 is an untriggered example, which keeps its initial answer.
    *(
        pytest.param(
            "predictions",
            name,
            value,
            f"'{first}' does not match '{second}'",
            id=f"predictions-{name}={json.dumps(value)}",
        )
        for name, value, first, second in (
            ("triggered", True, "triggered", "trigger_reasons"),
            ("trigger_reasons", ["low_meta_score"], "triggered", "trigger_reasons"),
            ("accepted", True, "accepted", "accepted_attempt"),
            ("accepted_attempt", 0, "accepted", "accepted_attempt"),
            ("final_answer", "999", "final_answer", "initial_answer"),
            ("initial_answer", "999", "final_answer", "initial_answer"),
        )
    ),
]


def _replay_manifest(output_dir, dataset_path, cache_path, mode=MODE_REPLAY, **kwargs):
    return RunManifest(
        mode=mode,
        dataset_path=Path(dataset_path),
        output_dir=Path(output_dir),
        cache_path=Path(cache_path),
        **kwargs,
    )


class TestReplayRun:
    def test_expected_transitions(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        result = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        report = result.report
        assert report.total == 50
        assert report.accepted == EXPECTED_ACCEPTED
        assert report.fixed == EXPECTED_ACCEPTED
        assert report.broken == 0
        assert report.attempts == EXPECTED_ATTEMPTS

        predictions = {
            row["example_id"]: row
            for row in map(json.loads, open(result.paths["predictions"]))
        }
        for example_id in GROUP_SAFE_FIX:
            assert predictions[example_id]["accepted"]
        for example_id in GROUP_UNSAFE + GROUP_NOOP:
            assert not predictions[example_id]["accepted"]
            assert predictions[example_id]["final_answer"] == predictions[example_id][
                "initial_answer"
            ]

    def test_untriggered_traces_preserved_verbatim(self, synthetic, tmp_path):
        from synthetic_run import GROUP_CLEAN, build_synthetic_run

        directory, dataset_path, cache_path = synthetic
        result = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        cached = {r.example_id: r.cached_initial_trace for r in build_synthetic_run()[0]}
        predictions = {
            row["example_id"]: row
            for row in map(json.loads, open(result.paths["predictions"]))
        }
        for example_id in GROUP_CLEAN:
            assert not predictions[example_id]["triggered"]
            assert predictions[example_id]["final_trace"] == cached[example_id]

    def test_retry_path_exercised(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        result = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        retried = {
            row["example_id"]
            for row in map(json.loads, open(result.paths["candidates"]))
            if row["retried"]
        }
        assert retried == set(GROUP_RETRY[:4])

    def test_risk_log_schema(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        result = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        rows = [json.loads(line) for line in open(result.paths["risk_log"])]
        assert len(rows) == 50
        for row in rows:
            assert {"example_id", "initial_risks", "initial_score", "triggered", "candidates"} <= set(row)
        noop_row = [row for row in rows if row["example_id"] == GROUP_NOOP[0]][0]
        assert [c["rejection_reasons"] for c in noop_row["candidates"]] == [["no_op"]] * 3

    def test_risk_summary_identities(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        result = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        summary = json.loads(open(result.paths["risk_summary"]).read())
        assert summary["patterns_inspected"] == EXPECTED_ATTEMPTS
        assert summary["accepted_patterns"] == EXPECTED_ACCEPTED
        assert (
            summary["accepted_patterns"] + summary["rejected_patterns"]
            == summary["patterns_inspected"]
        )
        assert summary["noop_rejections"] == 3 * len(GROUP_NOOP)
        assert (
            summary["answer_changing_accepted"] + summary["answer_changing_rejected"]
            == summary["answer_changing_candidates"]
        )
        # Under the main configuration every accepted answer-changing
        # candidate is graph-clean.
        assert (
            summary["accepted_answer_changing_graph_clean"]
            == summary["answer_changing_accepted"]
        )

    def test_byte_identical_across_runs(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        first = run_pipeline(_replay_manifest(tmp_path / "a", dataset_path, cache_path))
        second = run_pipeline(_replay_manifest(tmp_path / "b", dataset_path, cache_path))
        for key in ("predictions", "candidates", "risk_log", "report_json", "report_text"):
            assert first.paths[key].read_bytes() == second.paths[key].read_bytes()

    def test_resume_matches_uninterrupted(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        # Remove one cache entry so the run crashes partway through.
        rows = [json.loads(line) for line in open(cache_path)]
        crash_id = GROUP_NOOP[2]
        partial_cache = tmp_path / "partial_cache.jsonl"
        with open(partial_cache, "w") as handle:
            for row in rows:
                if row["example_id"] != crash_id:
                    handle.write(json.dumps(row) + "\n")

        crash_dir = tmp_path / "crash"
        with pytest.raises(ReplayCacheMiss):
            run_pipeline(_replay_manifest(crash_dir, dataset_path, partial_cache))
        assert (crash_dir / PROGRESS_FILE).exists()

        resumed = run_pipeline(
            _replay_manifest(crash_dir, dataset_path, cache_path, resume=True)
        )
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        for key in ("predictions", "candidates", "risk_log", "report_json"):
            assert resumed.paths[key].read_bytes() == fresh.paths[key].read_bytes()

    def test_resume_refuses_another_dataset(self, synthetic, tmp_path):
        from synthetic_run import build_synthetic_run

        directory, dataset_path, cache_path = synthetic
        run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        subset_path = tmp_path / "subset.jsonl"
        write_dataset(build_synthetic_run()[0][:10], subset_path)
        with pytest.raises(ValueError, match="not in"):
            run_pipeline(
                _replay_manifest(tmp_path / "run", subset_path, cache_path, resume=True)
            )

    @pytest.mark.parametrize("kept_bytes", [40, 1])
    def test_resume_drops_a_torn_last_line(self, synthetic, tmp_path, kept_bytes):
        import hashlib

        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        progress = (tmp_path / "fresh" / PROGRESS_FILE).read_bytes()
        lines = progress.splitlines(keepends=True)
        # What a kill mid-append leaves: 30 whole lines and the start of the 31st.
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        (crash_dir / PROGRESS_FILE).write_bytes(b"".join(lines[:30]) + lines[30][:kept_bytes])

        resumed = run_pipeline(
            _replay_manifest(crash_dir, dataset_path, cache_path, resume=True)
        )
        for key in ARTIFACT_KEYS:
            assert (
                hashlib.sha256(resumed.paths[key].read_bytes()).hexdigest()
                == hashlib.sha256(fresh.paths[key].read_bytes()).hexdigest()
            ), key
        # The torn example ran again on a line of its own.
        assert (crash_dir / PROGRESS_FILE).read_bytes() == progress

    def test_resume_after_a_cut_at_every_line_matches_uninterrupted(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        progress = (tmp_path / "fresh" / PROGRESS_FILE).read_bytes()
        lines = progress.splitlines(keepends=True)
        assert len(lines) == EXPECTED_ATTEMPTS
        ids = [json.loads(line)["example_id"] for line in lines]
        # Some cuts fall between two attempts of one example.
        assert sum(first == second for first, second in zip(ids, ids[1:])) == 20
        for cut in range(len(lines) + 1):
            crash_dir = tmp_path / f"cut{cut}"
            crash_dir.mkdir()
            (crash_dir / PROGRESS_FILE).write_bytes(b"".join(lines[:cut]))
            resumed = run_pipeline(
                _replay_manifest(crash_dir, dataset_path, cache_path, resume=True)
            )
            assert _digests(resumed) == _digests(fresh), cut
            assert (crash_dir / PROGRESS_FILE).read_bytes() == progress, cut

    def test_resume_reads_a_checkpoint_with_prediction_and_risk_copies(self, synthetic, tmp_path):
        """Rows that also hold their example's prediction and risk row resume
        through their candidate fields alone."""
        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        rows = _rows_with_copies(tmp_path / "fresh")
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        (crash_dir / PROGRESS_FILE).write_text("".join(rows[:30]), encoding="utf-8")
        resumed = run_pipeline(_replay_manifest(crash_dir, dataset_path, cache_path, resume=True))
        assert _digests(resumed) == _digests(fresh)

    def test_resume_derives_predictions_and_risk_again(self, synthetic, tmp_path):
        """Edited prediction and risk copies in the checkpoint change nothing."""
        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        edited = []
        for line in _rows_with_copies(tmp_path / "fresh"):
            row = json.loads(line)
            prediction = row["prediction"]
            if prediction["triggered"] and not prediction["accepted"]:
                prediction["gold_answer"] = prediction["initial_answer"]
            if prediction["accepted"]:
                prediction["final_answer"] += ".0"
            row["risk"]["initial_score"] = 0.5
            edited.append(json.dumps(row) + "\n")
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        (crash_dir / PROGRESS_FILE).write_text("".join(edited), encoding="utf-8")
        resumed = run_pipeline(_replay_manifest(crash_dir, dataset_path, cache_path, resume=True))
        assert resumed.report.final_accuracy == fresh.report.final_accuracy == 90.0
        assert _digests(resumed) == _digests(fresh)

    def test_a_completed_checkpoint_holds_the_candidates_rows(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        # Examples run in id order, as candidates.jsonl lists them, so the two files are one.
        progress = (tmp_path / "fresh" / PROGRESS_FILE).read_bytes()
        assert progress == fresh.paths["candidates"].read_bytes()

    def test_a_completed_checkpoint_replays_as_the_cache(self, synthetic, tmp_path, capsys):
        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        progress = tmp_path / "fresh" / PROGRESS_FILE
        again = tmp_path / "again"
        command = ["replay", "--dataset", str(dataset_path), "--cache", str(progress)]
        assert main([*command, "--output-dir", str(again)]) == 0
        assert _file_digests(again) == _digests(fresh)

    def test_resume_refuses_an_older_checkpoint(self, synthetic, tmp_path):
        """A checkpoint of one ``{"example_id", "candidates"}`` row per example,
        as older runs wrote, is not a candidate cache: the run stops at its
        first line, before any example."""
        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        candidates = {}
        for line in open(fresh.paths["candidates"], encoding="utf-8"):
            row = json.loads(line)
            candidates.setdefault(row["example_id"], []).append(row)
        older = [
            {"example_id": row["example_id"], "candidates": candidates.get(row["example_id"], [])}
            for row in map(json.loads, open(fresh.paths["predictions"], encoding="utf-8"))
        ]
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        (crash_dir / PROGRESS_FILE).write_text(
            "".join(json.dumps(row) + "\n" for row in older[:30]), encoding="utf-8"
        )
        error = f"{PROGRESS_FILE}:1: missing field 'attempt_index'"
        with pytest.raises(DatasetError, match=re.escape(error)):
            run_pipeline(_replay_manifest(crash_dir, dataset_path, cache_path, resume=True))
        assert sorted(path.name for path in crash_dir.iterdir()) == [PROGRESS_FILE]

    def test_resume_refuses_a_checkpoint_recorded_under_another_mode(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        with pytest.raises(ReplayCacheMiss, match="recorded under another prompt"):
            run_pipeline(
                _replay_manifest(
                    tmp_path / "run",
                    dataset_path,
                    cache_path,
                    mode=MODE_DIRECT_BESTOF3_GATED,
                    resume=True,
                )
            )

    def test_resume_refuses_a_torn_line_before_the_last(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        path = tmp_path / "run" / PROGRESS_FILE
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:4]) + lines[4][:40] + b"".join(lines[5:]))
        with pytest.raises(ValueError, match=rf"{PROGRESS_FILE}:5: not JSON"):
            run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path, resume=True))

    def test_resume_refuses_a_duplicated_attempt(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        path = tmp_path / "run" / PROGRESS_FILE
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[2:3]), encoding="utf-8")
        row = json.loads(lines[2])
        error = (
            f"{PROGRESS_FILE}:{len(lines) + 1}: duplicate row for example "
            f"{row['example_id']!r} attempt {row['attempt_index']}"
        )
        with pytest.raises(DatasetError, match=re.escape(error)):
            run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path, resume=True))

    @pytest.mark.parametrize("field, value, error", _PROGRESS_ROW_FAULTS)
    def test_resume_refuses_a_progress_row_without_a_field(
        self, synthetic, tmp_path, field, value, error
    ):
        directory, dataset_path, cache_path = synthetic
        run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        path = tmp_path / "run" / PROGRESS_FILE
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        number = 1 + next(i for i, line in enumerate(lines) if GROUP_SAFE_FIX[0] in line)
        row = json.loads(lines[number - 1])
        _edit_field(row, field, value)
        lines[number - 1] = json.dumps(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{PROGRESS_FILE}:{number}: {error}")):
            run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path, resume=True))

    @pytest.mark.parametrize("field, value", _OLDER_ROW_COPY_EDITS)
    def test_resume_reads_no_field_of_an_older_row_copy(
        self, synthetic, tmp_path, field, value
    ):
        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        rows = _rows_with_copies(tmp_path / "fresh")
        number = next(i for i, line in enumerate(rows) if GROUP_SAFE_FIX[0] in line)
        row = json.loads(rows[number])
        _edit_field(row, field, value)
        rows[number] = json.dumps(row) + "\n"
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        (crash_dir / PROGRESS_FILE).write_text("".join(rows), encoding="utf-8")
        resumed = run_pipeline(_replay_manifest(crash_dir, dataset_path, cache_path, resume=True))
        assert _digests(resumed) == _digests(fresh)

    @pytest.mark.parametrize("field, edit", _DERIVED_CANDIDATE_EDITS)
    def test_resume_derives_each_candidate_field_again(self, synthetic, tmp_path, field, edit):
        """A checkpoint's parsed outputs, verdicts and flags are not read:
        every candidate goes through the guards again."""
        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        *parents, last = field.split(".")
        lines = (tmp_path / "fresh" / PROGRESS_FILE).read_text(encoding="utf-8").splitlines(True)
        edited = []
        for line in lines:
            row = target = json.loads(line)
            for key in parents:
                target = target[key]
            if target is not None:
                _edit_field(target, last, edit(target[last]))
            edited.append(json.dumps(row) + "\n")
        assert edited != lines
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        (crash_dir / PROGRESS_FILE).write_text("".join(edited), encoding="utf-8")
        resumed = run_pipeline(_replay_manifest(crash_dir, dataset_path, cache_path, resume=True))
        assert resumed.report.accepted == fresh.report.accepted == EXPECTED_ACCEPTED
        assert _digests(resumed) == _digests(fresh)

    def test_resume_puts_a_recorded_output_through_the_guards(self, synthetic, tmp_path):
        """Recorded outputs are served to the guards again, whatever verdict the
        row records for them: a wrong sum marked accepted is rejected, and a
        right one marked rejected is accepted."""
        directory, dataset_path, cache_path = synthetic
        run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        path = tmp_path / "run" / PROGRESS_FILE
        rows = [json.loads(line) for line in open(path, encoding="utf-8")]
        first, second = [row for row in rows if row["example_id"] == GROUP_NOOP[0]][:2]
        # GROUP_NOOP[0] asks for 21 + 9; its recorded outputs keep the wrong 32.
        first["raw_output"] = json.dumps({"steps": ["21 + 9 = 35"], "final_answer": "35"})
        first["verdict"] = first["verdict"] | {"accepted": True, "rejection_reasons": []}
        second["raw_output"] = json.dumps({"steps": ["21 + 9 = 30"], "final_answer": "30"})
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        resumed = run_pipeline(
            _replay_manifest(tmp_path / "run", dataset_path, cache_path, resume=True)
        )
        predictions = {
            row["example_id"]: row for row in map(json.loads, open(resumed.paths["predictions"]))
        }
        assert predictions[GROUP_NOOP[0]]["accepted_attempt"] == 1
        assert predictions[GROUP_NOOP[0]]["final_answer"] == "30"
        assert resumed.report.accepted == EXPECTED_ACCEPTED + 1

    def test_resume_refuses_a_candidate_recorded_under_another_prompt(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        path = tmp_path / "run" / PROGRESS_FILE
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        number = next(i for i, line in enumerate(lines) if GROUP_SAFE_FIX[0] in line)
        row = json.loads(lines[number])
        row["prompt_hash"] = "0" * 64
        lines[number] = json.dumps(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ReplayCacheMiss, match="recorded under another prompt"):
            run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path, resume=True))

    def test_resume_sends_an_attempt_the_checkpoint_lacks_to_the_provider(
        self, synthetic, tmp_path
    ):
        """Every second attempt is missing from the checkpoint: the provider
        serves it, and the resume appends it, in dataset order."""
        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        lines = (tmp_path / "fresh" / PROGRESS_FILE).read_text(encoding="utf-8").splitlines(True)
        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        (crash_dir / PROGRESS_FILE).write_text("".join(lines[::2]), encoding="utf-8")
        resumed = run_pipeline(_replay_manifest(crash_dir, dataset_path, cache_path, resume=True))
        assert _digests(resumed) == _digests(fresh)
        progress = (crash_dir / PROGRESS_FILE).read_text(encoding="utf-8")
        assert progress == "".join(lines[::2] + lines[1::2])

    def test_a_contradictory_prediction_is_refused_by_name(self):
        fields = dict(
            example_id="ex001", initial_answer="7", final_answer="7", gold_answer="7",
            triggered=False, trigger_reasons=[], accepted=False, accepted_attempt=None, final_trace="",
        )
        pipeline.Prediction(**fields)
        for changed, first, second in (
            ({"triggered": True}, "triggered", "trigger_reasons"),
            ({"accepted_attempt": 1}, "accepted", "accepted_attempt"),
            ({"final_answer": "8"}, "final_answer", "initial_answer"),
        ):
            error = f"Prediction 'ex001': {first!r} does not match {second!r}"
            with pytest.raises(ValueError, match=re.escape(error)):
                pipeline.Prediction(**{**fields, **changed})

    @pytest.mark.parametrize("name", ["dataset", "cache", "progress"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, synthetic, tmp_path, name):
        directory, dataset_path, cache_path = synthetic
        paths = {
            "dataset": Path(shutil.copy(dataset_path, tmp_path)),
            "cache": Path(shutil.copy(cache_path, tmp_path)),
            "progress": tmp_path / "run" / PROGRESS_FILE,
        }
        manifest = _replay_manifest(
            tmp_path / "run",
            paths["dataset"],
            paths["cache"],
            mode=MODE_SOLVE_TRIGGERED,
            resume=True,
        )
        run_pipeline(manifest)
        lines = paths[name].read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:5] + b"\xff" + lines[1][5:]
        paths[name].write_bytes(b"".join(lines))
        error = f"{paths[name]}:2: not UTF-8 ('utf-8' codec can't decode byte 0xff"
        with pytest.raises(ValueError, match=re.escape(error)):
            run_pipeline(manifest)

    def test_integer_ids_name_the_same_example_in_dataset_and_cache(self, tmp_path):
        from synthetic_run import build_synthetic_run

        records, cache = build_synthetic_run()
        fix_id = GROUP_SAFE_FIX[0]
        record = next(record for record in records if record.example_id == fix_id)
        dataset_path = tmp_path / "dataset.jsonl"
        dataset_path.write_text(json.dumps({**record.to_json_dict(), "example_id": 7}) + "\n")
        cache_path = tmp_path / "cache.jsonl"
        cache_path.write_text(
            "".join(
                json.dumps({**row, "example_id": 7}) + "\n"
                for row in cache
                if row["example_id"] == fix_id
            )
        )
        report = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path)).report
        assert (report.total, report.accepted, report.fixed) == (1, 1, 1)

    def test_failed_write_keeps_previous_artifacts(self, synthetic, tmp_path, monkeypatch):
        directory, dataset_path, cache_path = synthetic
        first = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        before = first.paths["predictions"].read_bytes()
        files = sorted(path.name for path in (tmp_path / "run").iterdir())

        to_json_dict = pipeline.Prediction.to_json_dict

        def failing_to_json_dict(prediction):
            # Fails halfway through the predictions.jsonl rows.
            if prediction.example_id == "ex025":
                raise RuntimeError("serialization failed")
            return to_json_dict(prediction)

        monkeypatch.setattr(pipeline.Prediction, "to_json_dict", failing_to_json_dict)
        with pytest.raises(RuntimeError, match="serialization failed"):
            run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        assert first.paths["predictions"].read_bytes() == before
        assert sorted(path.name for path in (tmp_path / "run").iterdir()) == files


    @pytest.mark.parametrize("failing_at", ["ex000", "ex025", "ex049", "report"])
    def test_an_interrupted_run_keeps_the_previous_artifacts(
        self, synthetic, tmp_path, monkeypatch, failing_at
    ):
        """Rows go to temp files as each example finishes; a run that stops at
        an example, or at its report, renames none of them and leaves none."""
        directory, dataset_path, cache_path = synthetic
        first = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        before = _digests(first)

        def interrupt(*args, **kwargs):
            raise RuntimeError("interrupted")

        if failing_at == "report":
            monkeypatch.setattr(pipeline, "compute_report", interrupt)
        else:
            process = pipeline._process_example

            def failing_process(record, **kwargs):
                if record.example_id == failing_at:
                    interrupt()
                return process(record, **kwargs)

            monkeypatch.setattr(pipeline, "_process_example", failing_process)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        assert _digests(first) == before
        assert not list((tmp_path / "run").glob("*.tmp"))

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_examples_run_in_id_order_whatever_the_dataset_order(self, synthetic, tmp_path, order):
        import random

        from synthetic_run import build_synthetic_run

        directory, dataset_path, cache_path = synthetic
        fresh = run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
        records = build_synthetic_run()[0]
        if order == "reversed":
            records.reverse()
        else:
            random.Random(7).shuffle(records)
        unordered_path = tmp_path / "unordered.jsonl"
        write_dataset(records, unordered_path)
        run = run_pipeline(_replay_manifest(tmp_path / "run", unordered_path, cache_path))
        assert _digests(run) == _digests(fresh)
        progress = (tmp_path / "run" / PROGRESS_FILE).read_bytes()
        assert progress == run.paths["candidates"].read_bytes()

    def test_replay_refuses_a_cache_recorded_under_other_prompts(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        first = run_pipeline(_replay_manifest(tmp_path / "a", dataset_path, cache_path))
        recorded = first.paths["candidates"]
        again = run_pipeline(_replay_manifest(tmp_path / "b", dataset_path, recorded))
        for key in ARTIFACT_KEYS:
            assert again.paths[key].read_bytes() == first.paths[key].read_bytes()
        with pytest.raises(ReplayCacheMiss, match="another prompt"):
            run_pipeline(
                _replay_manifest(
                    tmp_path / "c", dataset_path, recorded, mode=MODE_DIRECT_BESTOF3_GATED
                )
            )


ARTIFACT_KEYS = (
    "predictions",
    "candidates",
    "risk_log",
    "risk_summary",
    "report_json",
    "report_text",
)


def _digests(result) -> tuple[str, ...]:
    import hashlib

    return tuple(hashlib.sha256(result.paths[key].read_bytes()).hexdigest() for key in ARTIFACT_KEYS)


def _rows_with_copies(run_dir: Path) -> list[str]:
    """A finished run's progress.jsonl lines, each with a copy of its example's
    prediction and risk row added, as a writer that also kept those would."""
    predictions = {row["example_id"]: row for row in map(json.loads, open(run_dir / "predictions.jsonl"))}
    risks = {row["example_id"]: row for row in map(json.loads, open(run_dir / "risk_log.jsonl"))}
    rows = []
    for line in open(run_dir / PROGRESS_FILE, encoding="utf-8"):
        row = json.loads(line)
        example_id = row["example_id"]
        row |= {"prediction": predictions[example_id], "risk": risks[example_id]}
        rows.append(json.dumps(row) + "\n")
    return rows


def _file_digests(output_dir: Path) -> tuple[str, ...]:
    """``_digests`` of the artifacts in ``output_dir``, by file name."""
    import hashlib

    return tuple(
        hashlib.sha256((output_dir / name).read_bytes()).hexdigest() for name in _ARTIFACT_FILES
    )


# sha256 of the synthetic replay's artifacts, in ARTIFACT_KEYS order.
_GUARDED_DIGESTS = (
    "332fcb3c98a67722db53466379ed06d140a5dac0eec0d3b817b2e6a66fcacf86",
    "d84b71bfa1583da8ef109421044da3dd52d5b8a846dbe3dca21ae37ab3cc6139",
    "09c26e215b920bf496939333a424d8e97971cc16a58f471e36311358b87420dc",
    "6d87c2d59dbbe5c673112dec9e2143612c38fbfe0bc8a8163a7267539704fcdf",
    "e413da1ab1fe96816f6b498fe5f41f3fcdc8390f5261c02ff1e0f31ca598702f",
    "c4600f2ec3ad827fa1a5db019a632d26521f301157c59872af776814e6254fed",
)
SYNTHETIC_DIGESTS = {
    MODE_GUARDED: _GUARDED_DIGESTS,
    MODE_SOLVE_TRIGGERED: (
        "8372aa30a868d4f9ae460b3848dcd8240c2534d5a72b2c541434e51ddb723358",
        "a30e3707a68934bf593d4909f26ea6769ca4f91cd0c987a5c946e8ade5e78fbb",
        "341b2930cc8b85068cd21473141ac425f29111c091ff66b8468a5edbee68b978",
        "68dfbb3cab1992fa3df8e21cd3262aca677c8f98ad6e3248286e7bf18a586d08",
        "34a0b4a03f4dcd9edbadebac537f38e6425898f826a2a5aa857bc67fe065ea86",
        "b7278c8267598f5f84c90b6bf1031c34906c548d86f2ffe8355d196a28726cf2",
    ),
    MODE_DIRECT_BESTOF3_GATED: (
        _GUARDED_DIGESTS[0],
        "e6260018ca3712dcf91698afec3a1ad11253e28d31a24e49ce3ac36754622156",
    )
    + _GUARDED_DIGESTS[2:],
}


@pytest.mark.parametrize("mode", sorted(SYNTHETIC_DIGESTS))
def test_synthetic_replay_digests(synthetic, tmp_path, mode):
    import hashlib

    directory, dataset_path, cache_path = synthetic
    result = run_pipeline(_replay_manifest(tmp_path, dataset_path, cache_path, mode=mode))
    digests = tuple(hashlib.sha256(result.paths[key].read_bytes()).hexdigest() for key in ARTIFACT_KEYS)
    assert digests == SYNTHETIC_DIGESTS[mode]


@pytest.mark.parametrize("mode", [MODE_SOLVE_TRIGGERED, MODE_DIRECT_BESTOF3_GATED])
def test_a_baseline_re_solves_exactly_the_guarded_trigger_set(synthetic, tmp_path, mode):
    """Targeting follows the trigger: the examples a baseline regenerates are
    the ones guarded repair's predictions read as triggered."""
    directory, dataset_path, cache_path = synthetic
    guarded = run_pipeline(_replay_manifest(tmp_path / "guarded", dataset_path, cache_path))
    baseline = run_pipeline(_replay_manifest(tmp_path / mode, dataset_path, cache_path, mode=mode))
    triggered = {
        row["example_id"] for row in map(json.loads, open(guarded.paths["predictions"])) if row["triggered"]
    }
    regenerated = {row["example_id"] for row in map(json.loads, open(baseline.paths["candidates"]))}
    assert regenerated == triggered
    assert triggered == {*GROUP_SAFE_FIX, *GROUP_UNSAFE, *GROUP_NOOP, *GROUP_RETRY, *GROUP_EMPTY}


def _cache_of(mode, cache_path, tmp_path) -> Path:
    """The synthetic cache for ``mode``: solve_all also regenerates the clean
    examples, so it gets an attempt for each, with a wrong answer."""
    if mode != MODE_SOLVE_ALL:
        return Path(cache_path)
    extended = tmp_path / "cache.jsonl"
    rows = "".join(json.dumps(row) + "\n" for row in solve_all_attempts())
    extended.write_text(Path(cache_path).read_text() + rows)
    return extended


@pytest.mark.parametrize("mode", RUN_MODES)
def test_report_and_risk_summary_are_recounts_of_the_rows(synthetic, tmp_path, mode):
    """report.json's counts match a recount of predictions.jsonl against the
    dataset's gold answers, and risk_summary.json is the column sums of
    risk_log.jsonl's candidate patterns."""
    directory, dataset_path, cache_path = synthetic
    cache = _cache_of(mode, cache_path, tmp_path)
    run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache, mode=mode))
    gold = {record.example_id: record.gold_answer for record in build_synthetic_run()[0]}
    report = assert_recounts(run.paths, gold)
    if mode == MODE_SOLVE_ALL:
        # It accepts a wrong answer for every initially correct example.
        assert report["broken"] == len(GROUP_CLEAN) + len(GROUP_UNSAFE)


# Heap kept per example, in bytes. A run keeps its dataset and its replay
# cache, about 0.9 KB per synthetic example; a run that also kept every
# finished example until the end would need about 3.8 KB.
BYTES_PER_EXAMPLE = 1500
# ``report`` reads predictions.jsonl and candidates.jsonl side by side and
# keeps no row past its example, so its heap peak grows by under 1 byte per
# added synthetic example; one that kept every candidate until its
# prediction was read would grow by about 1 KB (one candidate each).
REPORT_BYTES_PER_EXAMPLE = 100


def _copied_run(directory: Path, copies: int) -> RunManifest:
    """A replay over ``copies`` copies of the synthetic set, each example id
    prefixed with its copy, written into ``directory``."""
    from dataclasses import replace

    records, cache = build_synthetic_run()
    directory.mkdir()
    write_dataset(
        (
            replace(record, example_id=f"c{copy}-{record.example_id}")
            for copy in range(copies)
            for record in records
        ),
        directory / "dataset.jsonl",
    )
    (directory / "cache.jsonl").write_text(
        "".join(
            json.dumps({**row, "example_id": f"c{copy}-{row['example_id']}"}) + "\n"
            for copy in range(copies)
            for row in cache
        )
    )
    return _replay_manifest(directory / "run", directory / "dataset.jsonl", directory / "cache.jsonl")


def _heap_peak(call) -> int:
    """The tracemalloc peak of ``call()``, with the number memo emptied first."""
    import tracemalloc

    from trace_repair.equations import parse_number

    parse_number.cache_clear()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_grows_only_with_its_inputs(tmp_path):
    """The heap peak of a replay over 4N examples exceeds that over N by less
    than ``BYTES_PER_EXAMPLE`` for each added example."""

    def peak(copies: int) -> int:
        manifest = _copied_run(tmp_path / f"x{copies}", copies)
        return _heap_peak(lambda: run_pipeline(manifest))

    peak(1)  # loads every module the run imports
    small, large = peak(2), peak(8)
    added = 6 * len(build_synthetic_run()[0])
    assert large - small < BYTES_PER_EXAMPLE * added, (small, large)


def test_report_memory_holds_no_prediction(tmp_path):
    """The heap peak of ``report`` over a run of 4N examples exceeds that over
    N by less than ``REPORT_BYTES_PER_EXAMPLE`` for each added example."""

    def peak(copies: int) -> int:
        manifest = _copied_run(tmp_path / f"x{copies}", copies)
        run_pipeline(manifest)
        predictions = manifest.output_dir / pipeline.PREDICTIONS_FILE
        return _heap_peak(lambda: recompute_report(predictions, tmp_path / f"report{copies}"))

    peak(1)  # loads every module the report imports
    small, large = peak(2), peak(8)
    added = 6 * len(build_synthetic_run()[0])
    assert large - small < REPORT_BYTES_PER_EXAMPLE * added, (small, large)


def test_checkpoint_read_holds_no_copy_of_the_file(synthetic, tmp_path):
    """A resume's checkpoint read, its torn-line cut and then the replay
    reader, peaks within 10% of the reader alone on the same file of at
    least 5 MB: the cut holds none of the file, and no row is read twice."""
    directory, dataset_path, cache_path = synthetic
    run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
    progress = (tmp_path / "run" / PROGRESS_FILE).read_text(encoding="utf-8")
    rows = [json.loads(line) for line in progress.splitlines()]
    path = tmp_path / PROGRESS_FILE
    with open(path, "w", encoding="utf-8") as handle:
        copy = 0
        while handle.tell() < 5 * 2**20:
            handle.writelines(
                json.dumps({**row, "example_id": f"c{copy}-{row['example_id']}"}) + "\n"
                for row in rows
            )
            copy += 1
        handle.write(json.dumps(rows[0])[:40])
    size = path.stat().st_size
    checkpoint = _heap_peak(lambda: pipeline._read_checkpoint(path, ReplayProvider({})))
    assert path.stat().st_size < size  # the torn line is cut
    reader = _heap_peak(lambda: ReplayProvider.from_jsonl(path, fallback=ReplayProvider({})))
    assert checkpoint <= 1.1 * reader, (checkpoint, reader)


_ARTIFACT_FILES = (
    pipeline.PREDICTIONS_FILE,
    pipeline.CANDIDATES_FILE,
    pipeline.RISK_LOG_FILE,
    pipeline.RISK_SUMMARY_FILE,
    pipeline.REPORT_JSON_FILE,
    pipeline.REPORT_TEXT_FILE,
)


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_cli_replay_digests_under_optimize_and_hash_seed(synthetic, tmp_path, hash_seed):
    """The guarded replay is byte-identical with asserts stripped and any hash seed."""
    import hashlib
    import os
    import subprocess
    import sys
    from pathlib import Path

    directory, dataset_path, cache_path = synthetic
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    subprocess.run(
        [sys.executable, "-O", "-m", "trace_repair.cli", "run", "--dataset", str(dataset_path),
         "--cache", str(cache_path), "--output-dir", str(tmp_path)],
        env=env,
        check=True,
        capture_output=True,
    )
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _ARTIFACT_FILES)
    assert digests == SYNTHETIC_DIGESTS[MODE_GUARDED]


def test_cli_resume_digests_under_optimize(synthetic, tmp_path):
    """A resume from a checkpoint cut between two attempts of one example is
    byte-identical with asserts stripped, and completes the checkpoint."""
    import os
    import subprocess
    import sys

    directory, dataset_path, cache_path = synthetic
    run_pipeline(_replay_manifest(tmp_path / "fresh", dataset_path, cache_path))
    progress = (tmp_path / "fresh" / PROGRESS_FILE).read_bytes()
    lines = progress.splitlines(keepends=True)
    ids = [json.loads(line)["example_id"] for line in lines]
    cut = next(i for i in range(1, len(ids)) if ids[i - 1] == ids[i])
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / PROGRESS_FILE).write_bytes(b"".join(lines[:cut]))
    src = str(Path(pipeline.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-O", "-m", "trace_repair.cli", "run", "--dataset", str(dataset_path),
         "--cache", str(cache_path), "--output-dir", str(run_dir), "--resume"],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        capture_output=True,
    )
    assert _file_digests(run_dir) == SYNTHETIC_DIGESTS[MODE_GUARDED]
    assert (run_dir / PROGRESS_FILE).read_bytes() == progress


class TestGuardsEndToEnd:
    def test_equation_support_guard_prevents_broken_correct(self, tmp_path):
        # A correct-but-triggered trace gets a clean-looking candidate whose
        # final answer is not derived by any verified equation. The main
        # configuration preserves the correct answer; the ablation without
        # equation support accepts the candidate and breaks it.
        record = DatasetRecord(
            example_id="x1",
            problem_text=(
                "Noah packs 3 boxes with 4 pens each, plus 5 erasers and 11 "
                "rulers. How many pens does Noah pack in all?"
            ),
            gold_answer="12",
            cached_initial_trace="3 * 4 = 12\nFinal Answer: 12",
        )
        dataset_path = tmp_path / "one.jsonl"
        write_dataset([record], dataset_path)
        unsupported = json.dumps(
            {"steps": ["3 * 4 = 12", "5 + 11 = 16"], "final_answer": "20"}
        )
        cache_path = tmp_path / "cache.jsonl"
        cache_path.write_text(
            "\n".join(
                json.dumps(
                    {"example_id": "x1", "attempt_index": attempt, "raw_output": unsupported}
                )
                for attempt in range(3)
            )
            + "\n"
        )

        main_run = run_pipeline(
            _replay_manifest(tmp_path / "main", dataset_path, cache_path)
        )
        assert main_run.report.broken == 0
        assert main_run.report.accepted == 0
        candidates = [json.loads(line) for line in open(main_run.paths["candidates"])]
        assert all(
            "unsupported_answer" in row["verdict"]["rejection_reasons"]
            for row in candidates
        )

        from trace_repair.policy import PolicyConfig

        ablated = run_pipeline(
            _replay_manifest(
                tmp_path / "ablated",
                dataset_path,
                cache_path,
                config=PolicyConfig(disable_equation_support=True),
            )
        )
        assert ablated.report.accepted == 1
        assert ablated.report.broken == 1
        assert ablated.report.harm_rate == 100.0


class TestHostileNumbers:
    def test_replay_past_a_5000_digit_final_answer(self, tmp_path):
        huge = "1" * 5000
        record = DatasetRecord(
            example_id="h1",
            problem_text="Ann has 3 apples and buys 4 more. How many apples does she have?",
            gold_answer="7",
            cached_initial_trace=f"3 + 4 = 7\nFinal Answer: {huge}",
        )
        dataset_path = tmp_path / "one.jsonl"
        write_dataset([record], dataset_path)
        hostile = json.dumps({"steps": ["3 + 4 = 7"], "final_answer": huge})
        fix = json.dumps({"steps": ["3 + 4 = 7"], "final_answer": "7"})
        cache_path = tmp_path / "cache.jsonl"
        cache_path.write_text(
            json.dumps({"example_id": "h1", "attempt_index": 0, "raw_output": hostile, "retry_output": fix})
            + "\n"
        )

        result = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        assert all(path.exists() for path in result.paths.values())
        (prediction,) = map(json.loads, open(result.paths["predictions"]))
        assert prediction["triggered"] and prediction["accepted"]
        assert prediction["final_answer"] == "7"
        (candidate,) = map(json.loads, open(result.paths["candidates"]))
        assert candidate["retried"]


def _replay_one(tmp_path, problem_text, cached_trace):
    """Replay one example whose every attempt replies "3 + 4 = 7"."""
    record = DatasetRecord(
        example_id="h1", problem_text=problem_text, gold_answer="7", cached_initial_trace=cached_trace
    )
    dataset_path = tmp_path / "one.jsonl"
    write_dataset([record], dataset_path)
    reply = json.dumps({"steps": ["3 + 4 = 7"], "final_answer": "7"})
    cache_path = tmp_path / "cache.jsonl"
    cache_path.write_text(
        "".join(
            json.dumps({"example_id": "h1", "attempt_index": attempt, "raw_output": reply}) + "\n"
            for attempt in range(3)
        )
    )
    return run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))


# Integer and fraction parts each fit Python's digit limit; the value does not.
UNPRINTABLE = "1" * 4000 + "." + "1" * 4000


class TestUnprintableNumbers:
    def test_replay_past_a_problem_holding_one(self, tmp_path):
        problem = f"Ann has 3 apples and buys {UNPRINTABLE} more. How many apples does she have?"
        result = _replay_one(tmp_path, problem, "3 + 5 = 9\nFinal Answer: 9")
        assert all(path.exists() for path in result.paths.values())
        (prediction,) = map(json.loads, open(result.paths["predictions"]))
        assert prediction["triggered"]

    def test_replay_past_a_wrong_claim_of_one(self, tmp_path):
        trace = f"{'1' * 3000} * {'1' * 3000} = {UNPRINTABLE}\nFinal Answer: 7"
        problem = "Ann has 3 apples and buys 4 more. How many apples does she have?"
        result = _replay_one(tmp_path, problem, trace)
        assert all(path.exists() for path in result.paths.values())
        (prediction,) = map(json.loads, open(result.paths["predictions"]))
        assert prediction["triggered"]


class TestReportMode:
    @pytest.mark.parametrize("mode", RUN_MODES)
    def test_recomputes_identically_without_provider(self, synthetic, tmp_path, mode):
        directory, dataset_path, cache_path = synthetic
        if mode == MODE_SOLVE_ALL:
            # solve_all regenerates the clean examples too, and accepts a wrong answer.
            wrong = json.dumps({"steps": ["2 + 2 = 4"], "final_answer": "4"})
            rows = [
                {"example_id": example_id, "attempt_index": 0, "raw_output": wrong}
                for example_id in GROUP_CLEAN
            ]
            extended = tmp_path / "cache.jsonl"
            extended.write_text(
                Path(cache_path).read_text() + "".join(json.dumps(row) + "\n" for row in rows)
            )
            cache_path = extended
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path, mode=mode))
        recomputed = recompute_report(run.paths["predictions"], tmp_path / "report")
        for key in ("report_json", "report_text"):
            assert recomputed.paths[key].read_bytes() == run.paths[key].read_bytes()

    def test_without_candidates_the_report_is_refused(self, synthetic, tmp_path, capsys):
        """A report is counted from both row files: without candidates.jsonl
        it names the missing path and writes nothing, and the CLI exits 2."""
        directory, dataset_path, cache_path = synthetic
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        run.paths["candidates"].unlink()
        output_dir = tmp_path / "report"
        with pytest.raises(FileNotFoundError, match=re.escape(str(run.paths["candidates"]))):
            recompute_report(run.paths["predictions"], output_dir)
        assert not output_dir.exists()
        with pytest.raises(SystemExit) as raised:
            main(["report", "--predictions", str(run.paths["predictions"]), "--output-dir", str(output_dir)])
        assert raised.value.code == 2
        assert str(run.paths["candidates"]) in capsys.readouterr().err
        assert not output_dir.exists()

    @pytest.mark.parametrize(
        "example_id, accepted",
        [(GROUP_UNSAFE[0], True), (GROUP_SAFE_FIX[0], False)],
        ids=["accepting-verdict-off-the-accepted-attempt", "rejecting-verdict-on-the-accepted-attempt"],
    )
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
    def test_a_verdict_that_disagrees_with_the_prediction_is_refused(
        self, synthetic, tmp_path, example_id, accepted, flags
    ):
        """Acceptance has one source, the prediction's accepted attempt; a
        candidates.jsonl verdict that says otherwise stops the report, also
        with asserts stripped."""
        import os
        import subprocess
        import sys

        directory, dataset_path, cache_path = synthetic
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        path = run.paths["candidates"]
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        row = next(row for row in rows if row["example_id"] == example_id)
        assert row["verdict"]["accepted"] is not accepted
        row["verdict"]["accepted"] = accepted
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        output_dir = tmp_path / "report"
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from trace_repair.pipeline import recompute_report\n"
            "from trace_repair.reporting import ReportIdentityError\n"
            "try:\n"
            "    recompute_report(Path(sys.argv[1]), Path(sys.argv[2]))\n"
            "except ReportIdentityError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(pipeline.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, *flags, "-c", script, str(run.paths["predictions"]), str(output_dir)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        error = f"report identity failed: example {example_id!r} attempt 0 has verdict accepted={accepted}"
        assert error in result.stdout
        assert not output_dir.exists()

    def test_each_distinct_answer_is_normalized_once_per_step(self, synthetic, tmp_path, monkeypatch):
        """One memo per report: a run and a recomputed report each normalize
        each distinct initial, final, gold and parsed candidate answer once."""
        from trace_repair import reporting

        directory, dataset_path, cache_path = synthetic
        normalized = []

        def counting(text):
            normalized.append(text)
            return normalize_answer(text)

        normalize_answer = reporting.normalize_answer
        monkeypatch.setattr(reporting, "normalize_answer", counting)
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        in_run, normalized[:] = normalized[:], []
        predictions = [
            pipeline.Prediction.from_json_dict(*line)
            for line in pipeline.read_jsonl(run.paths["predictions"])
        ]
        records = [
            pipeline.CandidateRecord.from_json_dict(*line)
            for line in pipeline.read_jsonl(run.paths["candidates"])
        ]
        parsed = {record.parsed.final_answer for record in records if record.parsed is not None}
        assert parsed
        answers = {row.gold_answer for row in predictions} | parsed
        answers |= {row.initial_answer for row in predictions}
        answers |= {row.final_answer for row in predictions}
        assert len(answers) < 3 * len(predictions)
        assert sorted(in_run) == sorted(answers)
        recompute_report(run.paths["predictions"], tmp_path / "recomputed")
        assert sorted(normalized) == sorted(answers)
        report = (tmp_path / "recomputed" / pipeline.REPORT_JSON_FILE).read_bytes()
        assert report == run.paths["report_json"].read_bytes()

    @pytest.mark.parametrize(
        "edit, fault",
        [
            ("rename", f"example {GROUP_SAFE_FIX[0]!r} has no prediction"),
            ("drop", f"example {GROUP_SAFE_FIX[0]!r} has no candidate at its accepted attempt"),
        ],
        ids=["renamed-prediction", "dropped-candidate"],
    )
    def test_candidates_of_another_run_name_both_files(self, synthetic, tmp_path, edit, fault):
        directory, dataset_path, cache_path = synthetic
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        key = "predictions" if edit == "rename" else "candidates"
        path = run.paths[key]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        number = next(i for i, line in enumerate(lines) if f'"{GROUP_SAFE_FIX[0]}"' in line)
        if edit == "rename":
            row = json.loads(lines[number])
            row["example_id"] = "renamed"
            lines[number] = json.dumps(row) + "\n"
        else:
            del lines[number]
        path.write_text("".join(lines), encoding="utf-8")
        error = f"{run.paths['candidates']} is not the run of {run.paths['predictions']}: {fault}"
        with pytest.raises(pipeline.DatasetError, match=re.escape(error)):
            recompute_report(run.paths["predictions"], tmp_path / "report")

    @pytest.mark.parametrize("key", ["predictions", "candidates"])
    @pytest.mark.parametrize(
        "bad, error",
        [
            (None, "not JSON"),
            ("[1, 2]", "row is a JSON list, not an object"),
            ("{}", "missing field 'example_id'"),
        ],
    )
    def test_a_bad_line_names_its_file_and_line(self, synthetic, tmp_path, key, bad, error):
        directory, dataset_path, cache_path = synthetic
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        path = run.paths[key]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = (lines[2][:40] if bad is None else bad) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=rf"{path.name}:3: {error}"):
            recompute_report(run.paths["predictions"], tmp_path / "report")

    @pytest.mark.parametrize("key", ["predictions", "candidates"])
    def test_a_duplicated_row_names_its_line(self, synthetic, tmp_path, key):
        """A second prediction of an example, or a second candidate of an
        attempt, would be counted twice in the report."""
        directory, dataset_path, cache_path = synthetic
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        path = run.paths[key]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:3] + lines[2:]), encoding="utf-8")
        row = json.loads(lines[2])
        name = f"example {row['example_id']!r}"
        if key == "candidates":
            name += f" attempt {row['attempt_index']}"
        error = f"{path.name}:4: duplicate row for {name}"
        with pytest.raises(DatasetError, match=re.escape(error)):
            recompute_report(run.paths["predictions"], tmp_path / "report")

    @pytest.mark.parametrize("key", ["predictions", "candidates"])
    def test_a_row_out_of_id_order_names_its_line(self, synthetic, tmp_path, key):
        """Both files are read side by side in example-id order. A clean
        example's prediction (it has no candidate) swapped with the next one,
        or a no-op example's candidate (never accepted) moved to the end, is
        refused at the line where it is read."""
        directory, dataset_path, cache_path = synthetic
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        path = run.paths[key]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        ids = [json.loads(line)["example_id"] for line in lines]
        if key == "predictions":
            assert ids[:2] == GROUP_CLEAN[:2]
            lines[:2] = lines[1::-1]
            moved, after, number = ids[0], ids[1], 2
        else:
            index = ids.index(GROUP_NOOP[0])
            lines.append(lines.pop(index))
            moved, after, number = ids[index], ids[-1], len(lines)
        path.write_text("".join(lines), encoding="utf-8")
        error = f"{path.name}:{number}: example {moved!r} is out of example-id order, after {after!r}"
        with pytest.raises(DatasetError, match=re.escape(error)):
            recompute_report(run.paths["predictions"], tmp_path / "report")

    def test_a_report_that_cannot_write_one_file_changes_neither(self, synthetic, tmp_path):
        """report.json and report.txt are committed as one set: with a
        directory where report.txt's temp file goes, both keep their bytes.
        A crash between the two renames can still mix the pair; a run.json
        written last, holding each file's digest (ROADMAP item 8), is what
        would close that gap."""
        directory, dataset_path, cache_path = synthetic
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        output_dir = tmp_path / "report"
        output_dir.mkdir()
        (output_dir / pipeline.REPORT_JSON_FILE).write_text("old json\n")
        (output_dir / pipeline.REPORT_TEXT_FILE).write_text("old text\n")
        (output_dir / (pipeline.REPORT_TEXT_FILE + ".tmp")).mkdir()
        with pytest.raises(IsADirectoryError):
            recompute_report(run.paths["predictions"], output_dir)
        assert (output_dir / pipeline.REPORT_JSON_FILE).read_text() == "old json\n"
        assert (output_dir / pipeline.REPORT_TEXT_FILE).read_text() == "old text\n"
        assert sorted(path.name for path in output_dir.iterdir()) == [
            pipeline.REPORT_JSON_FILE, pipeline.REPORT_TEXT_FILE, pipeline.REPORT_TEXT_FILE + ".tmp"
        ]

    @pytest.mark.parametrize("key, name, value, error", _REPORT_ROW_FAULTS)
    def test_a_row_without_a_field_names_its_file_and_line(
        self, synthetic, tmp_path, key, name, value, error
    ):
        directory, dataset_path, cache_path = synthetic
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        path = run.paths[key]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[2])
        _edit_field(row, name, value)
        lines[2] = json.dumps(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path.name}:3: {error}")):
            recompute_report(run.paths["predictions"], tmp_path / "report")


_BAD_HARM_BUDGETS = [float("inf"), float("-inf"), float("nan"), -0.1, 1.5]


class TestHarmBudget:
    """A harm budget that is not a share is refused before anything runs."""

    @pytest.mark.parametrize("budget", _BAD_HARM_BUDGETS)
    def test_a_run_refuses_it_before_any_example(self, synthetic, tmp_path, budget):
        directory, dataset_path, cache_path = synthetic
        manifest = _replay_manifest(tmp_path / "run", dataset_path, cache_path, harm_budget=budget)
        with pytest.raises(ValueError, match="harm budget"):
            run_pipeline(manifest)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("budget", _BAD_HARM_BUDGETS)
    def test_report_mode_refuses_it(self, synthetic, tmp_path, budget):
        directory, dataset_path, cache_path = synthetic
        run = run_pipeline(_replay_manifest(tmp_path / "run", dataset_path, cache_path))
        with pytest.raises(ValueError, match="harm budget"):
            recompute_report(run.paths["predictions"], tmp_path / "report", budget)
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("budget", [0.0, 0.05, 1.0])
    def test_a_share_is_accepted(self, synthetic, tmp_path, budget):
        directory, dataset_path, cache_path = synthetic
        manifest = _replay_manifest(tmp_path / "run", dataset_path, cache_path, harm_budget=budget)
        report = run_pipeline(manifest).report
        assert report.harm_budget == budget
        assert json.loads((tmp_path / "run" / "report.json").read_text())["harm_budget"] == budget


class TestCacheNeedsReplay:
    """Only the replay provider reads a candidate cache, so the remote provider refuses one."""

    def test_the_manifest_refuses_it(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        manifest = _replay_manifest(
            tmp_path / "run", dataset_path, cache_path, mode=MODE_GUARDED, provider="remote"
        )
        with pytest.raises(ValueError, match="candidate cache applies only to the replay provider"):
            manifest.validate()

    def test_the_cli_refuses_it(self, synthetic, tmp_path, monkeypatch, capsys):
        from trace_repair import cli

        directory, dataset_path, cache_path = synthetic
        monkeypatch.setattr(cli, "run_pipeline", lambda manifest: pytest.fail("run started"))
        argv = ["run", "--provider", "remote", "--cache", str(cache_path)]
        with pytest.raises(SystemExit) as raised:
            main([*argv, "--dataset", str(dataset_path), "--output-dir", str(tmp_path / "run")])
        assert raised.value.code == 2
        assert "--cache applies only to --provider replay" in capsys.readouterr().err


class TestProviderBeforeData:
    """A run checks its provider and builds it before it reads the dataset."""

    @pytest.fixture
    def malformed(self, tmp_path):
        dataset_path = tmp_path / "dataset.jsonl"
        dataset_path.write_text("{not json\n", encoding="utf-8")
        return dataset_path

    def test_an_unknown_provider_is_refused_before_a_malformed_dataset(self, malformed, tmp_path):
        manifest = RunManifest(
            mode=MODE_GUARDED, dataset_path=malformed, output_dir=tmp_path / "run", provider="remot"
        )
        with pytest.raises(ValueError, match="unknown provider 'remot'"):
            run_pipeline(manifest)
        assert not (tmp_path / "run").exists()

    def test_an_unknown_provider_is_refused_before_its_cache(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        manifest = _replay_manifest(tmp_path / "run", dataset_path, cache_path, provider="remot")
        with pytest.raises(ValueError, match="unknown provider 'remot'"):
            manifest.validate()

    def test_a_remote_provider_without_its_endpoint_is_refused_before_the_dataset(
        self, malformed, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("LLM_REPAIR_BASE_URL", raising=False)
        monkeypatch.setattr(pipeline, "load_dataset", lambda path: pytest.fail("dataset read"))
        manifest = RunManifest(
            mode=MODE_GUARDED, dataset_path=malformed, output_dir=tmp_path / "run", provider="remote"
        )
        with pytest.raises(ValueError, match="remote provider needs LLM_REPAIR_BASE_URL"):
            run_pipeline(manifest)
        assert not (tmp_path / "run").exists()


class TestFilterMode:
    def test_filter_and_sample(self, tmp_path):
        records = [
            DatasetRecord(f"n{i}", f"How many things? {i} and {i + 1}.", str(i), None)
            for i in range(30)
        ]
        records.append(DatasetRecord("y", "Does it fit? 2 boxes.", "yes", None))
        records.append(DatasetRecord("r", "How many? 1 or 2.", "2:3", None))
        dataset_path = tmp_path / "pool.jsonl"
        write_dataset(records, dataset_path)

        paths, _ = filter_dataset(dataset_path, tmp_path / "filtered", sample_size=10, seed=42)
        counts = json.load(open(paths["filter_counts"]))
        assert counts["pool"] == 32
        assert counts["kept"] == 30
        assert counts["kept"] + sum(counts["rejected"].values()) == counts["pool"]
        sample_ids = open(paths["sample_ids"]).read().split()
        assert len(sample_ids) == 10
        assert len(set(sample_ids)) == 10

    def test_a_refused_sample_leaves_the_output_directory_as_it_was(self, tmp_path):
        records = [
            DatasetRecord(f"n{i}", f"How many things? {i} and {i + 1}.", str(i), None)
            for i in range(30)
        ]
        dataset_path = tmp_path / "pool.jsonl"
        write_dataset(records, dataset_path)
        output_dir = tmp_path / "filtered"
        filter_dataset(dataset_path, output_dir, sample_size=10, seed=42)
        write_dataset(records[:5], dataset_path)

        before = {path.name: path.read_bytes() for path in output_dir.iterdir()}
        with pytest.raises(ValueError, match="sample size 10 out of range for pool of 5"):
            filter_dataset(dataset_path, output_dir, sample_size=10, seed=42)
        assert {path.name: path.read_bytes() for path in output_dir.iterdir()} == before
        with pytest.raises(ValueError, match="out of range"):
            filter_dataset(dataset_path, tmp_path / "new", sample_size=999999, seed=42)
        assert not (tmp_path / "new").exists()

    def test_sampling_requires_seed(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            filter_dataset(tmp_path / "x.jsonl", tmp_path, sample_size=5)


class TestCli:
    def test_replay_verb(self, synthetic, tmp_path, capsys):
        directory, dataset_path, cache_path = synthetic
        code = main(
            [
                "replay",
                "--dataset",
                str(dataset_path),
                "--cache",
                str(cache_path),
                "--output-dir",
                str(tmp_path / "cli_run"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert "90.00" in out

    def test_filter_verb(self, tmp_path, capsys):
        records = [DatasetRecord("a", "How many? 1 and 2.", "3", None)]
        dataset_path = tmp_path / "tiny.jsonl"
        write_dataset(records, dataset_path)
        code = main(
            ["filter", "--dataset", str(dataset_path), "--output-dir", str(tmp_path / "f")]
        )
        assert code == 0

    def test_report_verb(self, synthetic, tmp_path, capsys):
        directory, dataset_path, cache_path = synthetic
        run = run_pipeline(_replay_manifest(tmp_path / "base", dataset_path, cache_path))
        code = main(
            [
                "report",
                "--predictions",
                str(run.paths["predictions"]),
                "--output-dir",
                str(tmp_path / "rep"),
            ]
        )
        assert code == 0
        assert "90.00" in capsys.readouterr().out

    def test_ablation_flags_change_config(self, synthetic, tmp_path):
        directory, dataset_path, cache_path = synthetic
        code = main(
            [
                "replay",
                "--dataset",
                str(dataset_path),
                "--cache",
                str(cache_path),
                "--output-dir",
                str(tmp_path / "ablate"),
                "--no-graph-guard",
                "--n-candidates",
                "3",
            ]
        )
        assert code == 0

    def test_config_file_and_env_precedence(self, synthetic, tmp_path, monkeypatch):
        directory, dataset_path, cache_path = synthetic
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"n_candidates": 1, "min_repair_chars": 10}))
        # Environment overrides the file; flags would override both.
        monkeypatch.setenv("LLM_REPAIR_NUM_CANDIDATES", "3")
        code = main(
            [
                "replay",
                "--dataset",
                str(dataset_path),
                "--cache",
                str(cache_path),
                "--output-dir",
                str(tmp_path / "cfgrun"),
                "--config",
                str(config_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "cfgrun" / "report.json").read_text())
        # n_candidates=3 from the environment: the no-op group still burns
        # three attempts per example, as in the default run.
        assert report["attempts"] == 50
