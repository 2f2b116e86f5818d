import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trace_repair.datasets import (
    REJECT_AMBIGUOUS_FORMAT,
    REJECT_QUESTION_TYPE,
    REJECT_YES_NO,
    DatasetError,
    DatasetRecord,
    filter_numeric,
    load_dataset,
    read_jsonl,
    sample_subset,
    write_dataset,
)


def _record(example_id, problem="How many apples? 3 and 4.", gold="7", trace="x"):
    return DatasetRecord(example_id, problem, gold, trace)


class TestLoadWrite:
    def test_round_trip(self, tmp_path):
        records = [
            _record("a"),
            DatasetRecord("b", "problem", "9", None),
            _record("c", gold="2/3"),
        ]
        path = tmp_path / "data.jsonl"
        write_dataset(records, path)
        assert load_dataset(path) == records

    def test_preserves_order(self, tmp_path):
        records = [_record(f"id{i}") for i in (3, 1, 2)]
        path = tmp_path / "data.jsonl"
        write_dataset(records, path)
        assert [r.example_id for r in load_dataset(path)] == ["id3", "id1", "id2"]

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        records = [_record(f"id{i}") for i in range(4)]
        path = tmp_path / "data.jsonl"
        write_dataset(records, path)
        before = path.read_bytes()
        unserializable = _record("bad", problem=object())
        with pytest.raises(TypeError):
            write_dataset(records[:2] + [unserializable] + records[2:], path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"example_id": "a", "problem_text": "p", "gold_answer": "1"}\nnot json\n')
        with pytest.raises(DatasetError, match=":2:"):
            load_dataset(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_read_jsonl_skips_blank_lines_and_names_each_row(self, tmp_path, newline):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"a": 2, "b": 3}\n', newline=newline)
        assert list(read_jsonl(path, ("a",))) == [
            (f"{path}:1", {"a": 1}),
            (f"{path}:4", {"a": 2, "b": 3}),
        ]
        with pytest.raises(DatasetError, match=re.escape(f"{path}:1: missing field 'b'")):
            list(read_jsonl(path, ("a", "b")))

    def test_duplicate_id_is_fatal(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        row = json.dumps({"example_id": "a", "problem_text": "p", "gold_answer": "1"})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(path)

    def test_missing_field_is_fatal(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps({"example_id": "a", "problem_text": "p"}) + "\n")
        with pytest.raises(DatasetError, match="gold_answer"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("problem_text", None, "a string"),
            ("problem_text", 12, "a string"),
            ("problem_text", ["p"], "a string"),
            ("gold_answer", None, "a string or an int or a float"),
            ("gold_answer", True, "a string or an int or a float"),
            ("gold_answer", [7], "a string or an int or a float"),
            ("example_id", {"k": 1}, "a string or an int or a float"),
            ("example_id", None, "a string or an int or a float"),
            ("example_id", False, "a string or an int or a float"),
            ("cached_initial_trace", ["x"], "a string"),
            ("cached_initial_trace", 5, "a string"),
            ("cached_initial_trace", {"text": "x"}, "a string"),
        ],
    )
    def test_a_mistyped_field_is_fatal_at_its_line(self, tmp_path, field, value, expected):
        """A text field of another JSON type stops the load: read with str(),
        a null gold answer would become the answer "None"."""
        path = tmp_path / "typed.jsonl"
        good = {"example_id": "a", "problem_text": "p", "gold_answer": "1"}
        bad = {**good, "example_id": "b", field: value}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        error = f"{path}:2: '{field}' is a JSON {type(value).__name__}, not {expected}"
        with pytest.raises(DatasetError, match=re.escape(error)):
            load_dataset(path)

    def test_numbers_are_read_as_text_and_a_null_trace_as_none(self, tmp_path):
        path = tmp_path / "numbers.jsonl"
        rows = [
            dict(example_id=7, problem_text="p", gold_answer=12, cached_initial_trace=None),
            dict(example_id=8.5, problem_text="q", gold_answer=1.5, cached_initial_trace=""),
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert load_dataset(path) == [
            DatasetRecord("7", "p", "12", None),
            DatasetRecord("8.5", "q", "1.5", ""),
        ]


class TestFilterNumeric:
    def test_categories(self):
        pool = [
            _record("keep_int", gold="7"),
            _record("keep_frac", gold="7/2"),
            _record("keep_dec", gold="3.5"),
            _record("yes", problem="Does he have enough? He has 5.", gold="yes"),
            _record("ratio", gold="2:3"),
            _record("junk", gold="a banana"),
            _record("which", problem="Which color is the 1 ball?", gold="red"),
        ]
        result = filter_numeric(pool)
        assert [r.example_id for r in result.kept] == ["keep_int", "keep_frac", "keep_dec"]
        assert result.rejected_ids[REJECT_YES_NO] == ["yes"]
        assert result.rejected_ids[REJECT_AMBIGUOUS_FORMAT] == ["ratio", "junk"]
        assert result.rejected_ids[REJECT_QUESTION_TYPE] == ["which"]

    def test_which_with_numeric_ask_survives_question_filter(self):
        pool = [_record("a", problem="Which pile is larger and how many are in it?", gold="9")]
        assert len(filter_numeric(pool).kept) == 1

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["7", "7/2", "3.5", "yes", "no", "2:3", "red", "12:50"]),
                st.sampled_from(
                    [
                        "How many marbles? 3 and 4.",
                        "Which color is the ball?",
                        "Who has more, given 5?",
                        "What is the total of 2 and 9?",
                    ]
                ),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=100)
    def test_partition_identity(self, rows):
        pool = [
            DatasetRecord(f"id{i}", problem, gold, None)
            for i, (gold, problem) in enumerate(rows)
        ]
        result = filter_numeric(pool)
        assert result.total == len(pool)
        assert len(result.kept) + sum(result.counts().values()) == len(pool)


class TestSampleSubset:
    def _pool(self, size=40):
        return [_record(f"id{i:03d}") for i in range(size)]

    def test_reproducible(self):
        pool = self._pool()
        first = sample_subset(pool, 10, seed=42)
        second = sample_subset(pool, 10, seed=42)
        assert first == second

    def test_different_seeds_differ(self):
        pool = self._pool(200)
        a = {r.example_id for r in sample_subset(pool, 50, seed=0)}
        b = {r.example_id for r in sample_subset(pool, 50, seed=1)}
        assert a != b

    def test_full_size_keeps_everything(self):
        pool = self._pool(12)
        assert sample_subset(pool, 12, seed=9) == pool

    def test_subset_membership_and_order(self):
        pool = self._pool(30)
        subset = sample_subset(pool, 7, seed=3)
        assert len(subset) == 7
        ids = [r.example_id for r in subset]
        assert ids == sorted(ids)
        assert set(ids) <= {r.example_id for r in pool}

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            sample_subset(self._pool(5), 6, seed=1)

    def test_pinned_stream_regression(self):
        # Freezes the documented MT19937 Fisher-Yates procedure; a change in
        # the shuffle silently breaks published sampled-id lists.
        pool = self._pool(10)
        ids = [r.example_id for r in sample_subset(pool, 3, seed=42)]
        assert ids == ["id000", "id008", "id009"]
