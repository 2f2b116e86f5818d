"""The CLI's config flags, config file and environment all reach PolicyConfig."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trace_repair
from trace_repair.cli import _build_config, build_parser, main
from trace_repair.datasets import DatasetRecord, write_dataset
from trace_repair.policy import ENV_KEYS, PolicyConfig

RUN = ["run", "--dataset", "data.jsonl", "--output-dir", "out"]


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for key in ENV_KEYS:
        monkeypatch.delenv(key, raising=False)


def _config(*flags):
    return _build_config(build_parser().parse_args([*RUN, *flags]))


@pytest.mark.parametrize(
    "flags, field, value",
    [
        (["--n-candidates", "5"], "n_candidates", 5),
        (["--graph-min-score", "0.7"], "graph_min_score", 0.7),
        (["--graph-drop-tolerance", "0.2"], "graph_drop_tolerance", 0.2),
        (["--meta-trigger-threshold", "0.5"], "meta_trigger_threshold", 0.5),
        (
            ["--missing-constraint-trigger-threshold", "0.8"],
            "missing_constraint_trigger_threshold",
            0.8,
        ),
        (["--min-repair-chars", "40"], "min_repair_chars", 40),
        (["--no-graph-guard"], "enable_graph_guard", False),
        (["--no-equation-support"], "disable_equation_support", True),
        (["--relax-missing-constraint"], "relax_missing_constraint", True),
        (["--weak-reasoner-mode"], "weak_reasoner_mode", True),
    ],
)
def test_each_config_flag_sets_its_field(flags, field, value):
    assert _config(*flags) == PolicyConfig().with_overrides(**{field: value})


def test_flags_over_environment_over_file_over_defaults(tmp_path, monkeypatch):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(
        json.dumps({"n_candidates": 1, "min_repair_chars": 10, "graph_min_score": 0.5})
    )
    monkeypatch.setenv("LLM_REPAIR_NUM_CANDIDATES", "4")
    monkeypatch.setenv("MIN_REPAIR_LENGTH", "30")
    config = _config("--config", str(config_path), "--min-repair-chars", "50")
    assert config == PolicyConfig(n_candidates=4, min_repair_chars=50, graph_min_score=0.5)


def _manifest_of(monkeypatch, *flags):
    """The RunManifest that ``main`` hands to run_pipeline for these flags."""
    from trace_repair import cli

    seen = []

    def capture(manifest):
        seen.append(manifest)
        raise SystemExit(0)

    monkeypatch.setattr(cli, "run_pipeline", capture)
    with pytest.raises(SystemExit):
        cli.main([*RUN, *flags])
    return seen[0]


def test_concurrency_reaches_the_manifest(monkeypatch):
    assert _manifest_of(monkeypatch, "--provider", "remote", "--concurrency", "3").concurrency == 3
    assert _manifest_of(monkeypatch, "--provider", "remote").concurrency is None
    # int() reads a sign and surrounding spaces.
    assert _manifest_of(monkeypatch, "--provider", "remote", "--concurrency", "+2").concurrency == 2
    assert _manifest_of(monkeypatch, "--provider", "remote", "--concurrency", " 2").concurrency == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--provider", "remote", "--concurrency", "0"], "concurrency must be at least 1, not 0"),
        (["--provider", "remote", "--concurrency", "-2"], "concurrency must be at least 1, not -2"),
        (
            ["--provider", "remote", "--concurrency", "abc"],
            "argument --concurrency: invalid int value: 'abc'",
        ),
        (
            ["--provider", "remote", "--concurrency", "1.5"],
            "argument --concurrency: invalid int value: '1.5'",
        ),
        (
            ["--cache", "c.jsonl", "--concurrency", "2"],
            "concurrency applies only to the remote provider",
        ),
        (
            ["--provider", "replay", "--cache", "c.jsonl", "--concurrency", "1"],
            "concurrency applies only to the remote provider",
        ),
    ],
)
def test_bad_concurrency_is_a_parser_error(tmp_path, monkeypatch, capsys, flags, message):
    # The floor is RemoteProvider's, checked before its endpoint settings;
    # which provider takes the flag is RunManifest.validate's.
    monkeypatch.delenv("LLM_REPAIR_BASE_URL", raising=False)
    output_dir = tmp_path / "out"
    argv = ["run", "--dataset", str(tmp_path / "data.jsonl"), "--output-dir", str(output_dir)]
    with pytest.raises(SystemExit) as raised:
        main([*argv, *flags])
    assert raised.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f" error: {message}")
    assert not output_dir.exists()


@pytest.mark.parametrize(
    "flags", [["--graph-min-score", "nan"], ["--graph-drop-tolerance", "nan"]]
)
def test_a_nan_threshold_flag_is_refused(flags):
    with pytest.raises(ValueError, match="takes a finite number"):
        _config(*flags)


def test_a_truncated_config_file_value_is_refused(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"n_candidates": 2.7}))
    with pytest.raises(ValueError, match="config field n_candidates takes an integer"):
        _config("--config", str(config_path))


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"n_candidates": 2', "not JSON"),
        ('[{"n_candidates": 2}]', "a JSON list, not an object"),
        ('"n_candidates"', "a JSON str, not an object"),
    ],
)
def test_a_config_file_that_is_not_an_object_is_refused(tmp_path, text, error):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(config_path))}: {error}"):
        _config("--config", str(config_path))


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize(
    "source, field",
    [
        ("config", "n_candidates"),
        ("config", "repair_max_tokens"),
        ("config", "retry_max_tokens"),
        ("LLM_REPAIR_NUM_CANDIDATES", "n_candidates"),
        ("REPAIR_MAX_TOKENS", "repair_max_tokens"),
        ("FORMAT_RETRY_MAX_TOKENS", "retry_max_tokens"),
        ("--n-candidates", "n_candidates"),
    ],
)
def test_a_count_below_one_stops_the_run_before_it_starts(
    tmp_path, monkeypatch, capsys, source, field, value
):
    from trace_repair import cli

    monkeypatch.setattr(cli, "run_pipeline", lambda manifest: pytest.fail("run started"))
    flags = []
    if source == "config":
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({field: int(value)}))
        flags = ["--config", str(config_path)]
    elif source.startswith("--"):
        flags = [source, value]
    else:
        monkeypatch.setenv(source, value)
    with pytest.raises(SystemExit) as raised:
        cli.main([*RUN, *flags])
    assert raised.value.code == 2
    assert f"config field {field} must be at least 1, not {value}" in capsys.readouterr().err


def test_a_refused_sample_size_is_one_line_and_status_2(tmp_path):
    records = [
        DatasetRecord(f"n{i}", f"How many things? {i} and {i + 1}.", str(i), None)
        for i in range(1000)
    ]
    write_dataset(records, tmp_path / "pool.jsonl")
    argv = ["sample", "--dataset", str(tmp_path / "pool.jsonl"), "--output-dir", str(tmp_path / "out")]
    src = str(Path(trace_repair.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "trace_repair.cli", *argv, "--size", "999999", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2
    assert "sample size 999999 out of range" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_a_trigger_set_file_is_refused(capsys):
    """Baselines target the examples the trigger fires on; no flag replaces it."""
    argv = ["baseline", "--mode", "solve_triggered", "--triggered-ids", "x", *RUN[1:], "--cache", "c.jsonl"]
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert "unrecognized arguments: --triggered-ids x" in capsys.readouterr().err
