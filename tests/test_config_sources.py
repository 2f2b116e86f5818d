"""README's configuration table and the CLI's config flags match ``policy.SOURCES``."""

import argparse
import json
from dataclasses import fields
from pathlib import Path

import pytest

from trace_repair.cli import build_parser
from trace_repair.policy import SOURCES, PolicyConfig

README = Path(__file__).resolve().parent.parent / "README.md"
DEFAULTS = PolicyConfig()
# disable_equation_support's flag is inverted, so SOURCES names none for it.
INVERTED = {"disable_equation_support": "--equation-support"}


def _readme_rows() -> list[list[str]]:
    """The body rows of README's "Configuration" table, backticks stripped."""
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in lines[2:]]


def _readme_flag(name: str) -> str:
    flag = INVERTED.get(name) or SOURCES.get(name, (None, None))[1]
    if flag is None:
        return "none"
    return f"--[no-]{flag[2:]}" if isinstance(getattr(DEFAULTS, name), bool) else flag


def test_the_readme_table_lists_every_field_once_in_sources_order():
    names = [row[2] for row in _readme_rows()]
    assert sorted(names) == sorted(field.name for field in fields(PolicyConfig))
    assert names[: len(SOURCES)] == list(SOURCES)


@pytest.mark.parametrize("row", _readme_rows(), ids=lambda row: row[2])
def test_each_readme_row_matches_the_code(row):
    flag, env, name, default = row
    assert flag == _readme_flag(name)
    assert env == SOURCES.get(name, ("none",))[0]
    value = json.loads(default)
    assert (type(value), value) == (type(getattr(DEFAULTS, name)), getattr(DEFAULTS, name))


def _expected_config_options() -> list[tuple]:
    """(option strings, dest, type, action class) of each config option, in order."""
    boolean = argparse.BooleanOptionalAction
    expected = [(("--config",), "config", Path, argparse._StoreAction)]
    for name, (_, flag) in SOURCES.items():
        if name in INVERTED:
            flag = INVERTED[name]
            expected.append(((flag, f"--no-{flag[2:]}"), "equation_support", None, boolean))
        elif flag is not None and isinstance(getattr(DEFAULTS, name), bool):
            expected.append(((flag, f"--no-{flag[2:]}"), name, None, boolean))
        elif flag is not None:
            expected.append(((flag,), name, type(getattr(DEFAULTS, name)), argparse._StoreAction))
    return expected


@pytest.mark.parametrize("command", ["run", "baseline"])
def test_the_config_options_are_config_equation_support_and_the_sources_flags(command):
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    config_dests = {"config", "equation_support"} | {field.name for field in fields(PolicyConfig)}
    options = [
        (tuple(action.option_strings), action.dest, action.type, type(action))
        for action in subparsers.choices[command]._actions
        if action.dest in config_dests
    ]
    assert options == _expected_config_options()
