"""The package namespace: one export table, each module loaded on first use.

``trace_repair/__init__.py`` maps each module to the names it exports and
imports a module only when one of its names is first read, so the guard
layer loads without the run layer.
"""

from __future__ import annotations

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trace_repair

ROOT = Path(__file__).resolve().parents[1]
GUARD_LAYER = ("answers", "equations", "risk_graph", "diagnostics", "policy")


def _library_use_snippet() -> str:
    """The first Python block under README's "Library use" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _loaded_after(code: str, stdlib: tuple[str, ...]) -> tuple[str, str]:
    """The package's modules, and which of ``stdlib``, a fresh interpreter
    has loaded after running ``code``; both printed as sorted lists."""
    code += (
        "\nimport sys\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'trace_repair'))\n"
        f"print(sorted(name for name in {stdlib!r} if name in sys.modules))\n"
    )
    # -S keeps site's start-up imports out of ``sys.modules``; the source
    # tree is left without .pyc files.
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={
            "PYTHONPATH": str(Path(trace_repair.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    *_, loaded, stdlib_loaded = done.stdout.strip().splitlines()
    return loaded, stdlib_loaded


def test_the_readme_snippet_loads_only_the_guard_layer():
    loaded, stdlib = _loaded_after(_library_use_snippet(), ("hashlib", "json", "http.client"))
    assert loaded == str(sorted(["trace_repair"] + [f"trace_repair.{name}" for name in GUARD_LAYER]))
    assert stdlib == "[]"


def test_a_first_diagnose_loads_no_dataclasses_inspect_or_logging():
    code = (
        "import trace_repair\n"
        "trace_repair.diagnose('Ann has 3 apples and buys 4 more.', '3 + 4 = 7\\nFinal Answer: 7')\n"
    )
    loaded, stdlib = _loaded_after(code, ("dataclasses", "inspect", "logging"))
    guard = ("answers", "diagnostics", "equations", "risk_graph")
    assert loaded == str(["trace_repair"] + [f"trace_repair.{name}" for name in guard])
    assert stdlib == "[]"


def test_every_name_is_the_object_its_module_defines():
    for module_name, names in trace_repair._EXPORTS.items():
        module = importlib.import_module(f"trace_repair.{module_name}")
        for name in names:
            value = getattr(trace_repair, name)
            assert value is getattr(module, name)
            assert value.__module__ == module.__name__, name


def test_all_is_the_export_table_without_repeats():
    table = [name for names in trace_repair._EXPORTS.values() for name in names]
    assert trace_repair.__all__ == table
    assert len(set(table)) == len(table)


def test_a_name_read_is_not_stored_in_the_package():
    assert trace_repair.diagnose is trace_repair.diagnostics.diagnose
    assert not set(trace_repair.__all__) & set(vars(trace_repair))


def test_dir_lists_every_exported_name():
    assert set(trace_repair.__all__) <= set(dir(trace_repair))
    assert "__version__" in dir(trace_repair)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from trace_repair import *", namespace)
    assert set(trace_repair.__all__) <= set(namespace)
    assert namespace["run_pipeline"] is trace_repair.pipeline.run_pipeline


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        trace_repair.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from trace_repair import no_such_name", {})


def test_submodules_and_version_are_still_reachable():
    from trace_repair import cli

    assert cli is sys.modules["trace_repair.cli"]
    assert trace_repair.__version__ == "0.1.0"
