"""Every name a source module imports is read somewhere in that module,
and every module-level private name is read somewhere in the package.

``from __future__`` imports bind nothing to read.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trace_repair"
MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in loaded]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_reported():
    source = "from __future__ import annotations\nimport os\nimport re\nre.compile('x')\n"
    assert _unused_imports(source) == ["os (line 2)"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_x`` names bound by ``def``, ``class`` or assignment."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded, read as attributes or imported by name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module of the package reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _unread_private_names(sources) == []


def test_an_unread_private_name_is_reported():
    sources = {
        "a.py": (
            "import re\n_USED_RE = re.compile('x')\n_LEFT_RE = re.compile('y')\n"
            "class _Left:\n    pass\n_limit: int = 3\n_left: int = 4\n"
            "def _helper():\n    return _USED_RE\n"
        ),
        "b.py": "from .a import _helper\nfrom . import a\na._limit\n",
    }
    assert _unread_private_names(sources) == [
        "a.py: _LEFT_RE (line 3)",
        "a.py: _Left (line 4)",
        "a.py: _left (line 7)",
    ]
