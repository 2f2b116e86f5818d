"""The package parses JSON text in four places only.

``datasets.read_jsonl`` reads every JSONL input, so each of them skips
blank lines and names ``path:line`` for a bad row. The other three parse
one document each: a model's candidate, a provider's reply body and the
``--config`` file.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trace_repair"

ALLOWED = [
    "cli.py: _build_config",
    "datasets.py: read_jsonl",
    "orchestrator.py: parse_candidate",
    "providers.py: _completion_text",
]


def _json_reads(module: str, source: str) -> list[str]:
    """``module: function`` for each ``json.load``/``json.loads`` call, and
    ``module: from json import`` for each import that would hide one."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "json":
                found.append(f"{module}: from json import")
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("load", "loads")
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "json"
            ):
                found.append(f"{module}: {function}")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_json_is_parsed_only_in_the_allowed_places():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _json_reads(path.name, path.read_text(encoding="utf-8"))
    assert sorted(found) == ALLOWED


def test_every_json_read_is_reported():
    source = (
        "import json\nfrom json import loads\nROWS = json.loads('[]')\n"
        "def read(handle):\n    def inner():\n        return json.load(handle)\n"
        "    return inner(), json.dumps({})\n"
    )
    assert _json_reads("a.py", source) == [
        "a.py: from json import",
        "a.py: <module>",
        "a.py: inner",
    ]
