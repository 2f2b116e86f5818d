"""The package parses JSON text in four places only, and reads rows through their types.

``datasets.read_jsonl`` reads every JSONL input, so each of them skips
blank lines and names ``path:line`` for a bad row. The other three parse
one document each: a model's candidate, a provider's reply body and the
``--config`` file.

``pipeline.py`` reads a prediction or candidate row by a string key only
inside a ``from_json_dict``, which names ``path:line`` and the dotted field
when one is missing; elsewhere it reads attributes. Its only other
string-key reads take an output file's handle, by key, from the ``files``
that ``datasets.write_artifacts`` yields. It reads no
risk row and no progress row: it calls ``read_jsonl`` and ``json_fields``
only in ``Prediction.from_json_dict`` and ``recompute_report``, and the
checkpoint, which holds candidates.jsonl rows, is read by a resume as a
replay cache through ``ReplayProvider.from_jsonl`` alone.
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


PIPELINE_STRING_KEYS = [
    "_write_report: files['report_json']",
    "_write_report: files['report_text']",
    "filter_dataset: files['filter_counts']",
    "filter_dataset: files['numeric_pool']",
    "filter_dataset: files['sample']",
    "filter_dataset: files['sample_ids']",
    "run_pipeline: files['candidates']",
    "run_pipeline: files['predictions']",
    "run_pipeline: files['risk_log']",
    "run_pipeline: files['risk_summary']",
]


def _string_key_reads(source: str) -> list[str]:
    """``function: expression`` for each subscript by a string constant outside a ``from_json_dict``."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name != "from_json_dict":
                    visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Subscript)
                and isinstance(child.slice, ast.Constant)
                and isinstance(child.slice.value, str)
            ):
                found.append(f"{function}: {ast.unparse(child)}")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


PIPELINE_ROW_READS = [
    "Prediction.from_json_dict: json_fields",
    "recompute_report: read_jsonl",
    "recompute_report: read_jsonl",
]
ROW_READERS = ("read_jsonl", "json_fields")


def _row_reads(source: str) -> list[str]:
    """``scope: name`` for each call of a ``ROW_READERS`` name, bare or as an
    attribute, ``scope`` being the dotted class and function names around it;
    and ``scope: import name as alias`` for each import that would hide one."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            where = scope or "<module>"
            if isinstance(child, ast.alias) and child.name in ROW_READERS and child.asname:
                found.append(f"{where}: import {child.name} as {child.asname}")
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ROW_READERS:
                    found.append(f"{where}: {name}")
            visit(child, scope)

    visit(ast.parse(source), "")
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


def test_pipeline_reads_rows_by_string_key_only_in_from_json_dict():
    source = (PACKAGE / "pipeline.py").read_text(encoding="utf-8")
    assert sorted(_string_key_reads(source)) == PIPELINE_STRING_KEYS


def test_every_string_key_read_is_reported():
    source = (
        "LIMIT = LIMITS['a']\n"
        "class Row:\n"
        "    @classmethod\n"
        "    def from_json_dict(cls, row):\n"
        "        return row['b']\n"
        "    def total(self, row, paths):\n"
        "        row['c'] = paths[0] + row[KEY]\n"
        "        return {'d': row['e']['f']}\n"
    )
    assert _string_key_reads(source) == [
        "<module>: LIMITS['a']",
        "total: row['c']",
        "total: row['e']['f']",
        "total: row['e']",
    ]


def test_pipeline_reads_rows_only_in_from_json_dict_and_report():
    source = (PACKAGE / "pipeline.py").read_text(encoding="utf-8")
    assert sorted(_row_reads(source)) == PIPELINE_ROW_READS


def test_every_row_read_is_reported():
    source = (
        "from .datasets import read_jsonl as rows\n"
        "HEADER = json_fields('a', {}, ())\n"
        "class Row:\n"
        "    def from_json_dict(cls, row):\n"
        "        return datasets.json_fields('w', row, ('a',))\n"
        "def resume(path):\n"
        "    def scan():\n"
        "        return list(read_jsonl(path)), load(path)\n"
        "    return scan()\n"
    )
    assert _row_reads(source) == [
        "<module>: import read_jsonl as rows",
        "<module>: json_fields",
        "Row.from_json_dict: json_fields",
        "resume.scan: read_jsonl",
    ]
