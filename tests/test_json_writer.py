"""No module of ``tropkex`` calls ``json.dumps`` with an ``indent``: every
JSON file the CLI writes goes through ``cli._json_text``, which matches
``json.dumps(obj, indent=2)`` byte for byte at a fraction of its cost.

The sources are parsed with ``ast``, never imported.  The demos are
exempt: they print for a reader, not for a pinned file.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "tropkex").glob("*.py"))


def _indented_dumps(tree):
    # line of each dumps(...) or <module>.dumps(...) call given indent=
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "dumps":
                yield node.lineno


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_indented_json_dumps(path):
    lines = list(_indented_dumps(ast.parse(path.read_text(), filename=str(path))))
    assert not lines, f"{path.name} calls json.dumps with indent at lines {lines}"
