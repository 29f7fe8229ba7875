"""Every name a module, test or demo imports is referenced in that file.

The sources are parsed with ``ast``, never imported.  ``tropkex/__init__.py``
is exempt: its import list is the package's API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for path in [
        *(ROOT / "src" / "tropkex").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
    ]
    if path.name != "__init__.py"
)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            # the root of a dotted use such as os.path.join
            while isinstance(node, ast.Attribute):
                node = node.value
            if isinstance(node, ast.Name):
                yield node.id


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = set(_imported_names(tree)) - set(_referenced_names(tree))
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"
