"""The demos and the README's python blocks import only names that exist.

The sources are parsed, never run: demo 04 performs a full-parameter break.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(_PYTHON_BLOCK.findall(readme)):
        yield f"README.md block {i}", block


def _tropkex_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "tropkex" or module.startswith("tropkex."):
                for alias in node.names:
                    yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "tropkex" or alias.name.startswith("tropkex."):
                    yield alias.name, None


SOURCES = dict(_sources())


@pytest.mark.parametrize("label", sorted(SOURCES))
def test_imported_tropkex_names_exist(label):
    for module, name in _tropkex_imports(ast.parse(SOURCES[label], filename=label)):
        imported = importlib.import_module(module)
        if name is not None:
            assert hasattr(imported, name), f"{label}: {module} has no {name!r}"
