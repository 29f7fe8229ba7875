"""The demos and the README's python blocks import only names that exist,
and every demo runs to completion against this checkout's sources."""

import ast
import importlib
import os
import re
import subprocess
import sys
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


DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
