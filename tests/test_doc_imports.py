"""The demos and the README's python blocks import only names that exist
and run to completion against this checkout's sources, and every
``tropkex`` command line in the README's sh blocks parses."""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tropkex import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
README_PYTHON = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
README_COMMANDS = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README, re.DOTALL)
    for line in block.splitlines()
    if line.startswith("tropkex ")
]


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    for i, block in enumerate(README_PYTHON):
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


def _run_python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    _run_python(str(demo))


@pytest.mark.parametrize("index", range(len(README_PYTHON)))
def test_readme_python_block_runs(index, tmp_path):
    _run_python("-c", README_PYTHON[index], cwd=tmp_path)


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    try:
        cli._build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}")
