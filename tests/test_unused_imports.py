"""Every name a module, test or demo imports is referenced in that file,
and every private module-level name of the package, and every method and
slot of its private classes, is referenced in it.

The sources are parsed with ``ast``, never imported.  ``tropkex/__init__.py``
is exempt from the import check: its import list is the package's API.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tropkex").glob("*.py"))
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


def _private_definitions(tree):
    # (name, node) for each module-level function, class or assignment
    # that binds a name starting with an underscore
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(tree):
    # every loaded name and every attribute name, so that both _f() and
    # module._f count
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _private_class_members(tree):
    # (name, node) for each method and each __slots__ name of a private
    # module-level class, dunders exempt; node is None for a slot
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    yield node.name, node
                elif isinstance(node, ast.Assign) and "__slots__" in (
                    getattr(target, "id", None) for target in node.targets
                ):
                    for slot in ast.walk(node.value):
                        if isinstance(slot, ast.Constant) and not slot.value.startswith("__"):
                            yield slot.value, None


def _attribute_reads(tree):
    # every attribute read, so that assigning self.x alone does not count
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_no_dead_private_names():
    """A private module-level name of ``tropkex`` that nothing in the
    package uses, outside its own definition, is dead code, and so is a
    method or slot of a private class that nothing in the package reads
    as an attribute, outside its own definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    uses = Counter(name for tree in trees.values() for name in _uses(tree))
    reads = Counter(name for tree in trees.values() for name in _attribute_reads(tree))
    defined, dead = 0, []
    for path, tree in trees.items():
        for name, node in _private_definitions(tree):
            defined += 1
            if uses[name] == sum(use == name for use in _uses(node)):
                dead.append(f"{path.name}:{name}")
        for name, node in _private_class_members(tree):
            defined += 1
            own = 0 if node is None else sum(read == name for read in _attribute_reads(node))
            if reads[name] == own:
                dead.append(f"{path.name}:{name}")
    assert defined > 0
    assert not dead, f"private names never used: {dead}"
