"""Every top-level import of a package module is used, exported or marked.

No linter runs on the package, so this test stands in for pyflakes' F401
on the modules other than ``__init__.py``.  A name a module imports at
top level must be used in it, listed in its ``__all__``, or carry a
``# noqa: F401`` marker on its import line (a lookup site that
``perfbench/tracing.py`` patches); a marker on a name the module uses or
exports is stale, and fails too.  It only parses the sources.
"""

import ast
from pathlib import Path

import pytest

import roblp

MODULES = sorted(p for p in Path(roblp.__file__).parent.glob("*.py") if p.name != "__init__.py")
MARKER = "# noqa: F401"


def _imports(tree: ast.Module):
    """(bound name, line) of each name the module imports at top level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_each_import_is_used_exported_or_marked(path):
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    unused, stale = [], []
    for name, line in _imports(tree):
        marked = MARKER in lines[line - 1]
        needed = name in used or name in exported
        if not needed and not marked:
            unused.append(name)
        elif needed and marked:
            stale.append(name)
    assert not unused, f"{path.name}: unused imports {unused}"
    assert not stale, f"{path.name}: '{MARKER}' on used or exported imports {stale}"
