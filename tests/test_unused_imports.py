"""Each module's imports and its ``__all__`` are what they should be.

No linter runs on the package, so two tests stand in for one.  Both only
parse the sources.

- Every top-level import of a package module other than ``__init__.py``
  is used, exported or marked, in place of pyflakes' F401.  A name a
  module imports at top level must be used in it, listed in its
  ``__all__``, or carry a ``# noqa: F401`` marker on its import line (a
  lookup site that ``perfbench/tracing.py`` patches); a marker on a name
  the module uses or exports is stale, and fails too.
- Every ``__all__`` is the surface its callers import.  The callers are
  the package's modules, ``scripts/``, ``perfbench/`` and the acceptance
  suite.  A name in ``__all__`` that none of them imports must be in
  ``KEPT`` with the reason it stays public, and a public function or
  class that one of them imports from a module must be in its
  ``__all__``.  Unit tests are no callers: they may import any name.
"""

import ast
from pathlib import Path

import pytest

import roblp

PACKAGE = Path(roblp.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MARKER = "# noqa: F401"
REPO = Path(__file__).resolve().parents[1]
CALLERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((REPO / "scripts").glob("*.py")),
    *sorted((REPO / "perfbench").glob("*.py")),
    REPO / "tests" / "test_acceptance.py",
]
# Public names that no caller imports, and why each stays public.
KEPT = {
    "contrast.absolute": "the third contrast factory, beside huber and square",
    "harness.ComparisonRow": "compare_contrasts returns it",
    "harness.RateFit": "rate_fit returns it",
    "harness.RiskPoint": "the entries of RiskReport.points",
    "harness.RiskReport": "risk_curve returns it",
    "harness.TailPoint": "the entries of TailReport.points",
    "harness.TailReport": "tail_check returns it",
    "kernels.NotPositiveDefiniteError": "lambda_min raises it",
    "lepski.BandwidthGrid": "bandwidth_grid returns it",
    "lepski.CheckRecord": "the entries of SelectionTrace.pairwise_checks",
    "local_fit.FitResult": "fit_local returns it",
    "simulate.HeteroscedasticRule": "the heteroscedastic rule a NoiseModel takes",
    "simulate.NoiseFamily": "the values of NOISE_FAMILIES",
    "simulate.constant_function": "a test-function factory, as sinusoid is",
    "simulate.cusp": "a test-function factory, as sinusoid is",
    "simulate.product_sinusoid": "a test-function factory, as sinusoid is",
}


def _imports(nodes):
    """(module, name, bound name, line) of each name that the import
    statements among ``nodes`` bring in; the module of a plain ``import``
    is None, and a relative module keeps its leading dots."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield None, alias.name, alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.name, alias.asname or alias.name, alias.lineno


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
    for _, _, name, line in _imports(tree.body):
        marked = MARKER in lines[line - 1]
        needed = name in used or name in exported
        if not needed and not marked:
            unused.append(name)
        elif needed and marked:
            stale.append(name)
    assert not unused, f"{path.name}: unused imports {unused}"
    assert not stale, f"{path.name}: '{MARKER}' on used or exported imports {stale}"


def _imported_from_package(path: Path) -> set[str]:
    """``module.name`` of each package name that the file at ``path``
    imports anywhere in it, by ``from roblp.<module> import <name>`` or as
    ``<module>.<name>`` after ``from roblp import <module>``."""
    tree = ast.parse(path.read_text())
    stems = {p.stem for p in MODULES}
    found, aliases = set(), {}
    for module, name, bound, _ in _imports(ast.walk(tree)):
        if module is None:
            continue
        if module.startswith("."):  # a package module's relative import
            module = f"roblp.{module[1:]}".rstrip(".") if path.parent == PACKAGE else ""
        if module == "roblp" and name in stems:
            aliases[bound] = name
        elif module.startswith("roblp."):
            found.add(f"{module.removeprefix('roblp.')}.{name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            found.add(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_each_all_is_what_its_callers_import():
    imported = set().union(*map(_imported_from_package, CALLERS))
    exported, public = set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        exported |= {f"{path.stem}.{name}" for name in _exported(tree)}
        public |= {
            f"{path.stem}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
    unused = sorted(exported - imported - KEPT.keys())
    assert not unused, f"in __all__, but no caller imports them and KEPT does not list them: {unused}"
    missing = sorted(imported & public - exported)
    assert not missing, f"public functions or classes that callers import, not in __all__: {missing}"
    stale = sorted(KEPT.keys() & imported | KEPT.keys() - exported)
    assert not stale, f"KEPT entries that a caller imports or no __all__ lists: {stale}"
