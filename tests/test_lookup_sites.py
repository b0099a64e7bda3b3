"""The names the benchmark and the package's own ``__all__`` lists look up.

``perfbench/tracing.py`` wraps layers at the module (or class) attribute
their callers read them through; a site that no longer exists there
breaks a traced benchmark run.  This test only reads that file.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import roblp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()


@pytest.mark.parametrize(
    "path, attr", [(path, attr) for path, attr, _ in TRACING_MODULE.PATCH_SITES]
)
def test_patch_site_is_owned_by_its_lookup_site(path, attr):
    owner = TRACING_MODULE._resolve(path)
    assert attr in owner.__dict__, f"{path}.{attr} is gone"


MODULES = [
    module
    for module in (
        importlib.import_module(f"roblp.{info.name}")
        for info in pkgutil.iter_modules(roblp.__path__)
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_name_resolves(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names without an attribute: {missing}"
