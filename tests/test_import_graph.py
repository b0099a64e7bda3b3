"""What ``import roblp`` pulls in, checked in a fresh interpreter."""

import os
import subprocess
import sys
import types
from pathlib import Path

import roblp

SRC = Path(roblp.__file__).resolve().parents[1]


def _loaded_by_import_roblp(module: str) -> bool:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = f"import sys, roblp; print(roblp.__file__); print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert Path(out[0]).resolve().parent == SRC / "roblp"
    return out[1] == "True"


def test_import_roblp_leaves_scipy_integrate_unloaded():
    # scipy.integrate drags in scipy.optimize, scipy.sparse.linalg and
    # scipy.linalg, which nothing in the package needs.
    assert not _loaded_by_import_roblp("scipy.integrate")


def test_import_roblp_leaves_jsonschema_unloaded():
    # only config-driven runs (roblp.experiments) validate JSON
    assert not _loaded_by_import_roblp("jsonschema")


def test_package_root_exports_only_the_quick_start_names():
    public = {
        name
        for name, value in vars(roblp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {"Dataset", "Estimator", "fit_local", "huber"}
