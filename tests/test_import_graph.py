"""What ``import roblp`` pulls in, checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import roblp

SRC = Path(roblp.__file__).resolve().parents[1]


def test_import_roblp_leaves_scipy_integrate_unloaded():
    # scipy.integrate drags in scipy.optimize, scipy.sparse.linalg and
    # scipy.linalg, which nothing in the package needs.
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = "import sys, roblp; print(roblp.__file__); print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert Path(out[0]).resolve().parent == SRC / "roblp"
    assert out[1] == "False"
