"""What ``import roblp`` and a few runs pull in, checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import roblp

SRC = Path(roblp.__file__).resolve().parents[1]


def _loaded_after(code: str, *modules: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports roblp from SRC;
    returns, for each module, whether it is loaded afterwards."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = "\n".join([
        "import sys, roblp",
        code,
        "print(roblp.__file__)",
        f"print(*[m in sys.modules for m in {list(modules)!r}])",
    ])
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert Path(out[-2]).resolve().parent == SRC / "roblp"
    return dict(zip(modules, (flag == "True" for flag in out[-1].split())))


def _loaded_by_import_roblp(module: str) -> bool:
    return _loaded_after("", module)[module]


def test_import_roblp_leaves_scipy_integrate_unloaded():
    # scipy.integrate drags in scipy.optimize, scipy.sparse.linalg and
    # scipy.linalg, which nothing in the package needs.
    assert not _loaded_by_import_roblp("scipy.integrate")


def test_import_roblp_leaves_jsonschema_unloaded():
    # only config-driven runs (roblp.experiments) validate JSON
    assert not _loaded_by_import_roblp("jsonschema")


# scipy.special serves only the Gaussian quantile; multiprocessing only a
# run with more than one worker.
LAZY = ("scipy.special", "multiprocessing")


def test_import_roblp_cli_leaves_scipy_special_and_multiprocessing_unloaded():
    assert _loaded_after("import roblp.cli", *LAZY) == dict.fromkeys(LAZY, False)


def test_serial_cauchy_rates_run_leaves_scipy_special_and_multiprocessing_unloaded(tmp_path):
    cfg = {
        "experiment": "rates",
        "seed": 3,
        "function": {"name": "sinusoid", "beta": 2.0},
        "noise": {"family": "cauchy", "scale": 1.0},
        "estimator": {
            "kind": "minimax",
            "contrast": {"kind": "huber", "gamma": 1.0},
            "bound": 8.0,
            "x0": [0.25],
            "beta": 2.0,
            "lipschitz": 39.478417604357434,
        },
        "grid": {"n_values": [128, 256, 384, 512]},
        "risk": {"replications": 30, "workers": 1},
        "output": {"directory": str(tmp_path), "prefix": "rates_cauchy"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = f"from roblp.experiments import run_experiment\nrun_experiment({str(path)!r})"
    assert _loaded_after(code, *LAZY) == dict.fromkeys(LAZY, False)
    assert (tmp_path / "rates_cauchy.csv").is_file()


def test_gaussian_noise_model_loads_scipy_special_when_built():
    # built in the parent, so forked pool workers inherit the import
    build = "from roblp.simulate import NoiseModel\nNoiseModel(family={!r})"
    assert _loaded_after(build.format("gaussian"), "scipy.special")["scipy.special"]
    assert not _loaded_after(build.format("cauchy"), "scipy.special")["scipy.special"]


def test_gaussian_quantile_works_without_a_noise_model():
    code = (
        "from roblp.simulate import NOISE_FAMILIES\n"
        "q = NOISE_FAMILIES['gaussian'].quantile([0.025, 0.5, 0.975])\n"
        "assert abs(q[2] - 1.959963984540054) < 1e-12 and q[0] == -q[2] and q[1] == 0"
    )
    assert _loaded_after(code, "scipy.special")["scipy.special"]


def test_package_root_exports_only_the_quick_start_names():
    public = {
        name
        for name, value in vars(roblp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {"Dataset", "Estimator", "fit_local", "huber"}
