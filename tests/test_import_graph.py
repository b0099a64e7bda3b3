"""What ``import roblp`` and a few runs pull in, checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import roblp

SRC = Path(roblp.__file__).resolve().parents[1]


def _run_fresh(code: str) -> list:
    """Run ``code`` in a fresh interpreter whose roblp comes from SRC;
    returns its stdout lines."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


def _loaded_after(code: str, *modules: str) -> dict:
    """Run ``code`` in a fresh interpreter after ``import roblp``; returns,
    for each module, whether it is loaded afterwards."""
    out = _run_fresh("\n".join([
        "import sys, roblp",
        code,
        "print(roblp.__file__)",
        f"print(*[m in sys.modules for m in {list(modules)!r}])",
    ]))
    assert Path(out[-2]).resolve().parent == SRC / "roblp"
    return dict(zip(modules, (flag == "True" for flag in out[-1].split())))


def _loaded_by_import_roblp(module: str) -> bool:
    return _loaded_after("", module)[module]


def _rates_config(tmp_path, family: str) -> str:
    """A serial smoke-size rates config with ``family`` noise; returns its
    path."""
    cfg = {
        "experiment": "rates",
        "seed": 3,
        "function": {"name": "sinusoid", "beta": 2.0},
        "noise": {"family": family, "scale": 1.0},
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
        "output": {"directory": str(tmp_path), "prefix": f"rates_{family}"},
    }
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _run_experiment(path: str) -> str:
    return f"from roblp.experiments import run_experiment\nrun_experiment({path!r})"


def test_no_run_and_no_config_error_loads_jsonschema(tmp_path):
    # configs are validated in roblp.experiments; jsonschema is a test
    # dependency, the oracle of that validator
    bad = json.loads(Path(_rates_config(tmp_path, "cauchy")).read_text())
    bad["grid"]["n_values"] = []
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    simulate = json.loads((configs / "simulate_cusp.json").read_text())
    simulate["output"] = str(tmp_path / "data.csv")
    (tmp_path / "simulate.json").write_text(json.dumps(simulate))
    data = ["--data", simulate["output"], "--x0", "0.25", "--config", str(configs / "estimator_huber.json")]
    commands = [
        ["simulate", "--config", str(tmp_path / "simulate.json")],
        ["fit", "--h", "0.2", *data],
        ["adapt", *data],
    ]
    codes = [
        "",
        "import roblp.cli",
        _run_experiment(_rates_config(tmp_path, "cauchy")),
        "\n".join([
            "from roblp.experiments import ConfigError, run_experiment",
            "try:",
            f"    run_experiment({bad!r})",
            "except ConfigError as exc:",
            "    assert '$.grid.n_values: [] should be non-empty' in str(exc), exc",
            "else:",
            "    raise AssertionError('no ConfigError')",
        ]),
        "\n".join(["from roblp.cli import main", *(f"assert main({argv!r}) == 0" for argv in commands)]),
    ]
    for code in codes:
        assert _loaded_after(code, "jsonschema") == {"jsonschema": False}, code
    assert (tmp_path / "rates_cauchy.csv").is_file() and (tmp_path / "data.csv").is_file()


def test_no_scipy_module_loads_on_import_or_on_a_gaussian_run(tmp_path):
    # every scipy submodule loads the scipy package first
    codes = [
        "",
        "import roblp.cli",
        "from roblp.simulate import NoiseModel\nNoiseModel(family='gaussian')",
        _run_experiment(_rates_config(tmp_path, "gaussian")),
    ]
    for code in codes:
        assert _loaded_after(code, "scipy") == {"scipy": False}, code
    assert (tmp_path / "rates_gaussian.csv").is_file()


def test_import_roblp_loads_numpy_random():
    # numpy loads numpy.random on first use; a pool forked from a parent that
    # has not drawn would import it in every worker of every run
    assert _loaded_by_import_roblp("numpy.random")


# multiprocessing serves only a run with more than one worker; no run
# loads scipy.
LAZY = ("multiprocessing",)


def test_import_roblp_cli_leaves_scipy_special_and_multiprocessing_unloaded():
    modules = ("scipy.special", *LAZY)
    assert _loaded_after("import roblp.cli", *modules) == dict.fromkeys(modules, False)


def test_serial_cauchy_rates_run_leaves_scipy_special_and_multiprocessing_unloaded(tmp_path):
    modules = ("scipy.special", *LAZY)
    code = _run_experiment(_rates_config(tmp_path, "cauchy"))
    assert _loaded_after(code, *modules) == dict.fromkeys(modules, False)
    assert (tmp_path / "rates_cauchy.csv").is_file()


def test_studies_and_the_cli_run_with_scipy_unimportable(tmp_path):
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    tails = json.loads((configs / "tails_gaussian.json").read_text())
    tails["risk"]["replications"] = 300
    tails["output"]["directory"] = str(tmp_path / "tails")
    simulate = json.loads((configs / "simulate_cusp.json").read_text())
    simulate["output"] = str(tmp_path / "data.csv")
    for name, cfg in (("tails", tails), ("simulate", simulate)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    data = ["--data", simulate["output"], "--x0", "0.25", "--config", str(configs / "estimator_huber.json")]
    trace = tmp_path / "trace.json"
    commands = [
        ["tails", "--config", str(tmp_path / "tails.json")],
        ["simulate", "--config", str(tmp_path / "simulate.json")],
        ["fit", "--h", "0.2", *data],
        ["adapt", "--json", str(trace), *data],
    ]
    out = _run_fresh("\n".join([
        "import sys",
        "sys.modules['scipy'] = None  # import scipy now raises ImportError",
        "from roblp.cli import main",
        *(f"assert main({argv!r}) == 0" for argv in commands),
        "print(sys.modules['scipy'])",
    ]))
    assert out[-1] == "None"
    assert (tmp_path / "tails" / "tails_gaussian.csv").is_file()
    assert "chosen_k" in json.loads(trace.read_text())


def test_package_root_exports_only_the_quick_start_names():
    public = {
        name
        for name, value in vars(roblp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {"Dataset", "Estimator", "fit_local", "huber"}
