"""Fuzz the config surface against the schema.

Every experiment config that differs from a smoke-size base config in one
or two numeric leaves, each set to a boundary value, must end in one of
three ways: a ConfigError raised before any Monte Carlo loop ran (a
non-finite risk, reported under ``$.risk.power``, is the one exception),
the 1%-abort TooManyFailuresError, or a run whose every CSV cell and
summary number is finite or blank.  ``roblp fit``/``adapt`` flags and
settings must exit 0 with finite numbers or exit with a message that is
one line per error.
"""

import copy
import csv
import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from roblp import experiments
from roblp.cli import main
from roblp.experiments import ConfigError, run_experiment
from roblp.harness import TooManyFailuresError
from roblp.simulate import NoiseModel, gen_data, sinusoid

pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

BOUNDARY = [0, 5e-324, 1e-308, 1e300, 1e308, 10**400, math.nan, math.inf, -math.inf]

# Leaves that set how much work a run does, not what it computes; they
# stay at smoke size.
RESOURCES = {
    ("grid", "n"),
    ("grid", "n_values"),
    ("risk", "replications"),
    ("risk", "workers"),
    ("estimator", "max_iterations"),
}

# The Monte Carlo loops, as run_experiment looks them up.
MONTE_CARLO = ("risk_curve", "tail_check", "compare_contrasts")

SMOKE_ITERATIONS = 200


def _script_config(name: str, grid: dict, replications: int) -> dict:
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["grid"].update(grid)
    cfg["risk"]["replications"] = replications
    cfg["estimator"]["max_iterations"] = SMOKE_ITERATIONS
    return cfg


FIXED = {"kind": "fixed", "h": 0.2, "degree": 1, "gradient_tolerance": 1e-8}
ADAPTIVE = {"kind": "adaptive", "degree": 2, "curvature": None, "risk_power": 2.0}


def _bases() -> dict:
    """One base per experiment and estimator kind: the minimax ones are the
    study configs at smoke size, the others vary the function and noise so
    that more leaves are fuzzed."""
    rates = _script_config("rates_gaussian", {"n_values": [128, 256, 512, 1024]}, 30)
    tails = _script_config("tails_gaussian", {"n": 256}, 100)
    compare = _script_config("compare_cauchy", {"n": 512}, 10)
    variants = {
        "rates-minimax": (rates, {}),
        "rates-fixed": (
            rates,
            {
                "function": {"name": "cusp", "beta": 0.5, "amplitude": 1.0, "center": 0.5},
                "noise": {"family": "laplace", "scale": 1.0, "heteroscedastic": {"kind": "alternating", "factor": 2.0}},
                "estimator": FIXED,
            },
        ),
        "rates-adaptive": (rates, {"noise": {"family": "gaussian", "scale": 0.5, "sigma_min": 0.5}, "estimator": ADAPTIVE}),
        "tails-minimax": (tails, {}),
        "tails-fixed": (
            tails,
            {
                "function": {"name": "constant", "value": 0.5, "beta": 1.0},
                "noise": {
                    "family": "gaussian",
                    "scale": 0.5,
                    "heteroscedastic": {"kind": "sinusoidal", "amplitude": 0.5, "period": 16},
                },
                "estimator": {**FIXED, "curvature": 0.3},
            },
        ),
        "compare-minimax": (compare, {}),
        "compare-fixed": (
            compare,
            {"function": {"name": "product_sinusoid", "beta": 2.0, "amplitude": 1.0}, "estimator": {**FIXED, "x0": [0.25, 0.5]}},
        ),
    }
    bases = {}
    for name, (script, changes) in variants.items():
        cfg = copy.deepcopy(script)
        for section, value in changes.items():
            if section == "estimator":
                keep = {k: v for k, v in cfg["estimator"].items() if k not in ("beta", "lipschitz", "curvature")}
                value = {**keep, **value}
            cfg[section] = copy.deepcopy(value)
        bases[name] = cfg
    return bases


BASES = _bases()


def _leaves(node, path=()):
    """Paths of the numeric leaves of a config, resource settings aside."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool) and path[:2] not in RESOURCES:
            yield path
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


def _set(cfg: dict, path, value) -> None:
    """Set the leaf at ``path``, a tuple of keys or a dotted string such as
    ``grid.epsilon_multipliers.0``."""
    if isinstance(path, str):
        path = tuple(int(k) if k.isdigit() else k for k in path.split("."))
    for key in path[:-1]:
        cfg = cfg[key]
    cfg[path[-1]] = value


def _with(base: str, **changes) -> dict:
    """A copy of a base config with the leaves at dotted paths set."""
    cfg = copy.deepcopy(BASES[base])
    for path, value in changes.items():
        _set(cfg, path, value)
    return cfg


@st.composite
def fuzzed_configs(draw):
    cfg = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    paths = draw(st.lists(st.sampled_from(list(_leaves(cfg))), min_size=1, max_size=2, unique=True))
    for path in paths:
        _set(cfg, path, draw(st.sampled_from(BOUNDARY)))
    return cfg


def _finite_numbers(node) -> bool:
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_numbers(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def _finite_cells(path: Path) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for cell in (cell for row in rows[1:] for cell in row):
        try:
            value = float(cell)
        except ValueError:  # blank, or a label such as a contrast name
            continue
        if not math.isfinite(value):
            return False
    return True


def check_experiment(cfg: dict, out_dir: Path) -> None:
    """The property: a ConfigError before any Monte Carlo loop ran, the 1%
    abort, or finite outputs."""
    ran = []

    def spy(name):
        real = getattr(experiments, name)

        def loop(*args, **kwargs):
            ran.append(name)
            return real(*args, **kwargs)

        return loop

    with mock.patch.multiple(experiments, **{name: spy(name) for name in MONTE_CARLO}):
        try:
            result = run_experiment(copy.deepcopy(cfg), output_dir=out_dir)
        except ConfigError as exc:
            if str(exc).startswith("$.risk.power: "):
                assert ran and "\n" not in str(exc)
            else:
                assert not ran, f"{exc} raised after {ran} ran"
            assert not list(out_dir.glob("*"))
            return
        except TooManyFailuresError:
            return
    assert _finite_cells(result["csv"]), result["csv"].read_text()
    assert _finite_numbers(json.loads(result["json"].read_text())), result["json"].read_text()


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cfg=fuzzed_configs())
@example(cfg=_with("rates-minimax", **{"estimator.contrast.gamma": math.nan}))
@example(cfg=_with("compare-minimax", **{"estimator.bound": 10**400}))
@example(cfg=_with("tails-minimax", **{"noise.scale": 1e-308}))
@example(cfg=_with("tails-minimax", **{"function.beta": 1e308}))
@example(cfg=_with("rates-minimax", **{"estimator.beta": 1e308}))
@example(cfg=_with("tails-minimax", **{"estimator.contrast.gamma": 1e308}))
@example(cfg=_with("tails-minimax", **{"grid.epsilon_multipliers": [1e308]}))
@example(cfg=_with("rates-minimax", **{"risk.power": 1e308}))
@example(cfg=_with("compare-minimax", **{"risk.power": 1e308}))
@example(cfg=_with("rates-minimax", **{"function.amplitude": 1e308}))
# a spectral step of inf/inf once looped forever in the projected gradient
@example(cfg=_with("rates-fixed", **{"estimator.contrast.gamma": 1e300, "noise.scale": 1e300}))
# c lam eps beyond float range in the deviation bound
@example(cfg=_with("tails-fixed", **{"grid.epsilon_multipliers.2": 1e308, "estimator.curvature": 1e300}))
# h^d underflows to 0 in two dimensions
@example(cfg=_with("compare-fixed", **{"estimator.h": 5e-324}))
# responses f(x) + noise beyond float range, past the boundary values
@example(cfg=_with("tails-fixed", **{"function.value": 1.7e308, "noise.scale": 1e307}))
def test_every_config_is_a_config_error_an_abort_or_finite_outputs(tmp_path_factory, cfg):
    check_experiment(cfg, tmp_path_factory.mktemp("out"))


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    gen_data(sinusoid(beta=2.0), NoiseModel(family="gaussian", base_scale=0.3), 300, 1, seed=5).to_csv(path)
    return path


SETTINGS = json.loads((CONFIGS / "estimator_huber.json").read_text())


def _one_line_per_error(message: str) -> bool:
    lines = message.splitlines()
    if len(lines) == 1:
        return True
    return lines[0] == "invalid experiment config:" and all(line.startswith("  $.") for line in lines[1:])


def check_cli(argv: list[str], capsys) -> None:
    try:
        code = main(argv)
    except SystemExit as exc:
        assert isinstance(exc.code, str) and _one_line_per_error(exc.code), exc.code
        return
    assert code == 0
    out = capsys.readouterr().out
    if argv[0] == "fit":
        assert _finite_numbers(json.loads(out)), out
    else:
        assert "nan" not in out and "inf" not in out, out


@pytest.mark.parametrize("value", BOUNDARY, ids=lambda v: "10**400" if v == 10**400 else repr(v))
@pytest.mark.parametrize("flag", ["fit --h", "fit --x0", "adapt --x0"])
def test_cli_flags_exit_zero_or_with_one_line(dataset_csv, tmp_path, capsys, flag, value):
    command, name = flag.split()
    flags = {"--h": "0.2", "--x0": "0.25", name: repr(value) if isinstance(value, float) else str(value)}
    if command == "adapt":
        del flags["--h"]
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(SETTINGS))
    argv = [command, "--data", str(dataset_csv), "--config", str(settings_path)]
    for key, text in flags.items():
        argv.append(f"{key}={text}")
    check_cli(argv, capsys)


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["fit", "adapt"]),
    changes=st.dictionaries(
        st.sampled_from(
            ["degree", "bound", "contrast.gamma", "noise.scale", "noise.sigma_min", "curvature", "risk_power", "gradient_tolerance"]
        ),
        st.sampled_from(BOUNDARY),
        min_size=1,
        max_size=2,
    ),
)
@example(command="adapt", changes={"risk_power": math.nan})
def test_cli_settings_exit_zero_or_with_one_line(dataset_csv, tmp_path_factory, capsys, command, changes):
    cfg = {**copy.deepcopy(SETTINGS), "max_iterations": SMOKE_ITERATIONS}
    for path, value in changes.items():
        _set(cfg, path, value)
    path = tmp_path_factory.mktemp("settings") / "settings.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--data", str(dataset_csv), "--x0", "0.25", "--config", str(path)]
    if command == "fit":
        argv += ["--h", "0.2"]
    check_cli(argv, capsys)
