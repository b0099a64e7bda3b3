import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from roblp import experiments
from roblp.contrast import CONTRAST_KINDS
from roblp.experiments import ConfigError, _estimator, _noise_model, load_config, run_experiment
from roblp.harness import ESTIMATOR_FIELDS
from roblp.kernels import _AXIS_PROFILES
from roblp.local_fit import OptimizerSettings
from roblp.simulate import HETEROSCEDASTIC_KINDS


def rates_config(out_dir, n_values=(256, 512, 1024, 2048), reps=40):
    return {
        "experiment": "rates",
        "seed": 101,
        "function": {"name": "sinusoid", "beta": 2.0, "amplitude": 1.0},
        "noise": {"family": "gaussian", "scale": 0.5},
        "estimator": {
            "kind": "minimax",
            "contrast": {"kind": "huber", "gamma": 1.0},
            "kernel": "uniform",
            "bound": 8.0,
            "x0": [0.25],
            "beta": 2.0,
            "lipschitz": 39.478417604357434,
        },
        "grid": {"n_values": list(n_values)},
        "risk": {"replications": reps, "power": 2.0},
        "output": {"directory": str(out_dir), "prefix": "rates_demo"},
    }


def adaptive_config(out_dir):
    cfg = rates_config(out_dir)
    cfg["estimator"] = {
        "kind": "adaptive",
        "contrast": {"kind": "huber", "gamma": 1.0},
        "kernel": "uniform",
        "bound": 8.0,
        "x0": [0.25],
        "degree": 2,
        "curvature": None,
        "risk_power": 2.0,
    }
    return cfg


def test_rates_experiment_shape(tmp_path):
    result = run_experiment(rates_config(tmp_path))
    lines = result["csv"].read_text().splitlines()
    assert lines[0] == "n,risk,root_risk,stderr,replications,failures"
    assert len(lines) == 1 + 4  # header + one row per sample size
    summary = json.loads(result["json"].read_text())
    assert summary["rate_fit"]["target"] == pytest.approx(-0.4)
    assert "selection" not in summary  # only an adaptive estimator selects
    manifest = json.loads(result["manifest"].read_text())
    assert manifest["config"]["experiment"] == "rates"
    assert len(manifest["config_sha256"]) == 64


def test_rates_rerun_is_byte_identical(tmp_path):
    cfg = rates_config(tmp_path / "a")
    first = run_experiment(cfg)
    blob1 = first["csv"].read_bytes()
    cfg2 = rates_config(tmp_path / "b")
    second = run_experiment(cfg2)
    assert second["csv"].read_bytes() == blob1
    # rerun from the manifest alone reproduces the CSV byte for byte
    third = run_experiment(first["manifest"], output_dir=tmp_path / "c")
    assert third["csv"].read_bytes() == blob1


RATES_ADAPTIVE = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "rates_adaptive.json"


def test_adaptive_rates_summary_reports_each_level_and_whether_the_rule_can_reject(tmp_path):
    cfg = json.loads(RATES_ADAPTIVE.read_text())
    cfg["risk"]["replications"] = 30
    cfg["output"]["directory"] = str(tmp_path / "derived")
    result = run_experiment(cfg)
    risks = [float(line.split(",")[1]) for line in result["csv"].read_text().splitlines()[1:]]
    selection = result["summary"]["selection"]
    assert [point["n"] for point in selection] == cfg["grid"]["n_values"]
    for point, risk in zip(selection, risks):
        # every threshold at l >= 1 exceeds 2M = 16: the rule keeps level 0
        assert point["can_reject"] is False
        levels = point["levels"]
        assert [level["k"] for level in levels] == list(range(len(levels)))
        assert [level["chosen"] for level in levels] == [30] + [0] * (len(levels) - 1)
        assert levels[0]["risk"] == risk
        assert point["ratio"] == risk / min(level["risk"] for level in levels)
    # an explicit large curvature makes the threshold constant C small
    cfg["estimator"]["curvature"] = 1e4
    cfg["output"]["directory"] = str(tmp_path / "large")
    selection = run_experiment(cfg)["summary"]["selection"]
    assert [point["can_reject"] for point in selection] == [True] * 4
    for point in selection:
        assert sum(level["chosen"] for level in point["levels"]) == 30


def test_tails_experiment(tmp_path):
    cfg = {
        "experiment": "tails",
        "seed": 4,
        "function": {"name": "sinusoid", "beta": 2.0},
        "noise": {"family": "gaussian", "scale": 0.5},
        "estimator": {
            "kind": "fixed",
            "contrast": {"kind": "huber", "gamma": 1.0},
            "bound": 8.0,
            "x0": [0.25],
            "h": 0.2,
            "degree": 1,
            "curvature": None,
        },
        "grid": {"n": 256, "epsilon_multipliers": [0.5, 1.0, 8.0, 16.0]},
        "risk": {"replications": 64},
        "output": {"directory": str(tmp_path), "prefix": "tails_demo"},
    }
    result = run_experiment(cfg)
    summary = json.loads(result["json"].read_text())
    assert summary["eps_min"] > 0
    assert "constants" in summary
    lines = result["csv"].read_text().splitlines()
    assert len(lines) == 5
    assert lines[1].split(",")[1] == "0"  # below-threshold point flagged invalid


def compare_config(tmp_path):
    return {
        "experiment": "compare",
        "seed": 5,
        "function": {"name": "sinusoid", "beta": 2.0},
        "noise": {"family": "cauchy", "scale": 1.0},
        "estimator": {
            "kind": "fixed",
            "contrast": {"kind": "huber", "gamma": 1.0},
            "bound": 8.0,
            "x0": [0.25],
            "h": 0.25,
            "degree": 1,
        },
        "grid": {"n": 512},
        "risk": {"replications": 60},
        "output": {"directory": str(tmp_path), "prefix": "compare_demo"},
    }


@pytest.fixture(scope="module")
def compare_runs(tmp_path_factory):
    # one 30-replication compare run per worker count, shared by the tests
    # of its output and of its independence from the worker count
    out_dir = tmp_path_factory.mktemp("compare")
    results = []
    for workers in (1, 2):
        cfg = compare_config(out_dir)
        cfg["risk"]["replications"] = 30
        cfg["risk"]["workers"] = workers
        cfg["output"]["prefix"] = f"compare_w{workers}"
        results.append(run_experiment(cfg))
    return results


def test_compare_experiment(compare_runs):
    for result in compare_runs:
        lines = result["csv"].read_text().splitlines()
        assert lines[0] == "contrast,risk,stderr,max_error"
        assert len(lines) == 4
        summary = json.loads(result["json"].read_text())
        names = [row["contrast"] for row in summary["rows"]]
        assert names == ["square", "absolute_proxy", "huber(1)"]
        assert [row["failures"] for row in summary["rows"]] == [0, 0, 0]


def test_compare_experiment_csv_identical_across_workers(compare_runs):
    single, pooled = (result["csv"].read_bytes() for result in compare_runs)
    assert single == pooled


def test_config_errors_carry_field_paths(tmp_path):
    cfg = rates_config(tmp_path)
    cfg["estimator"]["bound"] = -1
    cfg["seed"] = "nope"
    with pytest.raises(ConfigError) as exc:
        run_experiment(cfg)
    msg = str(exc.value)
    assert "$.estimator.bound" in msg
    assert "$.seed" in msg


def test_config_missing_section_reported(tmp_path):
    cfg = rates_config(tmp_path)
    del cfg["grid"]
    with pytest.raises(ConfigError, match=r"\$: 'grid' is a required property"):
        run_experiment(cfg)


def _tails_config(out_dir):
    cfg = compare_config(out_dir)
    cfg["experiment"] = "tails"
    cfg["grid"]["epsilon_multipliers"] = [1.0, 8.0]
    return cfg


def _without(cfg, *paths):
    for path in paths:
        *parents, key = path.split(".")
        node = cfg
        for parent in parents:
            node = node[parent]
        del node[key]
    return cfg


@pytest.mark.parametrize(
    "cfg, lines",
    [
        (
            lambda out: _without(rates_config(out), "noise", "grid.n_values"),
            ["$: 'noise' is a required property", "$.grid: 'n_values' is a required property"],
        ),
        (
            lambda out: _without(_tails_config(out), "grid.epsilon_multipliers", "risk.replications"),
            [
                "$.grid: 'epsilon_multipliers' is a required property",
                "$.risk: 'replications' is a required property",
            ],
        ),
    ],
    ids=["rates", "tails"],
)
def test_missing_paths_are_one_config_error_before_any_driver(tmp_path, monkeypatch, cfg, lines):
    def no_replications(*args, **kwargs):
        raise AssertionError("a driver ran")

    for driver in ("risk_curve", "tail_check", "compare_contrasts"):
        monkeypatch.setattr(experiments, driver, no_replications)
    with pytest.raises(ConfigError) as exc:
        run_experiment(cfg(tmp_path / "out"))
    assert str(exc.value).splitlines() == ["invalid experiment config:"] + [f"  {line}" for line in lines]
    assert not (tmp_path / "out").exists()


def test_a_sigma_min_above_the_smallest_scale_is_a_config_error_before_any_driver(
    tmp_path, monkeypatch
):
    # within 1e-15 of the scale, but 54 times it: the draws would emit
    # scales below sigma_min
    def no_replications(*args, **kwargs):
        raise AssertionError("a driver ran")

    for driver in ("risk_curve", "tail_check", "compare_contrasts"):
        monkeypatch.setattr(experiments, driver, no_replications)
    cfg = rates_config(tmp_path / "out")
    cfg["noise"] = {"family": "laplace", "scale": 1.877556829253587e-17, "sigma_min": 1.018775568292536e-15}
    with pytest.raises(ConfigError) as exc:
        run_experiment(cfg)
    assert str(exc.value) == (
        "$.noise: sigma_min 1.018775568292536e-15 exceeds the smallest emitted scale"
        " 1.877556829253587e-17"
    )
    assert not (tmp_path / "out").exists()


def test_tails_constants_do_not_depend_on_the_sign_of_the_amplitude(tmp_path):
    # -f lies in the Hoelder class of f, so the bias majorant and the
    # validity threshold are the same
    summaries = []
    for amplitude in (1.0, -1.0):
        cfg = _tails_config(tmp_path)
        cfg["function"]["amplitude"] = amplitude
        cfg["estimator"]["h"] = 0.3
        cfg["grid"]["n"] = 1024
        cfg["risk"]["replications"] = 30
        cfg["output"]["prefix"] = f"tails_{amplitude:+g}"
        summaries.append(json.loads(run_experiment(cfg)["json"].read_text()))
    plus, minus = summaries
    assert plus["bias_majorant"] == pytest.approx(3.553, abs=1e-3)
    assert (minus["bias_majorant"], minus["eps_min"]) == (plus["bias_majorant"], plus["eps_min"])


def test_load_config_from_file(tmp_path):
    cfg = rates_config(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert load_config(path)["experiment"] == "rates"


def test_unknown_experiment_rejected(tmp_path):
    cfg = rates_config(tmp_path)
    cfg["experiment"] = "frobnicate"
    with pytest.raises(ConfigError):
        load_config(cfg)


@pytest.mark.parametrize("experiment", ["fit", "adapt"])
def test_single_fit_experiments_are_rejected(tmp_path, experiment):
    # a fit or selection trace on simulated data is `roblp simulate`
    # followed by `roblp fit` or `roblp adapt`
    cfg = rates_config(tmp_path)
    cfg["experiment"] = experiment
    with pytest.raises(ConfigError, match=rf"\$\.experiment: '{experiment}' is not one of"):
        load_config(cfg)


@pytest.mark.parametrize(
    "make_config, kind, dropped",
    [
        (compare_config, "fixed", "h"),
        (rates_config, "minimax", "beta"),
        (adaptive_config, "adaptive", "degree"),
    ],
)
def test_kind_specific_estimator_fields_are_required(tmp_path, make_config, kind, dropped):
    cfg = make_config(tmp_path)
    assert cfg["estimator"]["kind"] == kind
    del cfg["estimator"][dropped]
    with pytest.raises(ConfigError, match=rf"\$\.estimator: '{dropped}' is a required property"):
        run_experiment(cfg)


def test_adaptive_degree_zero_is_a_config_error(tmp_path):
    # the bandwidth grid needs degree >= 1 (a fixed fit at degree 0 is
    # tested through the CLI)
    cfg = adaptive_config(tmp_path)
    cfg["estimator"]["degree"] = 0
    with pytest.raises(ConfigError, match=r"\$\.estimator\.degree: 0 is less than the minimum of 1"):
        run_experiment(cfg)
    assert not list(tmp_path.iterdir())


def test_unreadable_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"^\S*nope\.json: No such file or directory$"):
        run_experiment(tmp_path / "nope.json")
    broken = tmp_path / "broken.json"
    broken.write_text('{"experiment": ')
    with pytest.raises(ConfigError, match=r"^\S*broken\.json: invalid JSON: "):
        load_config(broken)


def test_estimator_without_curvature_or_noise_is_a_config_error():
    est = adaptive_config("unused")["estimator"]
    with pytest.raises(ConfigError, match=r"\$\.estimator\.curvature"):
        _estimator(est, None)
    assert _estimator({**est, "curvature": 0.3}, None).curvature == 0.3


def test_estimator_settings_errors_carry_field_paths():
    est = adaptive_config("unused")["estimator"]
    with pytest.raises(ConfigError, match=r"\$\.estimator\.contrast"):
        _estimator({**est, "contrast": {"kind": "huber"}, "curvature": 0.3}, None)
    with pytest.raises(ConfigError, match=r"\$\.estimator: .*'max_iteration' was unexpected"):
        _estimator({**est, "max_iteration": 10}, None)


def test_estimator_reads_optimizer_settings():
    est = {**adaptive_config("unused")["estimator"], "curvature": 0.3}
    assert _estimator(est, None).optimizer == OptimizerSettings()
    tuned = _estimator({**est, "max_iterations": 7, "gradient_tolerance": 1e-5}, None)
    assert tuned.optimizer == OptimizerSettings(max_iterations=7, gradient_tolerance=1e-5)


def test_x0_must_match_the_function_dimension(tmp_path):
    cfg = adaptive_config(tmp_path)
    cfg["estimator"]["x0"] = [0.25, 0.5]
    with pytest.raises(
        ConfigError, match=r"\$\.estimator\.x0: 2 coordinates, but function 'sinusoid' has dimension 1"
    ):
        run_experiment(cfg)


def test_function_and_noise_errors_carry_field_paths(tmp_path):
    cfg = adaptive_config(tmp_path)
    cfg["function"] = {"name": "constant"}
    with pytest.raises(ConfigError, match=r"\$\.function: 'value' is a required property of 'constant'"):
        run_experiment(cfg)
    cfg = adaptive_config(tmp_path)
    cfg["noise"]["heteroscedastic"] = {"kind": "sinusoidal", "amplitude": 1.5}
    with pytest.raises(ConfigError, match=r"\$\.noise: sinusoidal amplitude must be in \[0, 1\)"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "function, message",
    [
        (
            {"name": "sinusoid", "beta": 2.0, "amplitdue": 3.0},
            r"\$\.function: Additional properties are not allowed \('amplitdue' was unexpected\)",
        ),
        ({"name": "sinusoid", "beta": "2"}, r"\$\.function\.beta: '2' is not of type 'number'"),
        (
            {"name": "constant", "value": 0.5, "beta": 2.0, "center": 0.5},
            r"\$\.function: Additional properties are not allowed \('center' was unexpected\)",
        ),
    ],
    ids=["typo", "type", "other-function-parameter"],
)
def test_function_parameters_are_checked_per_function(tmp_path, function, message):
    cfg = adaptive_config(tmp_path)
    cfg["function"] = function
    with pytest.raises(ConfigError, match=message):
        run_experiment(cfg)
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("function", "beta"), 1e308, "$.function: " + os.strerror(errno.ERANGE)),
        (
            ("function", "beta"),
            10**400,
            "invalid experiment config:\n  $.function.beta: an integer of 401 digits is not of type 'number'",
        ),
        (
            ("estimator", "bound"),
            -(10**30),
            "invalid experiment config:\n  $.estimator.bound: a negative integer of 31 digits"
            " is less than or equal to the minimum of 0",
        ),
    ],
    ids=["overflow-errno", "long-int", "long-negative-int"],
)
def test_arithmetic_and_schema_errors_read_as_plain_text(tmp_path, path, value, message):
    cfg = rates_config(tmp_path)
    cfg[path[0]][path[1]] = value
    with pytest.raises(ConfigError) as exc:
        run_experiment(cfg)
    assert str(exc.value) == message


def test_compare_single_replication_reports_zero_stderr(tmp_path):
    cfg = compare_config(tmp_path)
    cfg["risk"]["replications"] = 1
    result = run_experiment(cfg)

    def reject(name):
        raise ValueError(f"summary JSON holds {name}")

    summary = json.loads(result["json"].read_text(), parse_constant=reject)
    assert [row["stderr"] for row in summary["rows"]] == [0.0, 0.0, 0.0]
    rows = result["csv"].read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["0.0", "0.0", "0.0"]


def test_rates_target_falls_back_to_the_function_smoothness(tmp_path):
    # neither the fixed estimator nor the constant function's config names
    # beta; the target comes from the function's declared smoothness (1.0)
    cfg = rates_config(tmp_path, reps=30)
    cfg["function"] = {"name": "constant", "value": 0.5}
    cfg["estimator"] = compare_config(tmp_path)["estimator"]
    summary = json.loads(run_experiment(cfg)["json"].read_text())
    assert summary["rate_fit"]["target"] == pytest.approx(-1.0 / 3.0)


@pytest.mark.parametrize(
    "reps, n_values, message",
    [
        (29, (256, 512, 1024, 2048), r"\$\.risk\.replications: need at least 30 replications, got 29"),
        (30, (256, 512, 1024), r"\$\.grid\.n_values: need at least 4 sample sizes"),
        (30, (256, 384, 512, 768), r"\$\.grid\.n_values: sample sizes must span at least two dyadic octaves"),
    ],
    ids=["replications", "sizes", "span"],
)
def test_rates_limits_are_config_errors_before_any_replication(tmp_path, monkeypatch, reps, n_values, message):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "risk_curve", no_replications)
    with pytest.raises(ConfigError, match=message):
        run_experiment(rates_config(tmp_path, n_values=n_values, reps=reps))
    assert not list(tmp_path.rglob("*.csv"))


def test_adaptive_rates_with_an_empty_grid_is_a_config_error_before_any_replication(tmp_path, monkeypatch):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "risk_curve", no_replications)
    cfg = adaptive_config(tmp_path)
    cfg["estimator"]["degree"] = 1
    cfg["grid"]["n_values"] = [100, 20, 40, 80]
    with pytest.raises(ConfigError, match=r"^\$\.grid\.n_values: grid empty: .* for n=20, d=1, b=1$"):
        run_experiment(cfg)
    assert not list(tmp_path.rglob("*.csv"))


def test_minimax_bandwidth_of_every_n_is_derived_before_any_replication(tmp_path, monkeypatch):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "risk_curve", no_replications)
    cfg = rates_config(tmp_path)
    cfg["estimator"]["lipschitz"] = (1e308 / 200) ** 0.5  # L^2 n overflows from n=512 on
    with pytest.raises(ConfigError, match=r"^\$\.estimator: minimax bandwidth .* n=512, beta=2\.0, d=1$"):
        run_experiment(cfg)


def test_a_fit_degree_with_more_coefficients_than_samples_is_a_config_error_before_any_replication(tmp_path, monkeypatch):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "risk_curve", no_replications)
    cfg = rates_config(tmp_path)
    cfg["estimator"]["beta"] = 1e308  # fit degree holder_floor(beta), about 1e308
    with pytest.raises(ConfigError, match=r"^\$\.estimator: fit degree 1e\+308 has more basis coefficients than n=256 samples$"):
        run_experiment(cfg)
    cfg["estimator"] = {**compare_config(tmp_path)["estimator"], "degree": 256}
    with pytest.raises(ConfigError, match=r"fit degree 256 has more basis coefficients than n=256 samples"):
        run_experiment(cfg)


@pytest.mark.parametrize("section", ["noise", "grid"])
def test_a_rejected_config_creates_no_output_directory(tmp_path, section):
    out = tmp_path / "out"
    cfg = rates_config(out)
    del cfg[section]
    with pytest.raises(ConfigError, match=rf"\$: '{section}' is a required property"):
        run_experiment(cfg)
    assert not out.exists()


def test_an_output_directory_that_cannot_be_made_is_one_config_error_before_any_driver(tmp_path, monkeypatch):
    # the directory is an existing file, or lies under one, in the config
    # or in the output_dir override
    def no_replications(*args, **kwargs):
        raise AssertionError("a driver ran")

    monkeypatch.setattr(experiments, "tail_check", no_replications)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out, override in ((taken, None), (taken / "out", None), (tmp_path / "free", taken)):
        with pytest.raises(ConfigError) as exc:
            run_experiment(_tails_config(out), output_dir=override)
        named = override or out
        message = rf"output directory {re.escape(str(named))}: {re.escape(str(taken))} is not a directory"
        assert re.fullmatch(message, str(exc.value))
    assert taken.read_text() == "" and not (tmp_path / "free").exists()
    # a directory the process may not write into; patched, as the superuser may write anywhere
    monkeypatch.setattr(experiments.os, "access", lambda path, mode: False)
    with pytest.raises(ConfigError, match=rf"^output directory {re.escape(str(tmp_path / 'free'))}: .* is not writable$"):
        run_experiment(_tails_config(tmp_path / "free"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
def test_non_finite_x0_is_a_config_error(tmp_path, value):
    cfg = rates_config(tmp_path)
    cfg["estimator"]["x0"] = [value]
    with pytest.raises(ConfigError, match=r"\$\.estimator\.x0"):
        run_experiment(cfg)
    # so does a config file: Python's json reads NaN and Infinity
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=r"\$\.estimator\.x0"):
        run_experiment(path)
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("kernel", list(_AXIS_PROFILES))
@pytest.mark.parametrize("contrast", list(CONTRAST_KINDS))
def test_every_kernel_and_contrast_kind_builds(kernel, contrast):
    est = {
        **compare_config("unused")["estimator"],
        "kernel": kernel,
        "contrast": {"kind": contrast, **({"gamma": 1.0} if contrast == "huber" else {})},
    }
    fit_cfg = _estimator(est, None).fit_config(est["x0"], 512)
    assert (fit_cfg.kernel.kind, fit_cfg.contrast.kind) == (kernel, contrast)


@pytest.mark.parametrize("kind", list(ESTIMATOR_FIELDS))
def test_every_estimator_kind_builds_with_its_fields(kind):
    est = {
        "kind": kind,
        "contrast": {"kind": "huber", "gamma": 1.0},
        "bound": 8.0,
        "x0": [0.25],
        "h": 0.2,
        "degree": 1,
        "beta": 2.0,
        "lipschitz": 39.5,
        "curvature": 0.3,
    }
    estimator = _estimator(est, None)
    table_fields = {name for fields in ESTIMATOR_FIELDS.values() for name in fields}
    assert {name for name in table_fields if getattr(estimator, name) is not None} == set(ESTIMATOR_FIELDS[kind])


@pytest.mark.parametrize("rule", list(HETEROSCEDASTIC_KINDS))
def test_every_heteroscedastic_rule_builds(rule):
    assert _noise_model({"family": "gaussian", "heteroscedastic": {"kind": rule}}).heteroscedastic.kind == rule


def test_write_csv_writes_a_numpy_float_as_a_float(tmp_path):
    # the repr of a numpy scalar is np.float64(0.1) under numpy 2; the CSV
    # cell is the number alone
    path = tmp_path / "out.csv"
    experiments._write_csv(path, ["x"], [[np.float64(0.1)]])
    assert path.read_bytes() == b"x\r\n0.1\r\n"


def test_write_csv_keeps_the_bytes_of_python_floats_ints_and_blanks(tmp_path):
    path = tmp_path / "out.csv"
    rows = [[0.1, 3, ""], [0.30000000000000004, -0.0, 1e-17], [1e300, 0, 2.5]]
    experiments._write_csv(path, ["a", "b", "c"], rows)
    assert path.read_bytes() == (
        b"a,b,c\r\n0.1,3,\r\n0.30000000000000004,-0.0,1e-17\r\n1e+300,0,2.5\r\n"
    )
