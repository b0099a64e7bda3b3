import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from roblp import cli, experiments
from roblp.cli import _cmd_experiment, build_parser, main
from roblp.contrast import curvature_constant, huber
from roblp.experiments import CONFIG_SCHEMA
from roblp.harness import Estimator
from roblp.lepski import bandwidth_grid
from roblp.local_fit import Dataset, fit_local
from roblp.simulate import NOISE_FAMILIES, NoiseModel, gen_data, sinusoid


@pytest.fixture
def dataset_csv(tmp_path):
    f = sinusoid(beta=2.0)
    model = NoiseModel(family="gaussian", base_scale=0.3)
    data = gen_data(f, model, 600, 1, seed=77)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    return path


@pytest.fixture
def estimator_json(tmp_path):
    path = tmp_path / "estimator.json"
    path.write_text(
        json.dumps(
            {
                "degree": 1,
                "bound": 8.0,
                "kernel": "uniform",
                "contrast": {"kind": "huber", "gamma": 1.0},
                "curvature": 0.38,
            }
        )
    )
    return path


def test_cli_fit(dataset_csv, estimator_json, capsys):
    rc = main(
        [
            "fit",
            "--data",
            str(dataset_csv),
            "--x0",
            "0.25",
            "--h",
            "0.2",
            "--config",
            str(estimator_json),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_local"] > 0
    assert abs(payload["estimate"] - 1.0) < 0.3
    assert payload["indices"] == [[0], [1]]


def test_cli_adapt(dataset_csv, estimator_json, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    rc = main(
        [
            "adapt",
            "--data",
            str(dataset_csv),
            "--x0",
            "0.25",
            "--config",
            str(estimator_json),
            "--json",
            str(trace_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "chosen k:" in out
    assert "estimate:" in out
    trace = json.loads(trace_path.read_text())
    assert "estimates" in trace and trace["estimates"]


def test_cli_adapt_derives_curvature_from_noise(dataset_csv, tmp_path, capsys):
    cfg = tmp_path / "est.json"
    cfg.write_text(
        json.dumps(
            {
                "degree": 2,
                "bound": 8.0,
                "contrast": {"kind": "huber", "gamma": 1.0},
                "noise": {"family": "gaussian", "scale": 0.3},
            }
        )
    )
    trace_path = tmp_path / "trace.json"
    argv = ["adapt", "--data", str(dataset_csv), "--x0", "0.25", "--config", str(cfg)]
    rc = main(argv + ["--json", str(trace_path)])
    assert rc == 0
    assert "chosen k:" in capsys.readouterr().out
    # the Huber curvature of the declared noise, one estimate per grid level
    model = NoiseModel(family="gaussian", base_scale=0.3)
    curvature = curvature_constant(NOISE_FAMILIES["gaussian"], 1.0, model.sigma_min)
    data = Dataset.from_csv(dataset_csv)
    trace = library_estimator("adaptive", degree=2, curvature=curvature).selection_trace(data, [0.25])
    assert json.loads(trace_path.read_text()) == trace.to_dict()
    assert len(trace.estimates) == bandwidth_grid(data.n, 1, 2).k_n + 1


def test_cli_simulate(tmp_path, capsys):
    out_csv = tmp_path / "sim" / "dataset.csv"
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps(
            {
                "function": {"name": "cusp", "beta": 0.5},
                "noise": {"family": "laplace", "scale": 1.0},
                "n": 100,
                "seed": 9,
                "output": str(out_csv),
            }
        )
    )
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 0
    data = Dataset.from_csv(out_csv)
    assert data.n == 100
    sidecar = json.loads(out_csv.with_suffix(".json").read_text())
    assert sidecar["function"]["name"] == "cusp"
    assert sidecar["seed"] == 9


def test_an_output_path_that_cannot_be_written_exits_with_one_line_naming_it(
    tmp_path, dataset_csv, estimator_json, monkeypatch
):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "tail_check", no_replications)
    taken = tmp_path / "taken"
    taken.write_text("")
    sim = tmp_path / "sim.json"
    sim.write_text(
        json.dumps(
            {
                "function": {"name": "cusp", "beta": 0.5},
                "noise": {"family": "laplace", "scale": 1.0},
                "n": 100,
                "seed": 9,
                "output": str(taken / "dataset.csv"),
            }
        )
    )
    adapt = ["adapt", "--data", str(dataset_csv), "--x0", "0.25", "--config", str(estimator_json)]
    for argv, path in (
        (["tails", "--config", tails_config(tmp_path), "--output-dir", str(taken)], taken),
        (adapt + ["--json", str(taken / "trace.json")], taken / "trace.json"),
        (["simulate", "--config", str(sim)], taken / "dataset.csv"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value)
        assert str(path) in message and "\n" not in message, argv[0]
    assert taken.read_text() == ""


def test_an_output_path_that_is_a_directory_exits_with_one_line_before_the_work(
    tmp_path, dataset_csv, estimator_json, monkeypatch
):
    # simulate's dataset and its sidecar, adapt's trace and an experiment's
    # results file: each an existing directory, named before anything runs
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(experiments, "tail_check", no_work)
    monkeypatch.setattr(cli, "gen_data", no_work)
    monkeypatch.setattr(Estimator, "selection_trace", no_work)
    sim = tmp_path / "sim.json"
    adapt = ["adapt", "--data", str(dataset_csv), "--x0", "0.25", "--config", str(estimator_json)]
    tails = ["tails", "--config", tails_config(tmp_path)]
    for argv, taken in (
        (["simulate", "--config", str(sim)], tmp_path / "sim" / "dataset.csv"),
        (["simulate", "--config", str(sim)], tmp_path / "sim" / "dataset.json"),
        (adapt + ["--json", str(tmp_path / "trace.json")], tmp_path / "trace.json"),
        (tails, tmp_path / "out" / "t.csv"),
    ):
        sim.write_text(
            json.dumps(
                {
                    "function": {"name": "cusp", "beta": 0.5},
                    "noise": {"family": "laplace", "scale": 1.0},
                    "n": 100,
                    "seed": 9,
                    "output": str(tmp_path / "sim" / "dataset.csv"),
                }
            )
        )
        taken.mkdir(parents=True)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value)
        assert str(taken) in message and "is a directory" in message and "\n" not in message, argv[0]
        taken.rmdir()


def test_a_dot_dot_behind_a_directory_not_made_yet_is_checked_where_it_leads(tmp_path, monkeypatch):
    # "fresh/../taken.csv" writes taken.csv once fresh is made, so its
    # sidecar taken.json, an existing directory, is named before the draw,
    # and neither the dataset nor fresh is made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken.json").mkdir()
    sim = tmp_path / "sim.json"
    sim.write_text(
        json.dumps(
            {
                "function": {"name": "cusp", "beta": 0.5},
                "noise": {"family": "laplace", "scale": 1.0},
                "n": 100,
                "seed": 9,
                "output": "fresh/../taken.csv",
            }
        )
    )
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(sim)])
    assert str(exc.value) == "output file fresh/../taken.json: is a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.json", "taken.json"]


@pytest.mark.parametrize("command", ["simulate", "adapt"])
def test_an_output_path_ending_in_a_separator_exits_with_one_line_before_the_work(
    tmp_path, dataset_csv, estimator_json, monkeypatch, command
):
    # "out/" names a directory: it must not become a file called "out"
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli, "gen_data", no_work)
    monkeypatch.setattr(Estimator, "selection_trace", no_work)
    out = str(tmp_path / "out") + "/"
    if command == "simulate":
        sim = tmp_path / "sim.json"
        sim.write_text(
            json.dumps(
                {
                    "function": {"name": "cusp", "beta": 0.5},
                    "noise": {"family": "laplace", "scale": 1.0},
                    "n": 100,
                    "seed": 9,
                    "output": out,
                }
            )
        )
        argv = ["simulate", "--config", str(sim)]
    else:
        argv = ["adapt", "--data", str(dataset_csv), "--x0", "0.25", "--config", str(estimator_json)]
        argv += ["--json", out]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value)
    assert out in message and "separator" in message and "\n" not in message
    assert not (tmp_path / "out").exists() and not (tmp_path / "out.json").exists()


def test_cli_adapt_json_makes_its_directory(dataset_csv, estimator_json, tmp_path):
    trace_path = tmp_path / "new" / "dir" / "trace.json"
    argv = ["adapt", "--data", str(dataset_csv), "--x0", "0.25", "--config", str(estimator_json)]
    assert main(argv + ["--json", str(trace_path)]) == 0
    assert "chosen_k" in json.loads(trace_path.read_text())


def test_a_failed_adapt_or_simulate_leaves_no_directory(tmp_path, estimator_json, monkeypatch):
    # an output's directory is made when the output is written, not before
    # the work: an empty window stops adapt, and a failed draw simulate
    data = tmp_path / "five.csv"
    data.write_text("x_1,y\n" + "".join(f"0.{i},1.0\n" for i in range(1, 6)))
    argv = ["adapt", "--data", str(data), "--x0", "0.95", "--config", str(estimator_json)]
    with pytest.raises(SystemExit, match=r"^no samples in the window "):
        main(argv + ["--json", str(tmp_path / "adapt" / "dir" / "trace.json")])

    def failed_draw(*args, **kwargs):
        raise MemoryError("the draw failed")

    monkeypatch.setattr(cli, "gen_data", failed_draw)
    sim = tmp_path / "sim.json"
    sim.write_text(
        json.dumps(
            {
                "function": {"name": "cusp", "beta": 0.5},
                "noise": {"family": "laplace", "scale": 1.0},
                "n": 100,
                "seed": 9,
                "output": str(tmp_path / "sim" / "dir" / "dataset.csv"),
            }
        )
    )
    with pytest.raises(MemoryError, match="the draw failed"):
        main(["simulate", "--config", str(sim)])
    assert not (tmp_path / "adapt").exists() and not (tmp_path / "sim").exists()


def test_cli_rates(tmp_path, capsys):
    cfg = {
        "experiment": "rates",
        "seed": 11,
        "function": {"name": "sinusoid", "beta": 2.0},
        "noise": {"family": "gaussian", "scale": 0.5},
        "estimator": {
            "kind": "minimax",
            "contrast": {"kind": "huber", "gamma": 1.0},
            "bound": 8.0,
            "x0": [0.25],
            "beta": 2.0,
            "lipschitz": 39.5,
        },
        "grid": {"n_values": [256, 512, 1024, 2048]},
        "risk": {"replications": 30},
        "output": {"directory": str(tmp_path / "out"), "prefix": "r"},
    }
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(cfg))
    rc = main(["rates", "--config", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rate_fit" in out
    assert (tmp_path / "out" / "r.csv").exists()
    assert (tmp_path / "out" / "r_manifest.json").exists()


def config_subcommands():
    """The subcommands that run an experiment config."""
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name for name, sub in subcommands.choices.items() if sub.get_default("func") is _cmd_experiment}


def test_config_experiments_are_the_cli_subcommands():
    assert set(CONFIG_SCHEMA["properties"]["experiment"]["enum"]) == config_subcommands() == {
        "rates",
        "tails",
        "compare",
    }


@pytest.mark.parametrize("experiment", ["fit", "adapt"])
def test_cli_rejects_single_fit_experiment_configs(tmp_path, experiment):
    cfg = json.loads(Path(tails_config(tmp_path)).read_text())
    cfg["experiment"] = experiment
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=rf"\$\.experiment: '{experiment}' is not one of"):
        main(["tails", "--config", str(path)])


def test_cli_simulate_then_fit_or_adapt_is_the_fit_on_simulated_data(tmp_path, estimator_json, capsys):
    # the dataset CSV round trip is exact, so the CLI fits the simulated data
    out_csv = tmp_path / "sinusoid_cauchy.csv"
    sim = {
        "function": {"name": "sinusoid", "beta": 2.0},
        "noise": {"family": "cauchy", "scale": 1.0},
        "n": 2048,
        "seed": 11,
        "output": str(out_csv),
    }
    sim_path = tmp_path / "sim.json"
    sim_path.write_text(json.dumps(sim))
    main(["simulate", "--config", str(sim_path)])
    capsys.readouterr()
    data = gen_data(sinusoid(beta=2.0), NoiseModel(family="cauchy", base_scale=1.0), 2048, 1, 11)

    data_args = ["--data", str(out_csv), "--x0", "0.25", "--config", str(estimator_json)]
    main(["fit", "--h", "0.2"] + data_args)
    fit = fit_local(data, library_estimator("fixed", h=0.2, degree=1).fit_config([0.25], data.n))
    assert json.loads(capsys.readouterr().out)["estimate"] == fit.estimate

    trace_path = tmp_path / "trace.json"
    main(["adapt", "--json", str(trace_path)] + data_args)
    trace = library_estimator("adaptive", degree=1, curvature=0.38).selection_trace(data, [0.25])
    assert json.loads(trace_path.read_text()) == trace.to_dict()


def test_cli_rejects_mismatched_experiment(tmp_path):
    cfg = {
        "experiment": "compare",
        "seed": 1,
        "function": {"name": "constant", "value": 0.0},
        "noise": {"family": "gaussian"},
        "estimator": {
            "kind": "fixed",
            "contrast": {"kind": "huber", "gamma": 1.0},
            "bound": 1.0,
            "x0": [0.5],
            "h": 0.5,
            "degree": 0,
        },
        "grid": {"n": 64},
        "risk": {"replications": 30},
        "output": {"directory": str(tmp_path), "prefix": "x"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match="compare"):
        main(["rates", "--config", str(path)])


def test_cli_reports_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": "rates", "seed": -3}))
    with pytest.raises(SystemExit, match=r"\$\."):
        main(["rates", "--config", str(path)])


def test_cli_adapt_non_huber_noise_needs_curvature(dataset_csv, tmp_path):
    # the curvature is derived from the Huber threshold only; other
    # contrasts get the experiment path's config error, not a KeyError
    cfg = tmp_path / "est.json"
    cfg.write_text(
        json.dumps(
            {
                "degree": 1,
                "bound": 8.0,
                "contrast": {"kind": "absolute"},
                "noise": {"family": "gaussian", "scale": 0.3},
            }
        )
    )
    with pytest.raises(SystemExit, match=r"\$\.estimator\.curvature"):
        main(["adapt", "--data", str(dataset_csv), "--x0", "0.25", "--config", str(cfg)])


def write_settings(tmp_path, **changes):
    settings = {
        "degree": 1,
        "bound": 8.0,
        "kernel": "uniform",
        "contrast": {"kind": "huber", "gamma": 1.0},
        "curvature": 0.38,
    }
    settings.update(changes)
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({k: v for k, v in settings.items() if v is not None}))
    return str(path)


def library_estimator(kind, **fields):
    return Estimator(kind=kind, contrast=huber(1.0), kernel_kind="uniform", bound=8.0, **fields)


def test_cli_fit_is_the_library_fit(dataset_csv, estimator_json, capsys):
    main(["fit", "--data", str(dataset_csv), "--x0", "0.25", "--h", "0.2", "--config", str(estimator_json)])
    payload = json.loads(capsys.readouterr().out)
    data = Dataset.from_csv(dataset_csv)
    estimator = library_estimator("fixed", h=0.2, degree=1)
    result = fit_local(data, estimator.fit_config([0.25], data.n))
    assert payload["estimate"] == result.estimate
    assert payload["coefficients"] == result.theta_hat.values.tolist()


def test_cli_adapt_json_is_the_library_trace(dataset_csv, estimator_json, tmp_path):
    trace_path = tmp_path / "trace.json"
    argv = ["adapt", "--data", str(dataset_csv), "--x0", "0.25", "--config", str(estimator_json)]
    main(argv + ["--json", str(trace_path)])
    estimator = library_estimator("adaptive", degree=1, curvature=0.38)
    trace = estimator.selection_trace(Dataset.from_csv(dataset_csv), [0.25])
    assert trace_path.read_text() == json.dumps(trace.to_dict(), indent=2, sort_keys=True) + "\n"


FIT, ADAPT = ["fit", "--h", "0.2"], ["adapt"]
MISSING_DEGREE = r"\$\.estimator: 'degree' is a required property"
TYPO = r"\$\.estimator: .*'max_iteration' was unexpected"


@pytest.mark.parametrize(
    "command, changes, message",
    [
        (FIT, {"degree": None}, MISSING_DEGREE),
        (ADAPT, {"degree": None}, MISSING_DEGREE),
        (FIT, {"max_iteration": 10}, TYPO),
        (ADAPT, {"max_iteration": 10}, TYPO),
        (ADAPT, {"curvature": None}, r"\$\.estimator\.curvature: required without a noise section"),
        (
            ADAPT,
            {"curvature": None, "noise": {"family": "gaussian", "scale": 0.5, "sigma_min": 0.8}},
            r"\$\.noise: sigma_min 0\.8 exceeds the smallest emitted scale 0\.5",
        ),
        # the command line supplies these; a settings file that sets them is refused
        (FIT, {"kind": "minimax"}, r"\$\.estimator\.kind: set by the subcommand, fit or adapt"),
        (ADAPT, {"x0": [0.9]}, r"\$\.estimator\.x0: set by --x0"),
        (FIT, {"h": 0.9}, r"\$\.estimator\.h: set by fit's --h"),
    ],
    ids=[
        "fit-no-degree", "adapt-no-degree", "fit-typo", "adapt-typo", "adapt-no-curvature",
        "adapt-noise-value", "fit-kind", "adapt-x0", "fit-h",
    ],
)
def test_cli_settings_errors_exit_with_field_paths(dataset_csv, tmp_path, command, changes, message):
    argv = command + ["--data", str(dataset_csv), "--x0", "0.25", "--config", write_settings(tmp_path, **changes)]
    with pytest.raises(SystemExit, match=message):
        main(argv)


def test_cli_settings_errors_in_both_sections_are_one_message(dataset_csv, tmp_path):
    # the settings and their noise section are validated as one document
    settings = write_settings(tmp_path, max_iteration=10, noise={"family": "gaussian", "sclae": 0.5})
    with pytest.raises(SystemExit) as exc:
        main(FIT + ["--data", str(dataset_csv), "--x0", "0.25", "--config", settings])
    lines = str(exc.value).splitlines()
    assert len(lines) == 3 and lines[0] == "invalid experiment config:"
    assert lines[1].startswith("  $.estimator: ") and "'max_iteration' was unexpected" in lines[1]
    assert lines[2].startswith("  $.noise: ") and "'sclae' was unexpected" in lines[2]


@pytest.mark.parametrize("command", [FIT, ADAPT], ids=["fit", "adapt"])
def test_cli_settings_null_noise_is_no_noise(dataset_csv, estimator_json, tmp_path, capsys, command):
    with_null = tmp_path / "null_noise.json"
    with_null.write_text(json.dumps({**json.loads(estimator_json.read_text()), "noise": None}))
    outputs = []
    for settings in (estimator_json, with_null):
        assert main(command + ["--data", str(dataset_csv), "--x0", "0.25", "--config", str(settings)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_each_entry_point_validates_its_config_once(dataset_csv, tmp_path, monkeypatch):
    calls = []
    validate = experiments._validate

    def counted(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    # the CLI calls _validate through its own import of the name
    monkeypatch.setattr(experiments, "_validate", counted)
    monkeypatch.setattr(cli, "_validate", counted)
    tails = tails_config(tmp_path)
    sim = tmp_path / "sim.json"
    sim.write_text(
        json.dumps(
            {
                "function": {"name": "cusp", "beta": 0.5},
                "noise": {"family": "laplace", "scale": 1.0},
                "n": 100,
                "seed": 9,
                "output": str(tmp_path / "sim" / "dataset.csv"),
            }
        )
    )
    # settings with a noise section, which the estimator settings and the
    # flags are validated with
    settings = write_settings(tmp_path, noise={"family": "gaussian", "scale": 0.3})
    data = ["--data", str(dataset_csv), "--x0", "0.25", "--config", settings]
    entry_points = {
        "run_experiment": lambda: experiments.run_experiment(json.loads(Path(tails).read_text())),
        "tails": lambda: main(["tails", "--config", tails, "--output-dir", str(tmp_path / "cli")]),
        "simulate": lambda: main(["simulate", "--config", str(sim)]),
        "fit": lambda: main(FIT + data),
        "adapt": lambda: main(ADAPT + data),
    }
    counts = {}
    for name, run in entry_points.items():
        calls.clear()
        run()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(entry_points, 1)


def tails_config(tmp_path, function=None, noise=None, **estimator):
    cfg = {
        "experiment": "tails",
        "seed": 4,
        "function": function or {"name": "sinusoid", "beta": 2.0},
        "noise": noise or {"family": "gaussian", "scale": 0.5},
        "estimator": {
            "kind": "fixed",
            "contrast": {"kind": "huber", "gamma": 1.0},
            "bound": 8.0,
            "x0": [0.25],
            "h": 0.2,
            "degree": 1,
            **estimator,
        },
        "grid": {"n": 256, "epsilon_multipliers": [1.0, 8.0]},
        "risk": {"replications": 100},
        "output": {"directory": str(tmp_path / "out"), "prefix": "t"},
    }
    path = tmp_path / "tails.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("workers", ["0", "two", "-1", "1.5"])
def test_cli_rejects_bad_worker_count(tmp_path, monkeypatch, workers):
    monkeypatch.setenv("ROBLP_WORKERS", workers)
    with pytest.raises(SystemExit, match=r"ROBLP_WORKERS must be a positive integer"):
        main(["tails", "--config", tails_config(tmp_path)])
    assert not (tmp_path / "out" / "t.csv").exists()


def test_cli_worker_count_stays_out_of_the_manifest(tmp_path, monkeypatch):
    path = tails_config(tmp_path)
    outputs = []
    for workers in ("2", "1"):
        monkeypatch.setenv("ROBLP_WORKERS", workers)
        main(["tails", "--config", path, "--output-dir", str(tmp_path / workers)])
        outputs.append([(tmp_path / workers / name).read_bytes() for name in ("t.csv", "t_manifest.json")])
        path = str(tmp_path / workers / "t_manifest.json")  # the rerun starts from the manifest
    assert outputs[0] == outputs[1]
    assert "workers" not in json.loads(outputs[0][1])["config"]["risk"]


def test_cli_experiment_config_errors_exit_with_message(tmp_path):
    path = tails_config(tmp_path, kind="adaptive", curvature=0.38)
    with pytest.raises(SystemExit, match=r"\$\.estimator\.kind: tails experiment needs a single bandwidth"):
        main(["tails", "--config", path])


SINUSOID = {"name": "sinusoid", "beta": 2.0}
GAUSSIAN = {"family": "gaussian", "scale": 0.5}


@pytest.mark.parametrize(
    "function, noise, x0, message",
    [
        ({"name": "sinusiod", "beta": 2.0}, GAUSSIAN, [0.25], r"\$\.function: unknown test function 'sinusiod'"),
        ({"name": "sinusoid"}, GAUSSIAN, [0.25], r"\$\.function: 'beta' is a required property of 'sinusoid'"),
        ({"name": "cusp", "beta": 2.0}, GAUSSIAN, [0.25], r"\$\.function: cusp smoothness must be in \(0, 1\]"),
        (
            SINUSOID,
            {**GAUSSIAN, "heteroscedastic": {"kind": "alternating", "factr": 2.0}},
            [0.25],
            r"\$\.noise\.heteroscedastic: Additional properties are not allowed \('factr' was unexpected\)",
        ),
        (
            SINUSOID,
            {**GAUSSIAN, "heteroscedastic": {"kind": "alternating", "factor": 0.5}},
            [0.25],
            r"\$\.noise: alternating factor must be >= 1",
        ),
        (
            SINUSOID,
            {**GAUSSIAN, "sigma_min": 0.8},
            [0.25],
            r"\$\.noise: sigma_min 0\.8 exceeds the smallest emitted scale 0\.5",
        ),
        (SINUSOID, GAUSSIAN, [0.25, 0.5], r"\$\.estimator\.x0: 2 coordinates, but function 'sinusoid' has dimension 1"),
    ],
    ids=["unknown-name", "missing-beta", "cusp-beta", "rule-typo", "rule-factor", "sigma-min", "x0-dimension"],
)
def test_cli_function_and_noise_errors_exit_with_message(tmp_path, function, noise, x0, message):
    path = tails_config(tmp_path, function=function, noise=noise, x0=x0)
    with pytest.raises(SystemExit, match=message):
        main(["tails", "--config", path])
    assert not (tmp_path / "out" / "t.csv").exists()


@pytest.mark.parametrize("command", ["rates", "tails", "compare"])
def test_cli_function_errors_exit_for_every_experiment(tmp_path, command):
    tails_config(tmp_path, function={"name": "sinusoid"})
    cfg = json.loads((tmp_path / "tails.json").read_text())
    cfg["experiment"] = command
    cfg["grid"]["n_values"] = [256, 512, 1024, 2048]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=r"\$\.function: 'beta' is a required property"):
        main([command, "--config", str(path)])


@pytest.mark.parametrize(
    "changes, message",
    [
        (
            {"noise": {"family": "laplace", "sclae": 3.0}},
            r"\$\.noise: Additional properties are not allowed \('sclae' was unexpected\)",
        ),
        ({"noise": {"family": "laplace", "scale": -1.0}}, r"\$\.noise\.scale: -1\.0 is less than or equal"),
        ({"function": {"name": "sinusiod", "beta": 2.0}}, r"\$\.function: unknown test function 'sinusiod'"),
        ({"function": {"name": "cusp"}}, r"\$\.function: 'beta' is a required property of 'cusp'"),
        (
            {"function": {"name": "sinusoid", "beta": 2.0, "amplitdue": 3.0}},
            r"\$\.function: Additional properties are not allowed \('amplitdue' was unexpected\)",
        ),
        ({"function": {"name": "sinusoid", "beta": "2"}}, r"\$\.function\.beta: '2' is not of type 'number'"),
    ],
    ids=["noise-typo", "noise-scale", "function-name", "function-beta", "function-typo", "function-type"],
)
def test_cli_simulate_checks_its_sections(tmp_path, changes, message):
    out_csv = tmp_path / "sim" / "dataset.csv"
    cfg = {
        "function": {"name": "cusp", "beta": 0.5},
        "noise": {"family": "laplace", "scale": 1.0},
        "n": 100,
        "seed": 9,
        "output": str(out_csv),
        **changes,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=message):
        main(["simulate", "--config", str(path)])
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "changes, dropped, message",
    [
        ({"d": 2}, None, r"\$: Additional properties are not allowed \('d' was unexpected\)"),
        ({"output": {}}, None, r"\$\.output: \{\} is not of type 'string'"),
        ({"sede": 9}, "seed", r"\$: 'seed' is a required property"),
    ],
    ids=["d", "output-dict", "seed-typo"],
)
def test_cli_simulate_checks_its_top_level(tmp_path, changes, dropped, message):
    cfg = {
        "function": {"name": "sinusoid", "beta": 2.0},
        "noise": {"family": "gaussian", "scale": 0.5},
        "n": 100,
        "seed": 9,
        "output": str(tmp_path / "sim" / "dataset.csv"),
        **changes,
    }
    cfg.pop(dropped, None)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=message):
        main(["simulate", "--config", str(path)])
    assert not list(tmp_path.rglob("*.csv"))


def test_cli_simulate_refuses_an_output_its_sidecar_would_overwrite(tmp_path, monkeypatch):
    # the sidecar is the output with suffix .json: a .json output would be
    # written, then overwritten by it
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli, "gen_data", no_work)
    out = tmp_path / "sim" / "dataset.json"
    cfg = {
        "function": {"name": "sinusoid", "beta": 2.0},
        "noise": {"family": "gaussian", "scale": 0.5},
        "n": 100,
        "seed": 9,
        "output": str(out),
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(path)])
    message = str(exc.value)
    assert message.startswith("$.output: ") and str(out) in message and "\n" not in message
    assert not (tmp_path / "sim").exists()


def test_cli_simulate_takes_the_dimension_from_the_function(tmp_path):
    out_csv = tmp_path / "product.csv"
    cfg = {
        "function": {"name": "product_sinusoid", "beta": 2.0},
        "noise": {"family": "gaussian", "scale": 0.5},
        "n": 50,
        "seed": 3,
        "output": str(out_csv),
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    assert out_csv.read_text().splitlines()[0] == "x_1,x_2,y"
    assert json.loads(out_csv.with_suffix(".json").read_text())["d"] == 2


@pytest.mark.parametrize("command", [FIT, ADAPT], ids=["fit", "adapt"])
def test_cli_x0_must_match_the_data_dimension(dataset_csv, estimator_json, command):
    argv = command + ["--data", str(dataset_csv), "--x0", "0.25", "0.3", "--config", str(estimator_json)]
    with pytest.raises(SystemExit, match=r"--x0: 2 coordinates, but .*data\.csv has dimension 1"):
        main(argv)


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("tails", ("grid", "n"), 256.0),
        ("tails", ("seed",), 4.0),
        ("tails", ("risk", "replications"), 100.0),
        ("tails", ("risk", "workers"), 2.0),
        ("tails", ("estimator", "degree"), 1.0),
        ("simulate", ("n",), 100.0),
    ],
    ids=["grid.n", "seed", "replications", "workers", "degree", "simulate-n"],
)
def test_integral_floats_are_not_integers(tmp_path, command, path, value):
    if command == "simulate":
        cfg = {
            "function": SINUSOID,
            "noise": GAUSSIAN,
            "n": 100,
            "seed": 9,
            "output": str(tmp_path / "sim" / "dataset.csv"),
        }
    else:
        cfg = json.loads(Path(tails_config(tmp_path)).read_text())
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=rf"\$\.{'.'.join(path)}: {value!r} is not of type 'integer'"):
        main([command, "--config", str(config)])
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "reps, n_values, message",
    [
        (29, [256, 512, 1024, 2048], r"\$\.risk\.replications: need at least 30 replications, got 29"),
        (30, [256, 512, 1024], r"\$\.grid\.n_values: need at least 4 sample sizes"),
        (30, [256, 384, 512, 768], r"\$\.grid\.n_values: sample sizes must span at least two dyadic octaves"),
    ],
    ids=["replications", "sizes", "span"],
)
def test_cli_rates_limits_exit_before_any_replication(tmp_path, monkeypatch, reps, n_values, message):
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "risk_curve", no_replications)
    cfg = json.loads(Path(tails_config(tmp_path)).read_text())
    cfg.update(experiment="rates", grid={"n_values": n_values}, risk={"replications": reps})
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=message):
        main(["rates", "--config", str(path)])
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", [FIT, ADAPT], ids=["fit", "adapt"])
def test_cli_data_errors_exit_naming_the_file(tmp_path, estimator_json, command):
    outside = tmp_path / "outside.csv"
    outside.write_text("x_1,y\n0.1,1.0\n1.2,1.0\n")
    missing = tmp_path / "missing.csv"
    wide = tmp_path / "wide.csv"
    wide.write_text("x_1,y\n0.4,1.0\n0.5,1,5\n0.6,1.0\n")
    for data, message in (
        (outside, r"outside\.csv: design points must lie in \[0,1\]\^d"),
        (missing, r"No such file or directory: .*missing\.csv"),
        (wide, r"wide\.csv: line 3 has 3 fields, the header 2$"),
    ):
        argv = command + ["--data", str(data), "--x0", "0.5", "--config", str(estimator_json)]
        with pytest.raises(SystemExit, match=message):
            main(argv)


@pytest.mark.parametrize(
    "command",
    [
        ["fit", "--data", "DATA", "--x0", "0.5", "--h", "0.3"],
        ["adapt", "--data", "DATA", "--x0", "0.5"],
        ["simulate"],
        ["rates"],
        ["tails"],
        ["compare"],
    ],
    ids=lambda command: command[0],
)
def test_cli_missing_config_exits_naming_the_file(dataset_csv, tmp_path, command):
    argv = [str(dataset_csv) if arg == "DATA" else arg for arg in command]
    with pytest.raises(SystemExit, match=r"^\S*nope\.json: No such file or directory$"):
        main(argv + ["--config", str(tmp_path / "nope.json")])
    # so does a config whose top level is valid JSON but not an object
    path = tmp_path / "scalar.json"
    for document in ([1, 2], "my config"):
        path.write_text(json.dumps(document))
        with pytest.raises(SystemExit, match=r"^\S*scalar\.json: the top level is not a JSON object$"):
            main(argv + ["--config", str(path)])


def test_cli_adapt_degree_zero_exits_with_its_path(dataset_csv, tmp_path):
    argv = ADAPT + ["--data", str(dataset_csv), "--x0", "0.25", "--config", write_settings(tmp_path, degree=0)]
    with pytest.raises(SystemExit, match=r"\$\.estimator\.degree: 0 is less than the minimum of 1"):
        main(argv)


def test_cli_fit_at_degree_zero_converges(dataset_csv, tmp_path, capsys):
    # only the adaptive kind needs degree >= 1
    argv = FIT + ["--data", str(dataset_csv), "--x0", "0.25", "--config", write_settings(tmp_path, degree=0)]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"]
    assert payload["indices"] == [[0]]


@pytest.mark.parametrize(
    "command, message",
    [
        (["fit", "--h", "0.01"], r"^no samples in the window of side 0\.01 centered at \(0\.95,\)$"),
        (ADAPT, r"^no samples in the window of side .* centered at \(0\.95,\) \(grid index k=0\)$"),
    ],
    ids=["fit", "adapt"],
)
def test_cli_empty_window_exits_naming_the_window(tmp_path, estimator_json, command, message):
    data = tmp_path / "five.csv"
    data.write_text("x_1,y\n" + "".join(f"0.{i},1.0\n" for i in range(1, 6)))
    argv = command + ["--data", str(data), "--x0", "0.95", "--config", str(estimator_json)]
    with pytest.raises(SystemExit, match=message):
        main(argv)


def test_cli_adapt_on_a_sample_too_small_for_the_grid_exits_with_one_line(tmp_path, estimator_json):
    data = tmp_path / "ten.csv"
    data.write_text("x_1,y\n" + "".join(f"0.{i}5,1.0\n" for i in range(10)))
    argv = ADAPT + ["--data", str(data), "--x0", "0.5", "--config", str(estimator_json)]
    message = r"^--data: \S*ten\.csv is too small for the bandwidth grid: grid empty: .* for n=10, d=1, b=1$"
    with pytest.raises(SystemExit, match=message):
        main(argv)


@pytest.mark.parametrize("command", [FIT, ADAPT], ids=["fit", "adapt"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_non_finite_x0_exits_with_its_path(dataset_csv, estimator_json, command, value):
    argv = command + ["--data", str(dataset_csv), f"--x0={value}", "--config", str(estimator_json)]
    with pytest.raises(SystemExit, match=r"\$\.estimator\.x0"):
        main(argv)


COMPARE_CAUCHY = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "compare_cauchy.json"


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        (
            "estimator",
            "lipschitz",
            1e-300,
            r"^\$\.estimator: minimax bandwidth .* is not a positive finite number for lipschitz=1e-300, n=4096,",
        ),
        (
            "estimator",
            "lipschitz",
            1e300,
            r"^\$\.estimator: minimax bandwidth .* is not a positive finite number for lipschitz=1e\+300, n=4096,",
        ),
        ("noise", "scale", 1e308, r"^\$\.noise: the largest noise draw, scale 1e\+308 .* is not finite$"),
        ("grid", "n", 1, r"^\d+/500 replications had empty windows at n=1, more than the 1% a run allows$"),
    ],
    ids=["lipschitz-tiny", "lipschitz-huge", "noise-scale", "grid-n-1"],
)
def test_cli_compare_exits_with_one_line(tmp_path, monkeypatch, section, key, value, message):
    monkeypatch.delenv("ROBLP_WORKERS", raising=False)
    cfg = json.loads(COMPARE_CAUCHY.read_text())
    cfg[section][key] = value
    path = tmp_path / "compare.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=message) as exc:
        main(["compare", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert "\n" not in str(exc.value)
    assert not (tmp_path / "out").exists()
