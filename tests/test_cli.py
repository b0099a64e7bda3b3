import json

import numpy as np
import pytest

from roblp.cli import main
from roblp.local_fit import Dataset
from roblp.simulate import NoiseModel, gen_data, sinusoid


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
                "degree": 1,
                "bound": 8.0,
                "contrast": {"kind": "huber", "gamma": 1.0},
                "noise": {"family": "gaussian", "scale": 0.3},
            }
        )
    )
    rc = main(["adapt", "--data", str(dataset_csv), "--x0", "0.25", "--config", str(cfg)])
    assert rc == 0
    assert "chosen k:" in capsys.readouterr().out


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


def test_cli_rejects_mismatched_experiment(tmp_path):
    cfg = {
        "experiment": "compare",
        "seed": 1,
        "estimator": {
            "kind": "fixed",
            "contrast": {"kind": "huber", "gamma": 1.0},
            "bound": 1.0,
            "x0": [0.5],
            "h": 0.5,
            "degree": 0,
        },
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
