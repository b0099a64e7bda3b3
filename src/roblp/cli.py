"""Command line entry points.

Subcommands:
  fit       fit one bandwidth on a CSV dataset
  adapt     run the data-driven bandwidth selection on a CSV dataset
  simulate  write a synthetic dataset CSV plus a JSON sidecar
  rates     config-driven convergence-rate experiment
  tails     config-driven deviation-tail experiment
  compare   config-driven contrast comparison

Config-driven subcommands take a JSON experiment config (see the schema
in roblp.experiments).  ROBLP_WORKERS, a positive integer, sets the
replication worker count for config-driven runs unless the config pins
one.  ``fit`` and ``adapt`` take estimator settings: the ``estimator``
section of an experiment config without kind, x0 and h, plus an optional
``noise`` section.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    CONFIG_SCHEMA,
    ConfigError,
    _check_output_file,
    _check_sizes,
    _estimator,
    _noise_model,
    _read_json,
    _run_config,
    _test_function,
    _validate,
    load_config,
)
from .harness import TooManyFailuresError
from .local_fit import Dataset, EmptyNeighborhoodError, fit_local
from .simulate import gen_data


def _load_data(path) -> Dataset:
    """The dataset CSV at ``path``; a missing or invalid file exits with a
    message naming it."""
    try:
        return Dataset.from_csv(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))


# The flag or subcommand that supplies each estimator key a settings file omits.
_SUPPLIED = {"kind": "the subcommand, fit or adapt", "x0": "--x0", "h": "fit's --h (adapt selects h)"}

# A ``fit``/``adapt`` document: the settings with the flags added, as an
# experiment config's estimator section, and the optional noise section.
_SETTINGS_SCHEMA = {
    "properties": {name: CONFIG_SCHEMA["properties"][name] for name in ("estimator", "noise")}
}


def _load_estimator(args, data: Dataset, kind: str, **flags):
    """The Estimator of a ``fit``/``adapt`` settings JSON.  Its optional
    ``noise`` section (null is absent) is split off; the rest, with
    ``kind``, ``x0`` and the other flags added, is ``$.estimator``.  The
    two are validated as one document, then the estimator is checked
    against the size of ``data`` as an experiment's against its smallest
    n.  A settings key the command line supplies is a ConfigError.
    ``--x0`` must match the dimension of ``data``."""
    if len(args.x0) != data.d:
        raise SystemExit(
            f"--x0: {len(args.x0)} coordinates, but {args.data} has dimension {data.d}"
        )
    settings = _read_json(args.config)
    for key, source in _SUPPLIED.items():
        if key in settings:
            raise ConfigError(f"$.estimator.{key}: set by {source}, not by the settings file")
    noise = settings.pop("noise", None)
    document = {"estimator": {**settings, "kind": kind, "x0": args.x0, **flags}}
    if noise is not None:
        document["noise"] = noise
    _validate(document, _SETTINGS_SCHEMA)
    model = None if noise is None else _noise_model(noise)
    estimator = _estimator(document["estimator"], model)
    _check_sizes(estimator, [data.n], args.x0, f"--data: {args.data} is too small for the bandwidth grid")
    return estimator


def _cmd_fit(args) -> int:
    data = _load_data(args.data)
    estimator = _load_estimator(args, data, "fixed", h=args.h)
    cfg = estimator.fit_config(args.x0, data.n)
    result = fit_local(data, cfg)
    payload = {
        "estimate": result.estimate,
        "coefficients": result.theta_hat.values.tolist(),
        "indices": [list(p) for p in cfg.index_set.indices],
        "n_local": result.n_local,
        "iterations": result.iterations,
        "stationarity_gap": result.stationarity_gap,
        "converged": result.converged,
        "underdetermined": result.underdetermined,
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_adapt(args) -> int:
    data = _load_data(args.data)
    estimator = _load_estimator(args, data, "adaptive")
    if args.json:
        _check_output_file(args.json)
    trace = estimator.selection_trace(data, args.x0)

    print(f"chosen k: {trace.chosen_k}")
    print(f"bandwidth: {trace.selected_bandwidth!r}")
    print(f"estimate: {trace.selected!r}")
    print(f"{'k':>3} {'l':>3} {'difference':>14} {'threshold':>14} pass")
    for chk in trace.pairwise_checks:
        print(
            f"{chk.k:>3} {chk.l:>3} {chk.difference:>14.6g} {chk.threshold:>14.6g}"
            f" {'yes' if chk.passed else 'no'}"
        )
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(trace.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


# A ``simulate`` config; its function, noise and seed are checked as in
# experiment configs, and n as an experiment's grid.n.
_SIMULATE_SCHEMA = {
    "type": "object",
    "required": ["function", "noise", "n", "seed", "output"],
    "additionalProperties": False,
    "properties": {
        "function": CONFIG_SCHEMA["properties"]["function"],
        "noise": CONFIG_SCHEMA["properties"]["noise"],
        "n": CONFIG_SCHEMA["properties"]["grid"]["properties"]["n"],
        "seed": CONFIG_SCHEMA["properties"]["seed"],
        "output": {"type": "string"},
    },
}


def _cmd_simulate(args) -> int:
    cfg = _read_json(args.config)
    _validate(cfg, _SIMULATE_SCHEMA)
    if Path(cfg["output"]).suffix == ".json":
        raise ConfigError(f"$.output: {cfg['output']!r} ends in .json, the suffix of its sidecar")
    model = _noise_model(cfg["noise"])
    f = _test_function(cfg["function"], model)
    _check_output_file(cfg["output"])
    out = Path(cfg["output"])
    side_path = out.with_suffix(".json")
    _check_output_file(side_path)
    data = gen_data(f, model, cfg["n"], f.d, cfg["seed"])
    out.parent.mkdir(parents=True, exist_ok=True)
    data.to_csv(out)
    sidecar = {
        "function": f.to_config(),
        "noise": model.to_config(),
        "n": cfg["n"],
        "d": f.d,
        "seed": cfg["seed"],
        "csv": out.name,
    }
    side_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} and {side_path}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    if cfg["experiment"] != args.experiment:
        raise SystemExit(
            f"config is for experiment {cfg['experiment']!r}, not {args.experiment!r}"
        )
    result = _run_config(cfg, output_dir=args.output_dir)
    print(json.dumps(result["summary"], indent=2, sort_keys=True))
    print(f"wrote {result['csv']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roblp",
        description="robust local polynomial regression at a point",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one bandwidth on a CSV dataset")
    p_fit.add_argument("--data", required=True, help="dataset CSV (x_1..x_d,y)")
    p_fit.add_argument("--x0", required=True, type=float, nargs="+", help="target point")
    p_fit.add_argument("--h", required=True, type=float, help="bandwidth")
    p_fit.add_argument("--config", required=True, help="estimator settings JSON")
    p_fit.set_defaults(func=_cmd_fit)

    p_adapt = sub.add_parser("adapt", help="data-driven bandwidth selection")
    p_adapt.add_argument("--data", required=True)
    p_adapt.add_argument("--x0", required=True, type=float, nargs="+")
    p_adapt.add_argument("--config", required=True, help="estimator settings JSON")
    p_adapt.add_argument("--json", help="also write the selection trace JSON here")
    p_adapt.set_defaults(func=_cmd_adapt)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset")
    p_sim.add_argument("--config", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    for name, desc in (
        ("rates", "convergence-rate experiment"),
        ("tails", "deviation-tail experiment"),
        ("compare", "contrast comparison experiment"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--output-dir", help="override the config output directory")
        p.set_defaults(func=_cmd_experiment, experiment=name)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a config error, an empty fitting window (its
    message names the window, and the grid index within a selection) or an
    experiment aborted for too many empty windows exits with its message."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EmptyNeighborhoodError, TooManyFailuresError) as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
