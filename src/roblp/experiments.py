"""Config-driven experiments with reproducible outputs.

An experiment is one of the Monte Carlo studies ``rates``, ``tails`` and
``compare``, given as a JSON config with sections {function, noise,
estimator, grid, risk, output}; a single fit or selection trace on
simulated data is ``roblp simulate`` followed by ``roblp fit`` or
``roblp adapt``.  Running one writes a results CSV plus a JSON
summary and a manifest recording the exact config, its hash, the derived
numeric constants and library versions.  Outputs are pure functions of
the config (seed included), so a rerun — including a rerun started from
the manifest — reproduces the CSV byte for byte.

Each config document is validated once against its JSON Schema by
``_validate``, which implements the Draft 2020-12 keywords the schemas
use, in jsonschema's words (jsonschema, its test oracle, is not a
dependency).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .contrast import CONTRAST_KINDS, ContrastSpec, curvature_constant
from .harness import (
    ESTIMATOR_FIELDS,
    Estimator,
    _check_rate_sizes,
    _check_replications,
    _validity_threshold,
    compare_contrasts,
    rate_fit,
    risk_curve,
    tail_check,
)
from .kernels import _AXIS_PROFILES, procedure_constants
from .lepski import bandwidth_grid
from .local_fit import OptimizerSettings
from .simulate import (
    HETEROSCEDASTIC_KINDS,
    NOISE_FAMILIES,
    TEST_FUNCTIONS,
    NoiseModel,
    TestFunction,
    make_test_function,
)

__all__ = ["ConfigError", "load_config", "run_experiment", "CONFIG_SCHEMA"]

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["experiment", "seed", "function", "noise", "estimator", "grid", "risk", "output"],
    "additionalProperties": False,
    # the grid fields each experiment reads
    "allOf": [
        {
            "if": {"required": ["experiment"], "properties": {"experiment": {"const": experiment}}},
            "then": {"properties": {"grid": {"required": fields}}},
        }
        for experiment, fields in (
            ("rates", ["n_values"]),
            ("tails", ["n", "epsilon_multipliers"]),
            ("compare", ["n"]),
        )
    ],
    "properties": {
        "experiment": {"enum": ["rates", "tails", "compare"]},
        "seed": {"type": "integer", "minimum": 0},
        "function": {
            "type": "object",
            "required": ["name"],
            "properties": {"name": {"type": "string"}},
            "allOf": [
                {
                    "if": {"required": ["name"], "properties": {"name": {"const": name}}},
                    "then": {"properties": {"name": True, **params}, "additionalProperties": False},
                }
                for name, (_, params) in TEST_FUNCTIONS.items()
            ],
        },
        "noise": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": sorted(NOISE_FAMILIES)},
                "scale": {"type": "number", "exclusiveMinimum": 0},
                "sigma_min": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "heteroscedastic": {
                    "type": ["object", "null"],
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": list(HETEROSCEDASTIC_KINDS)},
                        "factor": {"type": "number"},
                        "amplitude": {"type": "number"},
                        "period": {"type": "integer", "minimum": 1},
                    },
                },
            },
        },
        "estimator": {
            "type": "object",
            "required": ["kind", "contrast", "bound", "x0"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(ESTIMATOR_FIELDS)},
                "contrast": {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": list(CONTRAST_KINDS)},
                        "gamma": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "kernel": {"enum": list(_AXIS_PROFILES)},
                "bound": {"type": "number", "exclusiveMinimum": 0},
                "x0": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0, "maximum": 1},
                    "minItems": 1,
                },
                "h": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "degree": {"type": "integer", "minimum": 0},
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "lipschitz": {"type": "number", "exclusiveMinimum": 0},
                "curvature": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "risk_power": {"type": "number", "minimum": 1},
                "gradient_tolerance": {"type": "number", "exclusiveMinimum": 0},
                "max_iterations": {"type": "integer", "minimum": 1},
            },
            # the fields each kind reads; a null curvature is derived
            "allOf": [
                {
                    "if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
                    "then": {"required": [f for f in fields if f != "curvature"]},
                }
                for kind, fields in ESTIMATOR_FIELDS.items()
            ]
            + [
                # the adaptive bandwidth grid is built for a degree of at least 1
                {
                    "if": {"required": ["kind"], "properties": {"kind": {"const": "adaptive"}}},
                    "then": {"properties": {"degree": {"minimum": 1}}},
                }
            ],
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "n_values": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "epsilon_multipliers": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
            },
        },
        "risk": {
            "type": "object",
            "required": ["replications"],
            "additionalProperties": False,
            "properties": {
                "replications": {"type": "integer", "minimum": 1},
                "power": {"type": "number", "minimum": 1},
                "workers": {"type": "integer", "minimum": 1},
            },
        },
        "output": {
            "type": "object",
            "required": ["directory", "prefix"],
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
                # a file name: the outputs go in the directory
                "prefix": {"type": "string", "pattern": r"^[^/\\]*$"},
            },
        },
    },
}


class ConfigError(ValueError):
    """Invalid experiment config; message lists offending field paths."""


def _finite(v) -> bool:
    """A number that a float holds finitely: not NaN (which passes every
    bound), an infinity or an int beyond float range."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


# JSON Schema's types, except that a "number" is finite and an "integer" a
# finite int (the draft's own rule passes integral floats such as 512.0).
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": _finite,
    "integer": lambda v: isinstance(v, int) and _finite(v),
}


def _same(a, b) -> bool:
    """JSON equality of scalars, under which true and 1 differ."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _violations(value, schema, path=()):
    """Yield (path, keyword, message) for each violation of ``schema`` by
    ``value`` at ``path``, in jsonschema's order and wording: Draft 2020-12
    cut to the keywords the config schemas use.  Any other keyword, met
    on the way, is a ValueError, so that no keyword goes unchecked."""
    if isinstance(schema, bool):
        if not schema:
            yield path, None, f"False schema does not allow {value!r}"
        return
    is_object, is_array, is_number = isinstance(value, dict), isinstance(value, list), _finite(value)
    for key, arg in schema.items():
        message = None
        if key == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_TYPES[t](value) for t in types):
                message = f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum":
            if not any(_same(a, value) for a in arg):
                message = f"{value!r} is not one of {arg!r}"
        elif key == "const":
            if not _same(arg, value):
                message = f"{arg!r} was expected"
        elif key == "minimum":
            if is_number and value < arg:
                message = f"{value!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum":
            if is_number and value <= arg:
                message = f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "maximum":
            if is_number and value > arg:
                message = f"{value!r} is greater than the maximum of {arg!r}"
        elif key == "pattern":
            if isinstance(value, str) and not re.search(arg, value):
                message = f"{value!r} does not match {arg!r}"
        elif key == "minItems":
            if is_array and len(value) < arg:
                message = f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "required":
            for name in arg if is_object else ():
                if name not in value:
                    yield path, key, f"{name!r} is a required property"
        elif key == "additionalProperties" and isinstance(arg, bool):
            known = schema.get("properties", {})
            extras = sorted({k for k in value if k not in known}, key=str) if is_object and not arg else []
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"
        elif key == "properties":
            for name, sub in arg.items() if is_object else ():
                if name in value:
                    yield from _violations(value[name], sub, (*path, name))
        elif key == "items":
            for i, item in enumerate(value if is_array else ()):
                yield from _violations(item, arg, (*path, i))
        elif key == "allOf":
            for sub in arg:
                yield from _violations(value, sub, path)
        elif key == "if":
            if next(_violations(value, arg, path), None) is None:
                yield from _violations(value, schema.get("then", True), path)
        elif key != "then":
            raise ValueError(f"unsupported schema keyword {key!r}: {arg!r}")
        if message is not None:
            yield path, key, message


def _json_path(path) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


# An int of more digits than this is said by its length in a message.
_LONG_INT = re.compile(r"(?<![\w.])-?\d{21,}(?![\w.])")


def _int_length(match: re.Match) -> str:
    digits = match.group().lstrip("-")
    sign = "a negative" if len(digits) < len(match.group()) else "an"
    return f"{sign} integer of {len(digits)} digits"


def _validate(document: dict, schema: dict = CONFIG_SCHEMA) -> None:
    """Raise a ConfigError listing every schema violation of a whole config
    document, one line each under its field path; entry points call it once."""
    errors = sorted(_violations(document, schema), key=lambda e: _json_path(e[0]))
    if errors:
        lines = [f"{_json_path(p)}: {_LONG_INT.sub(_int_length, m)}" for p, _, m in errors]
        raise ConfigError("invalid experiment config:\n  " + "\n  ".join(lines))


def _read_json(path) -> dict:
    """The JSON object in the file at ``path``; a file that cannot be
    read or parsed, or whose top level is not an object, is a ConfigError
    naming it."""
    try:
        with open(path) as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: the top level is not a JSON object")
    return document


def load_config(source) -> dict:
    """Load a config dict, a config file, or a manifest file (its embedded
    config is extracted), and validate the whole config once."""
    if isinstance(source, (str, Path)):
        cfg = _read_json(source)
    else:
        cfg = dict(source)
    if "config" in cfg and "experiment" not in cfg:
        cfg = cfg["config"]  # manifest rerun
    _validate(cfg)
    return cfg


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _derive(where: str, build, *args):
    """``build(*args)``; a ValueError or ArithmeticError it raises is a
    ConfigError under ``where``, a field path or a flag."""
    try:
        return build(*args)
    except (ValueError, ArithmeticError) as exc:
        # a float power's OverflowError carries (errno, text): say the text
        errno_text = isinstance(exc, OverflowError) and len(exc.args) == 2
        raise ConfigError(f"{where}: {exc.args[1] if errno_text else exc}") from exc


def _noise_model(noise: dict) -> NoiseModel:
    """The NoiseModel of a ``noise`` section, which is not validated here.
    Values the model rejects (an alternating factor below 1, a sigma_min
    above the smallest scale) are ConfigErrors under ``$.noise``."""
    return _derive("$.noise", NoiseModel.from_config, noise)


def _test_function(function: dict, noise: NoiseModel) -> TestFunction:
    """The TestFunction of a ``function`` section, which is not validated
    here; an unknown name, a missing parameter, a value out of range or a
    bound on |f| that ``noise`` could push out of float range is a
    ConfigError under ``$.function``."""
    f = _derive("$.function", make_test_function, function)
    if not math.isfinite(f.bound + noise._largest_draw):
        raise ConfigError(
            f"$.function: bound {f.bound!r} plus the largest noise draw"
            f" {noise._largest_draw!r} is beyond float range, as responses may be"
        )
    return f


def _resolve_curvature(est_cfg: dict, noise: NoiseModel | None) -> float:
    """Explicit curvature constant, or derive it from the declared noise
    family and the Huber threshold when the config leaves it null."""
    c = est_cfg.get("curvature")
    if c is not None:
        return float(c)
    contrast = est_cfg["contrast"]
    if contrast["kind"] != "huber":
        raise ConfigError(
            "$.estimator.curvature: required unless the contrast is huber"
            " (derivation uses the huber threshold)"
        )
    if noise is None:
        raise ConfigError(
            "$.estimator.curvature: required without a noise section to derive it from"
        )
    family = NOISE_FAMILIES[noise.family]
    return _derive("$.estimator.curvature", curvature_constant, family, contrast["gamma"], noise.sigma_min)


def _estimator(est: dict, noise: NoiseModel | None) -> Estimator:
    """The Estimator of an ``estimator`` section, not validated here.

    The one parser of estimator settings, shared by the experiments and
    the CLI.  ``noise`` is the declared noise model (or None), from which
    an adaptive estimator derives a null curvature.
    """
    optimizer = OptimizerSettings(
        **{k: est[k] for k in ("gradient_tolerance", "max_iterations") if k in est}
    )
    # a threshold missing, or given to a non-Huber loss
    contrast = _derive("$.estimator.contrast", ContrastSpec.from_config, est["contrast"])
    fields = {name: est.get(name) for name in ESTIMATOR_FIELDS[est["kind"]]}
    if "curvature" in fields:
        fields["curvature"] = _resolve_curvature(est, noise)
    return Estimator(
        kind=est["kind"],
        contrast=contrast,
        kernel_kind=est.get("kernel", "uniform"),
        bound=est["bound"],
        risk_power=est.get("risk_power", 2.0),
        optimizer=optimizer,
        **fields,
    )


def _manifest(cfg: dict, out_dir: Path, prefix: str, extras: dict) -> Path:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    payload = {
        "config": cfg,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": cfg["seed"],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "roblp": __version__,
        },
        **extras,
    }
    path = out_dir / f"{prefix}_manifest.json"
    _write_json(path, payload)
    return path


def run_experiment(source, output_dir=None) -> dict:
    """Execute a config (or manifest) of a ``rates``, ``tails`` or
    ``compare`` experiment and write results.

    Every experiment builds its test function, noise model and estimator
    from the config, then writes ``<prefix>.csv``, the JSON summary
    ``<prefix>.json`` and ``<prefix>_manifest.json``.  Returns a dict with
    the experiment name, the paths written and the summary.  Replications
    run on ``risk.workers`` processes, else ROBLP_WORKERS, else one; the
    count is not written into the config, so outputs do not record it.
    An output directory that cannot be made, or an output file that
    cannot be written, is a ConfigError naming it, raised before any
    replication runs; the directory is made only once they have all run.
    """
    return _run_config(load_config(source), output_dir)


def _run_config(cfg: dict, output_dir=None) -> dict:
    """``run_experiment`` on a config ``load_config`` has returned."""
    out = cfg["output"]
    out_dir = Path(output_dir) if output_dir is not None else Path(out["directory"])
    prefix = out["prefix"]
    runner = _RUNNERS[cfg["experiment"]]
    workers = _workers(cfg["risk"])
    noise = _noise_model(cfg["noise"])
    f = _test_function(cfg["function"], noise)
    estimator = _estimator(cfg["estimator"], noise)
    x0 = cfg["estimator"]["x0"]
    if len(x0) != f.d:
        raise ConfigError(
            f"$.estimator.x0: {len(x0)} coordinates, but function {f.name!r} has dimension {f.d}"
        )
    rates = cfg["experiment"] == "rates"
    if estimator.kind == "adaptive" and not rates:
        raise ConfigError(
            f"$.estimator.kind: {cfg['experiment']} experiment needs a single bandwidth"
        )
    _check_sizes(estimator, cfg["grid"]["n_values"] if rates else [cfg["grid"]["n"]], x0)
    _check_output_dir(out_dir, prefix)
    header, rows, summary, extras = runner(cfg, f, noise, estimator, x0, workers)

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{prefix}.csv"
    _write_csv(csv_path, header, rows)
    json_path = out_dir / f"{prefix}.json"
    _write_json(json_path, summary)
    manifest = _manifest(
        cfg, out_dir, prefix, {"outputs": [csv_path.name, json_path.name], **extras}
    )
    return {
        "experiment": cfg["experiment"],
        "csv": csv_path,
        "json": json_path,
        "manifest": manifest,
        "summary": summary,
    }


def _check_output_dir(out_dir: Path, prefix: str) -> None:
    """A ConfigError naming ``out_dir`` unless it can be made and written
    into: the nearest of it and its ancestors that exists must be a
    writable directory.  Then one naming an output file, ``<prefix>.csv``,
    ``<prefix>.json`` or ``<prefix>_manifest.json``, that exists and is a
    directory or not writable.  Nothing is made here."""
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {out_dir}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {out_dir}: {existing} is not writable")
    for name in (f"{prefix}.csv", f"{prefix}.json", f"{prefix}_manifest.json"):
        path = out_dir / name
        if path.is_dir():
            raise ConfigError(f"output file {path}: is a directory")
        if path.exists() and not os.access(path, os.W_OK):
            raise ConfigError(f"output file {path}: is not writable")


def _workers(risk: dict) -> int:
    """The replication worker count: ``risk.workers``, else ROBLP_WORKERS,
    else 1."""
    if "workers" in risk:
        return risk["workers"]
    workers = os.environ.get("ROBLP_WORKERS")
    if not workers:
        return 1
    if not (workers.isdecimal() and int(workers) >= 1):
        raise ConfigError(f"ROBLP_WORKERS must be a positive integer, got {workers!r}")
    return int(workers)


def _check_sizes(
    estimator: Estimator, n_values, x0, grid_where: str = "$.grid.n_values"
) -> None:
    """Derive each sample size's plan at point ``x0`` (see
    ``Estimator.plan``) before any basis is built or replication runs, each
    failure a ConfigError naming n; the drivers then read these plans.

    A fit degree whose basis has more coefficients than the smallest n
    (a local linear fit is always allowed), a bandwidth that is not a
    positive finite number or whose window normalization 1/(n h^d) is not
    finite, and an adaptive selection constant that cannot be formed are
    reported under ``$.estimator``, an empty bandwidth grid under
    ``grid_where``."""
    d = len(x0)
    n_min, b = min(n_values), estimator.fit_degree()
    if math.comb(b + d, d) > max(n_min, d + 1):
        raise ConfigError(
            f"$.estimator: fit degree {b:.6g} has more basis coefficients than n={n_min} samples"
        )
    if estimator.kind == "adaptive":
        for n in n_values:
            _derive(grid_where, bandwidth_grid, n, d, estimator.degree)
    for n in n_values:
        levels, _ = _derive("$.estimator", estimator.plan, x0, n)
        h = levels[-1].h  # the finest
        if n * h**d < 1.0 / sys.float_info.max:
            raise ConfigError(
                f"$.estimator: bandwidth {h!r} gives a window normalization 1/(n h^d)"
                f" beyond float range at n={n}, d={d}"
            )


def _check_risk(r: float, n: int, risk: float, stderr: float, rate_fit: bool) -> None:
    """The one config check after replications: a risk (a grid level's too)
    or standard error of errors**r that is not finite, or a zero risk, whose
    log a rate fit takes and by which a selection ratio divides, is a
    ConfigError under ``$.risk.power`` naming n."""
    if not (math.isfinite(risk) and math.isfinite(stderr)) or (rate_fit and risk == 0.0):
        raise ConfigError(
            f"$.risk.power: at n={n} the mean of errors**{r!r} is {risk!r}, its standard"
            f" error {stderr!r}: the power takes the errors out of float range"
        )


# Each runner takes (cfg, f, noise, estimator, x0, workers) and returns the
# results CSV header and rows, the JSON summary and extra manifest entries.


def _run_rates(cfg, f, noise, estimator, x0, workers):
    # the harness limits, checked before the first replication
    _derive("$.risk.replications", _check_replications, cfg["risk"]["replications"])
    _derive("$.grid.n_values", _check_rate_sizes, cfg["grid"]["n_values"])
    d = len(x0)
    r = cfg["risk"].get("power", 2.0)
    report = risk_curve(
        estimator,
        f,
        x0,
        noise,
        r,
        cfg["grid"]["n_values"],
        cfg["risk"]["replications"],
        cfg["seed"],
        workers,
    )
    for p in report.points:
        _check_risk(r, p.n, p.risk, p.stderr, rate_fit=True)
        for level in p.selection["levels"] if p.selection else ():
            _check_risk(r, p.n, level["risk"], 0.0, rate_fit=True)
    beta = cfg["estimator"].get("beta", f.beta)
    target = -beta / (2.0 * beta + d)
    fit = rate_fit(report, target)

    header = ["n", "risk", "root_risk", "stderr", "replications", "failures"]
    rows = [
        [p.n, p.risk, p.risk ** (1.0 / r), p.stderr, p.replications, p.failures]
        for p in report.points
    ]
    summary = {
        "experiment": "rates",
        "estimator": report.estimator,
        "r": r,
        "rate_fit": {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual_spread": fit.residual_spread,
            "target": fit.target,
            "gap": fit.gap,
        },
    }
    if estimator.kind == "adaptive":
        summary["selection"] = [{"n": p.n, **p.selection} for p in report.points]
    return header, rows, summary, {}


def _run_tails(cfg, f, noise, estimator, x0, workers):
    n = cfg["grid"]["n"]
    fit_cfg = estimator.fit_config(x0, n)
    c = _resolve_curvature(cfg["estimator"], noise)
    constants = _derive("$.estimator", procedure_constants, fit_cfg.kernel, fit_cfg.index_set, c)

    _, _, eps_min = _derive("$.estimator", _validity_threshold, f, fit_cfg, constants, n)
    eps_grid = [m * eps_min for m in cfg["grid"]["epsilon_multipliers"]]
    for m, eps in zip(cfg["grid"]["epsilon_multipliers"], eps_grid):
        if not math.isfinite(eps):
            raise ConfigError(
                f"$.grid.epsilon_multipliers: eps_min {eps_min!r} x {m!r} is not finite"
            )
    report = tail_check(
        f,
        noise,
        fit_cfg,
        constants,
        eps_grid,
        n,
        cfg["risk"]["replications"],
        cfg["seed"],
        workers,
    )

    header = ["eps", "valid", "empirical", "exceedances", "wilson_half_width", "bound", "informative", "non_violated"]
    rows = [
        [
            p.eps,
            int(p.valid),
            p.empirical,
            p.exceedances,
            p.wilson,
            p.bound if p.bound is not None else "",
            int(p.informative),
            "" if p.non_violated is None else int(p.non_violated),
        ]
        for p in report.points
    ]
    summary = {
        "experiment": "tails",
        "estimator": estimator.describe(),
        "constants": constants.to_dict(),
        "n": report.n,
        "h": report.h,
        "bias_majorant": report.bias_majorant,
        "eps_min": report.eps_min,
        "failures": report.failures,
        "all_informative_non_violated": report.all_informative_non_violated,
        "caveat": report.caveat,
    }
    return header, rows, summary, {"constants": constants.to_dict()}


def _run_compare(cfg, f, noise, estimator, x0, workers):
    if estimator.contrast.kind != "huber":
        raise ConfigError("$.estimator.contrast.kind: compare experiment needs huber")
    n = cfg["grid"]["n"]
    r = cfg["risk"].get("power", 2.0)
    rows = compare_contrasts(
        estimator,
        f,
        x0,
        noise,
        n,
        cfg["risk"]["replications"],
        cfg["seed"],
        r=r,
        workers=workers,
    )
    for row in rows:
        _check_risk(r, n, row.risk, row.stderr, rate_fit=False)
    header = ["contrast", "risk", "stderr", "max_error"]
    summary = {
        "experiment": "compare",
        "estimator": estimator.describe(),
        "h": estimator.fit_config(x0, n).h,
        "rows": [
            {
                "contrast": row.name,
                "risk": row.risk,
                "stderr": row.stderr,
                "max_error": row.max_error,
                "failures": row.failures,
            }
            for row in rows
        ],
    }
    return header, [[row.name, row.risk, row.stderr, row.max_error] for row in rows], summary, {}


_RUNNERS = {"rates": _run_rates, "tails": _run_tails, "compare": _run_compare}
