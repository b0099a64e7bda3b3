#!/usr/bin/env python3
"""Convergence-rate study: minimax bandwidth, Gaussian vs Cauchy noise.

Runs the rates experiment of scripts/configs/rates_gaussian.json, then the
same config under Cauchy noise, and prints the fitted log-log slopes next
to the theoretical exponent -beta/(2 beta + d).  The flags override the
config's values; the CSVs and manifests go under its output directory.
"""

import argparse
import json
from pathlib import Path

from roblp.experiments import run_experiment

CONFIG = Path(__file__).resolve().parent / "configs" / "rates_gaussian.json"


def config_from_flags(path: Path, description: str) -> dict:
    """The rates or tails config at ``path`` with the flags' values in place
    of its own; ``--n`` takes a rates config's sizes, a tails config's n."""
    cfg = json.loads(path.read_text())
    sizes = "n_values" in cfg["grid"]
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--output", help="output directory")
    ap.add_argument("--replications", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--n", type=int, nargs="+" if sizes else None, help="sample size(s)")
    args = ap.parse_args()
    for value, section, key in (
        (args.output, cfg["output"], "directory"),
        (args.replications, cfg["risk"], "replications"),
        (args.n, cfg["grid"], "n_values" if sizes else "n"),
        (args.seed, cfg, "seed"),
    ):
        if value is not None:
            section[key] = value
    return cfg


def main():
    cfg = config_from_flags(CONFIG, __doc__)
    cauchy = {
        **cfg,
        "noise": {"family": "cauchy", "scale": 1.0},
        "output": {**cfg["output"], "prefix": "rates_cauchy"},
    }
    for run in (cfg, cauchy):
        result = run_experiment(run)
        fit = result["summary"]["rate_fit"]
        print(
            f"{run['noise']['family']:9s} slope {fit['slope']:+.4f}  target {fit['target']:+.4f}"
            f"  gap {fit['gap']:+.4f}  -> {result['csv']}"
        )


if __name__ == "__main__":
    main()
