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


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", help="output directory")
    ap.add_argument("--replications", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--n", type=int, nargs="+", help="sample sizes")
    args = ap.parse_args()

    cfg = json.loads(CONFIG.read_text())
    for value, section, key in (
        (args.output, "output", "directory"),
        (args.replications, "risk", "replications"),
        (args.n, "grid", "n_values"),
    ):
        if value is not None:
            cfg[section][key] = value
    if args.seed is not None:
        cfg["seed"] = args.seed

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
