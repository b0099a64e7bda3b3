#!/usr/bin/env python3
"""Deviation-tail study: empirical tails of the normalized error against
the exponential bound, at the minimax bandwidth.

Runs the tails experiment of scripts/configs/tails_gaussian.json; the
flags override the config's values.
"""

import argparse
import json
from pathlib import Path

from roblp.experiments import run_experiment

CONFIG = Path(__file__).resolve().parent / "configs" / "tails_gaussian.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", help="output directory")
    ap.add_argument("--n", type=int, help="sample size")
    ap.add_argument("--replications", type=int)
    ap.add_argument("--seed", type=int)
    args = ap.parse_args()

    cfg = json.loads(CONFIG.read_text())
    for value, section, key in (
        (args.output, "output", "directory"),
        (args.n, "grid", "n"),
        (args.replications, "risk", "replications"),
    ):
        if value is not None:
            cfg[section][key] = value
    if args.seed is not None:
        cfg["seed"] = args.seed

    result = run_experiment(cfg)
    summary = result["summary"]
    print(f"validity threshold eps_min = {summary['eps_min']:.2f}")
    print(f"all informative points below the bound: {summary['all_informative_non_violated']}")
    print(f"caveat: {summary['caveat']}")
    print(f"wrote {result['csv']}")


if __name__ == "__main__":
    main()
