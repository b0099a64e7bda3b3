#!/usr/bin/env python3
"""Deviation-tail study: empirical tails of the normalized error against
the exponential bound, at the minimax bandwidth.

Runs the tails experiment of scripts/configs/tails_gaussian.json; the
flags, rate_study.py's, override the config's values.
"""

from pathlib import Path

from rate_study import config_from_flags
from roblp.experiments import run_experiment

CONFIG = Path(__file__).resolve().parent / "configs" / "tails_gaussian.json"


def main():
    result = run_experiment(config_from_flags(CONFIG, __doc__))
    summary = result["summary"]
    print(f"validity threshold eps_min = {summary['eps_min']:.2f}")
    print(f"all informative points below the bound: {summary['all_informative_non_violated']}")
    print(f"caveat: {summary['caveat']}")
    print(f"wrote {result['csv']}")


if __name__ == "__main__":
    main()
