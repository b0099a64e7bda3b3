#!/usr/bin/env python3
"""Adaptive-vs-oracle study: selection-rule risk against every single
bandwidth on its grid.

Runs the rates experiment of scripts/configs/rates_adaptive.json and
prints its summary's selection table per n: each grid level's risk and
how often Lepski's rule chose it, from the same fits, and the ratio of
the rule's risk to the best level's.  The flags are rate_study.py's.
"""

from pathlib import Path

from rate_study import config_from_flags
from roblp.experiments import run_experiment

CONFIG = Path(__file__).resolve().parent / "configs" / "rates_adaptive.json"


def main():
    result = run_experiment(config_from_flags(CONFIG, __doc__))
    for point in result["summary"]["selection"]:
        levels = point["levels"]
        fitted = sum(level["chosen"] for level in levels)
        print(f"n={point['n']}  can_reject={point['can_reject']}")
        print(f"{'k':>3} {'h':>10} {'risk':>12} {'chosen%':>8}")
        for level in levels:
            share = 100.0 * level["chosen"] / fitted
            print(f"{level['k']:>3} {level['h']:>10.5f} {level['risk']:>12.6f} {share:>7.1f}%")
        print(f"ratio {point['ratio']:.3f}")
    print(f"wrote {result['csv']}")


if __name__ == "__main__":
    main()
