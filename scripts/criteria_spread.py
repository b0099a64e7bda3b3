#!/usr/bin/env python3
"""Spread of the acceptance statistics over seeds.

    python scripts/criteria_spread.py [--seeds K] [--criteria 1 2 3 8] [--output spread.json]

Each acceptance criterion of tests/test_acceptance.py runs at one fixed
seed, so a change that moves the estimator's risk by less than a
criterion's margin passes unseen.  This script computes the statistics of
criteria 1, 2, 3 and 8 with the suite's settings at each of the first K
seeds of a fixed list that holds none of the suite's own:

- criteria 1 and 2: the slope of the Gaussian and of the Cauchy rate fit;
- criterion 3: the adaptive risk over the best single bandwidth's;
- criterion 8: the count of normalized errors at or past each epsilon
  multiplier, and the count of informative epsilons the bound violates.
  Every normalized error lies far below the smallest epsilon, so those
  counts read 0 at any seed; the counts at or past a few fixed epsilons
  in the body of the errors' law (``PROBE_EPS``) are added, as they can
  show a shift.

It writes, for each statistic, its mean, standard error, range and
per-seed values to a JSON file.  Run it before and after a change that
alters outputs on purpose, with the same seeds, and read each mean's
shift against the standard error of the difference.  Criterion 3 costs
about 200 adaptive selections per seed.
"""

import argparse
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from roblp.contrast import curvature_constant, huber
from roblp.harness import Estimator, deviation_bound_threshold, rate_fit, risk_curve, tail_check
from roblp.kernels import procedure_constants, uniform_kernel
from roblp.lepski import minimax_bandwidth
from roblp.local_fit import LocalFitConfig
from roblp.simulate import NOISE_FAMILIES, NoiseModel, gen_data, sinusoid


def _load_suite():
    """tests/test_acceptance.py, loaded by path, whose settings the
    statistics below share."""
    path = Path(__file__).resolve().parents[1] / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("acceptance_suite", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SUITE = _load_suite()
X0, BOUND, GAMMA, N_GRID, REPLICATIONS = SUITE.X0, SUITE.BOUND, SUITE.GAMMA, SUITE.N_GRID, SUITE.REPLICATIONS
# settings the suite's test functions write inline, which
# tests/test_criteria_spread.py checks against the suite's calls
TAIL_N, TAIL_REPLICATIONS = 1024, 10_000
EPS_MULTIPLIERS = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0)
# epsilons near the median, the upper decile and the upper percentile of
# criterion 8's normalized errors
PROBE_EPS = (0.35, 0.85, 1.3)

# The seeds a spread runs at; the suite's are 20240810 to 20240817.
SEEDS = tuple(range(1, 101))


def _rate_slope(family: str, scale: float, seed: int) -> dict:
    f = sinusoid(beta=2.0)
    model = NoiseModel(family=family, base_scale=scale)
    report = risk_curve(SUITE._minimax_estimator(f), f, X0, model, 2.0, N_GRID, REPLICATIONS, seed)
    return {"slope": rate_fit(report, target=-0.4).slope}


def criterion_1(seed: int) -> dict:
    """The Gaussian minimax rate slope."""
    return _rate_slope("gaussian", 0.5, seed)


def criterion_2(seed: int) -> dict:
    """The Cauchy minimax rate slope."""
    return _rate_slope("cauchy", 1.0, seed)


def criterion_3(seed: int) -> dict:
    """The adaptive risk over the best single bandwidth's, at n=4096."""
    f = sinusoid(beta=2.0)
    model = NoiseModel(family="gaussian", base_scale=0.5)
    c = curvature_constant(NOISE_FAMILIES["gaussian"], GAMMA, model.sigma_min)
    est = Estimator(
        kind="adaptive", contrast=huber(GAMMA), kernel_kind="uniform", bound=BOUND,
        degree=3, curvature=c, risk_power=2.0,
    )
    target = float(f(np.array(X0)))
    adaptive, per_k = [], []
    for rep in range(REPLICATIONS):
        trace = est.selection_trace(gen_data(f, model, 4096, 1, (seed, rep)), X0)
        adaptive.append(abs(trace.selected - target) ** 2)
        per_k.append([abs(e - target) ** 2 for _, _, e in trace.estimates])
    return {"ratio": float(np.mean(adaptive)) / float(np.mean(per_k, axis=0).min())}


def criterion_8(seed: int) -> dict:
    """The exceedance count at each epsilon multiplier and at each probe
    epsilon, and the count of informative epsilons whose bound is
    violated."""
    f = sinusoid(beta=2.0)
    model = NoiseModel(family="gaussian", base_scale=0.5)
    h = minimax_bandwidth(f.beta, f.lipschitz, TAIL_N, 1)
    cfg = LocalFitConfig(
        x0=X0, h=h, degree=1, bound=BOUND, kernel=uniform_kernel(1), contrast=huber(GAMMA),
    )
    c = curvature_constant(NOISE_FAMILIES["gaussian"], GAMMA, model.sigma_min)
    constants = procedure_constants(cfg.kernel, cfg.index_set, c)
    u = max(1.0, f.lipschitz * h**f.beta * math.sqrt(TAIL_N * h))
    eps_min = deviation_bound_threshold(cfg.index_set.size, c, constants.lam, u)
    eps_grid = [m * eps_min for m in EPS_MULTIPLIERS]
    report = tail_check(f, model, cfg, constants, eps_grid + list(PROBE_EPS), TAIL_N, TAIL_REPLICATIONS, seed)
    points, probes = report.points[: len(eps_grid)], report.points[len(eps_grid) :]
    stats = {f"exceedances_x{m:g}": p.exceedances for m, p in zip(EPS_MULTIPLIERS, points)}
    stats["violations"] = sum(1 for p in points if p.valid and p.informative and not p.non_violated)
    stats.update({f"exceedances_eps{e:g}": p.exceedances for e, p in zip(PROBE_EPS, probes)})
    return stats


CRITERIA = {1: criterion_1, 2: criterion_2, 3: criterion_3, 8: criterion_8}


def summarize(values: list) -> dict:
    """Mean, standard error of the mean (0.0 from one value), range and
    the values."""
    v = np.asarray(values, dtype=float)
    stderr = float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
    return {"mean": float(v.mean()), "stderr": stderr, "min": float(v.min()), "max": float(v.max()), "values": values}


def spread(criteria, seeds) -> dict:
    """Each criterion's statistics at each seed, summarized."""
    result = {}
    for k in criteria:
        rows = [CRITERIA[k](seed) for seed in seeds]
        result[str(k)] = {name: summarize([row[name] for row in rows]) for name in rows[0]}
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=20, help=f"how many of the fixed seeds (at most {len(SEEDS)})")
    parser.add_argument("--criteria", type=int, nargs="+", choices=sorted(CRITERIA), default=sorted(CRITERIA))
    parser.add_argument("--output", default="criteria_spread.json", help="the JSON file written")
    args = parser.parse_args()
    if not 1 <= args.seeds <= len(SEEDS):
        parser.error(f"--seeds must be in 1..{len(SEEDS)}, got {args.seeds}")
    seeds = list(SEEDS[: args.seeds])
    criteria = spread(args.criteria, seeds)
    with open(args.output, "w") as fh:
        json.dump({"seeds": seeds, "criteria": criteria}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for k, stats in criteria.items():
        for name, s in stats.items():
            print(f"criterion {k} {name}: mean {s['mean']:.6g} +/- {s['stderr']:.3g} (range {s['min']:.6g} .. {s['max']:.6g})")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
