"""Stored reference fits and the check against them.

For each workload, ``reference.json`` holds a sample of the workload's own
fits (the first replications of its first unit) at its recorded default
and held-out seeds: the fit inputs, and the estimate, criterion value and
convergence flag the reference run produced.  Every benchmark run re-fits
them and compares:

* ``estimate`` cases (the reference converged, and tightening the
  tolerance 1e4-fold moved its estimate by less than a tenth of the
  tolerance below): ``|estimate - reference| <= EST_FACTOR * tol``;
* ``criterion`` cases (the reference hit the iteration cap, or the
  minimizer is too flat for the estimate to be pinned down at the
  solver's tolerance): ``criterion(new) <= criterion(reference) + tol``.

``tol`` is the reference run's gradient tolerance.  A solver that reaches
a tighter optimum passes both; one that stops earlier fails.

Regenerate with ``python3 perfbench/run.py --write-reference``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from roblp.contrast import ContrastSpec
from roblp.kernels import KernelSpec
from roblp.local_fit import LocalFitConfig, OptimizerSettings, criterion, fit_local
from roblp.simulate import NoiseModel, gen_data, make_test_function

from workloads import FUNCTION, WORKLOADS

REFERENCE_PATH = Path(__file__).with_name("reference.json")
EST_FACTOR = 1e3
TIGHTEN = 1e-4
TIGHT_MAX_ITERATIONS = 50_000


def _problem(case: dict, optimizer: OptimizerSettings):
    f = make_test_function(FUNCTION)
    data = gen_data(
        f, NoiseModel.from_config(case["noise"]), case["n"], len(case["x0"]), tuple(case["key"])
    )
    cfg = LocalFitConfig(
        x0=tuple(case["x0"]),
        h=case["h"],
        degree=case["degree"],
        bound=case["bound"],
        kernel=KernelSpec(kind="uniform", d=len(case["x0"])),
        contrast=ContrastSpec.from_config(case["contrast"]),
        optimizer=optimizer,
    )
    return data, cfg


def write_reference(workdir: Path) -> dict:
    tol = OptimizerSettings().gradient_tolerance
    cases = []
    for cls in WORKLOADS.values():
        workload = cls(workdir)
        for seed in (cls.default_seed, cls.held_out_seed):
            for case in workload.reference_inputs(seed):
                data, cfg = _problem(case, OptimizerSettings(max_iterations=case["max_iterations"]))
                fit = fit_local(data, cfg)
                tight = fit_local(data, dataclasses.replace(cfg, optimizer=OptimizerSettings(
                    gradient_tolerance=tol * TIGHTEN, max_iterations=TIGHT_MAX_ITERATIONS
                )))
                pinned = abs(fit.estimate - tight.estimate) <= 0.1 * EST_FACTOR * tol
                cases.append({
                    "workload": cls.name,
                    "seed": seed,
                    **case,
                    "mode": "estimate" if fit.converged and pinned else "criterion",
                    "estimate": fit.estimate,
                    "criterion": criterion(fit.theta_hat.values, data, cfg),
                    "converged": fit.converged,
                    "iterations": fit.iterations,
                })
    payload = {"gradient_tolerance": tol, "est_factor": EST_FACTOR, "cases": cases}
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    return payload


def check_reference() -> tuple[int, list[str]]:
    """Re-fit every stored case; returns (cases checked, problems)."""
    stored = json.loads(REFERENCE_PATH.read_text())
    tol = stored["gradient_tolerance"]
    problems = []
    cases = stored["cases"]
    for case in cases:
        data, cfg = _problem(case, OptimizerSettings(max_iterations=case["max_iterations"]))
        fit = fit_local(data, cfg)
        where = f"{case['workload']} seed {case['seed']} key {case['key']} n={case['n']} h={case['h']:.4g} {case['contrast']}"
        if case["mode"] == "estimate":
            gap = abs(fit.estimate - case["estimate"])
            if not gap <= stored["est_factor"] * tol:
                problems.append(f"reference {where}: estimate off by {gap:.3e}")
        else:
            value = criterion(fit.theta_hat.values, data, cfg)
            if not (math.isfinite(value) and value <= case["criterion"] + tol):
                problems.append(
                    f"reference {where}: criterion {value!r} > {case['criterion']!r} + {tol}"
                )
    if not cases:
        problems.append("reference: no stored cases")
    return len(cases), problems
