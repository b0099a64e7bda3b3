"""The four benchmark workloads.

Each workload is a unit of Monte Carlo work that the benchmark repeats:
one adaptive replication, or one ``run_experiment`` call at a reduced
replication count.  Unit ``u`` of a run with seed ``s`` draws its data
from key ``(s, u)`` (adaptive) or from experiment seed
``s * SEED_STRIDE + u``, so inputs depend on the seed alone.  Each
workload also owns its acceptance gate (a statistic pooled over the units
of a pass) and the fit inputs of its stored reference.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from roblp import experiments, harness, simulate
from roblp.contrast import curvature_constant, huber
from roblp.lepski import bandwidth_grid, minimax_bandwidth
from roblp.local_fit import EmptyNeighborhoodError, OptimizerSettings

ROOT = Path(__file__).resolve().parents[1]
SEED_STRIDE = 1000
FUNCTION = {"name": "sinusoid", "beta": 2.0, "amplitude": 1.0}
LIPSCHITZ = 39.478417604357434  # (2 pi)^2: the sinusoid's constant at beta = 2
X0 = [0.25]
BOUND = 8.0
RATE_TARGET, RATE_TOLERANCE = -0.40, 0.10
ADAPTIVE_MAX_RATIO = 3.0
COMPARE_MIN_FACTOR = 10.0


def unit_seed(seed: int, unit: int) -> int:
    return seed * SEED_STRIDE + unit


@dataclass(frozen=True)
class UnitResult:
    """One unit of work: replications attempted and failed, plus the
    outputs the gate reads (compared byte for byte across passes)."""

    replications: int
    failed: int
    outputs: tuple
    bytes_written: int = 0


class _FirstReplication(Exception):
    """Raised by the set-up probe where the first replication would start."""


def _stop(*args, **kwargs):
    raise _FirstReplication


class Adaptive:
    name = "adaptive"
    default_seed, held_out_seed = 20240812, 5101
    workers = 1
    # Wall time of one unit on the 2-core machine the benchmark was sized
    # on; it sets how many units a pass runs.
    unit_seconds = 0.25
    n, degree, gamma, sigma = 4096, 3, 1.0, 0.5
    levels = len(bandwidth_grid(n, 1, degree).bandwidths)

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.f = simulate.make_test_function(FUNCTION)
        self.noise = {"family": "gaussian", "scale": self.sigma}
        self.model = simulate.NoiseModel.from_config(self.noise)
        c = curvature_constant(
            simulate.NOISE_FAMILIES["gaussian"], self.gamma, self.model.sigma_min
        )
        self.estimator = harness.Estimator(
            kind="adaptive",
            contrast=huber(self.gamma),
            kernel_kind="uniform",
            bound=BOUND,
            degree=self.degree,
            curvature=c,
        )
        self.target = float(self.f(np.asarray(X0)))

    def probe_setup(self) -> None:
        """Everything before the first replication is built in __init__."""

    def run_unit(self, seed: int, unit: int, workers: int) -> UnitResult:
        """One replication: ``gen_data`` plus ``Estimator.selection_trace``."""
        data = simulate.gen_data(self.f, self.model, self.n, 1, (seed, unit))
        try:
            trace = self.estimator.selection_trace(data, X0)
        except EmptyNeighborhoodError:
            return UnitResult(1, 1, ())
        return UnitResult(1, 0, ((trace.selected, tuple(e for _, _, e in trace.estimates)),))

    def gate(self, results: list[UnitResult]) -> list[str]:
        rows = [row for r in results for row in r.outputs]
        if not rows:
            return ["adaptive: no successful replication"]
        selected = np.array([abs(s - self.target) ** 2 for s, _ in rows])
        per_k = np.array([[abs(e - self.target) ** 2 for e in ks] for _, ks in rows])
        ratio = float(selected.mean() / per_k.mean(axis=0).min())
        if not ratio <= ADAPTIVE_MAX_RATIO:
            return [f"adaptive: risk ratio {ratio:.3f} > {ADAPTIVE_MAX_RATIO} over {len(rows)} replications"]
        return []

    def reference_inputs(self, seed: int) -> list[dict]:
        grid = bandwidth_grid(self.n, 1, self.degree)
        return [
            {
                "key": [seed, rep],
                "n": self.n,
                "noise": self.noise,
                "x0": X0,
                "bound": BOUND,
                "h": h,
                "degree": self.degree,
                "contrast": {"kind": "huber", "gamma": self.gamma},
                "max_iterations": OptimizerSettings().max_iterations,
            }
            for rep in range(2)
            for h in grid.bandwidths
        ]


class _ExperimentWorkload:
    """A workload whose unit is one ``run_experiment`` call."""

    driver: str  # name of the replication driver as roblp.experiments sees it
    workers = 1

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.base = self.base_config()

    def base_config(self) -> dict:
        raise NotImplementedError

    def config(self, seed: int, unit: int, workers: int) -> dict:
        cfg = copy.deepcopy(self.base)
        cfg["seed"] = unit_seed(seed, unit)
        cfg["risk"]["workers"] = workers
        cfg["output"] = {"directory": str(self.workdir), "prefix": self.name}
        return cfg

    def run_unit(self, seed: int, unit: int, workers: int) -> UnitResult:
        out = experiments.run_experiment(self.config(seed, unit, workers))
        csv_bytes = Path(out["csv"]).read_bytes()
        written = sum(Path(out[k]).stat().st_size for k in ("csv", "json", "manifest"))
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        replications, failed = self.counts(rows, out["summary"])
        return UnitResult(replications, failed, (csv_bytes, json.dumps(out["summary"], sort_keys=True)), written)

    def probe_setup(self) -> None:
        """Run the experiment up to the call of its replication driver."""
        original = getattr(experiments, self.driver)
        setattr(experiments, self.driver, _stop)
        try:
            experiments.run_experiment(self.config(self.default_seed, 0, self.workers))
        except _FirstReplication:
            return
        finally:
            setattr(experiments, self.driver, original)
        raise RuntimeError(f"{self.name}: {self.driver} was never called")

    @staticmethod
    def _rows(result: UnitResult) -> list[dict]:
        return list(csv.DictReader(io.StringIO(result.outputs[0].decode())))


class Tails(_ExperimentWorkload):
    name = "tails"
    default_seed, held_out_seed = 20240816, 5102
    driver = "tail_check"
    workers = 2
    unit_seconds = 0.75
    n, replications = 1024, 1000
    self_test_replications = 240

    def base_config(self) -> dict:
        h = minimax_bandwidth(FUNCTION["beta"], LIPSCHITZ, self.n, 1)
        return {
            "experiment": "tails",
            "seed": 0,
            "function": FUNCTION,
            "noise": {"family": "gaussian", "scale": 0.5},
            "estimator": {
                "kind": "fixed",
                "contrast": {"kind": "huber", "gamma": 1.0},
                "kernel": "uniform",
                "bound": BOUND,
                "x0": X0,
                "h": h,
                "degree": 1,
                "curvature": None,
            },
            "grid": {"n": self.n, "epsilon_multipliers": [1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0]},
            "risk": {"replications": self.replications},
            "output": {},
        }

    @staticmethod
    def counts(rows, summary) -> tuple[int, int]:
        return Tails.replications, int(summary["failures"])

    def gate(self, results: list[UnitResult]) -> list[str]:
        problems = []
        for i, r in enumerate(results):
            informative = [row for row in self._rows(r) if row["informative"] == "1"]
            violated = [row["eps"] for row in informative if row["non_violated"] != "1"]
            if not informative or violated:
                problems.append(
                    f"tails unit {i}: {len(informative)} informative eps, violations at {violated}"
                )
        return problems + self.self_test(self.default_seed)

    def self_test(self, seed: int) -> list[str]:
        """The results CSV is byte-identical at workers=1 and workers=2."""
        outputs = []
        for workers in (1, 2):
            cfg = self.config(seed, 0, workers)
            cfg["risk"]["replications"] = self.self_test_replications
            cfg["output"]["prefix"] = f"self_test_w{workers}"
            outputs.append(Path(experiments.run_experiment(cfg)["csv"]).read_bytes())
        if outputs[0] != outputs[1]:
            return ["tails self-test: results CSV differs between workers=1 and workers=2"]
        return []

    def reference_inputs(self, seed: int) -> list[dict]:
        est = self.base["estimator"]
        return [
            {
                "key": [unit_seed(seed, 0), rep],
                "n": self.n,
                "noise": self.base["noise"],
                "x0": X0,
                "bound": BOUND,
                "h": est["h"],
                "degree": est["degree"],
                "contrast": est["contrast"],
                "max_iterations": OptimizerSettings().max_iterations,
            }
            for rep in range(6)
        ]


class RatesCauchy(_ExperimentWorkload):
    name = "rates_cauchy"
    default_seed, held_out_seed = 20240811, 5103
    driver = "risk_curve"
    unit_seconds = 0.42
    n_values = [512, 1024, 2048, 4096, 8192, 16384]
    replications = 30  # per n; mc_risk's minimum

    def base_config(self) -> dict:
        return {
            "experiment": "rates",
            "seed": 0,
            "function": FUNCTION,
            "noise": {"family": "cauchy", "scale": 1.0},
            "estimator": {
                "kind": "minimax",
                "contrast": {"kind": "huber", "gamma": 1.0},
                "kernel": "uniform",
                "bound": BOUND,
                "x0": X0,
                "beta": FUNCTION["beta"],
                "lipschitz": LIPSCHITZ,
            },
            "grid": {"n_values": self.n_values},
            "risk": {"replications": self.replications, "power": 2.0},
            "output": {},
        }

    @staticmethod
    def counts(rows, summary) -> tuple[int, int]:
        return (
            sum(int(row["replications"]) for row in rows),
            sum(int(row["failures"]) for row in rows),
        )

    def gate(self, results: list[UnitResult]) -> list[str]:
        risks = np.array([[float(row["risk"]) for row in self._rows(r)] for r in results])
        pooled = risks.mean(axis=0)
        if not np.all(np.isfinite(pooled)):
            return [f"rates_cauchy: non-finite pooled risk {pooled.tolist()}"]
        slope = float(np.polyfit(np.log(self.n_values), np.log(pooled) / 2.0, 1)[0])
        if abs(slope - RATE_TARGET) > RATE_TOLERANCE:
            return [
                f"rates_cauchy: pooled slope {slope:.4f} outside"
                f" {RATE_TARGET} +/- {RATE_TOLERANCE} over {len(results)} units"
            ]
        return []

    def reference_inputs(self, seed: int) -> list[dict]:
        return [
            {
                "key": [unit_seed(seed, 0), rep],
                "n": n,
                "noise": self.base["noise"],
                "x0": X0,
                "bound": BOUND,
                "h": minimax_bandwidth(FUNCTION["beta"], LIPSCHITZ, n, 1),
                "degree": 1,
                "contrast": {"kind": "huber", "gamma": 1.0},
                "max_iterations": OptimizerSettings().max_iterations,
            }
            for n in self.n_values
            for rep in range(2)
        ]


class CompareCauchy(_ExperimentWorkload):
    name = "compare_cauchy"
    default_seed, held_out_seed = 20240810, 5104
    driver = "compare_contrasts"
    unit_seconds = 0.75
    replications = 10
    config_path = Path("scripts") / "configs" / "compare_cauchy.json"
    # compare_contrasts' own settings: the absolute-loss proxy threshold
    # and the reduced iteration cap.
    tiny_gamma, max_iterations = 1e-6, 3000

    def base_config(self) -> dict:
        cfg = json.loads((ROOT / self.config_path).read_text())
        cfg["risk"]["replications"] = self.replications
        return cfg

    @staticmethod
    def counts(rows, summary) -> tuple[int, int]:
        # compare_contrasts drops failed replications without counting them
        return CompareCauchy.replications * len(rows), 0

    def gate(self, results: list[UnitResult]) -> list[str]:
        risks: dict[str, list[float]] = {}
        for r in results:
            for row in self._rows(r):
                risks.setdefault(row["contrast"], []).append(float(row["risk"]))
        pooled = {k: float(np.mean(v)) for k, v in risks.items()}
        square = pooled.pop("square", math.nan)
        if len(pooled) != 2 or not all(
            COMPARE_MIN_FACTOR * v <= square for v in pooled.values()
        ):
            return [f"compare_cauchy: robust rows not {COMPARE_MIN_FACTOR}x below square ({square}): {pooled}"]
        return []

    def reference_inputs(self, seed: int) -> list[dict]:
        est = self.base["estimator"]
        n = self.base["grid"]["n"]
        contrasts = [
            {"kind": "square"},
            {"kind": "huber", "gamma": self.tiny_gamma},
            est["contrast"],
        ]
        return [
            {
                "key": [unit_seed(seed, 0), rep],
                "n": n,
                "noise": self.base["noise"],
                "x0": est["x0"],
                "bound": est["bound"],
                "h": minimax_bandwidth(est["beta"], est["lipschitz"], n, len(est["x0"])),
                "degree": 1,
                "contrast": contrast,
                "max_iterations": self.max_iterations,
            }
            for rep in range(3)
            for contrast in contrasts
        ]


WORKLOADS = {w.name: w for w in (Adaptive, Tails, RatesCauchy, CompareCauchy)}
