"""Spans around the calls into roblp's layers, recorded from outside.

The tracer replaces public functions at the module attribute their
callers look them up through (``roblp.harness.fit_local``,
``roblp.lepski.fit_local``, ...) with timing wrappers, and restores them
afterwards.  Spans are kept in memory as (name, start, end, parent) and
reduced to per-layer metrics when the traced pass ends.  Nothing inside
``src/roblp`` changes, and pool workers record nothing.
"""

from __future__ import annotations

import contextlib
import importlib
import time

import numpy as np

# (module, attribute, span name).  Each entry is one place a caller looks a
# layer up; several entries may feed one span name.
PATCH_SITES = (
    ("roblp.experiments", "run_experiment", "experiments.run_experiment"),
    ("roblp.experiments", "load_config", "experiments.load_config"),
    ("roblp.experiments", "procedure_constants", "kernels.procedure_constants"),
    ("roblp.experiments", "risk_curve", "harness.driver"),
    ("roblp.experiments", "tail_check", "harness.driver"),
    ("roblp.experiments", "compare_contrasts", "harness.driver"),
    ("roblp.harness", "gen_data", "simulate.gen_data"),
    ("roblp.simulate", "gen_data", "simulate.gen_data"),
    ("roblp.harness", "fit_local", "local_fit.fit_local"),
    ("roblp.lepski", "fit_local", "local_fit.fit_local"),
    ("roblp.harness", "selection_config", "lepski.selection_config"),
    ("roblp.harness", "select_bandwidth", "lepski.select_bandwidth"),
    ("roblp.lepski", "select_index", "lepski.select_index"),
    ("roblp.harness.Estimator", "estimate", "harness.estimate"),
    ("roblp.harness.Estimator", "selection_trace", "harness.estimate"),
)

# Fits kept for the window-build proxy (criterion() re-timed afterwards).
WINDOW_SAMPLES = 32
WINDOW_STRIDE = 7


def _resolve(path: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory span recorder plus the fit and selection counters read off
    the values the wrapped calls return."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.fits: list[tuple[int, bool, bool, int]] = []  # iterations, converged, underdetermined, n_local
        self.chosen_k: list[int] = []
        self.window_samples: list[tuple] = []  # (theta, data, cfg)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        if name == "local_fit.fit_local":
            self.fits.append(
                (result.iterations, result.converged, result.underdetermined, result.n_local)
            )
            if len(self.fits) % WINDOW_STRIDE == 1 and len(self.window_samples) < WINDOW_SAMPLES:
                data, cfg = args[0], args[1]
                self.window_samples.append((result.theta_hat.values, data, cfg))
        elif name == "lepski.select_bandwidth":
            self.chosen_k.append(result.chosen_k)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every patch site for the duration of the block."""
        saved = []
        try:
            for path, attr, name in PATCH_SITES:
                owner = _resolve(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reductions ---------------------------------------------------------
    def durations(self, name: str) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans if s[0] == name])

    def busy_and_self(self) -> dict[str, tuple[float, float]]:
        """Total and self time per span name; self time is a span's duration
        minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list[float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            busy_self = totals.setdefault(name, [0.0, 0.0])
            busy_self[0] += end - start
            busy_self[1] += end - start - covered
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def replication_ms(self) -> np.ndarray:
        """Replication wall times: from a gen_data span's start to the end of
        the estimate that follows it under the same parent."""
        pending: dict[int, float] = {}
        out = []
        for name, start, end, parent in self.spans:
            if name == "simulate.gen_data":
                pending[parent] = start
            elif name == "harness.estimate" and parent in pending:
                out.append(1e3 * (end - pending.pop(parent)))
        return np.array(out)

    def window_ms(self, repeats: int = 5) -> np.ndarray:
        """Median time of the public criterion() on the sampled fits: builds
        the window and design once and evaluates the criterion once."""
        from roblp.local_fit import criterion

        out = []
        for theta, data, cfg in self.window_samples:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                criterion(theta, data, cfg)
                times.append(time.perf_counter() - t0)
            out.append(1e3 * float(np.median(times)))
        return np.array(out)


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(tracer: Tracer, chosen_levels: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    busy = tracer.busy_and_self()

    def b(name):
        return busy.get(name, (0.0, 0.0))

    gen = tracer.durations("simulate.gen_data")
    fit = tracer.durations("local_fit.fit_local")
    fits = np.array(tracer.fits, dtype=float).reshape(-1, 4)
    iters, converged, under, n_local = fits.T
    selections = len(tracer.chosen_k)
    reps = tracer.replication_ms()
    m = {
        "simulate.gen_data.calls": (gen.size, "count"),
        "simulate.gen_data.busy_s": (b("simulate.gen_data")[0], "s"),
        "simulate.gen_data.ms_p50": (1e3 * _pct(gen, 50), "ms"),
        "local_fit.fit_local.calls": (fit.size, "count"),
        "local_fit.fit_local.busy_s": (b("local_fit.fit_local")[0], "s"),
        "local_fit.fit_local.ms_p50": (1e3 * _pct(fit, 50), "ms"),
        "local_fit.fit_local.ms_p99": (1e3 * _pct(fit, 99), "ms"),
        "local_fit.iterations.total": (float(iters.sum()), "count"),
        "local_fit.iterations.p50": (_pct(iters, 50), "count"),
        "local_fit.iterations.p95": (_pct(iters, 95), "count"),
        "local_fit.iterations.max": (float(iters.max()) if iters.size else 0.0, "count"),
        "local_fit.nonconverged_share": (
            float(np.mean(converged == 0)) if converged.size else 0.0, "share"
        ),
        "local_fit.underdetermined": (float(under.sum()), "count"),
        "local_fit.n_local.p50": (_pct(n_local, 50), "count"),
        "local_fit.window_ms_p50": (_pct(tracer.window_ms(), 50), "ms"),
        "lepski.selection_config.calls": (
            tracer.durations("lepski.selection_config").size, "count"
        ),
        "lepski.selection_config.busy_s": (b("lepski.selection_config")[0], "s"),
        "lepski.select_bandwidth.busy_s": (b("lepski.select_bandwidth")[0], "s"),
        "lepski.select_bandwidth.self_s": (b("lepski.select_bandwidth")[1], "s"),
        "lepski.select_index.busy_s": (b("lepski.select_index")[0], "s"),
        "lepski.fits_per_selection": (
            sum(1 for s in tracer.spans if s[0] == "local_fit.fit_local"
                and s[3] >= 0 and tracer.spans[s[3]][0] == "lepski.select_bandwidth")
            / selections if selections else 0.0,
            "count",
        ),
        "kernels.procedure_constants.busy_s": (b("kernels.procedure_constants")[0], "s"),
        "experiments.load_config.busy_s": (b("experiments.load_config")[0], "s"),
        "experiments.run_experiment.self_s": (b("experiments.run_experiment")[1], "s"),
        "harness.driver.self_s": (b("harness.driver")[1], "s"),
        "harness.replication_ms.p50": (_pct(reps, 50), "ms"),
        "harness.replication_ms.p99": (_pct(reps, 99), "ms"),
    }
    for k in range(chosen_levels):
        share = tracer.chosen_k.count(k) / selections if selections else 0.0
        m[f"lepski.chosen_k.hist.k{k}"] = (share, "share")
    return m
