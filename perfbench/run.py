#!/usr/bin/env python3
"""roblp benchmark: Monte Carlo workloads timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload adaptive --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats one pass over a fixed set of the workload's units for
about ``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs
the same units untraced and then traced, and reports the per-layer metrics;
it also prints the end-to-end metrics of its untraced pass.  Times are
scaled by a host calibration kernel (host.py).  Both modes check the
outputs (see README.md) and print, as their last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Other modes: ``--self-test`` (tails determinism across worker counts and
every stored reference fit), ``--write-reference`` (regenerate
reference.json) and ``--probe-setup NAME`` (used internally to time set-up
in a fresh interpreter).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 7
PASSES = 5
MIN_PASSES = 4
PROBE_TIMEOUT_S = 60
# The keys of workloads.WORKLOADS, which cannot be imported before the
# thread variables are pinned.
WORKLOAD_NAMES = ("adaptive", "tails", "rates_cauchy", "compare_cauchy")


def _prepare_imports() -> None:
    """Pin BLAS/OpenMP to one thread (inherited by pool workers and probes)
    and make the checkout's own ``src/roblp`` the one imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "roblp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no roblp sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import roblp

    if Path(roblp.__file__).resolve().parent != SRC / "roblp":
        sys.exit(f"perfbench: imported roblp from {roblp.__file__}, not {SRC}")


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workers: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "roblp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers": workers,
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (the
    pool workers, when read before any other subprocess is started)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_seconds(name: str, clock) -> list[float]:
    """Set-up time of the workload in fresh interpreters, one per probe, in
    reference seconds."""

    def probe() -> float:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        return float(proc.stdout.split()[-1])

    samples = []
    for _ in range(SETUP_PROBES):
        seconds, _, scale = clock.measure(probe)
        samples.append(seconds * scale)
    return samples


def probe_setup(name: str) -> None:
    """Import roblp and run the workload's set-up up to its first replication."""
    t0 = time.perf_counter()
    _prepare_imports()
    from workloads import WORKLOADS

    workdir = WORKDIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        WORKLOADS[name](workdir).probe_setup()
        print(repr(time.perf_counter() - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_pass(workload, seed: int, units, workers: int, clock) -> tuple[list, list[float]]:
    """Run the given units once; returns their results and times in
    reference seconds."""
    results, times = [], []
    for unit in units:
        result, wall, scale = clock.measure(workload.run_unit, seed, unit, workers)
        results.append(result)
        times.append(wall * scale)
    return results, times


def units_per_pass(workload, seconds: float) -> range:
    """The units one pass runs: about ``seconds / PASSES`` of work at the
    unit time the workload was sized for."""
    return range(max(1, round(seconds / (PASSES * workload.unit_seconds))))


def timed_passes(workload, seed: int, units, seconds: float, clock) -> tuple[list, list]:
    """Repeat the same pass at least MIN_PASSES times, and on while the next
    pass (predicted to take as long as the last) ends within ``seconds``."""
    passes, times = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results, unit_times = run_pass(workload, seed, units, workload.workers, clock)
        passes.append(results)
        times.append(unit_times)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            return passes, times


def end_to_end(results: list, times: list[list[float]], rss_mb: float, setup: list[float]) -> dict:
    """``times[p][u]``: reference seconds of unit ``u`` in pass ``p``.  A
    pass takes the sum over units of each unit's median time."""
    attempted = sum(r.replications for r in results)
    failed = sum(r.failed for r in results)
    pass_s = sum(statistics.median(repeats) for repeats in zip(*times))
    return {
        "replications_per_s": (attempted / pass_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "valid_share": ((attempted - failed) / attempted, "share"),
    }


def traced_passes(workload, seed: int, units, passes: list, times: list, clock) -> dict:
    """After one untraced pass with the workload's workers: an untraced
    serial pass, then a traced serial pass.  Appends both to ``passes`` and
    returns the per-layer metrics."""
    from tracing import Tracer, layer_metrics
    from workloads import Adaptive

    serial, serial_times = run_pass(workload, seed, units, 1, clock)
    passes.append(serial)
    tracer = Tracer()
    with tracer.installed():
        traced, traced_times = run_pass(workload, seed, units, 1, clock)
    passes.append(traced)
    layers = layer_metrics(tracer, Adaptive.levels)
    layers.update({
        "harness.replications": (sum(r.replications for r in traced), "count"),
        "harness.failures": (sum(r.failed for r in traced), "count"),
        "harness.pool_efficiency": (
            sum(serial_times) / (workload.workers * sum(times[0])), "share"
        ),
        "experiments.bytes_written": (sum(r.bytes_written for r in traced), "bytes"),
        "trace.overhead_share": (sum(traced_times) / sum(serial_times) - 1.0, "share"),
        "host.kernel_ms_p50": (clock.kernel_ms_p50(), "ms"),
    })
    return layers


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    """Untraced: time repeated passes and report the end-to-end metrics.
    Traced: one pass of each kind (see traced_passes) and report the
    per-layer metrics.  Both check the outputs and print every metric."""
    from host import REFERENCE_S, Clock
    from reference import check_reference
    from workloads import WORKLOADS

    workload = WORKLOADS[name](workdir)
    units = units_per_pass(workload, seconds)
    clock = Clock()
    if trace:
        first, unit_times = run_pass(workload, seed, units, workload.workers, clock)
        passes, times = [first], [unit_times]
    else:
        passes, times = timed_passes(workload, seed, units, seconds, clock)
    rss_mb = peak_rss_mb()  # before the set-up probes add children
    layers = traced_passes(workload, seed, units, passes, times, clock) if trace else {}
    raw_rate = sum(r.replications for r in passes[0]) * len(passes) / sum(clock.raw)
    e2e = end_to_end(passes[0], times, rss_mb, setup_seconds(name, clock))

    outputs = [[r.outputs for r in results] for results in passes]
    problems = workload.gate(passes[0])
    if any(o != outputs[0] for o in outputs[1:]):
        problems.append("outputs differ between passes over the same units")
    checked, ref_problems = check_reference()
    problems += ref_problems

    print(f"# perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}"
          f" units={len(units)} passes={len(passes)}")
    print("env " + json.dumps(environment(workload.workers), sort_keys=True))
    print(f"host kernel_ms_p50 = {clock.kernel_ms_p50():.4g} ms (reference {1e3 * REFERENCE_S:g} ms);"
          f" wall-clock replications_per_s over all passes = {raw_rate:.6g} 1/s")
    for label, metrics in (("e2e", e2e), ("layer", layers)):
        for key, (value, unit) in metrics.items():
            print(f"{label} {key} = {value:.6g} {unit}")
    print(f"checked {checked} reference fits; {len(problems)} problems")
    for problem in problems:
        print(f"check FAIL {problem}")
    counted = [r for results in passes for r in results]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.replications for r in counted),
        "failed": sum(r.failed for r in counted),
        "metrics": {
            k: {"value": float(v), "unit": u} for k, (v, u) in (layers if trace else e2e).items()
        },
    }))
    return 0


def self_test(workdir: Path) -> int:
    from reference import check_reference
    from workloads import Tails

    problems = Tails(workdir).self_test(Tails.default_seed)
    checked, ref_problems = check_reference()
    print(f"{checked} reference fits, {len(ref_problems)} problems")
    problems += ref_problems
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, help="default: the workload's recorded seed")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--probe-setup", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    if not (args.workload or args.self_test or args.write_reference):
        ap.error("one of --workload, --self-test, --write-reference is required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")

    _prepare_imports()
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.write_reference:
            from reference import REFERENCE_PATH, write_reference

            cases = write_reference(workdir)["cases"]
            print(f"wrote {len(cases)} reference fits to {REFERENCE_PATH}")
            return 0
        if args.self_test:
            return self_test(workdir)
        from workloads import WORKLOADS

        seed = args.seed if args.seed is not None else WORKLOADS[args.workload].default_seed
        return measure(args.workload, seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
