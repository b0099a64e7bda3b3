#!/usr/bin/env python3
"""Byte-identity check of every study and CLI output against a revision.

    python scripts/check_outputs.py <rev>

Checks out ``<rev>`` with ``git worktree add`` into a temporary directory
(removed afterwards; nothing is fetched) and runs the same commands there
and in the working tree, each side with its own ``src`` and configs:

- ``roblp rates``/``tails``/``compare`` on rates_gaussian, tails_gaussian,
  compare_cauchy and rates_adaptive, at ROBLP_WORKERS 1 and 2;
- ``roblp simulate`` on simulate_cusp.json, writing under the temporary
  directory, then ``roblp fit`` and ``roblp adapt --json`` on that dataset
  (their standard output is kept as a file too).

Prints one line per output file, ``identical``, ``changed`` or ``missing``
(written on one side only), and exits 1 unless every line is identical.
A command that fails prints a ``failed`` line naming it (its standard
error goes to standard error) and makes the script exit 1 too: a study
that fails on both sides writes no file on either.  Each command's wall
time goes to standard error, a line naming it and its tree, and after a
tree's last command a line of its total, so the two sides' study times
can be read against each other from one session.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STUDIES = ("rates_gaussian", "tails_gaussian", "compare_cauchy", "rates_adaptive")
# simulate_cusp.json's output path, relative to the directory a command runs in
DATASET = "results/datasets/cusp_laplace.csv"


def _roblp(tree: Path, out: Path, args, workers=1, stdout=None) -> bool:
    """Run ``roblp args`` from ``tree``'s source in directory ``out``,
    its wall time printed to standard error; False, after a ``failed``
    line, when it fails."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "ROBLP_WORKERS": str(workers)}
    command = f"{tree}: roblp {' '.join(map(str, args))} (ROBLP_WORKERS={workers})"
    start = time.perf_counter()
    with open(out / stdout, "w") if stdout else open(os.devnull, "w") as sink:
        done = subprocess.run(
            [sys.executable, "-m", "roblp.cli", *map(str, args)],
            cwd=out, env=env, stdout=sink, stderr=subprocess.PIPE, text=True,
        )
    print(f"{time.perf_counter() - start:8.2f} s  {command}", file=sys.stderr, flush=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        print(f"{'failed':9} {command}")
    return not done.returncode


def run_outputs(tree: Path, out: Path) -> bool:
    """Write every output of ``tree``'s code under ``out``; True when no
    command failed."""
    print(f"running {tree} ...", file=sys.stderr, flush=True)
    start = time.perf_counter()
    configs = tree / "scripts" / "configs"
    out.mkdir(parents=True)
    ok = True
    for name in STUDIES:
        for workers in (1, 2):
            args = [name.split("_")[0], "--config", configs / f"{name}.json"]
            ok &= _roblp(tree, out, args + ["--output-dir", f"{name}_w{workers}"], workers)
    ok &= _roblp(tree, out, ["simulate", "--config", configs / "simulate_cusp.json"])
    settings = ["--data", DATASET, "--x0", "0.25", "--config", configs / "estimator_huber.json"]
    ok &= _roblp(tree, out, ["fit", "--h", "0.2", *settings], stdout="fit.txt")
    ok &= _roblp(tree, out, ["adapt", *settings, "--json", "adapt_trace.json"], stdout="adapt.txt")
    print(f"{time.perf_counter() - start:8.2f} s  {tree}: total", file=sys.stderr, flush=True)
    return ok


def compare(before: Path, after: Path) -> bool:
    """Print one line per output file; True when every one is identical."""
    files = sorted(
        {p.relative_to(root) for root in (before, after) for p in root.rglob("*") if p.is_file()}
    )
    same = True
    for name in files:
        a, b = before / name, after / name
        if not (a.exists() and b.exists()):
            state = "missing"
        else:
            state = "identical" if a.read_bytes() == b.read_bytes() else "changed"
        same &= state == "identical"
        print(f"{state:9} {name}")
    return same and bool(files)


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    rev = sys.argv[1]
    git = ["git", "-C", str(ROOT)]
    verify = git + ["rev-parse", "--verify", "--quiet", rev + "^{commit}"]
    if subprocess.run(verify, capture_output=True).returncode:
        raise SystemExit(f"{rev}: not a commit")
    with tempfile.TemporaryDirectory(prefix="check_outputs_") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "rev"
        add = git + ["worktree", "add", "--detach", "--quiet", str(checkout), rev]
        subprocess.run(add, check=True)
        try:
            ran = run_outputs(checkout, tmp / "before")
        finally:
            subprocess.run(git + ["worktree", "remove", "--force", str(checkout)], check=True)
        ran &= run_outputs(ROOT, tmp / "after")
        same = compare(tmp / "before", tmp / "after")
        return 0 if ran and same else 1


if __name__ == "__main__":
    sys.exit(main())
