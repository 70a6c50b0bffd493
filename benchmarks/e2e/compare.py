"""Compare a change against its parent on the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        [--workload W ...] [--pairs 10]

Runs ``--pairs`` pairs per workload; pair ``i`` (from 1) runs both
checkouts' ``benchmarks/e2e/run.py`` on seed ``i`` for ``run_seconds``,
the parent first on odd pairs and the change first on even ones.  Run
length, bounds and directions come from this checkout's
``BENCHMARK.json``.  For every workload and end-to-end metric it prints
each side's median and quartiles, the share of pairs the change won, and
one verdict:

- ``improved``: the change won at least nine pairs in ten and the
  medians differ by more than the parent's quartile spread;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: the parent's quartile spread is wider than the bound,
  and not every run of the change reads better than every run of the
  parent;
- ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Judge paired runs (``parent[i]`` with ``change[i]``) of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_median, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_median, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    spread = p_q3 - p_q1
    gain = sign * (c_median - p_median)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and gain > spread:
        outcome = "improved"
    elif -gain > bound * abs(p_median):
        outcome = "regressed"
    elif spread > bound * abs(p_median) and not all_better:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "parent": [p_q1, p_median, p_q3], "change": [c_q1, c_median, c_q3],
        "wins": wins, "pairs": len(parent), "verdict": outcome,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} answered wrongly")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 == 1 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, seed,
                                           spec["run_seconds"]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result = verdict([run[name] for run in runs["parent"]],
                             [run[name] for run in runs["change"]],
                             metric["better"], metric["bound"])
            print(
                f"{workload:<12} {name:<14} parent {result['parent'][1]:.4g}"
                f" [{result['parent'][0]:.4g}, {result['parent'][2]:.4g}]"
                f"  change {result['change'][1]:.4g}"
                f" [{result['change'][0]:.4g}, {result['change'][2]:.4g}]"
                f"  won {result['wins']}/{result['pairs']}  {result['verdict']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
