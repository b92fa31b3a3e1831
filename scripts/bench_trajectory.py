"""Write the next BENCH_<n>.json: the benchmark's end-to-end metrics over a fixed seed set.

    python3 scripts/bench_trajectory.py                   # measure this checkout
    python3 scripts/bench_trajectory.py --checkout DIR    # measure another checkout

Each workload that BENCHMARK.json lists runs once per seed in SEEDS, as
``perfbench/run.py --workload W --seed S --trace 0`` from the measured
checkout's own perfbench, for BENCHMARK.json's ``run_seconds``. Runs are
sequential, one process at a time. The file records, per workload, the
median and interquartile range of every end-to-end metric over the seeds,
each run's metrics and digests, and the failed and attempted operation
counts. It also records the provenance block perfbench prints (versions,
CPU, BLAS threads in effect) and the measured commit.

Files are numbered in order in this repository's root: the first is
BENCH_0.json, and each later one names the file before it as its parent.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11, 13)


def run_workload(checkout: Path, command: list, workload: str, seed: int,
                 seconds: float) -> dict:
    """One perfbench run: its report line and its result line."""
    out = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    *_, report, result = out.stdout.strip().splitlines()
    return {"report": json.loads(report)["report"], "result": json.loads(result)}


def summarize(runs: list, units: dict) -> dict:
    """Median and interquartile range of each end-to-end metric over the runs."""
    metrics = {}
    for name, unit in units.items():
        values = [run["metrics"][name] for run in runs]
        q1, q3 = np.percentile(values, [25, 75])
        metrics[name] = {"unit": unit, "median": statistics.median(values),
                         "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}
    return metrics


def next_file() -> tuple:
    """(path of the file to write, name of its parent file or None)."""
    numbers = sorted(int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
                     if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)))
    n = numbers[-1] + 1 if numbers else 0
    return ROOT / f"BENCH_{n}.json", (f"BENCH_{numbers[-1]}.json" if numbers else None)


def commit_of(checkout: Path) -> dict:
    """The checkout's HEAD and whether its tracked files differ from it (None outside git)."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {"head": head, "uncommitted_changes": bool(dirty) if head else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="checkout whose perfbench and sources are measured (default: this one)")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    command = [sys.executable if part in ("python", "python3") else part
               for part in spec["command"]]
    path, parent = next_file()

    workloads, provenance = {}, None
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            out = run_workload(checkout, command, workload, seed, spec["run_seconds"])
            report, result = out["report"], out["result"]
            if provenance is None:
                provenance = {k: v for k, v in report["provenance"].items() if k != "seed"}
            runs.append({"seed": seed,
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                         "digests": report["digests"]})
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        workloads[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summarize(runs, units),
            "runs": runs,
        }

    record = {"file": path.name, "parent": parent, "commit": commit_of(checkout),
              "seeds": list(SEEDS), "run_seconds": spec["run_seconds"],
              "provenance": provenance, "workloads": workloads}
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
