"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --out spread.json

For every end-to-end metric of every workload this prints the median of
the runs, the first and third quartiles (``statistics.quantiles(n=4)``),
the spread (third minus first quartile, as a share of the median) and
the bound from ``BENCHMARK.json``.  A spread above a third of its bound
is flagged: two sets of runs of the same code could then disagree by
more than the bound.  Runs are sequential, one process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                         f"{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--out", help="also write every run's result here (JSON)")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = names if args.workload == "all" else [args.workload]
    results: dict = {}
    flagged = 0
    for workload in workloads:
        started = time.monotonic()
        runs = [run(workload, seed, spec["run_seconds"]) for seed in seeds]
        per_run = (time.monotonic() - started) / len(runs)
        results[workload] = runs
        print(f"{workload}: {len(runs)} runs of {per_run:.0f} s, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bound / 3 else "  <-- wide"
            flagged += bool(flag)
            print(f"  {name:12s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}  bound {bound:.0%}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
