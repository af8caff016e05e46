#!/usr/bin/env python3
"""Run the benchmark on several workloads and seeds and report the spread.

    python3 perfbench/suite.py                         # every workload, seed 0
    python3 perfbench/suite.py --seeds 0-9             # ten seeds each
    python3 perfbench/suite.py --workloads c5 --seeds 0,7919 --trace 1

Each run is `perfbench/run.py` with the run length from BENCHMARK.json.
For every workload and metric it prints the median over seeds, the
quartile spread (Q3 - Q1) / median, as statistics.quantiles(n=4) gives
the quartiles, and the metric's bound.  Every run's result, with its
output digests, is saved to .perfbench_work/suite-<time>.json.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "code": proc.returncode, "stderr": proc.stderr[-1000:]}
    result = json.loads(lines[-1])
    digests = [line.split()[1:] for line in lines if line.startswith("outputs ")]
    return {"workload": workload, "seed": seed, "code": 0, "result": result,
            "digests": digests, "log": lines[:-1], "stderr": proc.stderr[-1000:]}


def summarize(runs: list[dict], trace: int) -> None:
    bounds = {m["name"]: m.get("bound") for m in SPEC["per_layer" if trace else "end_to_end"]}
    ok = [r for r in runs if r["code"] == 0]
    attempted = sum(r["result"]["attempted"] for r in ok)
    failed = sum(r["result"]["failed"] for r in ok)
    incorrect = sum(1 for r in ok if not r["result"]["correct"])
    print(f"  runs {len(runs)}, exited non-zero {len(runs) - len(ok)}, incorrect {incorrect}, "
          f"aligns failed {failed}/{attempted}")
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in ok]
        if not values:
            continue
        unit = ok[0]["result"]["metrics"][name]["unit"]
        median = statistics.median(values)
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / abs(median):.4f}"
        else:
            spread = "-"
        verdict = ""
        if bound is not None and spread != "-":
            verdict = "steady" if float(spread) < bound / 3 else ("within bound" if float(spread) <= bound else "TOO WIDE")
        print(f"  {name:34s} {median!r:>24} {unit:6s} spread {spread:>7} bound {bound} {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 0,3,7919")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    all_runs = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            started = time.monotonic()
            run = run_once(workload, seed, args.trace)
            run["wall_s"] = time.monotonic() - started
            status = "ok" if run["code"] == 0 and run["result"]["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status} in {run['wall_s']:.1f} s", flush=True)
            if status != "ok":
                print("  " + run["stderr"].strip().replace("\n", "\n  "))
            runs.append(run)
        print(f"{workload}:")
        summarize(runs, args.trace)
        all_runs.extend(runs)

    out = ROOT / ".perfbench_work" / time.strftime("suite-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(all_runs, indent=1), encoding="utf-8")
    print(f"saved {out.relative_to(ROOT)}")
    bad = [r for r in all_runs if r["code"] != 0 or not r["result"]["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
