"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads reproduce classify search \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out .bench_out/spread.json

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median, next to the metric's bound in
BENCHMARK.json.  A spread must stay below its bound; below a third of it
is the target.  Runs are sequential and each one's result line is kept in
the output file, so two sets of runs can be compared later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    details = json.loads(lines[-2])["details"] if len(lines) > 1 else {}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "result": result, "details": details, "stderr": proc.stderr[-2000:]}


def summarize(runs: list, bounds: dict) -> dict:
    table = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if name in r["result"].get("metrics", {})]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        table[name] = {"median": q2, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / q2 if q2 else float("inf"),
                       "bound": bound, "values": values}
    return table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--out", type=Path, help="write every run and the summary as JSON")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": [], "summary": {}}
    status = 0
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(spec["command"], workload, seed, spec["run_seconds"])
            runs.append(run)
            ok = run["exit"] == 0 and run["result"].get("correct")
            status |= 0 if ok else 1
            print(f"{workload} seed {seed}: exit {run['exit']} "
                  f"{json.dumps({k: round(v['value'], 4) for k, v in run['result'].get('metrics', {}).items()})}",
                  flush=True)
            if not ok:
                print(run["stderr"], file=sys.stderr)
        report["runs"] += runs
        table = summarize(runs, bounds)
        report["summary"][workload] = table
        for name, row in table.items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:10s} {name:12s} median {row['median']:.4g}  "
                  f"spread {row['spread']:.3f}  bound {row['bound']}{flag}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
