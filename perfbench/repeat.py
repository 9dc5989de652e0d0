"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload pir-local-q7 --seeds 101-110
    python3 perfbench/repeat.py --workload all --seeds 101-110 --json out.json

For every metric: the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread, i.e. the interquartile distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  Runs are made one
after another; each is a separate ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    """'101-110', '3,5,8' or '7'."""
    if "," in text:
        return [int(s) for s in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("101-110"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write every value and summary here")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    group = bench["per_layer" if args.trace else "end_to_end"]
    report = {}
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in group}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                return 1
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        summary = {}
        for m in group:
            vals = values[m["name"]]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, None, median)
            spread = (q3 - q1) / median if median else None
            summary[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = m.get("bound")
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"{workload} {m['name']}: median {median:.6g} {m['unit']}, spread {shown}"
                  + (f" (bound {bound})" if bound is not None else ""))
        report[workload] = summary
    if args.json:
        args.json.write_text(json.dumps({"seeds": args.seeds, "trace": args.trace, "workloads": report},
                                        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
