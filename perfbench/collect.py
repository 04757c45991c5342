"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads suite --seeds 1-5
    python3 perfbench/collect.py --seeds 1-10 --baseline perfbench/baseline.json

Each run is ``run.py --workload W --seed S --seconds <run_seconds> --trace T``
in a fresh process, one after another.  For every metric the summary gives
the median over seeds and the spread: the distance between the first and
third quartile as a share of the median.  An end-to-end spread should stay
below a third of the metric's bound in BENCHMARK.json.  ``--baseline``
writes the medians, the host block and each workload's reason to a file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    host = next(line for line in lines if line.startswith("host: "))
    return {"host": json.loads(host[6:]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="write the medians to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    baseline = {"workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            baseline["host"] = {k: v for k, v in run["host"].items() if k != "seed"}
            result = run["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            runs.append(result)
        summary = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "unit": first["unit"], "spread": spread}
            limit = bounds.get(name)
            flag = ""
            if limit is not None and spread >= limit / 3:
                flag = f"  SPREAD >= bound/3 ({limit / 3:.3f})"
            print(f"  {workload:<12} {name:<44} median {median:<14.6g} "
                  f"spread {spread:.4f}{flag}")
        baseline["workloads"][workload] = {
            "why": whys.get(workload, ""),
            "seeds": args.seeds,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": summary,
        }
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
